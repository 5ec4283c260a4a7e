"""The named entry points of the two decisions, and the digraph view of
bipartite instances.

`supereulerian` and `alternating_hamiltonian_cycle` (in
`ecgraph.merge`) decide extensions of M-closed graphs, and
`decide_complete_bipartite` complete bipartite graphs; each reads
`Analysis.decision`, where both characterizations are stated, and
raises UnsupportedClass outside its class.  `merge_trails_pair` is
`ecgraph.merge.merge_cycles`, the pair merge on two trails given by
ids, under a second name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import Analysis, Decision
from .core import (
    Colour,
    Edge,
    EdgeColouredMultigraph,
    GraphError,
    UnsupportedClass,
)
# merge_trails_pair is kept as a public name of the one pair merge
from .merge import merge_cycles as merge_trails_pair


def supereulerian(g: EdgeColouredMultigraph) -> Decision:
    """Spanning closed alternating trail of an extension of an M-closed
    graph, or the reason none exists."""
    d = Analysis.of(g).decision("supereulerian")
    if d is None or d.route != "extension":
        raise UnsupportedClass(
            "input is not an extension of an M-closed graph")
    return d


# ---------------------------------------------------------------------
# bipartite graphs as digraphs
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class BipartiteDigraph:
    """Digraph view of a bipartite 2-edge-coloured graph: a red edge
    points from the X side to the Y side, a blue edge the other way."""

    x_part: tuple[str, ...]
    y_part: tuple[str, ...]
    arcs: tuple[tuple[str, str, str], ...]   # (id, tail, head)


def bb_to_digraph(g: EdgeColouredMultigraph) -> BipartiteDigraph:
    side: dict[str, int] = {}
    for v in g.vertices:
        if v in side:
            continue
        side[v] = 0
        stack = [v]
        while stack:
            a = stack.pop()
            for b in g.neighbours(a):
                if b not in side:
                    side[b] = 1 - side[a]
                    stack.append(b)
                elif side[b] == side[a]:
                    raise GraphError("graph is not bipartite")
    xs = [v for v in g.vertices if side[v] == 0]
    x_set = set(xs)
    ys = [v for v in g.vertices if v not in x_set]
    arcs: list[tuple[str, str, str]] = []
    for e in g.edges:
        in_x = e.u in x_set
        if in_x == (e.v in x_set):
            raise GraphError(f"edge {e.id!r} does not cross the bipartition")
        x_end, y_end = (e.u, e.v) if in_x else (e.v, e.u)
        if e.colour is Colour.RED:
            arcs.append((e.id, x_end, y_end))
        else:
            arcs.append((e.id, y_end, x_end))
    return BipartiteDigraph(tuple(xs), tuple(ys), tuple(arcs))


def bb_from_digraph(d: BipartiteDigraph) -> EdgeColouredMultigraph:
    x_set = set(d.x_part)
    edges = []
    for eid, tail, head in d.arcs:
        if tail in x_set:
            edges.append(Edge(eid, tail, head, Colour.RED))
        else:
            edges.append(Edge(eid, head, tail, Colour.BLUE))
    return EdgeColouredMultigraph(tuple(d.x_part) + tuple(d.y_part), edges)


def decide_complete_bipartite(g: EdgeColouredMultigraph,
                              question: str) -> Decision:
    """The decision of `question` for a complete bipartite graph: by
    its own characterization, or, for one that is also an extension of
    an M-closed graph, by that route, as everywhere else."""
    if not Analysis.of(g).complete_bipartite:
        raise UnsupportedClass("input is not complete bipartite")
    return Analysis.of(g).decision(question)
