"""Supereulerian decision and construction for extensions of M-closed
graphs, plus the complete-bipartite fast decision and the digraph view
of bipartite instances.

Such a graph has a spanning closed alternating trail iff it is
trail-colour-connected and has an eulerian factor.  The construction
hands the factor's closed trails to `ecgraph.merge.merge_factor`, which
merges them pairwise in place through its private pair merge `_pair`,
with the cycle moves, and through the domination tournament where no
pair merges.  `merge_trails_pair` is `ecgraph.merge.merge_cycles`, that
pair merge on two trails given by ids, under a second name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import Analysis
from .core import (
    AlternatingTrail,
    Colour,
    Edge,
    EdgeColouredMultigraph,
    GraphError,
    UnsupportedClass,
)
# merge_trails_pair is kept as a public name of the one pair merge
from .merge import merge_cycles as merge_trails_pair, merge_factor


# ---------------------------------------------------------------------
# top-level decision
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class SupereulerianResult:
    trail: Optional[AlternatingTrail] = None
    reason: Optional[str] = None    # "no_eulerian_factor" |
    #                                 "not_trail_colour_connected"
    counterexample: Optional[tuple[str, str, Colour]] = None

    def __bool__(self) -> bool:
        return self.trail is not None


def supereulerian(g: EdgeColouredMultigraph) -> SupereulerianResult:
    """Spanning closed alternating trail of an extension of an M-closed
    graph, or the reason none exists."""
    a = Analysis.of(g)
    if a.ext is None:
        raise UnsupportedClass(
            "input is not an extension of an M-closed graph")
    if len(g.vertices) < 2:
        raise UnsupportedClass("need at least two vertices")
    ef = a.ef
    if ef is None:
        return SupereulerianResult(reason="no_eulerian_factor")
    rep = a.tcc
    if not rep.connected:
        return SupereulerianResult(reason="not_trail_colour_connected",
                                   counterexample=rep.counterexample)
    return SupereulerianResult(
        trail=merge_factor(g, [t for _, t in ef.parts]))


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


# ---------------------------------------------------------------------
# complete bipartite fast decision
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class CompleteBipartiteVerdict:
    supereulerian: bool
    hamiltonian: bool
    colour_connected: bool
    counterexample: Optional[tuple[str, str, Colour]] = None


def decide_complete_bipartite(g: EdgeColouredMultigraph
                              ) -> CompleteBipartiteVerdict:
    """Characterization-based decision for complete bipartite graphs:
    supereulerian iff colour-connected with an eulerian factor, and
    hamiltonian iff colour-connected with an alternating cycle factor."""
    a = Analysis.of(g)
    if not a.complete_bipartite:
        raise UnsupportedClass("input is not complete bipartite")
    rep = a.cc
    return CompleteBipartiteVerdict(
        supereulerian=rep.connected and a.ef is not None,
        hamiltonian=rep.connected and a.cf is not None,
        colour_connected=rep.connected,
        counterexample=rep.counterexample,
    )
