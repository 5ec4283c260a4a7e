"""Alternating paths and trails with prescribed end colours, and the
two connectivity notions built on them.

A graph is colour-connected when every ordered vertex pair (u, v) admits
an alternating (u, v)-path starting with each colour, and
trail-colour-connected when the same holds with trails in place of
paths.  Both reduce to perfect matching in a split graph on integers:
for paths a red and a blue copy of every vertex (`alternating_path`),
for trails two such pairs per vertex and two helpers per edge
(`alternating_trail`).

Neither split graph depends on the queried pair, so a sweep builds it
once.  One blossom search per source and start colour then answers
every target and end colour, because its outer vertices are exactly the
copies whose deletion leaves a perfect matching (see
`alternating_path`); a sweep keeps only the current source's two.
`alternating_path` and `alternating_trail` build the same query objects
and ask them once.

Both sweeps always run on the graph they are given.  Sweeping a smaller
graph in its place (the similarity quotient of an extension of an
M-closed graph) is a decision about the graph class, so it is made in
`ecgraph.analysis`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    AlternatingTrail,
    Colour,
    EdgeColouredMultigraph,
    GraphError,
    UnsupportedClass,
    verify_witness,
)
from .matching import IndexedGraph


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    counterexample: Optional[tuple[str, str, Colour]] = None
    witnesses: Optional[dict[tuple[str, str, Colour], AlternatingTrail]] = None


class _PathQuery:
    """Alternating path queries on one graph, against its split graph
    built once in integer form.

    Vertex i of g has a red copy 2i and a blue copy 2i+1, joined by an
    internal edge; a colour-c graph edge joins the two c-copies.  The
    searches from the current source's two copies are kept, so a sweep
    searches once per (source, start colour).  A subclass changes only
    the split graph: vertex i's first copy of colour c is
    `STRIDE * i + c`, and every split vertex a is paired with a ^ 1.
    """

    STRIDE = 2
    SIMPLE = True

    def __init__(self, g: EdgeColouredMultigraph):
        self.g = g
        self._split = self._split_graph(g)
        self._searches: dict[int, tuple] = {}

    @staticmethod
    def _split_graph(g: EdgeColouredMultigraph) -> IndexedGraph:
        edges: list[tuple[int, int, Optional[str]]] = [
            (2 * i, 2 * i + 1, None) for i in range(len(g.vertices))]
        for e in g.edges:
            c = _copy_bit(e.colour)
            edges.append((2 * g.vertex_index(e.u) + c,
                          2 * g.vertex_index(e.v) + c, e.id))
        return IndexedGraph(2 * len(g.vertices), edges)

    def __call__(self, x: str, y: str, start: Colour,
                 end: Optional[Colour] = None) -> Optional[AlternatingTrail]:
        if x == y:
            raise ValueError("endpoints must differ")
        root = self.STRIDE * self.g.vertex_index(x) + _copy_bit(start)
        if root not in self._searches:
            # a new source drops the searches of the one before
            if root ^ 1 not in self._searches:
                self._searches.clear()
            self._searches[root] = self._split.search(root)
        outer, p, _ = self._searches[root]
        # y's non-end copy must be outer; end=None tries red first
        j = self.STRIDE * self.g.vertex_index(y)
        ends = (j, j + 1) if end is None else (j + _copy_bit(end),)
        last = next((c for c in ends if outer[c ^ 1]), None)
        if last is None:
            return None
        # back to root: p crosses a split edge (id of g or None), ^ 1 a pair
        seq: list[Optional[str]] = []
        a = last
        while a != root ^ 1:
            seq.append(self._split.edge_id(a, p[a]))
            a = p[a] ^ 1
        t = AlternatingTrail(x, tuple(e for e in seq[::-1] if e is not None))
        _check(self.g, t, y, start, end, self.SIMPLE)
        return t


class _TrailQuery(_PathQuery):
    """Alternating trail queries on one graph, as path queries in its
    trail split graph, built once; `alternating_trail` gives its numbers."""

    STRIDE = 4
    SIMPLE = False

    @staticmethod
    def _split_graph(g: EdgeColouredMultigraph) -> IndexedGraph:
        n = len(g.vertices)
        # the pairs first: vertex copies', then helpers'
        edges: list[tuple[int, int, Optional[str]]] = [
            (2 * a, 2 * a + 1, None) for a in range(2 * n + len(g.edges))]
        for k, e in enumerate(g.edges):
            h = 4 * n + 2 * k
            c = _copy_bit(e.colour)
            u = 4 * g.vertex_index(e.u) + c
            v = 4 * g.vertex_index(e.v) + c
            edges += ((h, u, e.id), (h, u + 2, e.id),
                      (h + 1, v, None), (h + 1, v + 2, None))
        return IndexedGraph(4 * n + 2 * len(g.edges), edges)


def _copy_bit(c: Colour) -> int:
    return 0 if c is Colour.RED else 1


def _check(g: EdgeColouredMultigraph, t: AlternatingTrail, y: str,
           start: Colour, end: Optional[Colour], simple: bool = False
           ) -> None:
    """Raise unless t is a valid alternating trail of g that ends at y,
    starts with colour `start`, ends with colour `end` unless that is
    None, and visits no vertex twice if `simple`: all read from
    verification's one walk of t.  Explicit, so python -O keeps it."""
    r = verify_witness(g, t)
    if not r:
        problem = f"fails verification: {r.reason}"
    elif r.end != y:
        problem = f"ends at {r.end!r}"
    elif r.first is not start:
        problem = f"starts with {r.first!r}"
    elif end is not None and r.last is not end:
        problem = f"ends with {r.last!r}"
    elif simple and not r.simple:
        problem = "revisits a vertex"
    else:
        return
    raise GraphError(f"internal error: {t.start!r}-{y!r} witness {problem}")


def alternating_path(g: EdgeColouredMultigraph, x: str, y: str,
                     start: Colour, end: Optional[Colour] = None
                     ) -> Optional[AlternatingTrail]:
    """Simple alternating (x,y)-path, first edge colour `start`, last
    edge colour `end` (either colour when end is None).

    Reduction to perfect matching in the split graph: every vertex has
    a red and a blue copy joined by an internal edge, and a colour-c
    graph edge joins the two c-copies.  Delete x's non-start copy and
    y's non-end copy.  That also removes the internal edges of x and y,
    because each has a deleted copy as an end, so x's start copy and
    y's end copy must be matched by graph edges.  Every other vertex is
    then either matched internally (off the path) or has both copies
    matched by graph edges of different colours (on it), so a perfect
    matching decomposes into the wanted path plus internal edges and
    alternating cycles.

    One blossom search from x's start copy answers this for every y:
    with x's other copy deleted, it is the only vertex the internal
    edges leave exposed, so y's non-end copy is outer exactly when
    deleting it too leaves a perfect matching (`IndexedGraph.search`).
    The graph edges on its tree path back from that copy are the path.
    A sweep asks the query object this builds up to 2·n·(n-1) times.
    """
    return _PathQuery(g)(x, y, start, end)


def alternating_trail(g: EdgeColouredMultigraph, x: str, y: str,
                      start: Colour, end: Optional[Colour] = None
                      ) -> Optional[AlternatingTrail]:
    """Alternating (x,y)-trail with prescribed first (and optionally
    last) edge colour, via a path query in the trail split graph.

    An auxiliary graph gives each vertex v copies v.1 and v.2, and each
    colour-c edge uv helpers hu and hv, joined by the other colour; hu
    is joined by colour c to both copies of u, hv to both of v.  Its
    alternating (x.1, y.1)-paths cross gadgets whole and give the
    (x,y)-trails of g, and a shortest trail lifts: of three visits to a
    vertex, two enter by one colour or one leaves by the start colour,
    and the closed trail between them can be cut out.  Split, hu and hv
    are a chain hu_c - hu_c' - hv_c' - hv_c with two degree-2 middle
    vertices: it has the same perfect matchings on the other vertices as
    the edge hu_c - hv_c (the middle pair is matched, or both outer
    edges are).  So `_TrailQuery` gives edge k of g the pair
    h = 4n + 2k, h + 1, also a start pair of `IndexedGraph.search`, and
    joins h by edges with e's id to the c-vertices 4i + c, 4i + 2 + c of
    u's copies, h + 1 to v's by edges with none; a query runs from x's
    first copy to y's.  A tree path crosses one id-carrying edge per
    pass through a gadget, in either direction, so those ids are the
    trail.
    """
    return _TrailQuery(g)(x, y, start, end)


def _sweep(g: EdgeColouredMultigraph, make, collect: bool
           ) -> ConnectivityReport:
    if len(g.vertices) < 2:
        raise UnsupportedClass("connectivity needs at least two vertices")
    query = make(g)
    witnesses: dict[tuple[str, str, Colour], AlternatingTrail] = {}
    for u in g.vertices:
        for v in g.vertices:
            if u == v:
                continue
            for c in (Colour.RED, Colour.BLUE):
                w = query(u, v, c)
                if w is None:
                    return ConnectivityReport(False, (u, v, c))
                if collect:
                    witnesses[(u, v, c)] = w
    return ConnectivityReport(True, None, witnesses if collect else None)


def is_colour_connected(g: EdgeColouredMultigraph, collect: bool = False
                        ) -> ConnectivityReport:
    return _sweep(g, _PathQuery, collect)


def is_trail_colour_connected(g: EdgeColouredMultigraph,
                              collect: bool = False) -> ConnectivityReport:
    return _sweep(g, _TrailQuery, collect)


def complete_multipartite_classes(g: EdgeColouredMultigraph
                                  ) -> Optional[list[list[str]]]:
    """Partite classes if g is complete multipartite, else None.

    The candidate classes group the vertices by neighbour set.  Without
    loops no vertex is its own neighbour, so vertices of one group are
    never adjacent, and g is complete multipartite exactly when each
    vertex is adjacent to all n - |its group| vertices outside it."""
    groups: dict[frozenset[str], list[str]] = {}
    for v in g.vertices:
        groups.setdefault(frozenset(g.neighbours(v)), []).append(v)
    n = len(g.vertices)
    if any(len(nb) != n - len(cls) for nb, cls in groups.items()):
        return None
    return list(groups.values())
