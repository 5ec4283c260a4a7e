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
once, from the graph's integer index (`EdgeColouredMultigraph`).
One blossom search per source and start colour then answers every
target and end colour, because its outer vertices are exactly the
copies whose deletion leaves a perfect matching (see
`alternating_path`); a sweep keeps only the current source's two.

Each positive triple is read back as positions in g.edges and checked
by `check_walk`, on the graph's `walk`, the routine `verify_witness`
runs too, for its end vertex, its end colours and, for a path,
simplicity: the package's one check of these verdicts, which the path
and trail oracles run as well.  A sweep builds no witness object;
`alternating_path` and `alternating_trail`, which ask the same query
objects once, turn the checked positions into an `AlternatingTrail`
(`ids`) and do not check it again.

A sweep asks the triples (u, v, start colour) in one order, u, then v,
then red before blue, from a start triple on (the first, for the public
sweeps), and stops at the first that fails.

Both sweeps always run on the graph they are given.  Sweeping a smaller
graph in its place (the similarity quotient of an extension of an
M-closed graph) is a decision about the graph class, so it is made in
`ecgraph.analysis`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    BIT_COLOUR,
    AlternatingTrail,
    Colour,
    EdgeColouredMultigraph,
    UnsupportedClass,
    check_walk,
)
from .matching import IndexedGraph


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    counterexample: Optional[tuple[str, str, Colour]] = None


class _PathQuery:
    """Alternating path queries on one graph, against its split graph
    built once in integer form.

    Vertex i of g has a red copy 2i and a blue copy 2i+1, joined by an
    internal edge; a colour-c edge at position k of g.edges joins the
    two c-copies, and the split graph keeps k as its id.  The searches
    from the current source's two copies are kept, so a sweep searches
    once per (source, start colour).  A subclass changes only the split
    graph and its read-back: vertex i's first copy of colour bit c is
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
        eu, ev, bit, n = g.eu, g.ev, g.bit, len(g.vertices)
        edges = [(2 * i, 2 * i + 1, -1) for i in range(n)]
        edges += [(2 * eu[k] + bit[k], 2 * ev[k] + bit[k], k)
                  for k in range(len(bit))]
        return IndexedGraph(2 * n, edges)

    def _read_back(self, a: int, stop: int, p: list[int]) -> list[int]:
        """The positions in g.edges of the split edges on the search
        tree's path from split vertex a back to `stop`, last edge
        first: p crosses a split edge, ^ 1 a pair."""
        split = self._split
        seq = []
        while a != stop:
            b = p[a]
            seq.append(split.edge_id(a, b))
            a = b ^ 1
        return seq

    def positions(self, x: int, y: int, start: int, end: int = -1
                  ) -> Optional[list[int]]:
        """The positions in g.edges of an alternating path (trail) from
        vertex index x to y != x, first colour bit `start`, last colour
        bit `end` (either when -1), once checked; None if there is
        none."""
        root = self.STRIDE * x + start
        search = self._searches.get(root)
        if search is None:
            # a new source drops the searches of the one before
            if root ^ 1 not in self._searches:
                self._searches.clear()
            search = self._searches[root] = self._split.search(root)
        outer = search[0]
        # y's non-end copy must be outer; end -1 tries red first
        j = self.STRIDE * y
        if end >= 0:
            last = j + end if outer[(j + end) ^ 1] else -1
        else:
            last = j if outer[j + 1] else j + 1 if outer[j] else -1
        if last < 0:
            return None
        ks = self._read_back(last, root ^ 1, search[1])
        ks.reverse()
        check_walk(self.g, x, ks, y, start, end, self.SIMPLE)
        return ks

    def __call__(self, x: str, y: str, start: Colour,
                 end: Optional[Colour] = None) -> Optional[AlternatingTrail]:
        if x == y:
            raise ValueError("endpoints must differ")
        g = self.g
        ks = self.positions(g.index[x], g.index[y], start.bit,
                            -1 if end is None else end.bit)
        return None if ks is None else AlternatingTrail(x, g.ids(ks))


class _TrailQuery(_PathQuery):
    """Alternating trail queries on one graph, as path queries in its
    trail split graph, built once; `alternating_trail` gives its numbers."""

    STRIDE = 4
    SIMPLE = False

    @staticmethod
    def _split_graph(g: EdgeColouredMultigraph) -> IndexedGraph:
        eu, ev, bit, n = g.eu, g.ev, g.bit, len(g.vertices)
        # each vertex's pair partner first, then in edge order; no two
        # edges are parallel, so the lists are built directly
        adj = [[a ^ 1] for a in range(4 * n + 2 * len(bit))]
        for k in range(len(bit)):
            h = 4 * n + 2 * k
            u = 4 * eu[k] + bit[k]
            v = 4 * ev[k] + bit[k]
            adj[h] += (u, u + 2)
            adj[u].append(h)
            adj[u + 2].append(h)
            adj[h + 1] += (v, v + 2)
            adj[v].append(h + 1)
            adj[v + 2].append(h + 1)
        return IndexedGraph.from_adjacency(adj)

    def _read_back(self, a: int, stop: int, p: list[int]) -> list[int]:
        # every split edge on the path has a helper end, the larger
        # one; helper h = 4n + 2k stands for edge k, h + 1 for nothing
        base = 4 * len(self.g.vertices)
        seq = []
        while a != stop:
            b = p[a]
            h = a if a > b else b
            if not h & 1:
                seq.append((h - base) >> 1)
            a = b ^ 1
        return seq


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
    A sweep asks the one query object it builds at most 2·n·(n-1)
    times, with at most 2·n searches.
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
    joins h to the c-vertices 4i + c, 4i + 2 + c of u's copies, h + 1
    to v's; a query runs from x's first copy to y's.  A tree path
    crosses one edge at h per pass through a gadget, in either
    direction, so the even helpers h on it give the trail's edges,
    k = (h - 4n) / 2.
    """
    return _TrailQuery(g)(x, y, start, end)


def _sweep(g: EdgeColouredMultigraph, make,
           start: tuple[int, int, int] = (0, 0, 0)) -> ConnectivityReport:
    n = len(g.vertices)
    if n < 2:
        raise UnsupportedClass("connectivity needs at least two vertices")
    query = make(g)
    names = g.vertices
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            for c in (0, 1):
                if (u, v, c) >= start and query.positions(u, v, c) is None:
                    return ConnectivityReport(
                        False, (names[u], names[v], BIT_COLOUR[c]))
    return ConnectivityReport(True)


def is_colour_connected(g: EdgeColouredMultigraph) -> ConnectivityReport:
    return _sweep(g, _PathQuery)


def is_trail_colour_connected(g: EdgeColouredMultigraph
                              ) -> ConnectivityReport:
    return _sweep(g, _TrailQuery)


def complete_multipartite_classes(g: EdgeColouredMultigraph
                                  ) -> Optional[list[list[str]]]:
    """Partite classes if g is complete multipartite, else None.

    The candidate classes group the vertices by neighbour set.  Without
    loops no vertex is its own neighbour, so vertices of one group are
    never adjacent, and g is complete multipartite exactly when each
    vertex is adjacent to all n - |its group| vertices outside it."""
    groups: dict[frozenset[int], list[str]] = {}
    for i, v in enumerate(g.vertices):
        groups.setdefault(frozenset(g.star(i)[1]), []).append(v)
    n = len(g.vertices)
    if any(len(nb) != n - len(cls) for nb, cls in groups.items()):
        return None
    return list(groups.values())
