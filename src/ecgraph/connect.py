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
A sweep only asks whether each target has an outer copy, so its
searches stop as soon as every vertex has one among its first two
copies (`IndexedGraph.search`'s stop rule): an outer label stays
outer, and by Gallai-Edmonds the completed search's outer set does not
depend on the order edges are examined, so a stopped search answers
every target as the completed one would, and a search with a missing
target runs to completion.  Its tree goes through the same check.
Single queries (`positions`) read a completed search in edge order,
never a sweep's, so their witnesses do not depend on the sweep.

A search's paths form a tree: node a = b ^ 1 for each outer copy b,
with parent p[a] ^ 1, rooted at the masked copy, and a target's path is
its node's root path.  So a sweep checks trees, not triples:
the first time a triple asks a node, it climbs to the node's first
checked ancestor and checks each step down once, against g's own
arrays, bound once per query object (the edge joins the two vertices
in the colours of both copies, so colours alternate from the start
colour), and keeps a path simple (a trail edge-distinct) with a
bitmask of the vertices (edges) that a second node of the tree could
take again.  That is the package's check of a sweep's yes; it survives
python -O, costs each search one step per node it settles, and builds
no witness.  A copy that is outer but whose node fails the check is an
internal error, never a no.

A single query (`positions`, which `alternating_path` and
`alternating_trail` ask) climbs the same tree with the same check
(`_settle`), from its end node to the root on a fresh state, and
collects each checked step's edge position on the way back down; a
node that fails raises the sweeps' internal error.  `check_walk` then
checks the positions on the graph's `walk`, the routine
`verify_witness` runs too, for the end vertex, the end colours and, for
a path, simplicity, as the path and trail oracles check theirs.  The
two public queries turn the checked positions into an
`AlternatingTrail` (`ids`) and do not check it again.

A sweep asks the triples (u, v, start colour) in one order, u, then v,
then red before blue, from a start triple on (the first, for the public
sweeps), and stops at the first that fails.  It reads one source at a
time: row u fetches its red search at its first red triple and its
blue search at its first blue triple (through the memo, so a search
already run for the same source is not run again), then reads each
target's outer copies straight off the two searches and settles only
end nodes not yet settled.  A row resumed at a blue start triple skips
that target's red triple, so its blue search comes first.  `reaches`,
one triple through the same memo and check, is left to the base
confirm in `ecgraph.analysis`.

On a bipartite graph both notions are plain digraph reachability.
Orient each red edge from side X to side Y and each blue edge from Y to
X: the digraph view that `reductions.bb_to_digraph` builds.  Take the
sides of `bipartite_sides`, so vertex 0 is on X, and let c be a start
colour bit.  Sides alternate along any walk, so a walk alternates in
colour exactly where its edges are arcs all taken forwards or all
backwards.  Where c is 0's side bit, an alternating (0, v)-walk of
first colour c is thus a directed 0 -> v walk; otherwise it is a
directed v -> 0 walk read backwards.  A directed walk contains a
directed path with the same ends, and its first arc at 0 has the start
colour again, so (0, v, c) has an alternating path iff it has an
alternating trail iff v is reached from 0 in that direction; the same
holds at every start vertex.  So g is colour-connected iff the digraph
is strong, and its trail report is its path report, counterexample
included.  If the digraph is not strong, vertex 0 itself misses some v
in one direction, so the sweeps' first failing triple starts at vertex
0: it is (0, v, c) for the smallest v that the search along the arcs
(c = 0, red) or against them (c = 1, blue) misses, red first.
`_digraph_sweep` reads it off those two searches from vertex 0.  Its
yes rests on the two search trees: each tree arc is checked against
g's arrays and the sides (it joins an earlier reached vertex to a new
one on the other side, in the colour of its tail's side), which makes
every tree path an alternating path with the tree's start colour.  The
check survives python -O, and an arc that fails it is an internal
error, never a no.  The full sweeps `is_colour_connected` and
`is_trail_colour_connected` stay the reference the tests compare it
with.

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
    GraphError,
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
    internal edge; two vertices joined in colour c have their c-copies
    joined once, by the edge that g's `first_edges` give for the pair.
    The searches from the current source's two copies are kept, with
    what their trees' checks found, so a sweep searches once per
    (source, start colour) and checks each tree node at most once.  A
    sweep reads one source's row at a time straight off those two
    searches (`_search`); only the base confirm asks `reaches`.  g's
    arrays that the tree check reads are bound once, when the object
    is built (`_bind`).  A subclass changes only the split graph, those
    arrays and the steps of its search tree (`_settle`): vertex i's
    first copy of colour bit c is `STRIDE * i + c`, and every split
    vertex a is paired with a ^ 1.
    """

    STRIDE = 2
    SIMPLE = True

    def __init__(self, g: EdgeColouredMultigraph):
        self.g = g
        self._split = self._split_graph(g)
        self._searches: dict[int, tuple] = {}
        self._arrays = self._bind(g)

    @staticmethod
    def _bind(g: EdgeColouredMultigraph) -> tuple:
        """What `_settle` reads of g, bound once per query object: the
        first-edge tables, then the edge arrays it checks steps on."""
        return g.first_edges(), g.eu, g.ev, g.bit

    @staticmethod
    def _split_graph(g: EdgeColouredMultigraph) -> IndexedGraph:
        # copy a's partner a ^ 1, then the copies of its vertex's
        # neighbours in a's colour, in the order of g's first_edges
        adj = []
        for i, (red, blue) in enumerate(g.first_edges()):
            adj.append([2 * i + 1, *[2 * w for w in red]])
            adj.append([2 * i, *[2 * w + 1 for w in blue]])
        return IndexedGraph(adj)

    def _search(self, root: int) -> tuple[list[bool], list[int], list]:
        """outer and p of the search from split vertex root, stopped as
        soon as every vertex has an outer copy among its first two, and
        the state `_settle` keeps of its tree's nodes."""
        search = self._searches.get(root)
        if search is None:
            # a new source drops the searches of the one before
            if root ^ 1 not in self._searches:
                self._searches.clear()
            n = len(self.g.vertices)
            outer, p, _ = self._split.search(root, n, self.STRIDE)
            state = [None] * (self.STRIDE * n)
            # the root node's path holds nothing; root itself is no
            # node, as its partner is masked
            state[root ^ 1] = 0
            search = self._searches[root] = outer, p, state
        return search

    def _settle(self, a: int, outer: list[bool], p: list[int],
                state: list, ks: Optional[list[int]] = None) -> int:
        """Settle node a of the search tree p, and the unsettled nodes
        above it, in state: -1 for a node whose root path fails the
        check, else the bitmask below.  Returns a's.  A list ks collects
        the edge position of each step checked, root first: on a fresh
        state, a's whole root path.

        A node is a split vertex whose partner is outer; node a's parent
        is b ^ 1, b = p[a], over the split edge (a, b), and the step's
        position k in g.edges is what g's `first_edges` give for b's
        vertex, b's colour and a's vertex.  Climb from a to its first
        settled node (-1 where the chain leaves the nodes or loops
        back), then check each step down against g's arrays: edge k
        joins b's vertex to a's in the colour bit of both, so colours
        alternate and the first has the root's colour.  A path can take
        a's vertex twice only through node a ^ 1 too, so where that is a
        node, a's vertex must not be in the parent's bitmask, and goes
        into a's."""
        chain = []
        while state[a] is None:
            # -1 until checked, so a chain that loops back stops here
            state[a] = -1
            chain.append(a)
            b = p[a]
            if b < 0 or not outer[b]:
                return -1
            a = b ^ 1
        s = state[a]
        if s < 0:
            return -1
        first, eu, ev, bit = self._arrays
        m = len(bit)
        for a in reversed(chain):
            b = p[a]
            v, w = b >> 1, a >> 1
            k = first[v][b & 1].get(w)
            if k is None:
                return -1
            if not (0 <= k < m and bit[k] == a & 1 == b & 1 and (
                    eu[k] == v and ev[k] == w or eu[k] == w and ev[k] == v)):
                return -1
            if outer[a]:
                mask = 1 << w
                if s & mask:
                    return -1
                s |= mask
            if ks is not None:
                ks.append(k)
            state[a] = s
        return s

    def reaches(self, x: int, y: int, start: int) -> bool:
        """Whether g has an alternating path (trail) from vertex index x
        to y != x, first colour bit `start`: y's non-end copy is outer in
        the search from x's start copy, red end first, and its end node
        is checked (`_settle`).  An outer copy whose end node fails the
        check is an internal error, never a no.  The sweeps read the
        same off their rows; the base confirm asks it one triple at a
        time."""
        root = self.STRIDE * x + start
        outer, p, state = self._searches.get(root) or self._search(root)
        j = self.STRIDE * y
        last = j if outer[j + 1] else j + 1 if outer[j] else -1
        if last < 0:
            return False
        s = state[last]
        if s is None:
            s = self._settle(last, outer, p, state)
        if s < 0:
            raise self._tree_fault(x, y)
        return True

    def positions(self, x: int, y: int, start: int, end: int = -1
                  ) -> Optional[list[int]]:
        """The positions in g.edges of an alternating path (trail) from
        vertex index x to y != x, first colour bit `start`, last colour
        bit `end` (either when -1), as `_settle` checks and collects
        them, checked again by `check_walk`; None if there is none."""
        root = self.STRIDE * x + start
        # a completed search, never the sweeps' stopped one, so the
        # witness does not depend on the queries asked before
        outer, p, _ = self._split.search(root)
        # y's non-end copy must be outer; end -1 tries red first
        j = self.STRIDE * y
        if end >= 0:
            last = j + end if outer[(j + end) ^ 1] else -1
        else:
            last = j if outer[j + 1] else j + 1 if outer[j] else -1
        if last < 0:
            return None
        # a fresh state, so that the climb checks every step to the root
        state = [None] * (self.STRIDE * len(self.g.vertices))
        state[root ^ 1] = 0
        ks = []
        if self._settle(last, outer, p, state, ks) < 0:
            raise self._tree_fault(x, y)
        check_walk(self.g, x, ks, y, start, end, self.SIMPLE)
        return ks

    def _tree_fault(self, x: int, y: int) -> GraphError:
        names = self.g.vertices
        return GraphError(f"internal error: {names[x]!r}-{names[y]!r} "
                          f"witness fails the search tree's check")

    def __call__(self, x: str, y: str, start: Colour,
                 end: Optional[Colour] = None) -> Optional[AlternatingTrail]:
        if x == y:
            raise ValueError("endpoints must differ")
        g = self.g
        ks = self.positions(g.vertex_index(x), g.vertex_index(y), start.bit,
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
        # each vertex's pair partner first, then in edge order; every
        # edge has helpers of its own, so no two split edges are parallel
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
        return IndexedGraph(adj)

    @staticmethod
    def _bind(g: EdgeColouredMultigraph) -> tuple:
        # the first split vertex past the vertex copies, in place of
        # the first-edge tables, which a trail's steps do not read
        return 4 * len(g.vertices), g.eu, g.ev, g.bit

    def _settle(self, a: int, outer: list[bool], p: list[int],
                state: list, ks: Optional[list[int]] = None) -> int:
        # kept apart from _PathQuery._settle, as four shared climbs and
        # checks (tuple steps, a per-step hook, a flat chain, parallel
        # lists) each read sweep_dense wall_s 3-22% higher, median 7%,
        # in 14 of 14 alternating pairs (--seconds 4, seed 11, on a
        # shared 2-core host).
        # Only vertex copies are nodes here: copy a hangs from helper
        # node h ^ 1 of edge k, h = p[a] outer, which hangs from copy
        # p[h ^ 1] ^ 1, so one step crosses the helper pair and edge k.
        # A trail can take edge k twice only through both helper nodes,
        # so where h is a node too, k goes into the bitmask
        base, eu, ev, bit = self._arrays
        chain = []
        while state[a] is None:
            state[a] = -1
            chain.append(a)
            h = p[a]
            b = p[h ^ 1] if h >= base and outer[h] else -1
            if not 0 <= b < base:
                return -1
            a = b ^ 1
        s = state[a]
        if s < 0:
            return -1
        m = len(bit)
        for a in reversed(chain):
            h = p[a]
            b = p[h ^ 1]
            k = (h - base) >> 1
            v, w = b >> 2, a >> 2
            if not (k < m and bit[k] == a & 1 == b & 1 and (
                    eu[k] == v and ev[k] == w or eu[k] == w and ev[k] == v)):
                return -1
            if outer[h ^ 1]:
                mask = 1 << k
                if s & mask:
                    return -1
                s |= mask
            if ks is not None:
                ks.append(k)
            state[a] = s
        return s


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


def _sweep(q: _PathQuery, start: tuple[int, int, int] = (0, 0, 0)
           ) -> ConnectivityReport:
    """q's report: its first triple from `start` on, in sweep order,
    that has no alternating path (trail), or yes.  Each source's row
    reads the outer copies of its two searches (`_search`), fetched at
    the row's first triple of each start colour, and settles the end
    nodes it meets that are not yet settled (see `reaches`)."""
    names = q.g.vertices
    n = len(names)
    if n < 2:
        raise UnsupportedClass("connectivity needs at least two vertices")
    stride, search, settle = q.STRIDE, q._search, q._settle
    u0, v0, c0 = start
    for u in range(u0, n):
        trees = [None, None]
        # row u0 begins at v0, without (u0, v0, red) where c0 is blue;
        # every later row at v = 0, red first
        first, colours = (v0, (1,) if c0 else (0, 1)) if u == u0 \
            else (0, (0, 1))
        for v in range(first, n):
            if v == u:
                continue
            j = stride * v
            for c in colours:
                tree = trees[c]
                if tree is None:
                    tree = trees[c] = search(stride * u + c)
                outer, p, state = tree
                last = j if outer[j + 1] else j + 1 if outer[j] else -1
                if last < 0:
                    return ConnectivityReport(
                        False, (names[u], names[v], BIT_COLOUR[c]))
                s = state[last]
                if s is None:
                    s = settle(last, outer, p, state)
                if s < 0:
                    raise q._tree_fault(u, v)
            colours = (0, 1)
    return ConnectivityReport(True)


def bipartite_sides(g: EdgeColouredMultigraph) -> Optional[list[int]]:
    """Each vertex's side bit in a 2-colouring of g, the first vertex of
    each component on side 0; None if g has an odd cycle."""
    off, far = g.off, g.far
    side = [-1] * len(g.vertices)
    for r in range(len(side)):
        if side[r] >= 0:
            continue
        side[r] = 0
        stack = [r]
        while stack:
            a = stack.pop()
            s = side[a] ^ 1
            for j in range(off[a], off[a + 1]):
                b = far[j]
                if side[b] < 0:
                    side[b] = s
                    stack.append(b)
                elif side[b] != s:
                    return None
    return side


def _digraph_tree(g: EdgeColouredMultigraph, side: list[int], back: int,
                  x: int = 0) -> tuple[list[Optional[int]], list[int]]:
    """A search of g's digraph view from vertex x, along its arcs, or
    against them where `back`: per vertex, the position of the edge it
    was reached by (-1 at x, None where not reached), and the vertices
    in the order reached.  The arcs at vertex a that leave it are its
    edges of colour bit side[a], those that enter it the rest; so y is
    reached exactly where g has an alternating (x, y)-path (trail) of
    first colour bit side[x] ^ back (see above)."""
    off, inc, far, bit = g.off, g.inc, g.far, g.bit
    par: list[Optional[int]] = [None] * len(side)
    par[x] = -1
    order = [x]
    for a in order:
        c = side[a] ^ back
        for j in range(off[a], off[a + 1]):
            b = far[j]
            if par[b] is None and bit[inc[j]] == c:
                par[b] = inc[j]
                order.append(b)
    return par, order


def _digraph_sweep(g: EdgeColouredMultigraph, side: list[int]
                   ) -> ConnectivityReport:
    """The report of either sweep on a bipartite g with sides `side`
    (`bipartite_sides`), from one search along and one against the arcs
    of its digraph view, each tree arc checked (see above)."""
    names = g.vertices
    n = len(names)
    if n < 2:
        raise UnsupportedClass("connectivity needs at least two vertices")
    eu, ev, bit = g.eu, g.ev, g.bit
    m = len(bit)
    reached = []
    for back in (0, 1):
        par, order = _digraph_tree(g, side, back)
        seen = [False] * n
        seen[0] = True
        for w in order[1:]:
            # the arc joins a reached p to a new w on the other side, in
            # the colour of its tail: p's side along the arcs, w's against
            k = par[w]
            p = -1 if k is None or not 0 <= k < m or seen[w] else \
                ev[k] if eu[k] == w else eu[k] if ev[k] == w else -1
            if p < 0 or not seen[p] or side[p] == side[w] \
                    or bit[k] != side[p] ^ back:
                raise GraphError(
                    f"internal error: {names[w]!r} fails the digraph "
                    f"view's {('out', 'in')[back]}-tree check")
            seen[w] = True
        reached.append(seen)
    # start colour c at vertex 0 asks the search along the arcs where c
    # is 0's side bit, else the one against them
    for v in range(1, n):
        for c in (0, 1):
            if not reached[c ^ side[0]][v]:
                return ConnectivityReport(
                    False, (names[0], names[v], BIT_COLOUR[c]))
    return ConnectivityReport(True)


def is_colour_connected(g: EdgeColouredMultigraph) -> ConnectivityReport:
    return _sweep(_PathQuery(g))


def is_trail_colour_connected(g: EdgeColouredMultigraph
                              ) -> ConnectivityReport:
    return _sweep(_TrailQuery(g))


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
