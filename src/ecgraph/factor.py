"""Eulerian factors, alternating cycle factors, and alternating Euler tours.

An eulerian factor is a spanning sub-multigraph in which every vertex
has equal red and blue degree, at least one of each; its connected
components, each with an alternating Euler tour, are the factor's parts.

**The slot gadget.**  A vertex x of red degree r and blue degree b gets
four blocks of slots: R (r slots), R' (r - 1), B' (b - 1) and B (b),
with R-R', R'-B' and B'-B completely joined.  Each edge of g joins a
slot in the R blocks (red) or the B blocks (blue) of its two ends.  In
a perfect matching with k matched R'-B' pairs at x, the other
r - 1 - k R' slots take R slots, so k + 1 R slots are left for matched
edges of g, and as many B slots: the matched edges of g give x red and
blue degree k + 1.  Every balanced spanning edge set arises this way,
with k + 1 <= min(r, b).

**Collapsing the slots.**  The slots of one block are interchangeable,
so only counts matter.  Counting the edges of a perfect matching
between each pair of blocks gives a perfect capacitated b-matching on
four nodes per vertex: R, R', B' and B, to be covered r, r - 1, b - 1
and b times; R-R' usable r - 1 times, R'-B' min(r, b) - 1 times and
B'-B b - 1 times; and each R(x)-R(y) or B(x)-B(y) as often as g has
parallel edges of that colour between x and y.  Conversely, from such
a b-matching, take as many parallel edges of g as it uses of each
R(x)-R(y) or B(x)-B(y), match R'_i to B'_i for i below x's R'-B'
count, and pair the other R' and B' slots with the R and B slots left
free, which the complete R-R' and B'-B joins allow.  So the two
problems select the same edge sets of g, and since the converse uses
only diagonal R'-B' pairs, the slot gadget joins R'_i to B'_i for
i < min(r, b) - 1 only.  At 60 vertices (mclosed_blowup seed 9) the
b-matching has 240 nodes, against the gadget's 5,452 slots and 79,001
edges.

**Solving it** (after Anstee, "A polynomial algorithm for b-matchings:
an alternative approach", Inf. Process. Lett. 24, 1987):

1. Max-flow on the bipartite double cover: a left and a right copy of
   each node, both with its b, and an arc from u to w' and from w to
   u' for each edge uw, of its capacity.  A perfect b-matching x gives
   a full flow, x on both arcs of each edge, so a short flow is a sound
   "no".  A full flow f gives the perfect fractional b-matching
   (f(u, w') + f(w, u')) / 2, which is half-integral.
2. Rounding: at every node the half-integral edges have an integral
   sum, so they meet it an even number of times.  Rounding each
   connected component of them down and up in turn along one Euler
   circuit keeps every node covered as before, except the circuit's
   start when the component has an odd number of edges: that node is
   one short.
3. Repair, only if some node is short.  Alternating walks between
   short nodes, +1 and -1 in turn, each kept only if it stays within
   the capacities, usually pair them up.  If one does not, one pass
   lays out the diagonal slot gadget and, on it, the b-matching, which
   leaves exactly one slot exposed per short node; the blossom engine
   augments from each exposed slot.  That is exact: one augmenting
   search from every exposed vertex, in any order and from any
   starting matching, ends in a maximum matching, so the gadget has a
   perfect matching iff the repair finds one.

Whichever stage answers "yes", the positions in g.edges of its edges
go through `tour_factor_from_balanced_edges`, which fails loudly on an
edge set that is not balanced.  In one pass over vertex indices it
pairs red and blue edge-ends into closed trails and merges them with a
union-find, whose classes are the factor's parts (after Kotzig, "Moves
without forbidden transitions in a graph", 1968); no sub-multigraph of
g is built.  `alternating_euler_tour` is its one-part case.
The b-matching problem lays its own slot gadget out, straight into
integer adjacency lists, with slot blocks numbered from the nodes'
`need`.  `build_factor_gadget`, with string slot names and the
complete join, is kept only as the reference the tests check that
layout against.

Cycle factors reduce to perfect matching in a much smaller auxiliary
graph with one red and one blue copy per vertex; the cycles are read
straight off the matching, from copy to matched copy.  For an
extension of an M-closed graph, `ecgraph.analysis` first asks stage 1
alone whether the base's colour classes have the perfect fractional
b-matchings that the graph's red and blue matchings project to, on a
problem built by `_BMatching`'s constructor; only a short flow is used.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, count
from typing import Iterable, Optional

from .core import (
    AlternatingCycle,
    AlternatingTrail,
    Colour,
    CycleFactor,
    EdgeColouredMultigraph,
    EulerianFactor,
    GraphError,
    check_witness,
)
from .matching import IndexedGraph, PlainGraph


class ColourDeficient(GraphError):
    """A vertex missing one colour entirely cannot lie on any closed
    alternating trail, so no eulerian factor can exist."""

    def __init__(self, vertex: str, colour: Colour):
        super().__init__(f"vertex {vertex!r} has no {colour.token} edge")
        self.vertex = vertex
        self.colour = colour


@dataclass(frozen=True)
class FactorGadget:
    h: PlainGraph
    # per original vertex: slot name lists R, R', B', B
    blocks: dict[str, dict[str, tuple[str, ...]]]
    # auxiliary edge id -> original edge id (external edges only)
    external: dict[str, str]


def build_factor_gadget(g: EdgeColouredMultigraph) -> FactorGadget:
    """The factor gadget with string slot names, complete R'-B' join
    included: the reference `_BMatching.laid_out` is tested against.

    Per vertex x with red degree r and blue degree b: slot blocks
    R (size r), R' (r-1), B' (b-1), B (b), completely joined R-R',
    R'-B', B'-B.  Each original edge contributes one external edge
    between its two endpoint slots, assigned in declaration order.
    """
    for v in g.vertices:
        for c in (Colour.RED, Colour.BLUE):
            if g.degree(v, c) == 0:
                raise ColourDeficient(v, c)

    verts: list[str] = []
    blocks: dict[str, dict[str, tuple[str, ...]]] = {}
    for x in g.vertices:
        r = g.degree(x, Colour.RED)
        b = g.degree(x, Colour.BLUE)
        R = tuple(f"{x}.R{i}" for i in range(r))
        Rp = tuple(f"{x}.r{i}" for i in range(r - 1))
        Bp = tuple(f"{x}.b{i}" for i in range(b - 1))
        B = tuple(f"{x}.B{i}" for i in range(b))
        blocks[x] = {"R": R, "Rp": Rp, "Bp": Bp, "B": B}
        verts.extend(R)
        verts.extend(Rp)
        verts.extend(Bp)
        verts.extend(B)

    edges: list[tuple[str, str, str]] = []
    external: dict[str, str] = {}
    k = 0
    for x in g.vertices:
        bl = blocks[x]
        for a in bl["R"]:
            for b2 in bl["Rp"]:
                edges.append((f"i{k}", a, b2))
                k += 1
        for a in bl["Rp"]:
            for b2 in bl["Bp"]:
                edges.append((f"i{k}", a, b2))
                k += 1
        for a in bl["Bp"]:
            for b2 in bl["B"]:
                edges.append((f"i{k}", a, b2))
                k += 1

    # one external edge per original edge, slots taken in declaration order
    slot_ptr: dict[tuple[str, Colour], int] = {}
    for e in g.edges:
        key = "R" if e.colour is Colour.RED else "B"
        iu = slot_ptr.get((e.u, e.colour), 0)
        iv = slot_ptr.get((e.v, e.colour), 0)
        slot_ptr[(e.u, e.colour)] = iu + 1
        slot_ptr[(e.v, e.colour)] = iv + 1
        hid = f"x.{e.id}"
        edges.append((hid, blocks[e.u][key][iu], blocks[e.v][key][iv]))
        external[hid] = e.id

    return FactorGadget(PlainGraph(verts, edges), blocks, external)


def eulerian_factor(g: EdgeColouredMultigraph) -> Optional[EulerianFactor]:
    """Eulerian factor, or None: a perfect b-matching of the collapsed
    gadget, from a max-flow, rounding and repair (module docstring),
    checked before it is returned."""
    if len(g.vertices) < 2:
        return None
    try:
        p = _BMatching.of(g)
    except ColourDeficient:
        return None
    twice = p.half_integral()
    if twice is None:
        return None
    y, short = p.rounded(twice)
    if short and not p.paired(y, short):
        chosen = p.repaired(g, y)
        if chosen is None:
            return None
    else:
        chosen = p.chosen(y)
    return check_witness(g, tour_factor_from_balanced_edges(g, chosen),
                         "eulerian factor")


class _BMatching:
    """A capacitated b-matching problem: node u to be covered need[u]
    times, edge k joining nodes ends[2k] and ends[2k + 1] at most cap[k]
    times.  In g's collapsed gadget (`of`), vertex i has nodes 4i (R),
    4i + 1 (R'), 4i + 2 (B'), 4i + 3 (B); edges 3i, 3i + 1 and 3i + 2
    are vertex i's R-R', R'-B' and B'-B joins, and the others merge the
    parallel edges of g of one colour, `edge_class` giving each edge
    of g its k.  Arc 2k leaves ends[2k] and arc 2k + 1 leaves
    ends[2k + 1]; out[u] lists the arcs leaving u on edges of nonzero
    capacity, so arc a runs from ends[a] to ends[a ^ 1].
    """

    __slots__ = ("need", "ends", "cap", "out", "edge_class")

    def __init__(self, need: list[int],
                 edges: Iterable[tuple[tuple[int, int], int]],
                 edge_class: Optional[list[int]] = None):
        """The problem whose edge k is edges[k] = ((u, w), cap), u != w,
        as in the items of a map from ends to capacities; `edge_class`
        is left out for a problem that holds no edge of g, such as one
        for `half_integral` alone."""
        self.need = need
        self.edge_class = edge_class or []
        self.ends = ends = []
        self.cap = cap = []
        self.out = out = [[] for _ in need]
        for uw, c in edges:
            if c:
                out[uw[0]].append(len(ends))
                out[uw[1]].append(len(ends) + 1)
            ends += uw
            cap.append(c)

    @classmethod
    def of(cls, g: EdgeColouredMultigraph) -> "_BMatching":
        """The collapsed gadget of g.  Raises ColourDeficient at the
        first vertex that misses a colour."""
        need = []
        joins = []
        for i, vertex in enumerate(g.vertices):
            r, b = g.colour_degrees(i)
            if not r or not b:
                raise ColourDeficient(vertex,
                                      Colour.BLUE if r else Colour.RED)
            need += (r, r - 1, b - 1, b)
            u = 4 * i
            joins += (((u, u + 1), r - 1), ((u + 1, u + 2), min(r, b) - 1),
                      ((u + 2, u + 3), b - 1))
        # an edge's ends are the R nodes of a red edge, the B nodes of
        # a blue one; parallel edges of one colour merge into one edge,
        # numbered after the joins in the order first seen
        pairs = [(4 * x + 3 * c, 4 * y + 3 * c) if x < y else
                 (4 * y + 3 * c, 4 * x + 3 * c)
                 for x, y, c in zip(g.eu, g.ev, g.bit)]
        cap = Counter(pairs)
        k = dict(zip(cap, count(len(joins))))
        return cls(need, chain(joins, cap.items()),
                   list(map(k.__getitem__, pairs)))

    def chosen(self, y: list[int]) -> list[int]:
        """The positions in g.edges of the edges b-matching y takes: the
        first y[k] edges of each class k."""
        left = y[:]
        out = []
        for i, k in enumerate(self.edge_class):
            if left[k]:
                left[k] -= 1
                out.append(i)
        return out

    def half_integral(self) -> Optional[list[int]]:
        """2x per edge for a half-integral perfect b-matching x, or None
        if there is no perfect b-matching, fractional or not.

        A max-flow from S through a left copy u and a right copy w' of
        each node to T: S-u and w'-T carry `need`, and arc a carries up
        to cap[a >> 1] from ends[a] to ends[a ^ 1]'.  A full flow f
        gives x(k) = (f[2k] + f[2k + 1]) / 2.  The flow starts from a
        greedy integer b-matching, edge by edge in index order: each
        length-3 path S-u-w'-T is pushed together with its mirror
        S-w-u'-T, so the start adds no half-integral edges.  Dinic's
        blocking flows, each found by an iterative depth-first search,
        complete it.
        """
        need, ends, cap, out = self.need, self.ends, self.cap, self.out
        N = len(need)
        f = [0] * len(ends)
        s = need[:]     # S-u residue per left copy
        for k, t in enumerate(cap):
            u = ends[2 * k]
            w = ends[2 * k + 1]
            if s[u] < t:
                t = s[u]
            if s[w] < t:
                t = s[w]
            if t > 0:
                f[2 * k] = f[2 * k + 1] = t
                s[u] -= t
                s[w] -= t
        d = s[:]        # w'-T residue per right copy
        while True:
            sources = [u for u in range(N) if s[u]]
            if not sources:
                return [f[a] + f[a + 1] for a in range(0, len(f), 2)]
            # levels: left copies even, right copies odd; the first
            # level with a right copy short of T is the last
            ll = [-1] * N
            lr = [-1] * N
            for u in sources:
                ll[u] = 0
            layer = sources
            top = 1
            while True:
                rights = []
                for u in layer:
                    for a in out[u]:
                        w = ends[a ^ 1]
                        if lr[w] < 0 and f[a] < cap[a >> 1]:
                            lr[w] = top
                            rights.append(w)
                if not rights:
                    return None
                if any(d[w] for w in rights):
                    break
                layer = []
                for w in rights:
                    for a in out[w]:
                        u = ends[a ^ 1]
                        if ll[u] < 0 and f[a ^ 1]:
                            ll[u] = top + 1
                            layer.append(u)
                if not layer:
                    return None
                top += 2
            # a blocking flow: `path` alternates left and right copies
            # from a source, arcs[j] is to carry more flow for even j
            # and less for odd j, il and ir are each copy's next arc to
            # try, and a copy that leads nowhere leaves the level graph
            il = [0] * N
            ir = [0] * N
            for src in sources:
                while s[src] and ll[src] == 0:
                    path = [src]
                    arcs: list[int] = []
                    while path:
                        v = path[-1]
                        lst = out[v]
                        m = len(lst)
                        if len(path) & 1:
                            i = il[v]
                            nxt = ll[v] + 1
                            while i < m:
                                a = lst[i]
                                if lr[ends[a ^ 1]] == nxt \
                                        and f[a] < cap[a >> 1]:
                                    path.append(ends[a ^ 1])
                                    arcs.append(a)
                                    break
                                i += 1
                            il[v] = i
                            if i < m:
                                continue
                            ll[v] = -1
                            path.pop()
                            if path:
                                arcs.pop()
                                ir[path[-1]] += 1
                            continue
                        if lr[v] == top:
                            if d[v]:
                                break
                        else:
                            i = ir[v]
                            nxt = lr[v] + 1
                            while i < m:
                                a = lst[i] ^ 1
                                if ll[ends[a]] == nxt and f[a]:
                                    path.append(ends[a])
                                    arcs.append(a)
                                    break
                                i += 1
                            ir[v] = i
                            if i < m:
                                continue
                        lr[v] = -1
                        path.pop()
                        arcs.pop()
                        il[path[-1]] += 1
                    if not path:
                        break
                    w = path[-1]
                    t = min(s[src], d[w])
                    for j, a in enumerate(arcs):
                        r = f[a] if j & 1 else cap[a >> 1] - f[a]
                        if r < t:
                            t = r
                    for j, a in enumerate(arcs):
                        f[a] += -t if j & 1 else t
                    s[src] -= t
                    d[w] -= t

    def rounded(self, twice: list[int]) -> tuple[list[int], list[int]]:
        """(y, short): an integer b-matching within the capacities, and
        the nodes it covers need - 1 times; it covers every other node
        exactly as often as `twice` / 2 does.

        The edges where `twice` is odd meet every node an even number of
        times.  Each connected component of them is rounded down and up
        alternately along one Euler circuit (Hierholzer's, iteratively);
        only one with an odd number of edges leaves a node short, its
        circuit's start.
        """
        ends = self.ends
        y = [t >> 1 for t in twice]
        odd: dict[int, list[int]] = {}
        for k, t in enumerate(twice):
            if t & 1:
                odd.setdefault(ends[2 * k], []).append(k)
                odd.setdefault(ends[2 * k + 1], []).append(k)
        short: list[int] = []
        used = bytearray(len(twice))
        for start in odd:
            stack = [start]
            trail: list[int] = []
            circuit: list[int] = []
            while stack:
                v = stack[-1]
                lst = odd[v]
                while lst and used[lst[-1]]:
                    lst.pop()
                if lst:
                    k = lst.pop()
                    used[k] = 1
                    stack.append(ends[2 * k] + ends[2 * k + 1] - v)
                    trail.append(k)
                else:
                    stack.pop()
                    if trail:
                        circuit.append(trail.pop())
            for k in circuit[1::2]:
                y[k] += 1
            if len(circuit) & 1:
                short.append(start)
        return y, short

    def paired(self, y: list[int], short: list[int]) -> bool:
        """Whether alternating walks, found by breadth-first search in
        the left and right copies, pair up every short node; y takes
        each walk, +1 and -1 in turn, that stays within 0..cap.  False
        once a short node finds no such walk."""
        ends, cap, out = self.ends, self.cap, self.out
        left = set(short)
        for src in short:
            if src not in left:
                continue
            left.remove(src)
            # arc into each right copy, and out of each left copy's
            # right copy, on the search tree
            into_r: dict[int, int] = {}
            into_l = {src: -1}
            queue = [src]
            end = -1
            for u in queue:
                for a in out[u]:
                    w = ends[a ^ 1]
                    if w in into_r or y[a >> 1] == cap[a >> 1]:
                        continue
                    into_r[w] = a
                    if w in left:
                        end = w
                        break
                    for b in out[w]:
                        x = ends[b ^ 1]
                        if x not in into_l and y[b >> 1]:
                            into_l[x] = b
                            queue.append(x)
                if end >= 0:
                    break
            if end < 0:
                return False
            delta: dict[int, int] = {}
            w = end
            while True:
                a = into_r[w]
                delta[a >> 1] = delta.get(a >> 1, 0) + 1
                b = into_l[ends[a]]
                if b < 0:
                    break
                delta[b >> 1] = delta.get(b >> 1, 0) - 1
                w = ends[b]
            if any(not 0 <= y[k] + t <= cap[k] for k, t in delta.items()):
                return False
            for k, t in delta.items():
                y[k] += t
            left.discard(end)
        return True

    def laid_out(self, g: EdgeColouredMultigraph, y: list[int]
                 ) -> tuple[IndexedGraph, list[tuple[int, int]], list[int]]:
        """(h, external, match): the diagonal slot gadget of g (module
        docstring), the two slots each edge of g joins in it, in
        declaration order, and b-matching y laid out as a matching of h.

        Node u's slots are the next need[u] indices, so vertex i's
        blocks R, R', B' and B follow one another.  Each edge of g takes
        the next free slot of the R (or B) blocks of both its ends; the
        edges `chosen` takes from y are matched.  At vertex i, y[3i + 1]
        diagonal R'-B' pairs are matched, and the other R' and B' slots
        take the R and B slots left free, which the complete R-R' and
        B'-B joins allow.  So where y covers each node need or need - 1
        times, as `rounded` leaves it, one slot of each short node is
        exposed and every other slot is matched.
        """
        start = [0, *accumulate(self.need)]
        slots = [range(a, b) for a, b in zip(start, start[1:])]
        # ext[s]: the slot an R or B slot s is joined to by an edge of g
        ext = [-1] * start[-1]
        free = start[:]     # per node, its next slot without an edge of g
        external = []
        for x, w, c in zip(g.eu, g.ev, g.bit):
            su = free[4 * x + 3 * c]
            sv = free[4 * w + 3 * c]
            free[4 * x + 3 * c] = su + 1
            free[4 * w + 3 * c] = sv + 1
            ext[su] = sv
            ext[sv] = su
            external.append((su, sv))
        match = [-1] * len(ext)
        for k in self.chosen(y):
            su, sv = external[k]
            match[su] = sv
            match[sv] = su
        adj: list[list[int]] = []
        for i in range(len(slots) // 4):
            R, Rp, Bp, B = slots[4 * i:4 * i + 4]
            adj += ([*Rp, ext[s]] for s in R)
            adj += ([*R, *Bp[j:j + 1]] for j in range(len(Rp)))
            adj += ([*Rp[j:j + 1], *B] for j in range(len(Bp)))
            adj += ([*Bp, ext[s]] for s in B)
            k = y[3 * i + 1]
            for s, t in chain(zip(Rp, Bp[:k]),
                              zip([s for s in R if match[s] < 0], Rp[k:]),
                              zip(Bp[k:], [t for t in B if match[t] < 0])):
                match[s] = t
                match[t] = s
        return IndexedGraph(adj), external, match

    def repaired(self, g: EdgeColouredMultigraph, y: list[int]
                 ) -> Optional[list[int]]:
        """The positions in g.edges of a balanced spanning edge set, from
        a b-matching y that leaves some nodes one short, or None: y laid
        out on the slot gadget, then grown to a maximum matching from the
        slots it leaves exposed."""
        h, external, match = self.laid_out(g, y)
        match = h.matching(match)
        if -1 in match:
            return None
        return [k for k, (su, sv) in enumerate(external) if match[su] == sv]


def tour_factor_from_balanced_edges(g: EdgeColouredMultigraph,
                                    chosen: Iterable[int]) -> EulerianFactor:
    """Factor from a colour-balanced edge set covering V, given by
    positions in g.edges: one part per connected component, spanned by
    its alternating Euler tour.  Raises GraphError on a set that is not
    balanced or misses a vertex, and on a repeated or unknown position.

    Edge k has ends 2k at its u and 2k + 1 at its v.  At each vertex
    the red and blue ends are paired in edge order, a transition system
    whose orbits are closed alternating trails.  Then, vertex by vertex,
    each orbit through the vertex not yet merged with the first one
    through it is merged with it by swapping one transition pair of
    each; a union-find over the orbits keeps track, and its classes end
    as the components.  Parts come in the order of their lowest vertex,
    and each tour starts at its component's first edge, from its u.
    """
    m = len(g.bit)
    used = bytearray(m)
    for k in chosen:
        if not 0 <= k < m:
            raise GraphError(f"no edge at position {k!r}")
        if used[k]:
            raise GraphError(f"edge {g.eid[k]!r} chosen twice")
        used[k] = 1
    edges = [k for k in range(m) if used[k]]
    eu, ev, bit = g.eu, g.ev, g.bit
    n = len(g.vertices)
    reds: list[list[int]] = [[] for _ in range(n)]
    blues: list[list[int]] = [[] for _ in range(n)]
    for k in edges:
        ends = blues if bit[k] else reds
        ends[eu[k]].append(2 * k)
        ends[ev[k]].append(2 * k + 1)
    # pair[h]: the end paired with end h at its vertex
    pair = [-1] * (2 * m)
    for i in range(n):
        if not reds[i] and not blues[i]:
            raise GraphError(
                f"balanced edge set misses vertex {g.vertices[i]!r}")
        if len(reds[i]) != len(blues[i]):
            raise GraphError(
                f"edge set is not balanced at {g.vertices[i]!r}")
        for r, b in zip(reds[i], blues[i]):
            pair[r] = b
            pair[b] = r

    def walk(k0: int) -> list[int]:
        """Edge positions of the orbit leaving edge k0's u by k0."""
        seq = [k0]
        h = pair[2 * k0 + 1]
        while h != 2 * k0:
            seq.append(h >> 1)
            h = pair[h ^ 1]
        return seq

    orbit = [-1] * m
    root: list[int] = []
    for k0 in edges:
        if orbit[k0] < 0:
            for k in walk(k0):
                orbit[k] = len(root)
            root.append(len(root))

    def find(t: int) -> int:
        while root[t] != t:
            root[t] = root[root[t]]
            t = root[t]
        return t

    for rs in reds:
        r1 = rs[0]
        b1 = pair[r1]
        for r in rs[1:]:
            t1 = find(orbit[r1 >> 1])
            t = find(orbit[r >> 1])
            if t != t1:
                b = pair[r]
                pair[r1] = b
                pair[b] = r1
                pair[r] = b1
                pair[b1] = r
                b1 = b
                root[t] = t1
    # each component's vertices, and its first edge
    parts: dict[int, list[str]] = {}
    for i, rs in enumerate(reds):
        parts.setdefault(find(orbit[rs[0] >> 1]), []).append(g.vertices[i])
    first: dict[int, int] = {}
    for k in edges:
        first.setdefault(find(orbit[k]), k)
    return EulerianFactor(tuple(
        (frozenset(vs), AlternatingTrail(
            g.vertices[eu[first[t]]],
            g.ids(walk(first[t])), closed=True))
        for t, vs in parts.items()))


def alternating_euler_tour(g_sub: EdgeColouredMultigraph
                           ) -> Optional[AlternatingTrail]:
    """Closed alternating trail using every edge of g_sub exactly once,
    or None: the one-part case of `tour_factor_from_balanced_edges`,
    checked before it is returned (a failed check raises GraphError).

    Exists iff g_sub is connected and every vertex has red degree equal
    to blue degree, at least one.  Public on purpose, though no decision
    calls it: the tests and the benchmark's tracer do.
    """
    try:
        f = tour_factor_from_balanced_edges(g_sub, range(len(g_sub.bit)))
    except GraphError:
        return None
    # outside the except: a failed check is an internal error, not "no"
    if len(f.parts) != 1:
        return None
    return check_witness(g_sub, f.parts[0][1], "alternating Euler tour")


def alternating_cycle_factor(g: EdgeColouredMultigraph
                             ) -> Optional[CycleFactor]:
    """Vertex-disjoint alternating cycles covering V, or None.

    Reduction: a red and a blue copy per vertex, the colour-c copies of
    two vertices joined in colour c joined once; a perfect matching
    picks one red and one blue neighbour per vertex, and g's
    `first_edges` give those pairs a 2-regular colour-balanced edge
    set, which splits into alternating cycles.  A digon (a red and a
    blue edge between the same two vertices) counts as a cycle.  The
    factor is checked before it is returned.
    """
    if len(g.vertices) < 2:
        return None
    # vertex i has a red copy 2i and a blue copy 2i+1, joined to the
    # copies of its neighbours in the order of g's first_edges
    first = g.first_edges()
    adj = []
    for red, blue in first:
        adj.append([2 * w for w in red])
        adj.append([2 * w + 1 for w in blue])
    match = IndexedGraph(adj).matching()
    if -1 in match:
        return None
    # from the red copy of i, each matched pair is one edge of the cycle
    # and b ^ 1 the other copy of the vertex it reaches
    cycles: list[AlternatingCycle] = []
    done = bytearray(len(g.vertices))
    for i, v in enumerate(g.vertices):
        if done[i]:
            continue
        seq: list[int] = []
        a = 2 * i
        while True:
            done[a >> 1] = 1
            b = match[a]
            seq.append(first[a >> 1][a & 1][b >> 1])
            a = b ^ 1
            if a >> 1 == i:
                break
        cycles.append(AlternatingCycle(v, g.ids(seq)))
    return check_witness(g, CycleFactor(tuple(cycles)), "cycle factor")
