"""Reference code the tests compare the package against, and small
test-only helpers.  Nothing in the package calls these.

- `ref_tour_factor` and `ref_cycle_read_back` are the string-named
  read-backs that `tour_factor_from_balanced_edges` and
  `alternating_cycle_factor` replaced: edge ids, a sub-multigraph of
  the chosen edges, its components, and a `(vertex, colour)` dict.
- `ref_path_read_back` and `ref_trail_read_back` are the walkers that
  single path and trail queries climbed their search trees with, with
  no check, before they collected their positions from the tree check
  the connectivity sweeps run.
- `ref_sweep` is the connectivity sweep as it asked its query object
  one triple at a time (`reaches`), before each source's row read its
  two searches straight.
- `ref_oracle_supereulerian` and `ref_oracle_ham_alternating` are the
  spanning oracles' own depth-first searches, before both became closed
  calls (y == x) of the oracles' trail and path searches.
- `RefIndex` is the string index (edges by id, incident edges by
  vertex) a graph kept beside its integer view, before the view became
  its only index, with the lookups it answered.
- `ref_check_trail` is the string walk `verify_witness` ran on a trail
  before the graph's integer view replaced it, with the walk facts
  (`RefVerdict`) that `ref_check`, the check the connectivity queries
  ran on each witness with it, reads.
- `ref_vertex_sequence` is the string walk `vertex_sequence` ran
  before it read the view.
- `merge_trails_3cycle` and `merge_trails_transitive` are the
  tournament merges the merge loop ran on trails by id, walked with
  `traversal_from`, before the loop ran on the integer walks alone.
- `exchange` runs the merge's chord exchange on two walks with the
  joins the pair merge gives it.
- `similar_cross_pair` finds a vertex of one trail and a vertex of
  another that are similar within the union of the two; the tests
  check that the chord exchange merges every such pair.
- `rand_multigraph` draws small multigraphs with parallel edges.
- `RefIndexedGraph` is the edge-list constructor `IndexedGraph` had
  before it took adjacency lists only: it collapses parallel edges to
  the first declared, whose id `edge_id` gives for a matched pair.
  `ref_path_split` and `ref_cycle_split` build the path query's and the
  cycle factor's split graphs with it, as they were built before they
  read g's `first_edges`.
- `trail_to_path_complete_multipartite` shortens an open alternating
  trail of a complete multipartite graph into an alternating path with
  the same ends and start colour.
- `ref_build_graph`, `ref_blow_up`, `ref_m_closure` and
  `ref_bb_from_digraph` build their graphs from `Edge` records, as
  `build_graph`, `blow_up`, `m_closure` and `bb_from_digraph` did before
  they fed the graph's index (id, u, v, colour bit) items; `ref_dot` is
  the DOT writer as it read `g.edges`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional

from ecgraph import (
    AlternatingCycle,
    AlternatingTrail,
    Colour,
    DominationCertificate,
    CycleFactor,
    Edge,
    EdgeColouredMultigraph,
    EulerianFactor,
    GraphError,
    build_graph,
    complete_multipartite_classes,
    verify_witness,
)
from ecgraph.connect import ConnectivityReport
from ecgraph.core import BIT_COLOUR, UnsupportedClass, check_witness
from ecgraph.matching import IndexedGraph, PlainGraph, maximum_matching
from ecgraph.merge import MergeInternalError, _Cyc, _exchange
from ecgraph.oracle import DEFAULT_BUDGET, OracleBudget
from ecgraph.structure import is_m_closed


class RefIndex:
    """g's lookups, answered from dicts of Edge objects built from
    g.vertices and g.edges alone."""

    def __init__(self, g: EdgeColouredMultigraph):
        self.by_id = {e.id: e for e in g.edges}
        self.index = {v: i for i, v in enumerate(g.vertices)}
        incident: dict[str, list[Edge]] = {v: [] for v in g.vertices}
        for e in g.edges:
            incident[e.u].append(e)
            incident[e.v].append(e)
        self._incident = {v: tuple(es) for v, es in incident.items()}

    def edge(self, edge_id: str) -> Edge:
        try:
            return self.by_id[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge id {edge_id!r}") from None

    def has_edge_id(self, edge_id: str) -> bool:
        return edge_id in self.by_id

    def incident(self, v: str, colour: Optional[Colour] = None
                 ) -> tuple[Edge, ...]:
        es = self._incident[v]
        if colour is None:
            return es
        return tuple(e for e in es if e.colour is colour)

    def degree(self, v: str, colour: Optional[Colour] = None) -> int:
        return len(self.incident(v, colour))

    def edges_between(self, u: str, v: str,
                      colour: Optional[Colour] = None) -> tuple[Edge, ...]:
        return tuple(e for e in self._incident[u]
                     if e.touches(v) and (colour is None or e.colour is colour))

    def adjacent(self, u: str, v: str) -> bool:
        return any(e.touches(v) for e in self._incident[u])

    def vertex_index(self, v: str) -> int:
        return self.index[v]

    def neighbours(self, v: str) -> tuple[str, ...]:
        return tuple(dict.fromkeys(e.other_end(v) for e in self._incident[v]))


def ref_vertex_sequence(g: EdgeColouredMultigraph, t: AlternatingTrail
                        ) -> list[str]:
    """Vertices t visits in order, walked through g's edge-id dicts."""
    ref = RefIndex(g)
    seq = [t.start]
    cur = t.start
    for eid in t.edge_ids:
        cur = ref.edge(eid).other_end(cur)
        seq.append(cur)
    return seq


def traversal_from(g: EdgeColouredMultigraph, t: AlternatingTrail, v: str,
                   first: Colour) -> tuple[list[str], str]:
    """Full traversal of closed trail t from v whose first edge has the
    given colour, together with the last vertex visited before closing."""
    ref = RefIndex(g)
    seq = ref_vertex_sequence(g, t)[:-1]
    edges = list(t.edge_ids)
    L = len(edges)
    for p, w in enumerate(seq):
        if w != v:
            continue
        fwd = edges[p:] + edges[:p]
        if ref.edge(fwd[0]).colour is first:
            return fwd, seq[(p - 1) % L]
        bwd = list(reversed(edges[:p])) + list(reversed(edges[p:]))
        if ref.edge(bwd[0]).colour is first:
            return bwd, seq[(p + 1) % L]
    raise MergeInternalError(
        f"no traversal of the trail from {v!r} starting {first.token}")


def _cross_edge(g: EdgeColouredMultigraph, u: str, v: str,
                colour: Colour) -> str:
    es = RefIndex(g).edges_between(u, v, colour)
    if not es:
        raise MergeInternalError(
            f"certificate promised a {colour.token} edge {u!r}-{v!r}")
    return es[0].id


def _lex_min(g: EdgeColouredMultigraph, vs) -> str:
    return min(vs, key=RefIndex(g).vertex_index)


def merge_trails_3cycle(g: EdgeColouredMultigraph,
                        Ta: AlternatingTrail, Tb: AlternatingTrail,
                        Tc: AlternatingTrail,
                        cert_ab: DominationCertificate,
                        cert_bc: DominationCertificate,
                        cert_ca: DominationCertificate) -> AlternatingTrail:
    """Merge a directed triangle Ta -> Tb -> Tc -> Ta of dominations:
    traverse each trail once and close through the three predecessors of
    the chosen start vertices."""
    la, lb, lc = cert_ab.labels, cert_bc.labels, cert_ca.labels
    va = _lex_min(g, ref_vertex_sequence(g, Ta))
    alpha = la[va]
    ea, va_pred = traversal_from(g, Ta, va, alpha)
    vb = _lex_min(g, [v for v in ref_vertex_sequence(g, Tb)
                      if lb[v] is alpha.other()])
    eb, vb_pred = traversal_from(g, Tb, vb, alpha.other())
    vc = _lex_min(g, [v for v in ref_vertex_sequence(g, Tc)
                      if lc[v] is alpha])
    ec, vc_pred = traversal_from(g, Tc, vc, alpha)

    ids = (ea
           + [_cross_edge(g, va, vb, alpha)]
           + eb
           + [_cross_edge(g, vb, vc, alpha.other())]
           + ec
           + [_cross_edge(g, vc, va_pred, alpha),
              _cross_edge(g, va_pred, vb_pred, alpha.other()),
              _cross_edge(g, vb_pred, vc_pred, alpha),
              _cross_edge(g, vc_pred, va, alpha.other())])
    out = AlternatingTrail(va, tuple(ids), closed=True)
    return check_witness(g, out, "triangle merge")


def merge_trails_transitive(g: EdgeColouredMultigraph,
                            T1: AlternatingTrail, T2: AlternatingTrail,
                            T3: AlternatingTrail, v: str,
                            c: Colour) -> AlternatingTrail:
    """Merge T1 with two trails it dominates, where the pivot v of T1
    sends colour c to T2 and the other colour to T3: pick up T2 and
    return, pick up T3 and return, then traverse T1."""
    u = _lex_min(g, ref_vertex_sequence(g, T2))
    e2, u_pred = traversal_from(g, T2, u, c.other())
    w = _lex_min(g, ref_vertex_sequence(g, T3))
    e3, w_pred = traversal_from(g, T3, w, c)
    e1, _ = traversal_from(g, T1, v, c)

    ids = ([_cross_edge(g, v, u, c)]
           + e2[:-1]
           + [_cross_edge(g, u_pred, v, c),
              _cross_edge(g, v, w, c.other())]
           + e3[:-1]
           + [_cross_edge(g, w_pred, v, c.other())]
           + e1)
    out = AlternatingTrail(v, tuple(ids), closed=True)
    return check_witness(g, out, "transitive merge")


def exchange(g: EdgeColouredMultigraph, a: _Cyc, b: _Cyc, rotate: bool
             ) -> Optional[_Cyc]:
    """`_exchange` on walks a and b of g, as `_pair` calls it, with g's
    `first_edges`."""
    return _exchange(g, a, b, g.first_edges(), rotate)


def similar_cross_pair(g: EdgeColouredMultigraph, T1: AlternatingTrail,
                       T2: AlternatingTrail) -> Optional[tuple[str, str]]:
    """The first (x, y), x on T1 and y on T2 in walk order, whose
    coloured edge multisets {(other end, colour): count} towards the
    vertices of T1 and T2 are equal (x and y are similar within the
    union), or None."""
    union = T1.vertex_set(g) | T2.vertex_set(g)
    joins = {v: Counter((e.other_end(v), e.colour) for e in g.edges
                        if e.touches(v) and e.other_end(v) in union)
             for v in union}
    for x in T1.vertex_sequence(g):
        for y in T2.vertex_sequence(g):
            if joins[x] == joins[y]:
                return x, y
    return None


def rand_multigraph(rng) -> EdgeColouredMultigraph:
    """2-12 vertices, drawn with the random.Random rng; about a third of
    the edges repeat an earlier edge's ends and colour, which
    `random_2ec` never draws."""
    n = rng.randint(2, 12)
    triples = []
    for _ in range(rng.randint(1, 3 * n)):
        if triples and rng.random() < 0.3:
            triples.append(rng.choice(triples))
        else:
            u, v = rng.sample(range(n), 2)
            triples.append((f"v{u}", f"v{v}",
                            rng.choice((Colour.RED, Colour.BLUE))))
    return build_graph([f"v{i}" for i in range(n)], triples)


class RefIndexedGraph(IndexedGraph):
    """The plain graph on vertices 0..n-1 with the edges (u, v, id), in
    turn: an edge parallel to one before it is dropped, and `edge_id`
    gives the first declared id of a pair."""

    __slots__ = ("_first",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int, object]]):
        adj: list[list[int]] = [[] for _ in range(n)]
        # key u * n + v with u < v -> first declared edge id
        self._first: dict[int, object] = {}
        for u, v, eid in edges:
            key = u * n + v if u < v else v * n + u
            if key not in self._first:
                self._first[key] = eid
                adj[u].append(v)
                adj[v].append(u)
        super().__init__(adj)

    def edge_id(self, u: int, v: int) -> object:
        n = len(self.adj)
        return self._first[u * n + v if u < v else v * n + u]


def ref_cycle_split(g: EdgeColouredMultigraph) -> RefIndexedGraph:
    """g's cycle-factor split graph: red copy 2i and blue copy 2i + 1 of
    vertex i, and edge k of colour bit c joining its ends' c-copies,
    with id k."""
    eu, ev, bit = g.eu, g.ev, g.bit
    return RefIndexedGraph(2 * len(g.vertices), (
        (2 * eu[k] + bit[k], 2 * ev[k] + bit[k], k)
        for k in range(len(bit))))


def ref_path_split(g: EdgeColouredMultigraph) -> RefIndexedGraph:
    """g's path split graph: the cycle-factor split graph with each
    vertex's two copies joined first, by an edge of id -1."""
    eu, ev, bit, n = g.eu, g.ev, g.bit, len(g.vertices)
    edges = [(2 * i, 2 * i + 1, -1) for i in range(n)]
    edges += [(2 * eu[k] + bit[k], 2 * ev[k] + bit[k], k)
              for k in range(len(bit))]
    return RefIndexedGraph(2 * n, edges)


def has_perfect_matching(g: PlainGraph) -> bool:
    return 2 * len(maximum_matching(g)) == len(g.vertices)


def visit_count(g: EdgeColouredMultigraph, f: EulerianFactor, v: str) -> int:
    """How often the tour of v's part passes through v."""
    for _, trail in f.parts:
        seq = trail.vertex_sequence(g)
        if v in seq:
            return seq[:-1].count(v)
    raise GraphError(f"vertex {v!r} not covered by factor")


def _restricted_to_edges(g: EdgeColouredMultigraph, edge_ids: Iterable[str]
                         ) -> EdgeColouredMultigraph:
    keep = set(edge_ids)
    edges = [e for e in g.edges if e.id in keep]
    touched = {x for e in edges for x in (e.u, e.v)}
    return EdgeColouredMultigraph(
        [v for v in g.vertices if v in touched], edges)


def _components(g: EdgeColouredMultigraph) -> list[list[str]]:
    seen: set[str] = set()
    out: list[list[str]] = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        for x in comp:
            for e in g.incident(x):
                w = e.v if e.u == x else e.u
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        out.append(comp)
    return out


def ref_euler_tour(g_sub: EdgeColouredMultigraph
                   ) -> Optional[AlternatingTrail]:
    """Closed alternating trail using every edge of g_sub once, or None:
    red and blue edge-ends paired per vertex in string dicts, orbits
    merged vertex by vertex through a union-find."""
    if not g_sub.edges:
        return None
    pair: dict[str, dict[str, str]] = {}
    reds_at: dict[str, list[str]] = {}
    for v in g_sub.vertices:
        reds: list[str] = []
        blues: list[str] = []
        for e in g_sub.incident(v):
            (reds if e.colour is Colour.RED else blues).append(e.id)
        if not reds or len(reds) != len(blues):
            return None
        pv = pair[v] = {}
        for r, b in zip(reds, blues):
            pv[r] = b
            pv[b] = r
        reds_at[v] = reds

    def trail(e0) -> list[str]:
        seq = [e0.id]
        eid = e0.id
        cur = e0.v
        while not (cur == e0.u and pair[cur][eid] == e0.id):
            eid = pair[cur][eid]
            seq.append(eid)
            cur = g_sub.edge(eid).other_end(cur)
        return seq

    trail_of: dict[str, int] = {}
    root: list[int] = []
    for e0 in g_sub.edges:
        if e0.id not in trail_of:
            for eid in trail(e0):
                trail_of[eid] = len(root)
            root.append(len(root))

    def find(t: int) -> int:
        while root[t] != t:
            t = root[t]
        return t

    merges = 0
    for v, reds in reds_at.items():
        pv = pair[v]
        r1 = reds[0]
        b1 = pv[r1]
        for r in reds[1:]:
            t1 = find(trail_of[r1])
            t = find(trail_of[r])
            if t != t1:
                b = pv[r]
                pv[r1] = b
                pv[b] = r1
                pv[r] = b1
                pv[b1] = r
                b1 = b
                root[t] = t1
                merges += 1
    if merges != len(root) - 1:
        return None
    e0 = g_sub.edges[0]
    return AlternatingTrail(e0.u, tuple(trail(e0)), closed=True)


def ref_tour_factor(g: EdgeColouredMultigraph, edge_ids: Iterable[str]
                    ) -> EulerianFactor:
    """Factor from a colour-balanced edge set covering V, by edge ids:
    the sub-multigraph of those edges, one tour per component."""
    sub = _restricted_to_edges(g, edge_ids)
    if len(sub.vertices) != len(g.vertices):
        raise GraphError("balanced edge set misses a vertex")
    comps = _components(sub)
    parts = []
    for comp in comps:
        tour = ref_euler_tour(sub if len(comps) == 1 else sub.induced(comp))
        if tour is None:
            raise GraphError("component admits no alternating euler tour")
        parts.append((frozenset(comp), tour))
    return EulerianFactor(tuple(parts))


def ref_cycle_read_back(g: EdgeColouredMultigraph, split: RefIndexedGraph,
                        match: list[int]) -> CycleFactor:
    """The cycle factor a perfect matching of g's cycle-factor split
    graph (`ref_cycle_split`) gives, read back through g.edges, g.edge
    and a (vertex, colour) -> edge id dict."""
    chosen: dict[tuple[str, Colour], str] = {}
    for i, j in enumerate(match):
        if i < j:
            e = g.edges[split.edge_id(i, j)]
            chosen[(e.u, e.colour)] = e.id
            chosen[(e.v, e.colour)] = e.id
    cycles = []
    done: set[str] = set()
    for v in g.vertices:
        if v in done:
            continue
        seq: list[str] = []
        cur = v
        col = Colour.RED
        while True:
            eid = chosen[(cur, col)]
            seq.append(eid)
            done.add(cur)
            cur = g.edge(eid).other_end(cur)
            col = col.other()
            if cur == v:
                break
        cycles.append(AlternatingCycle(v, tuple(seq)))
    return CycleFactor(tuple(cycles))


def ref_path_read_back(q, a: int, stop: int, p: list[int]) -> list[int]:
    """The positions in g.edges of the split edges on path query q's
    search tree path from split vertex a back to `stop`, last edge
    first: p crosses a split edge, ^ 1 a pair, and the reference split
    graph gives each split edge's position."""
    split = ref_path_split(q.g)
    seq = []
    while a != stop:
        b = p[a]
        seq.append(split.edge_id(a, b))
        a = b ^ 1
    return seq


def ref_trail_read_back(q, a: int, stop: int, p: list[int]) -> list[int]:
    """The same for trail query q: every split edge on the path has a
    helper end, the larger one; helper h = 4n + 2k stands for edge k,
    h + 1 for nothing."""
    base = 4 * len(q.g.vertices)
    seq = []
    while a != stop:
        b = p[a]
        h = a if a > b else b
        if not h & 1:
            seq.append((h - base) >> 1)
        a = b ^ 1
    return seq


def ref_sweep(q, start: tuple[int, int, int] = (0, 0, 0)
              ) -> ConnectivityReport:
    """The connectivity sweep on path or trail query q, one `reaches`
    call per triple (u, v, start colour), in the order u, v, red before
    blue, from the triple `start` on."""
    names = q.g.vertices
    n = len(names)
    if n < 2:
        raise UnsupportedClass("connectivity needs at least two vertices")
    for u in range(start[0], n):
        for v in range(n):
            if u == v:
                continue
            for c in (0, 1):
                if (u, v, c) >= start and not q.reaches(u, v, c):
                    return ConnectivityReport(
                        False, (names[u], names[v], BIT_COLOUR[c]))
    return ConnectivityReport(True)


def ref_oracle_supereulerian(g: EdgeColouredMultigraph,
                             budget: OracleBudget = DEFAULT_BUDGET
                             ) -> Optional[AlternatingTrail]:
    """Spanning closed alternating trail by exhaustive trail DFS from
    vertex 0, with its own search."""
    budget.admit(g)
    tick = budget.clock()
    if len(g.vertices) < 2:
        return None
    if any(0 in g.colour_degrees(i) for i in range(len(g.vertices))):
        return None
    bit, off, inc, far = g.bit, g.off, g.inc, g.far
    root = 0
    full = (1 << len(g.vertices)) - 1
    # vmask, the vertices the trail visits, follows from (mask, root),
    # so the key leaves it out
    failed: set[tuple[int, int, int, int]] = set()
    path: list[int] = []

    def dfs(cur: int, mask: int, vmask: int, last: int, first: int
            ) -> bool:
        tick()
        key = (cur, mask, last, first)
        if key in failed:
            return False
        if cur == root and last != first and vmask == full:
            return True
        for t in range(off[cur], off[cur + 1]):
            ei = inc[t]
            if mask >> ei & 1 or bit[ei] == last:
                continue
            path.append(ei)
            if dfs(far[t], mask | (1 << ei), vmask | (1 << far[t]),
                   bit[ei], first):
                return True
            path.pop()
        failed.add(key)
        return False

    for t in range(off[root], off[root + 1]):
        ei = inc[t]
        path.append(ei)
        if dfs(far[t], 1 << ei, (1 << root) | (1 << far[t]), bit[ei],
               bit[ei]):
            return check_witness(g, AlternatingTrail(
                g.vertices[root], g.ids(path), closed=True),
                "oracle witness")
        path.pop()
    return None


def ref_oracle_ham_alternating(g: EdgeColouredMultigraph,
                               budget: OracleBudget = DEFAULT_BUDGET
                               ) -> Optional[AlternatingCycle]:
    """Spanning alternating cycle by exhaustive simple-cycle DFS from
    vertex 0, with its own search."""
    budget.admit(g)
    tick = budget.clock()
    n = len(g.vertices)
    if n < 2:
        return None
    bit, off, inc, far = g.bit, g.off, g.inc, g.far
    root = 0
    full = (1 << n) - 1
    failed: set[tuple[int, int, int, int]] = set()
    path: list[int] = []

    def dfs(cur: int, vmask: int, last: int, first: int) -> bool:
        tick()
        key = (cur, vmask, last, first)
        if key in failed:
            return False
        if vmask == full:
            for t in range(off[cur], off[cur + 1]):
                ei = inc[t]
                if far[t] == root and bit[ei] != last \
                        and bit[ei] != first and ei not in path:
                    path.append(ei)
                    return True
            failed.add(key)
            return False
        for t in range(off[cur], off[cur + 1]):
            ei = inc[t]
            to = far[t]
            if bit[ei] == last or vmask >> to & 1:
                continue
            path.append(ei)
            if dfs(to, vmask | (1 << to), bit[ei], first):
                return True
            path.pop()
        failed.add(key)
        return False

    for t in range(off[root], off[root + 1]):
        ei = inc[t]
        path.append(ei)
        if dfs(far[t], (1 << root) | (1 << far[t]), bit[ei], bit[ei]):
            return check_witness(g, AlternatingCycle(
                g.vertices[root], g.ids(path)), "oracle witness")
        path.pop()
    return None


@dataclass(frozen=True)
class RefVerdict:
    """`ref_check_trail`'s verdict and reason, as `VerifyResult` has
    them, and what the walk of a valid trail found: its last vertex, its
    first and last edge colours, and whether it visits no vertex twice
    (a closed trail's return to its start aside)."""

    ok: bool
    reason: Optional[str] = None
    end: Optional[str] = None
    first: Optional[Colour] = None
    last: Optional[Colour] = None
    simple: bool = False

    def __bool__(self) -> bool:
        return self.ok


def ref_check_trail(g: EdgeColouredMultigraph, t: AlternatingTrail
                    ) -> RefVerdict:
    """verify_witness on a trail, walked through g's edge-id dicts, with
    the facts its walk found."""
    ref = RefIndex(g)
    if t.start not in g.vertices:
        return RefVerdict(False, f"unknown start vertex {t.start!r}")
    if len(t.edge_ids) != len(set(t.edge_ids)):
        return RefVerdict(False, "edge repeated")
    cur = t.start
    walk = [cur]
    first: Optional[Colour] = None
    prev_colour: Optional[Colour] = None
    for eid in t.edge_ids:
        if not ref.has_edge_id(eid):
            return RefVerdict(False, f"unknown edge id {eid!r}")
        e = ref.edge(eid)
        if not e.touches(cur):
            return RefVerdict(False, f"edge {eid!r} does not continue the walk")
        if prev_colour is None:
            first = e.colour
        elif e.colour is prev_colour:
            return RefVerdict(False, f"colours do not alternate at edge {eid!r}")
        prev_colour = e.colour
        cur = e.other_end(cur)
        walk.append(cur)
    if t.closed:
        if not t.edge_ids:
            return RefVerdict(False, "closed trail must have edges")
        if cur != t.start:
            return RefVerdict(False, "not closed")
        if len(t.edge_ids) % 2 != 0 or len(t.edge_ids) < 2:
            return RefVerdict(False, "closed trail length must be even and >= 2")
        if first is prev_colour:
            return RefVerdict(False, "first and last edge colours must differ")
        walk.pop()
    return RefVerdict(True, end=cur, first=first, last=prev_colour,
                        simple=len(set(walk)) == len(walk))


def ref_check(g: EdgeColouredMultigraph, t: AlternatingTrail, y: str,
              start: Colour, end: Optional[Colour], simple: bool = False
              ) -> None:
    """Raise GraphError unless t is an alternating trail of g that ends
    at y, starts with `start`, ends with `end` unless that is None, and
    visits no vertex twice if `simple`."""
    r = ref_check_trail(g, t)
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


def trail_to_path_complete_multipartite(g: EdgeColouredMultigraph,
                                        t: AlternatingTrail
                                        ) -> AlternatingTrail:
    """Shorten an open alternating (u,v)-trail of a complete multipartite
    graph into an alternating (u,v)-path with the same start colour.

    Repeatedly removes the first repetition: an even-length detour is
    spliced out; an odd-length one is bypassed through a neighbour of
    the repeated vertex, using completeness to find the bypass edge.
    """
    if complete_multipartite_classes(g) is None:
        raise ValueError("graph is not complete multipartite")
    if t.closed or not t.edge_ids:
        raise ValueError("expected a nonempty open trail")
    r = verify_witness(g, t)
    if not r:
        raise ValueError(f"invalid trail: {r.reason}")

    u = t.start
    c = g.edge(t.edge_ids[0]).colour
    cur = t
    while True:
        seq = cur.vertex_sequence(g)
        v = seq[-1]
        k = len(cur.edge_ids)
        # already a path?
        if len(set(seq)) == len(seq):
            return cur
        # target v revisited: cut at its first occurrence
        first_v = seq.index(v)
        if first_v < k:
            cur = AlternatingTrail(u, cur.edge_ids[:first_v])
            continue
        # first vertex met twice, by order of second occurrence
        pos: dict[str, int] = {}
        a = b = -1
        for p, w in enumerate(seq):
            if w in pos:
                a, b = pos[w], p
                break
            pos[w] = p
        gap = b - a
        if gap % 2 == 0:
            cur = AlternatingTrail(
                u, cur.edge_ids[:a] + cur.edge_ids[b:])
            continue
        # odd detour: bypass through x = successor of the first
        # occurrence, or its own successor, or straight to v
        w = seq[a]
        xx = seq[a + 1]
        x_pred = seq[a + 2]
        d = g.edge(cur.edge_ids[a]).colour
        prefix = cur.edge_ids[:a]
        back = tuple(reversed(cur.edge_ids[a + 1:b]))  # w -> xx, starts d
        candidates: list[tuple[str, ...]] = []
        for e in g.edges_between(xx, v, d.other()):
            candidates.append(prefix + (cur.edge_ids[a],) + (e.id,))
        for e in g.edges_between(xx, v, d):
            candidates.append(prefix + back + (e.id,))
        for e in g.edges_between(w, v, d):
            candidates.append(prefix + (e.id,))
        for e in g.edges_between(x_pred, v, d):
            candidates.append(prefix + cur.edge_ids[a:a + 2] + (e.id,))
        for e in g.edges_between(x_pred, v, d.other()):
            candidates.append(prefix + back[:-1] + (e.id,))
        for cand in candidates:
            nxt = AlternatingTrail(u, cand)
            if len(cand) >= k or not verify_witness(g, nxt):
                continue
            if g.edge(cand[0]).colour is not c or nxt.end(g) != v:
                continue
            cur = nxt
            break
        else:
            raise GraphError("trail shortening found no valid bypass")


def ref_build_graph(vertices, edge_triples) -> EdgeColouredMultigraph:
    edges = [Edge(f"e{i}", u, v, c)
             for i, (u, v, c) in enumerate(edge_triples)]
    return EdgeColouredMultigraph(vertices, edges)


def ref_blow_up(g: EdgeColouredMultigraph,
                multiplicities: dict[str, int]) -> EdgeColouredMultigraph:
    verts = [f"{v}.{i}" for v in g.vertices
             for i in range(multiplicities[v])]
    edges = []
    for e in g.edges:
        for i in range(multiplicities[e.u]):
            for j in range(multiplicities[e.v]):
                edges.append(Edge(f"{e.id}.{i}.{j}",
                                  f"{e.u}.{i}", f"{e.v}.{j}", e.colour))
    return EdgeColouredMultigraph(verts, edges)


def ref_m_closure(g: EdgeColouredMultigraph, colour_policy: str = "always_red",
                  seed: Optional[int] = None) -> EdgeColouredMultigraph:
    rng = random.Random(seed)
    edges = list(g.edges)
    cur = g
    k = 0
    while True:
        ok, triple = is_m_closed(cur)
        if ok:
            return cur
        x, _, z = triple
        if colour_policy == "always_red":
            col = Colour.RED
        elif colour_policy == "always_blue":
            col = Colour.BLUE
        else:
            col = rng.choice((Colour.RED, Colour.BLUE))
        edges.append(Edge(f"mc{k}", x, z, col))
        k += 1
        cur = EdgeColouredMultigraph(g.vertices, edges)


def ref_bb_from_digraph(d) -> EdgeColouredMultigraph:
    """For a digraph whose arcs all cross its bipartition."""
    x_set = set(d.x_part)
    edges = [Edge(eid, tail, head, Colour.RED) if tail in x_set
             else Edge(eid, head, tail, Colour.BLUE)
             for eid, tail, head in d.arcs]
    return EdgeColouredMultigraph(tuple(d.x_part) + tuple(d.y_part), edges)


def ref_dot(g: EdgeColouredMultigraph) -> str:
    lines = ["graph {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for e in g.edges:
        lines.append(f'  "{e.u}" -- "{e.v}" '
                     f'[color={e.colour.token}, id="{e.id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
