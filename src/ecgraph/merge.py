"""Merging the parts of a factor into one spanning closed alternating
trail or cycle, for extensions of M-closed graphs, and the alternating
hamiltonian cycle algorithm built on it.

Such a graph is supereulerian iff it is trail-colour-connected and has
an eulerian factor, and hamiltonian iff it is colour-connected and has
an alternating cycle factor.  `merge_factor` builds the witness from the
factor's parts, vertex-disjoint closed trails or cycles covering V, in
one loop for both decisions.

Two disjoint parts with an edge between them either merge into one part
on the union of their vertex sets, or one of them c-dominates the other:
every vertex of the dominating part sends edges of a single colour to
the other part, those colours alternate along the part, and same-colour
vertices are joined inside it only in their own colour.  Domination
makes the union non-colour-connected, so exactly one of the two outcomes
holds.  The pair merge (`merge_cycles`, which `ecgraph.supereuler` also
names `merge_trails_pair`) tries two constructive moves, splicing at a
similar cross pair and rerouting along two parallel same-coloured
chords, then the domination test; if all three come up empty, a bounded
exhaustive search of the union settles the pair.  The two moves do not
cover every merge (a pair of a 5-vertex M-closed graph that merges
reaches the search), so the search is not dead code.  Any inconsistency
is a hard error, never a wrong answer.

Similarity is taken within the union U of the pair: x and y are
U-similar when their coloured edge multisets towards U are equal.
Similarity in g implies it, and it is what the splice needs: the
predecessors of the two pivots lie in U, so each pivot's join to the
other's predecessor exists, in the colour entering the pivots, and the
two mirrored chords close the spliced walk.  Domination leaves no
U-similar cross pair either, as a dominating vertex is adjacent to
every vertex of the dominated part, its would-be twin included.

The moves and the domination test take closed alternating trails, which
may revisit vertices: positions along the walk, not vertex names, index
it.  This is the paper's merge of the pair's lift to a blow-up, which
sends visit k of v to copy v.k, so a trail's positions match its
cycle's copies one to one.  Copies of distinct vertices are similar iff
the vertices are, and copies are joined in a colour iff their vertices
are, so each move picks the same positions and edges on the trails as
on the cycles, and no blow-up is built.  Two cycles merge into a cycle;
any other pair merges into a closed trail.

The loop sorts the parts by (length, index of the lowest vertex) each
round, merges the first pair in that order that merges, and skips pairs
with no edge between them.  When no pair of cycles merges the factor is
unmergeable, which the characterization rules out.  When no pair of
trails merges, the domination certificates form a tournament on the
trails; a directed triangle admits a three-way merge, and a transitive
tournament admits a merge through a vertex of the top trail whose edge
colours towards two dominated trails differ.
"""

from __future__ import annotations

import copy
import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .analysis import Analysis
from .core import (
    BIT_COLOUR,
    AlternatingCycle,
    AlternatingTrail,
    Colour,
    EdgeColouredMultigraph,
    UnsupportedClass,
    check_witness,
)
from .oracle import (
    BudgetExceeded,
    OracleBudget,
    oracle_ham_alternating,
    oracle_supereulerian,
)


class MergeInternalError(RuntimeError):
    """The theory guarantees this is unreachable for valid inputs."""


@dataclass(frozen=True)
class DominationCertificate:
    dominating: AlternatingTrail
    dominated: AlternatingTrail
    colour: Colour                  # label of the dominating start vertex
    labels: dict[str, Colour]       # dominating vertex -> its edge colour


@dataclass(frozen=True)
class Merged:
    cycle: AlternatingTrail


@dataclass(frozen=True)
class Dominates:
    certificate: DominationCertificate


@dataclass(frozen=True)
class NoEdgeBetween:
    pass


# a union type, not typing.Union: typing caches a Union with strong
# references, which would keep every re-imported copy of this module
# (and the modules it imports) alive
MergeOutcome = Merged | Dominates | NoEdgeBetween


def _closed(g: EdgeColouredMultigraph, x: int, ks: Sequence[int],
            cycle: bool) -> AlternatingTrail:
    """The closed walk from vertex x along the edges at positions ks, as
    a cycle or as a closed trail."""
    start = g.vertices[x]
    ids = tuple(g.edges[k].id for k in ks)
    if cycle:
        return AlternatingCycle(start, ids)
    return AlternatingTrail(start, ids, closed=True)


class _Cyc:
    """A closed alternating trail or cycle of g in integers:
    verts[t] -- edges[t] -- verts[t+1] as vertex indices and edge
    positions, cols[t] the colour bit of edges[t], positions taken
    mod n."""

    def __init__(self, g: EdgeColouredMultigraph, c: AlternatingTrail):
        view = g.view()
        self.cycle = isinstance(c, AlternatingCycle)
        self.edges: list[int] = [view.pos[e] for e in c.edge_ids]
        self.cols: list[int] = [view.bit[k] for k in self.edges]
        self.verts: list[int] = []
        x = view.index[c.start]
        for k in self.edges:
            self.verts.append(x)
            x = view.ev[k] if view.eu[k] == x else view.eu[k]
        self.n = len(self.verts)

    def seg(self, p: int, q: int) -> list[int]:
        """Edge positions walking forward from position p to position q."""
        out = []
        t = p
        while t != q % self.n:
            out.append(self.edges[t % self.n])
            t = (t + 1) % self.n
        return out

    def reversed(self) -> "_Cyc":
        """The same walk backwards from verts[0]: position t becomes
        position (n - t) % n."""
        r = copy.copy(self)
        r.verts = self.verts[:1] + self.verts[:0:-1]
        r.edges = self.edges[::-1]
        r.cols = self.cols[::-1]
        return r

    def as_cycle(self, g: EdgeColouredMultigraph) -> AlternatingTrail:
        """The walk from verts[0], of the kind it was built from."""
        return _closed(g, self.verts[0], self.edges, self.cycle)


def _edge_to(g: EdgeColouredMultigraph, u: int, v: int, c: int
             ) -> Optional[int]:
    """The position of vertex u's first edge to vertex v in colour bit
    c, in incidence order, or None."""
    view = g.view()
    for k, w in zip(*view.star(u)):
        if w == v and view.bit[k] == c:
            return k
    return None


def _joins_within(g: EdgeColouredMultigraph, v: int, verts: frozenset[int]
                  ) -> Counter:
    """Vertex v's coloured edge multiset {(other end, colour bit):
    count} towards the vertices of `verts`."""
    view = g.view()
    return Counter((w, view.bit[k]) for k, w in zip(*view.star(v))
                   if w in verts)


def merge_similar(g: EdgeColouredMultigraph, C1: AlternatingTrail,
                  C2: AlternatingTrail, i: int, j: int) -> AlternatingTrail:
    """Splice two disjoint closed alternating trails at a similar cross
    pair.

    The vertices at position i of C1 and position j of C2 must be
    similar within the union of the two vertex sets; C2 is reversed
    internally if needed so that the outgoing edge colours at the two
    pivots agree.  The pivots' identical joins supply the two cross
    chords closing the spliced walk.
    """
    a = _Cyc(g, C1)
    b = _Cyc(g, C2)
    x = a.verts[i]
    y = b.verts[j]
    union = frozenset(a.verts + b.verts)
    if x == y or _joins_within(g, x, union) != _joins_within(g, y, union):
        raise ValueError(f"vertices {g.vertices[x]!r} and "
                         f"{g.vertices[y]!r} are not similar")
    return _splice(g, a, b, i, j)


def _splice(g: EdgeColouredMultigraph, a: _Cyc, b: _Cyc, i: int, j: int
            ) -> AlternatingTrail:
    """`merge_similar` on the views of the two walks, once the pivots
    a.verts[i] and b.verts[j] are known to be similar within the union."""
    x = a.verts[i]
    y = b.verts[j]
    if b.cols[j] != a.cols[i]:
        b = b.reversed()
        j = (b.n - j) % b.n
    if b.cols[j] != a.cols[i]:
        raise MergeInternalError("cannot align cycle orientations")
    cp = a.cols[(i - 1) % a.n]   # colour into x, = colour into y
    chord1 = _edge_to(g, a.verts[(i - 1) % a.n], y, cp)
    chord2 = _edge_to(g, b.verts[(j - 1) % b.n], x, cp)
    if chord1 is None or chord2 is None:
        raise MergeInternalError("similar pivots lack the mirrored chords")
    edges = (a.seg(i, (i - 1) % a.n) + [chord1]
             + b.seg(j, (j - 1) % b.n) + [chord2])
    out = _closed(g, x, edges, a.cycle and b.cycle)
    return check_witness(g, out, "similar merge", MergeInternalError)


def merge_parallel_chords(g: EdgeColouredMultigraph, C1: AlternatingTrail,
                          C2: AlternatingTrail, i: int, j: int
                          ) -> AlternatingTrail:
    """Merge along chords verts(C1)[i]-verts(C2)[j] and
    verts(C1)[i+1]-verts(C2)[j+1], all four of the involved edges sharing
    one colour c = colour of the walks' edges at positions i and j."""
    a = _Cyc(g, C1)
    b = _Cyc(g, C2)
    c = a.cols[i]
    if b.cols[j] != c:
        raise ValueError("cycle edge colours at i and j differ")
    chord1 = _edge_to(g, a.verts[i], b.verts[j], c)
    chord2 = _edge_to(g, a.verts[(i + 1) % a.n], b.verts[(j + 1) % b.n], c)
    if chord1 is None or chord2 is None:
        raise ValueError("required same-coloured chords are missing")
    i1 = (i + 1) % a.n
    j1 = (j + 1) % b.n
    edges = (a.seg(i1, i) + [chord1]
             + list(reversed(b.seg(j1, j))) + [chord2])
    out = _closed(g, a.verts[i1], edges, a.cycle and b.cycle)
    return check_witness(g, out, "chord merge", MergeInternalError)


def check_domination(g: EdgeColouredMultigraph, dom: AlternatingTrail,
                     sub: AlternatingTrail
                     ) -> Optional[DominationCertificate]:
    """Certificate that `dom` c-dominates `sub`, if the structure holds:
    complete adjacency between the objects, per-vertex monochromatic
    edges from dom to sub alternating along dom, and same-label pairs
    inside dom joined only in their own colour.  Each dominating
    vertex's colours come from its slice of the incidence lists."""
    view = g.view()
    bit = view.bit
    dv = _Cyc(g, dom).verts
    sv = set(_Cyc(g, sub).verts)
    label: dict[int, int] = {}
    for x in set(dv):
        ks, ws = view.star(x)
        colours = {bit[k] for k, w in zip(ks, ws) if w in sv}
        if len(colours) != 1 or not sv <= set(ws):
            return None
        label[x] = colours.pop()
    for t, x in enumerate(dv):
        if label[x] == label[dv[(t + 1) % len(dv)]]:
            return None
    for x, c in label.items():
        for k, w in zip(*view.star(x)):
            if label.get(w) == c and bit[k] != c:
                return None
    labels = {g.vertices[x]: BIT_COLOUR[c] for x, c in label.items()}
    return DominationCertificate(dom, sub, BIT_COLOUR[label[min(dv)]], labels)


# the exhaustive search that settles a pair no move or certificate does
_PAIR_BUDGET = OracleBudget(max_vertices=12, max_edges=40, seconds=60.0)


def _structured_merge(g: EdgeColouredMultigraph, C1: AlternatingTrail,
                      C2: AlternatingTrail) -> Optional[MergeOutcome]:
    """The constructive moves plus the domination test on two disjoint
    closed trails or cycles of g, with similarity taken within the union
    of their vertex sets; None when all of them come up empty."""
    a = _Cyc(g, C1)
    b = _Cyc(g, C2)
    V1 = frozenset(a.verts)
    V2 = frozenset(b.verts)
    if V1 & V2:
        raise ValueError("cycles or trails are not vertex-disjoint")
    union = V1 | V2
    # read on demand: a similar pair is usually found within a few reads
    joins = functools.cache(lambda v: _joins_within(g, v, union))
    if not any(w in V2 for x in V1 for w, _ in joins(x)):
        return NoEdgeBetween()

    for i, x in enumerate(a.verts):
        for j, y in enumerate(b.verts):
            if joins(x) == joins(y):
                return Merged(_splice(g, a, b, i, j))

    bs = (b, b.reversed())
    for ao in (a, a.reversed()):
        for bo in bs:
            for i in range(ao.n):
                c = ao.cols[i]
                x, x1 = ao.verts[i], ao.verts[(i + 1) % ao.n]
                for j in range(bo.n):
                    if bo.cols[j] != c:
                        continue
                    y, y1 = bo.verts[j], bo.verts[(j + 1) % bo.n]
                    if joins(x)[(y, c)] and joins(x1)[(y1, c)]:
                        return Merged(merge_parallel_chords(
                            g, ao.as_cycle(g), bo.as_cycle(g), i, j))

    for dom, sub in ((C1, C2), (C2, C1)):
        cert = check_domination(g, dom, sub)
        if cert is not None:
            return Dominates(cert)
    return None


def merge_cycles(g: EdgeColouredMultigraph, C1: AlternatingTrail,
                 C2: AlternatingTrail) -> MergeOutcome:
    """Merge two vertex-disjoint closed alternating trails or cycles of g
    into one spanning their union, or certify domination or the lack of
    any edge between them.  Two cycles merge into a cycle.

    Merged is returned exactly when the union of the two vertex sets
    carries a spanning closed alternating trail (a spanning alternating
    cycle, for two cycles); otherwise the domination certificate
    explains the obstruction.
    """
    out = _structured_merge(g, C1, C2)
    if isinstance(out, (Dominates, NoEdgeBetween)):
        return out
    union = C1.vertex_set(g) | C2.vertex_set(g)
    if out is None:
        # no move applies and no domination: the union must still carry
        # a spanning walk of the pair's kind; find it exhaustively
        cycles = isinstance(C1, AlternatingCycle) \
            and isinstance(C2, AlternatingCycle)
        search = oracle_ham_alternating if cycles else oracle_supereulerian
        try:
            found = search(g.induced(union), _PAIR_BUDGET)
        except BudgetExceeded as exc:
            raise MergeInternalError(
                f"unresolved pair too large for exhaustive search: {exc}")
        if found is None:
            raise MergeInternalError(
                "pair neither merges nor exhibits domination")
        out = Merged(found)
    if out.cycle.vertex_set(g) != union:
        raise MergeInternalError("merge does not span the pair's union")
    return out


# ---------------------------------------------------------------------
# tournament merges
# ---------------------------------------------------------------------

def _traversal_from(g: EdgeColouredMultigraph, t: AlternatingTrail, v: str,
                    first: Colour) -> tuple[list[str], str]:
    """Full traversal of closed trail t from v whose first edge has the
    given colour, together with the last vertex visited before closing."""
    seq = t.vertex_sequence(g)[:-1]
    edges = list(t.edge_ids)
    L = len(edges)
    for p, w in enumerate(seq):
        if w != v:
            continue
        fwd = edges[p:] + edges[:p]
        if g.edge(fwd[0]).colour is first:
            return fwd, seq[(p - 1) % L]
        bwd = list(reversed(edges[:p])) + list(reversed(edges[p:]))
        if g.edge(bwd[0]).colour is first:
            return bwd, seq[(p + 1) % L]
    raise MergeInternalError(
        f"no traversal of the trail from {v!r} starting {first.token}")


def _cross_edge(g: EdgeColouredMultigraph, u: str, v: str,
                colour: Colour) -> str:
    k = _edge_to(g, g.vertex_index(u), g.vertex_index(v), colour.bit)
    if k is None:
        raise MergeInternalError(
            f"certificate promised a {colour.token} edge {u!r}-{v!r}")
    return g.edges[k].id


def _lex_min(g: EdgeColouredMultigraph, vs) -> str:
    return min(vs, key=g.vertex_index)


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
    va = _lex_min(g, Ta.vertex_set(g))
    alpha = la[va]
    ea, va_pred = _traversal_from(g, Ta, va, alpha)
    vb = _lex_min(g, [v for v in Tb.vertex_set(g)
                      if lb[v] is alpha.other()])
    eb, vb_pred = _traversal_from(g, Tb, vb, alpha.other())
    vc = _lex_min(g, [v for v in Tc.vertex_set(g) if lc[v] is alpha])
    ec, vc_pred = _traversal_from(g, Tc, vc, alpha)

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
    return check_witness(g, out, "triangle merge", MergeInternalError)


def merge_trails_transitive(g: EdgeColouredMultigraph,
                            T1: AlternatingTrail, T2: AlternatingTrail,
                            T3: AlternatingTrail, v: str,
                            c: Colour) -> AlternatingTrail:
    """Merge T1 with two trails it dominates, where the pivot v of T1
    sends colour c to T2 and the other colour to T3: pick up T2 and
    return, pick up T3 and return, then traverse T1."""
    u = _lex_min(g, T2.vertex_set(g))
    e2, u_pred = _traversal_from(g, T2, u, c.other())
    w = _lex_min(g, T3.vertex_set(g))
    e3, w_pred = _traversal_from(g, T3, w, c)
    e1, _ = _traversal_from(g, T1, v, c)

    ids = ([_cross_edge(g, v, u, c)]
           + e2[:-1]
           + [_cross_edge(g, u_pred, v, c),
              _cross_edge(g, v, w, c.other())]
           + e3[:-1]
           + [_cross_edge(g, w_pred, v, c.other())]
           + e1)
    out = AlternatingTrail(v, tuple(ids), closed=True)
    return check_witness(g, out, "transitive merge", MergeInternalError)


def _tournament_merge(g: EdgeColouredMultigraph,
                      trails: list[AlternatingTrail],
                      arc: dict[tuple[int, int], DominationCertificate]
                      ) -> tuple[tuple[int, ...], AlternatingTrail]:
    """Merge three trails of the domination tournament `arc` ((winner,
    loser) -> certificate): the indices merged and the merged trail."""
    k = len(trails)
    for a, b, c in itertools.product(range(k), repeat=3):
        if (a, b) in arc and (b, c) in arc and (c, a) in arc:
            return (a, b, c), merge_trails_3cycle(
                g, trails[a], trails[b], trails[c],
                arc[(a, b)], arc[(b, c)], arc[(c, a)])

    # transitive tournament: the top trail first, the rest defensively
    order = sorted(range(k),
                   key=lambda i: (-sum((i, j) in arc for j in range(k)), i))
    for s in order:
        doms = [j for j in range(k) if (s, j) in arc]
        for t2 in doms:
            l2 = arc[(s, t2)].labels
            for v in sorted(trails[s].vertex_set(g), key=g.vertex_index):
                for t3 in doms:
                    if t3 != t2 and arc[(s, t3)].labels[v] is not l2[v]:
                        return (s, t2, t3), merge_trails_transitive(
                            g, trails[s], trails[t2], trails[t3], v, l2[v])
    raise MergeInternalError(
        "domination tournament admits neither a triangle nor a "
        "two-coloured pivot; this should be impossible")


# ---------------------------------------------------------------------
# the merge loop and the hamiltonian decision
# ---------------------------------------------------------------------

def merge_factor(g: EdgeColouredMultigraph,
                 parts: Sequence[AlternatingTrail]) -> AlternatingTrail:
    """One closed alternating trail spanning g, merged from `parts`:
    vertex-disjoint closed alternating trails or cycles covering V.  It
    is a cycle when every part is an AlternatingCycle.

    Raises MergeInternalError where the parts cannot be merged, which
    the characterizations rule out for a factor of a (trail-)colour-
    connected extension of an M-closed graph.
    """
    cycles = all(isinstance(t, AlternatingCycle) for t in parts)
    # each part's sort key, (length, index of the lowest vertex), once
    key = functools.cache(lambda t: (len(t.edge_ids), min(
        map(g.vertex_index, t.vertex_sequence(g)))))
    parts = list(parts)
    while len(parts) > 1:
        parts.sort(key=key)
        merged: Optional[tuple[tuple[int, ...], AlternatingTrail]] = None
        arc: dict[tuple[int, int], DominationCertificate] = {}
        for p, q in itertools.combinations(range(len(parts)), 2):
            out = merge_cycles(g, parts[p], parts[q])
            if isinstance(out, Merged):
                merged = (p, q), out.cycle
                break
            if isinstance(out, Dominates):
                cert = out.certificate
                arc[(p, q) if cert.dominating is parts[p] else (q, p)] = cert
        if merged is None:
            if cycles:
                raise MergeInternalError(
                    "no two cycles of the factor merge; this should be "
                    "impossible in a colour-connected graph")
            merged = _tournament_merge(g, parts, arc)
        used, t = merged
        parts = [s for i, s in enumerate(parts) if i not in used]
        parts.append(t)
    final = parts[0]
    if final.vertex_set(g) != set(g.vertices):
        raise MergeInternalError("merged factor does not span the graph")
    return check_witness(g, final, "merged factor", MergeInternalError)


@dataclass(frozen=True)
class HamiltonianResult:
    cycle: Optional[AlternatingCycle] = None
    reason: Optional[str] = None    # "no_cycle_factor" | "not_colour_connected"
    counterexample: Optional[tuple[str, str, Colour]] = None

    def __bool__(self) -> bool:
        return self.cycle is not None


def alternating_hamiltonian_cycle(g: EdgeColouredMultigraph
                                  ) -> HamiltonianResult:
    """Spanning alternating cycle of an extension of an M-closed graph.

    Exists iff the graph is colour-connected and has an alternating
    cycle factor; `merge_factor` merges the factor's cycles.
    """
    a = Analysis.of(g)
    if a.ext is None:
        raise UnsupportedClass(
            "input is not an extension of an M-closed graph")
    if len(g.vertices) < 2:
        raise UnsupportedClass("need at least two vertices")
    cf = a.cf
    if cf is None:
        return HamiltonianResult(reason="no_cycle_factor")
    rep = a.cc
    if not rep.connected:
        return HamiltonianResult(reason="not_colour_connected",
                                 counterexample=rep.counterexample)
    return HamiltonianResult(cycle=merge_factor(g, cf.cycles))
