"""Merging the parts of a factor into one spanning closed alternating
trail or cycle, for extensions of M-closed graphs.

`Analysis.decision` decides such a graph by its characterizations and
asks `merge_factor` for the witness: the one loop, for both decisions,
that merges the factor's parts, vertex-disjoint closed trails or cycles
covering V, into one.

Two disjoint parts with an edge between them either merge into one part
on the union of their vertex sets, or one of them c-dominates the other:
every vertex of the dominating part sends edges of a single colour to
the other part, those colours alternate along the part, and same-colour
vertices are joined inside it only in their own colour.  Domination
makes the union non-colour-connected, so exactly one of the two outcomes
holds.  The pair merge `_pair` trades an edge of each part for two
same-coloured cross chords, tests domination, then trades after one
Posa rotation of either part.  That these moves find every merge is
cross-checked by scans against the exhaustive oracles, not proved; a
pair they leave unsettled is a MergeInternalError in an extension
(never a wrong answer) and an UnsupportedClass outside the class.
`merge_cycles` is `_pair` on two trails by id.

The exchange also covers a splice at a cross pair x, y that is similar
within the union: with the parts oriented so that both pivots leave in
one colour, the colour c into x is also the colour into y, and
similarity gives the chords x'-y and y'-x in colour c (x' and y' the
predecessors).  Those are the chords the exchange asks for when it
trades the edges x'x and y'y, so no similarity is computed here.

The moves and the domination test take closed alternating trails, which
may revisit vertices: positions along the walk, not vertex names, index
it.  This is the paper's merge of the pair's lift to a blow-up, which
sends visit k of v to copy v.k, so a trail's positions match its
cycle's copies one to one.  Copies are joined in a colour iff their
vertices are, so each move picks the same positions and edges on the
trails as on the cycles (but a rotation's chord must be off the trail,
where the lift needs only its copy off the cycle), and no blow-up is
built.  Two cycles merge into a cycle; any other pair merges into a
closed trail.
Every walk, from the parts to the final witness, is a `_Cyc` on g's
integer index, checked once, when built, by the graph's `walk`: a part
through `verify_witness`'s trail check (`_check_trail`), which decodes
its ids, and a merged walk on its positions.  Only the parts and the
final witness are in ids (`ids` turns the last walk back), and the
final witness is not checked again.

The loop sorts the parts by (length, index of the lowest vertex) each
round, merges the first pair in that order that merges, and skips pairs
with no edge between them.  When no pair of cycles merges the factor is
unmergeable, which the characterization rules out.  When no pair of
trails merges, the domination labels form a tournament on the trails; a
directed triangle admits a three-way merge, and a transitive tournament
admits a merge through a vertex of the top trail whose edge colours
towards two dominated trails differ.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

# alternating_hamiltonian_cycle: bound here for bench/tracer.py
from .analysis import Analysis, alternating_hamiltonian_cycle  # noqa: F401
from .core import (
    BIT_COLOUR,
    AlternatingCycle,
    AlternatingTrail,
    BadWalk,
    Colour,
    EdgeColouredMultigraph,
    GraphError,
    UnsupportedClass,
    _check_trail,
)


class MergeInternalError(RuntimeError):
    """The theory guarantees this is unreachable for valid inputs."""


@dataclass(frozen=True)
class DominationCertificate:
    dominating: AlternatingTrail
    dominated: AlternatingTrail
    colour: Colour                  # lowest-index dominating vertex's label
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


class _Cyc:
    """A closed alternating trail or cycle of g in integers:
    verts[t] -- edges[t] -- verts[t+1] as vertex indices and edge
    positions, cols[t] the colour bit of edges[t], positions taken
    mod n; vset is the set of vertices it visits."""

    def __init__(self, g: EdgeColouredMultigraph, x: int,
                 edges: Sequence[int], cycle: bool, what: str):
        """The walk from vertex x along the edge positions `edges`;
        raises MergeInternalError, naming `what` and the faulty edge by
        its id, unless it is closed, alternates all round and, for a
        cycle, visits no vertex twice (`EdgeColouredMultigraph.walk`).
        An explicit check, so python -O keeps it."""
        try:
            verts = g.walk(x, edges, True, cycle)
        except BadWalk as exc:
            raise MergeInternalError(f"{what} fails verification: "
                                     + exc.reason(g.ids(edges))) from None
        self._hold(g, verts, list(edges), cycle)

    def _hold(self, g: EdgeColouredMultigraph, verts: list[int],
              edges: list[int], cycle: bool) -> None:
        self.verts = verts
        self.edges = edges
        self.cycle = cycle
        self.cols: list[int] = [g.bit[k] for k in edges]
        self.n = len(verts)
        self.vset = frozenset(verts)

    @classmethod
    def of(cls, g: EdgeColouredMultigraph, t: AlternatingTrail) -> "_Cyc":
        """Closed trail or cycle t of g in integers, from its one check
        (`_check_trail`).  Raises GraphError, with the reason, unless t
        is a closed alternating trail of g (an alternating cycle, for an
        AlternatingCycle)."""
        cycle = isinstance(t, AlternatingCycle)
        r, verts, edges = _check_trail(g, t, cycle, "part")
        if not r:
            raise GraphError(f"part from {t.start!r} fails verification: "
                             f"{r.reason}")
        c = cls.__new__(cls)
        c._hold(g, verts, edges, cycle)
        return c

    def seg(self, p: int, q: int) -> list[int]:
        """Edge positions walking forward from position p to position q."""
        return [self.edges[(p + t) % self.n] for t in range((q - p) % self.n)]

    def reversed(self) -> "_Cyc":
        """The same walk backwards from verts[0]: position t becomes
        position (n - t) % n."""
        r = copy.copy(self)
        r.verts = self.verts[:1] + self.verts[:0:-1]
        r.edges = self.edges[::-1]
        r.cols = self.cols[::-1]
        return r

    def from_vertex(self, v: int, c: int) -> tuple[list[int], int]:
        """The whole walk from v's first visit, forwards or backwards so
        that its first edge has colour bit c (the walk alternates all
        round), with the vertex it visits last before closing."""
        p = self.verts.index(v)
        if self.cols[p] == c:
            return self.edges[p:] + self.edges[:p], self.verts[p - 1]
        return (self.edges[:p][::-1] + self.edges[p:][::-1],
                self.verts[(p + 1) % self.n])

    def as_cycle(self, g: EdgeColouredMultigraph) -> AlternatingTrail:
        """The walk from verts[0] in ids, of the kind it was built as."""
        kind = AlternatingCycle if self.cycle else AlternatingTrail
        return kind(g.vertices[self.verts[0]], g.ids(self.edges),
                    closed=True)


def _edge_to(g: EdgeColouredMultigraph, u: int, v: int, c: int) -> int:
    """The position of vertex u's first edge to vertex v in colour bit
    c, in incidence order.  The moves ask only for edges that the
    chord or domination test has shown, so a missing one is a
    MergeInternalError."""
    for k, w in zip(*g.star(u)):
        if w == v and g.bit[k] == c:
            return k
    raise MergeInternalError(f"a move needs a {BIT_COLOUR[c].token} edge "
                             f"{g.vertices[u]!r}-{g.vertices[v]!r}")


def _dominates(g: EdgeColouredMultigraph, dom: _Cyc, sub: _Cyc
               ) -> Optional[dict[int, int]]:
    """The labels (vertex index -> colour bit) of a certificate that
    `dom` c-dominates `sub`, if the structure holds: complete adjacency
    between the walks, per-vertex monochromatic edges from dom to sub
    alternating along dom, and same-label pairs inside dom joined only
    in their own colour.  Each dominating vertex's colours come from
    its slice of the incidence lists."""
    bit = g.bit
    label: dict[int, int] = {}
    for x in dom.vset:
        ks, ws = g.star(x)
        colours = {bit[k] for k, w in zip(ks, ws) if w in sub.vset}
        if len(colours) != 1 or not sub.vset <= set(ws):
            return None
        label[x] = colours.pop()
    for t, x in enumerate(dom.verts):
        if label[x] == label[dom.verts[t - 1]]:
            return None
    for x, c in label.items():
        for k, w in zip(*g.star(x)):
            if label.get(w) == c and bit[k] != c:
                return None
    return label


def _exchange(g: EdgeColouredMultigraph, a: _Cyc, b: _Cyc,
              joins: Callable[[int], set[tuple[int, int]]], rotate: bool
              ) -> Optional[_Cyc]:
    """a and b merged by trading an edge of each, of one colour c, for
    two cross chords of colour c, else None; joins(v) holds (w, c) for
    each edge v-w of colour bit c.  a less its edge at position i is a
    path from s = a.verts[i+1] to t = a.verts[i] whose end edges are
    not of colour c; so is b less an edge y-y1 of colour c, and the
    chords t-y and y1-s close one walk.  With `rotate` the path is
    first rotated once (Posa): a chord s-p_k of colour c off a, where
    the path's edge p_{k-1}-p_k has colour c, gives the path p_{k-1}
    ... s, p_k ... t, with end edges still not of colour c."""
    own = set(a.edges)

    def paths(ao: _Cyc, i: int, c: int):
        """(start, head, q): the path is head, then ao.seg(q, i)."""
        i1 = (i + 1) % ao.n
        s = ao.verts[i1]
        if not rotate:
            yield s, [], i1
            return
        # p_k at position q = i1 + k; its edge in has colour c iff k even
        for q in range(i1 + 2, i1 + ao.n - 1, 2):
            q %= ao.n
            for e, w in zip(*g.star(s)):
                if w == ao.verts[q] and g.bit[e] == c and e not in own:
                    yield ao.verts[q - 1], ao.seg(i1, q - 1)[::-1] + [e], q
                    break

    for ao in (a, a.reversed()):
        for bo in (b, b.reversed()):
            for i in range(ao.n):
                c, t = ao.cols[i], ao.verts[i]
                for s, head, q in paths(ao, i, c):
                    jt, js = joins(t), joins(s)
                    for j in range(bo.n):
                        y, y1 = bo.verts[j], bo.verts[(j + 1) % bo.n]
                        if bo.cols[j] == c and (y, c) in jt \
                                and (y1, c) in js:
                            edges = (head + ao.seg(q, i)
                                     + [_edge_to(g, t, y, c)]
                                     + bo.seg(j + 1, j)[::-1]
                                     + [_edge_to(g, s, y1, c)])
                            return _Cyc(g, s, edges, a.cycle and b.cycle,
                                        ("rotation" if rotate else "chord")
                                        + " merge")
    return None


def _pair(g: EdgeColouredMultigraph, a: _Cyc, b: _Cyc
          ) -> _Cyc | tuple[_Cyc, dict[int, int]] | NoEdgeBetween:
    """Two vertex-disjoint walks of g merged into one spanning their
    union (a cycle, for two cycles), else the dominating walk with its
    labels, else NoEdgeBetween.  The moves span the union by
    construction.  Raises UnsupportedClass where none of these holds
    and g is not an extension of an M-closed graph, MergeInternalError
    where it is."""
    # (neighbour, colour bit) of each vertex's edges, read on demand
    joins = functools.cache(
        lambda v: {(w, g.bit[k]) for k, w in zip(*g.star(v))})
    if not any(w in b.vset for x in a.vset for w, _ in joins(x)):
        return NoEdgeBetween()
    out = _exchange(g, a, b, joins, False)
    if out is not None:
        return out
    for dom, sub in ((a, b), (b, a)):
        labels = _dominates(g, dom, sub)
        if labels is not None:
            return dom, labels
    out = _exchange(g, a, b, joins, True) or _exchange(g, b, a, joins, True)
    if out is not None:
        return out
    if Analysis.of(g).ext is None:
        raise UnsupportedClass("pair neither merges nor exhibits domination"
                               ": not an extension of an M-closed graph")
    raise MergeInternalError("pair neither merges nor exhibits domination")


def merge_cycles(g: EdgeColouredMultigraph, C1: AlternatingTrail,
                 C2: AlternatingTrail) -> MergeOutcome:
    """Merge two vertex-disjoint closed alternating trails or cycles of g
    into one spanning their union, or certify domination or the lack of
    any edge between them.  Two cycles merge into a cycle.

    The contract is for extensions of M-closed graphs: there Merged is
    returned exactly when the union of the two vertex sets carries a
    spanning closed alternating trail (a spanning alternating cycle,
    for two cycles); otherwise the domination certificate explains the
    obstruction.  Raises GraphError where C1 or C2 is not a closed
    alternating trail (cycle) of g, or they share a vertex, and
    UnsupportedClass where g is outside the class and the pair neither
    merges nor shows domination.
    """
    a = _Cyc.of(g, C1)
    b = _Cyc.of(g, C2)
    if a.vset & b.vset:
        raise GraphError("cycles or trails are not vertex-disjoint")
    out = _pair(g, a, b)
    if isinstance(out, _Cyc):
        return Merged(out.as_cycle(g))
    if isinstance(out, NoEdgeBetween):
        return out
    dom, labels = out
    d, s = (C1, C2) if dom is a else (C2, C1)
    return Dominates(DominationCertificate(
        d, s, BIT_COLOUR[labels[min(dom.vset)]],
        {g.vertices[x]: BIT_COLOUR[c] for x, c in labels.items()}))


# ---------------------------------------------------------------------
# tournament merges
# ---------------------------------------------------------------------

def _triangle(g: EdgeColouredMultigraph, a: _Cyc, b: _Cyc, c: _Cyc,
              lab: dict[int, int], lbc: dict[int, int],
              lca: dict[int, int]) -> _Cyc:
    """Merge a directed triangle a -> b -> c -> a of dominations, with
    the labels of its three arcs: traverse each walk once and close
    through the three predecessors of the chosen start vertices."""
    va = min(a.vset)
    alpha = lab[va]
    beta = 1 - alpha
    ea, va_pred = a.from_vertex(va, alpha)
    vb = min(v for v in b.vset if lbc[v] == beta)
    eb, vb_pred = b.from_vertex(vb, beta)
    vc = min(v for v in c.vset if lca[v] == alpha)
    ec, vc_pred = c.from_vertex(vc, alpha)

    edges = (ea
             + [_edge_to(g, va, vb, alpha)]
             + eb
             + [_edge_to(g, vb, vc, beta)]
             + ec
             + [_edge_to(g, vc, va_pred, alpha),
                _edge_to(g, va_pred, vb_pred, beta),
                _edge_to(g, vb_pred, vc_pred, alpha),
                _edge_to(g, vc_pred, va, beta)])
    return _Cyc(g, va, edges, False, "triangle merge")


def _transitive(g: EdgeColouredMultigraph, s: _Cyc, t2: _Cyc, t3: _Cyc,
                v: int, c: int) -> _Cyc:
    """Merge s with two walks it dominates, where the pivot v of s sends
    colour bit c to t2 and the other colour to t3: pick up t2 and
    return, pick up t3 and return, then traverse s."""
    u = min(t2.vset)
    e2, u_pred = t2.from_vertex(u, 1 - c)
    w = min(t3.vset)
    e3, w_pred = t3.from_vertex(w, c)
    e1, _ = s.from_vertex(v, c)

    edges = ([_edge_to(g, v, u, c)]
             + e2[:-1]
             + [_edge_to(g, u_pred, v, c),
                _edge_to(g, v, w, 1 - c)]
             + e3[:-1]
             + [_edge_to(g, w_pred, v, 1 - c)]
             + e1)
    return _Cyc(g, v, edges, False, "transitive merge")


def _tournament_merge(g: EdgeColouredMultigraph, walks: list[_Cyc],
                      arc: dict[tuple[int, int], dict[int, int]]
                      ) -> tuple[tuple[int, ...], _Cyc]:
    """Merge three walks of the domination tournament `arc` ((winner,
    loser) -> labels): the indices merged and the merged walk."""
    k = len(walks)
    for a, b, c in itertools.product(range(k), repeat=3):
        if (a, b) in arc and (b, c) in arc and (c, a) in arc:
            return (a, b, c), _triangle(
                g, walks[a], walks[b], walks[c],
                arc[(a, b)], arc[(b, c)], arc[(c, a)])

    # transitive tournament: the top walk first, the rest defensively
    order = sorted(range(k),
                   key=lambda i: (-sum((i, j) in arc for j in range(k)), i))
    for s in order:
        doms = [j for j in range(k) if (s, j) in arc]
        for t2 in doms:
            l2 = arc[(s, t2)]
            for v in sorted(walks[s].vset):
                for t3 in doms:
                    if t3 != t2 and arc[(s, t3)][v] != l2[v]:
                        return (s, t2, t3), _transitive(
                            g, walks[s], walks[t2], walks[t3], v, l2[v])
    raise MergeInternalError(
        "domination tournament admits neither a triangle nor a "
        "two-coloured pivot; this should be impossible")


# ---------------------------------------------------------------------
# the merge loop
# ---------------------------------------------------------------------

def merge_factor(g: EdgeColouredMultigraph,
                 parts: Sequence[AlternatingTrail]) -> AlternatingTrail:
    """One closed alternating trail spanning g, merged from `parts`:
    vertex-disjoint closed alternating trails or cycles covering V.  It
    is a cycle when every part is an AlternatingCycle.

    Raises GraphError where the parts are not such trails or cycles,
    and MergeInternalError where they cannot be merged, which the
    characterizations rule out for a factor of a (trail-)colour-
    connected extension of an M-closed graph; outside that class, a
    pair that neither merges nor shows domination is UnsupportedClass.
    """
    walks = [_Cyc.of(g, t) for t in parts]
    if sorted(x for w in walks for x in w.vset) \
            != list(range(len(g.vertices))):
        raise GraphError("factor parts overlap or do not cover V")
    cycles = all(w.cycle for w in walks)
    while len(walks) > 1:
        walks.sort(key=lambda w: (w.n, min(w.vset)))
        merged: Optional[tuple[tuple[int, ...], _Cyc]] = None
        arc: dict[tuple[int, int], dict[int, int]] = {}
        for p, q in itertools.combinations(range(len(walks)), 2):
            out = _pair(g, walks[p], walks[q])
            if isinstance(out, _Cyc):
                merged = (p, q), out
                break
            if isinstance(out, tuple):
                dom, labels = out
                arc[(p, q) if dom is walks[p] else (q, p)] = labels
        if merged is None:
            if cycles:
                raise MergeInternalError(
                    "no two cycles of the factor merge; this should be "
                    "impossible in a colour-connected graph")
            merged = _tournament_merge(g, walks, arc)
        used, w = merged
        walks = [s for i, s in enumerate(walks) if i not in used]
        walks.append(w)
    final = walks[0]
    if len(final.vset) != len(g.vertices):
        raise MergeInternalError("merged factor does not span the graph")
    return final.as_cycle(g)
