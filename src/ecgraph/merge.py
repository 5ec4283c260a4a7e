"""Cycle merging for extensions of M-closed graphs, and the alternating
hamiltonian cycle algorithm built on it.

Two disjoint alternating cycles with an edge between them either merge
into one alternating cycle on the union of their vertex sets, or one of
them c-dominates the other: every vertex of the dominating cycle sends
edges of a single colour to the other cycle, those colours alternate
along the cycle, and same-colour classes are internally monochromatic.
Domination makes the union non-colour-connected, so exactly one of the
two outcomes holds.

Merging is attempted through two constructive moves (splicing at a
similar cross pair, and rerouting along two parallel same-coloured
chords); if neither applies and the domination structure is absent, a
bounded exhaustive search settles the pair.  Any inconsistency is a
hard error, never a wrong answer.

The moves and the domination test also take closed alternating trails,
which may revisit vertices: positions along the walk, not vertex names,
index it.  Two cycles merge into a cycle; any other pair merges into a
closed trail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .analysis import Analysis
from .core import (
    AlternatingCycle,
    AlternatingTrail,
    Colour,
    EdgeColouredMultigraph,
    UnsupportedClass,
    verify_witness,
)
from .structure import similar


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


def _closed(start: str, edges, cycle: bool) -> AlternatingTrail:
    """A closed walk as a cycle or as a closed trail."""
    if cycle:
        return AlternatingCycle(start, tuple(edges))
    return AlternatingTrail(start, tuple(edges), closed=True)


class _Cyc:
    """Indexed view of a closed alternating trail or cycle:
    verts[t] -- edges[t] -- verts[t+1], positions taken mod n."""

    def __init__(self, g: EdgeColouredMultigraph, c: AlternatingTrail):
        self.g = g
        self.cycle = isinstance(c, AlternatingCycle)
        seq = c.vertex_sequence(g)
        self.verts: list[str] = seq[:-1]
        self.edges: list[str] = list(c.edge_ids)
        self.cols: list[Colour] = [g.edge(e).colour for e in self.edges]
        self.n = len(self.verts)

    def seg(self, p: int, q: int) -> list[str]:
        """Edge ids walking forward from position p to position q."""
        out = []
        t = p
        while t != q % self.n:
            out.append(self.edges[t % self.n])
            t = (t + 1) % self.n
        return out

    def reversed(self) -> "_Cyc":
        """The same walk backwards from verts[0]: position t becomes
        position (n - t) % n."""
        return _Cyc(self.g, _closed(self.verts[0], reversed(self.edges),
                                    self.cycle))

    def as_cycle(self) -> AlternatingTrail:
        """The walk from verts[0], of the kind it was built from."""
        return _closed(self.verts[0], self.edges, self.cycle)


def _first_edge(g: EdgeColouredMultigraph, u: str, v: str,
                colour: Colour) -> Optional[str]:
    es = g.edges_between(u, v, colour)
    return es[0].id if es else None


def merge_similar(g: EdgeColouredMultigraph, C1: AlternatingTrail,
                  C2: AlternatingTrail, i: int, j: int) -> AlternatingTrail:
    """Splice two disjoint closed alternating trails at a similar cross
    pair.

    The vertices at position i of C1 and position j of C2 must be
    similar; C2 is reversed internally if needed so that the outgoing
    edge colours at the two pivots agree.  The pivots' identical joins
    supply the two cross chords closing the spliced walk.
    """
    a = _Cyc(g, C1)
    b = _Cyc(g, C2)
    x = a.verts[i]
    y = b.verts[j]
    if not similar(g, x, y):
        raise ValueError(f"vertices {x!r} and {y!r} are not similar")
    if b.cols[j] is not a.cols[i]:
        b = b.reversed()
        j = (b.n - j) % b.n
    if b.cols[j] is not a.cols[i]:
        raise MergeInternalError("cannot align cycle orientations")
    cp = a.cols[(i - 1) % a.n]   # colour into x, = colour into y
    chord1 = _first_edge(g, a.verts[(i - 1) % a.n], y, cp)
    chord2 = _first_edge(g, b.verts[(j - 1) % b.n], x, cp)
    if chord1 is None or chord2 is None:
        raise MergeInternalError("similar pivots lack the mirrored chords")
    edges = (a.seg(i, (i - 1) % a.n) + [chord1]
             + b.seg(j, (j - 1) % b.n) + [chord2])
    out = _closed(x, edges, a.cycle and b.cycle)
    r = verify_witness(g, out)
    if not r:
        raise MergeInternalError(f"similar merge produced {r.reason}")
    return out


def merge_parallel_chords(g: EdgeColouredMultigraph, C1: AlternatingTrail,
                          C2: AlternatingTrail, i: int, j: int
                          ) -> AlternatingTrail:
    """Merge along chords verts(C1)[i]-verts(C2)[j] and
    verts(C1)[i+1]-verts(C2)[j+1], all four of the involved edges sharing
    one colour c = colour of the walks' edges at positions i and j."""
    a = _Cyc(g, C1)
    b = _Cyc(g, C2)
    c = a.cols[i]
    if b.cols[j] is not c:
        raise ValueError("cycle edge colours at i and j differ")
    chord1 = _first_edge(g, a.verts[i], b.verts[j], c)
    chord2 = _first_edge(g, a.verts[(i + 1) % a.n],
                         b.verts[(j + 1) % b.n], c)
    if chord1 is None or chord2 is None:
        raise ValueError("required same-coloured chords are missing")
    i1 = (i + 1) % a.n
    j1 = (j + 1) % b.n
    edges = (a.seg(i1, i) + [chord1]
             + list(reversed(b.seg(j1, j))) + [chord2])
    out = _closed(a.verts[i1], edges, a.cycle and b.cycle)
    r = verify_witness(g, out)
    if not r:
        raise MergeInternalError(f"chord merge produced {r.reason}")
    return out


def check_domination(g: EdgeColouredMultigraph, dom: AlternatingTrail,
                     sub: AlternatingTrail
                     ) -> Optional[DominationCertificate]:
    """Certificate that `dom` c-dominates `sub`, if the structure holds:
    complete adjacency between the objects, per-vertex monochromatic
    edges from dom to sub alternating along dom, and same-label pairs
    inside dom joined only in their own colour."""
    dv = dom.vertex_sequence(g)[:-1]
    sv = sub.vertex_set(g)
    labels: dict[str, Colour] = {}
    for x in set(dv):
        colours = set()
        for y in sv:
            es = g.edges_between(x, y)
            if not es:
                return None
            colours.update(e.colour for e in es)
        if len(colours) != 1:
            return None
        labels[x] = colours.pop()
    for t, x in enumerate(dv):
        if labels[x] is labels[dv[(t + 1) % len(dv)]]:
            return None
    verts = list(dict.fromkeys(dv))
    for p, x in enumerate(verts):
        for y in verts[p + 1:]:
            if labels[x] is not labels[y]:
                continue
            for e in g.edges_between(x, y):
                if e.colour is not labels[x]:
                    return None
    start = min(dv, key=g.vertex_index)
    return DominationCertificate(dom, sub, labels[start], labels)


def _cross_colours(g: EdgeColouredMultigraph, V1: frozenset[str],
                   V2: frozenset[str]) -> dict[tuple[str, str], set[Colour]]:
    out: dict[tuple[str, str], set[Colour]] = {}
    for x in V1:
        for e in g.incident(x):
            y = e.other_end(x)
            if y in V2:
                out.setdefault((x, y), set()).add(e.colour)
    return out


def _structured_merge(g: EdgeColouredMultigraph, C1: AlternatingTrail,
                      C2: AlternatingTrail
                      ) -> Optional[MergeOutcome]:
    """The constructive moves plus the domination test on two disjoint
    closed trails or cycles of g; None when all of them come up empty
    (caller falls back to exhaustive search)."""
    V1 = C1.vertex_set(g)
    V2 = C2.vertex_set(g)
    if V1 & V2:
        raise ValueError("cycles or trails are not vertex-disjoint")
    cross = _cross_colours(g, V1, V2)
    if not cross:
        return NoEdgeBetween()

    a = _Cyc(g, C1)
    b = _Cyc(g, C2)
    for i, x in enumerate(a.verts):
        for j, y in enumerate(b.verts):
            if similar(g, x, y):
                return Merged(merge_similar(g, C1, C2, i, j))

    for ao in (a, a.reversed()):
        for bo in (b, b.reversed()):
            for i in range(ao.n):
                c = ao.cols[i]
                x, x1 = ao.verts[i], ao.verts[(i + 1) % ao.n]
                for j in range(bo.n):
                    if bo.cols[j] is not c:
                        continue
                    y, y1 = bo.verts[j], bo.verts[(j + 1) % bo.n]
                    if c in cross.get((x, y), ()) and c in cross.get((x1, y1), ()):
                        return Merged(merge_parallel_chords(
                            g, ao.as_cycle(), bo.as_cycle(), i, j))

    for dom, sub in ((C1, C2), (C2, C1)):
        cert = check_domination(g, dom, sub)
        if cert is not None:
            return Dominates(cert)
    return None


def merge_cycles(g: EdgeColouredMultigraph, C1: AlternatingTrail,
                 C2: AlternatingTrail) -> MergeOutcome:
    """Merge two disjoint alternating cycles, or certify why not.

    Merged is returned exactly when the induced subgraph on the union of
    the two vertex sets is colour-connected; otherwise the domination
    certificate explains the obstruction.
    """
    out = _structured_merge(g, C1, C2)
    if out is not None:
        return out
    # neither constructive move fired and no domination: the union must
    # still carry a spanning alternating cycle; find it exhaustively
    from .oracle import BudgetExceeded, oracle_ham_alternating
    union = g.induced(C1.vertex_set(g) | C2.vertex_set(g))
    try:
        found = oracle_ham_alternating(union)
    except BudgetExceeded as exc:
        raise MergeInternalError(
            f"unresolved cycle pair too large for exhaustive search: {exc}")
    if found is None:
        raise MergeInternalError(
            "cycle pair neither merges nor exhibits domination")
    return Merged(found)


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
    cycle factor; the factor's cycles are merged pairwise until one
    remains.  A colour-connected graph with a factor in which no pair
    merges would contradict the characterization, so that state is a
    hard error rather than a negative answer.
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
    cycles: list[AlternatingCycle] = list(cf.cycles)
    while len(cycles) > 1:
        cycles.sort(key=lambda c: (len(c.edge_ids),
                                   min(c.vertex_set(g), key=g.vertex_index)))
        merged_pair = None
        for p in range(len(cycles)):
            for q in range(p + 1, len(cycles)):
                out = merge_cycles(g, cycles[p], cycles[q])
                if isinstance(out, Merged):
                    merged_pair = (p, q, out.cycle)
                    break
            if merged_pair:
                break
        if merged_pair is None:
            raise MergeInternalError(
                "colour-connected graph with a cycle factor has an "
                "unmergeable factor; this should be impossible")
        p, q, cyc = merged_pair
        cycles = [c for t, c in enumerate(cycles) if t not in (p, q)]
        cycles.append(cyc)
    final = cycles[0]
    if final.vertex_set(g) != set(g.vertices):
        raise MergeInternalError("merged cycle does not span the graph")
    r = verify_witness(g, final)
    if not r:
        raise MergeInternalError(f"merged cycle invalid: {r.reason}")
    return HamiltonianResult(cycle=final)
