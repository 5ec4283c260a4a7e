"""Supereulerian decision and construction for extensions of M-closed
graphs, plus the complete-bipartite fast decision and the digraph view
of bipartite instances.

Such a graph has a spanning closed alternating trail iff it is
trail-colour-connected and has an eulerian factor.  The construction
starts from a factor and merges its trails pairwise with the cycle
moves of `ecgraph.merge`, run on the trails themselves in the subgraph
induced by the pair.  The paper's proof lifts the pair to cycles of a
blow-up, sending visit k of v to copy v.k, so a trail's positions match
its cycle's copies one to one.  Copies of distinct vertices are similar
iff the vertices are, and copies are joined in a colour iff their
vertices are, so each move picks the same positions and edges on the
trails as on the cycles, and no blow-up is built.  When every pair is
blocked by a domination certificate, the certificates form a tournament
on the trails; a directed triangle admits a three-way merge, and a
transitive tournament admits a merge through a vertex of the top trail
whose edge colours towards two dominated trails differ.
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
    verify_witness,
)
from .merge import (
    DominationCertificate,
    Merged,
    MergeInternalError,
    MergeOutcome,
    NoEdgeBetween,
    _structured_merge,
)


# ---------------------------------------------------------------------
# trail pair merging
# ---------------------------------------------------------------------

def merge_trails_pair(g: EdgeColouredMultigraph, T1: AlternatingTrail,
                      T2: AlternatingTrail) -> MergeOutcome:
    """Merge two vertex-disjoint closed alternating trails into one
    spanning their union, or certify domination or the lack of any edge
    between them."""
    V1 = T1.vertex_set(g)
    V2 = T2.vertex_set(g)
    # similarity is taken in the subgraph the two trails induce
    union = g.induced(V1 | V2)
    out = _structured_merge(union, T1, T2)
    if isinstance(out, Merged):
        r = verify_witness(g, out.cycle)
        if not r:
            raise MergeInternalError(f"trail merge invalid: {r.reason}")
        if out.cycle.vertex_set(g) != V1 | V2:
            raise MergeInternalError("trail merge does not span the union")
    if out is not None:
        return out

    # no structured outcome: search the union for a spanning trail directly
    from .oracle import BudgetExceeded, OracleBudget, oracle_supereulerian
    try:
        found = oracle_supereulerian(
            union, OracleBudget(max_vertices=12, max_edges=40, seconds=60.0))
    except BudgetExceeded as exc:
        raise MergeInternalError(
            f"unresolved trail pair too large for exhaustive search: {exc}")
    if found is None:
        raise MergeInternalError(
            "trail pair neither merges nor exhibits domination")
    return Merged(found)


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
    es = g.edges_between(u, v, colour)
    if not es:
        raise MergeInternalError(
            f"certificate promised a {colour.token} edge {u!r}-{v!r}")
    return es[0].id


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
    r = verify_witness(g, out)
    if not r:
        raise MergeInternalError(f"triangle merge produced {r.reason}")
    return out


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
    r = verify_witness(g, out)
    if not r:
        raise MergeInternalError(f"transitive merge produced {r.reason}")
    return out


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

    trails: list[AlternatingTrail] = [t for _, t in ef.parts]
    while len(trails) > 1:
        trails.sort(key=lambda t: (len(t.edge_ids),
                                   g.vertex_index(_lex_min(g, t.vertex_set(g)))))
        merged: Optional[tuple[int, int, AlternatingTrail]] = None
        arc: dict[tuple[int, int], DominationCertificate] = {}
        for p in range(len(trails)):
            for q in range(p + 1, len(trails)):
                out = merge_trails_pair(g, trails[p], trails[q])
                if isinstance(out, Merged):
                    merged = (p, q, out.cycle)
                    break
                if isinstance(out, NoEdgeBetween):
                    raise MergeInternalError(
                        "trail-colour-connected graph has trail pairs "
                        "with no edge between them")
                cert = out.certificate
                winner = p if cert.dominating == trails[p] else q
                loser = q if winner == p else p
                arc[(winner, loser)] = cert
            if merged:
                break
        if merged:
            p, q, t = merged
            trails = [t2 for i, t2 in enumerate(trails) if i not in (p, q)]
            trails.append(t)
            continue

        k = len(trails)
        tri = None
        for a in range(k):
            for b in range(k):
                if (a, b) not in arc:
                    continue
                for c3 in range(k):
                    if (b, c3) in arc and (c3, a) in arc:
                        tri = (a, b, c3)
                        break
                if tri:
                    break
            if tri:
                break
        if tri:
            a, b, c3 = tri
            t = merge_trails_3cycle(g, trails[a], trails[b], trails[c3],
                                    arc[(a, b)], arc[(b, c3)], arc[(c3, a)])
            trails = [t2 for i, t2 in enumerate(trails)
                      if i not in (a, b, c3)]
            trails.append(t)
            continue

        # transitive tournament: the top trail first, the rest defensively
        order = sorted(range(k),
                       key=lambda i: (-sum((i, j) in arc for j in range(k)), i))
        found = None
        for s in order:
            doms = [j for j in range(k) if (s, j) in arc]
            if len(doms) < 2:
                continue
            for t2 in doms:
                l2 = arc[(s, t2)].labels
                for v in sorted(trails[s].vertex_set(g), key=g.vertex_index):
                    for t3 in doms:
                        if t3 == t2:
                            continue
                        if arc[(s, t3)].labels[v] is not l2[v]:
                            found = (s, t2, t3, v, l2[v])
                            break
                    if found:
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            raise MergeInternalError(
                "domination tournament admits neither a triangle nor a "
                "two-coloured pivot; this should be impossible")
        s, t2, t3, v, c = found
        t = merge_trails_transitive(g, trails[s], trails[t2], trails[t3], v, c)
        trails = [t4 for i, t4 in enumerate(trails) if i not in (s, t2, t3)]
        trails.append(t)

    final = trails[0]
    if final.vertex_set(g) != set(g.vertices):
        raise MergeInternalError("merged trail does not span the graph")
    r = verify_witness(g, final)
    if not r:
        raise MergeInternalError(f"merged trail invalid: {r.reason}")
    return SupereulerianResult(trail=final)


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


def bb_to_digraph(g: EdgeColouredMultigraph,
                  x_part: Optional[list[str]] = None) -> BipartiteDigraph:
    if x_part is None:
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
    else:
        xs = list(x_part)
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
