"""Eulerian factors, alternating cycle factors, and alternating Euler tours.

The central construction is a matching gadget: a plain auxiliary graph H
whose perfect matchings correspond exactly to spanning sub-multigraphs in
which every vertex has equal red and blue degree, at least one of each.
The connected components of such a sub-multigraph, each equipped with an
alternating Euler tour, form an eulerian factor.

A vertex x of red degree r and blue degree b gets four blocks of
slots: R (r slots), R' (r - 1), B' (b - 1) and B (b), with R-R', R'-B'
and B'-B completely joined (R'-B' is thinned below).  Each edge of g
joins a slot in the R blocks (red) or the B blocks (blue) of its two
ends.  In a perfect matching with k matched R'-B' pairs at x, the
other r - 1 - k R' slots take R slots, so k + 1 R slots are left for
matched edges of g, and as many B slots: the matched edges of g give x
red and blue degree k + 1.  Every balanced spanning edge set arises
this way, with k + 1 <= min(r, b).

R' is joined to B' diagonally: R'_i to B'_i for i < min(r, b) - 1
only, not completely.  This keeps every set of edges of g that a
perfect matching selects.  With R-R', R'-B' and B'-B complete, any
renumbering of the R' slots, or of the B' slots, of one vertex is an
automorphism of the gadget that fixes the edges of g.  Given a perfect
matching with k R'-B' pairs at x, renumber the R' slots so the k
matched into B' come first, and the B' slots so that R'_i's partner is
B'_i.  The image is a perfect matching whose R'-B' pairs are all
diagonal, since k <= min(r, b) - 1, and it selects the same edges of
g.  The diagonal gadget is a subgraph of the complete one, so the
converse holds too.  At 60 vertices (mclosed_blowup seed 9) it has
79,001 edges instead of 100,943.

`build_slot_gadget` builds the gadget straight into integer adjacency
lists for the blossom engine.  `build_factor_gadget`, with string slot
names and the complete join, is kept only as the reference the tests
check it against.

Cycle factors reduce to perfect matching in a much smaller auxiliary
graph with one red and one blue copy per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    AlternatingCycle,
    AlternatingTrail,
    Colour,
    CycleFactor,
    EdgeColouredMultigraph,
    EulerianFactor,
    GraphError,
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
class SlotGadget:
    """The factor gadget of g in integer form.

    The slots of vertex x are numbered block after block: R, R', B', B.
    `external` holds, per edge of g in declaration order, the slots its
    external edge joins.
    """

    h: IndexedGraph
    external: tuple[tuple[int, int], ...]


def build_slot_gadget(g: EdgeColouredMultigraph) -> SlotGadget:
    """The factor gadget as integer adjacency lists, R' joined to B'
    diagonally (see the module docstring); raises ColourDeficient if
    some vertex misses a colour.

    The slots of each vertex take the next block of indices, and each
    external edge takes the next free R (or B) slot of both its ends,
    in edge declaration order.  The gadget has no parallel edges, so
    the lists are built directly.
    """
    for v in g.vertices:
        for c in (Colour.RED, Colour.BLUE):
            if g.degree(v, c) == 0:
                raise ColourDeficient(v, c)

    adj: list[list[int]] = []

    def join(a: range, b: range) -> None:
        for i in a:
            adj[i].extend(b)
        for j in b:
            adj[j].extend(a)

    # (vertex, colour) -> next free slot of its R or B block
    free: dict[tuple[str, Colour], int] = {}
    for x in g.vertices:
        r = g.degree(x, Colour.RED)
        b = g.degree(x, Colour.BLUE)
        o = len(adj)
        adj.extend([] for _ in range(2 * (r + b - 1)))
        R = range(o, o + r)
        Rp = range(R.stop, R.stop + r - 1)
        Bp = range(Rp.stop, Rp.stop + b - 1)
        B = range(Bp.stop, Bp.stop + b)
        join(R, Rp)
        for i, j in zip(Rp, Bp):
            adj[i].append(j)
            adj[j].append(i)
        join(Bp, B)
        free[(x, Colour.RED)] = R.start
        free[(x, Colour.BLUE)] = B.start

    external: list[tuple[int, int]] = []
    for e in g.edges:
        su = free[(e.u, e.colour)]
        sv = free[(e.v, e.colour)]
        free[(e.u, e.colour)] = su + 1
        free[(e.v, e.colour)] = sv + 1
        adj[su].append(sv)
        adj[sv].append(su)
        external.append((su, sv))
    return SlotGadget(IndexedGraph.from_adjacency(adj), tuple(external))


@dataclass(frozen=True)
class FactorGadget:
    h: PlainGraph
    # per original vertex: slot name lists R, R', B', B
    blocks: dict[str, dict[str, tuple[str, ...]]]
    # auxiliary edge id -> original edge id (external edges only)
    external: dict[str, str]


def build_factor_gadget(g: EdgeColouredMultigraph) -> FactorGadget:
    """The factor gadget with string slot names, complete R'-B' join
    included: the reference `build_slot_gadget` is tested against.

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
    """Eulerian factor via the gadget, or None if no perfect matching."""
    if len(g.vertices) < 2:
        return None
    try:
        gadget = build_slot_gadget(g)
    except ColourDeficient:
        return None
    match = gadget.h.matching()
    if -1 in match:
        return None
    return tour_factor_from_balanced_edges(
        g, [e.id for e, (su, sv) in zip(g.edges, gadget.external)
            if match[su] == sv])


def tour_factor_from_balanced_edges(g: EdgeColouredMultigraph,
                                    edge_ids: Iterable[str]) -> EulerianFactor:
    """Factor from a colour-balanced edge set covering V: one part per
    connected component, spanned by its alternating Euler tour."""
    sub = g.restricted_to_edges(edge_ids)
    missing = set(g.vertices) - set(sub.vertices)
    if missing:
        raise GraphError(f"balanced edge set misses vertex {sorted(missing)[0]!r}")
    parts: list[tuple[frozenset[str], AlternatingTrail]] = []
    for comp in _components(sub):
        comp_sub = sub.induced(comp)
        tour = alternating_euler_tour(comp_sub)
        if tour is None:
            raise GraphError("component admits no alternating euler tour")
        parts.append((frozenset(comp), tour))
    return EulerianFactor(tuple(parts))


def _components(g: EdgeColouredMultigraph) -> list[list[str]]:
    seen: set[str] = set()
    out: list[list[str]] = []
    for v in g.vertices:
        if v in seen:
            continue
        comp = [v]
        seen.add(v)
        stack = [v]
        while stack:
            x = stack.pop()
            for w in g.neighbours(x):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        out.append(comp)
    return out


def alternating_euler_tour(g_sub: EdgeColouredMultigraph
                           ) -> Optional[AlternatingTrail]:
    """Closed alternating trail using every edge of g_sub exactly once.

    Exists iff g_sub is connected and every vertex has red degree equal
    to blue degree.  Red and blue edge-ends are paired at each vertex
    into a transition system whose orbits are closed alternating trails;
    trails sharing a vertex are then merged by swapping one transition
    pair, until a single tour remains.
    """
    if not g_sub.edges:
        return None
    if len(_components(g_sub)) != 1:
        return None
    for v in g_sub.vertices:
        if g_sub.degree(v, Colour.RED) != g_sub.degree(v, Colour.BLUE):
            return None

    # pair[v][edge id] = partner edge id at v (always a red-blue pair)
    pair: dict[str, dict[str, str]] = {}
    for v in g_sub.vertices:
        reds = [e.id for e in g_sub.incident(v, Colour.RED)]
        blues = [e.id for e in g_sub.incident(v, Colour.BLUE)]
        pair[v] = {}
        for r, b in zip(reds, blues):
            pair[v][r] = b
            pair[v][b] = r

    def trails_of_pairing() -> list[AlternatingTrail]:
        unused = {e.id for e in g_sub.edges}
        trails: list[AlternatingTrail] = []
        for e0 in g_sub.edges:
            if e0.id not in unused:
                continue
            start = e0.u
            seq = [e0.id]
            unused.discard(e0.id)
            eid = e0.id
            cur = e0.v
            while not (cur == start and pair[cur][eid] == e0.id):
                nxt = pair[cur][eid]
                seq.append(nxt)
                unused.discard(nxt)
                eid = nxt
                cur = g_sub.edge(nxt).other_end(cur)
            trails.append(AlternatingTrail(start, tuple(seq), closed=True))
        return trails

    while True:
        trails = trails_of_pairing()
        if len(trails) == 1:
            return trails[0]
        # merge two trails meeting at some vertex by swapping a transition
        owner: dict[str, int] = {}
        merged = False
        for ti, t in enumerate(trails):
            for v in t.vertex_sequence(g_sub):
                if v in owner and owner[v] != ti:
                    other = trails[owner[v]]
                    r1, b1 = _pair_at(g_sub, pair, v, t)
                    r2, b2 = _pair_at(g_sub, pair, v, other)
                    pair[v][r1] = b2
                    pair[v][b2] = r1
                    pair[v][r2] = b1
                    pair[v][b1] = r2
                    merged = True
                    break
                owner[v] = ti
            if merged:
                break
        if not merged:
            # connected input always yields a mergeable vertex
            return None


def _pair_at(g: EdgeColouredMultigraph, pair: dict[str, dict[str, str]],
             v: str, t: AlternatingTrail) -> tuple[str, str]:
    """Some (red, blue) transition pair of trail t at vertex v."""
    in_t = set(t.edge_ids)
    for eid, partner in pair[v].items():
        if eid in in_t and g.edge(eid).colour is Colour.RED:
            return eid, partner
    raise GraphError(f"trail has no transition at {v!r}")


def alternating_cycle_factor(g: EdgeColouredMultigraph,
                             forbid_digons: bool = False
                             ) -> Optional[CycleFactor]:
    """Vertex-disjoint alternating cycles covering V, or None.

    Reduction: a red and a blue copy per vertex, each colour-c edge uv
    joins the colour-c copies; a perfect matching picks exactly one red
    and one blue edge per vertex, and that 2-regular colour-balanced
    edge set splits into alternating cycles.

    With forbid_digons=True the simple-graph convention is enforced by
    exhaustive search instead (small inputs only).
    """
    if len(g.vertices) < 2:
        return None
    if forbid_digons:
        from .oracle import oracle_cycle_factor
        return oracle_cycle_factor(g, forbid_digons=True)
    # vertex i has a red copy 2i and a blue copy 2i+1
    bit = {Colour.RED: 0, Colour.BLUE: 1}
    split = IndexedGraph(2 * len(g.vertices), (
        (2 * g.vertex_index(e.u) + bit[e.colour],
         2 * g.vertex_index(e.v) + bit[e.colour], e.id) for e in g.edges))
    match = split.matching()
    if -1 in match:
        return None
    chosen: dict[tuple[str, Colour], str] = {}
    for i, j in enumerate(match):
        if i < j:
            e = g.edge(split.edge_id(i, j))
            chosen[(e.u, e.colour)] = e.id
            chosen[(e.v, e.colour)] = e.id
    cycles: list[AlternatingCycle] = []
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
