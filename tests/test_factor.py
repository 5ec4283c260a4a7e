import random

import pytest
from hypothesis import given, settings, strategies as st

from ecgraph import (
    BLUE,
    RED,
    build_graph,
    alternating_cycle_factor,
    alternating_euler_tour,
    eulerian_factor,
    oracle_cycle_factor,
    oracle_eulerian_factor,
    tour_factor_from_balanced_edges,
    verify_witness,
)
from ecgraph.factor import (
    ColourDeficient,
    build_factor_gadget,
    build_slot_gadget,
)
from ecgraph.matching import IndexedGraph, maximum_matching
from ecgraph.reductions import fixture, generate


def rand_graph(seed, n_max=7, m_max=14):
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    return generate("random_2ec", seed=seed, n=n,
                    m=rng.randint(1, m_max))


def visit_counts(g, match):
    """Visit count per vertex of the factor that a perfect matching of
    `build_slot_gadget(g)` encodes: 1 + its matched R'(x)-B'(x) pairs.
    The slots of x come block after block, R (r), R' (r - 1), B'
    (b - 1), B (b)."""
    counts = {}
    o = 0
    for x in g.vertices:
        r, b = g.degree(x, RED), g.degree(x, BLUE)
        bp = o + 2 * r - 1
        counts[x] = 1 + sum(bp <= match[s] < bp + b - 1
                            for s in range(o + r, bp))
        o += 2 * (r + b - 1)
    return counts


class TestGadget:
    def test_colour_deficient_vertex_rejected(self):
        g = build_graph(["a", "b"], [("a", "b", RED)])
        with pytest.raises(ColourDeficient):
            build_slot_gadget(g)
        assert eulerian_factor(g) is None

    def test_digon_gadget(self):
        g = build_graph(["a", "b"], [("a", "b", RED), ("a", "b", BLUE)])
        gadget = build_slot_gadget(g)
        # r = b = 1 per vertex: blocks R and B only, one slot each
        assert gadget.h.adj == [[2], [3], [0], [1]]
        assert gadget.external == ((0, 2), (1, 3))
        f = eulerian_factor(g)
        assert f is not None and verify_witness(g, f)

    def test_visit_counts_follow_inner_matching(self):
        g = fixture("efig")
        f = eulerian_factor(g)
        assert f is not None and len(f.parts) == 1
        # the spanning trail passes through v3 and v5 twice
        assert f.visit_count(g, "v3") == 2
        assert f.visit_count(g, "v5") == 2
        for v in ("v1", "v2", "v4", "v6"):
            assert f.visit_count(g, v) == 1

    def test_no_factor_when_middle_too_thin(self):
        g = fixture("needall_g")
        # u and v have blue degree 1, so neither can carry both red
        # edges of its side
        assert eulerian_factor(g) is None
        assert oracle_eulerian_factor(g) is None

    def test_no_factor_when_unbalanced(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "c", RED), ("a", "c", BLUE)])
        assert eulerian_factor(g) is None
        assert oracle_eulerian_factor(g) is None


class TestEulerTour:
    def test_digon_tour(self):
        g = build_graph(["a", "b"], [("a", "b", RED), ("a", "b", BLUE)])
        t = alternating_euler_tour(g)
        assert t is not None and verify_witness(g, t)
        assert len(t.edge_ids) == 2

    def test_unbalanced_vertex_has_no_tour(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "c", BLUE), ("a", "c", RED)])
        assert alternating_euler_tour(g) is None

    def test_disconnected_has_no_tour(self):
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("a", "b", BLUE),
                         ("c", "d", RED), ("c", "d", BLUE)])
        assert alternating_euler_tour(g) is None

    def test_figure_eight_merges(self):
        # two digons sharing vertex a must merge into one tour
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("a", "b", BLUE),
                         ("a", "c", RED), ("a", "c", BLUE)])
        t = alternating_euler_tour(g)
        assert t is not None and len(t.edge_ids) == 4
        assert verify_witness(g, t)

    def test_tour_uses_every_edge_once(self):
        g = fixture("efig")
        f = eulerian_factor(g)
        assert f is not None and len(f.parts) == 1
        _, t = f.parts[0]
        assert len(t.edge_ids) == len(set(t.edge_ids)) == 8

    def test_balanced_edge_set_must_cover(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("a", "b", BLUE), ("b", "c", RED)])
        with pytest.raises(Exception):
            tour_factor_from_balanced_edges(g, ["e0", "e1"])


class TestCycleFactor:
    def test_digon_counts_as_cycle(self):
        g = build_graph(["a", "b"], [("a", "b", RED), ("a", "b", BLUE)])
        cf = alternating_cycle_factor(g)
        assert cf is not None and verify_witness(g, cf)
        assert alternating_cycle_factor(g, forbid_digons=True) is None

    def test_four_cycle_survives_digon_ban(self):
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("b", "c", BLUE),
                         ("c", "d", RED), ("d", "a", BLUE)])
        assert alternating_cycle_factor(g, forbid_digons=True) is not None

    def test_halfm_two_cycles(self):
        g = fixture("halfm")
        cf = alternating_cycle_factor(g)
        assert cf is not None and verify_witness(g, cf)
        assert sorted(len(c.edge_ids) for c in cf.cycles) == [4, 4]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_eulerian_factor_agrees_with_oracle(seed):
    g = rand_graph(seed)
    fast = eulerian_factor(g)
    slow = oracle_eulerian_factor(g)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert verify_witness(g, fast)
        assert verify_witness(g, slow)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100_000))
def test_cycle_factor_agrees_with_oracle(seed):
    g = rand_graph(seed, n_max=6, m_max=12)
    fast = alternating_cycle_factor(g)
    slow = oracle_cycle_factor(g)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert verify_witness(g, fast)


@st.composite
def coloured_multigraphs(draw):
    """2..6 vertices and up to 16 drawn edges, so parallel edges and
    colour-deficient vertices are common; half the draws first give
    each vertex a red and a blue edge to the next one."""
    n = draw(st.integers(2, 6))
    verts = [f"v{i}" for i in range(n)]
    triples = []
    if draw(st.booleans()):
        triples += [(verts[i], verts[(i + 1) % n], c)
                    for i in range(n) for c in (RED, BLUE)]
    pairs = [(u, v) for u in verts for v in verts if u != v]
    triples += draw(st.lists(st.tuples(st.sampled_from(pairs),
                                       st.sampled_from((RED, BLUE))),
                             max_size=16).map(
        lambda es: [(u, v, c) for (u, v), c in es]))
    return build_graph(verts, triples)


@settings(max_examples=300, deadline=None)
@given(coloured_multigraphs())
def test_slot_gadget_answers_as_string_reference(g):
    try:
        ref = build_factor_gadget(g)
    except ColourDeficient:
        with pytest.raises(ColourDeficient):
            build_slot_gadget(g)
        return
    m = maximum_matching(ref.h)
    ref_perfect = 2 * len(m) == len(ref.h.vertices)
    index = {v: i for i, v in enumerate(ref.h.vertices)}

    # the reference's numbering and adjacency order, with its complete
    # R'-B' join cut to the diagonal
    off = {frozenset((rp, bp)) for bl in ref.blocks.values()
           for i, rp in enumerate(bl["Rp"])
           for j, bp in enumerate(bl["Bp"]) if i != j}
    diag = build_slot_gadget(g)
    assert diag.h.adj == IndexedGraph(len(index), (
        (index[u], index[v], h) for h, u, v in ref.h.edges
        if frozenset((u, v)) not in off)).adj
    assert diag.external == tuple((index[u], index[v])
                                  for h, u, v in ref.h.edges
                                  if h in ref.external)

    # the same answer as the complete join, and the matched edges of g
    # give every vertex equal red and blue degree, its visit count
    match = diag.h.matching()
    assert (-1 not in match) == ref_perfect
    if not ref_perfect:
        assert eulerian_factor(g) is None
        return
    chosen = [e for e, (su, sv) in zip(g.edges, diag.external)
              if match[su] == sv]
    counts = visit_counts(g, match)
    for v in g.vertices:
        for c in (RED, BLUE):
            assert sum(e.touches(v) for e in chosen if e.colour is c) \
                == counts[v]
    f = eulerian_factor(g)
    assert f is not None and verify_witness(g, f)
    for v in g.vertices:
        assert f.visit_count(g, v) == counts[v]


def test_diagonal_join_sizes():
    g = generate("mclosed_blowup", seed=9, n=30)
    diag = build_slot_gadget(g)
    full = build_factor_gadget(g)
    assert len(diag.h.adj) == len(full.h.vertices)
    # R'-B' shrinks from (r-1)(b-1) edges to min(r, b) - 1 at each vertex
    cut = 0
    for x in g.vertices:
        nr, nb = g.degree(x, RED) - 1, g.degree(x, BLUE) - 1
        cut += nr * nb - min(nr, nb)
    assert cut > 0
    assert sum(map(len, diag.h.adj)) == 2 * (len(full.h.edges) - cut)
