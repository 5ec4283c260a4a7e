import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import ecgraph.core
from ecgraph import (
    BLUE,
    RED,
    GraphError,
    VerifyResult,
    build_graph,
    alternating_cycle_factor,
    alternating_euler_tour,
    eulerian_factor,
    oracle_cycle_factor,
    oracle_eulerian_factor,
    tour_factor_from_balanced_edges,
    verify_witness,
)
from ecgraph.factor import ColourDeficient, _BMatching, build_factor_gadget
from ecgraph.matching import IndexedGraph, maximum_matching
from ecgraph.reductions import fixture, generate

from reference import ref_cycle_read_back, ref_tour_factor, visit_count


def rand_graph(seed, n_max=7, m_max=14):
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    return generate("random_2ec", seed=seed, n=n,
                    m=rng.randint(1, m_max))


def slot_gadget(g):
    """(h, external, match): the slot gadget of g with the zero
    b-matching laid out on it; raises ColourDeficient as _BMatching.of
    does."""
    p = _BMatching.of(g)
    return p.laid_out(g, [0] * len(p.cap))


def assert_visits_are_degrees(g, f):
    """Each vertex's visit count is its red and its blue degree in the
    factor's edges, between 1 and min(r, b)."""
    edges = [g.edge(eid) for _, t in f.parts for eid in t.edge_ids]
    for v in g.vertices:
        k = visit_count(g, f, v)
        for c in (RED, BLUE):
            assert sum(e.colour is c and e.touches(v) for e in edges) == k
        assert 1 <= k <= min(g.degree(v, RED), g.degree(v, BLUE))


class TestGadget:
    def test_colour_deficient_vertex_rejected(self):
        g = build_graph(["a", "b"], [("a", "b", RED)])
        with pytest.raises(ColourDeficient,
                           match="vertex 'a' has no blue edge"):
            _BMatching.of(g)
        assert eulerian_factor(g) is None

    def test_digon_gadget(self):
        g = build_graph(["a", "b"], [("a", "b", RED), ("a", "b", BLUE)])
        h, external, match = slot_gadget(g)
        # r = b = 1 per vertex: blocks R and B only, one slot each
        assert h.adj == [[2], [3], [0], [1]]
        assert external == [(0, 2), (1, 3)]
        assert match == [-1] * 4
        f = eulerian_factor(g)
        assert f is not None and verify_witness(g, f)

    def test_visit_counts_follow_inner_matching(self):
        g = fixture("efig")
        f = eulerian_factor(g)
        assert f is not None and len(f.parts) == 1
        # the spanning trail passes through v3 and v5 twice
        assert visit_count(g, f, "v3") == 2
        assert visit_count(g, f, "v5") == 2
        for v in ("v1", "v2", "v4", "v6"):
            assert visit_count(g, f, v) == 1

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
        with pytest.raises(GraphError, match="misses vertex 'c'"):
            tour_factor_from_balanced_edges(g, [0, 1])

    def test_unbalanced_repeated_or_unknown_positions_raise(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("a", "b", BLUE), ("b", "c", RED),
                         ("b", "c", BLUE), ("a", "c", RED)])
        assert len(tour_factor_from_balanced_edges(g, [0, 1, 2, 3]).parts) \
            == 1
        with pytest.raises(GraphError, match="not balanced"):
            tour_factor_from_balanced_edges(g, [0, 1, 2, 3, 4])
        # a repeat would pair one edge-end twice
        with pytest.raises(GraphError, match="chosen twice"):
            tour_factor_from_balanced_edges(g, [0, 1, 2, 3, 2])
        for bad in (5, -1):
            with pytest.raises(GraphError, match="no edge at position"):
                tour_factor_from_balanced_edges(g, [0, 1, 2, 3, bad])


class TestCycleFactor:
    def test_digon_counts_as_cycle(self):
        g = build_graph(["a", "b"], [("a", "b", RED), ("a", "b", BLUE)])
        cf = alternating_cycle_factor(g)
        assert cf is not None and verify_witness(g, cf)

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
    except ColourDeficient as exc:
        with pytest.raises(ColourDeficient, match=str(exc)):
            _BMatching.of(g)
        return
    m = maximum_matching(ref.h)
    ref_perfect = 2 * len(m) == len(ref.h.vertices)
    index = {v: i for i, v in enumerate(ref.h.vertices)}

    # the reference's numbering and adjacency order, with its complete
    # R'-B' join cut to the diagonal
    off = {frozenset((rp, bp)) for bl in ref.blocks.values()
           for i, rp in enumerate(bl["Rp"])
           for j, bp in enumerate(bl["Bp"]) if i != j}
    h, external, _ = slot_gadget(g)
    assert h.adj == IndexedGraph(len(index), (
        (index[u], index[v], eid) for eid, u, v in ref.h.edges
        if frozenset((u, v)) not in off)).adj
    assert external == [(index[u], index[v]) for eid, u, v in ref.h.edges
                        if eid in ref.external]

    # the same answer as the complete join, and as eulerian_factor,
    # whose factor visits each vertex as often as its edges give the
    # vertex red edges, and blue ones
    assert (-1 not in h.matching()) == ref_perfect
    f = eulerian_factor(g)
    assert (f is not None) == ref_perfect
    if f is not None:
        assert verify_witness(g, f)
        assert_visits_are_degrees(g, f)


def test_diagonal_join_sizes():
    g = generate("mclosed_blowup", seed=9, n=30)
    h = slot_gadget(g)[0]
    full = build_factor_gadget(g)
    assert len(h.adj) == len(full.h.vertices)
    # R'-B' shrinks from (r-1)(b-1) edges to min(r, b) - 1 at each vertex
    cut = 0
    for x in g.vertices:
        nr, nb = g.degree(x, RED) - 1, g.degree(x, BLUE) - 1
        cut += nr * nb - min(nr, nb)
    assert cut > 0
    assert sum(map(len, h.adj)) == 2 * (len(full.h.edges) - cut)


# The b-matching route of eulerian_factor, stage by stage (see the
# factor module docstring).  Each named instance reaches one branch.

def short_flow_graph():
    # random_2ec seed 125: balanced nowhere near enough for a flow
    return build_graph(["v0", "v1", "v2"],
                       [("v0", "v2", BLUE), ("v0", "v1", RED),
                        ("v2", "v1", RED), ("v1", "v0", BLUE)])


def digon_triangle():
    # random_2ec seed 3: a red and a blue edge on each side
    return build_graph(["v0", "v1", "v2"],
                       [(u, v, c) for u, v in (("v0", "v1"), ("v1", "v2"),
                                               ("v2", "v0"))
                        for c in (RED, BLUE)])


def two_triangles_at_z():
    # z has red edges to a, b, c and blue ones to a2, b2, c2; a blue
    # triangle on a, b, c and a red one on a2, b2, c2.  Each triangle
    # would need a perfect matching of its own
    return build_graph(
        ["z", "a", "b", "c", "a2", "b2", "c2"],
        [("z", x, RED) for x in ("a", "b", "c")]
        + [("z", x, BLUE) for x in ("a2", "b2", "c2")]
        + [("a", "b", BLUE), ("b", "c", BLUE), ("c", "a", BLUE),
           ("a2", "b2", RED), ("b2", "c2", RED), ("c2", "a2", RED)])


def coverage(p, y):
    """How often the b-matching y covers each node of problem p."""
    cov = [0] * len(p.need)
    for k, t in enumerate(y):
        cov[p.ends[2 * k]] += t
        cov[p.ends[2 * k + 1]] += t
    return cov


class TestBMatchingRoute:
    def test_generated_instances(self):
        assert generate("random_2ec", seed=125, n=3, m=4) \
            == short_flow_graph()
        def sides(g):
            return sorted((min(e.u, e.v), max(e.u, e.v), e.colour)
                          for e in g.edges)

        assert sides(generate("random_2ec", seed=3, n=3, m=6)) \
            == sides(digon_triangle())

    def test_short_flow_is_no(self):
        g = short_flow_graph()
        assert _BMatching.of(g).half_integral() is None
        assert eulerian_factor(g) is None
        assert oracle_eulerian_factor(g) is None

    def test_odd_component_is_repaired(self):
        g = digon_triangle()
        p = _BMatching.of(g)
        y, short = p.rounded(p.half_integral())
        assert short
        # the gadget repair alone, from the rounded b-matching
        chosen = p.repaired(g, y[:])
        assert chosen is not None
        assert verify_witness(g, tour_factor_from_balanced_edges(g, chosen))
        # and the whole route, which pairs the short nodes first
        assert p.paired(y, short)
        assert coverage(p, y) == p.need
        f = eulerian_factor(g)
        assert f is not None and verify_witness(g, f)
        assert oracle_eulerian_factor(g) is not None

    def test_full_flow_then_failed_repair_is_no(self):
        g = two_triangles_at_z()
        p = _BMatching.of(g)
        twice = p.half_integral()
        assert twice is not None
        y, short = p.rounded(twice)
        assert short
        assert not p.paired(y[:], short)
        assert p.repaired(g, y) is None
        assert eulerian_factor(g) is None
        assert oracle_eulerian_factor(g) is None
        assert -1 in slot_gadget(g)[0].matching()


@settings(max_examples=300, deadline=None)
@given(coloured_multigraphs())
def test_b_matching_answers_as_slot_gadget(g):
    try:
        perfect = -1 not in slot_gadget(g)[0].matching()
    except ColourDeficient:
        perfect = False
    f = eulerian_factor(g)
    assert (f is not None) == perfect
    if f is not None:
        assert verify_witness(g, f)
        assert_visits_are_degrees(g, f)


@settings(max_examples=150, deadline=None)
@given(coloured_multigraphs())
def test_gadget_repair_alone_answers_as_slot_gadget(g):
    # with the alternating walks turned off, every short node goes to
    # the slot-gadget repair, which must still decide exactly
    try:
        perfect = -1 not in slot_gadget(g)[0].matching()
    except ColourDeficient:
        perfect = False
    with patch.object(_BMatching, "paired", lambda self, y, short: False):
        f = eulerian_factor(g)
    assert (f is not None) == perfect
    if f is not None:
        assert verify_witness(g, f)
        assert_visits_are_degrees(g, f)


@settings(max_examples=300, deadline=None)
@given(coloured_multigraphs())
def test_laid_out_b_matching_leaves_one_slot_per_short_node(g):
    # the repair's start: a matching of the gadget, with the chosen
    # edges of g matched and exactly one slot of each short node exposed
    try:
        p = _BMatching.of(g)
    except ColourDeficient:
        return
    twice = p.half_integral()
    if twice is None:
        return
    y, short = p.rounded(twice)
    h, external, match = p.laid_out(g, y)
    for s, t in enumerate(match):
        if t >= 0:
            assert match[t] == s and t in h.adj[s]
    for k in p.chosen(y):
        su, sv = external[k]
        assert match[su] == sv
    # node u's slots are start[u] .. start[u + 1] - 1
    start = [sum(p.need[:u]) for u in range(len(p.need) + 1)]
    exposed = [u for u in range(len(p.need))
               for s in range(start[u], start[u + 1]) if match[s] < 0]
    assert exposed == sorted(short)


def test_pairing_refuses_a_walk_beyond_capacity():
    # nodes s p a b c d e t, unit capacities, y = 1 on a-p, c-b, b-d and
    # e-a, s and t one short.  The only walk from s to t is
    # s+p-a+b-c+d-b+a-e+t, which takes a-b twice
    names = "spabcdet"
    edges = ["sp", "ap", "ab", "cb", "cd", "bd", "ea", "et"]
    y = [0, 1, 0, 1, 0, 1, 1, 0]
    p = _BMatching([0] * len(names), [
        ((names.index(u), names.index(w)), 1) for u, w in edges])
    p.need = coverage(p, y)
    p.need[names.index("s")] += 1
    p.need[names.index("t")] += 1
    before = y[:]
    assert not p.paired(y, [names.index("s"), names.index("t")])
    assert y == before


def fractional_by_brute_force(need, edges):
    """Whether some x(k) in {0, 1/2, ..., cap} per edge covers each node
    u exactly need[u] times: a perfect fractional b-matching exists iff
    a half-integral one does."""
    left = [2 * b for b in need]

    def fill(k):
        if k == len(edges):
            return not any(left)
        u, w, cap = edges[k]
        for t in range(min(2 * cap, left[u], left[w]) + 1):
            left[u] -= t
            left[w] -= t
            found = fill(k + 1)
            left[u] += t
            left[w] += t
            if found:
                return True
        return False

    return fill(0)


def test_b_matching_problem_answers_as_brute_force():
    # need: what a random integer b-matching covers, one node's need
    # then moved by one in half the problems
    rng = random.Random(5)
    feasible = 0
    for _ in range(600):
        n = rng.randint(2, 5)
        edges = [(*rng.sample(range(n), 2), rng.randint(0, 2))
                 for _ in range(rng.randint(0, 7))]
        need = [0] * n
        for u, w, cap in edges:
            t = rng.randint(0, cap)
            need[u] += t
            need[w] += t
        u = rng.randrange(2 * n)
        if u < n:
            need[u] = abs(need[u] + rng.choice((-1, 1)))
        p = _BMatching(need, [((u, w), c) for u, w, c in edges])
        twice = p.half_integral()
        assert (twice is not None) == fractional_by_brute_force(need, edges)
        if twice is not None:
            feasible += 1
            assert all(0 <= t <= 2 * c for t, (_, _, c) in zip(twice, edges))
            assert coverage(p, twice) == [2 * b for b in need]
    assert 200 < feasible < 400


@settings(max_examples=300, deadline=None)
@given(coloured_multigraphs())
def test_b_matching_stages(g):
    try:
        p = _BMatching.of(g)
    except ColourDeficient:
        return
    twice = p.half_integral()
    if twice is None:
        return
    # a perfect half-integral b-matching within the capacities
    assert all(0 <= t <= 2 * c for t, c in zip(twice, p.cap))
    assert coverage(p, twice) == [2 * b for b in p.need]
    # rounding: within the capacities, each node covered as before or
    # once less, and the short nodes in distinct components of the
    # half-integral edges that have an odd number of edges
    y, short = p.rounded(twice)
    assert all(0 <= t <= c for t, c in zip(y, p.cap))
    assert all(abs(2 * t - u) <= 1 for t, u in zip(y, twice))
    cov = coverage(p, y)
    assert [u for u, (c, b) in enumerate(zip(cov, p.need)) if c != b] \
        == sorted(short)
    assert all(b - c in (0, 1) for c, b in zip(cov, p.need))
    comp = list(range(len(p.need)))

    def find(u):
        while comp[u] != u:
            u = comp[u]
        return u

    odd_edges = [k for k, t in enumerate(twice) if t & 1]
    for k in odd_edges:
        comp[find(p.ends[2 * k])] = find(p.ends[2 * k + 1])
    size = {}
    for k in odd_edges:
        size[find(p.ends[2 * k])] = size.get(find(p.ends[2 * k]), 0) + 1
    roots = [find(u) for u in short]
    assert len(set(roots)) == len(roots)
    assert all(size[r] % 2 == 1 for r in roots)
    # pairing keeps a b-matching within the capacities, perfect if it
    # says so
    if short and p.paired(y, short):
        assert coverage(p, y) == p.need
    assert all(0 <= t <= c for t, c in zip(y, p.cap))


def balanced_edge_set(seed):
    """(g, positions): a random graph and a colour-balanced edge set of it
    covering V, as closed alternating walks within disjoint vertex
    groups, with parallel edges of one colour, among unchosen edges,
    all in shuffled order."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    verts = [f"v{i}" for i in range(n)]
    order = verts[:]
    rng.shuffle(order)
    groups = []
    while order:
        k = min(len(order), rng.randint(2, 5))
        if len(order) - k == 1:
            k += 1
        groups.append(order[:k])
        order = order[k:]
    chosen = []
    for grp in groups:
        uncovered = set(grp)
        while uncovered:
            walk = [rng.choice(sorted(uncovered))]
            for _ in range(2 * rng.randint(1, 3) - 1):
                walk.append(rng.choice([v for v in grp if v != walk[-1]]))
            if walk[-1] == walk[0]:
                continue
            c = rng.choice((RED, BLUE))
            for t, u in enumerate(walk):
                chosen.append((u, walk[(t + 1) % len(walk)],
                               c if t % 2 == 0 else c.other()))
            uncovered -= set(walk)
        # the closed walk u v u v through a walk edge (u, v, c) adds
        # edges parallel to it in both colours
        if rng.random() < 0.5:
            u, v, c = chosen[-1]
            chosen += [(u, v, c), (v, u, c.other()),
                       (u, v, c), (v, u, c.other())]
    noise = []
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(verts, 2)
        noise.append((u, v, rng.choice((RED, BLUE))))
    triples = [(t, True) for t in chosen] + [(t, False) for t in noise]
    rng.shuffle(triples)
    g = build_graph(verts, [t for t, _ in triples])
    return g, [k for k, (_, keep) in enumerate(triples) if keep]


def assert_same_parts(f, ref):
    """Same parts in the same order: vertex set, start and edge order."""
    assert len(f.parts) == len(ref.parts)
    for (vs, t), (rvs, rt) in zip(f.parts, ref.parts):
        assert vs == rvs
        assert (t.start, t.edge_ids, t.closed) \
            == (rt.start, rt.edge_ids, rt.closed)


def test_tour_factor_matches_id_route_on_balanced_sets():
    several = parallel = 0
    for seed in range(300):
        g, chosen = balanced_edge_set(seed)
        f = tour_factor_from_balanced_edges(g, chosen)
        assert verify_witness(g, f)
        assert_same_parts(f, ref_tour_factor(
            g, [g.edges[k].id for k in chosen]))
        several += len(f.parts) > 1
        keys = [(e.u, e.v, e.colour) for e in (g.edges[k] for k in chosen)]
        parallel += len(set(keys)) < len(keys)
    assert several >= 150 and parallel >= 150


def test_tour_factor_matches_id_route_on_generated_factors():
    parts = []
    for seed in range(40):
        for g in (generate("random_2ec", seed=seed, n=8 + seed % 12,
                           m=4 * (8 + seed % 12)),
                  generate("mclosed_blowup", seed=seed, n=10 + seed % 40)):
            f = eulerian_factor(g)
            if f is None:
                continue
            ids = {eid for _, t in f.parts for eid in t.edge_ids}
            assert_same_parts(f, ref_tour_factor(g, ids))
            parts.append(len(f.parts))
    assert len(parts) >= 40 and max(parts) >= 3


def test_euler_tour_matches_id_route():
    for seed in range(200):
        g, chosen = balanced_edge_set(seed)
        sub = build_graph(g.vertices, [(g.edges[k].u, g.edges[k].v,
                                        g.edges[k].colour) for k in chosen])
        ref = ref_tour_factor(sub, [e.id for e in sub.edges])
        t = alternating_euler_tour(sub)
        if len(ref.parts) == 1:
            assert (t.start, t.edge_ids) \
                == (ref.parts[0][1].start, ref.parts[0][1].edge_ids)
        else:
            assert t is None


def test_cycle_read_back_matches_id_route():
    found = 0
    for seed in range(60):
        for g in (generate("random_2ec", seed=seed, n=6 + seed % 25,
                           m=4 * (6 + seed % 25)),
                  generate("mclosed_blowup", seed=seed, n=6 + seed % 30)):
            cf = alternating_cycle_factor(g)
            if cf is None:
                continue
            # the split graph and matching alternating_cycle_factor reads
            split = IndexedGraph(2 * len(g.vertices), (
                (2 * g.vertex_index(e.u) + (e.colour is BLUE),
                 2 * g.vertex_index(e.v) + (e.colour is BLUE), e.id)
                for e in g.edges))
            ref = ref_cycle_read_back(g, split, split.matching())
            assert [(c.start, c.edge_ids) for c in cf.cycles] \
                == [(c.start, c.edge_ids) for c in ref.cycles]
            found += len(cf.cycles) > 1
    assert found >= 10


@pytest.mark.parametrize("build, g, repair", [
    # the flow route, and the slot-gadget repair with the walks off
    (eulerian_factor, generate("mclosed_blowup", seed=278, n=8), False),
    (eulerian_factor, digon_triangle(), True),
    (alternating_cycle_factor, generate("mclosed_blowup", seed=278, n=8),
     False),
    (alternating_euler_tour, digon_triangle(), False),
], ids=["eulerian_flow", "eulerian_repair", "cycle_factor", "euler_tour"])
def test_a_failed_check_of_the_built_witness_raises(monkeypatch, build, g,
                                                    repair):
    # each builder checks what it returns: a failed check is an internal
    # error, neither a witness nor None
    if repair:
        monkeypatch.setattr(_BMatching, "paired",
                            lambda self, y, short: False)
        p = _BMatching.of(g)
        assert p.rounded(p.half_integral())[1]
    assert build(g) is not None
    monkeypatch.setattr(ecgraph.core, "verify_witness",
                        lambda g, w: VerifyResult(False, "forced"))
    with pytest.raises(GraphError, match="fails verification: forced"):
        build(g)
