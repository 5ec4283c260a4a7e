import functools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ecgraph import (
    BLUE,
    RED,
    AlternatingCycle,
    AlternatingTrail,
    Dominates,
    GraphError,
    Merged,
    NoEdgeBetween,
    alternating_hamiltonian_cycle,
    build_graph,
    is_colour_connected,
    MergeInternalError,
    merge_cycles,
    oracle_ham_alternating,
    similar,
    verify_witness,
)
from ecgraph.core import _check_trail
from ecgraph.factor import alternating_cycle_factor, eulerian_factor
from ecgraph.merge import (
    _Cyc,
    _dominates,
    _exchange,
    merge_factor,
)
from ecgraph.reductions import fixture, generate
from reference import exchange, similar_cross_pair


def two_digons(cross):
    """Two digons {a1,a2}, {b1,b2} plus the given cross edges."""
    triples = [("a1", "a2", RED), ("a1", "a2", BLUE),
               ("b1", "b2", RED), ("b1", "b2", BLUE)] + cross
    return build_graph(["a1", "a2", "b1", "b2"], triples)


def digon_cycles(g):
    # parts, not hamiltonian cycles: each gets a CycleFactor's check
    c1 = AlternatingCycle("a1", ("e0", "e1"))
    c2 = AlternatingCycle("b1", ("e2", "e3"))
    assert _check_trail(g, c1, cycle=True)[0]
    assert _check_trail(g, c2, cycle=True)[0]
    return c1, c2


def chord_merge(g, C1, C2):
    """The chord exchange, without rotation, of C1 and C2 by ids, after
    checking that some cross pair is similar within the pair."""
    assert similar_cross_pair(g, C1, C2) is not None
    merged = exchange(g, _Cyc.of(g, C1), _Cyc.of(g, C2), False)
    assert merged is not None
    return merged.as_cycle(g)


class TestMergeSimilar:
    """Pairs with a cross pair similar within their union: the pivots'
    joins to each other's predecessors are the two chords of an
    exchange, so the chord exchange merges the pair."""

    def test_splice_at_similar_pair(self):
        # a2 and b2 are copies of one blown-up vertex
        g = build_graph(
            ["a1", "a2", "b1", "b2"],
            [("a1", "a2", RED), ("a1", "a2", BLUE),
             ("b1", "b2", RED), ("b1", "b2", BLUE),
             ("a1", "b2", RED), ("a1", "b2", BLUE),
             ("b1", "a2", RED), ("b1", "a2", BLUE)])
        c1, c2 = digon_cycles(g)
        merged = chord_merge(g, c1, c2)
        assert isinstance(merged, AlternatingCycle)
        assert verify_witness(g, merged)
        assert merged.vertex_set(g) == {"a1", "a2", "b1", "b2"}

    @pytest.mark.parametrize("t1_edges, j", [(("e0", "e1"), 3),
                                             (("e1", "e0"), 0)])
    def test_splice_of_trails_at_a_revisited_pivot(self, t1_edges, j):
        # T1 is the digon x-w, T2 a bowtie visiting y at positions 0 and
        # 3; the cross edges make x and y similar
        g = build_graph(
            ["x", "w", "y", "p", "q", "r", "s"],
            [("x", "w", RED), ("x", "w", BLUE),
             ("y", "p", RED), ("p", "q", BLUE), ("q", "y", RED),
             ("y", "r", BLUE), ("r", "s", RED), ("s", "y", BLUE),
             ("y", "w", RED), ("y", "w", BLUE),
             ("x", "p", RED), ("x", "q", RED),
             ("x", "r", BLUE), ("x", "s", BLUE)])
        t1 = AlternatingTrail("x", t1_edges, closed=True)
        t2 = AlternatingTrail("y", tuple(f"e{k}" for k in range(2, 8)),
                              closed=True)
        assert verify_witness(g, t1) and verify_witness(g, t2)
        assert t2.vertex_sequence(g)[j] == "y"
        assert similar_cross_pair(g, t1, t2) == ("x", "y")
        merged = chord_merge(g, t1, t2)
        assert not isinstance(merged, AlternatingCycle)
        assert verify_witness(g, merged)
        assert merged.vertex_set(g) == set(g.vertices)
        assert len(merged) == len(t1) + len(t2)

    def test_pivots_similar_within_the_pair_only(self):
        # a1 and b1 have equal joins inside the two digons, but z sees
        # a1 only: they are similar within the pair, not in g
        g = build_graph(
            ["a1", "a2", "b1", "b2", "z"],
            [("a1", "a2", RED), ("a1", "a2", BLUE),
             ("b1", "b2", RED), ("b1", "b2", BLUE),
             ("a1", "b2", RED), ("a1", "b2", BLUE),
             ("b1", "a2", RED), ("b1", "a2", BLUE),
             ("z", "a1", RED)])
        assert not similar(g, "a1", "b1")
        c1, c2 = digon_cycles(g)
        assert similar_cross_pair(g, c1, c2) == ("a1", "b1")
        merged = chord_merge(g, c1, c2)
        # a cycle through the pair's four vertices, not z
        assert isinstance(merged, AlternatingCycle)
        assert _check_trail(g, merged, cycle=True)[0]
        assert merged.vertex_set(g) == {"a1", "a2", "b1", "b2"}
        out = merge_cycles(g, c1, c2)
        assert isinstance(out, Merged)
        assert out.cycle.vertex_set(g) == {"a1", "a2", "b1", "b2"}


class TestMergeParallelChords:
    """`_exchange` without rotation: the chord merge."""

    def test_two_red_chords(self):
        g = two_digons([("a1", "b1", RED), ("a2", "b2", RED)])
        a, b = map(functools.partial(_Cyc.of, g), digon_cycles(g))
        merged = exchange(g, a, b, False)
        assert merged.cycle
        assert verify_witness(g, merged.as_cycle(g))
        assert merged.as_cycle(g).vertex_set(g) == {"a1", "a2", "b1", "b2"}

    def test_missing_chord_rejected(self):
        # joins that claim every chord: the move asks for a2-b2, which
        # g lacks
        g = two_digons([("a1", "b1", RED)])
        a, b = map(functools.partial(_Cyc.of, g), digon_cycles(g))
        every = Counter({(w, c): 1 for w in range(4) for c in (0, 1)})
        with pytest.raises(MergeInternalError,
                           match="needs a red edge 'a2'-'b2'"):
            _exchange(g, a, b, lambda v: every, False)


class TestMergeCycles:
    def test_no_edge_between(self):
        g = two_digons([])
        out = merge_cycles(g, *digon_cycles(g))
        assert isinstance(out, NoEdgeBetween)

    def test_domination_detected(self):
        # a1 sends red everywhere, a2 blue: the rigid structure blocks
        # merging and destroys colour-connectivity of the union
        g = two_digons([("a1", "b1", RED), ("a1", "b2", RED),
                        ("a2", "b1", BLUE), ("a2", "b2", BLUE)])
        out = merge_cycles(g, *digon_cycles(g))
        assert isinstance(out, Dominates)
        cert = out.certificate
        assert cert.labels == {"a1": RED, "a2": BLUE}
        assert not is_colour_connected(g).connected

    def test_merge_when_union_connected(self):
        g = two_digons([("a1", "b1", RED), ("a1", "b1", BLUE),
                        ("a2", "b2", RED), ("a2", "b2", BLUE)])
        out = merge_cycles(g, *digon_cycles(g))
        assert isinstance(out, Merged)
        assert out.cycle.vertex_set(g) == set(g.vertices)

    def test_overlapping_cycles_rejected(self):
        g = two_digons([])
        c1, _ = digon_cycles(g)
        with pytest.raises(ValueError):
            merge_cycles(g, c1, c1)


class TestMergeFactor:
    def test_dominated_cycles_do_not_merge(self):
        # the union of two cycles of a cycle factor that only dominate
        # each other has no spanning cycle, and cycles have no
        # tournament to fall back on
        g = two_digons([("a1", "b1", RED), ("a1", "b2", RED),
                        ("a2", "b1", BLUE), ("a2", "b2", BLUE)])
        with pytest.raises(MergeInternalError, match="no two cycles"):
            merge_factor(g, digon_cycles(g))


class TestCheckDomination:
    def test_mixed_colours_fail(self):
        g = two_digons([("a1", "b1", RED), ("a1", "b2", BLUE),
                        ("a2", "b1", BLUE), ("a2", "b2", BLUE)])
        c1, c2 = digon_cycles(g)
        assert _dominates(g, _Cyc.of(g, c1), _Cyc.of(g, c2)) is None

    def test_missing_adjacency_fails(self):
        g = two_digons([("a1", "b1", RED), ("a2", "b1", BLUE)])
        c1, c2 = digon_cycles(g)
        assert _dominates(g, _Cyc.of(g, c1), _Cyc.of(g, c2)) is None

    def test_labels_by_vertex_index(self):
        g = two_digons([("a1", "b1", RED), ("a1", "b2", RED),
                        ("a2", "b1", BLUE), ("a2", "b2", BLUE)])
        a, b = map(functools.partial(_Cyc.of, g), digon_cycles(g))
        assert _dominates(g, a, b) == {0: 0, 1: 1}
        assert _dominates(g, b, a) is None


class TestInputFaults:
    """A part that is not a closed alternating trail (cycle) of g is
    the caller's fault: GraphError, with verify_witness's reason, from
    both public merges."""

    BOWTIE = build_graph(
        ["y", "p", "q", "r", "s", "a1", "a2"],
        [("y", "p", RED), ("p", "q", BLUE), ("q", "y", RED),
         ("y", "r", BLUE), ("r", "s", RED), ("s", "y", BLUE),
         ("a1", "a2", RED), ("a1", "a2", BLUE), ("a1", "y", RED)])
    GOOD = AlternatingCycle("a1", ("e6", "e7"))

    @pytest.mark.parametrize("bad", [
        AlternatingCycle("y", ("e0", "zz")),
        AlternatingCycle("zz", ("e0", "e1")),
        AlternatingTrail("y", ("e0", "e2"), closed=True),
        AlternatingTrail("y", ("e0", "e0"), closed=True),
        AlternatingTrail("y", ("e0", "e1"), closed=True),
        AlternatingTrail("y", ("e0", "e1", "e2", "e8"), closed=True),
        AlternatingTrail("y", ("e0", "e1", "e2", "e3", "e3", "e5"),
                         closed=True),
        AlternatingCycle("y", ("e0", "e1", "e2", "e3", "e4", "e5")),
    ])
    def test_bad_part_raises_graph_error(self, bad):
        g = self.BOWTIE
        reason = verify_witness(g, bad).reason
        assert reason
        for call in (lambda: merge_cycles(g, bad, self.GOOD),
                     lambda: merge_cycles(g, self.GOOD, bad),
                     lambda: merge_factor(g, [self.GOOD, bad])):
            with pytest.raises(GraphError) as exc:
                call()
            assert reason in str(exc.value)

    @pytest.mark.parametrize("bad, reason", [
        (AlternatingTrail("y", ("e0", "e1"), closed=True), "not closed"),
        (AlternatingCycle("zz", ("e0", "e1")), "unknown start vertex 'zz'"),
        (AlternatingCycle("y", ("e0", "zz")), "unknown edge id 'zz'"),
        (AlternatingTrail("y", ("e0", "e0"), closed=True), "edge repeated"),
        (AlternatingTrail("y", ("e0", "e2"), closed=True),
         "edge 'e2' does not continue the walk"),
        (AlternatingTrail("y", ("e0", "e1", "e2", "e8"), closed=True),
         "colours do not alternate at edge 'e8'"),
        (AlternatingTrail("y", ("e0", "e1", "e2"), closed=True),
         "closed trail length must be even and >= 2"),
        (AlternatingCycle("y", ("e0", "e1", "e2", "e3", "e4", "e5")),
         "cycle revisits a vertex"),
    ], ids=["not-closed", "unknown-start", "unknown-id", "repeated",
            "not-continuing", "not-alternating", "odd", "revisit"])
    def test_part_reason_is_verify_witness_reason(self, bad, reason):
        g = self.BOWTIE
        assert verify_witness(g, bad).reason == reason
        with pytest.raises(GraphError) as exc:
            _Cyc.of(g, bad)
        assert str(exc.value) == (f"part from {bad.start!r} fails "
                                  f"verification: {reason}")

    @pytest.mark.parametrize("kind", [AlternatingTrail, AlternatingCycle])
    def test_open_part_raises_graph_error(self, kind):
        # each part's edges close, but the part is marked open
        g = two_digons([("a1", "b1", RED), ("a1", "b1", BLUE)])
        c1, c2 = digon_cycles(g)
        bad = kind("a1", ("e0", "e1"), closed=False)
        for call in (lambda: merge_cycles(g, bad, c2),
                     lambda: merge_cycles(g, c2, bad),
                     lambda: merge_factor(g, [c2, bad])):
            with pytest.raises(GraphError, match="part from 'a1' fails "
                               "verification: part must be closed"):
                call()

    def test_overlapping_or_missing_parts(self):
        g = two_digons([("a1", "b1", RED)])
        c1, c2 = digon_cycles(g)
        for parts in ([c1, c1], [c1], [c1, c2, c2]):
            with pytest.raises(GraphError, match="overlap or do not cover"):
                merge_factor(g, parts)
        with pytest.raises(GraphError, match="not vertex-disjoint"):
            merge_cycles(g, c1, c1)


class TestHamiltonian:
    def test_rejects_out_of_class(self):
        with pytest.raises(ValueError):
            alternating_hamiltonian_cycle(fixture("halfm"))

    def test_needall_h_positive(self):
        g = fixture("needall_h")
        res = alternating_hamiltonian_cycle(g)
        assert res.witness is not None
        assert len(res.witness.edge_ids) == 8
        assert verify_witness(g, res.witness)

    def test_reason_no_cycle_factor(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "c", BLUE), ("a", "c", RED)])
        assert alternating_cycle_factor(g) is None
        res = alternating_hamiltonian_cycle(g)
        assert res.reason == "no_cycle_factor" and not res

    def test_reason_not_colour_connected(self):
        # two digon components: cycle factor yes, connectivity no
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("a", "b", BLUE),
                         ("c", "d", RED), ("c", "d", BLUE)])
        res = alternating_hamiltonian_cycle(g)
        assert res.reason == "not_colour_connected"
        assert res.counterexample is not None


_WIDE = None


def _wide_budget():
    global _WIDE
    if _WIDE is None:
        from ecgraph import OracleBudget
        _WIDE = OracleBudget(max_vertices=9, max_edges=40, seconds=60)
    return _WIDE


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_hamiltonian_agrees_with_oracle(seed):
    rng = random.Random(seed)
    g = generate("mclosed_blowup", seed=seed, n=rng.randint(2, 8))
    res = alternating_hamiltonian_cycle(g)
    slow = oracle_ham_alternating(g, _wide_budget())
    assert bool(res) == (slow is not None)
    if res:
        assert verify_witness(g, res.witness)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 100_000))
def test_merge_cycles_dichotomy(seed):
    """Merged exactly when the union of two factor cycles still has a
    spanning alternating cycle; Dominates always certifies a real block."""
    rng = random.Random(seed)
    g = generate("mclosed_blowup", seed=seed, n=rng.randint(4, 8))
    cf = alternating_cycle_factor(g)
    if cf is None or len(cf.cycles) < 2:
        return
    c1, c2 = cf.cycles[0], cf.cycles[1]
    out = merge_cycles(g, c1, c2)
    union = g.induced(c1.vertex_set(g) | c2.vertex_set(g))
    spanning = oracle_ham_alternating(union, _wide_budget())
    if isinstance(out, Merged):
        assert spanning is not None
        assert verify_witness(g, out.cycle)
    elif isinstance(out, Dominates):
        assert spanning is None
    else:
        assert not any(
            e.u in c1.vertex_set(g) and e.v in c2.vertex_set(g)
            or e.v in c1.vertex_set(g) and e.u in c2.vertex_set(g)
            for e in g.edges)


def test_reversed_walk_matches_walk_rebuilt_backwards():
    # the walk read backwards from verts[0], as a fresh walk through g
    # would give it: position t becomes (n - t) % n
    walks = 0
    for seed in range(30):
        g = generate("random_2ec", seed=seed, n=8 + seed % 12,
                     m=4 * (8 + seed % 12))
        for f, kind in ((eulerian_factor(g), AlternatingTrail),
                        (alternating_cycle_factor(g), AlternatingCycle)):
            if f is None:
                continue
            parts = f.cycles if kind is AlternatingCycle \
                else [t for _, t in f.parts]
            for t in parts:
                c = _Cyc.of(g, t)
                r = c.reversed()
                back = kind(g.vertices[c.verts[0]],
                            tuple(g.edges[k].id for k in reversed(c.edges)),
                            closed=True)
                ref = _Cyc.of(g, back)
                assert (r.verts, r.edges, r.cols, r.n, r.cycle, r.vset) \
                    == (ref.verts, ref.edges, ref.cols, ref.n, ref.cycle,
                        ref.vset)
                # the walk reversed is left as it was
                assert [g.edges[k].id for k in c.edges] == list(t.edge_ids)
                assert r.as_cycle(g) == back
                walks += 1
    assert walks >= 30
