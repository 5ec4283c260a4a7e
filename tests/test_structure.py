import pytest
from hypothesis import given, settings, strategies as st

from ecgraph import (
    BLUE,
    RED,
    GraphError,
    blow_up,
    build_graph,
    is_extension_of_m_closed,
    is_m_closed,
    m_closure,
    similar,
    similarity_partition,
)
from ecgraph.reductions import generate


def path3(c1, c2):
    return build_graph(["x", "y", "z"], [("x", "y", c1), ("y", "z", c2)])


class TestMClosed:
    def test_monochromatic_path_violates(self):
        ok, triple = is_m_closed(path3(RED, RED))
        assert not ok
        assert triple == ("x", "y", "z")

    def test_bichromatic_path_fine(self):
        assert is_m_closed(path3(RED, BLUE)) == (True, None)

    def test_complete_graph_always_closed(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "c", RED), ("a", "c", BLUE)])
        assert is_m_closed(g)[0]

    def test_closure_is_closed_and_supergraph(self):
        g = path3(RED, RED)
        h = m_closure(g)
        assert is_m_closed(h)[0]
        assert set(e.id for e in g.edges) <= set(e.id for e in h.edges)
        assert h.vertices == g.vertices

    def test_closure_policies(self):
        g = path3(BLUE, BLUE)
        red = m_closure(g, "always_red")
        blue = m_closure(g, "always_blue")
        assert red.edge("mc0").colour is RED
        assert blue.edge("mc0").colour is BLUE
        assert m_closure(g, "seeded_random", seed=3) \
            == m_closure(g, "seeded_random", seed=3)

    def test_closure_bad_policy(self):
        with pytest.raises(ValueError):
            m_closure(path3(RED, RED), "sometimes")

    def test_closure_noop_when_closed(self):
        g = path3(RED, BLUE)
        assert m_closure(g) == g


class TestSimilarity:
    def test_copies_are_similar(self):
        g = build_graph(["u", "a", "b"],
                        [("u", "a", RED), ("u", "b", RED)])
        assert similar(g, "a", "b")
        assert not similar(g, "u", "a")

    def test_adjacent_never_similar(self):
        g = build_graph(["a", "b"], [("a", "b", RED)])
        assert not similar(g, "a", "b")

    def test_multiplicity_matters(self):
        g = build_graph(["u", "a", "b"],
                        [("u", "a", RED), ("u", "b", RED), ("u", "b", RED)])
        assert not similar(g, "a", "b")

    def test_partition_blocks(self):
        base = build_graph(["x", "y"], [("x", "y", RED), ("x", "y", BLUE)])
        g = blow_up(base, {"x": 2, "y": 3})
        part = similarity_partition(g)
        assert sorted(len(b) for b in part.blocks) == [2, 3]
        assert len(part.quotient.vertices) == 2


class TestBlowUp:
    def test_copies_and_edges(self):
        g = build_graph(["a", "b"], [("a", "b", RED)])
        h = blow_up(g, {"a": 2, "b": 3})
        assert len(h.vertices) == 5
        assert len(h.edges) == 6
        assert not h.adjacent("a.0", "a.1")

    def test_bad_multiplicity(self):
        g = build_graph(["a", "b"], [("a", "b", RED)])
        with pytest.raises(GraphError):
            blow_up(g, {"a": 0, "b": 1})

    def test_identity_blow_up(self):
        g = build_graph(["a", "b"], [("a", "b", RED)])
        h = blow_up(g, {"a": 1, "b": 1})
        assert len(h.vertices) == 2 and len(h.edges) == 1


class TestExtensionRecognition:
    def test_blow_up_of_closed_base_accepted(self):
        base = m_closure(build_graph(
            ["x", "y", "z"],
            [("x", "y", RED), ("y", "z", RED), ("x", "z", BLUE)]))
        g = blow_up(base, {v: 2 for v in base.vertices})
        out = is_extension_of_m_closed(g)
        assert out is not None
        quotient, mult = out
        assert set(mult.values()) == {2}
        assert is_m_closed(quotient)[0]

    def test_open_base_rejected(self):
        # w pins x apart from z, so the quotient keeps the red 2-path
        g = build_graph(["w", "x", "y", "z"],
                        [("w", "x", BLUE), ("x", "y", RED), ("y", "z", RED)])
        assert is_extension_of_m_closed(g) is None

    def test_mono_path_with_similar_ends_accepted(self):
        # x and z are similar, so the red 2-path quotients to one edge
        g = build_graph(["x", "y", "z"], [("x", "y", RED), ("y", "z", RED)])
        assert is_extension_of_m_closed(g) is not None

    def test_quotient_round_trip(self):
        # blowing the quotient back up by the multiplicities recovers an
        # isomorphic graph: same vertex count and coloured degree multiset
        g = generate("mclosed_blowup", seed=5, n=7)
        out = is_extension_of_m_closed(g)
        assert out is not None
        quotient, mult = out
        h = blow_up(quotient, mult)
        assert len(h.vertices) == len(g.vertices)
        degs = lambda gr: sorted((gr.degree(v, RED), gr.degree(v, BLUE))
                                 for v in gr.vertices)
        assert degs(h) == degs(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_generator_output_is_extension(seed, n):
    g = generate("mclosed_blowup", seed=seed, n=n)
    assert len(g.vertices) == n
    assert is_extension_of_m_closed(g) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_similarity_is_transitive_on_samples(seed):
    g = generate("mclosed_blowup", seed=seed, n=6)
    vs = g.vertices
    for u in vs:
        for v in vs:
            for w in vs:
                if len({u, v, w}) == 3 and similar(g, u, v) \
                        and similar(g, v, w):
                    assert similar(g, u, w)


def pairwise_blocks(g):
    """Similarity classes by the definition, pair by pair: non-adjacent,
    with equal red and blue edge counts to every third vertex."""
    def joins(u, w):
        return (len(g.edges_between(u, w, RED)),
                len(g.edges_between(u, w, BLUE)))

    def sim(u, v):
        return u != v and not g.adjacent(u, v) and all(
            joins(u, w) == joins(v, w)
            for w in g.vertices if w not in (u, v))

    blocks, placed = [], set()
    for v in g.vertices:
        if v not in placed:
            block = [v] + [u for u in g.vertices
                           if u not in placed and sim(v, u)]
            placed.update(block)
            blocks.append(tuple(block))
    return tuple(blocks)


def test_partition_matches_pairwise_definition():
    merged = 0
    for seed in range(100):
        n = 6 + seed % 5
        for g in (generate("mclosed_blowup", seed=seed, n=n),
                  generate("random_2ec", seed=seed, n=n, m=n),
                  generate("complete_bipartite", seed=seed, n1=2 + seed % 3,
                           n2=n - 2 - seed % 3)):
            part = similarity_partition(g)
            assert part.blocks == pairwise_blocks(g), seed
            assert part.quotient.vertices == tuple(b[0] for b in part.blocks)
            merged += len(part.blocks) < n
    assert merged > 100
