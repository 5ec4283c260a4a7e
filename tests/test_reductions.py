import random

import pytest
from hypothesis import given, settings, strategies as st

from ecgraph import (
    BLUE,
    RED,
    GraphError,
    OracleBudget,
    alternating_cycle_factor,
    build_graph,
    is_colour_connected,
    oracle_eulerian_factor,
    oracle_ham_alternating,
    oracle_supereulerian,
)
from ecgraph.connect import complete_multipartite_classes
from ecgraph.reductions import (
    fixture,
    fixture_names,
    generate,
    reduce_ham_to_supereulerian,
)


class TestFixtures:
    def test_edge_counts(self):
        for name, m in (("efig", 10), ("halfm", 11), ("needall_g", 7),
                        ("needall_h", 14), ("cmg_example", 20)):
            assert len(fixture(name).edges) == m

    def test_names_listed(self):
        assert set(fixture_names()) == {
            "efig", "halfm", "needall_g", "needall_h", "cmg_example"}

    def test_unknown_name(self):
        with pytest.raises(GraphError, match="unknown fixture"):
            fixture("nope")

    def test_cmg_example_is_family_member(self):
        assert fixture("cmg_example") == generate("cmg_family", seed=0, r=2)

    def test_cmg_example_classes(self):
        classes = complete_multipartite_classes(fixture("cmg_example"))
        assert classes is not None and len(classes) == 3
        assert sorted(map(len, classes)) == [2, 2, 4]


class TestGenerators:
    def test_deterministic_in_seed(self):
        a = generate("random_2ec", seed=42, n=6, m=10)
        b = generate("random_2ec", seed=42, n=6, m=10)
        assert a == b
        assert a != generate("random_2ec", seed=43, n=6, m=10)

    def test_negative_edge_count(self):
        with pytest.raises(ValueError, match="need m >= 0"):
            generate("random_2ec", seed=0, n=3, m=-1)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            generate("scale_free", seed=0, n=4)

    def test_complete_bipartite_edge_count(self):
        g = generate("complete_bipartite", seed=7, n1=3, n2=3)
        assert len(g.edges) == 9
        classes = complete_multipartite_classes(g)
        assert classes is not None and sorted(map(len, classes)) == [3, 3]

    def test_complete_multipartite_edge_count(self):
        g = generate("complete_multipartite", seed=0, sizes=[2, 2, 2])
        assert len(g.edges) == 12

    @pytest.mark.parametrize("r", [2, 3])
    def test_cmg_family_properties(self, r):
        g = generate("cmg_family", seed=0, r=r)
        assert is_colour_connected(g).connected
        assert alternating_cycle_factor(g) is not None
        budget = OracleBudget(max_vertices=10, max_edges=40, seconds=300)
        assert oracle_supereulerian(g, budget) is None


class TestReduction:
    def test_provenance_covers_output(self):
        g = fixture("halfm")
        for variant, roles in (("basic", {"plain", "r", "b"}),
                               ("gadget", {"r", "b", "g1", "g2", "g3", "g4"})):
            rm = reduce_ham_to_supereulerian(g, variant)
            assert set(rm.provenance) == set(rm.graph.vertices)
            assert {role for _, role in rm.provenance.values()} == roles
            assert {src for src, _ in rm.provenance.values()} \
                == set(g.vertices)

    def test_basic_positive_instance(self):
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("b", "c", BLUE),
                         ("c", "d", RED), ("d", "a", BLUE)])
        rm = reduce_ham_to_supereulerian(g, "basic")
        budget = OracleBudget(max_vertices=16, max_edges=40, seconds=120)
        assert oracle_supereulerian(rm.graph, budget) is not None

    def test_basic_negative_instance(self):
        # no hamiltonian alternating cycle in the all-red triangle
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "c", RED), ("a", "c", RED)])
        rm = reduce_ham_to_supereulerian(g, "basic")
        budget = OracleBudget(max_vertices=16, max_edges=40, seconds=120)
        assert oracle_supereulerian(rm.graph, budget) is None

    def test_gadget_always_has_eulerian_factor(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "c", RED), ("a", "c", RED)])
        rm = reduce_ham_to_supereulerian(g, "gadget")
        budget = OracleBudget(max_vertices=30, max_edges=60, seconds=120)
        assert oracle_eulerian_factor(rm.graph, budget) is not None

    def test_gadget_vertex_naming(self):
        g = build_graph(["a", "b"], [("a", "b", RED)])
        rm = reduce_ham_to_supereulerian(g, "gadget")
        assert len(rm.graph.vertices) == 12
        assert "a.r" in rm.graph.vertices and "a.g4" in rm.graph.vertices
        # external edges keep their original ids
        assert rm.graph.edge("e0") is not None

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            reduce_ham_to_supereulerian(fixture("halfm"), "fancy")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from(["basic", "gadget"]))
def test_reduction_equivalence_random(seed, variant):
    rng = random.Random(seed)
    g = generate("random_2ec", seed=seed, n=rng.randint(2, 4),
                 m=rng.randint(1, 6))
    rm = reduce_ham_to_supereulerian(g, variant)
    budget = OracleBudget(max_vertices=40, max_edges=80, seconds=120)
    lhs = oracle_ham_alternating(g, budget) is not None
    rhs = oracle_supereulerian(rm.graph, budget) is not None
    assert lhs == rhs
