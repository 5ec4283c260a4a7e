import pytest
from click.testing import CliRunner

import ecgraph.oracle as oracle_module
from ecgraph import (
    BLUE,
    RED,
    BudgetExceeded,
    GraphError,
    OracleBudget,
    build_graph,
    oracle_alternating_path,
    oracle_alternating_trail,
    oracle_colour_connected,
    oracle_cycle_factor,
    oracle_eulerian_factor,
    oracle_ham_alternating,
    oracle_supereulerian,
    oracle_trail_colour_connected,
    serialize_graph,
    verify_witness,
    witness_to_dict,
)
from ecgraph.cli import main
from ecgraph.reductions import fixture, generate

from reference import ref_oracle_ham_alternating, ref_oracle_supereulerian


def digon():
    return build_graph(["a", "b"], [("a", "b", RED), ("a", "b", BLUE)])


class TestFixtureClaims:
    def test_efig_spanning_trail(self):
        g = fixture("efig")
        t = oracle_supereulerian(g)
        assert t is not None and len(t.edge_ids) == 8
        assert verify_witness(g, t)
        assert t.vertex_set(g) == set(g.vertices)

    def test_efig_no_hamiltonian_cycle(self):
        assert oracle_ham_alternating(fixture("efig")) is None

    def test_halfm_negative_both_ways(self):
        g = fixture("halfm")
        assert oracle_supereulerian(g) is None
        assert oracle_ham_alternating(g) is None

    def test_halfm_has_cycle_factor(self):
        g = fixture("halfm")
        cf = oracle_cycle_factor(g)
        assert cf is not None and verify_witness(g, cf)

    def test_cmg_example_not_supereulerian(self):
        g = fixture("cmg_example")
        assert oracle_supereulerian(
            g, OracleBudget(max_vertices=8, max_edges=40, seconds=120)) is None

    def test_needall_h_hamiltonian(self):
        g = fixture("needall_h")
        c = oracle_ham_alternating(
            g, OracleBudget(max_vertices=8, max_edges=40, seconds=120))
        assert c is not None and len(c.edge_ids) == 8
        assert verify_witness(g, c)


class TestSmallCases:
    def test_digon_everything(self):
        g = digon()
        assert oracle_supereulerian(g) is not None
        assert oracle_ham_alternating(g) is not None
        assert oracle_eulerian_factor(g) is not None
        assert oracle_colour_connected(g)
        assert oracle_trail_colour_connected(g)

    def test_all_red_triangle(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "c", RED), ("a", "c", RED)])
        assert oracle_eulerian_factor(g) is None
        assert oracle_cycle_factor(g) is None
        assert not oracle_colour_connected(g)

    def test_forbid_digons(self):
        assert oracle_cycle_factor(digon(), forbid_digons=True) is None
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("b", "c", BLUE),
                         ("c", "d", RED), ("d", "a", BLUE)])
        assert oracle_cycle_factor(g, forbid_digons=True) is not None

    def test_path_and_trail_queries(self):
        g = build_graph(["a", "b", "c"], [("a", "b", RED), ("b", "c", BLUE)])
        assert oracle_alternating_path(g, "a", "c", RED) is not None
        assert oracle_alternating_path(g, "a", "c", BLUE) is None
        assert oracle_alternating_trail(g, "a", "c", RED) is not None


class TestBudget:
    def test_vertex_cap(self):
        g = build_graph([f"v{i}" for i in range(4)],
                        [("v0", "v1", RED), ("v1", "v2", BLUE),
                         ("v2", "v3", RED)])
        with pytest.raises(BudgetExceeded):
            oracle_supereulerian(g, OracleBudget(max_vertices=3))

    def test_edge_cap(self):
        g = fixture("efig")
        with pytest.raises(BudgetExceeded):
            oracle_ham_alternating(g, OracleBudget(max_edges=5))

    def test_time_cap(self):
        # large enough that the trail search cannot finish instantly
        g = generate("random_2ec", seed=5, n=12, m=36)
        with pytest.raises(BudgetExceeded):
            oracle_supereulerian(
                g, OracleBudget(max_vertices=20, max_edges=500, seconds=0.0))


class TestOneClock:
    # no single (u, v, colour) query of this graph reaches 4096 search
    # nodes, but the trail sweep as a whole does
    SWEEP = generate("random_2ec", seed=46, n=10, m=30)

    def test_connectivity_sweep_is_bounded_as_a_whole(self):
        with pytest.raises(BudgetExceeded, match="time limit exceeded"):
            oracle_trail_colour_connected(self.SWEEP, OracleBudget(
                max_vertices=10, max_edges=100, seconds=0.0))

    def test_connectivity_sweep_budget_exit_code(self):
        res = CliRunner().invoke(
            main, ["oracle", "trail-colour-connected", "-"],
            input=serialize_graph(self.SWEEP),
            env={"ECGRAPH_BUDGET_SECS": "0"})
        assert res.exit_code == 5
        assert "time limit exceeded" in res.output

    @pytest.mark.parametrize("call", [
        oracle_supereulerian,
        oracle_ham_alternating,
        oracle_eulerian_factor,
        oracle_cycle_factor,
        lambda g: oracle_alternating_path(g, "v1", "v4", RED),
        lambda g: oracle_alternating_trail(g, "v1", "v4", BLUE),
        oracle_colour_connected,
        oracle_trail_colour_connected,
    ], ids=["supereulerian", "hamiltonian", "eulerian-factor",
            "cycle-factor", "path", "trail", "colour-connected",
            "trail-colour-connected"])
    def test_each_call_arms_one_clock(self, monkeypatch, call):
        armed = []
        real = OracleBudget.clock
        monkeypatch.setattr(OracleBudget, "clock",
                            lambda budget: armed.append(budget)
                            or real(budget))
        call(fixture("efig"))
        assert armed == [oracle_module.DEFAULT_BUDGET]


class TestWitnessCheck:
    # a, b, c: e0 a-b red, e1 a-c red
    G = build_graph(["a", "b", "c"], [("a", "b", RED), ("a", "c", RED)])

    @pytest.mark.parametrize("name, call", [
        ("_path", lambda g: oracle_alternating_path(g, "a", "b", RED)),
        ("_trail", lambda g: oracle_alternating_trail(g, "a", "b", RED)),
        ("_path", oracle_colour_connected),
        ("_trail", oracle_trail_colour_connected),
    ], ids=["path", "trail", "colour-connected", "trail-colour-connected"])
    def test_witness_ending_elsewhere_raises(self, monkeypatch, name, call):
        # an explicit check, not an assert, so it holds under python -O
        monkeypatch.setattr(oracle_module, name,
                            lambda g, x, y, s, e, tick: [1])
        with pytest.raises(GraphError, match="witness ends at 'c'"):
            call(self.G)

    # a, b, c: e0 a-b red, e1 a-b blue, e2 a-c red, e3 a-c blue; e0 e1
    # e2 e3 from a is a spanning closed trail, and no cycle spans
    SPAN = build_graph(["a", "b", "c"], [("a", "b", RED), ("a", "b", BLUE),
                                         ("a", "c", RED), ("a", "c", BLUE)])

    @pytest.mark.parametrize("name, call", [
        ("_trail", oracle_supereulerian),
        ("_path", oracle_ham_alternating),
    ], ids=["supereulerian", "hamiltonian"])
    @pytest.mark.parametrize("ks", [[0], [0, 1]],
                             ids=["not-closed", "misses-a-vertex"])
    def test_spanning_witness_fault_raises(self, monkeypatch, name, call,
                                           ks):
        monkeypatch.setattr(oracle_module, name,
                            lambda g, x, y, s, e, tick: ks)
        with pytest.raises(GraphError,
                           match="oracle witness fails verification"):
            call(self.SPAN)


FIXTURES = ["efig", "halfm", "needall_g", "needall_h", "cmg_example"]


def test_spanning_oracles_match_their_reference_searches():
    # the closed calls of _trail and _path try edges in the order the
    # oracles' own searches did, so they find the same witnesses
    budget = OracleBudget(max_vertices=12, max_edges=40)
    graphs = [fixture(name) for name in FIXTURES] + [digon()]
    for s in range(100):
        n = 4 + s % 7
        graphs += [generate("random_2ec", s, n=n, m=2 * n + s % 5),
                   generate("mclosed_blowup", s, n=n),
                   generate("complete_bipartite", s, n1=2 + s % 3,
                            n2=2 + (s // 3) % 4)]
    found = 0
    for g in graphs:
        if len(g.bit) > budget.max_edges:
            continue
        for oracle, ref in ((oracle_supereulerian, ref_oracle_supereulerian),
                            (oracle_ham_alternating,
                             ref_oracle_ham_alternating)):
            w, want = oracle(g, budget), ref(g, budget)
            assert (w and witness_to_dict(g, w)) \
                == (want and witness_to_dict(g, want))
            found += w is not None
    assert found > 50
