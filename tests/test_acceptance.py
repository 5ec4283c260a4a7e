"""End-to-end acceptance checks: fixture-exact claims plus randomized
equivalences between the polynomial algorithms and the exhaustive
oracles."""

import random
import time

from ecgraph import (
    BLUE,
    RED,
    OracleBudget,
    alternating_cycle_factor,
    alternating_hamiltonian_cycle,
    alternating_path,
    alternating_trail,
    build_graph,
    decide_complete_bipartite,
    eulerian_factor,
    is_colour_connected,
    is_trail_colour_connected,
    oracle_alternating_path,
    oracle_alternating_trail,
    oracle_cycle_factor,
    oracle_eulerian_factor,
    oracle_ham_alternating,
    oracle_supereulerian,
    supereulerian,
    verify_witness,
)
from ecgraph.cli import analyze_graph
from ecgraph.connect import complete_multipartite_classes
from ecgraph.reductions import fixture, generate, reduce_ham_to_supereulerian
from ecgraph.structure import blow_up

from reference import trail_to_path_complete_multipartite, visit_count

WIDE = OracleBudget(max_vertices=9, max_edges=40, seconds=120)


def test_fixture_suite_exact():
    t0 = time.monotonic()

    g = fixture("efig")
    t = oracle_supereulerian(g)
    assert t is not None and len(t.edge_ids) == 8
    assert verify_witness(g, t)
    seq = t.vertex_sequence(g)
    assert seq[:-1].count("v3") == 2 and seq[:-1].count("v5") == 2
    f = eulerian_factor(g)
    assert f is not None
    assert visit_count(g, f, "v3") == 2 and visit_count(g, f, "v5") == 2

    g = fixture("halfm")
    assert is_colour_connected(g).connected
    assert alternating_cycle_factor(g) is not None
    assert oracle_cycle_factor(g) is not None
    assert oracle_ham_alternating(g) is None
    assert oracle_supereulerian(g) is None

    g = fixture("needall_g")
    rep = is_trail_colour_connected(g)
    assert not rep.connected and rep.counterexample == ("x1", "x2", RED)
    assert oracle_alternating_trail(g, "x1", "x2", RED) is None

    g = fixture("needall_h")
    res = alternating_hamiltonian_cycle(g)
    assert res.witness is not None and len(res.witness.edge_ids) == 8
    assert verify_witness(g, res.witness)
    assert oracle_ham_alternating(g) is not None

    g = fixture("cmg_example")
    classes = complete_multipartite_classes(g)
    assert classes is not None and len(classes) == 3
    assert is_colour_connected(g).connected
    assert alternating_cycle_factor(g) is not None
    assert oracle_supereulerian(g) is None

    assert time.monotonic() - t0 < 1.0


def test_supereulerian_three_way_equivalence_500():
    t0 = time.monotonic()
    positives = 0
    for seed in range(500):
        rng = random.Random(seed)
        g = generate("mclosed_blowup", seed=seed, n=rng.randint(2, 8))
        res = supereulerian(g)
        characterized = (eulerian_factor(g) is not None
                         and is_trail_colour_connected(g).connected)
        slow = oracle_supereulerian(g, WIDE)
        assert bool(res) == characterized == (slow is not None), seed
        if res:
            positives += 1
            assert verify_witness(g, res.witness)
            assert res.witness.vertex_set(g) == set(g.vertices)
    assert positives > 0
    assert time.monotonic() - t0 < 600


def test_hamiltonian_equivalence_500():
    # the unreachable-state error is a hard exception, so its absence
    # over the whole sweep is checked implicitly
    positives = 0
    for seed in range(500):
        rng = random.Random(seed)
        g = generate("mclosed_blowup", seed=seed, n=rng.randint(2, 8))
        res = alternating_hamiltonian_cycle(g)
        characterized = (is_colour_connected(g).connected
                         and alternating_cycle_factor(g) is not None)
        slow = oracle_ham_alternating(g, WIDE)
        assert bool(res) == characterized == (slow is not None), seed
        if res:
            positives += 1
            assert verify_witness(g, res.witness)
    assert positives > 0


def test_eulerian_factor_equivalence_1000():
    for seed in range(1000):
        rng = random.Random(seed)
        g = generate("random_2ec", seed=seed, n=rng.randint(2, 7),
                     m=rng.randint(1, 14))
        fast = eulerian_factor(g)
        slow = oracle_eulerian_factor(g)
        assert (fast is None) == (slow is None), seed
        if fast is not None:
            assert verify_witness(g, fast)
            # each vertex is visited as often as the factor's edges give
            # it red edges, and blue ones: at least once, at most
            # min(r, b) times
            edges = [g.edge(eid) for _, t in fast.parts for eid in t.edge_ids]
            for v in g.vertices:
                k = visit_count(g, fast, v)
                for c in (RED, BLUE):
                    assert sum(e.colour is c and e.touches(v)
                               for e in edges) == k, (seed, v)
                assert 1 <= k <= min(g.degree(v, RED),
                                     g.degree(v, BLUE)), (seed, v)


def test_reduction_soundness_300():
    budget = OracleBudget(max_vertices=60, max_edges=120, seconds=120)
    for seed in range(300):
        rng = random.Random(seed)
        g = generate("random_2ec", seed=seed, n=rng.randint(2, 6),
                     m=rng.randint(1, 8))
        has_ham = oracle_ham_alternating(g, WIDE) is not None
        for variant in ("basic", "gadget"):
            rm = reduce_ham_to_supereulerian(g, variant)
            assert (oracle_supereulerian(rm.graph, budget) is not None) \
                == has_ham, (seed, variant)
            if variant == "gadget":
                assert eulerian_factor(rm.graph) is not None, seed


def test_connectivity_queries_1000():
    queries = 0
    for seed in range(250):
        rng = random.Random(seed)
        g = generate("random_2ec", seed=seed, n=rng.randint(2, 7),
                     m=rng.randint(1, 14))
        for _ in range(4):
            u, v = rng.sample(g.vertices, 2)
            c = rng.choice((RED, BLUE))
            p = alternating_path(g, u, v, c)
            assert (p is None) \
                == (oracle_alternating_path(g, u, v, c) is None), seed
            t = alternating_trail(g, u, v, c)
            assert (t is None) \
                == (oracle_alternating_trail(g, u, v, c) is None), seed
            queries += 2
    assert queries >= 1000


def test_connectivity_blow_up_invariance_200():
    for seed in range(200):
        rng = random.Random(seed)
        g = generate("random_2ec", seed=seed, n=rng.randint(2, 5),
                     m=rng.randint(1, 8))
        mult = {v: rng.randint(1, 3) for v in g.vertices}
        h = blow_up(g, mult)
        # a path (trail) of g lifts to h copy by copy, so h fails only
        # between two copies of one vertex or where g fails too; the
        # converse does not hold (a blow-up can gain connectivity)
        for sweep, query in ((is_colour_connected, alternating_path),
                             (is_trail_colour_connected, alternating_trail)):
            ce = sweep(h).counterexample
            if ce is not None:
                x, y, c = ce
                u, v = x.rsplit(".", 1)[0], y.rsplit(".", 1)[0]
                assert u == v or query(g, u, v, c) is None, seed


def _relabelled(g, rng):
    # new vertex names, and the vertices listed in a new order, so a
    # search from vertex 0 starts elsewhere
    names = [f"w{i}" for i in range(len(g.vertices))]
    rng.shuffle(names)
    name = dict(zip(g.vertices, names))
    rng.shuffle(names)
    return build_graph(names, [(name[e.u], name[e.v], e.colour)
                               for e in g.edges])


def _edges_shuffled(g, rng):
    triples = [(e.v, e.u, e.colour) for e in g.edges]
    rng.shuffle(triples)
    return build_graph(g.vertices, triples)


def _colours_exchanged(g, rng):
    return build_graph(g.vertices, [(e.u, e.v, e.colour.other())
                                    for e in g.edges])


def test_answers_invariant_under_relabelling_and_colour_exchange():
    # both spanning oracles search from vertex 0; some of these graphs
    # have more edges than the default oracle budget admits
    span = OracleBudget(max_vertices=12, max_edges=60)

    def answers(g):
        return ([(e["question"], e["answer"], e["method"])
                 for e in analyze_graph(g, 9).entries],
                oracle_supereulerian(g, span) is not None,
                oracle_ham_alternating(g, span) is not None)

    checks = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = 6 + seed % 4
        n1 = 2 + seed % 3
        for g in (generate("random_2ec", seed, n=n, m=2 * n),
                  generate("mclosed_blowup", seed, n=n),
                  generate("complete_bipartite", seed, n1=n1, n2=n - n1)):
            want = answers(g)
            for change in (_relabelled, _edges_shuffled, _colours_exchanged):
                assert answers(change(g, rng)) == want, (seed, change)
                checks += 1
    assert checks == 360


def test_complete_multipartite_properties_200():
    for seed in range(200):
        rng = random.Random(seed)
        k = rng.randint(2, 3)
        sizes = [rng.randint(1, 3) for _ in range(k)]
        if sum(sizes) < 2:
            sizes.append(1)
        g = generate("complete_multipartite", seed=seed, sizes=sizes)
        # trail-level and path-level connectivity coincide on this class
        assert is_colour_connected(g).connected \
            == is_trail_colour_connected(g).connected, seed
        # every trail shortens to a path with the same ends/start colour
        for _ in range(3):
            u, v = rng.sample(g.vertices, 2)
            c = rng.choice((RED, BLUE))
            t = alternating_trail(g, u, v, c)
            if t is None:
                continue
            p = trail_to_path_complete_multipartite(g, t)
            seq = p.vertex_sequence(g)
            assert len(seq) == len(set(seq))
            assert seq[0] == u and seq[-1] == v
            assert g.edge(p.edge_ids[0]).colour is c
        # a spanning closed alternating trail forces colour-connectivity
        if len(g.edges) <= 22:
            if oracle_supereulerian(g) is not None:
                assert is_colour_connected(g).connected, seed


def _colourings(pairs):
    for mask in range(1 << len(pairs)):
        yield [(u, v, RED if mask >> i & 1 else BLUE)
               for i, (u, v) in enumerate(pairs)]


def test_complete_bipartite_decision_exhaustive_and_random():
    for n1, n2 in ((2, 2), (2, 3)):
        xs = [f"x{i}" for i in range(n1)]
        ys = [f"y{i}" for i in range(n2)]
        pairs = [(x, y) for x in xs for y in ys]
        for triples in _colourings(pairs):
            g = build_graph(xs + ys, triples)
            assert decide_complete_bipartite(g, "supereulerian").answer \
                == (oracle_supereulerian(g) is not None), triples
            assert decide_complete_bipartite(g, "hamiltonian").answer \
                == (oracle_ham_alternating(g) is not None), triples
    for seed in range(200):
        rng = random.Random(seed)
        n1 = rng.randint(2, 3)
        n2 = rng.randint(2, 7 - n1)
        g = generate("complete_bipartite", seed=seed, n1=n1, n2=n2)
        assert decide_complete_bipartite(g, "supereulerian").answer \
            == (oracle_supereulerian(g, WIDE) is not None), seed
        assert decide_complete_bipartite(g, "hamiltonian").answer \
            == (oracle_ham_alternating(g, WIDE) is not None), seed


def test_large_instance_fast_paths_under_30s():
    g = generate("mclosed_blowup", seed=9, n=60)
    assert len(g.vertices) == 60
    t0 = time.monotonic()
    rep = analyze_graph(g, max_n=0)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    by_q = {e["question"]: e for e in rep.entries}
    assert by_q["supereulerian"]["answer"] is True
    assert by_q["supereulerian"]["method"] == "fast"
    assert all(e["method"] != "oracle" for e in rep.entries)
