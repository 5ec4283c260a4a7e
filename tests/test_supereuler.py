import itertools
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import ecgraph.merge as merge_module
from ecgraph import (
    BLUE,
    RED,
    AlternatingCycle,
    AlternatingTrail,
    BudgetExceeded,
    Dominates,
    Merged,
    NoEdgeBetween,
    OracleBudget,
    UnsupportedClass,
    bb_from_digraph,
    bb_to_digraph,
    build_graph,
    decide_complete_bipartite,
    eulerian_factor,
    is_colour_connected,
    is_trail_colour_connected,
    merge_trails_pair,
    oracle_ham_alternating,
    oracle_supereulerian,
    supereulerian,
    verify_witness,
)
from ecgraph.analysis import Analysis
from ecgraph.core import EdgeColouredMultigraph, GraphError
from ecgraph.merge import (
    _structured_merge,
    check_domination,
    merge_factor,
    merge_trails_3cycle,
    merge_trails_transitive,
)
from ecgraph.structure import blow_up, is_m_closed, m_closure
from ecgraph.reductions import fixture, generate

WIDE = OracleBudget(max_vertices=9, max_edges=40, seconds=60)


def three_digons(pattern):
    """Three digon parts a, b, c plus complete monochromatic joins:
    pattern maps (i, j) to the colours of v_{i,1}'s and v_{i,2}'s edges
    into part j."""
    parts = {p: [f"{p}1", f"{p}2"] for p in "abc"}
    triples = []
    for p in "abc":
        triples.append((f"{p}1", f"{p}2", RED))
        triples.append((f"{p}1", f"{p}2", BLUE))
    for (i, j), (c1, c2) in pattern.items():
        for tgt in parts[j]:
            triples.append((f"{i}1", tgt, c1))
            triples.append((f"{i}2", tgt, c2))
    return build_graph([v for p in "abc" for v in parts[p]], triples)


def digon_trails(g):
    return [AlternatingTrail(s, (f"e{2 * k}", f"e{2 * k + 1}"), closed=True)
            for k, s in enumerate(("a1", "b1", "c1"))]


class TestSupereulerianTopLevel:
    def test_out_of_class_raises(self):
        with pytest.raises(UnsupportedClass):
            supereulerian(fixture("efig"))

    def test_no_eulerian_factor_reason(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "c", RED), ("a", "c", BLUE)])
        assert is_m_closed(g)[0]
        res = supereulerian(g)
        assert res.reason == "no_eulerian_factor" and not res

    def test_not_trail_colour_connected_reason(self):
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("a", "b", BLUE),
                         ("c", "d", RED), ("c", "d", BLUE)])
        res = supereulerian(g)
        assert res.reason == "not_trail_colour_connected"
        assert res.counterexample is not None

    def test_digon_positive(self):
        g = build_graph(["a", "b"], [("a", "b", RED), ("a", "b", BLUE)])
        res = supereulerian(g)
        assert res and len(res.trail.edge_ids) == 2


class TestTrailPairMerging:
    def test_no_edge_between(self):
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("a", "b", BLUE),
                         ("c", "d", RED), ("c", "d", BLUE)])
        t1 = AlternatingTrail("a", ("e0", "e1"), closed=True)
        t2 = AlternatingTrail("c", ("e2", "e3"), closed=True)
        assert isinstance(merge_trails_pair(g, t1, t2), NoEdgeBetween)

    def test_merge_through_blow_up(self):
        g = three_digons({("a", "b"): (RED, BLUE)})
        # make the pair mergeable by adding a mixed vertex
        g = build_graph(
            ["a1", "a2", "b1", "b2"],
            [("a1", "a2", RED), ("a1", "a2", BLUE),
             ("b1", "b2", RED), ("b1", "b2", BLUE),
             ("a1", "b1", RED), ("a1", "b1", BLUE),
             ("a2", "b2", RED), ("a2", "b2", BLUE)])
        t1 = AlternatingTrail("a1", ("e0", "e1"), closed=True)
        t2 = AlternatingTrail("b1", ("e2", "e3"), closed=True)
        out = merge_trails_pair(g, t1, t2)
        assert isinstance(out, Merged)
        assert out.cycle.vertex_set(g) == set(g.vertices)
        assert verify_witness(g, out.cycle)

    def test_domination_between_trails(self):
        g = three_digons({("a", "b"): (RED, BLUE)})
        t = digon_trails(g)
        out = merge_trails_pair(g, t[0], t[1])
        assert isinstance(out, Dominates)
        assert out.certificate.labels == {"a1": RED, "a2": BLUE}

    def test_blow_up_with_hamiltonian_cycle_is_supereulerian(self):
        # needall_h is a blow-up of needall_g and carries a hamiltonian
        # alternating cycle, hence a spanning closed trail
        g = fixture("needall_h")
        res = supereulerian(g)
        assert res and verify_witness(g, res.trail)
        assert res.trail.vertex_set(g) == set(g.vertices)


# ---------------------------------------------------------------------
# the blow-up route of the paper's proof, kept as the reference that
# merge_trails_pair must agree with
# ---------------------------------------------------------------------

def _trail_to_blown_cycle(g: EdgeColouredMultigraph,
                          t: AlternatingTrail) -> AlternatingCycle:
    """Image of a closed trail in the blow-up by its own visit counts:
    the o-th visit of v goes to copy v.o, turning the trail into a cycle."""
    seq = t.vertex_sequence(g)
    cnt: dict[str, int] = {}
    occ: list[int] = []
    for v in seq[:-1]:
        occ.append(cnt.get(v, 0))
        cnt[v] = occ[-1] + 1
    occ.append(0)   # the closing visit is the start copy
    ids: list[str] = []
    for p, eid in enumerate(t.edge_ids):
        e = g.edge(eid)
        a, b = occ[p], occ[p + 1]
        if e.u != seq[p]:
            a, b = b, a
        ids.append(f"{eid}.{a}.{b}")
    return AlternatingCycle(f"{seq[0]}.0", tuple(ids))


def _contract_blown(g: EdgeColouredMultigraph, start: str,
                    edge_ids: tuple[str, ...]) -> AlternatingTrail:
    base_start = start.rsplit(".", 1)[0]
    base_ids = tuple(h.rsplit(".", 2)[0] for h in edge_ids)
    return AlternatingTrail(base_start, base_ids, closed=True)


def merge_through_blow_up(g, T1, T2):
    """Lift the two trails to cycles of the blow-up of their union by
    visit counts, merge the cycles there and contract the outcome back;
    None where the structured moves come up empty."""
    V1 = T1.vertex_set(g)
    V2 = T2.vertex_set(g)
    union = g.induced(V1 | V2)
    if not any(e.u in V1 and e.v in V2 or e.u in V2 and e.v in V1
               for e in union.edges):
        return NoEdgeBetween()
    visits: dict[str, int] = {}
    for t in (T1, T2):
        for v in t.vertex_sequence(g)[:-1]:
            visits[v] = visits.get(v, 0) + 1
    h = blow_up(union, visits)
    c1 = _trail_to_blown_cycle(g, T1)
    c2 = _trail_to_blown_cycle(g, T2)
    assert verify_witness(h, c1) and verify_witness(h, c2)
    out = _structured_merge(h, c1, c2)
    if isinstance(out, Merged):
        return Merged(_contract_blown(g, out.cycle.start, out.cycle.edge_ids))
    if isinstance(out, Dominates):
        dom_base = {v.rsplit(".", 1)[0]
                    for v in out.certificate.dominating.vertex_set(h)}
        dom, sub = (T1, T2) if dom_base == set(V1) else (T2, T1)
        cert = check_domination(g, dom, sub)
        assert cert is not None
        return Dominates(cert)
    assert out is None
    return None


def split_trail_pairs(graphs):
    """(g, T1, T2) for random vertex splits of random_2ec and
    mclosed_blowup graphs on 4-24 vertices, where each side has a
    one-part eulerian factor: T1 and T2 are those factors' trails."""
    for seed in range(graphs):
        rng = random.Random(seed)
        n = rng.randint(4, 24)
        if seed % 2:
            g = generate("mclosed_blowup", seed=seed, n=n)
        else:
            g = generate("random_2ec", seed=seed, n=n,
                         m=rng.randint(n, 4 * n))
        vs = list(g.vertices)
        rng.shuffle(vs)
        k = rng.randint(2, n - 2)
        trails = []
        for side in (vs[:k], vs[k:]):
            ef = eulerian_factor(g.induced(side))
            if ef is None or len(ef.parts) != 1:
                break
            trails.append(ef.parts[0][1])
        if len(trails) == 2:
            yield g, trails[0], trails[1]


def digon_pattern_pairs():
    """Both orders of the digon trails a and b under every choice of
    monochromatic joins a -> b and b -> a, at least one of them present."""
    choices = [None] + list(itertools.product((RED, BLUE), repeat=2))
    for ab, ba in itertools.product(choices, repeat=2):
        pattern = {k: c for k, c in ((("a", "b"), ab), (("b", "a"), ba))
                   if c is not None}
        if not pattern:
            continue
        g = three_digons(pattern)
        t = digon_trails(g)
        yield g, t[0], t[1]
        yield g, t[1], t[0]


def test_in_place_merge_matches_blow_up_route(monkeypatch):
    cases = list(split_trail_pairs(3000)) + list(digon_pattern_pairs())
    expected = [merge_through_blow_up(g, T1, T2) for g, T1, T2 in cases]

    fired = Counter()
    splice = merge_module._splice
    chord_move = merge_module.merge_parallel_chords

    spliced = []

    def spy_similar(g, a, b, i, j):
        fired["similar"] += 1
        if b.cols[j] != a.cols[i]:
            fired["reversal"] += 1
        out = splice(g, a, b, i, j)
        spliced.append((g, a.as_cycle(g), b.as_cycle(g), i, j, out))
        return out

    def spy_chords(*args):
        fired["chords"] += 1
        return chord_move(*args)

    monkeypatch.setattr(merge_module, "_splice", spy_similar)
    monkeypatch.setattr(merge_module, "merge_parallel_chords", spy_chords)
    for (g, T1, T2), ref in zip(cases, expected):
        if any(len(t.vertex_set(g)) < len(t.edge_ids) for t in (T1, T2)):
            fired["revisiting pair"] += 1
        if ref is None:
            # both routes fall back to the same exhaustive search
            union = g.induced(T1.vertex_set(g) | T2.vertex_set(g))
            assert _structured_merge(union, T1, T2) is None
            continue
        got = merge_trails_pair(g, T1, T2)
        assert type(got) is type(ref)
        if isinstance(ref, Merged):
            assert got.cycle.start == ref.cycle.start
            assert got.cycle.edge_ids == ref.cycle.edge_ids
        elif isinstance(ref, Dominates):
            fired["dominates"] += 1
            assert got.certificate.dominating == ref.certificate.dominating
            assert got.certificate.colour is ref.certificate.colour
            assert got.certificate.labels == ref.certificate.labels
    for what in ("similar", "reversal", "chords", "dominates",
                 "revisiting pair"):
        assert fired[what] > 0, what
    # the loop splices on its own views of the pair; the public move,
    # which checks the similarity again, gives the same walk
    monkeypatch.undo()
    for g, C1, C2, i, j, out in spliced:
        assert merge_module.merge_similar(g, C1, C2, i, j) == out


@pytest.mark.parametrize("seed, n", [(37, 50), (24, 40)])
def test_supereulerian_builds_no_blow_up(monkeypatch, seed, n):
    """Multi-part factors are merged without blowing up any trail pair."""
    g = generate("mclosed_blowup", seed=seed, n=n)

    def refuse(*args, **kwargs):
        raise AssertionError("blow_up called")

    for name, module in list(sys.modules.items()):
        if (name == "ecgraph" or name.startswith("ecgraph.")) \
                and hasattr(module, "blow_up"):
            monkeypatch.setattr(module, "blow_up", refuse)
    assert len(Analysis.of(g).ef.parts) > 1
    res = supereulerian(g)
    assert res and verify_witness(g, res.trail)
    assert res.trail.vertex_set(g) == set(g.vertices)


@pytest.fixture
def tournament_merges(monkeypatch):
    """The names of the tournament merges the merge loop runs, in order."""
    reached = []
    for name in ("merge_trails_3cycle", "merge_trails_transitive"):
        def spy(*args, _move=getattr(merge_module, name), _name=name):
            reached.append(_name)
            return _move(*args)
        monkeypatch.setattr(merge_module, name, spy)
    return reached


class TestTournamentMerges:
    def test_triangle(self, tournament_merges):
        g = three_digons({("a", "b"): (RED, BLUE),
                          ("b", "c"): (RED, BLUE),
                          ("c", "a"): (RED, BLUE)})
        t = digon_trails(g)
        certs = {}
        for i, j in ((0, 1), (1, 2), (2, 0)):
            out = merge_trails_pair(g, t[i], t[j])
            assert isinstance(out, Dominates)
            certs[(i, j)] = out.certificate
        merged = merge_trails_3cycle(g, t[0], t[1], t[2],
                                     certs[(0, 1)], certs[(1, 2)],
                                     certs[(2, 0)])
        assert verify_witness(g, merged)
        assert merged.vertex_set(g) == set(g.vertices)
        # the full pipeline agrees with the oracle, through the triangle
        assert bool(supereulerian(g)) \
            == (oracle_supereulerian(g, WIDE) is not None)
        assert tournament_merges == ["merge_trails_3cycle"]

    def test_transitive(self, tournament_merges):
        g = three_digons({("a", "b"): (RED, BLUE),
                          ("a", "c"): (BLUE, RED),
                          ("b", "c"): (RED, BLUE)})
        t = digon_trails(g)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert isinstance(merge_trails_pair(g, t[i], t[j]), Dominates)
        merged = merge_trails_transitive(g, t[0], t[1], t[2], "a1", RED)
        assert verify_witness(g, merged)
        assert merged.vertex_set(g) == set(g.vertices)
        assert bool(supereulerian(g)) \
            == (oracle_supereulerian(g, WIDE) is not None)
        assert tournament_merges == ["merge_trails_transitive"]

    def test_merge_factor_takes_dominating_trails_through_the_tournament(
            self, tournament_merges):
        g = three_digons({("a", "b"): (RED, BLUE),
                          ("b", "c"): (RED, BLUE),
                          ("c", "a"): (RED, BLUE)})
        t = merge_factor(g, digon_trails(g))
        assert verify_witness(g, t)
        assert t.vertex_set(g) == set(g.vertices)
        assert tournament_merges == ["merge_trails_3cycle"]


def fragmented_factors(graphs):
    """(g, parts) where g is an M-closed closure of a random_2ec graph
    (even seeds) or an mclosed_blowup graph (odd seeds), cut into 2-4
    random blocks, trail-colour-connected, and each block has an
    eulerian factor: parts are the closed trails of all those factors."""
    for seed in range(graphs):
        rng = random.Random(seed)
        if seed % 2:
            g = generate("mclosed_blowup", seed=seed, n=rng.randint(4, 30))
        else:
            n = rng.randint(4, 9)
            g = m_closure(generate("random_2ec", seed=seed, n=n,
                                   m=rng.randint(n, 3 * n)),
                          "seeded_random", seed=seed)
        vs = list(g.vertices)
        rng.shuffle(vs)
        k = rng.randint(2, min(4, len(vs) // 2))
        cuts = sorted(rng.sample(range(1, len(vs)), k - 1))
        parts = []
        for a, b in zip([0] + cuts, cuts + [len(vs)]):
            ef = eulerian_factor(g.induced(vs[a:b]))
            if ef is None:
                break
            parts += [t for _, t in ef.parts]
        else:
            if is_trail_colour_connected(g).connected:
                yield g, parts


def test_merge_factor_on_fragmented_factors(monkeypatch):
    fired = Counter()
    for name in ("_splice", "merge_parallel_chords"):
        def spy(*args, _move=getattr(merge_module, name), _name=name):
            fired[_name] += 1
            return _move(*args)
        monkeypatch.setattr(merge_module, name, spy)
    factors = 0
    for g, parts in fragmented_factors(5000):
        factors += 1
        t = merge_factor(g, parts)
        assert not isinstance(t, AlternatingCycle)
        assert verify_witness(g, t)
        assert t.vertex_set(g) == set(g.vertices)
    assert factors >= 50
    assert fired["_splice"] > 0
    assert fired["merge_parallel_chords"] > 0


class TestBipartiteDigraph:
    def test_round_trip_structure(self):
        g = generate("complete_bipartite", seed=7, n1=3, n2=3)
        back = bb_from_digraph(bb_to_digraph(g))
        assert sorted(back.vertices) == sorted(g.vertices)
        key = lambda e: (e.id, frozenset((e.u, e.v)), e.colour)
        assert sorted(map(key, back.edges)) == sorted(map(key, g.edges))

    def test_directed_four_cycle(self):
        from ecgraph.supereuler import BipartiteDigraph
        d = BipartiteDigraph(("x1", "x2"), ("y1", "y2"),
                             (("a1", "x1", "y1"), ("a2", "y1", "x2"),
                              ("a3", "x2", "y2"), ("a4", "y2", "x1")))
        g = bb_from_digraph(d)
        cols = [g.edge(f"a{i}").colour for i in (1, 2, 3, 4)]
        assert cols == [RED, BLUE, RED, BLUE]
        assert oracle_ham_alternating(g) is not None

    def test_non_bipartite_rejected(self):
        with pytest.raises(GraphError, match="not bipartite"):
            bb_to_digraph(fixture("needall_h"))


class TestDecideCompleteBipartite:
    def test_requires_complete_bipartite(self):
        with pytest.raises(UnsupportedClass):
            decide_complete_bipartite(fixture("cmg_example"))

    def test_all_red_k22_negative(self):
        g = build_graph(["a1", "a2", "b1", "b2"],
                        [("a1", "b1", RED), ("a1", "b2", RED),
                         ("a2", "b1", RED), ("a2", "b2", RED)])
        v = decide_complete_bipartite(g)
        assert not v.supereulerian and not v.hamiltonian
        assert not v.colour_connected

    def test_alternating_k22_positive(self):
        g = build_graph(["a1", "a2", "b1", "b2"],
                        [("a1", "b1", RED), ("b1", "a2", BLUE),
                         ("a2", "b2", RED), ("b2", "a1", BLUE)])
        v = decide_complete_bipartite(g)
        assert v.supereulerian and v.hamiltonian


def test_reconstructed_trail_cc_not_cc_witness():
    """Some small M-closed graph is supereulerian and
    trail-colour-connected without being colour-connected."""
    for seed in range(200):
        rng = random.Random(seed)
        g = generate("random_2ec", seed=seed, n=rng.randint(3, 6),
                     m=rng.randint(3, 12))
        h = m_closure(g, "seeded_random", seed=seed)
        if len(h.edges) > 20:
            continue
        try:
            if is_colour_connected(h).connected:
                continue
            if not is_trail_colour_connected(h).connected:
                continue
        except ValueError:
            continue
        if oracle_supereulerian(h) is None:
            continue
        assert is_m_closed(h)[0]
        return
    pytest.fail("no witness graph found in the searched range")


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_supereulerian_three_way_equivalence(seed):
    rng = random.Random(seed)
    g = generate("mclosed_blowup", seed=seed, n=rng.randint(2, 8))
    res = supereulerian(g)
    characterized = (eulerian_factor(g) is not None
                     and is_trail_colour_connected(g).connected)
    slow = oracle_supereulerian(g, WIDE)
    assert bool(res) == characterized == (slow is not None)
    if res:
        assert verify_witness(g, res.trail)
        assert res.trail.vertex_set(g) == set(g.vertices)
