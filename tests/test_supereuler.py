import itertools
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from click.testing import CliRunner

import ecgraph.merge as merge_module
from ecgraph import (
    BLUE,
    RED,
    AlternatingCycle,
    AlternatingTrail,
    BipartiteDigraph,
    BudgetExceeded,
    Dominates,
    Edge,
    MergeInternalError,
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
    oracle_ham_alternating,
    oracle_supereulerian,
    serialize_graph,
    supereulerian,
    verify_witness,
)
from ecgraph.analysis import Analysis
from ecgraph.cli import main
from ecgraph.core import (
    BIT_COLOUR,
    CycleFactor,
    EdgeColouredMultigraph,
    GraphError,
    _check_trail,
    parse_graph,
)
from ecgraph.merge import (
    DominationCertificate,
    _Cyc,
    _dominates,
    _pair,
    _transitive,
    _triangle,
    alternating_hamiltonian_cycle,
    merge_cycles,
    merge_factor,
)
from ecgraph.structure import blow_up, is_m_closed, m_closure
from ecgraph.reductions import fixture, generate
from reference import (
    exchange,
    merge_trails_3cycle,
    merge_trails_transitive,
    similar_cross_pair,
)

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
        assert res and len(res.witness.edge_ids) == 2


class TestTrailPairMerging:
    def test_no_edge_between(self):
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("a", "b", BLUE),
                         ("c", "d", RED), ("c", "d", BLUE)])
        t1 = AlternatingTrail("a", ("e0", "e1"), closed=True)
        t2 = AlternatingTrail("c", ("e2", "e3"), closed=True)
        assert isinstance(merge_cycles(g, t1, t2), NoEdgeBetween)

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
        out = merge_cycles(g, t1, t2)
        assert isinstance(out, Merged)
        assert out.cycle.vertex_set(g) == set(g.vertices)
        assert verify_witness(g, out.cycle)

    def test_domination_between_trails(self):
        g = three_digons({("a", "b"): (RED, BLUE)})
        t = digon_trails(g)
        out = merge_cycles(g, t[0], t[1])
        assert isinstance(out, Dominates)
        assert out.certificate.labels == {"a1": RED, "a2": BLUE}

    def test_blow_up_with_hamiltonian_cycle_is_supereulerian(self):
        # needall_h is a blow-up of needall_g and carries a hamiltonian
        # alternating cycle, hence a spanning closed trail
        g = fixture("needall_h")
        res = supereulerian(g)
        assert res and verify_witness(g, res.witness)
        assert res.witness.vertex_set(g) == set(g.vertices)


# ---------------------------------------------------------------------
# the blow-up route of the paper's proof, kept as the reference that
# merge_cycles must agree with
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


@pytest.fixture
def exchanges(monkeypatch):
    """The `rotate` flag of each merge `_exchange` makes, in order."""
    made = []

    def spy(g, a, b, joins, rotate, _move=merge_module._exchange):
        out = _move(g, a, b, joins, rotate)
        if out is not None:
            made.append(rotate)
        return out

    monkeypatch.setattr(merge_module, "_exchange", spy)
    return made


def certificate(g, dom, sub):
    """The domination certificate of trail dom over trail sub, from
    `_dominates` on their walks."""
    labels = _dominates(g, _Cyc.of(g, dom), _Cyc.of(g, sub))
    assert labels is not None
    return DominationCertificate(
        dom, sub, BIT_COLOUR[labels[min(labels)]],
        {g.vertices[x]: BIT_COLOUR[c] for x, c in labels.items()})


def merge_through_blow_up(g, T1, T2):
    """Lift the two trails to cycles of the blow-up of their union by
    visit counts, merge the cycles there and contract the outcome back;
    UnsupportedClass where the pair neither merges nor shows domination
    outside the class."""
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
    assert verify_witness(h, CycleFactor((c1, c2)))
    try:
        out = _pair(h, _Cyc.of(h, c1), _Cyc.of(h, c2))
    except UnsupportedClass:
        return UnsupportedClass
    if isinstance(out, _Cyc):
        cycle = out.as_cycle(h)
        return Merged(_contract_blown(g, cycle.start, cycle.edge_ids))
    dom_base = {h.vertices[x].rsplit(".", 1)[0] for x in out[0].vset}
    dom, sub = (T1, T2) if dom_base == set(V1) else (T2, T1)
    return Dominates(certificate(g, dom, sub))


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


def test_in_place_merge_matches_blow_up_route(exchanges):
    cases = list(split_trail_pairs(3000)) + list(digon_pattern_pairs())
    expected = [merge_through_blow_up(g, T1, T2) for g, T1, T2 in cases]
    exchanges.clear()

    fired = Counter()
    for (g, T1, T2), ref in zip(cases, expected):
        if any(len(t.vertex_set(g)) < len(t.edge_ids) for t in (T1, T2)):
            fired["revisiting pair"] += 1
        if ref is UnsupportedClass:
            # two random_2ec pairs, outside the class, that neither
            # merge nor show domination
            with pytest.raises(UnsupportedClass):
                merge_cycles(g, T1, T2)
            fired["unsupported"] += 1
            continue
        got = merge_cycles(g, T1, T2)
        assert type(got) is type(ref)
        if isinstance(ref, Merged):
            assert got.cycle.start == ref.cycle.start
            assert got.cycle.edge_ids == ref.cycle.edge_ids
        elif isinstance(ref, Dominates):
            fired["dominates"] += 1
            assert got.certificate.dominating == ref.certificate.dominating
            assert got.certificate.colour is ref.certificate.colour
            assert got.certificate.labels == ref.certificate.labels
    for what in ("dominates", "revisiting pair"):
        assert fired[what] > 0, what
    assert False in exchanges   # a chord merge
    assert fired["unsupported"] == 2


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
    assert res and verify_witness(g, res.witness)
    assert res.witness.vertex_set(g) == set(g.vertices)


@pytest.fixture
def tournament_merges(monkeypatch):
    """The names of the tournament merges the merge loop runs, in order."""
    reached = []
    for name in ("_triangle", "_transitive"):
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
        w = [_Cyc.of(g, x) for x in t]
        certs, labels = {}, {}
        for i, j in ((0, 1), (1, 2), (2, 0)):
            out = merge_cycles(g, t[i], t[j])
            assert isinstance(out, Dominates)
            certs[(i, j)] = out.certificate
            dom, labels[(i, j)] = _pair(g, w[i], w[j])
            assert dom is w[i]
        merged = _triangle(g, *w, labels[(0, 1)], labels[(1, 2)],
                           labels[(2, 0)]).as_cycle(g)
        assert verify_witness(g, merged)
        assert merged.vertex_set(g) == set(g.vertices)
        assert merged == merge_trails_3cycle(g, *t, certs[(0, 1)],
                                             certs[(1, 2)], certs[(2, 0)])
        # the full pipeline agrees with the oracle, through the triangle
        assert bool(supereulerian(g)) \
            == (oracle_supereulerian(g, WIDE) is not None)
        assert tournament_merges == ["_triangle"]

    def test_transitive(self, tournament_merges):
        g = three_digons({("a", "b"): (RED, BLUE),
                          ("a", "c"): (BLUE, RED),
                          ("b", "c"): (RED, BLUE)})
        t = digon_trails(g)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert isinstance(merge_cycles(g, t[i], t[j]), Dominates)
        w = [_Cyc.of(g, x) for x in t]
        merged = _transitive(g, *w, g.vertex_index("a1"),
                             RED.bit).as_cycle(g)
        assert verify_witness(g, merged)
        assert merged.vertex_set(g) == set(g.vertices)
        assert merged == merge_trails_transitive(g, *t, "a1", RED)
        assert bool(supereulerian(g)) \
            == (oracle_supereulerian(g, WIDE) is not None)
        assert tournament_merges == ["_transitive"]

    def test_merge_factor_takes_dominating_trails_through_the_tournament(
            self, tournament_merges):
        g = three_digons({("a", "b"): (RED, BLUE),
                          ("b", "c"): (RED, BLUE),
                          ("c", "a"): (RED, BLUE)})
        t = merge_factor(g, digon_trails(g))
        assert verify_witness(g, t)
        assert t.vertex_set(g) == set(g.vertices)
        assert tournament_merges == ["_triangle"]


TRIANGLE = {("a", "b"): (RED, BLUE), ("b", "c"): (RED, BLUE),
            ("c", "a"): (RED, BLUE)}
TRANSITIVE = {("a", "b"): (RED, BLUE), ("a", "c"): (BLUE, RED),
              ("b", "c"): (RED, BLUE)}


def tournament_patterns():
    """Every three-digon pattern whose pairs are all joined: per pair a
    direction and the colours of the dominating digon's two vertices,
    4 ** 3 patterns."""
    pairs = (("a", "b"), ("a", "c"), ("b", "c"))
    options = [(flip, cs) for flip in (False, True)
               for cs in ((RED, BLUE), (BLUE, RED))]
    for choice in itertools.product(options, repeat=3):
        yield three_digons({(p[::-1] if flip else p): cs
                            for p, (flip, cs) in zip(pairs, choice)})


def tournament_labels(g, w):
    """(winner, loser) -> domination labels, for three walks of g that
    dominate pairwise."""
    arc = {}
    for i, j in itertools.combinations(range(3), 2):
        dom, labels = _pair(g, w[i], w[j])
        arc[(i, j) if dom is w[i] else (j, i)] = labels
    return arc


def test_tournament_moves_match_the_merges_by_id():
    """`_triangle` and `_transitive` give the trails the merges by id
    gave, on every three-digon tournament pattern, for every directed
    triangle and every transitive pivot."""
    seen = Counter()
    for g in tournament_patterns():
        t = digon_trails(g)
        w = [_Cyc.of(g, x) for x in t]
        labels = tournament_labels(g, w)
        certs = {(i, j): certificate(g, t[i], t[j]) for i, j in labels}
        for a, b, c in itertools.permutations(range(3)):
            if {(a, b), (b, c), (c, a)} <= labels.keys():
                got = _triangle(g, w[a], w[b], w[c], labels[(a, b)],
                                labels[(b, c)], labels[(c, a)])
                assert got.as_cycle(g) == merge_trails_3cycle(
                    g, t[a], t[b], t[c],
                    certs[(a, b)], certs[(b, c)], certs[(c, a)])
                seen["triangle"] += 1
            if {(a, b), (a, c)} <= labels.keys():
                for v in w[a].verts:
                    col = labels[(a, b)][v]
                    if labels[(a, c)][v] == col:
                        continue
                    got = _transitive(g, w[a], w[b], w[c], v, col)
                    assert got.as_cycle(g) == merge_trails_transitive(
                        g, t[a], t[b], t[c], g.vertices[v], BIT_COLOUR[col])
                    seen["transitive"] += 1
    assert seen == {"triangle": 48, "transitive": 96}, seen


def merge_inputs():
    """(graph, decision) pairs whose merges run every move: a three-part
    eulerian factor, a five-cycle cycle factor, and the triangle and
    transitive tournaments."""
    return [(generate("mclosed_blowup", seed=37, n=50), supereulerian),
            (generate("mclosed_blowup", seed=244, n=20),
             alternating_hamiltonian_cycle),
            (three_digons(TRIANGLE), supereulerian),
            (three_digons(TRANSITIVE), supereulerian)]


def test_merge_reads_no_ids(monkeypatch, tournament_merges):
    """From the factor's parts to the witness, the merge walks integers
    only: it never walks a trail by id or looks an edge up by id."""
    cases = merge_inputs()
    for g, _ in cases:
        a = Analysis.of(g)
        assert a.ext is not None
        a.ef, a.tcc, a.cf, a.cc

    def refuse(*args, **kwargs):
        raise AssertionError("the merge read a trail or an edge by id")

    monkeypatch.setattr(AlternatingTrail, "vertex_sequence", refuse)
    monkeypatch.setattr(EdgeColouredMultigraph, "edge", refuse)
    monkeypatch.setattr(Edge, "other_end", refuse)
    results = [decide(g) for g, decide in cases]
    assert tournament_merges == ["_triangle", "_transitive"]
    monkeypatch.undo()
    for (g, decide), res in zip(cases, results):
        walk = res.witness
        assert walk is not None and verify_witness(g, walk)
        assert walk.vertex_set(g) == set(g.vertices)


def with_spare_digon(g):
    """g plus a digon z1-z2 on two new vertices, edges z0 and z1."""
    spare = [Edge("z0", "z1", "z2", RED), Edge("z1", "z1", "z2", BLUE)]
    return EdgeColouredMultigraph(g.vertices + ("z1", "z2"),
                                  g.edges + tuple(spare))


def move_cases():
    """(move, graph, call) for each merge move: call runs the move on
    the graph's walks."""
    def walks(g, trails):
        return [_Cyc.of(g, t) for t in trails]

    def tournament(g, move):
        w = walks(g, digon_trails(g))
        lab = tournament_labels(g, w)
        if move == "triangle":
            return _triangle(g, *w, lab[(0, 1)], lab[(1, 2)], lab[(2, 0)])
        return _transitive(g, *w, g.vertex_index("a1"), RED.bit)

    similar = with_spare_digon(build_graph(
        ["a1", "a2", "b1", "b2"],
        [("a1", "a2", RED), ("a1", "a2", BLUE),
         ("b1", "b2", RED), ("b1", "b2", BLUE),
         ("a1", "b2", RED), ("a1", "b2", BLUE),
         ("b1", "a2", RED), ("b1", "a2", BLUE)]))
    chords = with_spare_digon(build_graph(
        ["a1", "a2", "b1", "b2"],
        [("a1", "a2", RED), ("a1", "a2", BLUE),
         ("b1", "b2", RED), ("b1", "b2", BLUE),
         ("a1", "b1", RED), ("a2", "b2", RED)]))
    pair = [AlternatingCycle("a1", ("e0", "e1")),
            AlternatingCycle("b1", ("e2", "e3"))]
    triangle = with_spare_digon(three_digons(TRIANGLE))
    transitive = with_spare_digon(three_digons(TRANSITIVE))
    return [
        ("chord", similar,
         lambda: exchange(similar, *walks(similar, pair), False)),
        ("chord", chords,
         lambda: exchange(chords, *walks(chords, pair), False)),
        ("triangle", triangle, lambda: tournament(triangle, "triangle")),
        ("transitive", transitive,
         lambda: tournament(transitive, "transitive")),
    ]


@pytest.mark.parametrize("wrong", ["off the walk", "out of range"])
def test_a_wrong_edge_fails_the_move_that_took_it(monkeypatch, wrong):
    """Each move checks the walk it builds: with _edge_to giving an edge
    that touches neither end, or no edge of g, the move raises
    MergeInternalError naming itself."""
    for move, g, call in move_cases():
        merged = call()
        assert merged.vset == frozenset(range(len(g.vertices) - 2))
    monkeypatch.setattr(
        merge_module, "_edge_to",
        lambda g, u, v, c: g.pos["z0"] if wrong == "off the walk"
        else len(g.edges))
    for move, g, call in move_cases():
        with pytest.raises(MergeInternalError,
                           match=f"^{move} merge fails verification: "):
            call()


@pytest.mark.parametrize("g, question", [
    (generate("mclosed_blowup", seed=244, n=20), "hamiltonian"),
    (generate("mclosed_blowup", seed=37, n=50), "supereulerian"),
    (three_digons(TRIANGLE), "supereulerian"),
    (three_digons(TRANSITIVE), "supereulerian"),
])
def test_a_wrong_edge_is_an_internal_error_through_the_cli(
        monkeypatch, g, question):
    monkeypatch.setattr(merge_module, "_edge_to",
                        lambda g, u, v, c: len(g.edges))
    res = CliRunner().invoke(main, [question, "-"],
                             input=serialize_graph(g))
    assert isinstance(res.exception, MergeInternalError)
    assert " merge fails verification: " in str(res.exception)
    assert res.exit_code not in (0, 3, 4, 5)


def fragmented_factor(seed):
    """(g, parts), or None: g is an M-closed closure of a random_2ec
    graph (even seeds) or an mclosed_blowup graph (odd seeds), cut into
    2-4 random blocks, trail-colour-connected, and each block has an
    eulerian factor: parts are the closed trails of all those factors."""
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
            return None
        parts += [t for _, t in ef.parts]
    if is_trail_colour_connected(g).connected:
        return g, parts
    return None


def fragmented_factors(graphs):
    """`fragmented_factor` of every seed below `graphs` that gives one."""
    for seed in range(graphs):
        case = fragmented_factor(seed)
        if case is not None:
            yield case


@pytest.fixture(scope="module")
def fragmented():
    """`fragmented_factors(5000)`, built once for the tests that read it."""
    return list(fragmented_factors(5000))


def test_merge_factor_on_fragmented_factors(exchanges, fragmented):
    factors = 0
    for g, parts in fragmented:
        factors += 1
        t = merge_factor(g, parts)
        assert not isinstance(t, AlternatingCycle)
        assert verify_witness(g, t)
        assert t.vertex_set(g) == set(g.vertices)
    assert factors >= 50
    # chord merges, and seed 4390's merge after a rotation
    assert exchanges.count(False) > 0
    assert exchanges.count(True) > 0


def test_chord_exchange_merges_every_similar_pair(monkeypatch, fragmented):
    """A splice at a cross pair similar within the pair's union is a
    chord exchange: the pivots' joins to each other's predecessors are
    the exchange's two chords.  Wherever such a pair exists, among the
    trail pairs and the pairs the merge loop meets in fragmented
    factors, the exchange without rotation merges the pair into a walk
    spanning the union, a cycle for two cycles."""
    met = []

    def spy(g, a, b, _pair=_pair):
        met.append((g, a.as_cycle(g), b.as_cycle(g)))
        return _pair(g, a, b)

    monkeypatch.setattr(merge_module, "_pair", spy)
    for g, parts in fragmented:
        merge_factor(g, parts)
    checked = 0
    for g, T1, T2 in itertools.chain(split_trail_pairs(3000),
                                     digon_pattern_pairs(), met):
        if similar_cross_pair(g, T1, T2) is None:
            continue
        checked += 1
        a, b = _Cyc.of(g, T1), _Cyc.of(g, T2)
        merged = exchange(g, a, b, False)
        assert merged is not None
        assert merged.vset == a.vset | b.vset
        assert merged.cycle == (a.cycle and b.cycle)
        assert verify_witness(g, merged.as_cycle(g))
    assert checked >= 10


def test_rotation_merge_checks_the_trail_it_builds(monkeypatch, exchanges):
    # seed 4390 pairs the closed trail v1 v4 v0 v4 with the digon v3 v2:
    # the chords do not apply as they stand and neither dominates, but
    # rotating the trail's path at the chord v0-v1 lets the chords close
    g, parts = fragmented_factor(4390)
    t = merge_factor(g, parts)
    assert exchanges == [True] and verify_witness(g, t)
    assert t.vertex_set(g) == set(g.vertices)
    # a wrong edge in the rotation merge is the package's fault
    monkeypatch.setattr(merge_module, "_edge_to",
                        lambda g, u, v, c: len(g.edges))
    with pytest.raises(MergeInternalError,
                       match="^rotation merge fails verification: "):
        merge_factor(g, parts)


def rotation_closure(seed):
    """The M-closed closure of a random_2ec graph on 4-9 vertices."""
    n = 4 + seed % 6
    return m_closure(generate("random_2ec", seed=seed, n=n,
                              m=n + seed % (2 * n + 1)),
                     "seeded_random", seed=seed)


# the closures, up to seed 20000, whose decisions need a rotation
@pytest.mark.parametrize("seed", [1468, 2272, 4450, 5822, 7304, 9158,
                                  15104, 18446])
def test_rotation_merges_agree_with_the_oracles(exchanges, seed):
    g = rotation_closure(seed)
    wide = OracleBudget(max_vertices=9, max_edges=80, seconds=60)
    for decide, oracle in ((supereulerian, oracle_supereulerian),
                           (alternating_hamiltonian_cycle,
                            oracle_ham_alternating)):
        res = decide(g)
        walk = res.witness
        assert (walk is not None) == (oracle(g, wide) is not None)
        if walk is not None:
            assert verify_witness(g, walk)
            assert walk.vertex_set(g) == set(g.vertices)
    assert True in exchanges


def test_rotation_merges_pairs_beyond_any_search():
    """Seed 4390's pair lifted with v2 and v3 five times: the trail
    stays, the digon becomes a 10-cycle, and the 13-vertex union
    merges."""
    g, (t1, t2) = fragmented_factor(4390)
    h = blow_up(g, {v: 5 if v in ("v2", "v3") else 1 for v in g.vertices})
    c2 = AlternatingCycle("v3.0", tuple(
        f"e{1 + k % 2}.{(k + 1) // 2 % 5}.{k // 2}" for k in range(10)))
    t1 = AlternatingTrail("v1.0", tuple(f"{e}.0.0" for e in t1.edge_ids),
                          closed=True)
    assert _check_trail(h, c2, cycle=True)[0] and verify_witness(h, t1)
    assert len(h.vertices) == 13 and Analysis.of(h).ext is not None
    out = merge_cycles(h, t1, c2)
    assert isinstance(out, Merged) and verify_witness(h, out.cycle)
    assert out.cycle.vertex_set(h) == set(h.vertices)


def test_rotation_merges_a_14_vertex_extension_through_the_cli():
    """`ecgraph random --model random_2ec --seed 9158 --n 6 --m 12`,
    closed under M with seeded_random colours and seed 9158, then blown
    up with v0-v3 three times: 14 vertices and 97 edges."""
    runner = CliRunner()
    doc = runner.invoke(main, ["random", "--model", "random_2ec",
                               "--seed", "9158", "--n", "6", "--m", "12"])
    for step in (["mclosure", "-", "--colour-policy", "seeded_random",
                  "--seed", "9158"],
                 ["blowup", "-", "--mult", "v0=3,v1=3,v2=3,v3=3"]):
        doc = runner.invoke(main, ["transform"] + step, input=doc.output)
        assert doc.exit_code == 0
    g = parse_graph(doc.output)
    assert (len(g.vertices), len(g.edges)) == (14, 97)
    for question, kind in (("supereulerian", AlternatingTrail),
                           ("hamiltonian", AlternatingCycle)):
        res = runner.invoke(main, [question, "-"], input=doc.output)
        assert res.exit_code == 0, res.output
        w = json.loads(res.output)
        assert w["kind"] == ("cycle" if kind is AlternatingCycle
                             else "trail")
        walk = kind(w["start"], tuple(w["edges"]), closed=True)
        assert verify_witness(g, walk)
        assert walk.vertex_set(g) == set(g.vertices)


class TestBipartiteDigraph:
    def test_round_trip_structure(self):
        g = generate("complete_bipartite", seed=7, n1=3, n2=3)
        back = bb_from_digraph(bb_to_digraph(g))
        assert sorted(back.vertices) == sorted(g.vertices)
        key = lambda e: (e.id, frozenset((e.u, e.v)), e.colour)
        assert sorted(map(key, back.edges)) == sorted(map(key, g.edges))

    def test_directed_four_cycle(self):
        d = BipartiteDigraph(("x1", "x2"), ("y1", "y2"),
                             (("a1", "x1", "y1"), ("a2", "y1", "x2"),
                              ("a3", "x2", "y2"), ("a4", "y2", "x1")))
        g = bb_from_digraph(d)
        cols = [g.edge(f"a{i}").colour for i in (1, 2, 3, 4)]
        assert cols == [RED, BLUE, RED, BLUE]
        assert oracle_ham_alternating(g) is not None

    def test_first_vertex_of_each_component_on_x(self):
        # components {a, d} and {b, c}: a and b go on side X, each part
        # in vertex order, and each edge becomes an arc out of its X end
        # if red, out of its Y end if blue
        g = build_graph(list("abcd"), [("b", "c", RED), ("a", "d", BLUE),
                                       ("d", "a", RED)])
        assert bb_to_digraph(g) == BipartiteDigraph(
            ("a", "b"), ("c", "d"),
            (("e0", "b", "c"), ("e1", "d", "a"), ("e2", "a", "d")))

    def test_non_bipartite_rejected(self):
        with pytest.raises(GraphError, match="not bipartite"):
            bb_to_digraph(fixture("needall_h"))

    @pytest.mark.parametrize("tail, head", [("x1", "x2"), ("y2", "y1")])
    def test_arc_inside_one_side_rejected(self, tail, head):
        d = BipartiteDigraph(("x1", "x2"), ("y1", "y2"),
                             (("a1", "x1", "y1"), ("a2", tail, head)))
        with pytest.raises(GraphError, match="arc 'a2' does not cross"):
            bb_from_digraph(d)

    @pytest.mark.parametrize("tail, head, unknown", [
        ("z", "q", "z"), ("x1", "q", "q"), ("q", "y1", "q")])
    def test_arc_with_an_unknown_end_rejected(self, tail, head, unknown):
        # the first unknown name in document order: the tail, then the head
        d = BipartiteDigraph(("x1", "x2"), ("y1", "y2"),
                             (("a1", "x1", "y1"), ("a2", tail, head)))
        with pytest.raises(GraphError) as exc:
            bb_from_digraph(d)
        assert str(exc.value) == f"arc 'a2': unknown vertex {unknown!r}"


class TestDecideCompleteBipartite:
    def test_requires_complete_bipartite(self):
        with pytest.raises(UnsupportedClass):
            decide_complete_bipartite(fixture("cmg_example"), "hamiltonian")

    def test_all_red_k22_negative(self):
        g = build_graph(["a1", "a2", "b1", "b2"],
                        [("a1", "b1", RED), ("a1", "b2", RED),
                         ("a2", "b1", RED), ("a2", "b2", RED)])
        sup = decide_complete_bipartite(g, "supereulerian")
        ham = decide_complete_bipartite(g, "hamiltonian")
        assert not sup.answer and not ham.answer
        # all red, it is a blow-up of one red edge, decided by that
        # route: no factor, and not colour-connected either
        assert sup.route == ham.route == "extension"
        assert not Analysis.of(g).cc.connected

    def test_alternating_k22_positive(self):
        g = build_graph(["a1", "a2", "b1", "b2"],
                        [("a1", "b1", RED), ("b1", "a2", BLUE),
                         ("a2", "b2", RED), ("b2", "a1", BLUE)])
        assert decide_complete_bipartite(g, "supereulerian").answer
        assert decide_complete_bipartite(g, "hamiltonian").answer


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
        assert verify_witness(g, res.witness)
        assert res.witness.vertex_set(g) == set(g.vertices)
