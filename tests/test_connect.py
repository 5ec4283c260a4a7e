import contextlib
import random
import signal

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import ecgraph.analysis
import ecgraph.connect
from ecgraph import (
    BLUE,
    RED,
    AlternatingCycle,
    AlternatingTrail,
    Analysis,
    OracleBudget,
    Edge,
    EdgeColouredMultigraph,
    GraphError,
    UnsupportedClass,
    alternating_cycle_factor,
    alternating_path,
    alternating_trail,
    build_graph,
    complete_multipartite_classes,
    is_colour_connected,
    is_trail_colour_connected,
    oracle_alternating_path,
    oracle_alternating_trail,
    oracle_colour_connected,
    oracle_ham_alternating,
    oracle_trail_colour_connected,
    verify_witness,
)
from ecgraph.cli import decide, main
from ecgraph.connect import ConnectivityReport, _PathQuery, _TrailQuery
from ecgraph.matching import IndexedGraph
from ecgraph.core import BadWalk, serialize_graph
from ecgraph.structure import blow_up, similarity_partition
from ecgraph.reductions import fixture, generate

from test_atlas import FAMILIES, _graphs
from reference import (
    RefIndexedGraph,
    rand_multigraph,
    ref_check,
    ref_cycle_read_back,
    ref_cycle_split,
    ref_path_read_back,
    ref_path_split,
    ref_trail_read_back,
    trail_to_path_complete_multipartite,
)


def rand_graph(seed, n_max=6, m_max=12):
    rng = random.Random(seed)
    return generate("random_2ec", seed=seed, n=rng.randint(2, n_max),
                    m=rng.randint(1, m_max))


class TestPathQueries:
    def test_single_edge(self):
        g = build_graph(["a", "b"], [("a", "b", RED)])
        p = alternating_path(g, "a", "b", RED)
        assert p is not None and len(p.edge_ids) == 1
        assert alternating_path(g, "a", "b", BLUE) is None

    def test_prescribed_end_colour(self):
        g = build_graph(["a", "b", "c"], [("a", "b", RED), ("b", "c", BLUE)])
        assert alternating_path(g, "a", "c", RED, BLUE) is not None
        assert alternating_path(g, "a", "c", RED, RED) is None

    def test_same_endpoints_rejected(self):
        g = build_graph(["a", "b"], [("a", "b", RED)])
        with pytest.raises(ValueError):
            alternating_path(g, "a", "a", RED)

    def test_path_is_simple(self):
        g = fixture("efig")
        for c in (RED, BLUE):
            p = alternating_path(g, "v1", "v6", c)
            if p is not None:
                seq = p.vertex_sequence(g)
                assert len(seq) == len(set(seq))


@pytest.mark.parametrize("query", [
    alternating_path, alternating_trail, oracle_alternating_path,
    oracle_alternating_trail])
def test_unknown_vertex_raises_graph_error(query):
    g = fixture("efig")
    with pytest.raises(GraphError, match="unknown vertex 'a'"):
        query(g, "a", "v1", RED)
    with pytest.raises(GraphError, match="unknown vertex 'a'"):
        query(g, "v1", "a", RED)


class TestTrailQueries:
    def test_trail_where_no_path(self):
        # blue-first works via the direct edge, red-first dead-ends at u
        g = fixture("needall_g")
        assert alternating_trail(g, "x1", "x2", BLUE) is not None
        assert alternating_trail(g, "x1", "x2", RED) is None

    def test_trail_end_vertex(self):
        g = fixture("halfm")
        t = alternating_trail(g, "a", "h", RED)
        assert t is not None and t.end(g) == "h"
        assert verify_witness(g, t)


class TestConnectivity:
    def test_needs_two_vertices(self):
        # out of class, and still a ValueError for callers catching that
        assert issubclass(UnsupportedClass, ValueError)
        g = build_graph(["a"], [])
        for sweep in (is_colour_connected, is_trail_colour_connected):
            with pytest.raises(UnsupportedClass):
                sweep(g)
        # a bipartite graph's digraph sweep refuses it as the sweeps do
        for fact in ("cc", "tcc"):
            with pytest.raises(UnsupportedClass,
                               match="connectivity needs at least two"):
                getattr(Analysis.of(g), fact)

    def test_counterexample_is_first_in_declaration_order(self):
        g = fixture("needall_g")
        rep = is_trail_colour_connected(g)
        assert not rep.connected
        assert rep.counterexample == ("x1", "x2", RED)

    def test_quotient_sweeps_match_direct_sweeps(self):
        # the memo sweeps a large extension's smaller M-closed base in
        # its place; no proof covers that, so check it against sweeping
        # the graph itself
        seen = set()
        for seed in range(100):
            g = generate("mclosed_blowup", seed=seed, n=13 + seed % 4)
            a = Analysis.of(g)
            if a.swept is g:
                continue
            cc = is_colour_connected(g).connected
            tcc = is_trail_colour_connected(g).connected
            assert (a.cc.connected, a.tcc.connected) == (cc, tcc), seed
            seen.add(cc)
        assert seen == {True, False}


# rand_graph(17271, n_max=5, m_max=8) has no blue-first alternating
# (v1, v4)-path, but with v3 doubled, v1 -b- v3.0 -r- v0 -b- v2 -r- v3.1
# -b- v4 is one: a blow-up outside the extension class can gain
# colour-connectivity, so it must not be swept on its quotient
@pytest.mark.parametrize("mult", [(3, 3, 3, 3, 3), (2, 2, 3, 3, 3)])
def test_blow_up_outside_class_is_swept_directly(mult):
    h = blow_up(rand_graph(17271, n_max=5, m_max=8),
                dict(zip([f"v{i}" for i in range(5)], mult)))
    assert len(h.vertices) > 12 and Analysis.of(h).ext is None
    assert Analysis.of(h).cc.connected
    res = CliRunner().invoke(main, ["connectivity", "-"],
                             input=serialize_graph(h))
    assert res.exit_code == 0, res.output
    assert is_colour_connected(h).connected


def blown_up_quotient(seed, n, mult):
    """The M-closed quotient of mclosed_blowup (seed, n), blown up by
    the multiplicities mult."""
    q = similarity_partition(generate("mclosed_blowup", seed=seed, n=n)
                             ).quotient
    return blow_up(q, dict(zip(q.vertices, mult)))


# blow-ups of the M-closed quotient of mclosed_blowup (seed, n), with
# these multiplicities, that are colour-connected over a base that is
# not: a path of the blow-up may pass through two copies of one vertex
BASE_NO_NOT_CONFIRMED = [
    (1312, 9, (1, 3, 2, 2, 2, 4)), (2253, 6, (3, 3, 3, 4, 3)),
    (4717, 6, (3, 1, 3, 3, 5)), (5828, 6, (2, 2, 4, 3, 3))]


@pytest.mark.parametrize("seed, n, mult", BASE_NO_NOT_CONFIRMED)
def test_base_no_is_confirmed_on_the_graph(seed, n, mult):
    g = blown_up_quotient(seed, n, mult)
    a = Analysis.of(g)
    assert a.swept is not g and not is_colour_connected(a.swept).connected
    budget = OracleBudget(max_vertices=len(g.vertices),
                          max_edges=len(g.edges), seconds=60)
    assert a.cc.connected == is_colour_connected(g).connected \
        == oracle_colour_connected(g, budget)
    assert a.tcc == is_trail_colour_connected(g)
    assert a.tcc.connected == oracle_trail_colour_connected(g, budget)
    d = decide("hamiltonian", g, max_n=0)
    assert d.answer == (oracle_ham_alternating(g, budget) is not None)
    if seed == 1312:
        assert d.answer and isinstance(d.witness, AlternatingCycle)
    if d.answer:
        assert verify_witness(g, d.witness)
        assert d.witness.vertex_set(g) == set(g.vertices)


def query_spy(monkeypatch, make, g):
    """The graphs that Analysis builds `make` query objects on, g
    standing for itself and any other graph for None, in order."""
    built = []

    def spied(h):
        built.append(h if h is g else None)
        return make(h)

    monkeypatch.setattr(ecgraph.analysis, make.__name__, spied)
    return built


def test_base_no_from_a_colourless_start_needs_no_query(monkeypatch):
    # the base's failing triple starts at v0.0 in red, and v0.0 has no
    # red edge in g either, so no path or trail of g leaves it in red:
    # the base "no" stands without a query object built on g
    g = generate("mclosed_blowup", seed=23, n=69)
    built = [query_spy(monkeypatch, make, g)
             for make in (_PathQuery, _TrailQuery)]
    a = Analysis.of(g)
    assert a.swept is not g and g.degree("v0.0", RED) == 0
    for rep, sweep in ((a.cc, is_colour_connected),
                       (a.tcc, is_trail_colour_connected)):
        assert rep.counterexample == ("v0.0", "v1.0", RED)
        assert not rep.connected and not sweep(g).connected
    # one query object each, on the base
    assert built == [[None], [None]]


def test_a_base_no_not_confirmed_builds_one_query_on_the_graph(
        monkeypatch):
    # seed 1312's blow-up is colour-connected over a base that is not:
    # g's path query object answers the base's triple with `reaches`,
    # and the sweep of g goes on with that same object; no witness is
    # read back
    def forced(*args):
        raise AssertionError("witness read back")

    monkeypatch.setattr(_PathQuery, "positions", forced)
    g = blown_up_quotient(*BASE_NO_NOT_CONFIRMED[0])
    built = query_spy(monkeypatch, _PathQuery, g)
    a = Analysis.of(g)
    assert len(g.vertices) == 14 and a.swept is not g
    assert a.cc.connected and not Analysis.of(a.swept).cc.connected
    assert built == [None, g]


# Analysis.tcc on the quotient route, as computed by a full trail sweep
# of every swept graph: each trail sweep may resume only at the failing
# triple of the same graph's path sweep.  (spec, cc's, tcc's triple)
QUOTIENT_ROUTE = [
    # base path and trail sweeps fail at one triple, confirmed on g
    (("mclosed_blowup", 0, 13), ("v0.0", "v1.0", RED),
     ("v0.0", "v1.0", RED)),
    (("mclosed_blowup", 1, 13), ("v0.0", "v1.0", BLUE),
     ("v0.0", "v1.0", BLUE)),
    # the base path "no" is confirmed, so g's path sweep never runs,
    # and the base trail "no" is not: g's trail sweep starts at the
    # first triple, not at the base's path triple (v0.0.0, v1.0.0, blue)
    (("blow_up", 9227, 8, (3, 4, 2, 3, 1)), ("v0.0.0", "v1.0.0", BLUE),
     ("v0.0.0", "v0.0.1", RED)),
    # neither base "no" is confirmed: g's trail sweep resumes at g's
    # own path triple
    (("blow_up", 9227, 6, (4, 4, 3, 4, 3)), ("v0.0.0", "v0.0.1", RED),
     ("v0.0.0", "v0.0.1", RED)),
    # g's path sweep fails; the base's trail sweep resumes at the
    # base's path triple and its "no" is confirmed on g
    (("blow_up", 5785, 7, (4, 4, 4, 2, 2)), ("v0.0.0", "v0.0.1", BLUE),
     ("v0.0.0", "v2.0.0", BLUE)),
    # the base path "no" is confirmed, so g's path sweep never runs;
    # the base's resumed trail sweep answers yes, which lifts to g
    (("blow_up", 5828, 6, (4, 2, 1, 3, 4)), ("v0.0.0", "v1.0.0", BLUE),
     None),
] + [(("blow_up",) + spec, None, None) for spec in BASE_NO_NOT_CONFIRMED]


@pytest.mark.parametrize("spec, cc, tcc", QUOTIENT_ROUTE)
def test_quotient_route_reports_are_pinned(spec, cc, tcc):
    g = (generate(spec[0], seed=spec[1], n=spec[2])
         if spec[0] == "mclosed_blowup" else blown_up_quotient(*spec[1:]))
    a = Analysis.of(g)
    assert a.swept is not g
    assert a.cc == ConnectivityReport(cc is None, cc)
    assert a.tcc == ConnectivityReport(tcc is None, tcc)


class TestDerivedTrailConnectivity:
    """Analysis.tcc runs no trail sweep on a colour-connected graph and
    otherwise starts it at the path sweep's failing triple; it must
    answer as the full trail sweep does."""

    def test_matches_the_full_trail_sweep(self):
        cc, cc_not_tcc, later = 0, [], 0
        for seed in range(300):
            g = generate("random_2ec", seed=seed, n=8, m=16)
            a = Analysis.of(g)
            full = is_trail_colour_connected(g)
            assert a.tcc == full, seed
            if a.cc.connected:
                cc += 1
            elif full.connected:
                cc_not_tcc.append(seed)
            elif full.counterexample != a.cc.counterexample:
                later += 1
        assert (cc, cc_not_tcc, later) == (24, [55, 100, 160], 35)

    def test_colour_connected_graph_builds_no_trail_query(self, monkeypatch):
        def forced(self, g):
            raise AssertionError("trail query built")

        monkeypatch.setattr(_TrailQuery, "__init__", forced)
        a = Analysis.of(generate("random_2ec", seed=2, n=30, m=120))
        assert a.tcc.connected and a.cc.connected

    # random_2ec n=8 m=16: the path sweep fails at the first triple, or
    # at a later one
    @pytest.mark.parametrize("seed, path, trail", [
        (10, ("v0", "v1", RED), ("v7", "v0", RED)),
        (17, ("v1", "v3", RED), ("v3", "v0", RED))])
    def test_trail_sweep_starts_at_the_path_counterexample(
            self, monkeypatch, seed, path, trail):
        asked = []
        reaches = _TrailQuery.reaches

        def spy(self, x, y, start):
            asked.append((x, y, start))
            return reaches(self, x, y, start)

        monkeypatch.setattr(_TrailQuery, "reaches", spy)
        g = generate("random_2ec", seed=seed, n=8, m=16)
        a = Analysis.of(g)
        assert a.cc.counterexample == path
        assert a.tcc.counterexample == trail
        u, v, c = path
        assert asked[0] == (g.index[u], g.index[v], c.bit)


def corrupt_searches(monkeypatch, corrupt):
    """Make every single-source search, stopped or completed, return p
    as `corrupt(p, root)` changes it in place."""
    search = IndexedGraph.search

    def corrupted(self, root, *rule):
        outer, p, match = search(self, root, *rule)
        corrupt(p, root)
        return outer, p, match

    monkeypatch.setattr(IndexedGraph, "search", corrupted)


# a -e0 red- c -e1 blue- b: the first triple of either sweep, (a, b,
# red), has its one path through c, so the search from a's red copy
# hangs b's blue node from c's red node, and that from the root node
PATH_ACB = build_graph(["a", "b", "c"],
                       [("a", "c", RED), ("c", "b", BLUE)])


def hang_b_from_the_root(make):
    """Hang b's blue node where c's red node hangs, from the root node,
    along a step that is no edge of g from a to b."""
    def corrupt(p, root):
        if root == 0:
            b, c = make.STRIDE + 1, 2 * make.STRIDE
            p[b] = p[c]
    return corrupt


def hang_b_from_itself(make):
    """Close b's blue node's chain into a loop that misses the root."""
    def corrupt(p, root):
        if root == 0:
            b = make.STRIDE + 1
            if make is _PathQuery:
                p[b] = b ^ 1
            else:
                p[p[b] ^ 1] = b ^ 1
    return corrupt


class TestQueryObjects:
    @pytest.mark.parametrize("make", [_PathQuery, _TrailQuery])
    def test_reused_query_answers_do_not_depend_on_order(self, make):
        # mask or reset state leaking from one query into the next would
        # make an answer depend on the queries asked before it
        found = set()
        for seed in range(4):
            g = generate("random_2ec", seed=seed, n=6, m=9)
            q = make(g)
            keys = [(u, v, c, e) for u in g.vertices for v in g.vertices
                    if u != v for c in (RED, BLUE) for e in (None, RED, BLUE)]
            forward = {k: q(*k) is None for k in keys}
            shuffled = keys[:]
            random.Random(seed).shuffle(shuffled)
            assert {k: q(*k) is None for k in shuffled} == forward
            found |= set(forward.values())
        assert found == {True, False}

    def test_failed_witness_check_raises(self, monkeypatch):
        # an explicit check, not an assert, so it holds under python -O
        def forced(self, x, ks):
            raise BadWalk("forced", -1)

        monkeypatch.setattr(EdgeColouredMultigraph, "walk", forced)
        g = build_graph(["a", "b"], [("a", "b", RED), ("a", "b", BLUE)])
        with pytest.raises(GraphError, match="forced"):
            alternating_path(g, "a", "b", RED)
        with pytest.raises(GraphError, match="forced"):
            alternating_trail(g, "a", "b", BLUE)

    @pytest.mark.parametrize("corrupt", [hang_b_from_the_root,
                                         hang_b_from_itself])
    @pytest.mark.parametrize("sweep, make", [
        (is_colour_connected, _PathQuery),
        (is_trail_colour_connected, _TrailQuery)])
    def test_failed_tree_check_raises(self, monkeypatch, sweep, make,
                                      corrupt):
        # the sweeps check each search's tree, not each triple's walk;
        # an outer copy whose node fails it is an internal error, never
        # a no, and the check is explicit, so it holds under python -O
        assert sweep(PATH_ACB).counterexample == ("a", "b", BLUE)
        corrupt_searches(monkeypatch, corrupt(make))
        with pytest.raises(GraphError,
                           match="'a'-'b' witness fails the search tree"):
            sweep(PATH_ACB)

    @pytest.mark.parametrize("corrupt", [hang_b_from_the_root,
                                         hang_b_from_itself])
    @pytest.mark.parametrize("query, make", [
        (alternating_path, _PathQuery),
        (alternating_trail, _TrailQuery)])
    def test_single_query_on_a_failed_tree_raises(self, monkeypatch, query,
                                                  make, corrupt):
        # a single query climbs its search tree with the sweeps' check,
        # so a chain that loops, or a step along no edge of g, raises
        # GraphError at once; the alarm bounds a climb that never ends
        assert query(PATH_ACB, "a", "b", RED) is not None
        corrupt_searches(monkeypatch, corrupt(make))
        with within_seconds(1), pytest.raises(
                GraphError, match="'a'-'b' witness fails the search tree's"):
            query(PATH_ACB, "a", "b", RED)

    # a, b, c: e0 a-b red, e1 a-c red, e2 c-b blue, e3 a-b blue,
    # e4 a-b red, at positions 0-4
    CHECKED = build_graph(["a", "b", "c"],
                          [("a", "b", RED), ("a", "c", RED), ("c", "b", BLUE),
                           ("a", "b", BLUE), ("a", "b", RED)])

    @staticmethod
    def feed(monkeypatch, ks):
        """Make every single query's tree check pass and collect the
        edge positions ks of g (not of a split graph), first edge
        first, as its witness."""
        for make in (_PathQuery, _TrailQuery):
            monkeypatch.setattr(make, "_settle",
                                lambda self, a, outer, p, state, collected:
                                collected.extend(ks) or 0)

    def test_witness_ending_elsewhere_raises(self, monkeypatch):
        # a valid trail, but from a to c
        self.feed(monkeypatch, (1,))
        with pytest.raises(GraphError, match="ends at 'c'"):
            alternating_path(self.CHECKED, "a", "b", RED)
        with pytest.raises(GraphError, match="ends at 'c'"):
            alternating_trail(self.CHECKED, "a", "b", RED)

    @pytest.mark.parametrize("query", [alternating_path, alternating_trail])
    def test_witness_with_wrong_start_colour_raises(self, monkeypatch, query):
        self.feed(monkeypatch, (3,))
        with pytest.raises(GraphError, match="starts with"):
            query(self.CHECKED, "a", "b", RED)

    @pytest.mark.parametrize("query", [alternating_path, alternating_trail])
    def test_witness_with_wrong_end_colour_raises(self, monkeypatch, query):
        self.feed(monkeypatch, (1, 2))
        with pytest.raises(GraphError, match="ends with"):
            query(self.CHECKED, "a", "b", RED, RED)

    @pytest.mark.parametrize("query", [alternating_path, alternating_trail])
    @pytest.mark.parametrize("ks, problem", [
        ((0, 1), "edge 'e1' does not continue the walk"),
        ((0, 4), "colours do not alternate at edge 'e4'"),
        ((0, 3, 0), "edge repeated"),
        ((0, 99), "unknown edge id 99"),
    ])
    def test_broken_witness_raises(self, monkeypatch, query, ks, problem):
        self.feed(monkeypatch, ks)
        with pytest.raises(GraphError, match=f"fails verification: {problem}"):
            query(self.CHECKED, "a", "b", RED)

    def test_path_witness_revisiting_a_vertex_raises(self, monkeypatch):
        self.feed(monkeypatch, (0, 3, 4))
        with pytest.raises(GraphError, match="revisits"):
            alternating_path(self.CHECKED, "a", "b", RED)
        # a trail may revisit a vertex
        t = alternating_trail(self.CHECKED, "a", "b", RED)
        assert t.edge_ids == ("e0", "e3", "e4")

    # a -e0 red- b -e1 blue- c -e2 red- d -e3 blue- b, e4 b-z red: the
    # walk e0 e1 e2 e3 e4 revisits b, the walk e0 e1 e2 e3 e0 takes e0
    # twice, the second time from b back to a
    LOOPED = build_graph(["a", "b", "c", "d", "z"],
                         [("a", "b", RED), ("b", "c", BLUE), ("c", "d", RED),
                          ("d", "b", BLUE), ("b", "z", RED)])

    @staticmethod
    def hand_tree(q, walk):
        """outer, p and the fresh state of a search from vertex 0's red
        copy whose tree has one chain, along the edge positions `walk`,
        and the node the chain ends at.  In a trail's split graph it
        takes a vertex's second copy where its first is taken or is the
        root, and crosses edge k by the helper at the end it reaches."""
        g = q.g
        stride, base = q.STRIDE, q.STRIDE * len(g.vertices)
        size = len(q._split.adj)
        outer, p = [False] * size, [-1] * size
        outer[0] = True
        state = [None] * base
        state[1] = 0
        node, x = 1, 0
        for k in walk:
            w = g.ev[k] if g.eu[k] == x else g.eu[k]
            a = stride * w + g.bit[k]
            if stride == 4:
                a += 2 * (p[a] >= 0 or a == 0)
                h = base + 2 * k + (w == g.ev[k])
                p[a], p[h ^ 1] = h, node ^ 1
                outer[h] = True
            else:
                p[a] = node ^ 1
            outer[node ^ 1] = outer[a ^ 1] = True
            node, x = a, w
        return outer, p, state, node

    # a search labels p[a] outer for each node a; the path chain e0 e1
    # e2 e3 e4 leaves b's red copy 2 by e1, and the trail chain e0 e1 e2
    # e3 e0 arrives at a by e0's helper 20 = 4n
    @pytest.mark.parametrize("make, walk, unlabelled, checked", [
        (_PathQuery, (0, 1, 2), None, True),
        (_PathQuery, (0, 1, 2, 3, 4), None, False),
        (_PathQuery, (0, 1, 2, 3, 4), 2, False),
        (_TrailQuery, (0, 1, 2, 3, 4), None, True),
        (_TrailQuery, (0, 1, 2, 3, 0), None, False),
        (_TrailQuery, (0, 1, 2, 3, 0), 20, False)])
    def test_tree_check_keeps_paths_simple_and_trails_edge_distinct(
            self, make, walk, unlabelled, checked):
        q = make(self.LOOPED)
        outer, p, state, last = self.hand_tree(q, walk)
        if unlabelled is not None:
            outer[unlabelled] = False
        assert (q._settle(last, outer, p, state) >= 0) is checked
        if unlabelled is None:
            # the chain's first three steps are a path, checked on the
            # way, whatever fails below them
            _, _, _, third = self.hand_tree(q, walk[:3])
            assert state[third] >= 0

    # a-b red is edge 0 of g; the first-edge tables of `other`, put in
    # g's place, and the split graph of `other` give it position 1, a-c
    # red in g (its colour, other ends), or position 2, which g does not
    # have
    @pytest.mark.parametrize("other", [
        [("a", "c", RED), ("a", "b", RED)],
        [("a", "c", RED), ("a", "c", BLUE), ("a", "b", RED)]])
    @pytest.mark.parametrize("sweep, make", [
        (is_colour_connected, _PathQuery),
        (is_trail_colour_connected, _TrailQuery)])
    def test_tree_check_reads_g_not_the_split_graph(
            self, monkeypatch, sweep, make, other):
        g = build_graph(["a", "b", "c"], [("a", "b", RED), ("a", "c", RED)])
        h = build_graph(["a", "b", "c"], other)
        g._first = h.first_edges()
        split = make._split_graph
        monkeypatch.setattr(make, "_split_graph",
                            staticmethod(lambda _: split(h)))
        with pytest.raises(GraphError,
                           match="'a'-'b' witness fails the search tree"):
            sweep(g)

    def test_sweep_checks_each_search_tree_once(self, monkeypatch):
        # each node of a search tree is checked once, against g's own
        # colour bits: one read of g.bit per node settled, none from
        # the split graph's build, and a full sweep checks 2·n trees
        states = []
        for make in (_PathQuery, _TrailQuery):
            init, search = make.__init__, make._search

            def counted(self, g, init=init):
                init(self, g)
                monkeypatch.setattr(g, "bit", CountedList(g.bit))

            def kept(self, root, search=search):
                s = search(self, root)
                states.append((self.g, s[2]))
                return s

            monkeypatch.setattr(make, "__init__", counted)
            monkeypatch.setattr(make, "_search", kept)
        g = fixture("halfm")
        n = len(g.vertices)
        for sweep in (is_colour_connected, is_trail_colour_connected):
            states.clear()
            assert sweep(g).connected
            assert all(graph is g for graph, _ in states)
            trees = {id(state): state for _, state in states}
            assert len(trees) == 2 * n
            # the root node of each tree is settled from the start
            settled = sum(len(state) - state.count(None) - 1
                          for state in trees.values())
            assert g.bit.reads == settled
            monkeypatch.setattr(g, "bit", list(g.bit))

    def test_sweep_reads_each_tree_edge_once_per_search(self, monkeypatch):
        # on an alternating cycle a triple's path has up to n - 1 edges,
        # and reading each back apart took 2·n·(n - 1) triples times
        # that (990,000 split-edge lookups at n = 100); each search's
        # tree has fewer than 2·n nodes, each looked up once
        n = 100
        vs = [f"v{i}" for i in range(n)]
        g = build_graph(vs, [(vs[i], vs[(i + 1) % n], (RED, BLUE)[i % 2])
                             for i in range(n)])
        lookups = []

        class Counted(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        first_edges = EdgeColouredMultigraph.first_edges
        monkeypatch.setattr(EdgeColouredMultigraph, "first_edges",
                            lambda self: [tuple(map(Counted, t))
                                          for t in first_edges(self)])
        assert is_colour_connected(g).connected
        assert lookups
        assert len(lookups) <= 4 * n * n


@contextlib.contextmanager
def within_seconds(t):
    """Raise TimeoutError in the body once it has run t seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {t} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, t)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("make, read_back", [
    (_PathQuery, ref_path_read_back),
    (_TrailQuery, ref_trail_read_back)])
def test_positions_match_the_reference_read_back(make, read_back):
    # a single query collects its positions in the tree check; the
    # walker that read them back on its own gives the same on each search
    graphs = [generate("random_2ec", seed=s, n=4 + s, m=2 * (4 + s))
              for s in range(3)]
    graphs += [generate("mclosed_blowup", seed=s, n=5 + s) for s in range(3)]
    graphs += [generate("complete_bipartite", seed=s, n1=2 + s, n2=3)
               for s in range(3)]
    found = missing = 0
    for g in graphs:
        q = make(g)
        n = len(g.vertices)
        for x in range(n):
            for start in (0, 1):
                root = q.STRIDE * x + start
                for y in range(n):
                    if y == x:
                        continue
                    j = q.STRIDE * y
                    for end in (-1, 0, 1):
                        ks = q.positions(x, y, start, end)
                        # the completed search positions reads, not the
                        # sweeps' stopped one
                        outer, p, _ = q._split.search(root)
                        ends = (j, j + 1) if end < 0 else (j + end,)
                        last = next((a for a in ends if outer[a ^ 1]), None)
                        if last is None:
                            assert ks is None
                            missing += 1
                        else:
                            assert ks == read_back(q, last, root ^ 1, p)[::-1]
                            found += 1
    assert found and missing


# an alternating 4-cycle a-b-c-d with both colours on each of its pairs:
# bipartite, a and c on side X, and both searches of its digraph view
# reach every vertex, each one a step or two from a
C4_BOTH = build_graph(list("abcd"), [
    (u, v, c) for u, v in ("ab", "bc", "cd", "da") for c in (RED, BLUE)])


def _other_colour(g, par, order):
    # the last vertex hangs from its parent by the pair's other edge
    w = order[-1]
    k = par[w]
    p = g.ev[k] if g.eu[k] == w else g.eu[k]
    par[w] = g.first_edges()[w][1 - g.bit[k]][p]


def _edge_elsewhere(g, par, order):
    w = order[-1]
    par[w] = next(k for k in range(len(g.bit)) if w not in (g.eu[k], g.ev[k]))


def _parent_not_yet_reached(g, par, order):
    order.insert(1, order.pop())


def _reached_twice(g, par, order):
    order.append(order[1])


@pytest.mark.parametrize("corrupt", [_other_colour, _edge_elsewhere,
                                     _parent_not_yet_reached, _reached_twice])
@pytest.mark.parametrize("back", [0, 1], ids=["out-tree", "in-tree"])
def test_failed_digraph_tree_check_raises(monkeypatch, back, corrupt):
    # a bipartite graph's yes rests on each tree arc's check, which is
    # explicit, so it holds under python -O; an arc that fails it is an
    # internal error, never a no
    assert Analysis.of(C4_BOTH).cc.connected
    tree = ecgraph.connect._digraph_tree

    def corrupted(g, side, b):
        par, order = tree(g, side, b)
        if b == back:
            corrupt(g, par, order)
        return par, order

    monkeypatch.setattr(ecgraph.connect, "_digraph_tree", corrupted)
    g = build_graph(C4_BOTH.vertices, [(e.u, e.v, e.colour)
                                       for e in C4_BOTH.edges])
    for fact in ("cc", "tcc"):
        with pytest.raises(GraphError, match=(
                "internal error: '[bcd]' fails the digraph view's "
                f"{('out', 'in')[back]}-tree check")):
            getattr(Analysis.of(g), fact)


def test_a_wrong_2_colouring_fails_the_digraph_tree_check(monkeypatch):
    # with every vertex on side X, each red edge is an arc out of both
    # ends, and a tree path would repeat red; the check compares the
    # sides of each tree arc's ends
    monkeypatch.setattr(ecgraph.analysis, "bipartite_sides",
                        lambda g: [0] * len(g.vertices))
    g = build_graph(C4_BOTH.vertices, [(e.u, e.v, e.colour)
                                       for e in C4_BOTH.edges])
    with pytest.raises(GraphError, match=(
            "internal error: '[bd]' fails the digraph view's out-tree")):
        Analysis.of(g).cc


class CountedList(list):
    """A list that counts the items read from it one by one."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def reference_classes(g):
    """complete_multipartite_classes by pairwise adjacency tests."""
    verts = list(g.vertices)
    seen, classes = set(), []
    for v in verts:
        if v in seen:
            continue
        comp, stack = [v], [v]
        seen.add(v)
        while stack:
            a = stack.pop()
            for b in verts:
                if b not in seen and not g.adjacent(a, b):
                    seen.add(b)
                    comp.append(b)
                    stack.append(b)
        classes.append(comp)
    if any(g.adjacent(a, b) for cls in classes
           for i, a in enumerate(cls) for b in cls[i + 1:]):
        return None
    return classes


class TestCompleteMultipartite:
    def test_classes_match_pairwise_reference(self):
        for seed in range(60):
            for g in (rand_graph(seed, n_max=8, m_max=20),
                      generate("mclosed_blowup", seed=seed, n=4 + seed % 9),
                      generate("complete_bipartite", seed=seed,
                               n1=1 + seed % 5, n2=1 + seed % 4),
                      generate("complete_multipartite", seed=seed,
                               sizes=[1 + seed % 3, 2, 1 + seed % 2])):
                assert complete_multipartite_classes(g) \
                    == reference_classes(g), seed

    def test_classes_of_fixture(self):
        classes = complete_multipartite_classes(fixture("cmg_example"))
        assert classes is not None
        assert sorted(sorted(c) for c in classes) == [
            ["x1", "x2"], ["y1", "y2", "z1", "z3"], ["z2", "z4"]]

    def test_not_multipartite(self):
        g = build_graph(["a", "b", "c"], [("a", "b", RED)])
        assert complete_multipartite_classes(g) is None

    def test_trail_to_path_requires_multipartite(self):
        g = fixture("needall_g")
        t = alternating_trail(g, "x1", "x2", BLUE)
        with pytest.raises(ValueError):
            trail_to_path_complete_multipartite(g, t)

    def test_trail_to_path_preserves_ends_and_start_colour(self):
        g = generate("complete_multipartite", seed=3, sizes=[2, 2, 2])
        checked = 0
        for u in g.vertices:
            for v in g.vertices:
                if u == v:
                    continue
                for c in (RED, BLUE):
                    t = alternating_trail(g, u, v, c)
                    if t is None:
                        continue
                    p = trail_to_path_complete_multipartite(g, t)
                    seq = p.vertex_sequence(g)
                    assert len(seq) == len(set(seq))
                    assert seq[0] == u and seq[-1] == v
                    assert g.edge(p.edge_ids[0]).colour is c
                    checked += 1
        assert checked > 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 100_000))
def test_path_and_trail_queries_match_oracles(seed):
    g = rand_graph(seed)
    rng = random.Random(seed ^ 0xABC)
    for _ in range(6):
        u, v = rng.sample(g.vertices, 2)
        c = rng.choice((RED, BLUE))
        p = alternating_path(g, u, v, c)
        assert (p is None) == (oracle_alternating_path(g, u, v, c) is None)
        if p is not None:
            assert verify_witness(g, p)
            seq = p.vertex_sequence(g)
            assert len(seq) == len(set(seq))
        t = alternating_trail(g, u, v, c)
        assert (t is None) == (oracle_alternating_trail(g, u, v, c) is None)
        if t is not None:
            assert verify_witness(g, t)


def first_failing_triple(g, oracle):
    """The first (u, v, c) in declaration order the oracle finds no
    alternating (u, v)-path (trail) for, or None."""
    for u in g.vertices:
        for v in g.vertices:
            if u == v:
                continue
            for c in (RED, BLUE):
                if oracle(g, u, v, c) is None:
                    return (u, v, c)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_connectivity_sweeps_match_oracles(seed):
    g = rand_graph(seed, n_max=5, m_max=10)
    cc, tcc = is_colour_connected(g), is_trail_colour_connected(g)
    assert cc.connected == oracle_colour_connected(g)
    assert tcc.connected == oracle_trail_colour_connected(g)
    # the sweep reports the first failing triple, not just a verdict
    assert cc.counterexample \
        == first_failing_triple(g, oracle_alternating_path)
    assert tcc.counterexample \
        == first_failing_triple(g, oracle_alternating_trail)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_every_query_matches_oracles(seed):
    # every (x, y, start, end) on one reused query object, so each
    # source's searches answer every target and both end colours
    g = rand_graph(seed, n_max=5, m_max=10)
    for make, oracle in ((_PathQuery, oracle_alternating_path),
                         (_TrailQuery, oracle_alternating_trail)):
        q = make(g)
        for x in g.vertices:
            for y in g.vertices:
                if x == y:
                    continue
                for start in (RED, BLUE):
                    for end in (None, RED, BLUE):
                        w = q(x, y, start, end)
                        assert (w is None) == (
                            oracle(g, x, y, start, end) is None), \
                            (make.__name__, x, y, start, end)
                        if w is None:
                            continue
                        assert verify_witness(g, w)
                        seq = w.vertex_sequence(g)
                        assert seq[0] == x and seq[-1] == y
                        assert g.edge(w.edge_ids[0]).colour is start
                        if end is not None:
                            assert g.edge(w.edge_ids[-1]).colour is end
                        if make is _PathQuery:
                            assert len(seq) == len(set(seq))


def blow_up_failure_explained(g, h, sweep, query) -> bool:
    """A path (trail) of g lifts to the blow-up h, copy by copy, so h
    can fail only between two copies of one vertex of g, or between
    copies of u != v where g fails from u to v with the same colour."""
    ce = sweep(h).counterexample
    if ce is None:
        return True
    x, y, c = ce
    u, v = x.rsplit(".", 1)[0], y.rsplit(".", 1)[0]
    return u == v or query(g, u, v, c) is None


# the converse fails: blowing up can gain colour-connectivity (seed 1023
# doubles a vertex and gets a colour-connected blow-up of a graph that
# is not colour-connected)
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 3))
@example(seed=1023, extra=1)
@example(seed=17271, extra=1)
def test_connectivity_invariant_under_blow_up(seed, extra):
    g = rand_graph(seed, n_max=5, m_max=8)
    rng = random.Random(seed)
    mult = {v: 1 for v in g.vertices}
    for _ in range(extra):
        mult[rng.choice(g.vertices)] += 1
    h = blow_up(g, mult)
    assert blow_up_failure_explained(g, h, is_colour_connected,
                                     alternating_path)
    assert blow_up_failure_explained(g, h, is_trail_colour_connected,
                                     alternating_trail)


def same_colour_parallel(g):
    """Whether g has two edges of one colour between the same two
    vertices."""
    pairs = [(min(u, v), max(u, v), c) for u, v, c in zip(g.eu, g.ev, g.bit)]
    return len(set(pairs)) < len(pairs)


def test_split_graphs_match_the_edge_list_reference(monkeypatch):
    # the path query's and the cycle factor's split graphs, built from
    # g's first_edges, have the adjacency lists the edge-list
    # constructor gave them, and the tables give each pair the edge
    # position it kept: the first declared of its parallel edges
    built = []
    init = IndexedGraph.__init__
    monkeypatch.setattr(IndexedGraph, "__init__",
                        lambda self, adj: built.append(adj)
                        or init(self, adj))
    rng = random.Random(31)
    graphs = [g for g in (rand_multigraph(rng) for _ in range(300))
              if same_colour_parallel(g)]
    graphs += [generate("mclosed_blowup", seed=s, n=4 + s % 20)
               for s in range(40)]
    graphs += [generate("random_2ec", seed=s, n=4 + s % 10,
                        m=2 * (4 + s % 10) + s % 7) for s in range(40)]
    factors = parallel = 0
    for g in graphs:
        path, cycle = ref_path_split(g), ref_cycle_split(g)
        q = _PathQuery(g)
        assert q._split.adj == path.adj
        for a, nbrs in enumerate(path.adj):
            # after the partner a ^ 1, the copies of a's neighbours
            assert nbrs[0] == a ^ 1
            for b in nbrs[1:]:
                assert g.first_edges()[a >> 1][a & 1][b >> 1] \
                    == path.edge_id(a, b)
        built.clear()
        cf = alternating_cycle_factor(g)
        assert built == [cycle.adj]
        if cf is not None:
            ref = ref_cycle_read_back(g, cycle, cycle.matching())
            assert [(c.start, c.edge_ids) for c in cf.cycles] \
                == [(c.start, c.edge_ids) for c in ref.cycles]
            factors += 1
            parallel += same_colour_parallel(g)
    assert len(graphs) > 300 and factors > 20 and parallel > 10


class RefPathQuery:
    """Reference path query on the split graph; `find` gives the search
    tree's path unverified, for `RefTrailQuery` to project."""

    def __init__(self, g):
        self.g = g
        self._index = {v: i for i, v in enumerate(g.vertices)}
        edges = [(2 * i, 2 * i + 1, None) for i in range(len(g.vertices))]
        for e in g.edges:
            c = e.colour.bit
            edges.append((2 * self._index[e.u] + c,
                          2 * self._index[e.v] + c, e.id))
        self._split = RefIndexedGraph(2 * len(g.vertices), edges)
        self._searches = {}

    def __call__(self, x, y, start, end=None):
        path = self.find(x, y, start, end)
        if path is not None:
            ref_check(self.g, path, y, start, end, simple=True)
        return path

    def find(self, x, y, start, end=None):
        """The path the search tree gives, or None; not verified."""
        if x == y:
            raise ValueError("endpoints must differ")
        root = 2 * self._index[x] + start.bit
        if root not in self._searches:
            # a new source drops the searches of the one before
            if root ^ 1 not in self._searches:
                self._searches.clear()
            self._searches[root] = self._split.search(root)
        outer, p, _ = self._searches[root]
        # y's non-end copy must be outer; end=None tries red first
        j = 2 * self._index[y]
        ends = (j, j + 1) if end is None else (j + end.bit,)
        last = next((c for c in ends if outer[c ^ 1]), None)
        if last is None:
            return None
        # back to root: p crosses a graph edge, ^ 1 an internal one
        seq = []
        a = last
        while a != root ^ 1:
            seq.append(self._split.edge_id(a, p[a]))
            a = p[a] ^ 1
        return AlternatingTrail(x, tuple(reversed(seq)))


class RefTrailQuery:
    """Reference: alternating trail queries on one graph, as path
    queries in its string-named auxiliary graph, projected back by
    edge id."""

    def __init__(self, g):
        self.g = g
        self._paths = RefPathQuery(ref_trail_aux_graph(g))

    def __call__(self, x, y, start, end=None):
        # only the projected trail of g is checked: it alone certifies
        # the answer
        p = self._paths.find(f"{x}.1", f"{y}.1", start, end)
        if p is None:
            return None
        t = AlternatingTrail(
            x, tuple(eid[:-2] for eid in p.edge_ids if eid.endswith(".x")))
        ref_check(self.g, t, y, start, end)
        return t


def ref_trail_aux_graph(g):
    """Two vertex copies v.1/v.2 plus a 5-edge gadget per original edge;
    alternating trails of g correspond to alternating paths here."""
    verts = []
    for v in g.vertices:
        verts.append(f"{v}.1")
        verts.append(f"{v}.2")
    edges = []
    for e in g.edges:
        hu, hv = f"{e.id}.u", f"{e.id}.v"
        verts.append(hu)
        verts.append(hv)
        edges.append(Edge(f"{e.id}.a", f"{e.u}.1", hu, e.colour))
        edges.append(Edge(f"{e.id}.b", f"{e.u}.2", hu, e.colour))
        edges.append(Edge(f"{e.id}.c", f"{e.v}.1", hv, e.colour))
        edges.append(Edge(f"{e.id}.d", f"{e.v}.2", hv, e.colour))
        edges.append(Edge(f"{e.id}.x", hu, hv, e.colour.other()))
    return EdgeColouredMultigraph(verts, edges)


def test_queries_match_the_string_auxiliary_graph_reference():
    rng = random.Random(2020)
    parallel = found = missing = 0
    for _ in range(100):
        g = rand_multigraph(rng)
        n, m = len(g.vertices), len(g.edges)
        parallel += len({(e.u, e.v, e.colour) for e in g.edges}) < m
        trail = _TrailQuery(g)
        # two copies of each vertex, one contracted helper pair per edge
        assert len(trail._split.adj) == 4 * n + 2 * m
        assert sum(map(len, trail._split.adj)) == 2 * (2 * n + 5 * m)
        for q, ref, simple in ((_PathQuery(g), RefPathQuery(g), True),
                               (trail, RefTrailQuery(g), False)):
            for x in g.vertices:
                for y in g.vertices:
                    if x == y:
                        continue
                    for start in (RED, BLUE):
                        for end in (None, RED, BLUE):
                            w = q(x, y, start, end)
                            r = ref(x, y, start, end)
                            assert (w is None) == (r is None), \
                                (type(q).__name__, x, y, start, end)
                            if w is None:
                                missing += 1
                                continue
                            found += 1
                            seq = w.vertex_sequence(g)
                            assert verify_witness(g, w) and seq[-1] == y
                            assert g.edge(w.edge_ids[0]).colour is start
                            assert end is None \
                                or g.edge(w.edge_ids[-1]).colour is end
                            assert len(set(seq)) == len(seq) or not simple
    assert parallel > 30 and found and missing


class TestStoppedSearch:
    """The sweeps' searches stop once every vertex has an outer copy
    among its first two (`IndexedGraph.search`'s stop rule)."""

    @staticmethod
    def agree(make, g):
        q = make(g)
        n = len(g.vertices)
        for x in range(n):
            for start in (0, 1):
                root = q.STRIDE * x + start
                full, _, _ = q._split.search(root)
                outer, p, state = q._search(root)
                for y in range(n):
                    if y == x:
                        continue
                    j = q.STRIDE * y
                    assert (outer[j] or outer[j + 1]) == \
                        (full[j] or full[j + 1]), (x, start, y)
                    # every yes has a node that passes the tree check
                    last = j if outer[j + 1] else j + 1 if outer[j] else -1
                    if last >= 0:
                        assert q._settle(last, outer, p, state) >= 0
                    assert q.reaches(x, y, start) == \
                        (full[j] or full[j + 1])
                # a stopped outer set is part of the completed one
                assert all(f for o, f in zip(outer, full) if o)

    @pytest.mark.parametrize("make", [_PathQuery, _TrailQuery])
    def test_stopped_answers_are_the_completed_answers_on_the_atlas(
            self, make):
        for g in _graphs(*FAMILIES["4-vertices"]):
            self.agree(make, g)

    @pytest.mark.parametrize("make", [_PathQuery, _TrailQuery])
    @pytest.mark.parametrize("seed", range(12))
    def test_stopped_answers_are_the_completed_answers_on_seeded_graphs(
            self, make, seed):
        n = 5 + seed % 6
        self.agree(make, generate("random_2ec", seed=seed, n=n,
                                  m=n + 3 * (seed % 4)))
        self.agree(make, generate("mclosed_blowup", seed=seed, n=n))

    @pytest.mark.parametrize("make", [_PathQuery, _TrailQuery])
    def test_sweep_reads_fewer_adjacency_entries(self, make):
        # a positive sweep asks only whether each target has an outer
        # copy, so its searches stop before they complete
        g = generate("random_2ec", seed=2, n=30, m=120)
        reads = [0]

        class Counted(list):
            def __iter__(self):
                for a in list.__iter__(self):
                    reads[0] += 1
                    yield a

        q = make(g)
        q._split.adj = [Counted(row) for row in q._split.adj]
        assert ecgraph.connect._sweep(q).connected
        swept = reads[0]
        reads[0] = 0
        n = len(g.vertices)
        for root in range(q.STRIDE * n):
            if root % q.STRIDE < 2:
                q._split.search(root)
        assert 0 < swept < reads[0]
