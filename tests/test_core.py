import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from ecgraph import (
    BLUE,
    RED,
    AlternatingCycle,
    AlternatingTrail,
    CycleFactor,
    Edge,
    EdgeColouredMultigraph,
    EulerianFactor,
    GraphError,
    alternating_hamiltonian_cycle,
    build_graph,
    graph_to_dict,
    oracle_ham_alternating,
    parse_graph,
    serialize_graph,
    verify_witness,
    witness_to_dict,
)

from ecgraph.core import BIT_COLOUR, BadWalk
from ecgraph.reductions import generate
from ecgraph.structure import similarity_partition
from reference import (
    RefIndex,
    rand_multigraph,
    ref_check_trail,
    ref_vertex_sequence,
    visit_count,
)


def digon():
    return build_graph(["u", "v"], [("u", "v", RED), ("u", "v", BLUE)])


class TestGraphConstruction:
    def test_duplicate_vertex_rejected(self):
        with pytest.raises(GraphError, match="duplicate vertex"):
            EdgeColouredMultigraph(["a", "a"], [])

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge id"):
            EdgeColouredMultigraph(
                ["a", "b"],
                [Edge("e", "a", "b", RED), Edge("e", "a", "b", BLUE)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            EdgeColouredMultigraph(["a"], [Edge("e", "a", "a", RED)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError, match="unknown vertex"):
            EdgeColouredMultigraph(["a"], [Edge("e", "a", "b", RED)])

    def test_first_fault_is_reported(self):
        # of several faults the first is reported: vertices first, then
        # edge by edge a duplicate id, an unknown u, an unknown v, a
        # self-loop
        cases = [
            (["a", "b", "a"],
             [Edge("e", "a", "z", RED), Edge("e", "b", "b", RED)],
             "duplicate vertex id 'a'"),
            (["a", "b"],
             [Edge("e", "a", "b", RED), Edge("e", "z", "z", RED)],
             "duplicate edge id 'e'"),
            (["a", "b"],
             [Edge("e", "x", "y", RED), Edge("f", "a", "a", RED)],
             "edge 'e': unknown vertex 'x'"),
            (["a", "b"],
             [Edge("e", "a", "y", RED), Edge("e", "a", "a", RED)],
             "edge 'e': unknown vertex 'y'"),
            (["a", "b"], [Edge("e", "x", "x", RED)],
             "edge 'e': unknown vertex 'x'"),
            (["a", "b"],
             [Edge("e", "a", "a", RED), Edge("e", "a", "z", RED)],
             "edge 'e': self-loop at 'a'"),
        ]
        for verts, edges, message in cases:
            with pytest.raises(GraphError) as exc:
                EdgeColouredMultigraph(verts, edges)
            assert str(exc.value) == message

    def test_lookups(self):
        g = digon()
        assert g.degree("u") == 2
        assert g.degree("u", RED) == 1
        assert g.adjacent("u", "v")
        assert len(g.edges_between("u", "v", BLUE)) == 1
        assert g.neighbours("u") == ("v",)
        assert g.vertex_index("v") == 1

    def test_induced_and_restricted(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "c", BLUE), ("a", "c", RED)])
        h = g.induced(["a", "b"])
        assert h.vertices == ("a", "b")
        assert len(h.edges) == 1


class TestParsing:
    def test_round_trip(self):
        g = digon()
        assert parse_graph(serialize_graph(g)) == g

    def test_parse_errors_carry_location(self):
        doc = {"vertices": ["a", "b"],
               "edges": [{"id": "e", "u": "a", "v": "b", "colour": "green"}]}
        with pytest.raises(GraphError, match=r"edges\[0\]"):
            parse_graph(json.dumps(doc))

    def test_bad_json(self):
        with pytest.raises(GraphError, match="invalid JSON"):
            parse_graph("{")

    def test_missing_vertices(self):
        with pytest.raises(GraphError, match="vertices"):
            parse_graph("{}")

    @pytest.mark.parametrize("verts, items, message", [
        # the constructor's cases, each self-loop by name that is not
        # the reported fault swapped for an unknown end
        (["a", "b", "a"], [("e", "a", "z"), ("e", "b", "q")],
         "duplicate vertex id 'a'"),
        (["a", "b"], [("e", "a", "b"), ("e", "z", "q")],
         "duplicate edge id 'e'"),
        (["a", "b"], [("e", "x", "y"), ("f", "a", "q")],
         "edge 'e': unknown vertex 'x'"),
        (["a", "b"], [("e", "a", "y"), ("e", "a", "q")],
         "edge 'e': unknown vertex 'y'"),
        (["a", "b"], [("e", "x", "q")], "edge 'e': unknown vertex 'x'"),
        # a self-loop by name is an item fault, reported before them all
        (["a", "b"], [("e", "a", "a"), ("e", "a", "z")],
         "edges[0]: self-loop at 'a'"),
        # an item fault in a later edge beats an index fault in an
        # earlier one, and any item fault beats a duplicate vertex
        (["a", "b"], [("e0", "a", "b"), ("e0", "a", "b", "green")],
         "edges[1]: unknown colour token 'green'"),
        (["a", "b"], [("e0", "a", "z"), ("e1", "b", "b")],
         "edges[1]: self-loop at 'b'"),
        (["a", "b", "a"], [("e0", "a", "b"), {"id": "e1", "u": "a"}],
         'edges[1]: missing or non-string "v"'),
        # within an item: its shape, then the keys in order, then the
        # colour, then a self-loop
        (["a"], [["e0", "a", "b", "red"]], "edges[0]: must be an object"),
        (["a"], [{"id": 0, "colour": 1}],
         'edges[0]: missing or non-string "id"'),
        (["a"], [{"id": "e", "u": "a", "v": ["a"], "colour": "red"}],
         'edges[0]: missing or non-string "v"'),
        (["a"], [("e", "a", "a", "green")],
         "edges[0]: unknown colour token 'green'"),
        (["a"], [("e", "a", "a", ["red"])],
         'edges[0]: missing or non-string "colour"'),
    ])
    def test_first_fault_is_reported(self, verts, items, message):
        # the twin of TestGraphConstruction's: where the document has no
        # item fault, the constructor reports the same fault
        edges = [dict(zip(("id", "u", "v", "colour"), (*t, "red")[:4]))
                 if isinstance(t, tuple) else t for t in items]
        with pytest.raises(GraphError) as exc:
            parse_graph(json.dumps({"vertices": verts, "edges": edges}))
        assert str(exc.value) == message
        if not message.startswith("edges["):
            with pytest.raises(GraphError) as exc:
                EdgeColouredMultigraph(
                    verts, [Edge(e["id"], e["u"], e["v"], RED) for e in edges])
            assert str(exc.value) == message

    def test_dot_output(self):
        out = serialize_graph(digon(), "dot")
        assert "color=red" in out and "color=blue" in out
        assert out.startswith("graph {")


MODELS = [
    ("random_2ec", dict(n=12, m=40)),
    ("mclosed_blowup", dict(n=14)),
    ("complete_bipartite", dict(n1=3, n2=4)),
    ("complete_multipartite", dict(sizes=[2, 3, 2])),
    ("cmg_family", dict(r=2)),
]


def _parallel_edges():
    # parallel edges of both colours, and same-coloured ones
    return build_graph(["a", "b", "c"],
                       [("a", "b", RED), ("a", "b", BLUE), ("b", "c", RED),
                        ("b", "c", RED), ("a", "b", RED), ("c", "a", BLUE)])


INSTANCES = [pytest.param(_parallel_edges(), id="parallel_edges")] + [
    pytest.param(generate(model, seed, **params), id=f"{model}-{seed}")
    for model, params in MODELS for seed in range(3)]


def _edge_filtered(g, keep):
    """g.induced(keep) as the graph of g's Edge records was filtered."""
    keep = set(keep)
    return EdgeColouredMultigraph(
        [v for v in g.vertices if v in keep],
        [e for e in g.edges if e.u in keep and e.v in keep])


ARRAYS = ("vertices", "index", "pos", "eid", "eu", "ev", "bit",
          "off", "inc", "far")


class TestParsedIndex:
    """parse_graph builds the graph's index straight from the document;
    it must equal the index the constructor builds from Edge records."""

    @pytest.mark.parametrize("g", INSTANCES)
    def test_parsed_graph_equals_constructed(self, g):
        h = parse_graph(serialize_graph(g))
        for name in ARRAYS:
            assert getattr(h, name) == getattr(g, name), name
        assert h.edges == g.edges
        assert h == g and hash(h) == hash(g)

    @pytest.mark.parametrize("g", INSTANCES)
    def test_derived_graphs_equal_edge_filtered_ones(self, g):
        for h in (g, parse_graph(serialize_graph(g))):
            keep = h.vertices[::2]
            sub = h.induced(keep)
            old = _edge_filtered(h, keep)
            for name in ARRAYS:
                assert getattr(sub, name) == getattr(old, name), name
            assert sub.edges == old.edges and sub == old
            part = similarity_partition(h)
            assert part.quotient == _edge_filtered(
                h, [b[0] for b in part.blocks])

    def test_edges_are_built_on_first_read(self):
        g = _parallel_edges()
        h = parse_graph(serialize_graph(g))
        assert h.edges is h.edges
        assert h.edges == g.edges and h.edge("e3") == Edge("e3", "b", "c", RED)
        assert h.incident("a", BLUE) == g.incident("a", BLUE)


class TestWitnessVerification:
    def test_digon_is_minimal_closed_trail(self):
        g = digon()
        t = AlternatingTrail("u", ("e0", "e1"), closed=True)
        assert verify_witness(g, t)

    def test_monochromatic_pair_rejected(self):
        g = build_graph(["u", "v"], [("u", "v", RED), ("u", "v", RED)])
        t = AlternatingTrail("u", ("e0", "e1"), closed=True)
        assert not verify_witness(g, t)

    def test_repeated_edge_rejected(self):
        g = digon()
        t = AlternatingTrail("u", ("e0", "e0"), closed=True)
        r = verify_witness(g, t)
        assert not r and "repeated" in r.reason

    def test_open_trail(self):
        g = build_graph(["a", "b", "c"], [("a", "b", RED), ("b", "c", BLUE)])
        t = AlternatingTrail("a", ("e0", "e1"))
        assert verify_witness(g, t)
        assert t.end(g) == "c"
        assert t.reversed(g).start == "c"

    def test_closed_trail_needs_colour_change_at_seam(self):
        # red, blue, red, blue around a 4-cycle is fine; all lengths odd
        # or monochromatic seams are not
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("b", "c", BLUE),
                         ("c", "d", RED), ("d", "a", BLUE)])
        ok = AlternatingCycle("a", ("e0", "e1", "e2", "e3"))
        assert verify_witness(g, ok)
        bad = AlternatingTrail("a", ("e0",), closed=True)
        assert not verify_witness(g, bad)

    def test_cycle_rejects_vertex_revisit(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "a", BLUE),
                         ("a", "c", RED), ("c", "a", BLUE)])
        t = AlternatingTrail("a", ("e0", "e1", "e2", "e3"), closed=True)
        assert verify_witness(g, t)
        c = AlternatingCycle("a", ("e0", "e1", "e2", "e3"))
        assert not verify_witness(g, c)

    def test_hamiltonian_cycle_must_visit_every_vertex(self):
        # a digon a-b beside c: a closed alternating trail, and a cycle
        # of a factor, but no hamiltonian cycle of the three vertices
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("a", "b", BLUE),
                         ("a", "c", RED), ("a", "c", BLUE)])
        c = AlternatingCycle("a", ("e0", "e1"))
        r = verify_witness(g, c)
        assert not r and r.reason == "cycle misses a vertex"
        assert verify_witness(g, AlternatingTrail("a", ("e0", "e1"),
                                                  closed=True))
        r = verify_witness(g, CycleFactor((c,)))
        assert not r and r.reason == "factor cycles do not cover V"

    @pytest.mark.parametrize("g, build", [
        (generate("mclosed_blowup", seed=244, n=20),
         lambda g: alternating_hamiltonian_cycle(g).witness),
        (generate("random_2ec", seed=21, n=8, m=16),
         oracle_ham_alternating)], ids=["merge", "oracle"])
    def test_built_hamiltonian_cycles_pass(self, g, build):
        c = build(g)
        assert isinstance(c, AlternatingCycle) and verify_witness(g, c)

    def test_eulerian_factor_coverage(self):
        g = build_graph(["u", "v", "w", "x"],
                        [("u", "v", RED), ("u", "v", BLUE),
                         ("w", "x", RED), ("w", "x", BLUE)])
        f = EulerianFactor((
            (frozenset({"u", "v"}),
             AlternatingTrail("u", ("e0", "e1"), closed=True)),
            (frozenset({"w", "x"}),
             AlternatingTrail("w", ("e2", "e3"), closed=True)),
        ))
        assert verify_witness(g, f)
        partial = EulerianFactor((f.parts[0],))
        assert "cover" in verify_witness(g, partial).reason

    def test_cycle_factor_overlap_rejected(self):
        g = digon()
        c = AlternatingCycle("u", ("e0", "e1"))
        assert verify_witness(g, CycleFactor((c,)))
        assert not verify_witness(g, CycleFactor((c, c)))

    def test_factor_reasons(self):
        # digons a-b (e0, e1) and c-d (e2, e3); blue e4 = b-c and
        # e5 = d-a close the alternating square a b c d
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("a", "b", BLUE),
                         ("c", "d", RED), ("c", "d", BLUE),
                         ("b", "c", BLUE), ("d", "a", BLUE)])
        ab, cd = frozenset("ab"), frozenset("cd")
        t_ab = AlternatingTrail("a", ("e0", "e1"), closed=True)
        t_cd = AlternatingTrail("c", ("e2", "e3"), closed=True)
        square = ("e0", "e4", "e2", "e5")
        c_ab = AlternatingCycle("a", ("e0", "e1"))
        c_cd = AlternatingCycle("c", ("e2", "e3"))
        assert verify_witness(g, EulerianFactor(((ab, t_ab), (cd, t_cd))))
        assert verify_witness(g, EulerianFactor(
            ((frozenset("abcd"),
              AlternatingTrail("a", square, closed=True)),)))
        assert verify_witness(g, CycleFactor((c_ab, c_cd)))
        for w, reason in (
                (EulerianFactor(((ab, t_ab), (ab, t_ab))),
                 "factor parts overlap"),
                (EulerianFactor(((ab, AlternatingTrail("a", ("e0", "e1"))),
                                 (cd, t_cd))),
                 "factor witness must be closed"),
                (EulerianFactor(((ab, AlternatingTrail(
                    "a", ("e0", "e0"), closed=True)), (cd, t_cd))),
                 "edge repeated"),
                (EulerianFactor(((frozenset("abc"), t_ab), (frozenset("d"),
                                                            t_cd))),
                 "factor witness does not span its vertex set"),
                # the trail leaves its part: it visits c and d too
                (EulerianFactor(((ab, AlternatingTrail("a", square,
                                                       closed=True)),
                                 (cd, t_cd))),
                 "factor witness does not span its vertex set"),
                (EulerianFactor(((ab, t_ab),)),
                 "factor parts do not cover V"),
                (CycleFactor((AlternatingCycle("a", square), c_cd)),
                 "factor cycles overlap"),
                (CycleFactor((c_ab,)), "factor cycles do not cover V")):
            assert verify_witness(g, w).reason == reason, w

    def test_visit_count(self):
        g = build_graph(["a", "b", "c"],
                        [("a", "b", RED), ("b", "a", BLUE),
                         ("a", "c", RED), ("c", "a", BLUE)])
        f = EulerianFactor(((frozenset({"a", "b", "c"}),
                             AlternatingTrail("a", ("e0", "e1", "e2", "e3"),
                                              closed=True)),))
        assert visit_count(g, f, "a") == 2
        assert visit_count(g, f, "b") == 1


names = st.lists(st.sampled_from("abcdefgh"), min_size=2, max_size=6,
                 unique=True)


@st.composite
def random_graphs(draw):
    verts = draw(names)
    n = len(verts)
    k = draw(st.integers(0, 10))
    edges = []
    for i in range(k):
        u, v = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        if u == v:
            continue
        colour = draw(st.sampled_from([RED, BLUE]))
        edges.append(Edge(f"e{i}", verts[u], verts[v], colour))
    return EdgeColouredMultigraph(verts, edges)


@given(random_graphs())
def test_serialization_round_trip(g):
    assert parse_graph(serialize_graph(g)) == g
    assert graph_to_dict(parse_graph(json.dumps(graph_to_dict(g)))) \
        == graph_to_dict(g)


@given(random_graphs())
def test_witness_dict_shapes(g):
    if not g.edges:
        return
    e = g.edges[0]
    t = AlternatingTrail(e.u, (e.id,))
    d = witness_to_dict(g, t)
    assert d["kind"] == "trail" and d["edges"] == [e.id]


def naive_view(g):
    """The integer index of g, rebuilt edge by edge from g.vertices and
    g.edges alone: each vertex's incident edges in declaration order."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    pos = {e.id: k for k, e in enumerate(g.edges)}
    off, inc, far = [0], [], []
    for v in g.vertices:
        for k, e in enumerate(g.edges):
            if v in (e.u, e.v):
                inc.append(k)
                far.append(idx[e.v if e.u == v else e.u])
        off.append(len(inc))
    return {"index": idx, "pos": pos,
            "eu": [idx[e.u] for e in g.edges],
            "ev": [idx[e.v] for e in g.edges],
            "bit": [0 if e.colour is RED else 1 for e in g.edges],
            "off": off, "inc": inc, "far": far}


def test_view_matches_naive_rebuild():
    rng = random.Random(7)
    parallel = 0
    for _ in range(200):
        g = rand_multigraph(rng)
        parallel += len({(e.u, e.v, e.colour) for e in g.edges}) \
            < len(g.edges)
        naive = naive_view(g)
        assert {k: getattr(g, k) for k in naive} == naive
        assert [BIT_COLOUR[b] for b in g.bit] \
            == [e.colour for e in g.edges]
    assert parallel > 50


def _outcome(walk):
    """walk(), or the message of the GraphError it raises."""
    try:
        return walk()
    except GraphError as exc:
        return f"GraphError: {exc}"


def test_vertex_sequence_matches_the_string_walk():
    # random walks through each graph, some with one entry replaced by
    # an unknown id, another edge, or an unknown start
    rng = random.Random(29)
    kinds = Counter()
    for _ in range(300):
        g = rand_multigraph(rng)
        start = rng.choice(g.vertices)
        ids, cur = [], start
        for _ in range(rng.randint(0, 8)):
            e = rng.choice(g.incident(cur) or g.edges)
            if not e.touches(cur):
                break
            ids.append(e.id)
            cur = e.other_end(cur)
        fault = rng.randrange(4)
        if fault == 1 and ids:
            ids[rng.randrange(len(ids))] = "ghost"
        elif fault == 2 and ids:
            ids[rng.randrange(len(ids))] = rng.choice(g.edges).id
        elif fault == 3:
            start = "ghost"
        t = AlternatingTrail(start, tuple(ids))
        got = _outcome(lambda: t.vertex_sequence(g))
        assert got == _outcome(lambda: ref_vertex_sequence(g, t))
        if isinstance(got, list):
            kinds["walk"] += 1
            assert got[-1] == t.end(g)
            assert frozenset(got) == t.vertex_set(g)
        else:
            kinds["unknown id" if "unknown edge id" in got
                  else "not an endpoint"] += 1
    assert len(kinds) == 3 and min(kinds.values()) >= 30, kinds


def test_lookups_match_the_string_index():
    # the string lookups read the graph's index and answer as the string index
    # the graph kept before did, except between a vertex and itself:
    # with no loops nothing joins them, where the old scan listed
    # every edge of the vertex
    rng = random.Random(13)
    parallel = 0
    for _ in range(200):
        g = rand_multigraph(rng)
        parallel += len({(e.u, e.v, e.colour) for e in g.edges}) \
            < len(g.edges)
        ref = RefIndex(g)
        for eid in [e.id for e in g.edges] + ["ghost"]:
            assert g.has_edge_id(eid) == ref.has_edge_id(eid)
            if ref.has_edge_id(eid):
                assert g.edge(eid) is ref.edge(eid)
        with pytest.raises(GraphError, match="unknown edge id 'ghost'"):
            g.edge("ghost")
        for u in g.vertices:
            assert g.vertex_index(u) == ref.vertex_index(u)
            assert g.neighbours(u) == ref.neighbours(u)
            for c in (None, RED, BLUE):
                assert g.incident(u, c) == ref.incident(u, c)
                assert g.degree(u, c) == ref.degree(u, c)
            for v in g.vertices + ("ghost",):
                if v == u:
                    assert not g.adjacent(u, u)
                    assert g.edges_between(u, u) == ()
                    continue
                assert g.adjacent(u, v) == ref.adjacent(u, v)
                for c in (None, RED, BLUE):
                    assert g.edges_between(u, v, c) \
                        == ref.edges_between(u, v, c)
    assert parallel > 50


def random_walks(g, rng):
    """Alternating trails of g: open ones from random walks, and the
    closed ones those walks find on the way."""
    for _ in range(6):
        start = rng.choice(g.vertices)
        cur, used, seq = start, set(), []
        for _ in range(rng.randint(1, 10)):
            es = [e for e in g.incident(cur) if e.id not in used
                  and (not seq or e.colour is not g.edge(seq[-1]).colour)]
            if not es:
                break
            e = rng.choice(es)
            used.add(e.id)
            seq.append(e.id)
            cur = e.other_end(cur)
            if cur == start and g.edge(seq[0]).colour is not e.colour:
                yield AlternatingTrail(start, tuple(seq), closed=True)
        yield AlternatingTrail(start, tuple(seq))


def corrupted(g, t, rng):
    """t, and t broken in each way a trail can be broken."""
    ids = list(t.edge_ids)
    other = rng.choice(g.edges).id
    yield t
    yield AlternatingTrail(t.start, t.edge_ids, not t.closed)
    yield AlternatingTrail("nowhere", t.edge_ids, t.closed)
    yield AlternatingTrail(rng.choice(g.vertices), t.edge_ids, t.closed)
    for k in range(len(ids) + 1):
        for new in (ids[:k] + [other] + ids[k:],
                    ids[:k] + ["ghost"] + ids[k:],
                    ids[:k] + ["ghost", "ghost"] + ids[k:],
                    ids[:k] + ids[k + 1:],
                    ids[:k] + ids[k:k + 1] * 2 + ids[k + 1:]):
            for closed in (False, True):
                yield AlternatingTrail(t.start, tuple(new), closed)
    yield AlternatingTrail(t.start, tuple(ids[::-1]), t.closed)


def test_walk_agrees_with_the_string_walk():
    # verify_witness on a trail is the graph's walk; the string walk it
    # replaced gives the same verdict and reason
    rng = random.Random(11)
    kinds = ("unknown start vertex", "edge repeated", "unknown edge id",
             "does not continue the walk", "colours do not alternate",
             "closed trail must have edges", "not closed",
             "closed trail length must be even")
    seen = Counter()
    for _ in range(150):
        g = rand_multigraph(rng)
        for t in random_walks(g, rng):
            for w in corrupted(g, t, rng):
                got = verify_witness(g, w)
                ref = ref_check_trail(g, w)
                assert (got.ok, got.reason) == (ref.ok, ref.reason), (w, got)
                seen[got.reason and next(
                    k for k in kinds if k in got.reason)] += 1
                if got and w.closed:
                    seen["closed and valid"] += 1
    # an alternating closed walk of odd length has first and last
    # colours equal, so the length test is the colour test
    assert set(seen) == {None, "closed and valid", *kinds}, seen


def test_walk_rejects_bad_positions():
    g = build_graph(["a", "b", "c"], [("a", "b", RED), ("b", "c", BLUE),
                                      ("a", "b", BLUE)])
    assert g.walk(0, [0, 1]) == [0, 1, 2]
    assert g.walk(0, [0, 2]) == [0, 1, 0]
    assert g.walk(1, []) == [1]
    assert g.closed_walk(0, [0, 2]) == [0, 1]
    assert g.closed_walk(1, [2, 0], cycle=True) == [1, 0]
    for ks, problem in (([0, 0], "edge repeated"),
                        ([0, 3], "unknown edge id number 1"),
                        ([0, -1], "unknown edge id number 1"),
                        ([1], "edge number 0 does not continue the walk"),
                        ([0, 2, 0], "edge repeated"),
                        ([0, 2, 1], "edge number 2 does not continue")):
        with pytest.raises(BadWalk, match=problem):
            g.walk(0, ks)
        with pytest.raises(BadWalk, match=problem):
            g.closed_walk(0, ks)
    with pytest.raises(BadWalk, match="colours do not alternate at edge "
                                      "number 1"):
        build_graph(["a", "b", "c"], [("a", "b", RED), ("b", "c", RED)]
                    ).walk(0, [0, 1])


def test_closed_walk_verdicts():
    # e0 a-b red, e1 b-c blue, e2 c-a red, e3 a-b blue, e4 a-c blue
    g = build_graph(["a", "b", "c"],
                    [("a", "b", RED), ("b", "c", BLUE), ("c", "a", RED),
                     ("a", "b", BLUE), ("a", "c", BLUE)])
    assert g.closed_walk(0, [0, 3, 2, 4]) == [0, 1, 0, 2]
    for ks, problem in (([], "closed trail must have edges"),
                        ([0, 1], "not closed"),
                        ([0, 1, 2], "closed trail length must be even"),
                        ([0, 3, 2, 4], "cycle revisits a vertex")):
        with pytest.raises(BadWalk, match=problem):
            g.closed_walk(0, ks, cycle=True)
