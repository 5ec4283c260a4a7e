import json

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
    build_graph,
    graph_to_dict,
    parse_graph,
    serialize_graph,
    verify_witness,
    witness_to_dict,
)

from reference import visit_count


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

    def test_dot_output(self):
        out = serialize_graph(digon(), "dot")
        assert "color=red" in out and "color=blue" in out
        assert out.startswith("graph {")


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
