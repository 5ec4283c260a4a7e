"""Graph documents written and generated straight from the graph's index.

`serialize_graph` assembles its JSON text from the index; it must be
byte for byte the text of ``json.dumps(graph_to_dict(g), indent=2)``,
because pinned SHA-256s of generated documents depend on every byte.
Its DOT text must be the text the record-reading writer gave.  The
generators feed the index (id, u, v, colour bit) items; each graph must
equal the one built from `Edge` records.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from ecgraph import (
    BLUE,
    RED,
    Edge,
    EdgeColouredMultigraph,
    build_graph,
    graph_to_dict,
    parse_graph,
    serialize_graph,
)
from ecgraph.cli import main
from ecgraph.reductions import (
    bb_from_digraph, bb_to_digraph, fixture, fixture_names, generate,
)
from ecgraph.structure import blow_up, m_closure
from reference import (
    ref_bb_from_digraph,
    ref_blow_up,
    ref_build_graph,
    ref_dot,
    ref_m_closure,
)


def dumps(g):
    return json.dumps(graph_to_dict(g), indent=2) + "\n"


MODELS = [
    ("random_2ec", dict(n=9, m=20)),
    ("mclosed_blowup", dict(n=17)),
    ("complete_bipartite", dict(n1=1, n2=3)),
    ("complete_multipartite", dict(sizes=[1, 2, 3])),
    ("cmg_family", dict(r=3)),
]

ODD_NAMES = ["ä", 'q"', "b\\", "c\n\x01\x1f", "☃", "\U0001F600", "/\t"]

GRAPHS = {
    "empty": lambda: build_graph([], []),
    "no_edges": lambda: build_graph(["a", "b", "c"], []),
    "odd_names": lambda: EdgeColouredMultigraph(ODD_NAMES, [
        Edge('i"d', "ä", 'q"', RED), Edge("\\e\r", "ä", 'q"', BLUE),
        Edge("é\x00", "b\\", "c\n\x01\x1f", RED),
        Edge("\u2028", "☃", "\U0001F600", BLUE),
        Edge("x", "/\t", "ä", BLUE)]),
    "parallel": lambda: build_graph(["a", "b", "c"], [
        ("a", "b", RED), ("a", "b", BLUE), ("b", "a", RED),
        ("a", "b", BLUE), ("c", "b", RED)]),
    **{f"{model}-{seed}": (lambda m=model, s=seed, p=params:
                            generate(m, s, **p))
       for model, params in MODELS for seed in range(4)},
    **{f"fixture-{name}": (lambda n=name: fixture(n))
       for name in fixture_names()},
}


@pytest.fixture(params=[(name, parsed) for name in GRAPHS
                        for parsed in (False, True)],
                ids=lambda p: p[0] + ("-parsed" if p[1] else ""))
def graph(request):
    name, parsed = request.param
    g = GRAPHS[name]()
    # parsed from the record-reading writer's text, so it is its own input
    return parse_graph(dumps(g)) if parsed else g


def test_json_is_the_json_dumps_text(graph):
    assert serialize_graph(graph) == dumps(graph)


def test_dot_is_the_record_writers_text(graph):
    assert serialize_graph(graph, "dot") == ref_dot(graph)


def test_writers_build_no_edge_records():
    g = parse_graph(dumps(generate("mclosed_blowup", 3, n=12)))
    serialize_graph(g)
    serialize_graph(g, "dot")
    assert g._edges is None


names = st.lists(st.text(max_size=3), min_size=1, max_size=5, unique=True)


@given(names, st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                                 st.booleans(), st.text(max_size=3)),
                       max_size=8))
def test_json_of_random_names_and_ids(verts, raw):
    n = len(verts)
    edges, ids = [], set()
    for u, v, blue, e in raw:
        if u % n != v % n and e not in ids:
            ids.add(e)
            edges.append(Edge(e, verts[u % n], verts[v % n],
                              BLUE if blue else RED))
    g = EdgeColouredMultigraph(verts, edges)
    assert serialize_graph(g) == dumps(g)
    assert parse_graph(serialize_graph(g)) == g


def _same(g, h):
    assert g.edges == h.edges
    assert g == h


@pytest.mark.parametrize("model, params", MODELS)
def test_build_graph_equals_the_record_construction(model, params):
    for seed in range(4):
        g = generate(model, seed, **params)
        triples = [(e.u, e.v, e.colour) for e in g.edges]
        _same(build_graph(g.vertices, triples),
              ref_build_graph(g.vertices, triples))


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_blow_up_equals_the_record_construction(name):
    g = GRAPHS[name]()
    mult = {v: 1 + i % 3 for i, v in enumerate(g.vertices)}
    _same(blow_up(g, mult), ref_blow_up(g, mult))


@pytest.mark.parametrize("policy", ["always_red", "always_blue",
                                    "seeded_random"])
@pytest.mark.parametrize("seed", range(6))
def test_m_closure_equals_the_record_construction(policy, seed):
    g = generate("random_2ec", seed, n=7, m=10)
    _same(m_closure(g, policy, seed), ref_m_closure(g, policy, seed))


@pytest.mark.parametrize("seed", range(4))
def test_bb_from_digraph_equals_the_record_construction(seed):
    d = bb_to_digraph(generate("complete_bipartite", seed, n1=3, n2=4))
    _same(bb_from_digraph(d), ref_bb_from_digraph(d))


EFIG = dumps(fixture("efig"))
DIGRAPH = json.dumps({"x_part": ["a", "b"], "y_part": ["c"], "arcs": [
    {"id": "e0", "tail": "a", "head": "c"},
    {"id": "e1", "tail": "c", "head": "b"},
    {"id": "e2", "tail": "c", "head": "a"}]})


@pytest.mark.parametrize("args, text, make", [
    (["random", "--model", "mclosed_blowup", "--seed", "9", "--n", "30"],
     "", lambda: generate("mclosed_blowup", 9, n=30)),
    (["fixture", "halfm"], "", lambda: fixture("halfm")),
    (["transform", "blowup", "-", "--times", "2"], EFIG,
     lambda: blow_up(fixture("efig"),
                     dict.fromkeys(fixture("efig").vertices, 2))),
    (["transform", "mclosure", "-", "--colour-policy", "seeded_random",
      "--seed", "4"], EFIG,
     lambda: m_closure(fixture("efig"), "seeded_random", 4)),
    (["transform", "bb-from-digraph", "-"], DIGRAPH,
     lambda: build_graph(["a", "b", "c"], [
         ("a", "c", RED), ("b", "c", BLUE), ("a", "c", BLUE)])),
])
def test_cli_prints_the_json_dumps_text(args, text, make):
    res = CliRunner().invoke(main, args, input=text)
    assert res.exit_code == 0, res.output
    assert res.output == dumps(make())
