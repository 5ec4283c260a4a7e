"""The route ladder behind `analyze`, `supereulerian` and `hamiltonian`.

One input per route (extension of an M-closed graph, complete
bipartite, oracle, unsupported, budget exhausted) pins each command's
exit code and document, and the matching `analyze` entry.  Further
tests cover inputs with fewer than two vertices, internal errors that
must surface instead of turning into an answer, the per-graph fact
memo, and output that does not depend on the interpreter's hash seed.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import ecgraph
import ecgraph.analysis
import ecgraph.cli
import ecgraph.connect
import ecgraph.core
import ecgraph.merge
from ecgraph import UnsupportedClass, supereulerian
from ecgraph.analysis import Analysis
from ecgraph.cli import analyze_graph, main
from ecgraph.connect import ConnectivityReport, complete_multipartite_classes
from ecgraph.core import (
    AlternatingCycle,
    AlternatingTrail,
    BLUE,
    Edge,
    EdgeColouredMultigraph,
    RED,
    GraphError,
    VerifyResult,
    build_graph,
    graph_to_dict,
    serialize_graph,
    verify_witness,
)
from ecgraph.factor import alternating_cycle_factor
from ecgraph.matching import IndexedGraph
from ecgraph.merge import MergeInternalError, alternating_hamiltonian_cycle
from ecgraph.reductions import fixture, generate
from ecgraph.structure import (
    blow_up, is_m_closed, m_closure, similarity_partition,
)


def _over_edge_budget():
    # halfm is in no fast class; 80 parallel copies of one edge put it
    # over the oracle's edge budget for --max-n 8 (max(22, 10 * 8))
    g = fixture("halfm")
    e = g.edges[0]
    return EdgeColouredMultigraph(
        g.vertices, list(g.edges) + [Edge(f"p{i}", e.u, e.v, e.colour)
                                     for i in range(80)])


INPUTS = {
    "ext_pos": lambda: generate("mclosed_blowup", seed=29, n=4),
    "ext_no_factor": lambda: generate("mclosed_blowup", seed=0, n=4),
    "ext_not_connected": lambda: m_closure(
        generate("random_2ec", seed=89, n=4, m=6), "seeded_random", seed=89),
    "cb_pos": lambda: generate("complete_bipartite", seed=1, n1=3, n2=3),
    "cb_not_connected": lambda: generate("complete_bipartite", seed=0,
                                         n1=2, n2=2),
    "cb_no_factor": lambda: generate("complete_bipartite", seed=50,
                                     n1=3, n2=4),
    "cb_ham_no_factor": lambda: generate("complete_bipartite", seed=4,
                                         n1=3, n2=4),
    "oracle_pos": lambda: generate("random_2ec", seed=3, n=6, m=12),
    "oracle_neg": lambda: generate("random_2ec", seed=0, n=6, m=12),
    "over_budget": _over_edge_budget,
}

ORACLE_WITNESS = ["--witness", "oracle", "--max-n", "7"]
NO_CE = {"counterexample": None}

# (question, input, extra args, exit code, expected document); a
# witness in a document is given by its kind
ROUTES = [
    ("supereulerian", "ext_pos", [], 0, {"kind": "trail"}),
    ("supereulerian", "ext_no_factor", [], 3,
     {"kind": "no_eulerian_factor", **NO_CE}),
    ("supereulerian", "ext_not_connected", [], 3,
     {"kind": "not_trail_colour_connected",
      "counterexample": ["v0", "v1", "red"]}),
    ("supereulerian", "cb_pos", [], 0, {"answer": True, "witness": None}),
    ("supereulerian", "cb_pos", ORACLE_WITNESS, 0,
     {"answer": True, "witness": "trail"}),
    ("supereulerian", "cb_not_connected", [], 3,
     {"kind": "not_colour_connected",
      "counterexample": ["p0.0", "p0.1", "red"]}),
    ("supereulerian", "cb_no_factor", [], 3,
     {"kind": "no_eulerian_factor", **NO_CE}),
    ("supereulerian", "cb_no_factor", ORACLE_WITNESS, 3,
     {"kind": "no_eulerian_factor", **NO_CE}),
    ("supereulerian", "cb_ham_no_factor", [], 0,
     {"answer": True, "witness": None}),
    ("supereulerian", "cb_ham_no_factor", ORACLE_WITNESS, 0,
     {"answer": True, "witness": "trail"}),
    ("supereulerian", "oracle_pos", ["--max-n", "8"], 0, {"kind": "trail"}),
    ("supereulerian", "oracle_neg", ["--max-n", "8"], 3,
     {"kind": "not_supereulerian", "method": "oracle"}),
    ("supereulerian", "oracle_neg", [], 4, None),
    ("supereulerian", "over_budget", ["--max-n", "8"], 5, None),
    ("hamiltonian", "ext_pos", [], 0, {"kind": "cycle"}),
    ("hamiltonian", "ext_no_factor", [], 3,
     {"kind": "no_cycle_factor", **NO_CE}),
    ("hamiltonian", "ext_not_connected", [], 3,
     {"kind": "not_colour_connected",
      "counterexample": ["v0", "v1", "red"]}),
    ("hamiltonian", "cb_pos", [], 0, {"answer": True, "witness": None}),
    ("hamiltonian", "cb_pos", ORACLE_WITNESS, 0,
     {"answer": True, "witness": "cycle"}),
    ("hamiltonian", "cb_not_connected", [], 3,
     {"kind": "not_colour_connected",
      "counterexample": ["p0.0", "p0.1", "red"]}),
    ("hamiltonian", "cb_no_factor", [], 3,
     {"kind": "no_cycle_factor", **NO_CE}),
    ("hamiltonian", "cb_no_factor", ORACLE_WITNESS, 3,
     {"kind": "no_cycle_factor", **NO_CE}),
    ("hamiltonian", "cb_ham_no_factor", [], 3,
     {"kind": "no_cycle_factor", **NO_CE}),
    ("hamiltonian", "cb_ham_no_factor", ORACLE_WITNESS, 3,
     {"kind": "no_cycle_factor", **NO_CE}),
    ("hamiltonian", "oracle_pos", ["--max-n", "8"], 0, {"kind": "cycle"}),
    ("hamiltonian", "oracle_neg", ["--max-n", "8"], 3,
     {"kind": "not_hamiltonian", "method": "oracle"}),
    ("hamiltonian", "oracle_neg", [], 4, None),
    ("hamiltonian", "over_budget", ["--max-n", "8"], 5, None),
]

# (input, max_n) -> question -> (answer, method, counterexample,
# witness kind) in the analyze report
ANALYZED = {
    ("ext_pos", 0): {"supereulerian": (True, "fast", None, "trail"),
                     "hamiltonian": (True, "fast", None, "cycle")},
    ("ext_no_factor", 0): {"supereulerian": (False, "fast", None, None),
                           "hamiltonian": (False, "fast", None, None)},
    ("ext_not_connected", 0): {
        "supereulerian": (False, "fast", ["v0", "v1", "red"], None),
        "hamiltonian": (False, "fast", ["v0", "v1", "red"], None)},
    ("cb_pos", 0): {"supereulerian": (True, "fast", None, None),
                    "hamiltonian": (True, "fast", None, None)},
    ("cb_not_connected", 0): {
        "supereulerian": (False, "fast", ["p0.0", "p0.1", "red"], None),
        "hamiltonian": (False, "fast", ["p0.0", "p0.1", "red"], None)},
    ("cb_no_factor", 0): {"supereulerian": (False, "fast", None, None),
                          "hamiltonian": (False, "fast", None, None)},
    ("cb_ham_no_factor", 0): {"supereulerian": (True, "fast", None, None),
                              "hamiltonian": (False, "fast", None, None)},
    ("oracle_pos", 8): {"supereulerian": (True, "oracle", None, "trail"),
                        "hamiltonian": (True, "oracle", None, "cycle")},
    ("oracle_neg", 8): {"supereulerian": (False, "oracle", None, None),
                        "hamiltonian": (False, "oracle", None, None)},
    ("oracle_neg", 0): {
        "supereulerian": ("unknown", "unknown", None, None),
        "hamiltonian": ("unknown", "unknown", None, None)},
    ("over_budget", 8): {
        "supereulerian": ("unknown", "unknown", None, None),
        "hamiltonian": ("unknown", "unknown", None, None)},
}


@pytest.fixture
def runner():
    return CliRunner()


def _witness(w: dict):
    if w["kind"] == "cycle":
        return AlternatingCycle(w["start"], tuple(w["edges"]))
    return AlternatingTrail(w["start"], tuple(w["edges"]), w["closed"])


def _check_spanning(g, question: str, w: dict) -> None:
    """w verifies, and is the closed spanning trail or the hamiltonian
    cycle that `question` asks for."""
    wit = _witness(w)
    assert verify_witness(g, wit)
    seq = wit.vertex_sequence(g)
    if question == "hamiltonian":
        assert w["kind"] == "cycle"
        assert sorted(seq[:-1]) == sorted(g.vertices)
    else:
        assert w["kind"] == "trail" and wit.closed
        assert set(seq) == set(g.vertices)


@pytest.mark.parametrize("question,name,args,code,expected", ROUTES)
def test_decision_route(runner, question, name, args, code, expected):
    g = INPUTS[name]()
    res = runner.invoke(main, [question, "-"] + args,
                        input=serialize_graph(g))
    assert res.exit_code == code, res.output
    if expected is None:
        # an error message and no document
        assert res.output.startswith("error: ")
        return
    doc = json.loads(res.output)
    if "edges" in doc:
        # the document is the witness itself
        _check_spanning(g, question, doc)
        shown = {"kind": doc["kind"]}
    else:
        assert set(doc) == set(expected)
        shown = dict(doc)
        if doc.get("witness") is not None:
            _check_spanning(g, question, doc["witness"])
            shown["witness"] = doc["witness"]["kind"]
    assert shown == expected


@pytest.mark.parametrize("name,max_n", sorted(ANALYZED))
def test_analyze_route(name, max_n):
    g = INPUTS[name]()
    by_q = {e["question"]: e for e in analyze_graph(g, max_n).entries}
    for question, (answer, method, ce, kind) in ANALYZED[name, max_n].items():
        e = by_q[question]
        assert (e["answer"], e["method"], e["counterexample"]) \
            == (answer, method, ce)
        assert (e["witness"] and e["witness"]["kind"]) == kind
        if e["witness"]:
            _check_spanning(g, question, e["witness"])


ONE_VERTEX = build_graph(["a"], [])


@pytest.mark.parametrize("question",
                         ["supereulerian", "hamiltonian", "connectivity"])
@pytest.mark.parametrize("args", [[], ["--max-n", "5"]])
def test_one_vertex_is_unsupported(runner, question, args):
    if question == "connectivity" and args:
        # it takes no --max-n; ask for one sweep instead
        args = ["--kind", "trail"]
    res = runner.invoke(main, [question, "-"] + args,
                        input=serialize_graph(ONE_VERTEX))
    assert res.exit_code == 4
    assert "two vertices" in res.output


def test_one_vertex_library_and_analyze():
    with pytest.raises(UnsupportedClass):
        supereulerian(ONE_VERTEX)
    with pytest.raises(UnsupportedClass):
        alternating_hamiltonian_cycle(ONE_VERTEX)
    by_q = {e["question"]: e for e in analyze_graph(ONE_VERTEX, 5).entries}
    assert by_q["supereulerian"]["answer"] == "unknown"
    assert by_q["hamiltonian"]["answer"] == "unknown"


def test_out_of_class_hamiltonian_raises_unsupported():
    assert UnsupportedClass is ecgraph.core.UnsupportedClass
    with pytest.raises(UnsupportedClass):
        alternating_hamiltonian_cycle(fixture("halfm"))


def _fail_verification(g, w):
    return VerifyResult(False, "forced")


def test_failed_merge_check_raises_through_hamiltonian(runner, monkeypatch):
    # each merge move checks the walk it builds; a chord that is no edge
    # of g fails that check.  This blow-up merges a two-cycle factor
    monkeypatch.setattr(ecgraph.merge, "_edge_to",
                        lambda g, u, v, c: len(g.edges))
    g = generate("mclosed_blowup", seed=278, n=8)
    assert len(Analysis.of(g).cf.cycles) == 2
    res = runner.invoke(main, ["hamiltonian", "-"],
                        input=serialize_graph(g))
    assert isinstance(res.exception, MergeInternalError)
    assert res.exit_code not in (0, 3, 4, 5)


@pytest.mark.parametrize("kind", ["eulerian", "cycle"])
def test_failed_factor_check_raises_through_the_cli(runner, monkeypatch,
                                                    kind):
    # the factor command prints a factor only after its builder's check
    doc = serialize_graph(generate("mclosed_blowup", seed=278, n=8))
    args = ["factor", "-", "--kind", kind]
    assert runner.invoke(main, args, input=doc).exit_code == 0
    monkeypatch.setattr(ecgraph.core, "verify_witness", _fail_verification)
    res = runner.invoke(main, args, input=doc)
    assert isinstance(res.exception, GraphError)
    assert res.exit_code not in (0, 3)


def test_analyze_checks_each_witness_once(monkeypatch):
    # each witness is checked where it is built, and nowhere after: the
    # merged trail of this three-part factor is checked on positions, as
    # it is built, and the factor once, by eulerian_factor
    checked = []
    verify = ecgraph.core.verify_witness

    def counted(g, w):
        checked.append(w)
        return verify(g, w)

    monkeypatch.setattr(ecgraph.core, "verify_witness", counted)
    g = generate("mclosed_blowup", seed=37, n=50)
    by_q = {e["question"]: e for e in analyze_graph(g).entries}
    assert by_q["supereulerian"]["answer"] is True
    assert any(w is Analysis.of(g).ef for w in checked)
    # every checked object is still alive, so their ids are distinct
    assert len({id(w) for w in checked}) == len(checked)


@pytest.mark.parametrize("model, seed, params, max_n, oracle", [
    ("mclosed_blowup", 9, dict(n=60), 0, False),
    ("mclosed_blowup", 37, dict(n=50), 0, False),
    ("random_2ec", 2, dict(n=30, m=120), 0, False),
    ("complete_bipartite", 3, dict(n1=4, n2=5), 0, False),
    # in no fast class: the oracle answers supereulerian "yes"
    ("random_2ec", 0, dict(n=7, m=18), 9, True),
])
def test_analyze_of_a_parsed_graph_builds_no_edge(monkeypatch, model, seed,
                                                  params, max_n, oracle):
    # parse_graph builds no Edge records and g.edges builds them on
    # first read, so a decision path that reads g.edges fails here, at
    # the line that reads it
    text = serialize_graph(generate(model, seed, **params))

    def built(self, *args):
        raise AssertionError("a decision path built an Edge record")

    monkeypatch.setattr(Edge, "__init__", built)
    rep = analyze_graph(ecgraph.core.parse_graph(text), max_n)
    by_q = {e["question"]: e for e in rep.entries}
    assert (by_q["supereulerian"]["method"] == "oracle") == oracle
    assert by_q["supereulerian"]["answer"] is not None


def test_failed_sweep_check_raises_through_hamiltonian(runner, monkeypatch):
    # a GraphError is a ValueError; it must not read as "unsupported".
    # Every search returns p[a] = a ^ 1, so no node's chain reaches the
    # root, and the sweep's tree check rejects the first node it asks
    search = IndexedGraph.search

    def looped(self, root, *rule):
        outer, p, match = search(self, root, *rule)
        return outer, [a ^ 1 for a in range(len(p))], match

    monkeypatch.setattr(IndexedGraph, "search", looped)
    res = runner.invoke(main, ["hamiltonian", "-"],
                        input=serialize_graph(fixture("needall_h")))
    assert isinstance(res.exception, GraphError)
    assert "fails the search tree's check" in str(res.exception)
    assert res.exit_code not in (0, 3, 4, 5)


@pytest.mark.parametrize("question, name, oracle", [
    ("supereulerian", "cb_ham_no_factor", "oracle_supereulerian"),
    ("hamiltonian", "cb_pos", "oracle_ham_alternating"),
])
def test_oracle_witness_that_finds_nothing_raises(runner, monkeypatch,
                                                  question, name, oracle):
    # the oracle disagreeing with a characterized yes is an internal
    # error, not a yes without a witness
    monkeypatch.setattr(ecgraph.cli, oracle, lambda g, budget: None)
    res = runner.invoke(main, [question, "-", "--max-n", "9",
                               "--witness", "oracle"],
                        input=serialize_graph(INPUTS[name]()))
    assert isinstance(res.exception, GraphError)
    assert "internal error: the oracle finds no witness" \
        in str(res.exception)
    assert res.exit_code not in (0, 3, 4, 5)


# module -> the functions whose results the analysis memo keeps; the
# memo sweeps through no public function, as it confirms a base's "no"
# with the query object it then sweeps with, and starts its trail sweep
# where the path sweep failed, so connectivity counts by the QUERIES
# objects built, or by the digraph sweeps of a bipartite graph, and the
# quotient's copy of g by the calls to `induced`
FACTS = {
    "structure": ("similarity_partition", "is_extension_of_m_closed",
                  "is_m_closed"),
    "connect": ("complete_multipartite_classes", "bipartite_sides",
                "_digraph_sweep"),
    "factor": ("eulerian_factor", "alternating_cycle_factor"),
}
QUERIES = ("_PathQuery", "_TrailQuery")
INDUCED = "induced"
EVERY_FACT = {name for names in FACTS.values() for name in names} \
    | set(QUERIES)


def _count_fact_calls(monkeypatch, g
                      ) -> tuple[Counter, Counter, Counter, Counter]:
    """Calls to each FACTS function, through every binding of it in the
    ecgraph package, QUERIES objects built and INDUCED subgraphs
    taken, during analyze_graph: those on g, those on the M-closed base
    of g's analysis, and all of them; and the questions
    `Analysis.decision` was asked."""
    calls: list = []
    asked: list = []
    decision = Analysis.decision
    query_init = ecgraph.connect._PathQuery.__init__
    induced = EdgeColouredMultigraph.induced

    def counted_induced(self, vertex_set):
        calls.append((INDUCED, self))
        return induced(self, vertex_set)

    def counted_decision(self, question):
        asked.append(question)
        return decision(self, question)

    def counted_query_init(self, h):
        calls.append((type(self).__name__, h))
        query_init(self, h)

    monkeypatch.setattr(Analysis, "decision", counted_decision)
    monkeypatch.setattr(ecgraph.connect._PathQuery, "__init__",
                        counted_query_init)
    monkeypatch.setattr(EdgeColouredMultigraph, "induced", counted_induced)
    originals = {}
    for mod, names in FACTS.items():
        for name in names:
            fn = getattr(sys.modules[f"ecgraph.{mod}"], name)
            originals[id(fn)] = (name, fn)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0] if args else None))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {k: counting(*v) for k, v in originals.items()}
    for modname, module in list(sys.modules.items()):
        if modname != "ecgraph" and not modname.startswith("ecgraph."):
            continue
        for attr, val in list(vars(module).items()):
            if id(val) in originals and originals[id(val)][1] is val:
                monkeypatch.setattr(module, attr, wrappers[id(val)])
    analyze_graph(g)
    ext = Analysis.of(g).ext
    base = ext[0] if ext is not None else None
    return (Counter(name for name, arg in calls if arg is g),
            Counter(name for name, arg in calls
                    if base is not None and arg is base),
            Counter(name for name, _ in calls), Counter(asked))


def test_each_fact_once_on_m_closed_blow_up(monkeypatch):
    # 14 vertices over a smaller M-closed base: the path sweep runs on
    # the base, once, and never on g, as a base yes stands for g.  So g
    # is colour-connected, hence trail-colour-connected: no trail sweep.
    # The partite classes are computed on g only.  The base's flow rules
    # out a cycle factor, so g's is never computed.  M-closedness is
    # checked on the base only, and g's is read off the partition.  The
    # base has an odd cycle, so its sides are asked and it has no
    # digraph sweep
    g = generate("mclosed_blowup", seed=9, n=14)
    on_g, on_base, every, asked = _count_fact_calls(monkeypatch, g)
    assert len(Analysis.of(g).ext[0].vertices) < len(g.vertices)
    assert max((on_g | on_base).values()) == 1
    assert on_g == Counter(EVERY_FACT - {
        *QUERIES, "alternating_cycle_factor", "is_m_closed",
        "bipartite_sides", "_digraph_sweep"} | {INDUCED})
    assert on_base == Counter(("_PathQuery", "is_m_closed",
                               "bipartite_sides"))
    assert Analysis.of(g).cf is None
    assert every["_TrailQuery"] == 0
    assert Analysis.of(g).tcc.connected
    assert every["similarity_partition"] == 1
    assert asked == Counter(("supereulerian", "hamiltonian"))


def test_each_fact_once_on_complete_bipartite(monkeypatch):
    # bipartite, so both reports come from the two searches of its
    # digraph view: no path or trail query object is built
    g = INPUTS["cb_pos"]()
    on_g, _, every, asked = _count_fact_calls(monkeypatch, g)
    assert max(on_g.values()) == 1
    assert on_g == Counter(EVERY_FACT - set(QUERIES))
    assert every["_PathQuery"] == every["_TrailQuery"] == 0
    assert Analysis.of(g).tcc.connected
    assert every["similarity_partition"] == 1
    assert asked == Counter(("supereulerian", "hamiltonian"))


def test_bipartite_extension_above_the_threshold_reports_its_base(
        monkeypatch):
    # b-a red, b-c blue, blown up to 13 vertices.  The base answers
    # through its own digraph view: b misses a on a blue start.  b.0 has
    # blue edges, so one search of g's digraph view from b.0 confirms
    # the triple on g, with no path or trail query, and g reports it for
    # both notions; g's own first failing triple is another, at b.0's
    # twin b.1
    base = build_graph(["b", "a", "c"], [("b", "a", RED), ("b", "c", BLUE)])
    g = blow_up(base, {"b": 5, "a": 4, "c": 4})
    on_g, on_base, every, _ = _count_fact_calls(monkeypatch, g)
    a = Analysis.of(g)
    assert len(a.swept.vertices) == 3 < len(g.vertices)
    assert on_base["_digraph_sweep"] == 1 and on_g["_digraph_sweep"] == 0
    assert every["_PathQuery"] == every["_TrailQuery"] == 0
    assert a.cc == a.tcc == ConnectivityReport(False, ("b.0", "a.0", BLUE))
    assert ecgraph.connect.is_colour_connected(g).counterexample == (
        "b.0", "b.1", RED)


# no two vertices similar: the quotient is g itself, not a copy, and
# M-closedness is checked once, on g, as the quotient's
@pytest.mark.parametrize("make", [
    INPUTS["cb_pos"], INPUTS["ext_pos"],
    lambda: generate("random_2ec", seed=2, n=30, m=120)],
    ids=["cb_pos", "ext_pos", "random_2ec-2"])
def test_twin_free_graph_is_its_own_quotient(monkeypatch, make):
    g = make()
    on_g, _, every, _ = _count_fact_calls(monkeypatch, g)
    assert similarity_partition(g).quotient is g
    assert every["is_m_closed"] == on_g["is_m_closed"] == 1
    assert every[INDUCED] == 0
    a = Analysis.of(g)
    assert a.ext is None or a.ext[0] is g
    assert a.m_closed == (a.ext is not None) == is_m_closed(g)[0]


def test_each_fact_once_over_a_base_above_the_threshold(monkeypatch):
    # an all-red K13 with one vertex doubled: the base has 13 vertices,
    # more than _QUOTIENT_THRESHOLD, and is swept through its own memo,
    # which must not partition or check the base again; g's doubled v0
    # has edges, so g is not M-closed, read off the partition unchecked
    vs = [f"v{i}" for i in range(13)]
    k13 = build_graph(vs, [(u, v, RED)
                           for u, v in itertools.combinations(vs, 2)])
    g = blow_up(k13, {v: 1 + (v == "v0") for v in vs})
    on_g, on_base, every, _ = _count_fact_calls(monkeypatch, g)
    base = Analysis.of(g).ext[0]
    assert len(base.vertices) == 13 and Analysis.of(g).swept is base
    assert every["similarity_partition"] == 1
    assert on_g["is_m_closed"] == 0
    assert every["is_m_closed"] == on_base["is_m_closed"] == 1
    assert Analysis.of(base).ext[0] is base and Analysis.of(base).m_closed
    assert not Analysis.of(g).m_closed


# a triangle and an isolated z: doubling z gives a block of two similar
# vertices with no edge, and g stays M-closed; doubling a gives a red
# 2-path between a's copies through b, whose ends are not adjacent
TRIANGLE_AND_Z = build_graph(["a", "b", "c", "z"], [
    ("a", "b", RED), ("b", "c", BLUE), ("a", "c", RED)])


@pytest.mark.parametrize("doubled, closed", [("z", True), ("a", False)])
def test_m_closed_is_read_off_the_partition(monkeypatch, doubled, closed):
    # M-closedness is checked on the base alone, never on g
    g = blow_up(TRIANGLE_AND_Z,
                {v: 1 + (v == doubled) for v in TRIANGLE_AND_Z.vertices})
    on_g, on_base, every, _ = _count_fact_calls(monkeypatch, g)
    assert len(Analysis.of(g).ext[0].vertices) == 4
    assert on_g["is_m_closed"] == 0
    assert every["is_m_closed"] == on_base["is_m_closed"] == 1
    assert Analysis.of(g).m_closed is closed
    assert is_m_closed(g)[0] is closed


def test_quotient_transform_of_a_twin_free_graph(runner):
    g = INPUTS["cb_pos"]()
    res = runner.invoke(main, ["transform", "quotient", "-"],
                        input=serialize_graph(g))
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        **graph_to_dict(g), "blocks": [[v] for v in g.vertices]}


def test_analyze_output_does_not_depend_on_hash_seed(tmp_path):
    src = str(Path(ecgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    # a one-part eulerian factor and no cycle factor; a three-part
    # eulerian factor; a three-cycle cycle factor
    for model, seed, params in (("mclosed_blowup", 9, {"n": 30}),
                                ("mclosed_blowup", 37, {"n": 50}),
                                ("random_2ec", 3, {"n": 30, "m": 120})):
        path = tmp_path / f"{model}-{seed}.json"
        path.write_text(serialize_graph(generate(model, seed=seed, **params)))
        reports = []
        for hash_seed in ("0", "1"):
            out = subprocess.run(
                [sys.executable, "-m", "ecgraph.cli", "analyze", str(path)],
                env=dict(env, PYTHONHASHSEED=hash_seed), capture_output=True,
                text=True, check=True, timeout=120).stdout
            entries = json.loads(out)["report"]
            for e in entries:
                del e["elapsed"]
            reports.append(entries)
        assert reports[0] == reports[1], (model, seed)


# The base route of the cycle factor and the partite classes: a short
# flow on an extension's smaller M-closed base is g's "no"; anything
# else is computed on g (analysis.py's module docstring)

def _quotient_blow_ups():
    """M-closed quotients blown up with seeded multiplicities 1-3, or one
    multiplicity 2-3 for all.  Half are quotients of generated M-closed
    extensions; the other half are M-closures of an alternating cycle
    of even length 4-8 with random chords, so they and their uniform
    blow-ups have a cycle factor."""
    for s in range(120):
        rng = random.Random(s)
        if s % 4 < 2:
            g = generate("mclosed_blowup", seed=s, n=4 + s % 9)
        else:
            vs = [f"v{i}" for i in range(2 * rng.randint(2, 4))]
            g = m_closure(build_graph(vs, [
                (vs[i], vs[i - 1], (RED, BLUE)[i % 2])
                for i in range(len(vs))] + [
                (*rng.sample(vs, 2), rng.choice((RED, BLUE)))
                for _ in range(rng.randint(0, 4))]),
                "seeded_random", seed=s)
        base = similarity_partition(g).quotient
        k = rng.randint(2, 3)
        yield blow_up(base, {v: rng.randint(1, 3) if s % 2 else k
                             for v in base.vertices})


def test_base_route_answers_as_g():
    graphs = itertools.chain(
        (generate("mclosed_blowup", seed=s, n=6 + s % 40)
         for s in range(200)), _quotient_blow_ups())
    answers = Counter()
    for g in graphs:
        a = Analysis.of(g)
        assert a.cf == alternating_cycle_factor(g)
        assert a.classes == complete_multipartite_classes(g)
        if a.base is not None:
            answers[a.cf is not None, a.classes is not None] += 1
    # (has a cycle factor, is complete multipartite) over a smaller
    # base: both answers of both facts occur
    assert answers == {(False, True): 211, (False, False): 71,
                       (True, True): 28, (True, False): 6}


def _spy_on(monkeypatch, name):
    """The graphs that ecgraph.analysis's `name` is called on, filled in
    as facts are read."""
    fn = getattr(ecgraph.analysis, name)
    calls = []
    monkeypatch.setattr(ecgraph.analysis, name,
                        lambda h: calls.append(h) or fn(h))
    return calls


def test_short_base_flow_is_no_without_g(monkeypatch):
    g = generate("mclosed_blowup", seed=9, n=60)
    calls = _spy_on(monkeypatch, "alternating_cycle_factor")
    assert Analysis.of(g).cf is None and calls == []


def test_feasible_base_flow_leaves_a_parity_no_to_g(monkeypatch):
    # a red and blue triangle x, y, z beside a red and blue digon w-v
    # blown up to 2 + 2: the base's flow is full in both colours (a half
    # on each triangle edge, 2 on w-v), but the triangle's three
    # vertices have no perfect matching, so g has no cycle factor, and
    # says so from its own matching
    base = build_graph(["x", "y", "z", "w", "v"], [
        (u, w, c) for u, w in ("xy", "yz", "zx", "wv")
        for c in (RED, BLUE)])
    g = blow_up(base, {"x": 1, "y": 1, "z": 1, "w": 2, "v": 2})
    calls = _spy_on(monkeypatch, "alternating_cycle_factor")
    a = Analysis.of(g)
    assert len(a.base.vertices) == 5 < len(g.vertices)
    assert a.cf is None and calls == [g]


@pytest.mark.parametrize("seed, complete", [(9, True), (10, False)])
def test_classes_run_once_on_g(monkeypatch, seed, complete):
    # g's partite classes are computed once, on g, never on its smaller
    # base, whether g is complete multipartite (seed 9) or not (seed 10)
    g = generate("mclosed_blowup", seed=seed, n=30)
    calls = _spy_on(monkeypatch, "complete_multipartite_classes")
    analyze_graph(g)
    a = Analysis.of(g)
    assert len(a.base.vertices) < len(g.vertices)
    assert (a.classes is not None) == complete and calls == [g]


@pytest.mark.parametrize("seed", range(8))
def test_digraph_confirm_agrees_with_the_path_query(seed):
    # a base triple is confirmed on a bipartite blow-up by one search of
    # its digraph view from the triple's start vertex; it answers as the
    # path and trail queries do, on every triple of the base
    base = generate("complete_bipartite", seed=seed, n1=2 + seed % 3,
                    n2=2 + seed % 2)
    g = blow_up(base, {v: 1 + (i + seed) % 3
                       for i, v in enumerate(base.vertices)})
    side = ecgraph.connect.bipartite_sides(g)
    assert side is not None
    path, trail = ecgraph.connect._PathQuery(g), ecgraph.connect._TrailQuery(g)
    for u in base.vertices:
        for v in base.vertices:
            if u == v:
                continue
            x, y = g.index[f"{u}.0"], g.index[f"{v}.0"]
            for c in (0, 1):
                par, _ = ecgraph.connect._digraph_tree(g, side, c ^ side[x], x)
                assert (par[y] is not None) == path.reaches(x, y, c) \
                    == trail.reaches(x, y, c), (u, v, c)
