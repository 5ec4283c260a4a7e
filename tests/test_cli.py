import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ecgraph.analysis
import ecgraph.cli
from ecgraph.cli import analyze_graph, main
from ecgraph.core import (
    BLUE, RED, GraphError, VerifyResult, build_graph, parse_graph,
    serialize_graph,
)
from ecgraph.reductions import fixture, generate


@pytest.fixture
def runner():
    return CliRunner()


def fixture_json(name):
    return serialize_graph(fixture(name))


def entries(result):
    doc = json.loads(result.output)
    return {e["question"]: e for e in doc["report"]}


class TestAnalyze:
    def test_report_shape(self, runner):
        res = runner.invoke(main, ["analyze", "-"],
                            input=fixture_json("halfm"))
        assert res.exit_code == 0
        by_q = entries(res)
        for q in ("m_closed", "extension_of_m_closed", "complete_bipartite",
                  "complete_multipartite", "colour_connected",
                  "trail_colour_connected", "eulerian_factor", "cycle_factor",
                  "supereulerian", "hamiltonian"):
            assert q in by_q
        for e in by_q.values():
            assert {"question", "answer", "witness", "counterexample",
                    "method", "elapsed"} <= set(e)

    def test_halfm_answers(self, runner):
        res = runner.invoke(main, ["analyze", "-"],
                            input=fixture_json("halfm"))
        by_q = entries(res)
        assert by_q["colour_connected"]["answer"] is True
        assert by_q["cycle_factor"]["answer"] is True
        assert by_q["m_closed"]["answer"] is False
        # halfm is outside every fast class and no oracle was allowed
        assert by_q["supereulerian"]["answer"] == "unknown"

    def test_efig_with_oracle_routes(self, runner):
        res = runner.invoke(main, ["analyze", "-", "--max-n", "8"],
                            input=fixture_json("efig"))
        by_q = entries(res)
        assert by_q["supereulerian"]["answer"] is True
        assert by_q["hamiltonian"]["answer"] is False
        assert by_q["eulerian_factor"]["answer"] is True

    def test_needall_g_counterexample(self, runner):
        res = runner.invoke(main, ["analyze", "-"],
                            input=fixture_json("needall_g"))
        by_q = entries(res)
        assert by_q["trail_colour_connected"]["answer"] is False
        assert by_q["trail_colour_connected"]["counterexample"] \
            == ["x1", "x2", "red"]

    def test_generated_instance_in_class(self, runner):
        g = generate("mclosed_blowup", seed=1, n=6)
        res = runner.invoke(main, ["analyze", "-"],
                            input=serialize_graph(g))
        by_q = entries(res)
        assert by_q["extension_of_m_closed"]["answer"] is True
        assert by_q["supereulerian"]["method"] == "fast"

    def test_table_output(self, runner):
        res = runner.invoke(main, ["analyze", "-", "--table"],
                            input=fixture_json("efig"))
        assert res.exit_code == 0
        assert "supereulerian" in res.output
        assert "{" not in res.output

    def test_table_has_a_row_per_report_entry(self, runner):
        text = fixture_json("needall_g")
        res = runner.invoke(main, ["analyze", "-", "--table"], input=text)
        assert res.exit_code == 0
        rows = res.output.splitlines()
        questions = list(entries(runner.invoke(main, ["analyze", "-"],
                                               input=text)))
        assert [row.split()[0] for row in rows] == questions
        trail_row = rows[questions.index("trail_colour_connected")]
        assert "counterexample=('x1', 'x2', 'red')" in trail_row

    def test_json_is_the_default_not_an_option(self, runner):
        res = runner.invoke(main, ["analyze", "-", "--json"],
                            input=fixture_json("efig"))
        assert res.exit_code == 2

    def test_failed_witness_check_raises(self, monkeypatch):
        # an internal failure is raised, never reported as "unknown"
        monkeypatch.setattr(ecgraph.core, "verify_witness",
                            lambda g, w: VerifyResult(False, "forced"))
        with pytest.raises(GraphError):
            analyze_graph(fixture("efig"))


def test_analyze_closes_its_input_file(tmp_path):
    # development mode reports a file left open as a ResourceWarning
    path = tmp_path / "efig.json"
    path.write_text(fixture_json("efig"))
    src = str(Path(ecgraph.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-m", "ecgraph.cli", "analyze", str(path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "ResourceWarning" not in out.stderr, out.stderr
    assert json.loads(out.stdout)["report"]


class TestExitCodes:
    def test_bad_json_is_usage_error(self, runner):
        res = runner.invoke(main, ["analyze", "-"], input="{not json")
        assert res.exit_code == 2

    def test_negative_answer(self, runner):
        res = runner.invoke(main, ["connectivity", "-"],
                            input=fixture_json("needall_g"))
        assert res.exit_code == 3
        doc = json.loads(res.output)
        assert doc["trail_counterexample"] == ["x1", "x2", "red"]

    def test_unsupported_class(self, runner):
        res = runner.invoke(main, ["supereulerian", "-"],
                            input=fixture_json("halfm"))
        assert res.exit_code == 4

    def test_budget_exhausted(self, runner):
        g = generate("random_2ec", seed=5, n=12, m=36)
        res = runner.invoke(
            main, ["oracle", "supereulerian", "-", "--max-n", "20"],
            input=serialize_graph(g),
            env={"ECGRAPH_BUDGET_SECS": "0.0"})
        assert res.exit_code == 5

    @pytest.mark.parametrize("raw", ["abc", "nan", "-1"])
    def test_invalid_budget_is_usage_error(self, runner, raw):
        # a NaN limit would never be passed: the oracle would run
        # unbounded; both exhaustive searches read the one limit
        for args, name in (
                (["oracle", "supereulerian", "-"], "efig"),
                (["factor", "-", "--kind", "cycle", "--forbid-digons"],
                 "halfm")):
            res = runner.invoke(main, args, input=fixture_json(name),
                                env={"ECGRAPH_BUDGET_SECS": raw})
            assert res.exit_code == 2, args
            assert f"invalid ECGRAPH_BUDGET_SECS value {raw!r}" \
                in res.output

    def test_unknown_fixture(self, runner):
        res = runner.invoke(main, ["fixture", "missing"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("command", [
        ["analyze"], ["supereulerian"], ["hamiltonian"],
        ["oracle", "supereulerian"]], ids=lambda c: c[0])
    def test_negative_max_n_is_usage_error(self, runner, command):
        res = runner.invoke(main, [*command, "-", "--max-n", "-1"],
                            input=fixture_json("efig"))
        assert res.exit_code == 2
        assert "Invalid value for '--max-n'" in res.output


class TestDecisions:
    def test_supereulerian_witness(self, runner):
        g = generate("mclosed_blowup", seed=1, n=6)
        res = runner.invoke(main, ["supereulerian", "-"],
                            input=serialize_graph(g))
        if res.exit_code == 0:
            doc = json.loads(res.output)
            assert doc["kind"] == "trail" and doc["closed"] is True
        else:
            assert res.exit_code == 3

    def test_hamiltonian_positive(self, runner):
        res = runner.invoke(main, ["hamiltonian", "-"],
                            input=fixture_json("needall_h"))
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["kind"] == "cycle" and len(doc["edges"]) == 8

    def test_factor_negative(self, runner):
        res = runner.invoke(main, ["factor", "-", "--kind", "eulerian"],
                            input=fixture_json("needall_g"))
        assert res.exit_code == 3
        assert json.loads(res.output)["kind"] == "no_eulerian_factor"

    def test_factor_positive(self, runner):
        res = runner.invoke(main, ["factor", "-", "--kind", "cycle"],
                            input=fixture_json("halfm"))
        assert res.exit_code == 0

    def test_factor_reads_the_analysis(self, runner, monkeypatch):
        # over seed 9's 5-vertex base the cycle factor is ruled out with
        # no matching on g; the eulerian factor is built on g
        calls = []

        def spy(name):
            fn = getattr(ecgraph.analysis, name)
            monkeypatch.setattr(ecgraph.analysis, name,
                                lambda g: calls.append(name) or fn(g))

        spy("eulerian_factor")
        spy("alternating_cycle_factor")
        text = serialize_graph(generate("mclosed_blowup", seed=9, n=60))
        res = runner.invoke(main, ["factor", "-", "--kind", "cycle"],
                            input=text)
        assert res.exit_code == 3 and calls == []
        assert json.loads(res.output) == {"kind": "no_cycle_factor"}
        res = runner.invoke(main, ["factor", "-"], input=text)
        assert res.exit_code == 0 and calls == ["eulerian_factor"]
        assert json.loads(res.output)["kind"] == "eulerian_factor"


class TestForbidDigons:
    """`factor --kind cycle --forbid-digons` searches exhaustively."""

    def test_digon_is_no_cycle_factor(self, runner):
        g = build_graph(["a", "b"], [("a", "b", RED), ("a", "b", BLUE)])
        res = runner.invoke(
            main, ["factor", "-", "--kind", "cycle", "--forbid-digons"],
            input=serialize_graph(g))
        assert res.exit_code == 3
        assert json.loads(res.output)["kind"] == "no_cycle_factor"

    def test_four_cycle_survives_digon_ban(self, runner):
        g = build_graph(["a", "b", "c", "d"],
                        [("a", "b", RED), ("b", "c", BLUE),
                         ("c", "d", RED), ("d", "a", BLUE)])
        res = runner.invoke(
            main, ["factor", "-", "--kind", "cycle", "--forbid-digons"],
            input=serialize_graph(g))
        assert res.exit_code == 0
        assert json.loads(res.output)["kind"] == "cycle_factor"

    def test_eulerian_kind_rejects_the_flag(self, runner):
        res = runner.invoke(
            main, ["factor", "-", "--kind", "eulerian", "--forbid-digons"],
            input=fixture_json("efig"))
        assert res.exit_code == 2

    def test_over_budget_exits_5(self, runner):
        # beyond the default oracle budget of 10 vertices
        g = generate("mclosed_blowup", seed=1, n=12)
        res = runner.invoke(
            main, ["factor", "-", "--kind", "cycle", "--forbid-digons"],
            input=serialize_graph(g))
        assert res.exit_code == 5


class TestTransforms:
    def test_np_reduce_output_is_still_a_graph(self, runner):
        res = runner.invoke(main, ["transform", "np-reduce", "-"],
                            input=fixture_json("halfm"))
        assert res.exit_code == 0
        doc = json.loads(res.output)
        g = parse_graph(res.output)
        assert set(doc["provenance"]) == set(g.vertices)

    def test_np_reduce_pipes_into_oracle(self, runner):
        reduced = runner.invoke(main, ["transform", "np-reduce", "-"],
                                input=fixture_json("halfm"))
        res = runner.invoke(
            main, ["oracle", "supereulerian", "-", "--max-n", "24"],
            input=reduced.output)
        assert res.exit_code == 3

    def test_bb_round_trip(self, runner):
        g = generate("complete_bipartite", seed=7, n1=3, n2=2)
        fwd = runner.invoke(main, ["transform", "bb-to-digraph", "-"],
                            input=serialize_graph(g))
        assert fwd.exit_code == 0
        back = runner.invoke(main, ["transform", "bb-from-digraph", "-"],
                             input=fwd.output)
        assert back.exit_code == 0
        h = parse_graph(back.output)
        assert sorted(h.vertices) == sorted(g.vertices)
        key = lambda e: (e.id, frozenset((e.u, e.v)), e.colour)
        assert sorted(map(key, h.edges)) == sorted(map(key, g.edges))

    # an X->X or a Y->Y arc has no colour in the digraph view
    @pytest.mark.parametrize("part, arc", [
        ('"x_part": ["a", "b"], "y_part": ["c"]', ("a", "b")),
        ('"x_part": ["a"], "y_part": ["b", "c"]', ("b", "c"))])
    def test_bb_from_digraph_rejects_an_arc_inside_one_side(
            self, runner, part, arc):
        doc = ('{%s, "arcs": [{"id": "e0", "tail": "%s", "head": "%s"}]}'
               % (part, *arc))
        res = runner.invoke(main, ["transform", "bb-from-digraph", "-"],
                            input=doc)
        assert res.exit_code == 2
        assert "bad digraph document: arc 'e0' does not cross" in res.output

    def test_bb_from_digraph_names_the_first_unknown_end(self, runner):
        doc = ('{"x_part": ["a"], "y_part": ["b"], '
               '"arcs": [{"id": "e0", "tail": "z", "head": "q"}]}')
        res = runner.invoke(main, ["transform", "bb-from-digraph", "-"],
                            input=doc)
        assert res.exit_code == 2
        assert ("bad digraph document: arc 'e0': unknown vertex 'z'"
                in res.output)

    # the transform's output must parse as a graph document, so a part
    # or an arc field that is not a string is refused where it is read
    @pytest.mark.parametrize("doc, fault", [
        ('"x_part": "ab", "y_part": ["c"], "arcs": []',
         '"x_part" must be a list of strings'),
        ('"x_part": ["a", 3], "y_part": ["c"], "arcs": []',
         '"x_part" must be a list of strings'),
        ('"x_part": ["a"], "y_part": {"c": 1}, "arcs": []',
         '"y_part" must be a list of strings'),
        ('"x_part": ["a"], "y_part": ["c"], '
         '"arcs": [{"id": 5, "tail": "a", "head": "c"}]',
         'arcs[0]: missing or non-string "id"'),
        ('"x_part": ["a"], "y_part": ["c"], '
         '"arcs": [{"id": "e0", "tail": "a", "head": "c"}, '
         '{"id": "e1", "tail": "c"}]',
         'arcs[1]: missing or non-string "head"'),
        ('"x_part": ["a"], "y_part": ["c"], "arcs": ["e0"]',
         'arcs[0]: missing or non-string "id"'),
        ('"x_part": ["a"], "arcs": []', '"y_part" must be a list of strings'),
        ('"x_part": ["a"], "y_part": ["c"], "arcs": "e0"',
         '"arcs" must be a list'),
    ], ids=["part_string", "part_item", "part_object", "arc_id",
            "arc_head", "arc_string", "part_missing", "arcs_string"])
    def test_bb_from_digraph_rejects_non_strings(self, runner, doc, fault):
        res = runner.invoke(main, ["transform", "bb-from-digraph", "-"],
                            input="{%s}" % doc)
        assert res.exit_code == 2
        assert f"bad digraph document: {fault}" in res.output

    def test_blowup_multiplicities(self, runner):
        res = runner.invoke(
            main, ["transform", "blowup", "-", "--mult", "u=2,v=2"],
            input=fixture_json("needall_g"))
        assert res.exit_code == 0
        h = parse_graph(res.output)
        assert len(h.vertices) == 8 and len(h.edges) == 14

    def test_quotient_blocks(self, runner):
        res = runner.invoke(main, ["transform", "quotient", "-"],
                            input=fixture_json("needall_h"))
        doc = json.loads(res.output)
        assert sorted(sorted(b) for b in doc["blocks"] if len(b) > 1) \
            == [["u1", "u2"], ["v1", "v2"]]

    def test_mclosure_policy(self, runner):
        g_json = serialize_graph(generate("random_2ec", seed=3, n=5, m=7))
        res = runner.invoke(
            main, ["transform", "mclosure", "-",
                   "--colour-policy", "always_blue"],
            input=g_json)
        assert res.exit_code == 0
        h = parse_graph(res.output)
        for e in h.edges:
            if e.id.startswith("mc"):
                assert e.colour.name == "BLUE"


class TestGenerators:
    def test_fixture_dot(self, runner):
        res = runner.invoke(main, ["fixture", "efig", "--format", "dot"])
        assert res.exit_code == 0
        assert res.output.startswith("graph")

    def test_random_deterministic(self, runner):
        args = ["random", "--model", "mclosed_blowup", "--seed", "4",
                "--n", "7"]
        assert runner.invoke(main, args).output \
            == runner.invoke(main, args).output

    def test_random_bad_params(self, runner):
        res = runner.invoke(main, ["random", "--model", "cmg_family",
                                   "--r", "1"])
        assert res.exit_code == 2


class TestOracleCommand:
    def test_positive_witness(self, runner):
        res = runner.invoke(main, ["oracle", "supereulerian", "-"],
                            input=fixture_json("efig"))
        assert res.exit_code == 0
        assert json.loads(res.output)["kind"] == "trail"

    def test_negative(self, runner):
        res = runner.invoke(main, ["oracle", "hamiltonian", "-"],
                            input=fixture_json("efig"))
        assert res.exit_code == 3
        assert json.loads(res.output)["answer"] is False

    def test_boolean_question(self, runner):
        res = runner.invoke(main, ["oracle", "colour-connected", "-"],
                            input=fixture_json("halfm"))
        assert res.exit_code == 0
        assert json.loads(res.output)["answer"] is True
