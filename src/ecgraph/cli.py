"""Command-line front end.

Subcommands compose through pipes: every generator and transform emits
graph JSON that every decision subcommand accepts ("-" reads stdin).
Exit codes: 0 positive decision, 2 usage or parse error, 3 negative
decision with a certificate, 4 input outside the supported class,
5 oracle budget exceeded.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import click

from .connect import (
    complete_multipartite_classes,
    is_colour_connected,
    is_trail_colour_connected,
)
from .core import (
    Colour,
    EdgeColouredMultigraph,
    GraphError,
    graph_to_dict,
    parse_graph,
    serialize_graph,
    verify_witness,
    witness_to_dict,
)
from .factor import alternating_cycle_factor, eulerian_factor
from .merge import alternating_hamiltonian_cycle
from .oracle import (
    BudgetExceeded,
    OracleBudget,
    oracle_colour_connected,
    oracle_cycle_factor,
    oracle_eulerian_factor,
    oracle_ham_alternating,
    oracle_supereulerian,
    oracle_trail_colour_connected,
)
from .reductions import fixture, fixture_names, generate, reduce_ham_to_supereulerian
from .structure import (
    blow_up,
    is_extension_of_m_closed,
    is_m_closed,
    m_closure,
    similarity_partition,
)
from .supereuler import (
    UnsupportedClass,
    bb_from_digraph,
    bb_to_digraph,
    decide_complete_bipartite,
    supereulerian,
)

EXIT_NEGATIVE = 3
EXIT_UNSUPPORTED = 4
EXIT_BUDGET = 5


def _budget_secs() -> float:
    raw = os.environ.get("ECGRAPH_BUDGET_SECS")
    if raw is None:
        return 30.0
    try:
        return float(raw)
    except ValueError:
        _fail(f"invalid ECGRAPH_BUDGET_SECS value {raw!r}")


def _budget(max_n: int) -> OracleBudget:
    return OracleBudget(max_vertices=max_n, max_edges=max(22, 10 * max_n),
                        seconds=_budget_secs())


def _fail(msg: str, code: int = 2) -> None:
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def _read_graph(file: str) -> EdgeColouredMultigraph:
    try:
        text = sys.stdin.read() if file == "-" else open(file).read()
    except OSError as exc:
        _fail(str(exc))
    try:
        return parse_graph(text)
    except GraphError as exc:
        _fail(str(exc))


def _emit(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2))


def _ce(counterexample) -> Optional[list]:
    if counterexample is None:
        return None
    u, v, c = counterexample
    return [u, v, c.token]


@click.group()
def main() -> None:
    """Algorithms and oracles for 2-edge-coloured multigraphs."""


# ---------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------

@dataclass
class AnalysisReport:
    entries: list[dict] = field(default_factory=list)

    def add(self, question: str, answer, witness=None, counterexample=None,
            method: str = "fast", elapsed: float = 0.0) -> None:
        self.entries.append({
            "question": question,
            "answer": answer,
            "witness": witness,
            "counterexample": counterexample,
            "method": method,
            "elapsed": round(elapsed, 6),
        })

    def to_dict(self) -> dict:
        return {"report": self.entries}


def _checked_witness(g: EdgeColouredMultigraph, witness) -> Optional[dict]:
    """The witness as a dict, after an explicit check that it is valid
    (one that also runs under python -O)."""
    if witness is None:
        return None
    r = verify_witness(g, witness)
    if not r:
        raise GraphError(f"internal error: witness fails verification: "
                         f"{r.reason}")
    return witness_to_dict(g, witness)


def analyze_graph(g: EdgeColouredMultigraph,
                  max_n: int = 0) -> AnalysisReport:
    """All decision questions on g; fast routes where the class allows,
    oracle routes when max_n permits, "unknown" otherwise."""
    rep = AnalysisReport()

    def timed(question, fn, method="fast"):
        t0 = time.monotonic()
        try:
            answer, witness, ce = fn()
        except BudgetExceeded:
            rep.add(question, "unknown", method=method,
                    elapsed=time.monotonic() - t0)
            return
        rep.add(question, answer, _checked_witness(g, witness), _ce(ce),
                method, time.monotonic() - t0)

    small = len(g.vertices) >= 2

    timed("m_closed", lambda: (is_m_closed(g)[0], None, None))
    ext = is_extension_of_m_closed(g)
    rep.add("extension_of_m_closed", ext is not None)
    classes = complete_multipartite_classes(g)
    rep.add("complete_multipartite", classes is not None)
    rep.add("complete_bipartite",
            classes is not None and len(classes) == 2)

    if small:
        def q_cc():
            r = is_colour_connected(g)
            return r.connected, None, r.counterexample

        def q_tcc():
            r = is_trail_colour_connected(g)
            return r.connected, None, r.counterexample

        def q_ef():
            w = eulerian_factor(g)
            return w is not None, w, None

        def q_cf():
            w = alternating_cycle_factor(g)
            return w is not None, w, None

        timed("colour_connected", q_cc)
        timed("trail_colour_connected", q_tcc)
        timed("eulerian_factor", q_ef)
        timed("cycle_factor", q_cf)

        def run_super():
            if ext is not None:
                res = supereulerian(g)
                return ("fast", bool(res), res.trail, res.counterexample)
            if classes is not None and len(classes) == 2:
                v = decide_complete_bipartite(g)
                return ("fast", v.supereulerian, None, v.counterexample)
            if max_n >= len(g.vertices):
                w = oracle_supereulerian(g, _budget(max_n))
                return ("oracle", w is not None, w, None)
            return (None, None, None, None)

        def run_ham():
            if ext is not None:
                res = alternating_hamiltonian_cycle(g)
                return ("fast", bool(res), res.cycle, res.counterexample)
            if classes is not None and len(classes) == 2:
                v = decide_complete_bipartite(g)
                return ("fast", v.hamiltonian, None, v.counterexample)
            if max_n >= len(g.vertices):
                w = oracle_ham_alternating(g, _budget(max_n))
                return ("oracle", w is not None, w, None)
            return (None, None, None, None)

        for question, run in (("supereulerian", run_super),
                              ("hamiltonian", run_ham)):
            t0 = time.monotonic()
            try:
                method, answer, witness, ce = run()
            except BudgetExceeded:
                method = None
                answer = witness = ce = None
            if method is None:
                rep.add(question, "unknown", method="unknown",
                        elapsed=time.monotonic() - t0)
            else:
                rep.add(question, answer, _checked_witness(g, witness),
                        _ce(ce), method, time.monotonic() - t0)
    else:
        for question in ("colour_connected", "trail_colour_connected",
                         "eulerian_factor", "cycle_factor",
                         "supereulerian", "hamiltonian"):
            rep.add(question, "unknown", method="unknown")
    return rep


def _report_table(rep: AnalysisReport) -> str:
    lines = []
    for e in rep.entries:
        answer = e["answer"]
        extra = ""
        if e["counterexample"]:
            extra = f"  counterexample={tuple(e['counterexample'])}"
        elif e["witness"]:
            extra = f"  witness={e['witness']['kind']}"
        lines.append(f"{e['question']:<24} {str(answer):<8} "
                     f"[{e['method']}, {e['elapsed']:.3f}s]{extra}")
    return "\n".join(lines)


@main.command()
@click.argument("file", default="-")
@click.option("--json", "as_json", is_flag=True, default=True,
              help="emit JSON (default)")
@click.option("--table", "as_table", is_flag=True,
              help="emit a human-readable table instead of JSON")
@click.option("--max-n", default=0, help="allow oracle routes up to this size")
def analyze(file: str, as_json: bool, as_table: bool, max_n: int) -> None:
    """Run every decision question against FILE."""
    g = _read_graph(file)
    rep = analyze_graph(g, max_n)
    if as_table:
        click.echo(_report_table(rep))
    else:
        _emit(rep.to_dict())


# ---------------------------------------------------------------------
# decisions
# ---------------------------------------------------------------------

def _decide_supereulerian(g, max_n, witness_mode):
    try:
        res = supereulerian(g)
    except UnsupportedClass:
        pass
    else:
        if res.trail is not None:
            _emit(witness_to_dict(g, res.trail))
            sys.exit(0)
        _emit({"kind": res.reason, "counterexample": _ce(res.counterexample)})
        sys.exit(EXIT_NEGATIVE)
    classes = complete_multipartite_classes(g)
    if classes is not None and len(classes) == 2:
        v = decide_complete_bipartite(g)
        if v.supereulerian:
            witness = None
            if witness_mode == "oracle" and max_n >= len(g.vertices):
                witness = oracle_supereulerian(g, _budget(max_n))
            _emit({"answer": True,
                   "witness": witness_to_dict(g, witness) if witness else None})
            sys.exit(0)
        reason = ("not_colour_connected" if not v.colour_connected
                  else "no_eulerian_factor")
        _emit({"kind": reason, "counterexample": _ce(v.counterexample)})
        sys.exit(EXIT_NEGATIVE)
    if max_n >= len(g.vertices):
        w = oracle_supereulerian(g, _budget(max_n))
        if w is not None:
            _emit(witness_to_dict(g, w))
            sys.exit(0)
        _emit({"kind": "not_supereulerian", "method": "oracle"})
        sys.exit(EXIT_NEGATIVE)
    _fail("input outside the supported class; rerun with --max-n to allow "
          "the oracle", EXIT_UNSUPPORTED)


@main.command(name="supereulerian")
@click.argument("file", default="-")
@click.option("--max-n", default=0)
@click.option("--witness", "witness_mode", default=None,
              type=click.Choice(["oracle"]))
def supereulerian_cmd(file: str, max_n: int, witness_mode) -> None:
    """Decide and construct a spanning closed alternating trail."""
    g = _read_graph(file)
    try:
        _decide_supereulerian(g, max_n, witness_mode)
    except BudgetExceeded as exc:
        _fail(str(exc), EXIT_BUDGET)


@main.command(name="hamiltonian")
@click.argument("file", default="-")
@click.option("--max-n", default=0)
@click.option("--witness", "witness_mode", default=None,
              type=click.Choice(["oracle"]))
def hamiltonian_cmd(file: str, max_n: int, witness_mode) -> None:
    """Decide and construct an alternating hamiltonian cycle."""
    g = _read_graph(file)
    try:
        try:
            res = alternating_hamiltonian_cycle(g)
        except ValueError:
            res = None
        if res is not None:
            if res.cycle is not None:
                _emit(witness_to_dict(g, res.cycle))
                sys.exit(0)
            _emit({"kind": res.reason,
                   "counterexample": _ce(res.counterexample)})
            sys.exit(EXIT_NEGATIVE)
        classes = complete_multipartite_classes(g)
        if classes is not None and len(classes) == 2:
            v = decide_complete_bipartite(g)
            if v.hamiltonian:
                witness = None
                if witness_mode == "oracle" and max_n >= len(g.vertices):
                    witness = oracle_ham_alternating(g, _budget(max_n))
                _emit({"answer": True,
                       "witness": witness_to_dict(g, witness)
                       if witness else None})
                sys.exit(0)
            reason = ("not_colour_connected" if not v.colour_connected
                      else "no_cycle_factor")
            _emit({"kind": reason, "counterexample": _ce(v.counterexample)})
            sys.exit(EXIT_NEGATIVE)
        if max_n >= len(g.vertices):
            w = oracle_ham_alternating(g, _budget(max_n))
            if w is not None:
                _emit(witness_to_dict(g, w))
                sys.exit(0)
            _emit({"kind": "not_hamiltonian", "method": "oracle"})
            sys.exit(EXIT_NEGATIVE)
        _fail("input outside the supported class; rerun with --max-n to "
              "allow the oracle", EXIT_UNSUPPORTED)
    except BudgetExceeded as exc:
        _fail(str(exc), EXIT_BUDGET)


@main.command()
@click.argument("file", default="-")
@click.option("--kind", default="both",
              type=click.Choice(["path", "trail", "both"]))
def connectivity(file: str, kind: str) -> None:
    """Report colour-connectivity and trail-colour-connectivity."""
    g = _read_graph(file)
    if len(g.vertices) < 2:
        _fail("connectivity needs at least two vertices")
    doc = {}
    ok = True
    if kind in ("path", "both"):
        rep = is_colour_connected(g)
        doc["colour_connected"] = rep.connected
        doc["path_counterexample"] = _ce(rep.counterexample)
        ok = ok and rep.connected
    if kind in ("trail", "both"):
        rep = is_trail_colour_connected(g)
        doc["trail_colour_connected"] = rep.connected
        doc["trail_counterexample"] = _ce(rep.counterexample)
        ok = ok and rep.connected
    _emit(doc)
    sys.exit(0 if ok else EXIT_NEGATIVE)


@main.command()
@click.argument("file", default="-")
@click.option("--kind", default="eulerian",
              type=click.Choice(["eulerian", "cycle"]))
@click.option("--forbid-digons", is_flag=True,
              help="cycle factors may not use a pair of parallel edges")
def factor(file: str, kind: str, forbid_digons: bool) -> None:
    """Construct an eulerian factor or an alternating cycle factor."""
    g = _read_graph(file)
    try:
        if kind == "eulerian":
            if forbid_digons:
                _fail("--forbid-digons applies to cycle factors only")
            w = eulerian_factor(g)
        else:
            w = alternating_cycle_factor(g, forbid_digons=forbid_digons)
    except BudgetExceeded as exc:
        _fail(str(exc), EXIT_BUDGET)
    if w is None:
        _emit({"kind": f"no_{kind}_factor"})
        sys.exit(EXIT_NEGATIVE)
    _emit(witness_to_dict(g, w))


# ---------------------------------------------------------------------
# transforms, fixtures, generators
# ---------------------------------------------------------------------

def _parse_mult(spec: Optional[str], times: int,
                g: EdgeColouredMultigraph) -> dict[str, int]:
    mult = {v: times for v in g.vertices}
    if spec:
        for part in spec.split(","):
            if "=" not in part:
                _fail(f"bad multiplicity {part!r}; expected vertex=k")
            v, _, k = part.partition("=")
            if v not in mult:
                _fail(f"unknown vertex {v!r} in multiplicities")
            try:
                mult[v] = int(k)
            except ValueError:
                _fail(f"bad multiplicity {part!r}; expected vertex=k")
    return mult


@main.command()
@click.argument("kind", type=click.Choice(
    ["np-reduce", "np-reduce-gadget", "bb-to-digraph", "bb-from-digraph",
     "blowup", "quotient", "mclosure"]))
@click.argument("file", default="-")
@click.option("--mult", default=None,
              help="blowup multiplicities, e.g. v1=2,v2=3")
@click.option("--times", default=1, help="uniform blowup multiplicity")
@click.option("--colour-policy", default="always_red",
              type=click.Choice(["always_red", "always_blue",
                                 "seeded_random"]))
@click.option("--seed", default=0)
def transform(kind: str, file: str, mult, times: int,
              colour_policy: str, seed: int) -> None:
    """Apply a graph transform and emit the result as JSON."""
    if kind == "bb-from-digraph":
        try:
            text = sys.stdin.read() if file == "-" else open(file).read()
            doc = json.loads(text)
            from .supereuler import BipartiteDigraph
            d = BipartiteDigraph(
                tuple(doc["x_part"]), tuple(doc["y_part"]),
                tuple((a["id"], a["tail"], a["head"]) for a in doc["arcs"]))
            g = bb_from_digraph(d)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            _fail(f"bad digraph document: {exc}")
        except GraphError as exc:
            _fail(str(exc))
        _emit(graph_to_dict(g))
        return

    g = _read_graph(file)
    try:
        if kind in ("np-reduce", "np-reduce-gadget"):
            variant = "basic" if kind == "np-reduce" else "gadget"
            rm = reduce_ham_to_supereulerian(g, variant)
            doc = graph_to_dict(rm.graph)
            doc["provenance"] = {v: {"source": s, "role": r}
                                 for v, (s, r) in rm.provenance.items()}
            _emit(doc)
        elif kind == "bb-to-digraph":
            d = bb_to_digraph(g)
            _emit({"x_part": list(d.x_part), "y_part": list(d.y_part),
                   "arcs": [{"id": i, "tail": t, "head": h}
                            for i, t, h in d.arcs]})
        elif kind == "blowup":
            _emit(graph_to_dict(blow_up(g, _parse_mult(mult, times, g))))
        elif kind == "quotient":
            part = similarity_partition(g)
            doc = graph_to_dict(part.quotient)
            doc["blocks"] = [list(b) for b in part.blocks]
            _emit(doc)
        else:
            _emit(graph_to_dict(m_closure(g, colour_policy, seed)))
    except GraphError as exc:
        _fail(str(exc))


@main.command(name="fixture")
@click.argument("name")
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "dot"]))
def fixture_cmd(name: str, fmt: str) -> None:
    """Emit a named fixture graph."""
    try:
        g = fixture(name)
    except GraphError as exc:
        _fail(str(exc))
    click.echo(serialize_graph(g, fmt), nl=False)


@main.command(name="random")
@click.option("--model", required=True,
              type=click.Choice(["random_2ec", "mclosed_blowup",
                                 "complete_bipartite",
                                 "complete_multipartite", "cmg_family"]))
@click.option("--seed", default=0)
@click.option("--n", default=None, type=int)
@click.option("--m", default=None, type=int)
@click.option("--n1", default=None, type=int)
@click.option("--n2", default=None, type=int)
@click.option("--sizes", default=None, help="e.g. 2,2,3")
@click.option("--r", default=None, type=int)
def random_cmd(model: str, seed: int, n, m, n1, n2, sizes, r) -> None:
    """Emit a seeded random instance of the chosen model."""
    params = {}
    for key, val in (("n", n), ("m", m), ("n1", n1), ("n2", n2), ("r", r)):
        if val is not None:
            params[key] = val
    if sizes is not None:
        try:
            params["sizes"] = [int(s) for s in sizes.split(",")]
        except ValueError:
            _fail(f"bad sizes {sizes!r}")
    try:
        g = generate(model, seed, **params)
    except ValueError as exc:
        _fail(str(exc))
    _emit(graph_to_dict(g))


# ---------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------

_ORACLES = {
    "supereulerian": oracle_supereulerian,
    "hamiltonian": oracle_ham_alternating,
    "eulerian-factor": oracle_eulerian_factor,
    "cycle-factor": oracle_cycle_factor,
    "colour-connected": oracle_colour_connected,
    "trail-colour-connected": oracle_trail_colour_connected,
}


@main.command(name="oracle")
@click.argument("question", type=click.Choice(sorted(_ORACLES)))
@click.argument("file", default="-")
@click.option("--max-n", default=10)
def oracle_cmd(question: str, file: str, max_n: int) -> None:
    """Answer a question by exhaustive search (small inputs only)."""
    g = _read_graph(file)
    try:
        out = _ORACLES[question](g, _budget(max_n))
    except BudgetExceeded as exc:
        _fail(str(exc), EXIT_BUDGET)
    if isinstance(out, bool):
        _emit({"question": question, "answer": out})
        sys.exit(0 if out else EXIT_NEGATIVE)
    if out is None:
        _emit({"question": question, "answer": False})
        sys.exit(EXIT_NEGATIVE)
    _emit(witness_to_dict(g, out))
    sys.exit(0)


if __name__ == "__main__":
    main()
