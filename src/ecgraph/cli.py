"""Command-line front end.

Subcommands compose through pipes: every generator and transform emits
graph JSON that every decision subcommand accepts ("-" reads stdin).
Exit codes: 0 positive decision, 2 usage or parse error, 3 negative
decision with a certificate, 4 input outside the supported class,
5 oracle budget exceeded.  The command group maps UnsupportedClass to
4 and BudgetExceeded to 5 for every subcommand, and never GraphError.

`decide` holds the one route ladder for the two decision questions:
the characterized classes of `Analysis.decision`, then the oracle;
`analyze` and the `supereulerian` and `hamiltonian` commands all ask
it.  The commands that only make graphs live in `ecgraph.cli_graphs`.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import click

from .analysis import Analysis, Decision
from .cli_graphs import (
    emit, fail, fixture_cmd, random_cmd, read_graph, transform,
)
from .core import (
    EdgeColouredMultigraph, GraphError, UnsupportedClass, witness_to_dict,
)
from .oracle import (
    BudgetExceeded, OracleBudget, oracle_colour_connected,
    oracle_cycle_factor, oracle_eulerian_factor, oracle_ham_alternating,
    oracle_supereulerian, oracle_trail_colour_connected,
)

def _seconds() -> float:
    """The oracle time limit, ECGRAPH_BUDGET_SECS (default 30)."""
    raw = os.environ.get("ECGRAPH_BUDGET_SECS", "30")
    try:
        seconds = float(raw)
    except ValueError:
        seconds = math.nan
    # a NaN limit is never passed, and a negative one makes no sense
    if not seconds >= 0:
        fail(f"invalid ECGRAPH_BUDGET_SECS value {raw!r}")
    return seconds


def _budget(max_n: int) -> OracleBudget:
    return OracleBudget(max_vertices=max_n, max_edges=max(22, 10 * max_n),
                        seconds=_seconds())


def _answer(doc: dict, positive: bool) -> None:
    """Print doc and exit 0 after a positive answer, 3 after a negative."""
    emit(doc)
    sys.exit(0 if positive else 3)


def _ce(counterexample) -> Optional[list]:
    if counterexample is None:
        return None
    u, v, c = counterexample
    return [u, v, c.token]


def _witness_dict(g: EdgeColouredMultigraph, witness) -> Optional[dict]:
    """The witness as a dict, or None.  Its producer has checked it."""
    return None if witness is None else witness_to_dict(g, witness)


class _Group(click.Group):
    """Maps a refusal from any subcommand to its exit code (above)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except UnsupportedClass as exc:
            fail(str(exc), 4)
        except BudgetExceeded as exc:
            fail(str(exc), 5)


@click.group(cls=_Group)
def main() -> None:
    """Algorithms and oracles for 2-edge-coloured multigraphs."""


for _command in (fixture_cmd, random_cmd, transform):
    main.add_command(_command)


def decide(question: str, g: EdgeColouredMultigraph, *, max_n: int,
           oracle_witness: bool = False) -> Decision:
    """Decide `question` by the first route that applies: the
    characterized classes (`Analysis.decision`; a complete bipartite
    graph's positive answer carries an oracle witness only when
    `oracle_witness` is set and max_n allows), then the exhaustive
    oracle when max_n >= n.

    Raises UnsupportedClass for fewer than two vertices or when no
    route applies, BudgetExceeded when an oracle runs out, and
    GraphError when the oracle finds no witness for a characterized
    yes.
    """
    d = Analysis.of(g).decision(question)
    oracle = (oracle_ham_alternating if question == "hamiltonian"
              else oracle_supereulerian)
    searchable = max_n >= len(g.vertices)
    if d is None:
        if not searchable:
            raise UnsupportedClass("input outside the supported class; "
                                   "rerun with --max-n to allow the oracle")
        w = oracle(g, _budget(max_n))
        return Decision(w is not None, "oracle", w,
                        None if w else f"not_{question}")
    if d.answer and d.witness is None and oracle_witness and searchable:
        w = oracle(g, _budget(max_n))
        if w is None:
            raise GraphError(f"internal error: the oracle finds no witness "
                             f"for the characterized {question} yes")
        return replace(d, witness=w)
    return d


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


def analyze_graph(g: EdgeColouredMultigraph,
                  max_n: int = 0) -> AnalysisReport:
    """Every question on g: the facts from g's `Analysis`, and the two
    decisions from `decide`, "unknown" where no route applies or the
    oracle runs out of budget."""
    rep = AnalysisReport()
    a = Analysis.of(g)

    def timed(question, fn):
        t0 = time.monotonic()
        answer, witness, ce = fn()
        rep.add(question, answer, _witness_dict(g, witness), _ce(ce),
                elapsed=time.monotonic() - t0)

    timed("m_closed", lambda: (a.m_closed, None, None))
    rep.add("extension_of_m_closed", a.ext is not None)
    rep.add("complete_multipartite", a.classes is not None)
    rep.add("complete_bipartite", a.complete_bipartite)
    if len(g.vertices) < 2:
        for question in ("colour_connected", "trail_colour_connected",
                         "eulerian_factor", "cycle_factor"):
            rep.add(question, "unknown", method="unknown")
    else:
        timed("colour_connected",
              lambda: (a.cc.connected, None, a.cc.counterexample))
        timed("trail_colour_connected",
              lambda: (a.tcc.connected, None, a.tcc.counterexample))
        timed("eulerian_factor", lambda: (a.ef is not None, a.ef, None))
        timed("cycle_factor", lambda: (a.cf is not None, a.cf, None))
    for question in ("supereulerian", "hamiltonian"):
        t0 = time.monotonic()
        try:
            d = decide(question, g, max_n=max_n)
        except (UnsupportedClass, BudgetExceeded):
            rep.add(question, "unknown", method="unknown",
                    elapsed=time.monotonic() - t0)
        else:
            rep.add(question, d.answer, _witness_dict(g, d.witness),
                    _ce(d.counterexample), d.method, time.monotonic() - t0)
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
@click.option("--table", "as_table", is_flag=True,
              help="emit a human-readable table instead of JSON")
@click.option("--max-n", default=0, type=click.IntRange(min=0),
              help="allow oracle routes up to this size")
def analyze(file: str, as_table: bool, max_n: int) -> None:
    """Run every decision question against FILE."""
    g = read_graph(file)
    rep = analyze_graph(g, max_n)
    if as_table:
        click.echo(_report_table(rep))
    else:
        emit(rep.to_dict())


def _decision_command(question: str, summary: str) -> None:
    """Register the subcommand that decides `question`, prints the
    decision as a document and exits with its code."""
    @main.command(name=question, help=summary)
    @click.argument("file", default="-")
    @click.option("--max-n", default=0, type=click.IntRange(min=0))
    @click.option("--witness", "witness_mode", default=None,
                  type=click.Choice(["oracle"]))
    def command(file: str, max_n: int, witness_mode) -> None:
        g = read_graph(file)
        d = decide(question, g, max_n=max_n,
                   oracle_witness=witness_mode == "oracle")
        if not d.answer and d.route == "oracle":
            doc = {"kind": d.reason, "method": "oracle"}
        elif not d.answer:
            doc = {"kind": d.reason, "counterexample": _ce(d.counterexample)}
        elif d.route == "complete_bipartite":
            doc = {"answer": True, "witness": _witness_dict(g, d.witness)}
        else:
            doc = _witness_dict(g, d.witness)
        _answer(doc, d.answer)


_decision_command("supereulerian",
                  "Decide and construct a spanning closed alternating trail.")
_decision_command("hamiltonian",
                  "Decide and construct an alternating hamiltonian cycle.")


@main.command()
@click.argument("file", default="-")
@click.option("--kind", default="both",
              type=click.Choice(["path", "trail", "both"]))
def connectivity(file: str, kind: str) -> None:
    """Report colour-connectivity and trail-colour-connectivity."""
    a = Analysis.of(read_graph(file))
    doc, ok = {}, True
    for walk, key, fact in (("path", "colour_connected", "cc"),
                            ("trail", "trail_colour_connected", "tcc")):
        if kind in (walk, "both"):
            rep = getattr(a, fact)
            doc[key] = rep.connected
            doc[f"{walk}_counterexample"] = _ce(rep.counterexample)
            ok = ok and rep.connected
    _answer(doc, ok)


@main.command()
@click.argument("file", default="-")
@click.option("--kind", default="eulerian",
              type=click.Choice(["eulerian", "cycle"]))
@click.option("--forbid-digons", is_flag=True,
              help="cycle factors may not use a pair of parallel edges "
                   "(exhaustive search, small inputs only)")
def factor(file: str, kind: str, forbid_digons: bool) -> None:
    """Construct an eulerian factor or an alternating cycle factor."""
    g = read_graph(file)
    if kind == "eulerian":
        if forbid_digons:
            fail("--forbid-digons applies to cycle factors only")
        w = Analysis.of(g).ef
    elif forbid_digons:
        # no polynomial route keeps digons out: search exhaustively
        w = oracle_cycle_factor(g, OracleBudget(seconds=_seconds()),
                                forbid_digons=True)
    else:
        w = Analysis.of(g).cf
    if w is None:
        _answer({"kind": f"no_{kind}_factor"}, False)
    emit(witness_to_dict(g, w))


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
@click.option("--max-n", default=10, type=click.IntRange(min=0))
def oracle_cmd(question: str, file: str, max_n: int) -> None:
    """Answer a question by exhaustive search (small inputs only)."""
    g = read_graph(file)
    out = _ORACLES[question](g, _budget(max_n))
    if isinstance(out, bool):
        _answer({"question": question, "answer": out}, out)
    if out is None:
        _answer({"question": question, "answer": False}, False)
    _answer(witness_to_dict(g, out), True)


if __name__ == "__main__":
    main()
