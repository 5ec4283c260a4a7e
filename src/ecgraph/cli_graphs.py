"""Graph documents on the command line: reading and writing them, and
the subcommands that only make graphs (`fixture`, `random` and
`transform`).  `ecgraph.cli` registers these subcommands on its group
and reads every input graph through `read_graph`.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import click

from .core import (
    EdgeColouredMultigraph, GraphError, graph_to_dict, parse_graph,
    serialize_graph,
)
from .reductions import (
    BipartiteDigraph, bb_from_digraph, bb_to_digraph, fixture, generate,
    reduce_ham_to_supereulerian,
)
from .structure import blow_up, m_closure, similarity_partition


def fail(msg: str, code: int = 2) -> None:
    """Print msg as an error and exit with code (2: usage or parse
    error)."""
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


def read_text(file: str) -> str:
    try:
        if file == "-":
            return sys.stdin.read()
        with open(file) as f:
            return f.read()
    except OSError as exc:
        fail(str(exc))


def read_graph(file: str) -> EdgeColouredMultigraph:
    try:
        return parse_graph(read_text(file))
    except GraphError as exc:
        fail(str(exc))


def emit(doc: dict) -> None:
    click.echo(json.dumps(doc, indent=2))


def _parse_mult(spec: Optional[str], times: int,
                g: EdgeColouredMultigraph) -> dict[str, int]:
    mult = {v: times for v in g.vertices}
    if spec:
        for part in spec.split(","):
            if "=" not in part:
                fail(f"bad multiplicity {part!r}; expected vertex=k")
            v, _, k = part.partition("=")
            if v not in mult:
                fail(f"unknown vertex {v!r} in multiplicities")
            try:
                mult[v] = int(k)
            except ValueError:
                fail(f"bad multiplicity {part!r}; expected vertex=k")
    return mult


def _digraph(doc) -> BipartiteDigraph:
    """The digraph of a parsed digraph document, whose parts must be
    lists of strings and whose arcs must name their id, tail and head
    by strings; raises ValueError at the first fault."""
    if not isinstance(doc, dict):
        raise ValueError("top-level document must be an object")
    for key in ("x_part", "y_part"):
        if not isinstance(doc.get(key), list) \
                or not all(isinstance(v, str) for v in doc[key]):
            raise ValueError(f'"{key}" must be a list of strings')
    if not isinstance(doc.get("arcs"), list):
        raise ValueError('"arcs" must be a list')
    for i, a in enumerate(doc["arcs"]):
        for key in ("id", "tail", "head"):
            if not isinstance(a, dict) or not isinstance(a.get(key), str):
                raise ValueError(f'arcs[{i}]: missing or non-string "{key}"')
    return BipartiteDigraph(
        tuple(doc["x_part"]), tuple(doc["y_part"]),
        tuple((a["id"], a["tail"], a["head"]) for a in doc["arcs"]))


@click.command()
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
        text = read_text(file)
        try:
            g = bb_from_digraph(_digraph(json.loads(text)))
        except ValueError as exc:
            fail(f"bad digraph document: {exc}")
        emit(graph_to_dict(g))
        return

    g = read_graph(file)
    try:
        if kind in ("np-reduce", "np-reduce-gadget"):
            variant = "basic" if kind == "np-reduce" else "gadget"
            rm = reduce_ham_to_supereulerian(g, variant)
            doc = graph_to_dict(rm.graph)
            doc["provenance"] = {v: {"source": s, "role": r}
                                 for v, (s, r) in rm.provenance.items()}
            emit(doc)
        elif kind == "bb-to-digraph":
            d = bb_to_digraph(g)
            emit({"x_part": list(d.x_part), "y_part": list(d.y_part),
                  "arcs": [{"id": i, "tail": t, "head": h}
                           for i, t, h in d.arcs]})
        elif kind == "blowup":
            emit(graph_to_dict(blow_up(g, _parse_mult(mult, times, g))))
        elif kind == "quotient":
            part = similarity_partition(g)
            doc = graph_to_dict(part.quotient)
            doc["blocks"] = [list(b) for b in part.blocks]
            emit(doc)
        else:
            emit(graph_to_dict(m_closure(g, colour_policy, seed)))
    except GraphError as exc:
        fail(str(exc))


@click.command(name="fixture")
@click.argument("name")
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "dot"]))
def fixture_cmd(name: str, fmt: str) -> None:
    """Emit a named fixture graph."""
    try:
        g = fixture(name)
    except GraphError as exc:
        fail(str(exc))
    click.echo(serialize_graph(g, fmt), nl=False)


@click.command(name="random")
@click.option("--model", required=True,
              type=click.Choice(["random_2ec", "mclosed_blowup",
                                 "complete_bipartite",
                                 "complete_multipartite", "cmg_family"]))
@click.option("--seed", default=0)
@click.option("--n", default=None, type=int)
@click.option("--m", default=None, type=click.IntRange(min=0),
              help="random_2ec edges (default 2n); at most n(n-1), one "
                   "per vertex pair and colour, whatever is asked")
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
            fail(f"bad sizes {sizes!r}")
    try:
        g = generate(model, seed, **params)
    except ValueError as exc:
        fail(str(exc))
    emit(graph_to_dict(g))
