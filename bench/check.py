"""Correctness gate, run outside the timed region.

`analyze_graph` only `assert`s its witnesses, and asserts vanish under
`python -O`, so every witness in a report is rebuilt from its JSON form
and checked again here with `verify_witness` and a spanning check.  Each
answer, counterexample triple and witness kind must equal the answers
pinned in pinned.json; on oracle-sized inputs the supereulerian and
hamiltonian answers are also checked against the exhaustive oracles.
"""

from __future__ import annotations

from typing import Optional

QUESTIONS = ("m_closed", "extension_of_m_closed", "complete_multipartite",
             "complete_bipartite", "colour_connected",
             "trail_colour_connected", "eulerian_factor", "cycle_factor",
             "supereulerian", "hamiltonian")

# vertices and edges the cross-checking oracles accept; every instance
# of the oracle-sized workload fits
ORACLE_VERTICES = 10
ORACLE_EDGES = 100


def pin_of(report: dict) -> dict:
    """question -> [answer, counterexample, witness kind], as pinned."""
    return {e["question"]: [e["answer"], e["counterexample"],
                            e["witness"]["kind"] if e["witness"] else None]
            for e in report["report"]}


def _rebuild(core, w: dict):
    trail = core.AlternatingTrail
    if w["kind"] == "trail":
        return trail(w["start"], tuple(w["edges"]), w["closed"])
    if w["kind"] == "cycle":
        return core.AlternatingCycle(w["start"], tuple(w["edges"]))
    if w["kind"] == "eulerian_factor":
        return core.EulerianFactor(tuple(
            (frozenset(p["vertices"]),
             trail(p["start"], tuple(p["edges"]), True))
            for p in w["parts"]))
    if w["kind"] == "cycle_factor":
        return core.CycleFactor(tuple(
            core.AlternatingCycle(c["start"], tuple(c["edges"]))
            for c in w["cycles"]))
    raise ValueError(f"unknown witness kind {w['kind']!r}")


def _spans(g, question: str, w) -> bool:
    """Does the witness cover every vertex the way its question needs?"""
    every = set(g.vertices)
    if question == "supereulerian":
        return w.closed and set(w.vertex_sequence(g)) == every
    if question == "hamiltonian":
        seq = w.vertex_sequence(g)[:-1]
        return len(seq) == len(every) and set(seq) == every
    if question == "eulerian_factor":
        return set().union(*(vs for vs, _ in w.parts)) == every
    if question == "cycle_factor":
        return set().union(*(c.vertex_set(g) for c in w.cycles)) == every
    return False


def misses(lib: dict, text: str, report: dict, pinned: dict,
           oracle_answers: Optional[dict]) -> list[str]:
    """Every way `report` falls short; an empty list means correct."""
    core = lib["core"]
    g = core.parse_graph(text)
    got = {e["question"]: e for e in report["report"]}
    out = []
    if set(got) != set(QUESTIONS):
        out.append(f"questions {sorted(got)} != {sorted(QUESTIONS)}")
    for q in QUESTIONS:
        if q not in got or q not in pinned:
            continue
        e = got[q]
        answer, ce, kind = pinned[q]
        if e["answer"] != answer:
            out.append(f"{q}: answer {e['answer']!r}, pinned {answer!r}")
        if e["counterexample"] != ce:
            out.append(f"{q}: counterexample {e['counterexample']}, "
                       f"pinned {ce}")
        w = e["witness"]
        if (w["kind"] if w else None) != kind:
            out.append(f"{q}: witness {w and w['kind']}, pinned {kind}")
        if w is not None:
            try:
                wit = _rebuild(core, w)
                r = core.verify_witness(g, wit)
                ok, reason = r.ok, r.reason
                if ok and not _spans(g, q, wit):
                    ok, reason = False, "does not span the graph"
            except (core.GraphError, KeyError, TypeError, ValueError) as exc:
                ok, reason = False, f"malformed: {exc}"
            if not ok:
                out.append(f"{q}: witness fails verification: {reason}")
        if oracle_answers and q in oracle_answers \
                and isinstance(e["answer"], bool) \
                and e["answer"] != oracle_answers[q]:
            out.append(f"{q}: answer {e['answer']}, oracle "
                       f"{oracle_answers[q]}")
    return out


def oracle_answers(lib: dict, text: str) -> Optional[dict]:
    """Exhaustive supereulerian / hamiltonian answers for small inputs."""
    core, oracle = lib["core"], lib["oracle"]
    g = core.parse_graph(text)
    if len(g.vertices) > ORACLE_VERTICES or len(g.edges) > ORACLE_EDGES:
        return None
    budget = oracle.OracleBudget(max_vertices=ORACLE_VERTICES,
                                 max_edges=ORACLE_EDGES, seconds=60.0)
    return {
        "supereulerian": oracle.oracle_supereulerian(g, budget) is not None,
        "hamiltonian": oracle.oracle_ham_alternating(g, budget) is not None,
    }
