"""Outside-in tracer: times calls into ecgraph's public functions.

The tracer wraps each target function at every module-level binding of
it in the ecgraph package (`from .matching import maximum_matching`
copies the name into factor and connect, so patching one module is not
enough) and puts the original bindings back when it exits.  A span is
(name, start, end, parent, note); spans stay in memory until the run
writes them out.  No ecgraph source file changes.

Run as a script on a spans file to total each instance's spans by name:
    python3 bench/tracer.py bench/out/spans-sweep_dense-1.jsonl.gz
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, NOTE = range(5)
ROOT_SPAN = "bench.instance"


def _matching_note(args, result):
    g = args[0]
    return {"v": len(g.vertices), "e": len(g.edges),
            "perfect": 2 * len(result) == len(g.vertices)}


def _gadget_note(args, result):
    return {"v": len(result.h.vertices), "e": len(result.h.edges)}


def _found_note(args, result):
    return {"found": result is not None}


def _merged_note(args, result):
    return {"merged": type(result).__name__ == "Merged"}


# module -> {public function: note taken from (args, result), or None}.
# `structure.similar` is left out on purpose: it runs O(n^2) times per
# similarity partition, and its time is charged to the partition.
TARGETS = {
    "core": {"parse_graph": None, "verify_witness": None},
    "matching": {"maximum_matching": _matching_note},
    "factor": {"eulerian_factor": None, "build_factor_gadget": _gadget_note,
               "alternating_euler_tour": None,
               "alternating_cycle_factor": None},
    "connect": {"is_colour_connected": None,
                "is_trail_colour_connected": None,
                "alternating_path": _found_note,
                "alternating_trail": _found_note,
                "complete_multipartite_classes": None},
    "structure": {"similarity_partition": None, "is_m_closed": None,
                  "is_extension_of_m_closed": None},
    "supereuler": {"supereulerian": None, "merge_trails_pair": None,
                   "decide_complete_bipartite": None},
    "merge": {"alternating_hamiltonian_cycle": None,
              "merge_cycles": _merged_note},
    "oracle": {"oracle_supereulerian": None, "oracle_ham_alternating": None},
    "cli": {"analyze_graph": None},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, note=None):
        s = self._open(name)
        s[NOTE] = note
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name: str, fn, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(s)
                s[NOTE] = {"raised": type(exc).__name__}
                raise
            self._close(s)
            if note is not None:
                s[NOTE] = note(args, result)
            return result
        return wrapper

    @contextmanager
    def installed(self, lib: dict):
        """Wrap every target at every binding in the ecgraph package."""
        wrappers = {}
        for mod, funcs in TARGETS.items():
            for fname, note in funcs.items():
                fn = getattr(lib[mod], fname)
                wrappers[id(fn)] = (fn, self._wrap(fname, fn, note))
        modules = [m for n, m in sys.modules.items()
                   if n == "ecgraph" or n.startswith("ecgraph.")]
        patched = []
        try:
            for m in modules:
                for attr, val in list(vars(m).items()):
                    hit = wrappers.get(id(val))
                    if hit is not None and hit[0] is val:
                        setattr(m, attr, hit[1])
                        patched.append((m, attr, val))
            yield self
        finally:
            for m, attr, val in patched:
                setattr(m, attr, val)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _outermost(spans, names) -> list[list]:
    """Spans named in `names` with no ancestor named in `names`."""
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            out.append(s)
    return out


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `passes` traced passes.

    Times are seconds per pass over the ladder, so they add up against
    wall_s; counts are per analysed instance; sizes are per call.
    trace.coverage is the share of the instances' traced time that
    falls in some span below the instance span.
    """
    own = self_times(spans)
    by_name = defaultdict(list)
    self_by_name = defaultdict(float)
    for s, t in zip(spans, own):
        by_name[s[NAME]].append(s)
        self_by_name[s[NAME]] += t

    def calls(name):
        return len(by_name[name]) / analyses

    def self_s(*names):
        return sum(self_by_name[n] for n in names) / passes

    def incl_s(*names):
        return sum(s[END] - s[START]
                   for s in _outermost(spans, set(names))) / passes

    def noted(ss, key):
        # a span whose call raised carries no note
        return [s[NOTE][key] for s in ss if s[NOTE] and key in s[NOTE]]

    def mean(ss, key):
        vals = noted(ss, key)
        return sum(vals) / len(vals) if vals else 0.0

    mm = by_name["maximum_matching"]
    gadgets = by_name["build_factor_gadget"]
    path_q = [s for s in by_name["alternating_path"]
              if spans[s[PARENT]][NAME] not in
              ("alternating_path", "alternating_trail")]
    queries = path_q + by_name["alternating_trail"]
    oracles = _outermost(spans, {"oracle_supereulerian",
                                 "oracle_ham_alternating"})
    roots = by_name[ROOT_SPAN]
    analyses = len(roots)
    traced_wall = sum(s[END] - s[START] for s in roots)
    covered = sum(t for s, t in zip(spans, own) if s[NAME] != ROOT_SPAN)
    return {
        "core.parse_s": self_s("parse_graph"),
        "core.verify.calls": calls("verify_witness"),
        "core.verify_s": self_s("verify_witness"),
        "matching.calls": calls("maximum_matching"),
        "matching.self_s": self_s("maximum_matching"),
        "matching.vertices": mean(mm, "v"),
        "matching.edges": mean(mm, "e"),
        "matching.perfect_frac": mean(mm, "perfect"),
        "factor.ef.calls": calls("eulerian_factor"),
        "factor.ef_s": incl_s("eulerian_factor"),
        "factor.gadget_build_s": self_s("build_factor_gadget"),
        "factor.gadget.vertices": mean(gadgets, "v"),
        "factor.gadget.edges": mean(gadgets, "e"),
        "factor.cf.calls": calls("alternating_cycle_factor"),
        "factor.euler_tour_s": incl_s("alternating_euler_tour"),
        "connect.cc.calls": calls("is_colour_connected"),
        "connect.tcc.calls": calls("is_trail_colour_connected"),
        "connect.sweep_s": incl_s("is_colour_connected",
                                  "is_trail_colour_connected"),
        "connect.path.queries": len(path_q) / analyses,
        "connect.trail.queries": calls("alternating_trail"),
        "connect.path_build_s": self_s("alternating_path"),
        "connect.trail_aux_s": self_s("alternating_trail"),
        "connect.query_found_frac": mean(queries, "found"),
        "structure.similarity.calls": calls("similarity_partition"),
        "structure.similarity_s": self_s("similarity_partition"),
        "structure.m_closed_s": self_s("is_m_closed",
                                       "is_extension_of_m_closed"),
        "supereuler.merge_s": self_s("supereulerian"),
        "supereuler.pair.calls": calls("merge_trails_pair"),
        "supereuler.cb_decide.calls": calls("decide_complete_bipartite"),
        "merge.ham_s": self_s("alternating_hamiltonian_cycle"),
        "merge.calls": calls("merge_cycles"),
        "merge.merged_frac": mean(by_name["merge_cycles"], "merged"),
        "oracle.calls": len(oracles) / analyses,
        "oracle_s": incl_s("oracle_supereulerian", "oracle_ham_alternating"),
        "oracle.budget_exceeded": sum(
            1 for s in oracles
            if (s[NOTE] or {}).get("raised") == "BudgetExceeded") / analyses,
        "cli.analyze_self_s": self_s("analyze_graph"),
        "trace.coverage": covered / traced_wall,
    }


def write_spans(path, spans: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as f:
        for s in spans:
            f.write(json.dumps(s) + "\n")


def summarize(path) -> None:
    """Print calls, outermost inclusive time and self time per span name,
    for each instance (root span) in a spans file."""
    with gzip.open(path, "rt") as f:
        spans = [json.loads(line) for line in f]
    own = self_times(spans)
    outermost = {id(s) for name in {s[NAME] for s in spans}
                 for s in _outermost(spans, {name})}
    root_of = []
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(spans):
        root_of.append(i if s[PARENT] < 0 else root_of[s[PARENT]])
        root = spans[root_of[i]]
        row = rows[(root[NOTE]["key"], root[NOTE]["pass"], s[NAME])]
        row[0] += 1
        if id(s) in outermost:
            row[1] += s[END] - s[START]
        row[2] += own[i]
    print(f"{'instance':<44} {'pass':>4} {'span':<30} {'calls':>7} "
          f"{'incl_s':>9} {'self_s':>9}")
    for (key, p, name), (n, incl, slf) in sorted(rows.items()):
        print(f"{key:<44} {p:>4} {name:<30} {n:>7} {incl:>9.4f} {slf:>9.4f}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 bench/tracer.py SPANS_FILE")
    summarize(sys.argv[1])
