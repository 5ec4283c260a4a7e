"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

    python3 bench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more runs of bench/run.py,
appended one after another.  Runs are paired by (workload, seed, trace).
Two runs whose instance-set fingerprints differ measured different
inputs, so the comparison is refused.  For every end-to-end metric the
table gives each side's median over its runs and flags a median that is
worse than the base by more than the bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

import workloads


def load(path: str) -> dict[tuple, tuple[dict, dict]]:
    """(workload, seed, trace) -> (detail line, result line)."""
    runs, detail = {}, None
    with open(path) as f:
        for line in f:
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "fingerprint" in doc:
                detail = doc
            elif "metrics" in doc and detail is not None:
                runs[(detail["workload"], detail["seed"],
                      detail["trace"])] = (detail, doc)
                detail = None
    return runs


def main(base_path: str, new_path: str) -> int:
    base, new = load(base_path), load(new_path)
    common = sorted(set(base) & set(new))
    if not common:
        print("error: the two files share no (workload, seed, trace) run",
              file=sys.stderr)
        return 2
    differ = [k for k in common
              if base[k][0]["fingerprint"] != new[k][0]["fingerprint"]]
    if differ:
        for k in differ:
            print(f"error: {k} fingerprints differ: "
                  f"{base[k][0]['fingerprint']} != {new[k][0]['fingerprint']}",
                  file=sys.stderr)
        print("refusing to compare runs over different instance sets",
              file=sys.stderr)
        return 2
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = defaultdict(lambda: ([], []))
    for k in common:
        for side, runs in ((0, base), (1, new)):
            detail, result = runs[k]
            if not result["correct"]:
                print(f"warning: {k} has failed instances in "
                      f"{(base_path, new_path)[side]}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values[(k[0], name)][side].append(m["value"])
    print(f"{'workload':<14} {'metric':<28} {'base':>11} {'new':>11} "
          f"{'change':>8}  runs")
    worse = 0
    for (wl, name), (b, n) in sorted(values.items()):
        mb, mn = statistics.median(b), statistics.median(n)
        change = (mn - mb) / mb if mb else float("nan")
        flag = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * change > bounds[name]["bound"]:
                flag, worse = "  WORSE than bound", worse + 1
        print(f"{wl:<14} {name:<28} {mb:>11.5g} {mn:>11.5g} "
              f"{change:>+8.1%}  {len(b)}/{len(n)}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python3 bench/compare.py BASE.txt NEW.txt")
    sys.exit(main(sys.argv[1], sys.argv[2]))
