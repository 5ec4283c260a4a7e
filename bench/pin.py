"""Record the expected answers of every ladder instance in pinned.json.

    python3 bench/pin.py

Each instance is generated, serialised and analysed once; its answers
are pinned only if every witness verifies and, on oracle-sized inputs,
the supereulerian and hamiltonian answers agree with the exhaustive
oracles.  Re-pinning changes what the benchmark accepts as correct, so
do it only when the ladders change, never to make a failing run pass.
"""

from __future__ import annotations

import hashlib
import json
import sys

import check
import workloads


def main() -> int:
    lib = workloads.import_ecgraph()
    core, cli = lib["core"], lib["cli"]
    pinned, bad = {}, 0
    for name, max_n, (model, seed, params) in workloads.all_ladders():
        key = workloads.instance_key(model, seed, params)
        text = core.serialize_graph(
            lib["reductions"].generate(model, seed, **params))
        report = json.loads(json.dumps(
            cli.analyze_graph(core.parse_graph(text), max_n).to_dict()))
        answers = check.pin_of(report)
        miss = check.misses(lib, text, report, answers,
                            check.oracle_answers(lib, text))
        if miss:
            bad += 1
            print(f"{name} {key}: {'; '.join(miss)}", file=sys.stderr)
        pinned[key] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                       "max_n": max_n, "answers": answers}
    if bad:
        print(f"{bad} instances fail their checks; nothing written",
              file=sys.stderr)
        return 1
    with open(workloads.PINNED, "w") as f:
        f.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(pinned.items())) + "\n}\n")
    print(f"pinned {len(pinned)} instances in {workloads.PINNED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
