"""ecgraph benchmark: certified-answer latency of `analyze`.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each timed operation is what a user runs: graph JSON text -> parse_graph
-> analyze_graph -> JSON report text.  One caller, one process, no
threads; each instance starts when the previous one has finished (a
closed loop with one client).  The run repeats passes over the
workload's ladder, in an order drawn from --seed, while the next pass
still fits in --seconds.  Every report is checked outside the timed
region (see check.py); every miss counts as a failed instance.  Every
timing is rescaled to one reference host speed (see pace.py).

With --trace 0 the last line carries the end-to-end metrics.  With
--trace 1 the run alternates untraced and traced passes, writes the
traced spans to bench/out/, and the last line carries the per-layer
metrics (see tracer.py).  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import check
import pace
import tracer
import workloads

SETUP_REPEATS = 21
TAIL_BEYOND = 10    # samples a reported tail percentile leaves above it

END_TO_END_UNITS = {"wall_s": "s", "latency_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
# Layer times that some workload never reaches (sweep_dense takes neither
# the merge stages nor the oracle; mclosed_large skips the oracle), so
# they read exactly 0 there.  A time that is 0 on every run says nothing
# about speed, so they are printed but kept out of the result line.
PRINTED_ONLY = ("supereuler.merge_s", "merge.ham_s", "oracle_s")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "trace.coverage":
        return "ratio"
    if name.endswith((".vertices", ".edges")):
        return "count/call"
    return "count/instance"


class Run:
    """Timings and check results of one workload run."""

    def __init__(self, wl: workloads.Workload, seed: int,
                 probe: pace.SpeedProbe):
        self.wl = wl
        self.rng = random.Random(seed)
        self.probe = probe
        self.tracer = tracer.Tracer()
        # instance -> (start, end) of each timed operation
        self.spells = {False: defaultdict(list), True: defaultdict(list)}
        self.pass_s = {False: [], True: []}   # summed instance times
        self.attempted = 0
        self.failures: list[str] = []
        self._oracle: dict[str, object] = {}    # answers, or why none

    def _analyze(self, text: str, traced: bool) -> str:
        # module attributes are looked up at call time, so a traced pass
        # reaches the tracer's wrappers
        lib = self.wl.lib
        report = lib["cli"].analyze_graph(lib["core"].parse_graph(text),
                                          self.wl.max_n)
        if traced:
            with self.tracer.span("bench.serialise"):
                return json.dumps(report.to_dict())
        return json.dumps(report.to_dict())

    def _timed(self, inst, traced: bool, pass_no: int):
        if not traced:
            t0 = time.perf_counter()
            out = self._analyze(inst.text, False)
            return (t0, time.perf_counter()), out
        with self.tracer.installed(self.wl.lib):
            t0 = time.perf_counter()
            with self.tracer.span(tracer.ROOT_SPAN,
                                  {"key": inst.key, "pass": pass_no}):
                out = self._analyze(inst.text, True)
            return (t0, time.perf_counter()), out

    def _check(self, inst, out: str) -> list[str]:
        lib = self.wl.lib
        if inst.key not in self._oracle:
            try:
                self._oracle[inst.key] = check.oracle_answers(lib, inst.text)
            except lib["oracle"].BudgetExceeded as exc:
                self._oracle[inst.key] = f"oracle cross-check failed: {exc}"
        oracle = self._oracle[inst.key]
        if isinstance(oracle, str):
            return [oracle]
        return check.misses(lib, inst.text, json.loads(out), inst.pinned,
                            oracle)

    def one_pass(self, traced: bool) -> None:
        pass_no = len(self.pass_s[False]) + len(self.pass_s[True])
        order = list(self.wl.instances)
        self.rng.shuffle(order)
        t_pass = 0.0
        for inst in order:
            # start each instance on a heap like a fresh CLI process:
            # earlier garbage collected, survivors out of the GC's way
            gc.collect()
            gc.freeze()
            self.attempted += 1
            try:
                spell, out = self._timed(inst, traced, pass_no)
                miss = self._check(inst, out)
            except Exception:
                miss = [traceback.format_exc()]
            else:
                self.spells[traced][inst.key].append(spell)
                t_pass += spell[1] - spell[0]
            if miss:
                self.failures.append(f"{inst.key}: " + "; ".join(miss))
        self.pass_s[traced].append(t_pass)

    def measure(self, seconds: float, trace: bool) -> None:
        modes = (False, True) if trace else (False,)
        deadline = time.perf_counter() + seconds
        longest = 0.0
        k = 0
        while k < len(modes) or time.perf_counter() + longest <= deadline:
            t0 = time.perf_counter()
            self.one_pass(modes[k % len(modes)])
            longest = max(longest, time.perf_counter() - t0)
            k += 1

    def seconds(self, traced: bool, raw: bool = False
                ) -> dict[str, list[float]]:
        """Each instance's timed operations, rescaled unless `raw`; call
        after the probe has stopped."""
        def length(t0, t1):
            return t1 - t0 if raw else self.probe.rescale(t0, t1)
        return {k: [length(*s) for s in v]
                for k, v in self.spells[traced].items()}

    def traced_speed(self) -> float:
        """Rescaled seconds per raw second over the traced operations."""
        spells = [s for v in self.spells[True].values() for s in v]
        return (sum(self.probe.rescale(*s) for s in spells)
                / sum(t1 - t0 for t0, t1 in spells))


def medians(times: dict[str, list[float]]) -> dict[str, float]:
    return {k: statistics.median(v) for k, v in times.items()}


def tail(values: list[float]):
    """Highest percentile that leaves TAIL_BEYOND samples above it."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return None
    rank = n - TAIL_BEYOND
    return {"value": sorted(values)[rank - 1],
            "percentile": round(100 * rank / n, 2), "samples": n}


def run_workload(args) -> int:
    probe = pace.SpeedProbe()
    probe.start()
    try:
        wl, setup_spells = workloads.timed_setups(args.workload, args.seed,
                                                  SETUP_REPEATS)
        run = Run(wl, args.seed, probe)
        run.measure(args.seconds, bool(args.trace))
    finally:
        probe.stop()

    times = run.seconds(False)
    med = medians(times)
    raw_med = medians(run.seconds(False, raw=True))
    wall = sum(med.values())
    failed = len(run.failures)
    for f in run.failures:
        print(f"FAIL {f}", file=sys.stderr)
    if not med:
        print("error: no instance completed", file=sys.stderr)
        return 1
    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "ladder": "held_out" if args.seed in workloads.HELD_OUT else "tune",
        "fingerprint": wl.fingerprint, "pass_s": run.pass_s[False],
        "instance_median_s": med, "raw_instance_median_s": raw_med,
        "raw_wall_s": sum(raw_med.values()),
        "probes": len(probe.took),
        "probe_median_s": statistics.median(probe.took),
        "fail_rate": failed / run.attempted,
        "latency_tail_s": tail(list(med.values())),
    }
    if args.trace:
        traced_med = medians(run.seconds(True))
        metrics = tracer.layer_metrics(run.tracer.spans,
                                       len(run.pass_s[True]))
        # layer times on the same scale as the end-to-end times
        speed = run.traced_speed()
        metrics = {n: v * speed if n.endswith("_s") else v
                   for n, v in metrics.items()}
        metrics["trace.overhead_s"] = sum(traced_med.values()) - wall
        path = (workloads.BENCH_DIR / "out"
                / f"spans-{wl.name}-{args.seed}.jsonl.gz")
        tracer.write_spans(path, run.tracer.spans)
        detail["traced_pass_s"] = run.pass_s[True]
        detail["spans"] = str(path.relative_to(workloads.ROOT))
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": wall,
            # median of every timed operation, all passes pooled
            "latency_p50_s": statistics.median(
                t for v in times.values() for t in v),
            "setup_s": statistics.median(probe.rescale(*s)
                                         for s in setup_spells),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    print(json.dumps(detail))
    for name, value in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{wl.name} fail_rate {detail['fail_rate']:.6g} ratio")
        print(f"{wl.name} raw_wall_s {detail['raw_wall_s']:.6g} s "
              f"(not rescaled)")
        if detail["latency_tail_s"]:
            t = detail["latency_tail_s"]
            print(f"{wl.name} latency_tail_s {t['value']:.6g} s "
                  f"(p{t['percentile']} of {t['samples']} instances)")
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items() if n not in PRINTED_ONLY},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak_rss_mb stays its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=175)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
