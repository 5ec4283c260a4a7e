"""Workload ladders, set-up and the instance-set fingerprint.

A workload is a fixed ladder of seeded `ecgraph.reductions.generate`
instances.  The run seed orders the ladder; it does not pick its members,
because these ladders are too small for a seeded draw to keep the load
steady from seed to seed (a draw of 200 small instances out of 600 moved
the pass time by 16-25% between seeds).  Seeds in HELD_OUT select a
second, disjoint ladder per workload, kept for confirming a claim on
inputs that were not looked at while the change was written.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED = BENCH_DIR / "pinned.json"
HELD_OUT = range(1000, 2000)

# the modules whose public functions the tracer wraps, in layer order
MODULES = ("core", "matching", "factor", "connect", "structure",
           "supereuler", "merge", "oracle", "cli")


def _small_mixed(first_seed: int) -> list[tuple[str, int, dict]]:
    """67 instances per model, n cycling through 6..10."""
    out = []
    for s in range(first_seed, first_seed + 67):
        n = 6 + s % 5
        n1 = 2 + s % (n - 3)
        out.append(("mclosed_blowup", s, {"n": n}))
        out.append(("complete_bipartite", s, {"n1": n1, "n2": n - n1}))
        out.append(("random_2ec", s, {"n": n, "m": 2 * n}))
    return out


# name -> (max_n passed to analyze_graph, tuning ladder, held-out ladder)
WORKLOADS: dict[str, tuple[int, list, list]] = {
    # eulerian-factor matching on the gadget dominates: seed 9 n=60 is
    # ROADMAP item 1's `analyze` figure; the n=40..50 instances build the
    # gadget too, and give the median latency a cluster of similar
    # instances instead of one; n=69 is colour-deficient and takes the
    # cheap negative route
    "mclosed_large": (0, [
        ("mclosed_blowup", 9, {"n": 60}),
        ("mclosed_blowup", 37, {"n": 50}),
        ("mclosed_blowup", 24, {"n": 40}),
        ("mclosed_blowup", 37, {"n": 40}),
        ("mclosed_blowup", 48, {"n": 40}),
        ("mclosed_blowup", 35, {"n": 40}),
        ("mclosed_blowup", 23, {"n": 69}),
    ], [
        ("mclosed_blowup", 33, {"n": 58}),
        ("mclosed_blowup", 29, {"n": 50}),
        ("mclosed_blowup", 29, {"n": 40}),
        ("mclosed_blowup", 33, {"n": 40}),
        ("mclosed_blowup", 38, {"n": 40}),
        ("mclosed_blowup", 56, {"n": 40}),
        ("mclosed_blowup", 20, {"n": 68}),
    ]),
    # colour and trail sweeps dominate: seed 1 is negative and stops its
    # sweeps early, seed 2 is positive and sweeps every pair
    "sweep_dense": (0, [
        ("random_2ec", 1, {"n": 30, "m": 120}),
        ("random_2ec", 2, {"n": 30, "m": 120}),
    ], [
        ("random_2ec", 5, {"n": 30, "m": 120}),
        ("random_2ec", 3, {"n": 30, "m": 120}),
    ]),
    # millisecond calls across every route (M-closed fast path,
    # complete-bipartite decision, oracle, unknown): fixed per-call
    # costs dominate
    "small_mixed": (9, _small_mixed(0), _small_mixed(HELD_OUT.start)),
}


def instance_key(model: str, seed: int, params: dict) -> str:
    args = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{model}/{seed}/{args}"


def ladder(workload: str, seed: int) -> list[tuple[str, int, dict]]:
    _, tune, held_out = WORKLOADS[workload]
    return held_out if seed in HELD_OUT else tune


def all_ladders():
    """(workload, max_n, instance spec) for every instance pin.py records."""
    for name, (max_n, tune, held_out) in WORKLOADS.items():
        for spec in tune + held_out:
            yield name, max_n, spec


def import_ecgraph(fresh: bool = False) -> dict:
    """Import ecgraph from this checkout's src/, never from site-packages.

    With fresh=True every ecgraph module is dropped first, so the import
    runs again and can be timed more than once in one process.
    """
    if not (SRC / "ecgraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no ecgraph sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules
                     if m == "ecgraph" or m.startswith("ecgraph.")]:
            del sys.modules[name]
    lib = {m: importlib.import_module(f"ecgraph.{m}")
           for m in MODULES + ("reductions",)}
    origin = Path(lib["core"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: ecgraph imported from {origin}, not {SRC}")
    return lib


@dataclass
class Instance:
    key: str
    text: str       # the graph JSON document the timed operation parses
    pinned: dict    # question -> [answer, counterexample, witness kind]


@dataclass
class Workload:
    name: str
    max_n: int
    instances: list[Instance]
    fingerprint: str
    lib: dict


def fingerprint(texts: list[str]) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(hashlib.sha256(t.encode()).digest())
    return h.hexdigest()[:16]


def setup(name: str, seed: int) -> Workload:
    """Import ecgraph afresh, generate and serialise the ladder, and load
    and check the pinned answers."""
    lib = import_ecgraph(fresh=True)
    generate = lib["reductions"].generate
    serialize_graph = lib["core"].serialize_graph
    pinned = json.loads(PINNED.read_text())
    max_n = WORKLOADS[name][0]
    instances = []
    for model, gen_seed, params in ladder(name, seed):
        key = instance_key(model, gen_seed, params)
        text = serialize_graph(generate(model, gen_seed, **params))
        pin = pinned.get(key)
        if pin is None:
            raise SystemExit(f"error: {key} has no pinned answers; "
                             f"run bench/pin.py")
        if pin["sha256"] != hashlib.sha256(text.encode()).hexdigest():
            raise SystemExit(f"error: {key} no longer generates the pinned "
                             f"instance; its answers cannot be checked")
        if pin["max_n"] != max_n:
            raise SystemExit(f"error: {key} was pinned with max_n="
                             f"{pin['max_n']}, the workload uses {max_n}")
        instances.append(Instance(key, text, pin["answers"]))
    return Workload(name, max_n, instances,
                    fingerprint([i.text for i in instances]), lib)


def timed_setups(name: str, seed: int, repeats: int
                 ) -> tuple[Workload, list[tuple[float, float]]]:
    """Set up `repeats` times from a fresh import; keep the last.
    Returns the (start, end) of each set-up."""
    spells = []
    for _ in range(repeats):
        gc.collect()    # drop the previous set-up's modules first
        t0 = time.perf_counter()
        wl = setup(name, seed)
        spells.append((t0, time.perf_counter()))
    return wl, spells
