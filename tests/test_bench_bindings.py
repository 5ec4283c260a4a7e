"""The package names the benchmark reads, and the instances it pins.

`bench/workloads.py` imports every module in its MODULES, and
`bench/tracer.py` looks up each TARGETS name in its module with getattr,
so renaming or moving one of them breaks every benchmark run.  Both
files are loaded here as they are, without being changed.  The
benchmark's set-up refuses a ladder instance whose document no longer
has its pinned SHA-256; the same check runs here on every instance,
read from `bench/pinned.json` and never written.
"""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from ecgraph.core import serialize_graph
from ecgraph.reductions import generate

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")
TRACER = _load("tracer")


@pytest.mark.parametrize("name", WORKLOADS.MODULES + ("reductions",))
def test_benchmark_module_imports(name):
    importlib.import_module(f"ecgraph.{name}")


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in TRACER.TARGETS.items()
    for name in names])
def test_tracer_target_resolves(module, name):
    assert module in WORKLOADS.MODULES
    assert callable(getattr(importlib.import_module(f"ecgraph.{module}"),
                            name))


def test_every_pinned_instance_is_generated_again():
    pinned = json.loads(WORKLOADS.PINNED.read_text())
    seen = set()
    for _, _, (model, seed, params) in WORKLOADS.all_ladders():
        key = WORKLOADS.instance_key(model, seed, params)
        text = serialize_graph(generate(model, seed, **params))
        assert hashlib.sha256(text.encode()).hexdigest() \
            == pinned[key]["sha256"], key
        seen.add(key)
    assert seen == set(pinned)
