"""Self-test of the outside-in tracer.

    python3 -m pytest -q bench/test_tracer.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """(module, attribute) -> bound object, for every target binding."""
    lib = workloads.import_ecgraph()
    targets = {id(getattr(lib[m], f))
               for m, funcs in tracer.TARGETS.items() for f in funcs}
    return lib, {(name, attr): val
                 for name, mod in sys.modules.items()
                 if name == "ecgraph" or name.startswith("ecgraph.")
                 for attr, val in vars(mod).items() if id(val) in targets}


def _analyze(lib, max_n=9):
    g = lib["reductions"].generate("mclosed_blowup", 9, n=8)
    return lib["cli"].analyze_graph(g, max_n)


def test_every_binding_is_wrapped_then_restored():
    lib, before = _bindings()
    # the matching engine is bound in matching, factor, connect and the
    # package itself; all of them must be patched
    assert {m for m, a in before if a == "maximum_matching"} >= {
        "ecgraph", "ecgraph.matching", "ecgraph.factor", "ecgraph.connect"}
    t = tracer.Tracer()
    with t.installed(lib):
        for (mod, attr), val in before.items():
            assert getattr(sys.modules[mod], attr) is not val, (mod, attr)
        _analyze(lib)
    for (mod, attr), val in before.items():
        assert getattr(sys.modules[mod], attr) is val, (mod, attr)
    names = {s[tracer.NAME] for s in t.spans}
    assert {"analyze_graph", "maximum_matching", "eulerian_factor",
            "alternating_path", "similarity_partition"} <= names


def test_bindings_restored_when_the_call_raises():
    lib, before = _bindings()
    t = tracer.Tracer()
    with pytest.raises(lib["core"].GraphError):
        with t.installed(lib):
            lib["core"].parse_graph("not json")
    for (mod, attr), val in before.items():
        assert getattr(sys.modules[mod], attr) is val, (mod, attr)
    assert t.spans[-1][tracer.NOTE] == {"raised": "GraphError"}


def test_self_times_sum_to_no_more_than_wall_time():
    lib, _ = _bindings()
    t = tracer.Tracer()
    with t.installed(lib):
        t0 = time.perf_counter()
        with t.span(tracer.ROOT_SPAN, {"key": "x", "pass": 0}):
            _analyze(lib)
        wall = time.perf_counter() - t0
    own = tracer.self_times(t.spans)
    assert all(x >= 0 for x in own)
    assert sum(own) <= wall
    m = tracer.layer_metrics(t.spans, passes=1)
    assert 0.95 <= m["trace.coverage"] <= 1.0
    assert m["factor.ef.calls"] == 2
