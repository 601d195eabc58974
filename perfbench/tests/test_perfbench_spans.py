"""Span arithmetic and metric bookkeeping of the benchmark's tracer."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from spans import Recorder, layer_metrics, parse_importtime, per_layer_spec  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    inner = rec.wrap("inner", lambda dt: clock.advance(dt))

    def body():
        clock.advance(1.0)
        inner(2.0)
        clock.advance(3.0)
        middle()
        clock.advance(5.0)

    def middle_body():
        clock.advance(0.5)
        inner(4.0)

    middle = rec.wrap("middle", middle_body)
    outer = rec.wrap("outer", body)
    outer()

    assert rec.stats["outer"] == {"calls": 1, "total_s": 15.5, "self_s": 9.0}
    # a grandchild counts against its direct parent only
    assert rec.stats["middle"] == {"calls": 1, "total_s": 4.5, "self_s": 0.5}
    assert rec.stats["inner"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def boom():
        clock.advance(2.0)
        raise ValueError("x")

    failing = rec.wrap("failing", boom)
    outer = rec.wrap("outer", lambda: (clock.advance(1.0), _swallow(failing)))
    outer()
    assert rec.stats["failing"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert rec.stats["outer"] == {"calls": 1, "total_s": 3.0, "self_s": 1.0}


def _swallow(fn):
    try:
        fn()
    except ValueError:
        pass


def test_counts_come_from_the_call_and_its_result():
    rec = Recorder()
    double = rec.wrap("double", lambda xs: xs * 2, counts=lambda a, k, r: [("double", "items", len(r))])
    double([1, 2, 3])
    double([4])
    assert rec.stats["double"]["calls"] == 2
    assert rec.stats["double"]["items"] == 8


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == per_layer_spec()


def test_missing_function_is_absent_not_zero():
    imports = {"fdeval": 1e-3, "fdeval.metrics": 7.0}
    metrics = layer_metrics({}, {"bellman.compact_atoms", "harness.run_experiment"}, imports, 0.5)
    assert set(metrics) == {name for name, _, _ in per_layer_spec()}
    assert metrics["bellman.compact_atoms.atoms_in"] == {"value": None, "unit": "count", "absent": True}
    assert metrics["harness.cells"]["absent"] is True
    assert metrics["bellman.apply_bellman.calls"] == {"value": 0, "unit": "count"}
    assert metrics["import.fdeval.metrics.self_s"]["value"] == 7.0
    assert metrics["import.fdeval.fde.self_s"]["absent"] is True
    assert metrics["trace.overhead_s"]["value"] == 0.5


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        120 |   fdeval.errors",
        "import time:   7200000 |    7300000 |   fdeval.metrics",
        "some other line",
    ])
    assert parse_importtime(text) == {"fdeval.errors": 120e-6, "fdeval.metrics": 7.2}
