"""A short traced pass of each workload reports every per-layer metric."""

import dataclasses
import functools
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import fdeval.bellman  # noqa: E402
import fdeval.harness  # noqa: E402
import fdeval.suites  # noqa: E402

import workloads  # noqa: E402
from spans import IMPORTED, Instrumented, Recorder, layer_metrics, parse_importtime, per_layer_spec  # noqa: E402

# Suite sizes for a short pass; every suite passes at these sizes on seeds 0-15.
SHORT_SUITES = {
    "contraction": {"trials": 10},
    "minimizer": {"mc_samples": 500},
    "telescoping": {"runs": 5},
    "sandwich": {"trials": 50},
    "slc": {"trials": 20},
}


@pytest.fixture(scope="module")
def import_self_s():
    """Import self times for the package's modules.

    Timing ``fdeval`` itself under ``-X importtime`` costs seconds of set-up,
    so the parser is checked on this interpreter's real output for a cheap
    import, and the package's modules get a stand-in time.  Every module named
    in ``IMPORTED`` must be one the tests really loaded.
    """
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import json"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert parse_importtime(done.stderr)["json"] > 0
    assert all(mod in sys.modules for mod in IMPORTED)
    return {mod: 1e-3 for mod in IMPORTED}


def short_work(workload, tmp_path, monkeypatch):
    refs = workloads.load_refs()
    work = workloads.build(workload, workloads.pool_entry(workload, 0, refs), tmp_path)
    if workload == "lqr-sweep":
        return dataclasses.replace(work, methods=("energy", "fle"), n_list=(100,), dpi_points=100)
    if workload == "tabular-sweep":
        return dataclasses.replace(work, tabular_states=1, tabular_gamma=0.5)
    for name, sizes in SHORT_SUITES.items():
        suite = getattr(fdeval.suites, f"{name}_suite")
        monkeypatch.setattr(fdeval.suites, f"{name}_suite", functools.partial(suite, **sizes))
    return work


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_traced_pass_reports_every_layer_metric(workload, tmp_path, monkeypatch, import_self_s):
    original = fdeval.bellman.compact_atoms
    recorder = Recorder()
    with Instrumented(recorder) as instrumented:
        result = workloads.run_pass(workload, short_work(workload, tmp_path, monkeypatch), recorder)
    assert fdeval.bellman.compact_atoms is original
    assert fdeval.harness.compact_atoms is original
    assert result.failed == 0, result.problems
    assert instrumented.absent == set()

    metrics = layer_metrics(recorder.stats, instrumented.absent, import_self_s, 0.0)
    assert set(metrics) == {name for name, _, _ in per_layer_spec()}
    for name, metric in metrics.items():
        assert "absent" not in metric, name
        assert metric["value"] >= 0, name
    for mod in IMPORTED:
        assert metrics[f"import.{mod}.self_s"]["value"] > 0

    def value(name):
        return metrics[name]["value"]

    if workload == "lqr-sweep":
        assert value("harness.cells") == 2
        assert value("envs.estimate_dpi_lqr.calls") == 2
        assert value("fde.fde_run.calls") == value("fde.fle_run.calls") == 1
        assert value("fde.minimize.calls") == value("fde.folds") > 0
        assert value("divergences.mmd2_gaussian.terms") > value("divergences.mmd2_gaussian.calls")
    elif workload == "tabular-sweep":
        assert value("harness.cells") == 2
        assert value("bellman.solve_return_fixed_point.calls") == 2
        assert value("bellman.compact_atoms.atoms_in") >= value("bellman.compact_atoms.atoms_out") > 0
        assert value("bellman.apply_bellman.self_s") < value("bellman.apply_bellman.total_s")
        assert value("fde.minimize.calls") == 0
    else:
        for suite in workloads.SUITES:
            assert value(f"suites.{suite}.trials") > 0
            assert value(f"suites.{suite}.total_s") > 0


def test_removed_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(fdeval.bellman, "bellman_backup")
    with Instrumented(Recorder()) as instrumented:
        pass
    assert instrumented.absent == {"bellman.bellman_backup"}
    metrics = layer_metrics({}, instrumented.absent, {}, 0.0)
    assert metrics["bellman.bellman_backup.calls"]["absent"] is True
