"""The workloads: inputs from a seed, one pass through fdeval's public entry
points, and the checks on what each pass produced.

Sweeps call ``harness.run_experiment`` then ``harness.write_reports``;
``property-suites`` calls the suite functions of ``fdeval.suites``.  Every
call goes through the module attribute at call time, so the traced run sees
it.  ``fdeval`` is imported by the caller, never here at module load.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from spans import SUITES

HERE = Path(__file__).resolve().parent
WORKLOADS = ("lqr-sweep", "tabular-sweep", "property-suites")
SWEEPS = ("lqr-sweep", "tabular-sweep")
# The tabular path ignores the method label, so two labels give two identical
# cells: the work that a per-(n, rep) dedup would remove.
TABULAR_LABELS = ("cramer", "energy")


def load_refs():
    return json.loads((HERE / "refs.json").read_text())


def pool_entry(workload, seed, refs):
    """The seed picks one recorded input of the workload's pool."""
    pool = refs[workload]
    return pool[seed % len(pool)]


def sweep_config(workload, master_seed, output_path):
    from fdeval.harness import ExperimentConfig

    if workload == "lqr-sweep":
        return ExperimentConfig(
            experiment="lqr", n_list=(300, 1000), reps=1, master_seed=master_seed,
            workers=1, output_path=output_path,
        )
    return ExperimentConfig(
        experiment="tabular", methods=TABULAR_LABELS, n_list=(300,), reps=1,
        tabular_states=2, tabular_actions=1, master_seed=master_seed,
        workers=1, output_path=output_path,
    )


def build(workload, entry, out_dir):
    """What a pass needs: a sweep config, or the suite seed."""
    if workload in SWEEPS:
        return sweep_config(workload, entry["master_seed"], str(Path(out_dir) / "cells.csv"))
    return entry["seed"]


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int
    inaccuracy: float = math.nan  # W1, aggregated as the workload defines
    problems: list = field(default_factory=list)


def run_pass(workload, work, recorder=None):
    if workload in SWEEPS:
        return _sweep_pass(workload, work)
    return _suites_pass(work, recorder)


def _sweep_pass(workload, config):
    import fdeval.harness as harness

    cells = len(config.methods) * len(config.n_list) * config.reps
    start = time.perf_counter()
    try:
        reports = harness.run_experiment(config)
        path = harness.write_reports(reports, config)
    except Exception:
        wall = time.perf_counter() - start
        return PassResult(wall, cells, cells, problems=[traceback.format_exc()])
    wall = time.perf_counter() - start
    result = PassResult(wall, cells, 0)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != cells:
        result.problems.append(f"CSV has {len(rows)} rows for {cells} cells")
    if not os.path.exists(path + ".meta.json"):
        result.problems.append("no .meta.json sidecar")
    if result.problems:
        # the written output is unusable, so no cell of the pass counts as done
        result.failed = cells
    scored = []
    for row in rows:
        value = float(row["inaccuracy"])
        if row["failed"] != "0" or not (math.isfinite(value) and value >= 0):
            result.failed = min(cells, result.failed + 1)
            result.problems.append(f"bad cell {row['method']} n={row['n']}: {row['inaccuracy']}")
        elif workload == "tabular-sweep" or (row["n"] == "1000" and row["method"] != "fle"):
            scored.append(value)
    if scored:
        result.inaccuracy = sum(scored) / len(scored)
    return result


def _suites_pass(seed, recorder):
    import fdeval.suites as suites

    result = PassResult(0.0, 0, 0)
    start = time.perf_counter()
    for name in SUITES:
        result.attempted += 1
        began = recorder.start() if recorder else None
        try:
            report = getattr(suites, f"{name}_suite")(seed)
        except Exception:
            report = {"passed": False, "error": traceback.format_exc()}
        finally:
            if recorder:
                recorder.stop(f"suites.{name}", began)
        if recorder:
            recorder.count(f"suites.{name}", "trials", int(report.get("trials", 0)))
        if not report.get("passed"):
            result.failed += 1
            result.problems.append(f"suite {name} did not pass at seed {seed}: {report}")
    result.wall_s = time.perf_counter() - start
    return result


def check_reference(workload, entry, inaccuracy, bound):
    """Problems found comparing a sweep's inaccuracy with the recorded one."""
    if workload not in SWEEPS:
        return []
    ref = entry["inaccuracy"]
    if not abs(inaccuracy - ref) <= bound * ref:
        return [f"inaccuracy {inaccuracy!r} is not within {bound} of the reference {ref!r}"]
    return []
