"""Record each workload's input pool and reference inaccuracies in refs.json.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/record_refs.py

A run's ``--seed`` picks entry ``seed % 16`` of its workload's pool, so every
input has a recorded reference, and every later pass of a sweep must match
that entry's inaccuracy within the ``inaccuracy`` bound of BENCHMARK.json.

- ``lqr-sweep``: master seeds 0-15.
- ``tabular-sweep``: 16 instances of equal work.  The truth solve's cost is
  set by how many atoms ``compact_atoms`` merges.  That count grows with the
  gap between the instance's two rewards, which is uniform on (0, 1), and
  no affordable number of instances per pass averages it out.  So: take
  the first 40 master seeds whose instance's rewards r1 < r2 satisfy
  (r2 - r1) / r2 >= 0.9 (a wide gap gives the ~4.7k atoms per pair that
  dominate tabular sweeps), count the atoms one cell feeds to
  ``compact_atoms``, and keep the 16 whose count is closest to the median.
- ``property-suites``: seeds 0-15.

Recording stops with an error if any pass fails its checks.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

POOL_SIZE = 16
MIN_GAP = 0.9
CANDIDATES = 40


def reward_gap(master_seed):
    import fdeval.harness as harness
    from fdeval.envs import tabular_make_random

    config = workloads.sweep_config("tabular-sweep", master_seed, "unused.csv")
    n = config.n_list[0]
    # the instance of the pool's one cell, derived as the harness derives it
    rng = np.random.default_rng(harness._cell_seed(config, 0, n, harness._TAG_INSTANCE))
    mdp = tabular_make_random(
        config.tabular_states, config.tabular_actions, 2, rng, gamma=config.tabular_gamma
    )
    rewards = sorted({r for branches in mdp.transitions.values() for _, r, _ in branches})
    return (rewards[-1] - rewards[0]) / rewards[-1]


def truth_work(master_seed, out_dir):
    """Atoms one cell of the instance feeds to compact_atoms."""
    import fdeval.harness as harness

    config = workloads.sweep_config("tabular-sweep", master_seed, str(Path(out_dir) / "w.csv"))
    recorder = spans.Recorder()
    with spans.Instrumented(recorder):
        harness.run_experiment(dataclasses.replace(config, methods=config.methods[:1]))
    return recorder.stats["bellman.compact_atoms"]["atoms_in"]


def equal_work_tabular_seeds(out_dir):
    candidates, seed = [], 0
    while len(candidates) < CANDIDATES:
        if reward_gap(seed) >= MIN_GAP:
            candidates.append(seed)
        seed += 1
    work = {m: truth_work(m, out_dir) for m in candidates}
    print("compact_atoms atoms_in by master seed:", work, file=sys.stderr, flush=True)
    middle = statistics.median(work.values())
    chosen = sorted(candidates, key=lambda m: (abs(work[m] - middle), m))[:POOL_SIZE]
    return [{"master_seed": m, "cell_atoms_in": work[m]} for m in sorted(chosen)]


def pools(out_dir):
    return {
        "lqr-sweep": [{"master_seed": s} for s in range(POOL_SIZE)],
        "tabular-sweep": equal_work_tabular_seeds(out_dir),
        "property-suites": [{"seed": s} for s in range(POOL_SIZE)],
    }


def main():
    with tempfile.TemporaryDirectory() as out_dir:
        refs = pools(out_dir)
        for workload, pool in refs.items():
            for entry in pool:
                result = workloads.run_pass(workload, workloads.build(workload, entry, out_dir))
                if result.failed:
                    raise SystemExit(f"{workload} {entry} failed: {result.problems}")
                if workload in workloads.SWEEPS:
                    entry["inaccuracy"] = result.inaccuracy
                print(workload, entry, f"{result.wall_s:.2f} s", file=sys.stderr, flush=True)
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    start = time.perf_counter()
    main()
    print(f"recorded in {time.perf_counter() - start:.0f} s", file=sys.stderr)
