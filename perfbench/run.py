"""fdeval benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds ``src/fdeval``.  Every pass is
a closed loop: one caller in one process, ``workers = 1``, BLAS pinned to one
thread in every interpreter this script starts.

- ``--trace 0`` starts one interpreter that builds the workload and repeats
  untraced passes for S seconds (at least one), then one more that only
  sets up.  It reports the end-to-end metrics.
- ``--trace 1`` starts one interpreter under ``-X importtime`` that runs an
  untraced pass, then a traced one.  It reports the per-layer metrics.

Lines before the last one on stdout are for people: the environment record
and each metric with its unit.  The last line is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from spans import layer_metrics, parse_importtime
from workloads import SWEEPS, WORKLOADS, load_refs, pool_entry

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0
# Each set-up costs ~14 s with BLAS pinned; a third per run would not fit a
# full check (4 + 22 runs per workload) into its 57 minutes.
SETUPS = 2
BLAS_PIN = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}


class ChildFailed(RuntimeError):
    pass


def spawn(spec, deadline, py_flags=(), stderr=None):
    """Run child.py to the end; returns its result with ``setup_s`` added."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("time budget spent before the next interpreter could start")
    cmd = [sys.executable, *py_flags, str(HERE / "child.py"), json.dumps(dict(spec, budget_s=remaining))]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=dict(os.environ, **BLAS_PIN), stdout=subprocess.PIPE,
        stderr=stderr, text=True,
    )
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"{spec['mode']} interpreter exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1]) if spec["mode"] != "setup" else {}
    result["setup_s"] = setup_s
    return result


def environment(seed, entry):
    def git_commit():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, env=env, timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() or None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fdeval").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "input": entry,
        "blas_threads": BLAS_PIN,
    }


def end_to_end(args, spec, entry, deadline):
    run = spawn(dict(spec, mode="run"), deadline)
    setups = [run["setup_s"]]
    setups += [spawn(dict(spec, mode="setup"), deadline)["setup_s"] for _ in range(SETUPS - 1)]
    if args.workload in SWEEPS:
        inaccuracy = run["inaccuracy"] / entry["inaccuracy"]
        shown = f"{run['inaccuracy']:.6g} W1, reference {entry['inaccuracy']:.6g} W1"
    else:
        inaccuracy = 1.0  # the suites have no ground-truth score
        shown = "not applicable, reported as 1"
    fail_frac = run["failed"] / run["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(run["walls"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - fail_frac, "ratio"),
        "inaccuracy": (inaccuracy if math.isfinite(inaccuracy) else None, "W1/ref"),
    }
    print(f"{len(run['walls'])} pass(es); setups: {', '.join(f'{s:.3f}' for s in setups)} s")
    print(f"  fail_frac: {fail_frac:.6g} ratio ({run['failed']} of {run['attempted']})")
    print(f"  inaccuracy: {shown}")
    return run, {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(spec, deadline, out_dir):
    log_path = out_dir / "importtime.log"
    with open(log_path, "w") as log:
        run = spawn(dict(spec, mode="trace"), deadline, ("-X", "importtime"), log)
    text = log_path.read_text()
    for line in text.splitlines():
        if not line.startswith("import time:"):
            print(line, file=sys.stderr)
    imports = parse_importtime(text)
    return run, layer_metrics(run["stats"], run["absent"], imports, run["overhead_s"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "fdeval" / "__init__.py").is_file():
        print(f"error: no fdeval package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bound = next(
        m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        if m["name"] == "inaccuracy"
    )
    entry = pool_entry(args.workload, args.seed, load_refs())
    out_dir = ROOT / ".perfbench_out" / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = {
        "workload": args.workload, "entry": entry, "seconds": args.seconds,
        "bound": bound, "out_dir": str(out_dir),
    }
    print("env " + json.dumps(environment(args.seed, entry), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        if args.trace:
            run, metrics = per_layer(spec, deadline, out_dir)
        else:
            run, metrics = end_to_end(args, spec, entry, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']} {metric['unit']}")
    print(json.dumps({
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
