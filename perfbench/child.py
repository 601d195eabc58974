"""One fresh interpreter of a benchmark run; ``run.py`` starts it.

It imports ``fdeval`` from the checkout's ``src/``, builds the workload and
prints ``ready``: ``run.py`` times set-up from process start to that line.
Then, by mode:

- ``setup``: exits;
- ``run``: repeats untraced passes until the requested seconds are spent;
- ``trace``: one untraced pass, then one traced pass.

The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402


def checked_pass(spec, work, recorder=None):
    result = workloads.run_pass(spec["workload"], work, recorder)
    problems = workloads.check_reference(
        spec["workload"], spec["entry"], result.inaccuracy, spec["bound"]
    )
    if problems:
        result.problems += problems
        result.failed = result.attempted
    return result


def main():
    spec = json.loads(sys.argv[1])
    started = time.perf_counter()
    import fdeval
    import fdeval.harness  # noqa: F401
    import fdeval.suites  # noqa: F401

    if not Path(fdeval.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"fdeval was imported from {fdeval.__file__}, not from {SRC}")
    work = workloads.build(spec["workload"], spec["entry"], spec["out_dir"])
    print("ready", flush=True)
    if spec["mode"] == "setup":
        return

    out = {}
    first = time.perf_counter()
    passes = [checked_pass(spec, work)]
    if spec["mode"] == "run":
        deadline = started + spec["budget_s"]
        while True:
            now = time.perf_counter()
            if now - first >= spec["seconds"] or now + passes[-1].wall_s > deadline:
                break
            passes.append(checked_pass(spec, work))
    else:
        recorder = spans.Recorder()
        with spans.Instrumented(recorder) as instrumented:
            passes.append(checked_pass(spec, work, recorder))
        out["stats"] = recorder.stats
        out["absent"] = sorted(instrumented.absent)
        out["overhead_s"] = passes[1].wall_s - passes[0].wall_s

    out.update(
        walls=[p.wall_s for p in passes],
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        problems=[msg for p in passes for msg in p.problems],
        inaccuracy=passes[0].inaccuracy,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
