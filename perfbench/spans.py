"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder replaces each listed public function of ``fdeval`` by a
wrapper, at every module attribute where a caller looks it up (for example
``fdeval.harness.estimate_dpi_lqr`` and ``fdeval.bellman.compact_atoms``),
and restores the originals afterwards.  Nothing under ``src/`` changes.

Spans are aggregated per name as they close: call count, total time, and
self time, which is a span's duration minus the part of it that its child
spans cover.  Calls run in one thread, so child spans never overlap and the
covered part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# --- what is traced --------------------------------------------------------


def _cells(args, kwargs, result):
    return [("harness", "cells", len(result))]


def _folds(args, kwargs, result):
    return [("fde", "folds", result[1].t_used)]


def _terms(key):
    def count(args, kwargs, result):
        return [(key, "terms", int(np.size(result)))]
    return count


def _atoms(args, kwargs, result):
    dist = args[0] if args else kwargs["dist"]
    return [
        ("bellman.compact_atoms", "atoms_in", len(dist.masses)),
        ("bellman.compact_atoms", "atoms_out", len(result.masses)),
    ]


def _optimizer(args, kwargs, result):
    key = "fde.minimize"
    return [
        (key, "nfev", int(getattr(result, "nfev", 0))),
        (key, "nit", int(getattr(result, "nit", 0))),
        (key, "not_converged", int(not getattr(result, "success", True))),
    ]


# (module, function, extra counts taken from the call and its result)
TRACED = (
    ("harness", "run_experiment", _cells),
    ("harness", "write_reports", None),
    ("envs", "lqr_collect", None),
    ("envs", "estimate_dpi_lqr", None),
    ("envs", "lqr_true_params", None),
    ("envs", "tabular_make_random", None),
    ("envs", "tabular_collect", None),
    ("envs", "estimate_dpi_tabular", None),
    ("fde", "fde_run", _folds),
    ("fde", "fle_run", _folds),
    ("divergences", "mmd2_gaussian", _terms("divergences.mmd2_gaussian")),
    ("divergences", "pdf_l2_gaussian", _terms("divergences.pdf_l2_gaussian")),
    ("divergences", "kl_gaussian", _terms("divergences.kl_gaussian")),
    ("divergences", "gaussian_k0_dmu", _terms("divergences.gaussian_k0_dmu")),
    ("divergences", "divergence_gmm", None),
    ("bellman", "solve_return_fixed_point", None),
    ("bellman", "apply_bellman", None),
    ("bellman", "compact_atoms", _atoms),
    ("bellman", "bellman_backup", None),
    ("distributions", "mixture", None),
    ("distributions", "push_forward", None),
    ("metrics", "wasserstein_1d", None),
    ("metrics", "metric_extension", None),
    ("evaluation", "lqr_inaccuracy", None),
    ("evaluation", "tabular_inaccuracy", None),
)

SUITES = ("contraction", "minimizer", "telescoping", "sandwich", "slc")

IMPORTED = (
    "fdeval", "fdeval.errors", "fdeval.distributions", "fdeval.divergences",
    "fdeval.metrics", "fdeval.bellman", "fdeval.envs", "fdeval.evaluation",
    "fdeval.fde", "fdeval.harness", "fdeval.suites",
)

# stats key -> fields reported for it, in report order
_REPORTED = {
    "harness.run_experiment": ("self_s",),
    "harness.write_reports": ("total_s",),
    "harness": ("cells",),
    **{
        f"envs.{fn}": ("calls", "total_s")
        for fn in (
            "lqr_collect", "estimate_dpi_lqr", "lqr_true_params",
            "tabular_make_random", "tabular_collect", "estimate_dpi_tabular",
        )
    },
    "fde.fde_run": ("calls", "total_s", "self_s"),
    "fde.fle_run": ("calls", "total_s", "self_s"),
    "fde": ("folds",),
    "fde.minimize": ("calls", "total_s", "nfev", "nit", "not_converged"),
    **{
        f"divergences.{fn}": ("calls", "terms", "total_s")
        for fn in ("mmd2_gaussian", "pdf_l2_gaussian", "kl_gaussian", "gaussian_k0_dmu")
    },
    "divergences.divergence_gmm": ("calls", "total_s"),
    "bellman.solve_return_fixed_point": ("calls", "total_s"),
    "bellman.apply_bellman": ("calls", "total_s", "self_s"),
    "bellman.compact_atoms": ("calls", "total_s", "atoms_in", "atoms_out"),
    "bellman.bellman_backup": ("calls", "total_s"),
    "distributions.mixture": ("calls", "total_s"),
    "distributions.push_forward": ("calls", "total_s"),
    "metrics.wasserstein_1d": ("calls", "total_s"),
    "metrics.metric_extension": ("calls", "total_s"),
    "evaluation.lqr_inaccuracy": ("calls", "total_s"),
    "evaluation.tabular_inaccuracy": ("calls", "total_s"),
    **{f"suites.{name}": ("total_s", "trials") for name in SUITES},
    **{f"import.{mod}": ("self_s",) for mod in IMPORTED},
    "trace": ("overhead_s",),
}

# counters without a function of their own are absent with their owner
_OWNER = {"harness": "harness.run_experiment", "fde": "fde.fde_run"}

_HIGHER_IS_BETTER = ("cells", "trials")


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for key, fields in _REPORTED.items():
        for fld in fields:
            unit = "s" if fld.endswith("_s") else "count"
            better = "higher" if fld in _HIGHER_IS_BETTER else "lower"
            spec.append((f"{key}.{fld}", unit, better))
    return spec


# --- recording --------------------------------------------------------------


class Recorder:
    """Aggregates spans by name: calls, total_s, self_s and named counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self._open = []  # per open span: time covered by its children so far

    def _get(self, key):
        return self.stats.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def start(self):
        self._open.append(0.0)
        return self.clock()

    def stop(self, key, started):
        duration = self.clock() - started
        covered = self._open.pop()
        if self._open:
            self._open[-1] += duration
        entry = self._get(key)
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - covered

    def count(self, key, field, n):
        entry = self._get(key)
        entry[field] = entry.get(field, 0) + n

    def wrap(self, key, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            started = self.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stop(key, started)
            if counts is not None:
                for count_key, field, n in counts(args, kwargs, result):
                    self.count(count_key, field, n)
            return result
        return traced


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside ``fdeval.fde`` only."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, name):
        return getattr(self._module, name)


class Instrumented:
    """Context manager that installs the recorder's wrappers into ``fdeval``.

    ``absent`` lists the stats keys of traced functions that the loaded
    package does not define, so their metrics are reported as absent rather
    than as zero work.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.absent = set()
        self._undo = []

    def _replace(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fdeval" or mod_name.startswith("fdeval.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        for mod, fn, counts in TRACED:
            module = sys.modules.get(f"fdeval.{mod}")
            original = getattr(module, fn, None)
            if not callable(original):
                self.absent.add(f"{mod}.{fn}")
                continue
            self._replace(original, self.recorder.wrap(f"{mod}.{fn}", original, counts))
        self._wrap_minimize()
        return self

    def _wrap_minimize(self):
        fde = sys.modules.get("fdeval.fde")
        scipy_optimize = getattr(fde, "optimize", None)
        original = getattr(scipy_optimize, "minimize", None)
        if not callable(original):
            self.absent.add("fde.minimize")
            return
        wrapper = self.recorder.wrap("fde.minimize", original, _optimizer)
        self._undo.append((fde, "optimize", scipy_optimize))
        fde.optimize = _OptimizeProxy(scipy_optimize, wrapper)

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()
        return False


# --- reporting --------------------------------------------------------------


def parse_importtime(text):
    """Self time in seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        out[parts[2].strip()] = int(parts[0]) / 1e6
    return out


def layer_metrics(stats, absent, import_self_s, overhead_s):
    """Every per-layer metric by name.

    A function that was never called did zero work; one that the package no
    longer defines, or a module that was not imported, is marked absent.
    """
    stats = dict(stats)
    for mod in IMPORTED:
        if mod in import_self_s:
            stats[f"import.{mod}"] = {"self_s": import_self_s[mod]}
    stats["trace"] = {"overhead_s": overhead_s}
    missing = set(absent) | {f"import.{mod}" for mod in IMPORTED if mod not in import_self_s}
    metrics = {}
    for name, unit, _ in per_layer_spec():
        key, field = name.rsplit(".", 1)
        if _OWNER.get(key, key) in missing:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            value = stats.get(key, {}).get(field, 0)
            metrics[name] = {"value": value, "unit": unit}
    return metrics
