"""Experiment runner: seeded sweeps over (method, n, rep) cells.

Datasets are derived from (master_seed, rep, n) only, so every method in a
sweep sees identical data for a given cell and adding a method never shifts
another method's randomness.  Failures become NaN rows, not crashes.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .bellman import Policy, _check_counts, _is_real, fit_folds, solve_return_fixed_point
from .bellman import compact_atoms  # noqa: F401  unused here; perfbench's trace test reads it
from .divergences import FDE_METHODS, DivergenceSpec
from .envs import (
    LQREnv,
    estimate_dpi_lqr,
    estimate_dpi_tabular,
    lqr_collect,
    lqr_true_params,
    tabular_collect,
    tabular_make_random,
)
from .errors import FdevalError, InvalidInput
from .evaluation import InaccuracyReport, lqr_inaccuracy, tabular_inaccuracy
from .fde import choose_t, fde_run, fle_run, split_dataset

LQR_METHODS = FDE_METHODS + ("fle",)

CSV_HEADER = [
    "method", "n", "rep", "seed", "T", "inaccuracy", "runtime_ms", "failed", "not_converged"
]

# purpose tags of the seed-derivation scheme
_TAG_DATA = 0
_TAG_DPI = 1
_TAG_METHOD = 2
_TAG_INSTANCE = 3

# how each experiment weighs its pairs by the target policy's occupancy
_DPI_SCHEMES = {
    "lqr": "geometric-horizon occupancy sample, refreshed per replication",
    "tabular": "exact discounted occupancy, one linear solve per cell",
}


def _listed(parse):
    return lambda text: tuple(parse(v.strip()) for v in text.split(",") if v.strip())


class Setting(NamedTuple):
    """Where one ExperimentConfig field comes from: ``key`` under ``[section]``
    in a config file, and the ``--key`` flag when ``flag`` (its help) is set.
    A setting that one experiment ``reader`` alone reads is ``None`` until
    set; the reader fills in ``default`` and the other experiment rejects it."""

    section: str
    key: str
    parse: Callable[[str], object]
    flag: Optional[str] = None
    reader: Optional[str] = None
    default: object = None


SETTINGS = {
    "experiment": Setting("experiment", "kind", str),
    "master_seed": Setting("experiment", "seed", int, "master seed"),
    "output_path": Setting("experiment", "out", str, "CSV output path"),
    "reps": Setting("experiment", "reps", int, "replications per (method, n)"),
    "n_list": Setting("experiment", "n", _listed(int), "comma-separated sample sizes"),
    "methods": Setting("experiment", "methods", _listed(str), "comma-separated method names"),
    "workers": Setting("experiment", "workers", int, "parallel worker cap"),
    "dpi_points": Setting("experiment", "dpi_points", int, reader="lqr", default=1000),
    "c_divide": Setting("t_selection", "c_divide", float),
    "sigma_rbf": Setting("divergence", "sigma_rbf", float, reader="lqr", default=1.0),
    "sigma_lap": Setting("divergence", "sigma_lap", float, reader="lqr", default=1.0),
    "b_samples": Setting("divergence", "b", int, reader="lqr", default=1),
    "tabular_states": Setting("tabular", "states", int, "states of each random MDP", "tabular", 4),
    "tabular_actions": Setting("tabular", "actions", int, "actions per state", "tabular", 2),
    "tabular_gamma": Setting("tabular", "gamma", float, "discount factor in (0, 1)", "tabular", 0.9),
}


def parse_setting(parse: Callable[[str], object], text: str, where: str):
    """``parse(text)``; a value that does not parse is InvalidInput naming ``where``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise InvalidInput(f"{where}: cannot parse {text!r}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Full sweep description; flag and file values funnel into this."""

    experiment: str = "lqr"
    methods: tuple = LQR_METHODS
    n_list: tuple = (300, 1000)
    reps: int = 50
    master_seed: int = 0
    sigma_rbf: Optional[float] = None
    sigma_lap: Optional[float] = None
    b_samples: Optional[int] = None
    c_divide: float = 5.0
    workers: int = 1
    output_path: str = "results.csv"
    dpi_points: Optional[int] = None
    tabular_states: Optional[int] = None
    tabular_actions: Optional[int] = None
    tabular_gamma: Optional[float] = None

    def __post_init__(self):
        if self.experiment not in ("lqr", "tabular"):
            raise InvalidInput(f"unknown experiment {self.experiment!r}")
        unread = []
        for name, setting in SETTINGS.items():
            if setting.reader == self.experiment and getattr(self, name) is None:
                object.__setattr__(self, name, setting.default)
            elif setting.reader not in (None, self.experiment) and getattr(self, name) is not None:
                unread.append(name)
        if unread:
            raise InvalidInput(f"the {self.experiment} experiment never reads {unread}")
        if not self.n_list:
            raise InvalidInput("n_list must be nonempty")
        counts = ("reps", "workers", "dpi_points", "b_samples", "tabular_states", "tabular_actions")
        _check_counts(**{k: getattr(self, k) for k in counts if getattr(self, k) is not None})
        _check_counts(0, master_seed=self.master_seed)
        for n in self.n_list:
            _check_counts(n=n)
        unknown = set(self.methods) - set(LQR_METHODS)
        if not self.methods or unknown:
            raise InvalidInput(f"unknown methods: {sorted(unknown)}")
        for name in ("methods", "n_list"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise InvalidInput(f"{name} repeats an entry: {values}")
        # each float setting is a real number in its range, NaN excluded
        for name, text, holds in (
            ("c_divide", "> 0", lambda v: v > 0),
            ("sigma_rbf", "finite and > 0", lambda v: 0 < v < math.inf),
            ("sigma_lap", "finite and > 0", lambda v: 0 < v < math.inf),
            ("tabular_gamma", "in (0, 1)", lambda v: 0 < v < 1),
        ):
            value = getattr(self, name)
            unread = value is None and SETTINGS[name].reader is not None
            if not unread and (isinstance(value, bool) or not _is_real(value) or not holds(value)):
                raise InvalidInput(f"{name} must be a real number {text}, got {value!r}")


def _cell_seed(config: ExperimentConfig, rep: int, n: int, *tags) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=(config.master_seed, rep, n) + tags)


def _data_seed_int(config: ExperimentConfig, rep: int, n: int) -> int:
    return int(_cell_seed(config, rep, n, _TAG_DATA).generate_state(1)[0])


def _lqr_cell(config: ExperimentConfig, method: str, n: int, rep: int, t_count: int):
    """The cell's inaccuracy and its count of folds whose optimizer exit failed."""
    env = LQREnv.default()
    data = lqr_collect(env, n, np.random.default_rng(_cell_seed(config, rep, n, _TAG_DATA)))
    dpi_states, dpi_actions = estimate_dpi_lqr(
        env, config.dpi_points, np.random.default_rng(_cell_seed(config, rep, n, _TAG_DPI))
    )
    theta_star = lqr_true_params(env)
    if method == "fle":
        method_rng = np.random.default_rng(
            _cell_seed(config, rep, n, _TAG_METHOD, LQR_METHODS.index(method))
        )
        theta, trace = fle_run(data, env, t_count, method_rng, mc_samples=config.b_samples)
    else:
        sigma = {"rbf": config.sigma_rbf, "laplace": config.sigma_lap}.get(method)
        theta, trace = fde_run(data, env, DivergenceSpec(method, sigma), t_count)
    inaccuracy = lqr_inaccuracy(theta, theta_star, dpi_states, dpi_actions)
    return inaccuracy, len(trace.not_converged_folds)


def _tabular_cell(config: ExperimentConfig, method: str, n: int, rep: int, t_count: int):
    """The cell's inaccuracy, and 0: the nonparametric fit runs no optimizer."""
    inst_rng = np.random.default_rng(_cell_seed(config, rep, n, _TAG_INSTANCE))
    mdp = tabular_make_random(
        config.tabular_states, config.tabular_actions, 2, inst_rng, gamma=config.tabular_gamma
    )
    behavior = Policy.uniform(mdp.n_states, mdp.n_actions)
    pi = Policy.uniform(mdp.n_states, mdp.n_actions)
    data = tabular_collect(mdp, behavior, n, np.random.default_rng(_cell_seed(config, rep, n, _TAG_DATA)))
    table = fit_folds(split_dataset(data, t_count), mdp, pi)
    truth = solve_return_fixed_point(mdp, pi)
    return tabular_inaccuracy(table, truth, estimate_dpi_tabular(mdp, behavior, pi)), 0


def _run_cell(args):
    """One cell's report.  T is chosen here, once per cell, and runtime_ms is
    the wall time of the whole cell: collection, d_pi, truth, fit and score.
    Any toolkit error, a non-finite score included, becomes a failed NaN row,
    so one bad cell never aborts the sweep."""
    config, method, n, rep = args
    lqr = config.experiment == "lqr"
    start = time.perf_counter()
    t_count = choose_t(n, LQREnv.default().gamma if lqr else config.tabular_gamma, config.c_divide)
    row = (method, n, rep, _data_seed_int(config, rep, n), t_count)
    try:
        inaccuracy, not_converged = (_lqr_cell if lqr else _tabular_cell)(
            config, method, n, rep, t_count
        )
        runtime_ms = 1000.0 * (time.perf_counter() - start)
        return InaccuracyReport(*row, inaccuracy, runtime_ms, not_converged=not_converged)
    except FdevalError:
        return InaccuracyReport(*row, math.nan, 1000.0 * (time.perf_counter() - start), True)


def run_experiment(config: ExperimentConfig) -> list:
    """Execute the sweep; reports come back in canonical sorted order."""
    cells = [
        (config, method, n, rep)
        for method in config.methods
        for n in config.n_list
        for rep in range(config.reps)
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            reports = list(pool.map(_run_cell, cells, chunksize=1))
    else:
        reports = [_run_cell(cell) for cell in cells]
    reports.sort(key=lambda r: (r.method, r.n, r.rep))
    return reports


def write_reports(reports, config: ExperimentConfig) -> str:
    """Write the CSV plus a JSON metadata sidecar to the configured output
    path; returns that path.  A write that fails is InvalidInput."""
    path = config.output_path
    meta = {"version": __version__, "config": asdict(config), "dpi_scheme": _DPI_SCHEMES[config.experiment]}
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in reports:
                writer.writerow(
                    [r.method, r.n, r.rep, r.seed, r.t_used,
                     "nan" if r.failed else repr(r.inaccuracy),
                     f"{r.runtime_ms:.3f}", int(r.failed), r.not_converged]
                )
        with open(path + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
    except OSError as exc:
        raise InvalidInput(f"cannot write the reports: {exc}") from exc
    return path


def load_config_file(path: str) -> dict:
    """Read a key = value config file into override kwargs for ExperimentConfig.

    Its keys are those of SETTINGS; a section or key that nothing reads is
    rejected, a key under ``[DEFAULT]`` included, and so is a file that does
    not parse.  Values are literal: a ``%`` is no interpolation.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise InvalidInput(f"config file {path!r}: {exc}") from exc
    if not found:
        raise InvalidInput(f"cannot read config file {path!r}")
    if parser.defaults():  # configparser would copy them into every section
        raise InvalidInput(
            f"config file {path!r}: keys under [{parser.default_section}] are not read: "
            f"{sorted(parser.defaults())}"
        )
    keys = {(s.section, s.key): (name, s.parse) for name, s in SETTINGS.items()}
    out = {}
    for section in parser.sections():
        if section not in {sec for sec, _ in keys}:
            raise InvalidInput(f"unknown config file section [{section}]")
        for key, text in parser[section].items():
            if (section, key) not in keys:
                raise InvalidInput(f"unknown config file key [{section}] {key}")
            name, parse = keys[section, key]
            out[name] = parse_setting(parse, text, f"[{section}] {key}")
    return out


def build_config(file_path: Optional[str] = None, **flag_overrides) -> ExperimentConfig:
    """Defaults, then config file, then command-line flags (flags win)."""
    kwargs = {}
    if file_path is not None:
        kwargs.update(load_config_file(file_path))
    kwargs.update({k: v for k, v in flag_overrides.items() if v is not None})
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise InvalidInput(str(exc)) from exc
