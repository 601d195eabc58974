"""Probability metrics, their table extensions, and contraction constants.

A metric eta on single distributions is lifted to tables U: (s, a) -> dist
either as a supremum over the index set or as a weighted 2q-power mean.
The scale/location/convexity (S-L-C) constants per metric determine the
contraction factor of the distributional Bellman operator under the lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bellman import _check_counts
from .distributions import Atomic
from .divergences import energy_mmd2_rows
from .errors import InvalidInput

_SLC_TOL = 1e-9  # slack for floating-point rounding in the S-L-C inequalities


@dataclass(frozen=True)
class MetricSpec:
    """Base-metric selector with its scale-sensitivity and convexity constants.

    kind: "wasserstein" (p >= 1), "energy" (the energy MMD) or "cramer";
    only Wasserstein takes an order p.
    The (c, q) pair is derived from the kind, as the survey constants:
    Wasserstein-p has c = 1, q = p; energy MMD has c = 1/2, q = 1; Cramer
    has c = 1/2, q = 2.
    """

    kind: str
    p: float = 1.0
    c: float = field(init=False)
    q: float = field(init=False)

    def __post_init__(self):
        if self.kind not in ("wasserstein", "energy", "cramer"):
            raise InvalidInput(f"unknown metric kind {self.kind!r}")
        if self.kind == "wasserstein" and not 1 <= self.p < math.inf:  # NaN included
            raise InvalidInput(f"wasserstein order must be finite and >= 1, got {self.p}")
        if self.kind != "wasserstein" and self.p != 1.0:
            raise InvalidInput(f"{self.kind} has no order, got p={self.p}")
        if self.kind == "wasserstein":
            c, q = 1.0, self.p
        elif self.kind == "energy":
            c, q = 0.5, 1.0
        else:
            c, q = 0.5, 2.0
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "q", q)

    def evaluate_rows(self, rows1, rows2) -> np.ndarray:
        """The metric between the measures of each row of two padded
        (locations, masses) batches."""
        if self.kind == "wasserstein":
            return wasserstein_rows(self.p, rows1, rows2)
        val = energy_mmd2_rows(rows1, rows2)
        if self.kind == "cramer":  # 1-D identity: squared Cramer is half the energy MMD^2
            val = 0.5 * val
        return np.sqrt(np.maximum(val, 0.0))

    def evaluate(self, p_dist: Atomic, q_dist: Atomic) -> float:
        return float(self.evaluate_rows(_row(p_dist), _row(q_dist))[0])


@dataclass(frozen=True)
class ExtensionSpec:
    """Table extension: "supremum", or "expectation" with order q and weights;
    the supremum takes neither."""

    mode: str
    q: float = 1.0
    weights: Optional[dict] = None

    def __post_init__(self):
        if self.mode not in ("supremum", "expectation"):
            raise InvalidInput(f"unknown extension mode {self.mode!r}")
        if self.mode == "supremum" and (self.q != 1.0 or self.weights is not None):
            raise InvalidInput("the supremum extension takes no order q and no weights")
        if not 1 <= self.q < math.inf:  # NaN included
            raise InvalidInput(f"extension order must be finite and >= 1, got {self.q}")
        if self.weights is not None:
            if any(not w >= 0 for w in self.weights.values()):  # NaN included
                raise InvalidInput("extension weights must be >= 0")
            total = sum(self.weights.values())
            if abs(total - 1.0) > 1e-9:
                raise InvalidInput(f"extension weights sum to {total}, not 1")


def _padded(atoms) -> tuple[np.ndarray, np.ndarray]:
    """(locations, masses) pairs as padded (rows, width) location and mass
    arrays; each pad atom repeats its row's largest location at mass 0."""
    sizes = np.array([m.size for _, m in atoms])
    real = np.arange(sizes.max()) < sizes[:, None]
    locs = np.zeros(real.shape)
    masses = np.zeros(real.shape)
    locs[real] = np.concatenate([x for x, _ in atoms])
    masses[real] = np.concatenate([m for _, m in atoms])
    top = np.where(real, locs, -np.inf).max(axis=1, keepdims=True)
    return np.where(real, locs, top), masses


def _row(dist: Atomic) -> tuple[np.ndarray, np.ndarray]:
    return dist.locations[None, :], dist.masses[None, :]


def wasserstein_rows(p, rows1, rows2) -> np.ndarray:
    """Wasserstein-p distance between the measures of each row of two padded
    (locations, masses) batches, by the quantile coupling; p is one order or
    one per row.

    The cuts are both CDFs and 1, sorted and clipped to 1; on the segment
    (cuts[j - 1], cuts[j]] each measure's quantile is its first atom whose
    CDF reaches cuts[j], found as the count of that side's CDF values sorted
    before the cut, clamped to the last atom.  Zero-width segments add
    nothing.  Pad atoms carry mass 0 and lie no further right than their
    row's largest location, so the clamp lands on that location.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((1 <= p) & (p < math.inf)):  # NaN included
        raise InvalidInput(f"wasserstein order must be finite and >= 1, got {p}")
    (locs1, masses1), (locs2, masses2) = rows1, rows2
    n_rows, w1 = locs1.shape
    w2 = locs2.shape[1]
    row = np.arange(n_rows)[:, None]
    by_loc1 = np.argsort(locs1, axis=1, kind="stable")
    by_loc2 = np.argsort(locs2, axis=1, kind="stable")
    cuts = np.concatenate([
        np.cumsum(masses1[row, by_loc1], axis=1),
        np.cumsum(masses2[row, by_loc2], axis=1),
        np.ones((n_rows, 1)),
    ], axis=1)
    order = np.argsort(cuts, axis=1, kind="stable")
    cuts = np.minimum(cuts[row, order], 1.0)
    widths = cuts.copy()
    widths[:, 1:] -= cuts[:, :-1]
    # A segment of positive width opens at the first of equal cuts, so the
    # CDF values sorted before it are those below it: searchsorted's count
    # over all but the last CDF value, which clamps a cut past it to the
    # last atom.  The final 1 sorts before zero-width segments only, so the
    # other entries before a segment are the second CDF's.
    first = order < w1
    before1 = np.cumsum(first, axis=1) - first
    before2 = np.arange(order.shape[1]) - before1
    gaps = np.abs(
        locs1[row, by_loc1[row, np.minimum(before1, w1 - 1)]]
        - locs2[row, by_loc2[row, np.minimum(before2, w2 - 1)]]
    )
    cost = np.zeros_like(gaps)
    # zero-width segments get no power, so 0 * inf cannot give NaN
    np.power(gaps, p[:, None] if p.ndim else p, out=cost, where=widths > 0)
    return np.einsum("ij,ij->i", widths, cost) ** (1.0 / p)


def wasserstein_1d(p: float, dist1: Atomic, dist2: Atomic) -> float:
    """Wasserstein-p distance between two atomic measures: the one-row case
    of wasserstein_rows."""
    return float(wasserstein_rows(p, _row(dist1), _row(dist2))[0])


def _extend(ext: ExtensionSpec, vals: np.ndarray, weights) -> np.ndarray:
    """The extension of per-pair distances along the last axis of vals."""
    if ext.mode == "supremum":
        return vals.max(axis=-1)
    power = 2.0 * ext.q
    return np.sum(weights * vals**power, axis=-1) ** (1.0 / power)


def metric_extension(metric: MetricSpec, ext: ExtensionSpec, table1: dict, table2: dict) -> float:
    """Extended distance between two distribution tables with a shared index
    set, every pair in one rows evaluation."""
    if set(table1) != set(table2):
        raise InvalidInput("tables must share the same index set")
    if not table1:
        raise InvalidInput("tables must share a nonempty index set")
    keys = sorted(table1)
    w = None
    if ext.mode == "expectation":
        if ext.weights is None:
            w = np.full(len(keys), 1.0 / len(keys))
        elif set(ext.weights) != set(keys):
            raise InvalidInput("extension weights must cover the table index set")
        else:
            w = np.array([ext.weights[k] for k in keys])
    vals = metric.evaluate_rows(*(
        _padded([(t[k].locations, t[k].masses) for k in keys]) for t in (table1, table2)
    ))
    return float(_extend(ext, vals, w))


def contraction_factor(metric: MetricSpec, ext: ExtensionSpec, gamma: float) -> float:
    """Bellman contraction factor: gamma^c (supremum) or gamma^(c - 1/2q)."""
    if not 0 < gamma < 1:
        raise InvalidInput("gamma must lie in (0, 1)")
    if ext.mode == "supremum":
        return gamma**metric.c
    exponent = metric.c - 1.0 / (2.0 * ext.q)
    if exponent <= 0:
        raise InvalidInput(
            f"no contraction guarantee: c={metric.c} <= 1/(2q)={1.0 / (2.0 * ext.q)}"
        )
    return gamma**exponent


def slc_property_check(
    metric: MetricSpec,
    trials: int,
    rng: np.random.Generator,
    c_override: Optional[float] = None,
) -> dict:
    """Randomized check of scale-sensitivity, location-insensitivity, q-convexity.

    Runs on random atomic pairs; returns {"violations": [...], "trials": n}.
    A pass means no counterexample was found, not a proof.  Every trial's
    draws come first, then each check is one rows evaluation over all trials.
    """
    _check_counts(trials=trials)
    c = metric.c if c_override is None else c_override
    power = 2.0 * metric.q
    draws = []
    for _ in range(trials):
        x, y = _random_atoms(rng), _random_atoms(rng)
        gamma, z = rng.uniform(0.05, 0.95), rng.normal(0.0, 3.0)
        x2, y2 = _random_atoms(rng), _random_atoms(rng)
        draws.append((x, y, gamma, z, x2, y2, rng.uniform(0.05, 0.95)))
    x, y, gamma, z, x2, y2, lam = zip(*draws)
    x, y, x2, y2 = map(_padded, (x, y, x2, y2))
    gamma, z, lam = np.array(gamma), np.array(z), np.array(lam)

    def mixed(a, b):  # mixture([(lam, a), (1 - lam, b)]) of each row
        return np.hstack([a[0], b[0]]), np.hstack([lam[:, None] * a[1], (1.0 - lam[:, None]) * b[1]])

    base = metric.evaluate_rows(x, y)
    scaled = metric.evaluate_rows((gamma[:, None] * x[0], x[1]), (gamma[:, None] * y[0], y[1]))
    shifted = metric.evaluate_rows((x[0] + z[:, None], x[1]), (y[0] + z[:, None], y[1]))
    # q-convexity of the 2q-th power over a random two-part mixture
    mix = metric.evaluate_rows(mixed(x, x2), mixed(y, y2)) ** power
    parts = lam * base**power + (1.0 - lam) * metric.evaluate_rows(x2, y2) ** power
    checks = (
        ("scale", scaled, gamma**c * base),
        ("location", shifted, base),
        ("convexity", mix, parts),
    )
    failed = np.stack([lhs > rhs + _SLC_TOL for _, lhs, rhs in checks], axis=1)
    violations = [
        {"trial": int(trial), "property": checks[k][0],
         "lhs": float(checks[k][1][trial]), "rhs": float(checks[k][2][trial])}
        for trial, k in zip(*np.nonzero(failed))
    ]
    return {"violations": violations, "trials": trials}


def _random_atoms(rng: np.random.Generator, max_atoms: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """Locations and masses of a random atomic measure of 1 to max_atoms atoms."""
    n = int(rng.integers(1, max_atoms + 1))
    locs = rng.normal(0.0, 2.0, size=n)
    masses = rng.dirichlet(np.ones(n))
    return locs, masses
