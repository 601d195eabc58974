"""Probability metrics, their table extensions, and contraction constants.

A metric eta on single distributions is lifted to tables U: (s, a) -> dist
either as a supremum over the index set or as a weighted 2q-power mean.
The scale/location/convexity (S-L-C) constants per metric determine the
contraction factor of the distributional Bellman operator under the lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import Atomic, mixture, push_forward
from .divergences import energy_mmd2_atomic
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
        if self.kind == "wasserstein" and not self.p >= 1:  # NaN included
            raise InvalidInput("wasserstein order must be >= 1")
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

    def evaluate(self, p_dist: Atomic, q_dist: Atomic) -> float:
        if self.kind == "wasserstein":
            return wasserstein_1d(self.p, p_dist, q_dist)
        val = energy_mmd2_atomic(p_dist, q_dist)
        if self.kind == "cramer":  # 1-D identity: squared Cramer is half the energy MMD^2
            val = 0.5 * val
        return float(np.sqrt(max(val, 0.0)))


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
        if not self.q >= 1:  # NaN included
            raise InvalidInput("extension order must be >= 1")
        if self.weights is not None:
            if any(not w >= 0 for w in self.weights.values()):  # NaN included
                raise InvalidInput("extension weights must be >= 0")
            total = sum(self.weights.values())
            if abs(total - 1.0) > 1e-9:
                raise InvalidInput(f"extension weights sum to {total}, not 1")


def _atomic_quantile_segments(p: Atomic, q: Atomic):
    """Merged CDF breakpoints of two 1-D atomic measures.

    Returns (widths, qp, qq): probability-segment widths and the constant
    quantile values of each measure on those segments.
    """
    zp, mp = _sorted_atoms(p)
    zq, mq = _sorted_atoms(q)
    cp = np.cumsum(mp)
    cq = np.cumsum(mq)
    cuts = np.unique(np.concatenate([cp, cq, [0.0]]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    if cuts[-1] < 1.0:
        cuts = np.append(cuts, 1.0)
    widths = np.diff(cuts)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    qp = zp[np.minimum(np.searchsorted(cp, mids), zp.size - 1)]
    qq = zq[np.minimum(np.searchsorted(cq, mids), zq.size - 1)]
    keep = widths > 0
    return widths[keep], qp[keep], qq[keep]


def _sorted_atoms(a: Atomic):
    locs = a.locations
    order = np.argsort(locs, kind="stable")
    return locs[order], a.masses[order]


def wasserstein_1d(p: float, dist1: Atomic, dist2: Atomic) -> float:
    """Wasserstein-p distance between two atomic measures, by the exact
    quantile coupling over their merged CDF breakpoints."""
    if not p >= 1:  # NaN included
        raise InvalidInput("wasserstein order must be >= 1")
    widths, qp, qq = _atomic_quantile_segments(dist1, dist2)
    return float(np.sum(widths * np.abs(qp - qq) ** p) ** (1.0 / p))


def metric_extension(metric: MetricSpec, ext: ExtensionSpec, table1: dict, table2: dict) -> float:
    """Extended distance between two distribution tables with a shared index set."""
    if set(table1) != set(table2):
        raise InvalidInput("tables must share the same index set")
    keys = sorted(table1)
    vals = np.array([metric.evaluate(table1[k], table2[k]) for k in keys])
    if ext.mode == "supremum":
        return float(vals.max())
    if ext.weights is None:
        w = np.full(len(keys), 1.0 / len(keys))
    else:
        if set(ext.weights) != set(keys):
            raise InvalidInput("extension weights must cover the table index set")
        w = np.array([ext.weights[k] for k in keys])
    power = 2.0 * ext.q
    return float(np.sum(w * vals**power) ** (1.0 / power))


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
    A pass means no counterexample was found, not a proof.
    """
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    c = metric.c if c_override is None else c_override
    q = metric.q
    violations = []
    for trial in range(trials):
        x = _random_atomic(rng)
        y = _random_atomic(rng)
        base = metric.evaluate(x, y)
        gamma = rng.uniform(0.05, 0.95)
        scaled = metric.evaluate(_scale(x, gamma), _scale(y, gamma))
        if scaled > gamma**c * base + _SLC_TOL:
            violations.append(
                {"trial": trial, "property": "scale", "lhs": scaled, "rhs": gamma**c * base}
            )
        z = rng.normal(0.0, 3.0)
        shifted = metric.evaluate(_shift(x, z), _shift(y, z))
        if shifted > base + _SLC_TOL:
            violations.append(
                {"trial": trial, "property": "location", "lhs": shifted, "rhs": base}
            )
        # q-convexity of the 2q-th power over a random two-part mixture
        x2 = _random_atomic(rng)
        y2 = _random_atomic(rng)
        lam = rng.uniform(0.05, 0.95)
        mixed1 = mixture([(lam, x), (1.0 - lam, x2)])
        mixed2 = mixture([(lam, y), (1.0 - lam, y2)])
        lhs = metric.evaluate(mixed1, mixed2) ** (2.0 * q)
        rhs = lam * base ** (2.0 * q) + (1.0 - lam) * metric.evaluate(x2, y2) ** (2.0 * q)
        if lhs > rhs + _SLC_TOL:
            violations.append(
                {"trial": trial, "property": "convexity", "lhs": lhs, "rhs": rhs}
            )
    return {"violations": violations, "trials": trials}


def _random_atomic(rng: np.random.Generator, max_atoms: int = 5) -> Atomic:
    n = int(rng.integers(1, max_atoms + 1))
    locs = rng.normal(0.0, 2.0, size=n)
    masses = rng.dirichlet(np.ones(n))
    return Atomic(locs, masses)


def _scale(a: Atomic, gamma: float) -> Atomic:
    return push_forward(a, 0.0, gamma)


def _shift(a: Atomic, z: float) -> Atomic:
    return Atomic(a.locations + z, a.masses)
