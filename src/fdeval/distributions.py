"""Return-distribution representations and the primitives built on them.

Two carriers are supported: a finite 1-D Gaussian mixture, used by the
population-minimizer suite, and a finite 1-D atomic measure (point masses
on the real line), the return law of exact tabular dynamic programming.
Both are immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class GaussianMixture1D:
    """Mixture of 1-D Gaussians as (weight, mean, variance) triples."""

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        comps = tuple((float(w), float(m), float(v)) for w, m, v in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise InvalidInput("mixture needs at least one component")
        weights = np.array([c[0] for c in comps])
        if not (weights >= 0).all():
            raise InvalidInput("mixture weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= _MASS_TOL:
            raise InvalidInput(f"mixture weights sum to {weights.sum()}, not 1")
        if not all(np.isfinite(c[1]) for c in comps):
            raise InvalidInput("every component mean must be finite")
        if not all(0 < c[2] < np.inf for c in comps):  # NaN included
            raise InvalidInput("every component variance must be positive and finite")

    @property
    def weights(self) -> np.ndarray:
        return np.array([c[0] for c in self.components])

    @property
    def means(self) -> np.ndarray:
        return np.array([c[1] for c in self.components])

    @property
    def variances(self) -> np.ndarray:
        return np.array([c[2] for c in self.components])


@dataclass(frozen=True)
class Atomic:
    """Finite atomic measure on the real line: (n,) locations and (n,) masses."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self._adopt(np.array(self.locations, dtype=float), np.array(self.masses, dtype=float))

    @classmethod
    def _owned(cls, locs: np.ndarray, masses: np.ndarray) -> "Atomic":
        """An Atomic that takes float arrays no caller will write to again,
        without copying them: the public constructor's checks, then both
        arrays are made read-only in place."""
        dist = object.__new__(cls)
        dist._adopt(np.asarray(locs, dtype=float), np.asarray(masses, dtype=float))
        return dist

    def _adopt(self, locs: np.ndarray, masses: np.ndarray) -> None:
        if locs.ndim != 1 or locs.shape != masses.shape:
            raise InvalidInput("locations and masses must be 1-D arrays of equal length")
        if masses.size == 0:
            raise InvalidInput("atomic measure needs at least one atom")
        if not np.isfinite(locs).all():
            raise InvalidInput("atom locations must be finite")
        if not (masses >= 0).all():
            raise InvalidInput("atom masses must be nonnegative")
        if not abs(masses.sum() - 1.0) <= _MASS_TOL:
            raise InvalidInput(f"atom masses sum to {masses.sum()}, not 1")
        locs.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "masses", masses)


def push_forward(dist: Atomic, r: float, gamma: float) -> Atomic:
    """Law of r + gamma * X for X ~ dist."""
    if not 0 <= gamma < 1:
        raise InvalidInput(f"gamma must lie in [0, 1), got {gamma}")
    return Atomic._owned(r + gamma * dist.locations, dist.masses)


def mixture(parts) -> Atomic:
    """Weighted mixture of atomic measures: the atoms are concatenated with
    rescaled masses (coincident atoms are not merged)."""
    parts = list(parts)
    if not parts:
        raise InvalidInput("mixture of zero parts")
    weights = np.array([w for w, _ in parts], dtype=float)
    if not abs(weights.sum() - 1.0) <= _MASS_TOL:
        raise InvalidInput(f"mixture weights sum to {weights.sum()}, not 1")
    if not all(isinstance(d, Atomic) for _, d in parts):
        raise InvalidInput("mixture parts must be atomic measures")
    locs = np.concatenate([d.locations for _, d in parts])
    masses = np.concatenate([w * d.masses for w, d in parts])
    return Atomic._owned(locs, masses)
