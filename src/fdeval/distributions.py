"""Return-distribution representations and the primitives built on them.

Four carriers are supported: a single Gaussian, a finite Gaussian mixture,
a finite atomic measure (point masses in R^d), and a raw empirical sample.
All are immutable values; operations are pure given an explicit RNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special

from .errors import InvalidInput, Unsupported

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class Gaussian1D:
    mean: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise InvalidInput(f"variance must be positive, got {self.variance}")

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


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
        if np.any(weights < 0):
            raise InvalidInput("mixture weights must be nonnegative")
        if abs(weights.sum() - 1.0) > _MASS_TOL:
            raise InvalidInput(f"mixture weights sum to {weights.sum()}, not 1")
        if any(c[2] <= 0 for c in comps):
            raise InvalidInput("every component variance must be positive")

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
    """Finite atomic measure: atoms are (location, mass) with locations in R^d.

    Locations are stored as an (n, d) array, masses as an (n,) array.
    """

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        locs = np.atleast_2d(np.asarray(self.locations, dtype=float))
        masses = np.asarray(self.masses, dtype=float).ravel()
        if locs.shape[0] != masses.shape[0]:
            raise InvalidInput("locations and masses must have equal length")
        if masses.size == 0:
            raise InvalidInput("atomic measure needs at least one atom")
        if np.any(masses < 0):
            raise InvalidInput("atom masses must be nonnegative")
        if abs(masses.sum() - 1.0) > _MASS_TOL:
            raise InvalidInput(f"atom masses sum to {masses.sum()}, not 1")
        locs.setflags(write=False)
        masses.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "masses", masses)

    @property
    def dim(self) -> int:
        return self.locations.shape[1]

    def locations_1d(self) -> np.ndarray:
        if self.dim != 1:
            raise Unsupported("1-D view requested for a multi-dimensional measure")
        return self.locations[:, 0]


@dataclass(frozen=True)
class EmpiricalSample:
    """Unweighted sample of points in R^d, stored as an (n, d) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            raise InvalidInput("empirical sample must be nonempty")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


Distribution = Union[Gaussian1D, GaussianMixture1D, Atomic, EmpiricalSample]


def atomic1d(locations, masses) -> Atomic:
    """Convenience constructor for 1-D atomic measures."""
    locs = np.asarray(locations, dtype=float).reshape(-1, 1)
    return Atomic(locs, np.asarray(masses, dtype=float))


def dist_dim(dist: Distribution) -> int:
    if isinstance(dist, (Gaussian1D, GaussianMixture1D)):
        return 1
    return dist.dim


def dist_mean(dist: Distribution):
    """Analytic mean (scalar for 1-D carriers, vector otherwise)."""
    if isinstance(dist, Gaussian1D):
        return dist.mean
    if isinstance(dist, GaussianMixture1D):
        return float(np.dot(dist.weights, dist.means))
    if isinstance(dist, Atomic):
        mean = dist.masses @ dist.locations
        return float(mean[0]) if dist.dim == 1 else mean
    mean = dist.points.mean(axis=0)
    return float(mean[0]) if dist.dim == 1 else mean


def push_forward(dist: Distribution, r, gamma: float) -> Distribution:
    """Law of r + gamma * X for X ~ dist, in the same representation."""
    if not 0 <= gamma < 1:
        raise InvalidInput(f"gamma must lie in [0, 1), got {gamma}")
    if isinstance(dist, Gaussian1D):
        r = _as_scalar(r)
        return Gaussian1D(r + gamma * dist.mean, gamma**2 * dist.variance)
    if isinstance(dist, GaussianMixture1D):
        r = _as_scalar(r)
        return GaussianMixture1D(
            tuple((w, r + gamma * m, gamma**2 * v) for w, m, v in dist.components)
        )
    if isinstance(dist, Atomic):
        shift = _as_vector(r, dist.dim)
        return Atomic(shift + gamma * dist.locations, dist.masses)
    shift = _as_vector(r, dist.dim)
    return EmpiricalSample(shift + gamma * dist.points)


def mixture(parts) -> Distribution:
    """Weighted mixture of same-family distributions.

    Gaussians become a GaussianMixture1D; mixtures flatten; atomic inputs
    concatenate atoms with rescaled masses (no merging of coincident atoms).
    """
    parts = list(parts)
    if not parts:
        raise InvalidInput("mixture of zero parts")
    weights = np.array([w for w, _ in parts], dtype=float)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise InvalidInput(f"mixture weights sum to {weights.sum()}, not 1")
    dists = [d for _, d in parts]
    if all(isinstance(d, (Gaussian1D, GaussianMixture1D)) for d in dists):
        comps = []
        for w, d in parts:
            if isinstance(d, Gaussian1D):
                comps.append((w, d.mean, d.variance))
            else:
                comps.extend((w * cw, m, v) for cw, m, v in d.components)
        return GaussianMixture1D(tuple(comps))
    if all(isinstance(d, Atomic) for d in dists):
        dims = {d.dim for d in dists}
        if len(dims) != 1:
            raise InvalidInput("atomic mixture parts must share dimension")
        locs = np.vstack([d.locations for d in dists])
        masses = np.concatenate([w * d.masses for w, d in parts])
        return Atomic(locs, masses)
    raise InvalidInput("mixture parts must share a representation family")


def quantile_fn(dist: Distribution, u: float) -> float:
    """Generalized inverse CDF: inf{z : F(z) >= u} for 1-D distributions."""
    if not 0 < u < 1:
        raise InvalidInput(f"u must lie in (0, 1), got {u}")
    if dist_dim(dist) != 1:
        raise Unsupported("quantile function is restricted to 1-D distributions")
    if isinstance(dist, Gaussian1D):
        return dist.mean + dist.std * float(special.ndtri(u))
    if isinstance(dist, GaussianMixture1D):
        return _gmm_quantile(dist, u)
    if isinstance(dist, Atomic):
        locs = dist.locations_1d()
        order = np.argsort(locs, kind="stable")
        cum = np.cumsum(dist.masses[order])
        idx = int(np.searchsorted(cum, u - _MASS_TOL))
        idx = min(idx, locs.size - 1)
        return float(locs[order][idx])
    pts = np.sort(dist.points[:, 0])
    idx = min(int(np.ceil(u * pts.size)) - 1, pts.size - 1)
    return float(pts[max(idx, 0)])


def _gmm_cdf(dist: GaussianMixture1D, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    stds = np.sqrt(dist.variances)
    return special.ndtr((z[..., None] - dist.means) / stds) @ dist.weights


def _gmm_quantile(dist: GaussianMixture1D, u: float) -> float:
    # Bisection on the mixture CDF; bracket covers all component bulk.
    smax = float(np.sqrt(dist.variances.max()))
    lo = float(dist.means.min()) - 12.0 * smax
    hi = float(dist.means.max()) + 12.0 * smax
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _gmm_cdf(dist, np.array(mid)) >= u:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-10:
            break
    return 0.5 * (lo + hi)


def sample(dist: Distribution, n: int, rng: np.random.Generator) -> EmpiricalSample:
    """n i.i.d. draws from dist; deterministic given the generator state."""
    if n < 1:
        raise InvalidInput(f"sample size must be >= 1, got {n}")
    if isinstance(dist, Gaussian1D):
        pts = rng.normal(dist.mean, dist.std, size=n)[:, None]
    elif isinstance(dist, GaussianMixture1D):
        idx = rng.choice(len(dist.components), size=n, p=dist.weights)
        pts = rng.normal(dist.means[idx], np.sqrt(dist.variances[idx]))[:, None]
    elif isinstance(dist, Atomic):
        idx = rng.choice(dist.masses.size, size=n, p=dist.masses)
        pts = dist.locations[idx]
    else:
        idx = rng.integers(0, len(dist), size=n)
        pts = dist.points[idx]
    return EmpiricalSample(pts)


def _as_scalar(r) -> float:
    arr = np.asarray(r, dtype=float).ravel()
    if arr.size != 1:
        raise InvalidInput(f"expected scalar shift, got shape {arr.shape}")
    return float(arr[0])


def _as_vector(r, d: int) -> np.ndarray:
    arr = np.asarray(r, dtype=float).ravel()
    if arr.size == 1 and d == 1:
        return arr
    if arr.size != d:
        raise InvalidInput(f"shift dimension {arr.size} does not match {d}")
    return arr
