"""Bregman-type divergences between return distributions.

Closed forms for Gaussian and Gaussian-mixture pairs, plus the exact energy
MMD between atomic measures.  The argument convention follows the objective:
``divergence(spec, model, target)`` where the KL kind evaluates
KL(target || model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from .distributions import Atomic, GaussianMixture1D
from .errors import InvalidInput

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


FDE_METHODS = ("cramer", "energy", "rbf", "laplace", "pdf_l2", "kl")

# The kernel kinds and the weight on their squared MMD; 1-D identity: squared
# Cramer is half of the squared energy MMD, so cramer uses the energy kernel.
_MMD_WEIGHT = {"cramer": 0.5, "energy": 1.0, "rbf": 1.0, "laplace": 1.0}


@dataclass(frozen=True)
class DivergenceSpec:
    """Divergence selector: ``kind`` is an FDE method label.

    ``sigma`` is the bandwidth of rbf and laplace (default 1, must be > 0);
    every other kind rejects one.
    """

    kind: str
    sigma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FDE_METHODS:
            raise InvalidInput(f"unknown divergence kind {self.kind!r}")
        if self.kind not in ("rbf", "laplace"):
            if self.sigma is not None:
                raise InvalidInput(f"{self.kind} has no bandwidth, got sigma={self.sigma}")
        elif self.sigma is None:
            object.__setattr__(self, "sigma", 1.0)
        elif not self.sigma > 0:  # NaN included
            raise InvalidInput(f"kernel bandwidth must be positive, got {self.sigma}")


def _laplace_terms(mu, var, sd, s):
    """The two terms of E exp(-|Z| / s), assembled in the log domain: the exp
    prefactor overflows for var >> s^2."""
    a = var / (2.0 * s**2)
    t1 = np.exp(a - mu / s + special.log_ndtr(mu / sd - sd / s))
    t2 = np.exp(a + mu / s + special.log_ndtr(-mu / sd - sd / s))
    return t1, t2


def gaussian_k0(spec: DivergenceSpec, mu: float, var: float):
    """E k0(Z) for Z ~ N(mu, var), for the kernel of a kernel kind.

    Vectorized over mu/var; energy (and cramer) use k0(y) = -|y|, rbf uses
    exp(-y^2 / 4 sigma^2), laplace uses exp(-|y| / sigma).
    """
    if spec.kind not in _MMD_WEIGHT:
        raise InvalidInput(f"{spec.kind} is not a kernel divergence")
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    if np.any(var <= 0):
        raise InvalidInput("variance must be positive")
    sd = np.sqrt(var)
    if spec.kind in ("cramer", "energy"):
        # -E|Z| (mean of a folded normal)
        absmu = np.abs(mu)
        return -(
            sd * _SQRT_2_OVER_PI * np.exp(-(mu**2) / (2.0 * var))
            + absmu * (1.0 - 2.0 * special.ndtr(-absmu / sd))
        )
    if spec.kind == "rbf":
        s2 = spec.sigma**2
        return np.exp(-(mu**2) / (4.0 * s2 + 2.0 * var)) / np.sqrt(1.0 + var / (2.0 * s2))
    t1, t2 = _laplace_terms(mu, var, sd, spec.sigma)
    return t1 + t2


def gaussian_k0_dmu(spec: DivergenceSpec, mu, var):
    """d/dmu of gaussian_k0, used by analytic objective gradients."""
    if spec.kind not in _MMD_WEIGHT:
        raise InvalidInput(f"{spec.kind} is not a kernel divergence")
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    sd = np.sqrt(var)
    if spec.kind in ("cramer", "energy"):
        # d(-E|Z|)/dmu = -E sign(Z) = 2*Phi(-mu/sd) - 1
        return 2.0 * special.ndtr(-mu / sd) - 1.0
    if spec.kind == "rbf":
        s2 = spec.sigma**2
        return gaussian_k0(spec, mu, var) * (-2.0 * mu / (4.0 * s2 + 2.0 * var))
    # laplace: the two Gaussian-density terms of the product rule cancel exactly
    t1, t2 = _laplace_terms(mu, var, sd, spec.sigma)
    return (t2 - t1) / spec.sigma


def mmd2_gaussian(spec: DivergenceSpec, mu1, var1, mu2, var2):
    """Squared MMD of the spec's kernel between N(mu1, var1) and N(mu2, var2),
    vectorized."""
    return (
        gaussian_k0(spec, 0.0, 2.0 * np.asarray(var1, dtype=float))
        + gaussian_k0(spec, 0.0, 2.0 * np.asarray(var2, dtype=float))
        - 2.0 * gaussian_k0(spec, np.asarray(mu1) - np.asarray(mu2), np.asarray(var1) + np.asarray(var2))
    )


def pdf_l2_gaussian(mu1, var1, mu2, var2):
    """Squared L2 distance between two Gaussian densities, vectorized."""
    mu1, var1 = np.asarray(mu1, dtype=float), np.asarray(var1, dtype=float)
    mu2, var2 = np.asarray(mu2, dtype=float), np.asarray(var2, dtype=float)
    s = var1 + var2
    return (
        1.0 / np.sqrt(4.0 * math.pi * var1)
        + 1.0 / np.sqrt(4.0 * math.pi * var2)
        - 2.0 / np.sqrt(2.0 * math.pi * s) * np.exp(-((mu1 - mu2) ** 2) / (2.0 * s))
    )


def kl_gaussian(mu1, var1, mu2, var2):
    """KL(N(mu1, var1) || N(mu2, var2)), vectorized."""
    mu1, var1 = np.asarray(mu1, dtype=float), np.asarray(var1, dtype=float)
    mu2, var2 = np.asarray(mu2, dtype=float), np.asarray(var2, dtype=float)
    return 0.5 * np.log(var2 / var1) + (var1 + (mu1 - mu2) ** 2) / (2.0 * var2) - 0.5


def closed_form_gaussian(spec: DivergenceSpec, mu1, var1, mu2, var2):
    """d(model N(mu1, var1), target N(mu2, var2)) by closed form, vectorized.

    The KL kind evaluates KL(target || model).
    """
    if spec.kind in _MMD_WEIGHT:
        return _MMD_WEIGHT[spec.kind] * mmd2_gaussian(spec, mu1, var1, mu2, var2)
    if spec.kind == "pdf_l2":
        return pdf_l2_gaussian(mu1, var1, mu2, var2)
    return kl_gaussian(mu2, var2, mu1, var1)


def closed_form_gaussian_dmu1(spec: DivergenceSpec, mu1, var1, mu2, var2):
    """d/dmu1 of closed_form_gaussian: the derivative in the model mean."""
    delta = np.asarray(mu1, dtype=float) - np.asarray(mu2, dtype=float)
    s = np.asarray(var1, dtype=float) + np.asarray(var2, dtype=float)
    if spec.kind in _MMD_WEIGHT:
        return -2.0 * _MMD_WEIGHT[spec.kind] * gaussian_k0_dmu(spec, delta, s)
    if spec.kind == "pdf_l2":
        return 2.0 * delta / (s * np.sqrt(2.0 * math.pi * s)) * np.exp(-(delta**2) / (2.0 * s))
    return delta / var1  # kl


def divergence_gmm(
    spec: DivergenceSpec,
    p: GaussianMixture1D,
    q: GaussianMixture1D,
    rng: Optional[np.random.Generator] = None,
    mc_samples: int = 1000,
) -> float:
    """d(model P, target Q) for Gaussian mixtures.

    The kernel kinds and pdf_l2 are exact pairwise-component sums; kl is a
    Monte-Carlo estimate with ``mc_samples`` draws per target component.
    """
    if mc_samples < 1:
        raise InvalidInput(f"mc_samples must be >= 1, got {mc_samples}")
    w1, m1, v1 = p.weights, p.means, p.variances
    w2, m2, v2 = q.weights, q.means, q.variances

    if spec.kind in _MMD_WEIGHT:
        val = _MMD_WEIGHT[spec.kind] * _pairwise_quadratic(
            lambda dm, sv: gaussian_k0(spec, dm, sv), w1, m1, v1, w2, m2, v2
        )
        return max(float(val), 0.0)
    if spec.kind == "pdf_l2":
        val = _pairwise_quadratic(_gauss_conv_density, w1, m1, v1, w2, m2, v2)
        return max(float(val), 0.0)

    if rng is None:
        raise InvalidInput(f"{spec.kind} requires an RNG")
    # mc_samples draws per component of Q, weighted by the component weights
    total = 0.0
    for wj, mj, vj in zip(w2, m2, v2):
        z = rng.normal(mj, math.sqrt(vj), size=mc_samples)
        log_q = _gmm_logpdf(z, w2, m2, v2)
        log_p = _gmm_logpdf(z, w1, m1, v1)
        total += wj * float(np.mean(log_q - log_p))
    return max(total, 0.0)


def _pairwise_quadratic(term, w1, m1, v1, w2, m2, v2) -> float:
    """sum_ij a_i a_j term(mi - mj, vi + vj) assembled as PP + QQ - 2 PQ."""

    def block(wa, ma, va, wb, mb, vb):
        dm = ma[:, None] - mb[None, :]
        sv = va[:, None] + vb[None, :]
        return float(wa @ term(dm, sv) @ wb)

    return block(w1, m1, v1, w1, m1, v1) + block(w2, m2, v2, w2, m2, v2) - 2.0 * block(
        w1, m1, v1, w2, m2, v2
    )


def _gauss_conv_density(dm, sv):
    # integral of phi(.; mi, vi) phi(.; mj, vj) = N(mi - mj; 0, vi + vj)
    return np.exp(-(dm**2) / (2.0 * sv)) / np.sqrt(2.0 * math.pi * sv)


def _gmm_logpdf(z, w, m, v):
    """log sum_k w_k N(z; m_k, v_k) by the max-shifted log-sum-exp (Blanchard,
    Higham & Higham 2021), built in place in one component-major buffer."""
    buf = np.subtract(z[None, :], m[:, None])
    buf *= buf
    buf *= (-0.5 / v)[:, None]
    buf += (np.log(w) - 0.5 * np.log(2.0 * math.pi * v))[:, None]
    top = buf.max(axis=0)
    buf -= top
    return np.log(np.exp(buf, out=buf).sum(axis=0)) + top


def _energy_gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Energy kernel matrix |x_i| + |y_j| - |x_i - y_j| for 1-D point sets."""
    return np.abs(x)[:, None] + np.abs(y)[None, :] - np.abs(x[:, None] - y[None, :])


def energy_mmd2_atomic(p: Atomic, q: Atomic) -> float:
    """Exact population squared energy MMD between two finite atomic measures."""
    kpp = p.masses @ _energy_gram(p.locations, p.locations) @ p.masses
    kqq = q.masses @ _energy_gram(q.locations, q.locations) @ q.masses
    kpq = p.masses @ _energy_gram(p.locations, q.locations) @ q.masses
    return float(kpp + kqq - 2.0 * kpq)
