"""Tests for kernel/divergence closed forms and estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from fdeval.distributions import Atomic, GaussianMixture1D
from fdeval.divergences import (
    FDE_METHODS,
    DivergenceSpec,
    KernelSpec,
    closed_form_gaussian,
    closed_form_gaussian_dmu1,
    divergence_gmm,
    energy_mmd2_atomic,
    gaussian_k0,
    gaussian_k0_dmu,
    kl_gaussian,
    mmd2_gaussian,
    method_divergence,
    pdf_l2_gaussian,
)
from fdeval.envs import LQREnv
from fdeval.errors import InvalidInput
from fdeval.metrics import MetricSpec

ENERGY = KernelSpec("energy")
RBF = KernelSpec("rbf", sigma=1.0)
LAPLACE = KernelSpec("laplace", sigma=1.0)


def _k0_quadrature(kernel, mu, var):
    """Independent oracle: numeric integration of k0 against the normal pdf."""
    if kernel.kind == "energy":
        k0 = lambda y: -abs(y)
    elif kernel.kind == "rbf":
        k0 = lambda y: np.exp(-(y**2) / (4.0 * kernel.sigma**2))
    else:
        k0 = lambda y: np.exp(-abs(y) / kernel.sigma)
    sd = np.sqrt(var)
    lo, hi = mu - 12 * sd, mu + 12 * sd
    f = lambda y: k0(y) * stats.norm.pdf(y, mu, sd)
    # integrate piecewise around the |y| kink at zero
    cuts = [lo] + ([0.0] if lo < 0.0 < hi else []) + [hi]
    return sum(
        integrate.quad(f, a, b, limit=200)[0] for a, b in zip(cuts[:-1], cuts[1:])
    )


@pytest.mark.parametrize("kernel", [ENERGY, RBF, LAPLACE], ids=lambda k: k.kind)
@pytest.mark.parametrize("mu,var", [(0.0, 1.0), (2.5, 0.4), (-1.3, 3.0), (7.0, 50.0)])
def test_gaussian_k0_matches_quadrature(kernel, mu, var):
    assert gaussian_k0(kernel, mu, var) == pytest.approx(
        _k0_quadrature(kernel, mu, var), abs=1e-8
    )


@pytest.mark.parametrize("kernel", [ENERGY, RBF, LAPLACE], ids=lambda k: k.kind)
def test_k0_gradient_matches_finite_difference(kernel):
    rng = np.random.default_rng(2)
    h = 1e-6
    for _ in range(20):
        mu = rng.uniform(-4, 4)
        var = rng.uniform(0.2, 60.0)
        fd = (gaussian_k0(kernel, mu + h, var) - gaussian_k0(kernel, mu - h, var)) / (2 * h)
        assert gaussian_k0_dmu(kernel, mu, var) == pytest.approx(fd, rel=1e-4, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(method=st.sampled_from(FDE_METHODS), delta=st.floats(-60.0, 60.0))
def test_closed_form_dmu1_matches_central_difference(method, delta):
    """rho'(delta) of every FDE method against a central difference of its
    closed form in the model mean, at the two variances of the LQR fit."""
    env = LQREnv.default()
    v1, v2 = env.return_variance, env.gamma**2 * env.return_variance
    spec = method_divergence(method)
    h = 1e-3
    fd = (
        closed_form_gaussian(spec, delta + h, v1, 0.0, v2)
        - closed_form_gaussian(spec, delta - h, v1, 0.0, v2)
    ) / (2 * h)
    assert closed_form_gaussian_dmu1(spec, delta, v1, 0.0, v2) == pytest.approx(
        fd, rel=1e-6, abs=1e-10
    )


def test_laplace_k0_stable_at_large_variance():
    # naive evaluation overflows: exp(var / 2 sigma^2) with var = 5000
    val = gaussian_k0(LAPLACE, 0.0, 5000.0)
    assert np.isfinite(val) and 0 < val < 1


def test_energy_mmd2_anchor():
    assert mmd2_gaussian(ENERGY, 0.0, 1.0, 2.0, 1.0) == pytest.approx(1.94426, abs=1e-3)


def test_kl_anchor_and_direction():
    assert kl_gaussian(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-9)
    # closed_form_gaussian(spec, model, target) evaluates KL(target || model)
    spec = DivergenceSpec("kl")
    assert closed_form_gaussian(spec, 0.0, 1.0, 0.0, 4.0) == pytest.approx(
        kl_gaussian(0.0, 4.0, 0.0, 1.0)
    )


def test_pdf_l2_zero_iff_equal():
    assert pdf_l2_gaussian(1.0, 2.0, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert pdf_l2_gaussian(0.0, 1.0, 0.1, 1.0) > 0


def test_pdf_l2_matches_quadrature():
    mu1, v1, mu2, v2 = 0.3, 0.8, -1.0, 2.0
    f = lambda z: (stats.norm.pdf(z, mu1, np.sqrt(v1)) - stats.norm.pdf(z, mu2, np.sqrt(v2))) ** 2
    oracle, _ = integrate.quad(f, -30, 30, limit=200)
    assert pdf_l2_gaussian(mu1, v1, mu2, v2) == pytest.approx(oracle, abs=1e-9)


def test_cramer_is_half_energy_for_gaussians():
    spec = DivergenceSpec("cramer")
    assert closed_form_gaussian(spec, 0.0, 1.0, 2.0, 1.0) == pytest.approx(
        0.5 * mmd2_gaussian(ENERGY, 0.0, 1.0, 2.0, 1.0)
    )


def test_divergences_vanish_at_identity():
    p = (1.3, 2.0)
    for kind in ("cramer", "pdf_l2", "kl"):
        assert closed_form_gaussian(DivergenceSpec(kind), *p, *p) == pytest.approx(0.0, abs=1e-10)
    assert closed_form_gaussian(DivergenceSpec("mmd", kernel=RBF), *p, *p) == pytest.approx(
        0.0, abs=1e-10
    )


def test_gmm_divergence_reduces_to_gaussian_case():
    p1 = GaussianMixture1D(((1.0, 0.0, 1.0),))
    q1 = GaussianMixture1D(((1.0, 1.5, 2.0),))
    for kind, kernel in (("mmd", ENERGY), ("mmd", RBF), ("cramer", None), ("pdf_l2", None)):
        spec = DivergenceSpec(kind, kernel=kernel)
        assert divergence_gmm(spec, p1, q1) == pytest.approx(
            closed_form_gaussian(spec, 0.0, 1.0, 1.5, 2.0), abs=1e-10
        )


def test_gmm_kl_mc_matches_closed_form():
    p1 = GaussianMixture1D(((1.0, 0.0, 1.0),))
    q1 = GaussianMixture1D(((1.0, 1.0, 1.0),))
    spec = DivergenceSpec("kl", mc_samples=200_000)
    est = divergence_gmm(spec, p1, q1, rng=np.random.default_rng(0))
    assert est == pytest.approx(0.5, abs=0.02)


def test_mmd_atomic_hand_computation():
    # two single atoms at 0 and 3 under the energy kernel:
    # k(x,y) = |x| + |y| - |x-y|; MMD^2 = k(0,0) + k(3,3) - 2 k(0,3) = 6
    p = Atomic([0.0], [1.0])
    q = Atomic([3.0], [1.0])
    assert energy_mmd2_atomic(p, q) == pytest.approx(6.0)


def _cramer_sq_oracle(p, q):
    """Exact integral of |F_P - F_Q|^2 over the merged breakpoint grid."""
    grid = np.unique(np.concatenate([p.locations, q.locations]))

    def cdf(a, z):
        return np.array([a.masses[a.locations <= zi].sum() for zi in z])

    return float(np.sum((cdf(p, grid[:-1]) - cdf(q, grid[:-1])) ** 2 * np.diff(grid)))


def test_cramer_atomic_identity_with_energy():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k1, k2 = rng.integers(1, 6, size=2)
        p = Atomic(rng.normal(0, 2, k1), rng.dirichlet(np.ones(k1)))
        q = Atomic(rng.normal(0, 2, k2), rng.dirichlet(np.ones(k2)))
        assert MetricSpec("cramer").evaluate(p, q) ** 2 == pytest.approx(
            _cramer_sq_oracle(p, q), abs=1e-10
        )


def test_kernel_spec_validation():
    with pytest.raises(InvalidInput):
        KernelSpec("rbf", sigma=0.0)
    with pytest.raises(InvalidInput):
        DivergenceSpec("mmd")
    with pytest.raises(InvalidInput):
        DivergenceSpec("unknown")
    with pytest.raises(InvalidInput):
        DivergenceSpec("tvd_mc")
    with pytest.raises(InvalidInput):
        KernelSpec("coulomb")
