"""Tests for kernel/divergence closed forms and estimators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from fdeval import divergences
from fdeval.distributions import Atomic, GaussianMixture1D
from fdeval.divergences import (
    FDE_METHODS,
    DivergenceSpec,
    closed_form_gaussian,
    closed_form_gaussian_dmu1,
    divergence_gmm,
    energy_mmd2_atomic,
    gaussian_k0,
    gaussian_k0_dmu,
    kl_gaussian,
    mmd2_gaussian,
    pdf_l2_gaussian,
)
from fdeval.envs import LQREnv
from fdeval.errors import InvalidInput
from fdeval.metrics import ExtensionSpec, MetricSpec

ENERGY = DivergenceSpec("energy")
RBF = DivergenceSpec("rbf", sigma=1.0)
LAPLACE = DivergenceSpec("laplace", sigma=1.0)


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
    spec = DivergenceSpec(method)
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
    assert closed_form_gaussian(RBF, *p, *p) == pytest.approx(0.0, abs=1e-10)


def test_gmm_divergence_reduces_to_gaussian_case():
    p1 = GaussianMixture1D(((1.0, 0.0, 1.0),))
    q1 = GaussianMixture1D(((1.0, 1.5, 2.0),))
    for spec in (ENERGY, RBF, DivergenceSpec("cramer"), DivergenceSpec("pdf_l2")):
        assert divergence_gmm(spec, p1, q1) == pytest.approx(
            closed_form_gaussian(spec, 0.0, 1.0, 1.5, 2.0), abs=1e-10
        )


def test_gmm_kl_mc_matches_closed_form():
    p1 = GaussianMixture1D(((1.0, 0.0, 1.0),))
    q1 = GaussianMixture1D(((1.0, 1.0, 1.0),))
    est = divergence_gmm(
        DivergenceSpec("kl"), p1, q1, rng=np.random.default_rng(0), mc_samples=200_000
    )
    assert est == pytest.approx(0.5, abs=0.02)


def _reference_gmm_logpdf(z, w, m, v):
    """Oracle: the point-major log-density through scipy's logsumexp, which
    divergences._gmm_logpdf replaced."""
    z = np.asarray(z, dtype=float)[:, None]
    log_comp = (
        -0.5 * (z - m[None, :]) ** 2 / v[None, :]
        - 0.5 * np.log(2.0 * np.pi * v[None, :])
        + np.log(w[None, :])
    )
    return special.logsumexp(log_comp, axis=1)


@st.composite
def _mixtures(draw, max_components=12):
    """Up to 12 components: means up to 200 apart around a center in
    [-1e3, 1e3], variances from 1e-4 to 1e2."""
    k = draw(st.integers(1, max_components))
    gaps = draw(st.lists(st.floats(0.0, 200.0), min_size=k, max_size=k))
    means = draw(st.floats(-1e3, 1e3)) + np.cumsum(gaps)
    variances = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 2.0), min_size=k, max_size=k)))
    raw = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)))
    return GaussianMixture1D(tuple(zip(raw / raw.sum(), means, variances)))


@settings(max_examples=200, deadline=None)
@given(mix=_mixtures(), offsets=st.lists(st.floats(-1e3, 1e3), max_size=8))
def test_gmm_logpdf_matches_the_logsumexp_reference(mix, offsets):
    w, m, v = mix.weights, mix.means, mix.variances
    # at each mean its component dominates; 1e3 past the ends every term
    # underflows exp unless the max is shifted out first
    z = np.concatenate([m, m + np.sqrt(v), [m[0] - 1e3, m[-1] + 1e3], m[0] + np.array(offsets)])
    np.testing.assert_allclose(
        divergences._gmm_logpdf(z, w, m, v), _reference_gmm_logpdf(z, w, m, v),
        rtol=1e-12, atol=1e-13,
    )


@settings(max_examples=60, deadline=None)
@given(p=_mixtures(), q=_mixtures(max_components=6), seed=st.integers(0, 2**32 - 1))
def test_gmm_kl_matches_the_logsumexp_reference(p, q, seed):
    kl = DivergenceSpec("kl")
    fast = divergence_gmm(kl, p, q, rng=np.random.default_rng(seed), mc_samples=300)
    scales = []

    def reference(z, w, m, v):
        out = _reference_gmm_logpdf(z, w, m, v)
        scales.append(np.abs(out).max())
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(divergences, "_gmm_logpdf", reference)
        slow = divergence_gmm(kl, p, q, rng=np.random.default_rng(seed), mc_samples=300)
    # the estimate is a difference of log-densities, so near p == q its
    # rounding scales with theirs, not with the estimate
    assert fast == pytest.approx(slow, rel=1e-12, abs=1e-13 * max(scales))


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


_UNIT = GaussianMixture1D(((1.0, 0.0, 1.0),))
_UNREAD_FIELDS = [
    *((DivergenceSpec, (kind,), {"sigma": 1.0}) for kind in ("cramer", "energy", "pdf_l2", "kl")),
    *((DivergenceSpec, (kind,), {"sigma": sigma})
      for kind in ("rbf", "laplace") for sigma in (0.0, -1.0, float("nan"))),
    *((DivergenceSpec, (kind,), {}) for kind in ("mmd", "coulomb", "unknown", "tvd_mc")),
    (MetricSpec, ("energy",), {"p": 7.0}),
    (MetricSpec, ("cramer",), {"p": 0.5}),
    (MetricSpec, ("wasserstein",), {"p": float("nan")}),
    (MetricSpec, ("wasserstein",), {"p": float("inf")}),
    (ExtensionSpec, ("expectation",), {"q": float("inf")}),
    (ExtensionSpec, ("supremum",), {"q": 5.0}),
    (ExtensionSpec, ("supremum",), {"q": 0.1}),
    (ExtensionSpec, ("supremum",), {"weights": {"z": 1.0}}),
    (divergence_gmm, (DivergenceSpec("kl"), _UNIT, _UNIT, np.random.default_rng(0)),
     {"mc_samples": 0}),
]


@pytest.mark.parametrize(
    "build,args,kwargs", _UNREAD_FIELDS,
    ids=[
        "-".join([b.__name__, a[0] if isinstance(a[0], str) else a[0].kind]
                 + [f"{key}={value}" for key, value in k.items()])
        for b, a, k in _UNREAD_FIELDS
    ],
)
def test_specs_reject_fields_they_never_read(build, args, kwargs):
    """A divergence is named by its method label alone; a bandwidth belongs to
    rbf and laplace, an order to Wasserstein and to the expectation
    extension.  Any other value is rejected rather than ignored."""
    with pytest.raises(InvalidInput):
        build(*args, **kwargs)


def test_spec_defaults_are_the_bandwidth_and_order_one():
    assert DivergenceSpec("rbf").sigma == DivergenceSpec("laplace").sigma == 1.0
    assert DivergenceSpec("energy").sigma is None
    assert MetricSpec("energy", p=1.0) == MetricSpec("energy")
    assert ExtensionSpec("supremum", q=1.0, weights=None) == ExtensionSpec("supremum")


@pytest.mark.parametrize("kind", ["kl", "pdf_l2"])
@pytest.mark.parametrize("fn", [gaussian_k0, gaussian_k0_dmu])
def test_kernel_expectations_reject_non_kernel_kinds(fn, kind):
    with pytest.raises(InvalidInput):
        fn(DivergenceSpec(kind), 0.5, 1.0)
