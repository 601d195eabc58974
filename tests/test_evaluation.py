"""Tests for occupancy-weighted inaccuracy reporting."""

import numpy as np
import pytest
from scipy import integrate, stats

from fdeval.distributions import Atomic
from fdeval.envs import LQREnv, LQRTheta, estimate_dpi_lqr, lqr_true_params
from fdeval.errors import InvalidInput
from fdeval.evaluation import InaccuracyReport, lqr_inaccuracy, tabular_inaccuracy


def test_zero_at_truth():
    env = LQREnv.default()
    theta_star = lqr_true_params(env)
    xs, acts = estimate_dpi_lqr(env, 200, np.random.default_rng(0))
    assert lqr_inaccuracy(theta_star, theta_star, xs, acts) == 0.0


def test_identity_perturbation_single_point():
    """Adding eps * I to M1 shifts the mean by eps * |x|^2, so a single
    unit-norm occupancy point gives inaccuracy exactly eps."""
    env = LQREnv.default()
    theta_star = lqr_true_params(env)
    eps = 0.37
    bumped = LQRTheta(theta_star.m1 + eps * np.eye(2), theta_star.m2, theta_star.m3)
    xs = np.array([[1.0, 0.0]])
    acts = xs @ env.k_gain.T
    assert lqr_inaccuracy(bumped, theta_star, xs, acts) == pytest.approx(eps, abs=1e-12)


def test_matches_wasserstein_aggregation_oracle():
    """Recompute from the definition: per-point W1 between the two
    equal-variance Gaussians as the integral of their quantile gap over
    (0, 1), then the RMS aggregation."""
    env = LQREnv.default()
    theta_star = lqr_true_params(env)
    rng = np.random.default_rng(1)
    theta = LQRTheta.from_vector(theta_star.to_vector() + rng.normal(scale=0.1, size=12))
    xs, acts = estimate_dpi_lqr(env, 50, rng)
    sd = np.sqrt(env.return_variance)

    def w1(mu1, mu2):
        gap = lambda u: abs(stats.norm.ppf(u, mu1, sd) - stats.norm.ppf(u, mu2, sd))
        return integrate.quad(gap, 0.0, 1.0)[0]

    per_point = [w1(theta.mean(x, a), theta_star.mean(x, a)) for x, a in zip(xs, acts)]
    oracle = np.sqrt(np.mean(np.square(per_point)))
    assert lqr_inaccuracy(theta, theta_star, xs, acts) == pytest.approx(oracle, abs=1e-6)


def test_permutation_invariance():
    env = LQREnv.default()
    theta_star = lqr_true_params(env)
    rng = np.random.default_rng(2)
    theta = LQRTheta.from_vector(theta_star.to_vector() + rng.normal(scale=0.2, size=12))
    xs, acts = estimate_dpi_lqr(env, 100, rng)
    perm = rng.permutation(100)
    assert lqr_inaccuracy(theta, theta_star, xs, acts) == pytest.approx(
        lqr_inaccuracy(theta, theta_star, xs[perm], acts[perm]), abs=1e-12
    )


def test_lqr_inaccuracy_validation():
    env = LQREnv.default()
    theta = lqr_true_params(env)
    xs = np.zeros((0, 2))
    with pytest.raises(InvalidInput):
        lqr_inaccuracy(theta, theta, xs, xs)


def test_tabular_inaccuracy_brute_force():
    u_hat = {(0, 0): Atomic([0.0], [1.0]), (1, 0): Atomic([0.0, 2.0], [0.5, 0.5])}
    u_true = {(0, 0): Atomic([1.0], [1.0]), (1, 0): Atomic([1.0], [1.0])}
    weights = {(0, 0): 0.25, (1, 0): 0.75}
    # W1 gaps: 1.0 and 1.0 (mass 0.5 moves by 1 each way)
    expected = np.sqrt(0.25 * 1.0**2 + 0.75 * 1.0**2)
    assert tabular_inaccuracy(u_hat, u_true, weights) == pytest.approx(expected, abs=1e-10)


def test_report_validation():
    with pytest.raises(InvalidInput):
        InaccuracyReport("kl", 100, 0, 1, 4, np.nan, 10.0)
    # a failed cell may carry NaN
    rep = InaccuracyReport("kl", 100, 0, 1, 4, np.nan, 10.0, failed=True)
    assert rep.failed
