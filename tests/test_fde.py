"""Tests for T-selection, data splitting and the fitted-evaluation engine."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

from fdeval import fde
from fdeval.divergences import FDE_METHODS, DivergenceSpec, closed_form_gaussian
from fdeval.envs import (
    Dataset,
    LQREnv,
    LQRTheta,
    lqr_collect,
    lqr_true_params,
    parameter_bellman_map,
    quadratic_features,
)
from fdeval.errors import InvalidInput, OptimizationFailure
from fdeval.fde import (
    _FoldProblem,
    _least_squares_point,
    _minimize_fold,
    _objective_and_grad,
    choose_t,
    fde_run,
    fle_run,
    split_dataset,
)
from fdeval.harness import _TAG_DATA, ExperimentConfig, _cell_seed

def test_choose_t_anchor_values():
    assert choose_t(1000, 0.99) == 34
    assert choose_t(2, 0.5) == 1  # floored to zero, clamped to one
    assert choose_t(100_000, 0.99, c_divide=10.0) in (
        choose_t(100_000, 0.99) // 2,
        choose_t(100_000, 0.99) // 2 + 1,
    )


def test_t_selection_validation():
    for c_divide in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidInput, match="c_divide"):
            choose_t(1000, 0.99, c_divide)
    # the rule divides by log(1 / gamma), so gamma must lie in (0, 1)
    for gamma in (0.0, 1.0, 1.5, -0.5):
        with pytest.raises(InvalidInput):
            choose_t(1000, gamma)


def _dummy_dataset(n, seed=0):
    return lqr_collect(LQREnv.default(), n, np.random.default_rng(seed))


def test_split_sizes():
    data = _dummy_dataset(1000)
    folds = split_dataset(data, 34)
    sizes = [len(f) for f in folds]
    assert sizes == [29] * 33 + [43]
    assert sum(sizes) == 1000
    assert len(split_dataset(data, 1)) == 1
    ten = _dummy_dataset(10)
    assert [len(f) for f in split_dataset(ten, 10)] == [1] * 10
    with pytest.raises(InvalidInput):
        split_dataset(ten, 11)


def test_split_preserves_order():
    data = _dummy_dataset(100)
    folds = split_dataset(data, 3)
    np.testing.assert_array_equal(
        np.concatenate([f.rewards for f in folds]), data.rewards
    )


def _objective(fold, theta, theta_prev, env, spec):
    """Mean closed-form divergence between the model and the backup Gaussians."""
    problem = _FoldProblem.from_fold(fold, env, theta_prev)
    model_means = problem.features @ theta.to_vector()
    return float(np.mean(closed_form_gaussian(
        spec, model_means, problem.model_var, problem.target_means, problem.target_var
    )))


def test_objective_kl_anchor():
    """One transition, both thetas zero, reward one: the KL collapses to
    -ln(gamma) because the target variance plus shift equals the model
    variance exactly."""
    env = LQREnv.default()
    fold = Dataset(
        np.array([[0.3, -0.2]]), np.array([[0.1, 0.4]]), np.array([1.0]),
        np.array([[0.0, 0.0]]),
    )
    val = _objective(fold, LQRTheta.zero(), LQRTheta.zero(), env, DivergenceSpec("kl"))
    assert val == pytest.approx(0.0100504, abs=1e-6)


def test_objective_positive_under_variance_mismatch():
    """Even with perfectly matched means the pdf-L2 objective stays positive
    because model and backup variances differ by a factor gamma^2."""
    env = LQREnv.default()
    fold = _dummy_dataset(1).slice(0, 1)
    theta_prev = LQRTheta.zero()
    # theta matching the backup mean on this single transition: use the
    # reward-only quadratic fit via a rank-one correction is overkill; the
    # mean-matched value equals pdf_l2 at delta-mu = 0
    from fdeval.divergences import pdf_l2_gaussian

    v = env.return_variance
    floor = pdf_l2_gaussian(0.0, v, 0.0, env.gamma**2 * v)
    val = _objective(fold, LQRTheta.zero(), theta_prev, env, DivergenceSpec("pdf_l2"))
    assert val >= floor - 1e-12 and floor > 0


def test_objective_permutation_invariance():
    env = LQREnv.default()
    data = _dummy_dataset(40, seed=3)
    rng = np.random.default_rng(4)
    perm = rng.permutation(40)
    shuffled = Dataset(
        data.states[perm], data.actions[perm], data.rewards[perm], data.next_states[perm]
    )
    theta = LQRTheta.from_vector(rng.normal(size=12))
    prev = LQRTheta.from_vector(rng.normal(size=12))
    for spec in map(DivergenceSpec, FDE_METHODS):
        a = _objective(data, theta, prev, env, spec)
        b = _objective(shuffled, theta, prev, env, spec)
        assert a == pytest.approx(b, abs=1e-12)


def test_objective_rejects_nonfinite_theta():
    env = LQREnv.default()
    fold = _dummy_dataset(5)
    bad = LQRTheta.zero().to_vector()
    with pytest.raises(InvalidInput):
        LQRTheta.from_vector(np.where(np.arange(12) == 0, np.nan, bad))


@pytest.mark.parametrize("name", sorted(FDE_METHODS) + ["fle"])
def test_analytic_gradient_matches_finite_difference(name):
    """The analytic gradient against central differences of an independent
    objective: the closed form itself, or for FLE the Gaussian negative
    log-likelihood of drawn targets, which the KL fit minimizes."""
    env = LQREnv.default()
    data = _dummy_dataset(30, seed=5)
    rng = np.random.default_rng(6)
    prev = LQRTheta.from_vector(rng.normal(scale=0.3, size=12))
    problem = _FoldProblem.from_fold(data, env, prev)
    v = problem.model_var
    if name == "fle":
        spec = DivergenceSpec("kl")
        draws = rng.normal(np.repeat(problem.target_means, 3), np.sqrt(problem.target_var))
        feats = np.repeat(problem.features, 3, axis=0)
        problem = _FoldProblem(feats, draws, v, problem.target_var)

        def objective(vec):
            resid = feats @ vec - draws
            return 0.5 * np.log(2 * np.pi * v) + np.mean(resid**2) / (2 * v)
    else:
        spec = DivergenceSpec(name)

        def objective(vec):
            return np.mean(closed_form_gaussian(
                spec, problem.features @ vec, v, problem.target_means, problem.target_var
            ))
    h = 1e-5
    for _ in range(20):
        vec = rng.normal(scale=0.5, size=12)
        _, grad = _objective_and_grad(problem, spec, vec)
        for i in rng.choice(12, size=3, replace=False):
            e = np.zeros(12)
            e[i] = h
            fd = (objective(vec + e) - objective(vec - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-9)


@pytest.mark.parametrize("method", ["fde", "fle"])
def test_run_descent_contract_and_trace(method):
    env = LQREnv.default()
    data = _dummy_dataset(200, seed=7)
    if method == "fle":
        theta, trace = fle_run(data, env, 4, np.random.default_rng(8), mc_samples=2)
    else:
        theta, trace = fde_run(data, env, DivergenceSpec("kl"), 4)
    assert trace.t_used == 4
    assert len(trace.objective_values) == 4
    for end, start in zip(trace.objective_values, trace.warm_start_values):
        assert end <= start + 1e-12


def test_degenerate_fold_leaves_state_block_at_warm_start():
    env = LQREnv.default()
    rng = np.random.default_rng(8)
    acts = rng.normal(size=(20, 2))
    data = Dataset(
        np.zeros((20, 2)), acts,
        rng.normal(size=20), np.zeros((20, 2)),
    )
    theta, _ = fde_run(data, env, DivergenceSpec("kl"), 1)
    # all states are zero, so M1 and M2 receive exactly zero gradient
    np.testing.assert_array_equal(theta.m1, np.zeros((2, 2)))
    np.testing.assert_array_equal(theta.m2, np.zeros((2, 2)))
    assert np.abs(theta.m3).max() > 0


def test_single_iteration_recovers_bellman_image():
    """T=1 on a large fold: the fit approaches the exact Bellman image of
    the zero model, whose parameters the closed map provides."""
    env = LQREnv.default()
    data = _dummy_dataset(10_000, seed=9)
    target = parameter_bellman_map(env, LQRTheta.zero())
    theta, _ = fde_run(data, env, DivergenceSpec("kl"), 1)
    probe = lqr_collect(env, 4000, np.random.default_rng(10))
    gap = np.abs(
        theta.mean_batch(probe.states, probe.actions)
        - target.mean_batch(probe.states, probe.actions)
    ).mean()
    assert gap <= 0.05


@pytest.mark.parametrize("name", sorted(FDE_METHODS))
def test_population_minimizer_consistency(name):
    """With theta_prev at the fixed point the objective's minimizer is the
    fixed point itself; a large fold must land nearby."""
    env = LQREnv.default()
    theta_star = lqr_true_params(env)
    data = _dummy_dataset(100_000, seed=11)
    problem = _FoldProblem.from_fold(data, env, theta_star)
    vec, *_ = _minimize_fold(problem, DivergenceSpec(name), theta_star.to_vector(), 1)
    fitted = LQRTheta.from_vector(vec)
    probe = lqr_collect(env, 4000, np.random.default_rng(12))
    gap = np.abs(
        fitted.mean_batch(probe.states, probe.actions)
        - theta_star.mean_batch(probe.states, probe.actions)
    ).mean()
    assert gap <= 0.05


def test_fle_large_b_matches_backup_mean():
    env = LQREnv.default()
    fold = _dummy_dataset(1, seed=13)
    theta, _ = fle_run(fold, env, 1, np.random.default_rng(14), mc_samples=1_000_000)
    target = float(fold.rewards[0])  # theta_prev = 0, so backup mean = r
    fitted = theta.mean(fold.states[0], fold.actions[0])
    se = env.gamma * np.sqrt(env.return_variance) / 1000.0
    assert fitted == pytest.approx(target, abs=4 * se)


@pytest.mark.parametrize("seed", [16, 17, 18])
def test_fle_matches_least_squares_on_drawn_targets(seed):
    """One fold from the zero model: the backup means are the rewards, and
    FLE's fitted means are the least-squares projection of its draws."""
    env = LQREnv.default()
    data = _dummy_dataset(200, seed=seed)
    theta, _ = fle_run(data, env, 1, np.random.default_rng(seed), mc_samples=1)
    draws = np.random.default_rng(seed).normal(
        data.rewards, env.gamma * np.sqrt(env.return_variance)
    )
    feats = quadratic_features(data.states, data.actions)
    coef = np.linalg.lstsq(feats, draws, rcond=None)[0]
    fitted = theta.mean_batch(data.states, data.actions)
    np.testing.assert_allclose(fitted, feats @ coef, rtol=0, atol=1e-4)


def test_fle_rejects_bad_b():
    env = LQREnv.default()
    with pytest.raises(InvalidInput):
        fle_run(_dummy_dataset(5), env, 1, np.random.default_rng(0), mc_samples=0)


@pytest.mark.parametrize("mc_samples", [2.5, True, 0])
def test_fle_sample_count_must_be_an_integer(mc_samples):
    """np.repeat truncated 2.5 to 2 draws per record, and True ran as 1."""
    with pytest.raises(InvalidInput, match="mc_samples"):
        fle_run(_dummy_dataset(5), LQREnv.default(), 1, np.random.default_rng(0), mc_samples)


def test_optimization_failure_on_nonfinite_data():
    env = LQREnv.default()
    data = _dummy_dataset(10, seed=15)
    broken = Dataset(
        data.states, data.actions,
        np.where(np.arange(10) == 0, np.inf, data.rewards), data.next_states,
    )
    with np.errstate(invalid="ignore"), pytest.raises(OptimizationFailure):
        fde_run(broken, env, DivergenceSpec("kl"), 1)


def _optimizer_failing_on_call(k):
    """Stands in for scipy.optimize inside fdeval.fde: the k-th minimize call
    returns its real result marked as failed."""
    calls = itertools.count(1)

    def minimize(*args, **kwargs):
        result = optimize.minimize(*args, **kwargs)
        if next(calls) == k:
            result.success = False
        return result

    return SimpleNamespace(minimize=minimize)


def test_trace_records_folds_whose_optimizer_exit_failed(monkeypatch):
    """The last fold's L-BFGS-B exit is made to report failure in the energy
    fit of the lqr-sweep benchmark's master seed 5 input (n = 300, rep 0); the
    trace names that fold, and the KL fit of the same data names none."""
    env = LQREnv.default()
    data = _sweep_data(env, 5, 300)
    t_count = choose_t(300, env.gamma)
    monkeypatch.setattr(fde, "optimize", _optimizer_failing_on_call(t_count))
    _, energy = fde_run(data, env, DivergenceSpec("energy"), t_count)
    assert energy.not_converged_folds == [t_count]
    _, kl = fde_run(data, env, DivergenceSpec("kl"), t_count)
    assert kl.not_converged_folds == []


def _sweep_data(env, master_seed, n):
    """The dataset of a default LQR sweep's cell at (master seed, n, rep 0)."""
    seed = _cell_seed(ExperimentConfig(master_seed=master_seed), 0, n, _TAG_DATA)
    return lqr_collect(env, n, np.random.default_rng(seed))


def _lbfgsb_fit(problem, spec, start, x0):
    """L-BFGS-B from x0 alone, never ending above the warm start."""
    def fun_jac(vec):
        return _objective_and_grad(problem, spec, vec)

    result = optimize.minimize(
        fun_jac, x0, jac=True, method="L-BFGS-B",
        options={"maxfun": 2000, "gtol": 1e-8, "ftol": 1e-14},
    )
    return min(float(result.fun), fun_jac(start)[0])


def _sweep_fold_fits(master_seed):
    """Every fold fit of a sweep cell, both n and every kind: yields (kind,
    n, fold index, problem, warm start, end point, end objective)."""
    env = LQREnv.default()
    for n in (300, 1000):
        folds = split_dataset(_sweep_data(env, master_seed, n), choose_t(n, env.gamma))
        for kind in FDE_METHODS:
            spec = DivergenceSpec(kind)
            vec = LQRTheta.zero().to_vector()
            for t, fold in enumerate(folds, start=1):
                problem = _FoldProblem.from_fold(fold, env, LQRTheta.from_vector(vec))
                start = vec
                vec, obj, *_ = _minimize_fold(problem, spec, start, t)
                yield spec, n, t, problem, start, vec, obj


@pytest.mark.parametrize("master_seed", [0, 1, 2])
def test_fold_fit_is_no_worse_than_warm_started_lbfgs(master_seed):
    """On every fold of a sweep cell, the fit started from the least-squares
    point ends no higher than L-BFGS-B from the warm start alone; a KL fold
    ends at the least-squares fit."""
    for spec, n, t, problem, start, vec, obj in _sweep_fold_fits(master_seed):
        reference = _lbfgsb_fit(problem, spec, start, start)
        assert obj <= reference + 1e-8, (spec.kind, n, t)
        if spec.kind == "kl":
            coef = np.linalg.lstsq(problem.features, problem.target_means, rcond=None)[0]
            np.testing.assert_allclose(
                problem.features @ vec, problem.features @ coef, rtol=0, atol=1e-9
            )


@pytest.mark.parametrize("master_seed", [0, 1, 2])
def test_fold_fit_is_no_worse_than_lbfgs_from_the_least_squares_point(master_seed):
    """The fit that the Newton steps replaced, L-BFGS-B from the anchored
    least-squares point, is the reference: on every fold of a sweep cell the
    Newton start ends no higher, to 1e-12 relative."""
    for spec, n, t, problem, start, _, obj in _sweep_fold_fits(master_seed):
        reference = _lbfgsb_fit(problem, spec, start, _least_squares_point(problem, start))
        assert obj <= reference + 1e-12 * abs(reference), (spec.kind, n, t)
