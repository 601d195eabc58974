"""Fitted distributional evaluation on the LQR model family.

Each iteration fits the quadratic-mean Gaussian model to the single-sample
Bellman backups of one data fold.  The known-noise variance is held fixed,
so the fit is over the 12 matrix entries of (M1, M2, M3) only, and every
divergence is a scalar loss rho of the mean residual: an M-estimation
problem.  Each fold's fit starts from the anchored least-squares point: the
previous iterate (the warm start) plus the minimum-norm least-squares fit of
its residual.  That point is the exact minimizer for the KL loss.  For the
bounded losses a few Newton steps follow, each one weighted least-squares
solve with weights rho'' (iteratively reweighted least squares) and each kept
only if it lowers the objective.  One L-BFGS-B run with the analytic
gradient then certifies the end point; from a Newton point it stops after
one evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize

from .bellman import _check_counts
from .divergences import (
    DivergenceSpec,
    closed_form_gaussian,
    closed_form_gaussian_d2mu1,
    closed_form_gaussian_dmu1,
)
from .envs import Dataset, LQREnv, LQRTheta, quadratic_features
from .errors import InvalidInput, OptimizationFailure

_KL = DivergenceSpec("kl")
_LBFGSB_OPTIONS = {"maxfun": 2000, "gtol": 1e-8, "ftol": 1e-14}
_NEWTON_STEPS = 4


def choose_t(n_total: int, gamma: float, c_divide: float = 5.0) -> int:
    """Iteration count from the log-sample-size rule, clamped below at 1.

    The paper's rule is T = floor((1/c_divide) * (1/(c - 1/(2q)))
    * (min(delta, 1/q) / (2(l - 1) + alpha)) * log(n) / log(1/gamma)).
    Its constant factor is exactly 1/4 at l = 5, delta = c = q = 1 and
    alpha = 0, so ``c_divide`` is the one constant left to set.
    """
    if n_total < 1:
        raise InvalidInput("n_total must be >= 1")
    if not 0 < gamma < 1:
        raise InvalidInput(f"gamma must lie in (0, 1), got {gamma}")
    if not c_divide > 0:  # NaN included
        raise InvalidInput(f"c_divide must be > 0, got {c_divide}")
    log_term = math.log(n_total) / math.log(1.0 / gamma)
    return max(int(math.floor(0.25 / c_divide * log_term)), 1)


def split_dataset(data: Dataset, t: int) -> list:
    """T folds in input order; the remainder goes to the last fold."""
    _check_counts(T=t)
    n = len(data)
    if n < t:
        raise InvalidInput(f"cannot split {n} records into {t} folds")
    base = n // t
    folds = [data.slice(i * base, (i + 1) * base) for i in range(t - 1)]
    folds.append(data.slice((t - 1) * base, n))
    return folds


@dataclass(frozen=True)
class _FoldProblem:
    """One fold fit: model means are ``features @ theta``, both variances fixed."""

    features: np.ndarray
    target_means: np.ndarray
    model_var: float
    target_var: float

    @classmethod
    def from_fold(cls, fold: Dataset, env: LQREnv, theta_prev: LQRTheta) -> "_FoldProblem":
        """Targets are the single-sample Bellman backups under ``theta_prev``."""
        next_actions = fold.next_states @ env.k_gain.T
        return cls(
            features=quadratic_features(fold.states, fold.actions),
            target_means=fold.rewards + env.gamma * theta_prev.mean_batch(
                fold.next_states, next_actions
            ),
            model_var=env.return_variance,
            target_var=env.gamma**2 * env.return_variance,
        )


def _fold_args(problem: _FoldProblem, vec: np.ndarray):
    return problem.features @ vec, problem.model_var, problem.target_means, problem.target_var


def _objective(problem: _FoldProblem, spec: DivergenceSpec, vec: np.ndarray) -> float:
    """Mean closed-form divergence over the fold."""
    return float(np.mean(closed_form_gaussian(spec, *_fold_args(problem, vec))))


def _objective_and_grad(problem: _FoldProblem, spec: DivergenceSpec, vec: np.ndarray):
    """Mean closed-form divergence over the fold, and its gradient in theta."""
    args = _fold_args(problem, vec)
    dmu = closed_form_gaussian_dmu1(spec, *args)
    grad = problem.features.T @ dmu / len(dmu)
    return float(np.mean(closed_form_gaussian(spec, *args))), grad


def _live_columns(problem: _FoldProblem) -> np.ndarray:
    """The feature columns that are not identically zero."""
    return np.any(problem.features != 0, axis=0)


def _least_squares_point(problem: _FoldProblem, start: np.ndarray) -> np.ndarray:
    """The warm start plus the minimum-norm least-squares fit of its residual,
    over the live feature columns: a coordinate with no feature stays exactly
    at the warm start."""
    live = _live_columns(problem)
    residual = problem.target_means - problem.features @ start
    point = start.copy()
    point[live] += np.linalg.lstsq(problem.features[:, live], residual, rcond=None)[0]
    return point


def _newton_point(problem: _FoldProblem, spec: DivergenceSpec, point: np.ndarray) -> np.ndarray:
    """Newton steps on the M-estimation loss mean rho(features @ theta - targets).

    Each step is one iteratively reweighted least-squares solve (Holland &
    Welsch 1977): the minimum-norm fit, over the live columns, of the
    per-record Newton step -rho'/rho'' with weights rho''.  A step is kept only
    if it lowers the objective.  The loop stops at the first rejected step, at
    a gradient that L-BFGS-B's gtol already accepts, at a non-positive rho'',
    or after _NEWTON_STEPS steps.
    """
    live = _live_columns(problem)
    obj = _objective(problem, spec, point)
    for _ in range(_NEWTON_STEPS):
        args = _fold_args(problem, point)
        d1 = closed_form_gaussian_dmu1(spec, *args)
        if np.max(np.abs(problem.features.T @ d1)) <= _LBFGSB_OPTIONS["gtol"] * len(d1):
            break
        d2 = closed_form_gaussian_d2mu1(spec, *args)
        if not np.all(d2 > 0):
            break
        root = np.sqrt(d2)
        trial = point.copy()
        trial[live] += np.linalg.lstsq(
            problem.features[:, live] * root[:, None], -d1 / root, rcond=None
        )[0]
        trial_obj = _objective(problem, spec, trial)
        if not trial_obj < obj:
            break
        point, obj = trial, trial_obj
    return point


def _minimize_fold(problem: _FoldProblem, spec: DivergenceSpec, start: np.ndarray,
                   iteration: int):
    """Newton steps from the anchored least-squares point, then one L-BFGS-B
    run from there; returns (theta vector, objective, warm-start objective,
    whether L-BFGS-B reported success).

    The least-squares point is the exact minimizer of the KL loss, so kl (and
    fle, which fits kl) takes no Newton step.  L-BFGS-B certifies the end
    point: from a Newton point it stops after one evaluation.

    Descent contract: the fit never ends above its warm start.
    """
    def fun_jac(vec):
        return _objective_and_grad(problem, spec, vec)

    start_obj = fun_jac(start)[0]
    point = _least_squares_point(problem, start)
    if spec.kind != "kl":
        point = _newton_point(problem, spec, point)
    result = optimize.minimize(fun_jac, point, jac=True, method="L-BFGS-B", options=_LBFGSB_OPTIONS)
    if not np.isfinite(result.fun):
        raise OptimizationFailure("non-finite objective", iteration=iteration)
    if start_obj < result.fun:
        return start, start_obj, start_obj, result.success
    return result.x, float(result.fun), start_obj, result.success


@dataclass(frozen=True)
class FitTrace:
    """Per-fold end and warm-start objectives, the fold count, and the 1-based
    indices of the folds whose L-BFGS-B exit reported failure."""

    objective_values: list
    warm_start_values: list
    t_used: int
    not_converged_folds: list


def _run_iterations(data: Dataset, env: LQREnv, spec: DivergenceSpec, t_count: int,
                    targets=lambda problem: problem):
    """Split into ``t_count`` folds, then fit each fold from the anchored
    least-squares point of the previous iterate.

    ``targets`` turns a fold's backup problem into the problem that is fitted.
    """
    folds = split_dataset(data, t_count)
    theta_vec = LQRTheta.zero().to_vector()
    objective_values, warm_start_values, not_converged_folds = [], [], []
    for t, fold in enumerate(folds, start=1):
        problem = targets(_FoldProblem.from_fold(fold, env, LQRTheta.from_vector(theta_vec)))
        theta_vec, obj, start_obj, converged = _minimize_fold(problem, spec, theta_vec, t)
        objective_values.append(obj)
        warm_start_values.append(start_obj)
        if not converged:
            not_converged_folds.append(t)
    return LQRTheta.from_vector(theta_vec), FitTrace(
        objective_values, warm_start_values, len(folds), not_converged_folds
    )


def fde_run(data: Dataset, env: LQREnv, spec: DivergenceSpec, t_count: int):
    """Full FDE pipeline: split into ``t_count`` folds, then iterate the fold
    fits of the divergence ``spec``."""
    return _run_iterations(data, env, spec, t_count)


def fle_run(data: Dataset, env: LQREnv, t_count: int, rng: np.random.Generator,
            mc_samples: int = 1):
    """Likelihood baseline: fit to Monte-Carlo draws from the backup law.

    Per iteration, each transition contributes ``mc_samples`` draws
    z' ~ N(backup mean, gamma^2 * return variance), fixed for the whole fold
    fit.  With the model variance fixed, the mean Gaussian negative
    log-likelihood of the draws is the KL objective with the draws as target
    means, up to a constant, so the fit is the FDE fit with the KL kind.
    """
    _check_counts(mc_samples=mc_samples)

    def draw(problem: _FoldProblem) -> _FoldProblem:
        draws = rng.normal(
            loc=np.repeat(problem.target_means, mc_samples),
            scale=math.sqrt(problem.target_var),
        )
        return replace(
            problem, features=np.repeat(problem.features, mc_samples, axis=0), target_means=draws
        )

    return _run_iterations(data, env, _KL, t_count, draw)
