"""Fitted distributional evaluation on the LQR model family.

Each iteration fits the quadratic-mean Gaussian model to the single-sample
Bellman backups of one data fold, warm-started from the previous iterate.
The known-noise variance is held fixed, so the fit is over the 12 matrix
entries of (M1, M2, M3) only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import optimize

from .divergences import (
    DivergenceSpec,
    KernelSpec,
    gaussian_k0_dmu,
    kl_gaussian,
    mmd2_gaussian,
    pdf_l2_gaussian,
)
from .envs import Dataset, LQREnv, LQRTheta, quadratic_features
from .errors import InvalidInput, OptimizationFailure

_ENERGY1 = KernelSpec("energy", beta=1.0)


@dataclass(frozen=True)
class TSelectionParams:
    """Constants of the iteration-count rule; defaults match the benchmark."""

    l: float = 5.0
    delta: float = 1.0
    c: float = 1.0
    q: float = 1.0
    alpha: float = 0.0
    c_divide: float = 5.0

    def __post_init__(self):
        if self.l < 2 or self.delta <= 0 or self.c <= 0 or self.q < 1:
            raise InvalidInput("invalid T-selection parameters")
        if self.alpha < 0 or self.c_divide <= 0:
            raise InvalidInput("invalid T-selection parameters")
        if self.c - 1.0 / (2.0 * self.q) <= 0:
            raise InvalidInput("rule requires c > 1/(2q)")


@dataclass(frozen=True)
class OptimizerSettings:
    max_evals: int = 2000
    gradient_mode: str = "finite_difference"  # or "analytic"
    fd_step: float = 1e-5
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.gradient_mode not in ("finite_difference", "analytic"):
            raise InvalidInput(f"unknown gradient mode {self.gradient_mode!r}")
        if self.tolerance <= 0 or self.fd_step <= 0:
            raise InvalidInput("tolerance and fd_step must be positive")


@dataclass(frozen=True)
class FDEConfig:
    divergence: DivergenceSpec
    t_params: TSelectionParams = field(default_factory=TSelectionParams)
    explicit_t: Optional[int] = None
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    warm_start: bool = True


def choose_t(n_total: int, gamma: float, params: TSelectionParams) -> int:
    """Iteration count from the log-sample-size rule, clamped below at 1."""
    if n_total < 1:
        raise InvalidInput("n_total must be >= 1")
    log_term = math.log(n_total) / math.log(1.0 / gamma)
    value = (
        (1.0 / params.c_divide)
        * (1.0 / (params.c - 1.0 / (2.0 * params.q)))
        * (min(params.delta, 1.0 / params.q) / (2.0 * (params.l - 1.0) + params.alpha))
        * log_term
    )
    return max(int(math.floor(value)), 1)


def split_dataset(data: Dataset, t: int) -> list:
    """T folds in input order; the remainder goes to the last fold."""
    if t < 1:
        raise InvalidInput("T must be >= 1")
    n = len(data)
    if n < t:
        raise InvalidInput(f"cannot split {n} records into {t} folds")
    base = n // t
    folds = [data.slice(i * base, (i + 1) * base) for i in range(t - 1)]
    folds.append(data.slice((t - 1) * base, n))
    return folds


class _FoldProblem:
    """Precomputed design for one fold: model means are linear in theta."""

    def __init__(self, fold: Dataset, env: LQREnv, theta_prev: LQRTheta):
        self.features = quadratic_features(fold.states, fold.actions)
        next_actions = fold.next_states @ env.k_gain.T
        self.target_means = fold.rewards + env.gamma * theta_prev.mean_batch(
            fold.next_states, next_actions
        )
        self.model_var = env.return_variance
        self.target_var = env.gamma**2 * env.return_variance

    def model_means(self, theta_vec: np.ndarray) -> np.ndarray:
        return self.features @ theta_vec


def _per_term_divergence(spec: DivergenceSpec, mu1, var1, mu2, var2):
    if spec.kind == "mmd":
        return mmd2_gaussian(spec.kernel, mu1, var1, mu2, var2)
    if spec.kind == "cramer":
        return 0.5 * mmd2_gaussian(_ENERGY1, mu1, var1, mu2, var2)
    if spec.kind == "pdf_l2":
        return pdf_l2_gaussian(mu1, var1, mu2, var2)
    if spec.kind == "kl":
        return kl_gaussian(mu2, var2, mu1, var1)
    raise InvalidInput(f"divergence {spec.kind!r} has no closed form for this objective")


def _per_term_divergence_dmu1(spec: DivergenceSpec, mu1, var1, mu2, var2):
    """Derivative of the per-transition divergence in the model mean."""
    delta = np.asarray(mu1) - np.asarray(mu2)
    if spec.kind == "mmd":
        return -2.0 * gaussian_k0_dmu(spec.kernel, delta, var1 + var2)
    if spec.kind == "cramer":
        return -1.0 * gaussian_k0_dmu(_ENERGY1, delta, var1 + var2)
    if spec.kind == "pdf_l2":
        s = var1 + var2
        return 2.0 * delta / (s * np.sqrt(2.0 * math.pi * s)) * np.exp(-(delta**2) / (2.0 * s))
    if spec.kind == "kl":
        return delta / var1
    raise InvalidInput(f"divergence {spec.kind!r} has no analytic gradient")


def fde_objective(
    fold: Dataset, theta: LQRTheta, theta_prev: LQRTheta, env: LQREnv, spec: DivergenceSpec
) -> float:
    """Mean divergence between the model Gaussian and the backup Gaussian."""
    problem = _FoldProblem(fold, env, theta_prev)
    vec = theta.to_vector()
    if not np.all(np.isfinite(vec)):
        raise InvalidInput("theta has non-finite entries")
    vals = _per_term_divergence(
        spec, problem.model_means(vec), problem.model_var, problem.target_means, problem.target_var
    )
    return float(np.mean(vals))


def _objective_and_grad(problem: _FoldProblem, spec: DivergenceSpec, vec: np.ndarray):
    mu1 = problem.model_means(vec)
    vals = _per_term_divergence(spec, mu1, problem.model_var, problem.target_means, problem.target_var)
    dmu = _per_term_divergence_dmu1(
        spec, mu1, problem.model_var, problem.target_means, problem.target_var
    )
    grad = problem.features.T @ dmu / len(dmu)
    return float(np.mean(vals)), grad


def _fd_gradient(fun, vec: np.ndarray, h: float) -> np.ndarray:
    grad = np.empty_like(vec)
    for i in range(vec.size):
        step = np.zeros_like(vec)
        step[i] = h
        grad[i] = (fun(vec + step) - fun(vec - step)) / (2.0 * h)
    return grad


def _minimize_fold(problem: _FoldProblem, spec: DivergenceSpec, start: np.ndarray,
                   settings: OptimizerSettings, iteration: int):
    def fun(vec):
        mu1 = problem.model_means(vec)
        vals = _per_term_divergence(
            spec, mu1, problem.model_var, problem.target_means, problem.target_var
        )
        return float(np.mean(vals))

    if settings.gradient_mode == "analytic":
        def fun_jac(vec):
            return _objective_and_grad(problem, spec, vec)

        result = optimize.minimize(
            fun_jac, start, jac=True, method="L-BFGS-B",
            options={"maxfun": settings.max_evals, "gtol": settings.tolerance, "ftol": 1e-14},
        )
    else:
        h = settings.fd_step
        # all 24 central-difference evaluations in one batched call: the
        # model means are linear in theta, so columns of the perturbed mean
        # matrix are mu +/- h * features[:, i]
        def jac(vec):
            mu0 = problem.model_means(vec)
            pert = np.concatenate([mu0[:, None] + h * problem.features,
                                   mu0[:, None] - h * problem.features], axis=1)
            vals = _per_term_divergence(
                spec, pert, problem.model_var,
                problem.target_means[:, None], problem.target_var,
            ).mean(axis=0)
            k = vec.size
            return (vals[:k] - vals[k:]) / (2.0 * h)

        result = optimize.minimize(
            fun, start, jac=jac, method="L-BFGS-B",
            options={"maxfun": settings.max_evals, "gtol": settings.tolerance, "ftol": 1e-14},
        )
    if not np.isfinite(result.fun):
        raise OptimizationFailure("non-finite objective", iteration=iteration)
    # descent contract: never end above the warm start
    if fun(start) < result.fun:
        return start, fun(start)
    return result.x, float(result.fun)


@dataclass(frozen=True)
class FitTrace:
    objective_values: list
    warm_start_values: list
    t_used: int


def _run_iterations(folds, env: LQREnv, config: FDEConfig, step_fn):
    theta_vec = LQRTheta.zero().to_vector()
    objective_values = []
    warm_start_values = []
    for t, fold in enumerate(folds, start=1):
        start = theta_vec if config.warm_start else LQRTheta.zero().to_vector()
        theta_vec, obj, start_obj = step_fn(fold, start, LQRTheta.from_vector(theta_vec), t)
        objective_values.append(obj)
        warm_start_values.append(start_obj)
    return LQRTheta.from_vector(theta_vec), FitTrace(objective_values, warm_start_values, len(folds))


def _resolve_t(data: Dataset, env: LQREnv, config: FDEConfig) -> int:
    if config.explicit_t is not None:
        return config.explicit_t
    return choose_t(len(data), env.gamma, config.t_params)


def fde_run(data: Dataset, env: LQREnv, config: FDEConfig):
    """Full FDE pipeline: split, then iterate warm-started fold fits."""
    t = _resolve_t(data, env, config)
    folds = split_dataset(data, t)

    def step(fold, start, theta_prev, iteration):
        problem = _FoldProblem(fold, env, theta_prev)
        start_obj = float(
            np.mean(
                _per_term_divergence(
                    config.divergence, problem.model_means(start), problem.model_var,
                    problem.target_means, problem.target_var,
                )
            )
        )
        vec, obj = _minimize_fold(problem, config.divergence, start, config.optimizer, iteration)
        return vec, obj, start_obj

    return _run_iterations(folds, env, config, step)


def fle_run(data: Dataset, env: LQREnv, config: FDEConfig, rng: np.random.Generator,
            mc_samples: int = 1):
    """Likelihood baseline: fit to Monte-Carlo draws from the backup law.

    Per iteration, each transition contributes ``mc_samples`` draws
    z' ~ N(backup mean, gamma^2 * return variance), fixed for the whole fold
    fit; the objective is the mean Gaussian negative log-likelihood.
    """
    if mc_samples < 1:
        raise InvalidInput("mc_samples must be >= 1")
    t = _resolve_t(data, env, config)
    folds = split_dataset(data, t)
    model_var = env.return_variance
    log_norm = 0.5 * math.log(2.0 * math.pi * model_var)

    def step(fold, start, theta_prev, iteration):
        problem = _FoldProblem(fold, env, theta_prev)
        draws = rng.normal(
            loc=np.repeat(problem.target_means, mc_samples),
            scale=math.sqrt(problem.target_var),
        )
        feats = np.repeat(problem.features, mc_samples, axis=0)

        def fun_jac(vec):
            resid = feats @ vec - draws
            obj = log_norm + float(np.mean(resid**2)) / (2.0 * model_var)
            grad = feats.T @ resid / (len(resid) * model_var)
            return obj, grad

        start_obj = fun_jac(start)[0]
        result = optimize.minimize(
            fun_jac, start, jac=True, method="L-BFGS-B",
            options={
                "maxfun": config.optimizer.max_evals,
                "gtol": config.optimizer.tolerance,
                "ftol": 1e-14,
            },
        )
        if not np.isfinite(result.fun):
            raise OptimizationFailure("non-finite objective", iteration=iteration)
        if start_obj < result.fun:
            return start, start_obj, start_obj
        return result.x, float(result.fun), start_obj

    return _run_iterations(folds, env, config, step)
