"""Ground-truth comparison via occupancy-weighted Wasserstein-1 inaccuracy.

For the LQR model family both the estimate and the truth are Gaussians with
the same variance at every (x, a), so the per-pair W1 distance reduces to
the absolute mean gap and the expectation extension is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import LQRTheta
from .errors import InvalidInput
from .metrics import ExtensionSpec, MetricSpec, metric_extension


@dataclass(frozen=True)
class InaccuracyReport:
    """One experiment cell: estimator quality plus run bookkeeping.

    ``not_converged`` counts the folds whose L-BFGS-B exit reported failure;
    it is 0 on tabular cells, which fit no parameters, and on failed cells.
    """

    method: str
    n: int
    rep: int
    seed: int
    t_used: int
    inaccuracy: float
    runtime_ms: float
    failed: bool = False
    not_converged: int = 0

    def __post_init__(self):
        if not self.failed and not (np.isfinite(self.inaccuracy) and self.inaccuracy >= 0):
            raise InvalidInput("inaccuracy must be finite and nonnegative")


def lqr_inaccuracy(
    theta: LQRTheta,
    theta_star: LQRTheta,
    dpi_states: np.ndarray,
    dpi_actions: np.ndarray,
) -> float:
    """Expectation-extended W1 between the model table and the truth.

    Per occupancy point the distributions are equal-variance Gaussians, so
    W1 is the location shift |mu_theta - mu_star|; the order-1 extension
    with uniform weights is then a root mean square.
    """
    if len(dpi_states) == 0:
        raise InvalidInput("occupancy sample must be nonempty")
    gaps = np.abs(
        theta.mean_batch(dpi_states, dpi_actions)
        - theta_star.mean_batch(dpi_states, dpi_actions)
    )
    return float(np.mean(gaps ** 2.0) ** 0.5)


def tabular_inaccuracy(u_hat: dict, u_true: dict, dpi_weights: dict) -> float:
    """Occupancy-weighted order-1 expectation extension of W1 between return tables."""
    ext = ExtensionSpec("expectation", weights=dpi_weights)
    return metric_extension(MetricSpec("wasserstein"), ext, u_hat, u_true)
