"""Distributional off-policy evaluation toolkit.

Fitted distributional evaluation with pluggable divergences, exact
distributional Bellman machinery for tabular MDPs, an LQR benchmark with
closed-form ground truth, and a seeded experiment harness.
"""

__version__ = "0.1.0"

from .bellman import Policy, TabularMDP, apply_bellman, solve_return_fixed_point
from .distributions import Atomic, GaussianMixture1D
from .divergences import DivergenceSpec
from .envs import Dataset, LQREnv, LQRTheta, lqr_collect, lqr_true_params
from .errors import FdevalError, InvalidInput, NonConvergence, OptimizationFailure
from .evaluation import InaccuracyReport, lqr_inaccuracy, tabular_inaccuracy
from .fde import choose_t, fde_run, fle_run, split_dataset
from .harness import ExperimentConfig, run_experiment, write_reports
from .metrics import ExtensionSpec, MetricSpec, contraction_factor, metric_extension, wasserstein_1d
from .suites import run_property_suite
