"""Golden values: the inaccuracy of a small seeded sweep, pinned.

A refactor must leave every number bit-identical, so these values catch one
that moves a number.  A change that moves numbers on purpose re-records them
and says so in CHANGES.md.
"""

import numpy as np
import pytest

from fdeval.distributions import Atomic, GaussianMixture1D
from fdeval.divergences import DivergenceSpec, divergence_gmm
from fdeval.harness import ExperimentConfig, run_experiment
from fdeval.metrics import wasserstein_1d

LQR_SEED_3_N_300 = {
    "cramer": 4.421848215794151,
    "energy": 4.421848655414638,
    "fle": 26.137587271455786,
    "kl": 4.421668771104279,
    "laplace": 4.421584394510143,
    "pdf_l2": 4.421591306084729,
    "rbf": 4.4215913567806755,
}
TABULAR_2X1_SEED_3_N_300 = 6.827727556358773
# two actions, so the policy's mixing order reaches the score
TABULAR_2X2_GAMMA_05_SEED_3_N_300 = 0.8383285999587875
# KL(TARGET_6 || MODEL_12) by Monte Carlo, default_rng(0), 4000 draws per
# target component
KL_MODEL_12_TARGET_6_SEED_0 = 0.3991266860042442
# Wasserstein-p between ATOMS_A and ATOMS_B, for p = 1, 2, 3
W_P_A_B = {1.0: 2.9625, 2.0: 3.491507554051689, 3.0: 3.8604378871358356}

MODEL_12 = GaussianMixture1D(tuple(
    (1.0 / 12, -5.5 + i, 0.25 + 0.125 * (i % 4)) for i in range(12)))
TARGET_6 = GaussianMixture1D(tuple(zip(
    (0.3, 0.2, 0.15, 0.15, 0.1, 0.1),
    (-3.0, -1.0, 0.5, 2.0, 4.0, 6.5),
    (0.5, 2.0, 0.1, 1.0, 4.0, 0.3),
)))
# a repeated location and unsorted atoms
ATOMS_A = Atomic([3.0, -1.0, 0.5, -1.0, 7.25], [0.1, 0.3, 0.2, 0.15, 0.25])
ATOMS_B = Atomic([0.0, 2.0, -4.0, 1.5], [0.4, 0.05, 0.35, 0.2])


def test_lqr_sweep_inaccuracy_is_pinned():
    reports = run_experiment(ExperimentConfig(n_list=(300,), reps=1, master_seed=3))
    assert not any(r.failed for r in reports)
    assert {r.method: r.inaccuracy for r in reports} == pytest.approx(LQR_SEED_3_N_300, rel=1e-12)


def test_tabular_cell_inaccuracy_is_pinned():
    (report,) = run_experiment(ExperimentConfig(
        experiment="tabular", methods=("energy",), n_list=(300,), reps=1,
        tabular_states=2, tabular_actions=1, master_seed=3,
    ))
    assert not report.failed
    assert report.inaccuracy == pytest.approx(TABULAR_2X1_SEED_3_N_300, rel=1e-12)


def test_multi_action_tabular_cell_inaccuracy_is_pinned():
    (report,) = run_experiment(ExperimentConfig(
        experiment="tabular", methods=("energy",), n_list=(300,), reps=1,
        tabular_states=2, tabular_actions=2, tabular_gamma=0.5, master_seed=3,
    ))
    assert not report.failed
    assert report.inaccuracy == pytest.approx(TABULAR_2X2_GAMMA_05_SEED_3_N_300, rel=1e-12)


def test_mixture_kl_estimate_is_pinned():
    kl = divergence_gmm(
        DivergenceSpec("kl"), MODEL_12, TARGET_6, rng=np.random.default_rng(0), mc_samples=4000
    )
    assert kl == pytest.approx(KL_MODEL_12_TARGET_6_SEED_0, rel=1e-12)


@pytest.mark.parametrize("p", sorted(W_P_A_B))
def test_wasserstein_p_is_pinned(p):
    assert wasserstein_1d(p, ATOMS_A, ATOMS_B) == pytest.approx(W_P_A_B[p], rel=1e-12)
