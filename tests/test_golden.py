"""Golden values: the inaccuracy of a small seeded sweep, pinned.

A refactor must leave every number bit-identical, so these values catch one
that moves a number.  A change that moves numbers on purpose re-records them
and says so in CHANGES.md.
"""

import pytest

from fdeval.harness import ExperimentConfig, run_experiment

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
