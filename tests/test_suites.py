"""Smoke tests for the property suites at reduced sizes.

Full-scale runs with the contract tolerances live in the acceptance tests;
here each suite is exercised quickly to pin its report shape and behavior.
"""

import numpy as np
import pytest

import oracles
from fdeval import suites
from fdeval.divergences import DivergenceSpec, _kl_mc, divergence_gmm
from fdeval.errors import InvalidInput
from fdeval.suites import (
    closed_forms_suite,
    contraction_suite,
    minimizer_suite,
    run_property_suite,
    sandwich_suite,
    slc_suite,
    telescoping_suite,
)


def _check_shape(report, suite):
    assert report["suite"] == suite
    assert report["passed"] == (not report["violations"])
    assert report["trials"] > 0


def test_contraction_small():
    report = contraction_suite(seed=3, trials=10)
    _check_shape(report, "contraction")
    assert report["passed"]


def test_minimizer_small():
    report = minimizer_suite(seed=3, mc_samples=2000)
    _check_shape(report, "minimizer")
    assert report["passed"]


@pytest.mark.parametrize("seed", range(16))
def test_minimizer_passes_at_default_samples(seed):
    report = minimizer_suite(seed=seed)
    assert report["passed"], report["violations"][:3]


def test_telescoping_small():
    report = telescoping_suite(seed=3, runs=5)
    _check_shape(report, "telescoping")
    assert report["passed"]


def test_sandwich_small():
    report = sandwich_suite(seed=3, trials=50)
    _check_shape(report, "sandwich")
    assert report["passed"]


def test_slc_small_with_control():
    report = slc_suite(seed=3, trials=40)
    _check_shape(report, "slc")
    assert report["passed"]
    # the deliberately wrong constant must trip the checker
    assert report["control_detected"]


def test_closed_forms_small():
    # few pairs and modest MC so this stays fast; the 3-SE margin is loose
    # enough that a handful of checks passes with high probability
    report = closed_forms_suite(seed=3, pairs=3, mc_n=200_000)
    _check_shape(report, "closed_forms")
    assert report["passed"]


def test_dispatch_and_unknown_suite():
    report = run_property_suite("sandwich", seed=1)
    assert report["suite"] == "sandwich"
    with pytest.raises(InvalidInput):
        run_property_suite("nope", seed=0)


_COUNTS = [
    (contraction_suite, "trials"),
    (sandwich_suite, "trials"),
    (slc_suite, "trials"),
    (telescoping_suite, "runs"),
    (closed_forms_suite, "pairs"),
    (closed_forms_suite, "mc_n"),
    (minimizer_suite, "mc_samples"),
]


@pytest.mark.parametrize("value", [0, 2.5, True])
@pytest.mark.parametrize("suite, count", _COUNTS)
def test_suite_counts_must_be_positive_integers(suite, count, value):
    """Zero trials reported passed: True having checked nothing; 2.5 escaped
    as a TypeError from range and True ran one trial."""
    with pytest.raises(InvalidInput, match=count):
        suite(0, **{count: value})


@pytest.mark.parametrize("seed", [-1, 2.5, True, "0"])
def test_run_property_suite_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    with pytest.raises(InvalidInput, match="seed"):
        run_property_suite("sandwich", seed=seed)


def _same_report(new, old):
    assert {k: v for k, v in new.items() if k != "violations"} == {
        k: v for k, v in old.items() if k != "violations"
    }
    assert len(new["violations"]) == len(old["violations"])
    for v, w in zip(new["violations"], old["violations"]):
        assert v == pytest.approx(w, rel=1e-12)


def _slc_by_trial_loop(seed, trials, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(suites, "slc_property_check", oracles.slc_property_check)
        return slc_suite(seed, trials)


# the seeds of the property-suites benchmark
@pytest.mark.parametrize("seed", range(16))
def test_batched_suites_report_what_the_trial_loops_reported(seed, monkeypatch):
    _same_report(sandwich_suite(seed, 60), oracles.sandwich_suite(seed, 60))
    _same_report(contraction_suite(seed, 6), oracles.contraction_suite(seed, 6))
    _same_report(slc_suite(seed, 15), _slc_by_trial_loop(seed, 15, monkeypatch))


def test_batched_suites_report_what_the_trial_loops_reported_at_full_size(monkeypatch):
    _same_report(sandwich_suite(0), oracles.sandwich_suite(0))
    _same_report(contraction_suite(0), oracles.contraction_suite(0))
    _same_report(slc_suite(0), _slc_by_trial_loop(0, 200, monkeypatch))


def test_batched_suites_record_every_failed_check_in_order(monkeypatch):
    """With a slack of -1e9 every check of every trial fails, so the records
    show their order and every value they carry."""
    for module in (suites, oracles):
        monkeypatch.setattr(module, "_TOL", -1e9)
    sandwich = sandwich_suite(4, 30)
    assert len(sandwich["violations"]) == 90
    _same_report(sandwich, oracles.sandwich_suite(4, 30))
    contraction = contraction_suite(4, 5)
    assert len(contraction["violations"]) == 20
    _same_report(contraction, oracles.contraction_suite(4, 5))


def test_minimizer_kl_scores_are_the_per_candidate_scores(monkeypatch):
    """One draw per (pair, backup) scores all candidates; each score is
    bit-identical to divergence_gmm on that candidate with the same stream."""
    kl, seen = DivergenceSpec("kl"), []

    def checked(models, q, rng, mc_samples):
        state = rng.bit_generator.state
        per_candidate = []
        for model in models:
            own = np.random.default_rng()
            own.bit_generator.state = state
            per_candidate.append(divergence_gmm(kl, model, q, rng=own, mc_samples=mc_samples))
        scores = _kl_mc(models, q, rng, mc_samples)
        assert scores == per_candidate
        seen.append(len(scores))
        return scores

    monkeypatch.setattr(suites, "_kl_mc", checked)
    for seed in (0, 1):
        assert minimizer_suite(seed, mc_samples=500)["passed"]
    assert len(seen) == 2 * 4 * 2 and set(seen) == {5}
