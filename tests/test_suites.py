"""Smoke tests for the property suites at reduced sizes.

Full-scale runs with the contract tolerances live in the acceptance tests;
here each suite is exercised quickly to pin its report shape and behavior.
"""

import pytest

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
