"""Tests for metrics, table extensions and contraction constants."""

import numpy as np
import pytest
from scipy import stats

from fdeval.distributions import Atomic
from fdeval.errors import InvalidInput
from fdeval.metrics import (
    ExtensionSpec,
    MetricSpec,
    contraction_factor,
    metric_extension,
    slc_property_check,
    wasserstein_1d,
)


def test_w1_atomic_matches_scipy():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k1, k2 = rng.integers(1, 7, size=2)
        l1, m1 = rng.normal(0, 3, k1), rng.dirichlet(np.ones(k1))
        l2, m2 = rng.normal(0, 3, k2), rng.dirichlet(np.ones(k2))
        ours = wasserstein_1d(1.0, Atomic(l1, m1), Atomic(l2, m2))
        oracle = stats.wasserstein_distance(l1, l2, m1, m2)
        assert ours == pytest.approx(oracle, abs=1e-10)


def test_w2_atomic_hand_case():
    # uniform two-point vs one atom: W2^2 = 0.5 * (1^2 + 1^2)
    p = Atomic([0.0, 2.0], [0.5, 0.5])
    q = Atomic([1.0], [1.0])
    assert wasserstein_1d(2.0, p, q) == pytest.approx(1.0)


def test_metric_spec_default_constants():
    w2 = MetricSpec("wasserstein", p=2.0)
    assert (w2.c, w2.q) == (1.0, 2.0)
    en = MetricSpec("energy")
    assert (en.c, en.q) == (0.5, 1.0)
    cr = MetricSpec("cramer")
    assert (cr.c, cr.q) == (0.5, 2.0)


def test_metric_extension_hand_check():
    metric = MetricSpec("wasserstein", p=1.0)
    t1 = {"a": Atomic([0.0], [1.0]), "b": Atomic([0.0], [1.0])}
    t2 = {"a": Atomic([1.0], [1.0]), "b": Atomic([3.0], [1.0])}
    assert metric_extension(metric, ExtensionSpec("supremum"), t1, t2) == pytest.approx(3.0)
    ext = ExtensionSpec("expectation", q=1.0, weights={"a": 0.5, "b": 0.5})
    # (0.5 * 1^2 + 0.5 * 3^2)^(1/2)
    assert metric_extension(metric, ext, t1, t2) == pytest.approx(np.sqrt(5.0))


def test_metric_extension_index_mismatch():
    metric = MetricSpec("wasserstein")
    t1 = {"a": Atomic([0.0], [1.0])}
    t2 = {"b": Atomic([0.0], [1.0])}
    with pytest.raises(InvalidInput):
        metric_extension(metric, ExtensionSpec("supremum"), t1, t2)


def test_contraction_factor_values():
    w1 = MetricSpec("wasserstein", p=1.0)
    assert contraction_factor(w1, ExtensionSpec("supremum"), 0.9) == pytest.approx(0.9)
    ext = ExtensionSpec("expectation", q=1.0)
    assert contraction_factor(w1, ext, 0.9) == pytest.approx(0.9**0.5)
    w2 = MetricSpec("wasserstein", p=2.0)
    assert contraction_factor(w2, ExtensionSpec("expectation", q=2.0), 0.9) == pytest.approx(
        0.9**0.75
    )
    # energy MMD has c = 1/2 = 1/(2q) at q = 1: no expectation guarantee
    en = MetricSpec("energy")
    with pytest.raises(InvalidInput):
        contraction_factor(en, ExtensionSpec("expectation", q=1.0), 0.9)


def test_slc_check_passes_for_true_constants():
    metric = MetricSpec("wasserstein", p=1.0)
    report = slc_property_check(metric, 100, np.random.default_rng(0))
    assert report["violations"] == []


def test_slc_check_detects_wrong_scale_constant():
    metric = MetricSpec("wasserstein", p=1.0)
    report = slc_property_check(metric, 100, np.random.default_rng(0), c_override=2.0)
    assert any(v["property"] == "scale" for v in report["violations"])


@pytest.mark.parametrize("p", [0.5, float("nan")])
def test_wasserstein_order_below_one_or_nan_is_rejected(p):
    a = Atomic([0.0], [1.0])
    with pytest.raises(InvalidInput):
        wasserstein_1d(p, a, Atomic([1.0], [1.0]))


@pytest.mark.parametrize("weights", [{"x": 2.0, "y": -1.0}, {"x": float("nan"), "y": 1.0}])
def test_expectation_weights_must_be_nonnegative(weights):
    """Weights 2 and -1 sum to 1, yet gave W1 = sqrt(2) between tables whose
    entries are at most 1 apart; an occupancy weighting is never negative."""
    with pytest.raises(InvalidInput, match=">= 0"):
        ExtensionSpec("expectation", weights=weights)
