"""Tests for metrics, table extensions and contraction constants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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


def _reference_wasserstein_1d(p, dist1, dist2):
    """Oracle: the quantile-segment coupling that wasserstein_1d replaced,
    with unique cuts, segment midpoints and a mask of zero widths."""

    def sorted_atoms(a):
        order = np.argsort(a.locations, kind="stable")
        return a.locations[order], a.masses[order]

    zp, mp = sorted_atoms(dist1)
    zq, mq = sorted_atoms(dist2)
    cp, cq = np.cumsum(mp), np.cumsum(mq)
    cuts = np.unique(np.concatenate([cp, cq, [0.0]]))
    cuts = cuts[(cuts >= 0.0) & (cuts <= 1.0)]
    if cuts[-1] < 1.0:
        cuts = np.append(cuts, 1.0)
    widths = np.diff(cuts)
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    qp = zp[np.minimum(np.searchsorted(cp, mids), zp.size - 1)]
    qq = zq[np.minimum(np.searchsorted(cq, mids), zq.size - 1)]
    keep = widths > 0
    return float(np.sum(widths[keep] * np.abs(qp[keep] - qq[keep]) ** p) ** (1.0 / p))


@st.composite
def _atomic_measures(draw):
    """1 to 8 atoms, locations often repeated, masses often zero (also at
    both ends of the support), and a mass sum a few ulps off 1."""
    n = draw(st.integers(1, 8))
    location = st.sampled_from([-2.0, 0.0, 0.5, 3.0]) | st.floats(-50.0, 50.0)
    locs = draw(st.lists(location, min_size=n, max_size=n))
    raw = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                                 min_size=n, max_size=n)))
    if raw.sum() == 0:
        raw[0] = 1.0
    masses = raw / raw.sum()
    if draw(st.booleans()):
        locs = [min(locs) - draw(st.floats(0.0, 1e3)), *locs, max(locs) + draw(st.floats(0.0, 1e3))]
        masses = np.concatenate([[0.0], masses, [0.0]])
    masses[np.argmax(masses)] += draw(st.integers(-4, 4)) * np.finfo(float).eps
    return Atomic(locs, masses)


@settings(max_examples=400, deadline=None)
@given(p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), a=_atomic_measures(), b=_atomic_measures())
# the CDF of a ends one ulp below 1, so its zero-mass atom at 100 carries
# the last 1.1e-16 of the coupling
@example(p=3.0, a=Atomic([0.0, 1.0, 100.0], [0.5, 0.5 - 2.0**-53, 0.0]), b=Atomic([1.0], [1.0]))
def test_wasserstein_matches_the_quantile_segment_reference(p, a, b):
    """Compared as p-th powers, the sums over segments.  The floor covers
    segments one ulp wide or subnormal: there the reference's midpoint can
    round onto the left cut and charge the segment to the atom below it."""
    locs = np.concatenate([a.locations, b.locations])
    floor = locs.size * np.finfo(float).eps * (locs.max() - locs.min()) ** p
    assert wasserstein_1d(p, a, b) ** p == pytest.approx(
        _reference_wasserstein_1d(p, a, b) ** p, rel=1e-12, abs=floor
    )


def test_wasserstein_charges_a_subnormal_segment_to_its_own_atom():
    """The reference gives 6.0e-216: the midpoint of (0, 5e-324] rounds to
    0, so the segment went to the zero-mass atom at -2."""
    b = Atomic([0.0, 0.0, -2.0], [5e-324, 1.0, 0.0])
    assert wasserstein_1d(1.5, Atomic([0.0], [1.0]), b) == 0.0


def test_wasserstein_zero_width_segments_add_nothing_where_the_cost_overflows():
    """Both CDFs end at 1, so the coupling has zero-width segments, here
    with |gap|^2 = inf, and 0 * inf must not turn the distance into NaN."""
    with np.errstate(over="ignore"):
        assert wasserstein_1d(2.0, Atomic([-1e200], [1.0]), Atomic([1e200], [1.0])) == np.inf


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


# an infinite order returned 1.0 for every pair, since x ** (1 / inf) == 1
# an infinite order returned 1.0 for every pair, since x ** (1 / inf) == 1
@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_wasserstein_order_below_one_or_nan_is_rejected(p):
    a = Atomic([0.0], [1.0])
    for b in (a, Atomic([1.0], [1.0]), Atomic([3.0], [1.0])):
        with pytest.raises(InvalidInput):
            wasserstein_1d(p, a, b)


@pytest.mark.parametrize("weights", [{"x": 2.0, "y": -1.0}, {"x": float("nan"), "y": 1.0}])
def test_expectation_weights_must_be_nonnegative(weights):
    """Weights 2 and -1 sum to 1, yet gave W1 = sqrt(2) between tables whose
    entries are at most 1 apart; an occupancy weighting is never negative."""
    with pytest.raises(InvalidInput, match=">= 0"):
        ExtensionSpec("expectation", weights=weights)
