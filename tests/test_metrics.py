"""Tests for metrics, table extensions and contraction constants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from fdeval import metrics
from fdeval.distributions import Atomic
from fdeval.divergences import energy_mmd2_rows
from fdeval.errors import InvalidInput
from fdeval.metrics import (
    ExtensionSpec,
    MetricSpec,
    _padded,
    contraction_factor,
    metric_extension,
    slc_property_check,
    wasserstein_1d,
    wasserstein_rows,
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


@pytest.mark.parametrize("ext", [ExtensionSpec("supremum"), ExtensionSpec("expectation")])
def test_metric_extension_rejects_an_empty_index_set(ext):
    # used to escape as ValueError (supremum) or ZeroDivisionError (expectation)
    with pytest.raises(InvalidInput, match="nonempty index set"):
        metric_extension(MetricSpec("wasserstein"), ext, {}, {})


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


def _random_rows(rng, n_rows, max_atoms=10):
    """Random measures of 1 to max_atoms atoms: locations on a coarse grid
    (ties), masses from a few halves and quarters (tied CDFs across the pair)
    or a Dirichlet draw, and now and then a zero-mass atom."""
    measures = []
    for _ in range(n_rows):
        k = int(rng.integers(1, max_atoms + 1))
        locs = np.round(rng.normal(0.0, 2.0, size=k), 1)
        if rng.random() < 0.5:
            masses = rng.choice([0.0, 0.25, 0.5, 1.0], size=k)
            masses[0] += masses.sum() == 0
            masses = masses / masses.sum()
        else:
            masses = rng.dirichlet(np.ones(k))
            if k > 1 and rng.random() < 0.3:
                masses[rng.integers(k)] = 0.0
                masses = masses / masses.sum()
        measures.append(Atomic(locs, masses))
    return measures


def _as_rows(measures):
    return _padded([(m.locations, m.masses) for m in measures])


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_wasserstein_rows_match_the_per_call_oracles(p):
    """Every row of a padded batch against the per-call quantile coupling it
    replaced and the segment-midpoint reference, one-atom rows included."""
    rng = np.random.default_rng(int(p * 10))
    a, b = _random_rows(rng, 300), _random_rows(rng, 300)
    a[0], b[1] = Atomic([1.5], [1.0]), Atomic([-0.5], [1.0])
    got = wasserstein_rows(p, _as_rows(a), _as_rows(b))
    for value, x, y in zip(got, a, b):
        assert value == pytest.approx(oracles.wasserstein_1d(p, x, y), rel=1e-12, abs=0.0)
        # the midpoint reference can charge a one-ulp segment to its left atom
        assert value == pytest.approx(_reference_wasserstein_1d(p, x, y), rel=1e-12, abs=1e-14)


def test_wasserstein_rows_take_one_order_per_row():
    rng = np.random.default_rng(5)
    a, b = _as_rows(_random_rows(rng, 60)), _as_rows(_random_rows(rng, 60))
    orders = 1.0 + np.arange(60) % 3
    by_order = {p: wasserstein_rows(p, a, b) for p in (1.0, 2.0, 3.0)}
    expected = [by_order[p][i] for i, p in enumerate(orders)]
    assert wasserstein_rows(orders, a, b).tolist() == expected


def test_wasserstein_rows_allow_zero_mass_atoms_inside_a_row():
    """A two-part mixture is the two padded rows side by side, so the pads of
    the first part sit inside the row; they carry no mass and change nothing."""
    rng = np.random.default_rng(6)
    x, x2, y, y2 = (_random_rows(rng, 100, max_atoms=5) for _ in range(4))
    lam = rng.uniform(0.05, 0.95, size=(100, 1))

    def side_by_side(first, second):
        (l1, m1), (l2, m2) = _as_rows(first), _as_rows(second)
        return np.hstack([l1, l2]), np.hstack([lam * m1, (1.0 - lam) * m2])

    got = wasserstein_rows(2.0, side_by_side(x, x2), side_by_side(y, y2))
    for i, value in enumerate(got):
        w = float(lam[i, 0])
        mixed1 = Atomic(np.concatenate([x[i].locations, x2[i].locations]),
                        np.concatenate([w * x[i].masses, (1.0 - w) * x2[i].masses]))
        mixed2 = Atomic(np.concatenate([y[i].locations, y2[i].locations]),
                        np.concatenate([w * y[i].masses, (1.0 - w) * y2[i].masses]))
        assert value == pytest.approx(oracles.wasserstein_1d(2.0, mixed1, mixed2), rel=1e-12, abs=0.0)


def test_energy_rows_match_the_per_call_oracle():
    rng = np.random.default_rng(7)
    a, b = _random_rows(rng, 300), _random_rows(rng, 300)
    a[0], b[0] = Atomic([1.5], [1.0]), Atomic([1.5], [1.0])  # exactly 0
    got = energy_mmd2_rows(_as_rows(a), _as_rows(b))
    for value, x, y in zip(got, a, b):
        assert value == pytest.approx(oracles.energy_mmd2(x, y), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("metric", [
    MetricSpec("wasserstein", p=1.0), MetricSpec("wasserstein", p=2.0),
    MetricSpec("energy"), MetricSpec("cramer"),
])
def test_one_row_evaluation_and_extension_match_the_per_call_oracles(metric):
    rng = np.random.default_rng(8)
    a, b = _random_rows(rng, 40), _random_rows(rng, 40)
    for x, y in zip(a, b):
        assert metric.evaluate(x, y) == pytest.approx(oracles.evaluate(metric, x, y), rel=1e-12, abs=1e-14)
    t1, t2 = dict(enumerate(a)), dict(enumerate(b))
    weights = dict(enumerate(rng.dirichlet(np.ones(40))))
    for ext in (ExtensionSpec("supremum"), ExtensionSpec("expectation", q=metric.q, weights=weights)):
        assert metric_extension(metric, ext, t1, t2) == pytest.approx(
            oracles.metric_extension(metric, ext, t1, t2), rel=1e-12
        )


@pytest.mark.parametrize("metric", [
    MetricSpec("wasserstein", p=1.0), MetricSpec("wasserstein", p=2.0),
    MetricSpec("energy"), MetricSpec("cramer"),
])
@pytest.mark.parametrize("c_override", [None, 2.0])
def test_slc_check_reports_what_the_trial_loop_reported(metric, c_override):
    """Same violations in the same order, with the same values, as the
    trial-by-trial check on Atomic measures; c = 2 makes every scale check
    fail, so the records are many."""
    for seed in (0, 1):
        new = slc_property_check(metric, 60, np.random.default_rng(seed), c_override=c_override)
        old = oracles.slc_property_check(metric, 60, np.random.default_rng(seed), c_override=c_override)
        assert new["trials"] == old["trials"]
        assert [(v["trial"], v["property"]) for v in new["violations"]] == [
            (v["trial"], v["property"]) for v in old["violations"]
        ]
        for v, w in zip(new["violations"], old["violations"]):
            assert v == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("trials", [0, 2.5, True])
def test_slc_check_trials_must_be_a_positive_integer(trials):
    with pytest.raises(InvalidInput, match="trials"):
        slc_property_check(MetricSpec("wasserstein"), trials, np.random.default_rng(0))


def test_slc_check_records_every_failed_check_in_trial_order(monkeypatch):
    """With a slack of -1e9 every check of every trial fails, so the records
    show the order: by trial, then scale, location, convexity."""
    monkeypatch.setattr(metrics, "_SLC_TOL", -1e9)
    monkeypatch.setattr(oracles, "_TOL", -1e9)
    for metric in (MetricSpec("wasserstein", p=2.0), MetricSpec("cramer")):
        new = slc_property_check(metric, 20, np.random.default_rng(3))
        old = oracles.slc_property_check(metric, 20, np.random.default_rng(3))
        assert len(new["violations"]) == len(old["violations"]) == 60
        for v, w in zip(new["violations"], old["violations"]):
            assert v == pytest.approx(w, rel=1e-12)
