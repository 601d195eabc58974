"""Tests for the distribution carriers and their primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdeval.distributions import Atomic, GaussianMixture1D, mixture, push_forward
from fdeval.errors import InvalidInput


def test_gaussian_rejects_nonpositive_variance():
    for var in (0.0, -1.0):
        with pytest.raises(InvalidInput):
            GaussianMixture1D(((0.5, 0.0, 1.0), (0.5, 1.0, var)))


def test_mixture_weights_must_normalize():
    with pytest.raises(InvalidInput):
        GaussianMixture1D(((0.5, 0.0, 1.0), (0.6, 1.0, 1.0)))
    with pytest.raises(InvalidInput):
        Atomic(np.zeros(2), np.array([0.5, 0.6]))


def test_atomic_is_a_1d_measure():
    locs = np.array([2.0, -1.0])
    a = Atomic(locs, [0.5, 0.5])
    assert a.locations.shape == (2,) and not a.locations.flags.writeable
    locs[0] = 7.0  # the caller's array stays its own
    assert a.locations[0] == 2.0
    for bad_locs, masses in ((np.zeros((2, 1)), [0.5, 0.5]), ([0.0, 1.0], [1.0]), ([], [])):
        with pytest.raises(InvalidInput):
            Atomic(bad_locs, masses)
    with pytest.raises(InvalidInput):
        mixture([(1.0, GaussianMixture1D(((1.0, 0.0, 1.0),)))])


def test_public_constructor_copies_and_freezes_both_arrays():
    locs, masses = np.array([2.0, -1.0]), np.array([0.25, 0.75])
    a = Atomic(locs, masses)
    locs[:] = 7.0
    masses[:] = 0.5
    np.testing.assert_array_equal(a.locations, [2.0, -1.0])
    np.testing.assert_array_equal(a.masses, [0.25, 0.75])
    for stored in (a.locations, a.masses):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0


def test_owned_constructor_adopts_the_arrays_read_only():
    locs, masses = np.array([2.0, -1.0]), np.array([0.25, 0.75])
    a = Atomic._owned(locs, masses)
    assert a.locations is locs and a.masses is masses
    assert not locs.flags.writeable and not masses.flags.writeable


def test_owned_constructor_keeps_every_check():
    with pytest.raises(InvalidInput, match="nonnegative"):
        Atomic._owned(np.array([0.0, 1.0]), np.array([1.5, -0.5]))
    with pytest.raises(InvalidInput, match="sum to"):
        Atomic._owned(np.array([0.0, 1.0]), np.array([0.5, 0.6]))
    with pytest.raises(InvalidInput, match="equal length"):
        Atomic._owned(np.array([0.0, 1.0]), np.array([1.0]))
    with np.errstate(over="ignore"), pytest.raises(InvalidInput, match="finite"):
        push_forward(Atomic([1e308], [1.0]), 1e308, 0.99)  # r + gamma * x overflows to inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_atomic_rejects_non_finite_locations(bad):
    # a NaN atom used to pass, and grid compaction then dropped its mass
    # silently while the Wasserstein distance returned nan or inf
    with pytest.raises(InvalidInput, match="finite"):
        Atomic([bad, 1.0], [0.5, 0.5])


def test_push_forward_atomic_shifts_and_scales():
    a = Atomic([0.0, 2.0], [0.3, 0.7])
    out = push_forward(a, 1.0, 0.9)
    np.testing.assert_allclose(out.locations, [1.0, 2.8])
    np.testing.assert_allclose(out.masses, a.masses)


def test_mixture_checks_weights_at_the_atomic_mass_tolerance():
    a = Atomic([0.0], [1.0])
    b = Atomic([1.0], [1.0])
    with pytest.raises(InvalidInput, match="mixture weights sum to"):
        mixture([(0.5 + 5e-10, a), (0.5, b)])


def test_mixture_of_atomics_concatenates():
    a = Atomic([0.0], [1.0])
    b = Atomic([1.0, 2.0], [0.5, 0.5])
    mixed = mixture([(0.5, a), (0.5, b)])
    np.testing.assert_allclose(mixed.masses, [0.5, 0.25, 0.25])


@settings(max_examples=40, deadline=None)
@given(
    locs=st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    r=st.floats(-10, 10),
    gamma=st.floats(0.0, 0.99),
)
def test_push_forward_mean_identity(locs, r, gamma):
    """mean(r + gamma X) == r + gamma mean(X) for atomic carriers."""
    n = len(locs)
    a = Atomic(locs, np.full(n, 1.0 / n))
    out = push_forward(a, r, gamma)
    mean = a.masses @ a.locations
    assert out.masses @ out.locations == pytest.approx(r + gamma * mean, abs=1e-9)
