"""Tests for the exact tabular distributional Bellman machinery."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdeval.bellman import (
    Policy,
    TabularMDP,
    apply_bellman,
    bellman_backup,
    compact_atoms,
    solve_return_fixed_point,
    sup_w1,
    zero_table,
)
from fdeval.distributions import Atomic
from fdeval.errors import InvalidInput, NonConvergence
from fdeval.metrics import wasserstein_1d


def _mean(dist):
    return float(dist.masses @ dist.locations)


def single_loop_mdp(gamma=0.9, reward=1.0):
    return TabularMDP(1, 1, {(0, 0): ((1.0, reward, 0),)}, gamma)


def two_state_mdp(gamma=0.8):
    """Deterministic cycle 0 -> 1 -> 0 with distinct rewards."""
    transitions = {
        (0, 0): ((1.0, 1.0, 1),),
        (1, 0): ((1.0, 2.0, 0),),
    }
    return TabularMDP(2, 1, transitions, gamma)


def test_mdp_validation():
    with pytest.raises(InvalidInput):
        TabularMDP(1, 1, {(0, 0): ((0.5, 1.0, 0),)}, 0.9)  # probs don't sum to 1
    with pytest.raises(InvalidInput):
        TabularMDP(1, 1, {}, 0.9)  # missing row
    with pytest.raises(InvalidInput):
        single_loop_mdp(gamma=1.0)


def test_policy_validation():
    with pytest.raises(InvalidInput):
        Policy(np.array([[0.5, 0.4]]))
    pi = Policy.deterministic([1, 0], 2)
    np.testing.assert_array_equal(pi.probs, [[0.0, 1.0], [1.0, 0.0]])


def test_backup_single_sample():
    mdp = single_loop_mdp()
    pi = Policy.uniform(1, 1)
    table = {(0, 0): Atomic([10.0], [1.0])}
    out = bellman_backup(0.5, 0, table, pi, 0.9)
    np.testing.assert_allclose(out.locations, [0.5 + 0.9 * 10.0])


def test_compact_atoms_preserves_mean():
    dist = Atomic([0.123, 0.9871, 2.5], [0.3, 0.3, 0.4])
    out = compact_atoms(dist, grid=0.25)
    assert _mean(out) == pytest.approx(_mean(dist), abs=1e-12)
    grid_pts = out.locations / 0.25
    np.testing.assert_allclose(grid_pts, np.round(grid_pts), atol=1e-9)


def test_compact_atoms_merges_duplicates():
    dist = Atomic([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    out = compact_atoms(dist)
    np.testing.assert_allclose(out.locations, [1.0, 2.0])
    np.testing.assert_allclose(out.masses, [0.5, 0.5])


def _compact_atoms_scan(dist, grid=None):
    """Reference for compact_atoms: one pass over the sorted atoms, merging
    each atom into the open group when it lies at the group's location."""
    locs, masses = dist.locations, dist.masses
    if grid is not None and grid > 0:
        lo = np.floor(locs / grid)
        frac = locs / grid - lo
        locs = np.concatenate([lo * grid, (lo + 1.0) * grid])
        masses = np.concatenate([masses * (1.0 - frac), masses * frac])
    order = np.argsort(locs, kind="stable")
    locs, masses = locs[order], masses[order]
    keep_locs = [locs[0]]
    keep_masses = [masses[0]]
    for z, m in zip(locs[1:], masses[1:]):
        if z == keep_locs[-1]:
            keep_masses[-1] += m
        else:
            keep_locs.append(z)
            keep_masses.append(m)
    masses = np.array(keep_masses)
    nz = masses > 0
    masses = masses[nz] / masses[nz].sum()
    return Atomic(np.array(keep_locs)[nz], masses)


# gaps between consecutive atoms: exact duplicates, sub-1e-12 steps whose
# atoms must stay apart, and ordinary separations
_GAPS = st.one_of(st.sampled_from((0.0, 0.1, 1.3)), st.floats(2e-13, 2e-12))


@st.composite
def _atomic_inputs(draw):
    n = draw(st.integers(1, 40))
    base = draw(st.floats(-5.0, 5.0))
    gaps = draw(st.lists(_GAPS, min_size=n - 1, max_size=n - 1))
    locs = base + np.concatenate([[0.0], np.cumsum(gaps)])
    order = draw(st.permutations(range(n)))
    masses = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n))
    )
    assume(masses.sum() > 0)
    return Atomic(locs[order], masses[order] / masses.sum())


@settings(max_examples=300, deadline=None)
@given(dist=_atomic_inputs(), grid=st.sampled_from((None, 0.25, 1e-3)))
# four atoms 7e-13 apart are four atoms
@example(dist=Atomic([0.0, 7e-13, 1.4e-12, 2.1e-12], [0.25] * 4), grid=None)
@example(dist=Atomic([1.0, 1.0, 2.0], [0.25, 0.25, 0.5]), grid=None)
@example(dist=Atomic([0.3, 0.3, 0.7], [0.0, 1.0, 0.0]), grid=0.25)
def test_compact_atoms_matches_sequential_scan(dist, grid):
    out = compact_atoms(dist, grid=grid)
    ref = _compact_atoms_scan(dist, grid=grid)
    assert np.array_equal(out.locations, ref.locations)
    assert np.array_equal(out.masses, ref.masses)


def test_fixed_point_single_loop_geometric_sum():
    gamma = 0.9
    mdp = single_loop_mdp(gamma=gamma, reward=1.0)
    pi = Policy.uniform(1, 1)
    table = solve_return_fixed_point(mdp, pi, tol=1e-10)
    dist = table[(0, 0)]
    assert _mean(dist) == pytest.approx(1.0 / (1.0 - gamma), abs=1e-6)
    # deterministic returns concentrate (up to grid-projection dust)
    assert dist.masses.max() >= 0.999
    assert wasserstein_1d(1.0, dist, Atomic([1.0 / (1.0 - gamma)], [1.0])) <= 1e-6


def test_fixed_point_two_state_cycle():
    gamma = 0.8
    mdp = two_state_mdp(gamma)
    pi = Policy.uniform(2, 1)
    table = solve_return_fixed_point(mdp, pi, tol=1e-10)
    # g0 = 1 + gamma g1, g1 = 2 + gamma g0
    g0 = (1.0 + 2.0 * gamma) / (1.0 - gamma**2)
    g1 = (2.0 + 1.0 * gamma) / (1.0 - gamma**2)
    assert _mean(table[(0, 0)]) == pytest.approx(g0, abs=1e-6)
    assert _mean(table[(1, 0)]) == pytest.approx(g1, abs=1e-6)


def test_bellman_means_follow_value_iteration():
    """The mean of the distributional update equals the scalar Q update."""
    rng = np.random.default_rng(3)
    from fdeval.envs import tabular_make_random

    mdp = tabular_make_random(3, 2, 2, rng, gamma=0.9)
    pi = Policy(rng.dirichlet(np.ones(2), size=3))
    table = zero_table(mdp)
    q = np.zeros((3, 2))
    for _ in range(4):
        table = apply_bellman(table, mdp, pi, grid=None)
        q_next = np.zeros_like(q)
        for (s, a), branches in mdp.transitions.items():
            q_next[s, a] = sum(
                prob * (r + mdp.gamma * float(pi.probs[sp] @ q[sp]))
                for prob, r, sp in branches
            )
        q = q_next
        for (s, a) in mdp.pairs():
            assert _mean(table[(s, a)]) == pytest.approx(q[s, a], abs=1e-9)


def test_fixed_point_nonconvergence_raises():
    mdp = single_loop_mdp(gamma=0.99)
    pi = Policy.uniform(1, 1)
    with pytest.raises(NonConvergence):
        solve_return_fixed_point(mdp, pi, tol=1e-12, max_iters=3)


def test_sup_w1_symmetry_and_zero():
    mdp = single_loop_mdp()
    t1 = {(0, 0): Atomic([0.0, 1.0], [0.5, 0.5])}
    t2 = {(0, 0): Atomic([2.0], [1.0])}
    assert sup_w1(t1, t1) == 0.0
    assert sup_w1(t1, t2) == pytest.approx(sup_w1(t2, t1))


def test_stochastic_fixed_point_distribution():
    """Single state, two equally likely rewards: the return law is the
    distribution of a geometric random series; check mean and variance."""
    gamma = 0.5
    mdp = TabularMDP(1, 1, {(0, 0): ((0.5, 0.0, 0), (0.5, 1.0, 0))}, gamma)
    pi = Policy.uniform(1, 1)
    table = solve_return_fixed_point(mdp, pi, tol=1e-8, grid=1e-5)
    dist = table[(0, 0)]
    locs, masses = dist.locations, dist.masses
    mean = float(masses @ locs)
    var = float(masses @ (locs - mean) ** 2)
    # sum gamma^t R_t with E R = 1/2, Var R = 1/4
    assert mean == pytest.approx(0.5 / (1 - gamma), abs=1e-4)
    assert var == pytest.approx(0.25 / (1 - gamma**2), abs=1e-3)
