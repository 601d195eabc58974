"""Tests for the exact tabular distributional Bellman machinery."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdeval.bellman import (
    Policy,
    TabularMDP,
    _lattice_sup_w1,
    apply_bellman,
    bellman_backup,
    compact_atoms,
    solve_return_fixed_point,
    sup_w1,
    zero_table,
)
from fdeval.distributions import Atomic, mixture, push_forward
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


def test_backup_rejects_returns_that_overflow():
    table = {(0, 0): Atomic([1e308], [1.0])}
    with np.errstate(over="ignore"), pytest.raises(InvalidInput, match="finite"):
        bellman_backup(1e308, 0, table, Policy.uniform(1, 1), 0.99)


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


@st.composite
def _lattice_inputs(draw, grid):
    """Many atoms within a few cells of the grid, negative ones included:
    offset 0 puts an atom exactly on a lattice point (frac = 0), and atoms
    share lattice points, so the lattice window stays narrow."""
    n = draw(st.integers(1, 60))
    base = draw(st.integers(-8, 8))
    cells = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    offsets = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
                 min_size=n, max_size=n)
    )
    masses = np.array(
        draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=n, max_size=n))
    )
    assume(masses.sum() > 0)
    locs = (base + np.array(cells) + np.array(offsets)) * grid
    return Atomic(locs, masses / masses.sum())


_COMPACT_CASES = st.one_of(
    st.tuples(_atomic_inputs(), st.sampled_from((None, 0.25, 1e-3))),
    st.sampled_from((0.25, 1e-3, 0.1)).flatmap(
        lambda grid: st.tuples(_lattice_inputs(grid), st.just(grid))
    ),
)


@settings(max_examples=300, deadline=None)
@given(case=_COMPACT_CASES)
# four atoms 7e-13 apart are four atoms
@example(case=(Atomic([0.0, 7e-13, 1.4e-12, 2.1e-12], [0.25] * 4), None))
@example(case=(Atomic([1.0, 1.0, 2.0], [0.25, 0.25, 0.5]), None))
@example(case=(Atomic([0.3, 0.3, 0.7], [0.0, 1.0, 0.0]), 0.25))
# lattice path: on-grid, shared and negative atoms; a window of exactly 2n
@example(case=(Atomic([-0.5, -0.5, -0.25, 0.0, 0.3], [0.2] * 5), 0.25))
@example(case=(Atomic([0.0, 0.5], [0.5, 0.5]), 0.25))
# lattice path with an index past 2**52, where every float is an integer
@example(case=(Atomic([2.0**53], [1.0]), 0.25))
# sort path: a window of 2n + 1, and a tiny grid over a wide support
@example(case=(Atomic([0.0, 0.75], [0.5, 0.5]), 0.25))
@example(case=(Atomic([-3.0, 0.1, 4.0], [0.2, 0.3, 0.5]), 1e-9))
def test_compact_atoms_matches_sequential_scan(case):
    dist, grid = case
    out = compact_atoms(dist, grid=grid)
    ref = _compact_atoms_scan(dist, grid=grid)
    assert np.array_equal(out.locations, ref.locations)
    assert np.array_equal(out.masses, ref.masses)


@pytest.mark.parametrize("dist, grid, sorts", [
    (Atomic([-0.5, -0.5, -0.25, 0.0, 0.3], [0.2] * 5), 0.25, False),
    (Atomic([0.0, 0.5], [0.5, 0.5]), 0.25, False),
    (Atomic([0.0, 0.75], [0.5, 0.5]), 0.25, True),
    (Atomic([-3.0, 0.1, 4.0], [0.2, 0.3, 0.5]), 1e-9, True),
    (Atomic([2.0**53], [1.0]), 0.25, False),
    (Atomic([1.0, 1.0, 2.0], [0.25, 0.25, 0.5]), None, True),
])
def test_compact_atoms_sorts_only_off_a_narrow_lattice(monkeypatch, dist, grid, sorts):
    """The lattice path runs when the window k_max - k_min + 2 is at most the
    2n split atoms, the sort path otherwise."""
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or argsort(*a, **kw))
    compact_atoms(dist, grid=grid)
    assert bool(calls) == sorts


@pytest.mark.parametrize("grid", [0.0, -1.0, np.nan, np.inf])
def test_grid_must_be_none_or_a_finite_positive_number(grid):
    # a grid of 0 used to skip the projection, and the fixed-point solve
    # then iterated on supports that grew at every step
    with pytest.raises(InvalidInput, match="grid"):
        compact_atoms(Atomic([0.3, 0.7], [0.5, 0.5]), grid=grid)
    with pytest.raises(InvalidInput, match="grid"):
        solve_return_fixed_point(single_loop_mdp(), Policy.uniform(1, 1), grid=grid)


def test_fixed_point_matches_the_sequential_scan_bitwise(monkeypatch):
    from fdeval import bellman
    from fdeval.envs import tabular_make_random

    mdp = tabular_make_random(2, 2, 2, np.random.default_rng(0), gamma=0.5)
    pi = Policy.uniform(2, 2)
    table = solve_return_fixed_point(mdp, pi)
    monkeypatch.setattr(bellman, "compact_atoms", _compact_atoms_scan)
    ref = solve_return_fixed_point(mdp, pi)
    assert table.keys() == ref.keys()
    for sa in ref:
        assert table[sa].locations.tobytes() == ref[sa].locations.tobytes()
        assert table[sa].masses.tobytes() == ref[sa].masses.tobytes()


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
    t1 = {(0, 0): Atomic([0.0, 1.0], [0.5, 0.5])}
    t2 = {(0, 0): Atomic([2.0], [1.0])}
    assert sup_w1(t1, t1) == 0.0
    assert sup_w1(t1, t2) == pytest.approx(sup_w1(t2, t1))


@pytest.mark.parametrize("residual", [sup_w1, lambda t1, t2: _lattice_sup_w1(t1, t2, 0.5)])
def test_table_distances_reject_mismatched_index_sets(residual):
    # sup_w1 used to read table1's keys only: a differing extra pair in the
    # second table gave 0.0, and the swapped call a bare KeyError
    t1 = {(0, 0): Atomic([0.0], [1.0])}
    t2 = {(0, 0): Atomic([0.0], [1.0]), (1, 0): Atomic([5.0], [1.0])}
    for first, second in ((t1, t2), (t2, t1)):
        with pytest.raises(InvalidInput, match="index set"):
            residual(first, second)


# --- the one-pass backup against the composed backup it replaced -----------


def _bellman_backup_composed(r, s_next, table, pi, gamma):
    """Reference for one backup: a mixture over actions of push-forwards."""
    row = pi.probs[s_next]
    parts = [
        (float(row[a]), push_forward(table[(s_next, a)], r, gamma))
        for a in range(row.size)
        if row[a] > 0
    ]
    scale = sum(w for w, _ in parts)
    return mixture([(w / scale, d) for w, d in parts])


def _apply_bellman_composed(table, mdp, pi, grid=None):
    """Reference for apply_bellman: per (s, a), a mixture over branches of
    single-sample backups, then compaction."""
    out = {}
    for s, a in mdp.pairs():
        parts = [
            (float(prob), _bellman_backup_composed(r, s_next, table, pi, mdp.gamma))
            for prob, r, s_next in mdp.transitions[(s, a)]
            if prob > 0
        ]
        total = sum(w for w, _ in parts)
        out[(s, a)] = compact_atoms(mixture([(w / total, d) for w, d in parts]), grid=grid)
    return out


def _tabular_fde_composed(data, mdp, pi, t_count):
    """Reference for harness._tabular_fde: the empirical mixture of each
    covered pair's composed sample backups."""
    from fdeval.fde import split_dataset
    from fdeval.harness import _TABULAR_FIT_GRID

    table = zero_table(mdp)
    for fold in split_dataset(data, t_count):
        fitted = dict(table)
        by_pair = {}
        for s, a, r, sp in zip(fold.states, fold.actions, fold.rewards, fold.next_states):
            by_pair.setdefault((int(s), int(a)), []).append((float(r), int(sp)))
        for sa, obs in by_pair.items():
            w = 1.0 / len(obs)
            parts = [(w, _bellman_backup_composed(r, sp, table, pi, mdp.gamma)) for r, sp in obs]
            fitted[sa] = compact_atoms(mixture(parts), grid=_TABULAR_FIT_GRID)
        table = fitted
    return table


def _assert_tables_bitwise_equal(table, ref):
    assert table.keys() == ref.keys()
    for sa in ref:
        assert table[sa].locations.tobytes() == ref[sa].locations.tobytes()
        assert table[sa].masses.tobytes() == ref[sa].masses.tobytes()


def _probability_row(draw, size):
    """A probability vector from small integer weights; zeros included."""
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    assume(sum(weights) > 0)
    return [w / sum(weights) for w in weights]


@st.composite
def _random_mdp_and_table(draw):
    n_states, n_actions = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gamma = draw(st.sampled_from((0.0, 0.5, 0.9)))
    transitions = {}
    for s in range(n_states):
        for a in range(n_actions):
            n_branches = draw(st.integers(1, 3))
            probs = _probability_row(draw, n_branches)
            transitions[(s, a)] = tuple(
                (p, draw(st.floats(-2.0, 2.0)), draw(st.integers(0, n_states - 1)))
                for p in probs
            )
    mdp = TabularMDP(n_states, n_actions, transitions, gamma)
    pi = Policy(np.array([_probability_row(draw, n_actions) for _ in range(n_states)]))
    table = {}
    for sa in mdp.pairs():
        k = draw(st.integers(1, 4))
        locs = draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k))
        table[sa] = Atomic(locs, _probability_row(draw, k))
    return mdp, pi, table


@settings(max_examples=150, deadline=None)
@given(case=_random_mdp_and_table(), grid=st.sampled_from((None, 0.25, 1e-3)))
def test_apply_bellman_matches_the_composed_backup_bitwise(case, grid):
    mdp, pi, table = case
    for _ in range(2):  # the second step starts from compacted supports
        ref = _apply_bellman_composed(table, mdp, pi, grid=grid)
        out = apply_bellman(table, mdp, pi, grid=grid)
        _assert_tables_bitwise_equal(out, ref)
        table = out


def test_bellman_backup_matches_the_composed_backup_bitwise():
    table = {(0, 0): Atomic([0.1, 2.0], [0.3, 0.7]), (0, 1): Atomic([-1.0], [1.0])}
    pi = Policy(np.array([[1.0 / 3.0, 2.0 / 3.0]]))
    out = bellman_backup(0.7, 0, table, pi, 0.9)
    ref = _bellman_backup_composed(0.7, 0, table, pi, 0.9)
    assert out.locations.tobytes() == ref.locations.tobytes()
    assert out.masses.tobytes() == ref.masses.tobytes()


def test_tabular_fold_fit_matches_the_composed_backup_bitwise():
    from fdeval.envs import tabular_collect, tabular_make_random
    from fdeval.fde import choose_t
    from fdeval.harness import _tabular_fde

    rng = np.random.default_rng(5)
    mdp = tabular_make_random(2, 2, 2, rng, gamma=0.9)
    pi = Policy(np.array([[0.3, 0.7], [1.0, 0.0]]))
    data = tabular_collect(mdp, Policy.uniform(2, 2), 300, rng)
    t_count = choose_t(300, mdp.gamma)
    _assert_tables_bitwise_equal(
        _tabular_fde(data, mdp, pi, t_count), _tabular_fde_composed(data, mdp, pi, t_count)
    )


# --- the lattice residual against the sorted-quantile sup_w1 ---------------


@st.composite
def _lattice_table_pair(draw):
    """Two tables over one index set, every atom at k * grid; negative k
    included, and wide index windows as well as dense ones."""
    grid = draw(st.sampled_from((0.25, 1e-3, 0.1, 3.0)))
    reach = draw(st.sampled_from((3, 40, 10**6)))
    pairs = [(s, 0) for s in range(draw(st.integers(1, 3)))]
    tables = []
    for _ in range(2):
        table = {}
        for sa in pairs:
            k = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=8, unique=True))
            table[sa] = Atomic(np.array(k) * grid, _probability_row(draw, len(k)))
        tables.append(table)
    return tables[0], tables[1], grid


@settings(max_examples=300, deadline=None)
@given(case=_lattice_table_pair())
@example(case=({(0, 0): Atomic([0.0], [1.0])}, {(0, 0): Atomic([0.0], [1.0])}, 0.25))
@example(case=(
    {(0, 0): Atomic([-0.5, 0.25], [0.5, 0.5])}, {(0, 0): Atomic([-0.25, 0.5], [0.25, 0.75])}, 0.25
))
def test_lattice_residual_matches_sup_w1(case):
    table1, table2, grid = case
    expected = sup_w1(table1, table2)
    assert _lattice_sup_w1(table1, table2, grid) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert _lattice_sup_w1(table2, table1, grid) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("loc", [0.375, np.nextafter(0.5, 1.0)])
def test_lattice_residual_rejects_atoms_off_the_lattice(loc):
    on = {(0, 0): Atomic([0.25, 0.5], [0.5, 0.5])}
    off = {(0, 0): Atomic([0.25, loc], [0.5, 0.5])}
    with pytest.raises(InvalidInput, match="lattice"):
        _lattice_sup_w1(on, off, 0.25)
    with pytest.raises(InvalidInput, match="lattice"):
        _lattice_sup_w1(off, on, 0.25)


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
