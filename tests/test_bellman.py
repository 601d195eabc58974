"""Tests for the exact tabular distributional Bellman machinery."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fdeval import bellman
from fdeval.bellman import (
    Policy,
    TabularMDP,
    apply_bellman,
    bellman_backup,
    compact_atoms,
    lattice_step,
    solve_return_fixed_point,
    zero_table,
)
from fdeval.distributions import Atomic, GaussianMixture1D, mixture, push_forward
from fdeval.envs import (
    LQREnv,
    estimate_dpi_lqr,
    estimate_dpi_tabular,
    lqr_collect,
    tabular_collect,
    tabular_make_random,
)
from fdeval.errors import InvalidInput, NonConvergence
from fdeval.fde import split_dataset
from fdeval.metrics import ExtensionSpec, MetricSpec, metric_extension, wasserstein_1d


def sup_w1(table1, table2):
    """Oracle for the lattice residual: the supremum extension of W1."""
    return metric_extension(MetricSpec("wasserstein"), ExtensionSpec("supremum"), table1, table2)


def _lattice_sup_w1(table1, table2, grid):
    """The solve's residual, as a reference: the largest W1 distance between
    the two tables' laws at a shared index, for tables whose atoms all lie
    on the lattice grid * Z.  Each pair goes onto its own index window by
    bellman._on_window, as the certificate puts a table onto the solve's
    window, and is scored by bellman._lattice_w1."""
    if table1.keys() != table2.keys():
        raise InvalidInput("tables must share the same index set")
    worst = 0.0
    for sa in table1:
        pair = ({sa: table1[sa]}, {sa: table2[sa]})
        k = np.rint(np.concatenate([t[sa].locations for t in pair]) / grid)
        lo, width = int(k.min()), int(k.max() - k.min()) + 1
        gap = bellman._on_window(pair[0], lo, width, grid) - bellman._on_window(pair[1], lo, width, grid)
        worst = max(worst, float(bellman._lattice_w1(gap, grid).max()))
    return worst


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
    # a string or None discount used to raise a bare TypeError
    for gamma in ("0.5", None):
        with pytest.raises(InvalidInput, match="gamma"):
            single_loop_mdp(gamma=gamma)
    # a next state outside the MDP used to pass, and a NaN reward failed
    # only later, inside a backup, as "atom locations must be finite";
    # a float or bool equal to a state index is not an index either
    for s_next in (3, -1, 0.5, np.nan, 0.0, np.float64(0.0), False):
        with pytest.raises(InvalidInput, match="next states"):
            TabularMDP(1, 1, {(0, 0): ((1.0, 1.0, s_next),)}, 0.9)
    for reward in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInput, match="rewards"):
            single_loop_mdp(reward=reward)
    TabularMDP(2, 1, {(0, 0): ((1.0, 0.0, np.int64(1)),), (1, 0): ((1.0, 0.0, 0),)}, 0.9)
    # a row outside pairs() used to pass unchecked, its next state 7 included
    with pytest.raises(InvalidInput, match=r"\(3, 0\)"):
        TabularMDP(1, 1, {(0, 0): ((1.0, 0.0, 0),), (3, 0): ((1.0, 0.0, 7),)}, 0.9)
    # a pair used to raise IndexError, a string reward TypeError, and a
    # branch of four entries passed
    for branch in ((1.0, 0.5), (1.0, 0.5, 0, 7), 1.0):
        with pytest.raises(InvalidInput, match="triples"):
            TabularMDP(1, 1, {(0, 0): (branch,)}, 0.9)
    for branch in ((1.0, "a", 0), ("1.0", 0.5, 0), (1.0, None, 0)):
        with pytest.raises(InvalidInput, match="real numbers"):
            TabularMDP(1, 1, {(0, 0): (branch,)}, 0.9)


def test_branches_drop_zero_probability_and_normalize():
    row = ((0.0, 9.0, 1), (0.25, 1.0, 0), (0.0, -3.0, 0), (0.75, 2.0, 1))
    mdp = TabularMDP(2, 1, {(0, 0): row, (1, 0): ((1.0, 0.5, 0),)}, 0.9)
    assert mdp.branches == {(0, 0): ((0.25, 1.0, 0), (0.75, 2.0, 1)), (1, 0): ((1.0, 0.5, 0),)}
    # p / total, the total summed left to right over the kept branches
    probs = (0.1, 0.2, 0.7 + 1e-13)
    (kept,) = TabularMDP(1, 1, {(0, 0): tuple((p, 0.0, 0) for p in probs)}, 0.9).branches.values()
    total = (0.1 + 0.2) + (0.7 + 1e-13)
    assert [p for p, _, _ in kept] == [p / total for p in probs]


def test_dynamics_cannot_be_edited_after_construction():
    """An edit of the transitions used to pass unchecked and unseen: the solve
    kept reading the branches parsed at construction (mean 5.0, not 50)."""
    rows = {(0, 0): [[1.0, 0.5, 0]]}
    mdp = TabularMDP(1, 1, rows, 0.9)
    with pytest.raises(TypeError):
        mdp.transitions[(0, 0)] = ((1.0, 5.0, 0),)
    with pytest.raises(TypeError):
        mdp.branches[(0, 0)] = ((1.0, 5.0, 0),)
    # the caller's own rows stay theirs: editing them leaves the MDP as built
    rows[(0, 0)][0][1] = 5.0
    rows[(1, 0)] = [[1.0, 0.0, 7]]
    assert mdp.transitions == {(0, 0): ((1.0, 0.5, 0),)}
    assert _mean(solve_return_fixed_point(mdp, Policy.uniform(1, 1))[(0, 0)]) == pytest.approx(5.0)
    assert pickle.loads(pickle.dumps(mdp)) == mdp


def _with_unreachable_branches(mdp):
    """The MDP with a p = 0 branch at reward 1000 before and after every row."""
    transitions = {
        sa: ((0.0, 1000.0, 0),) + tuple(row) + ((0.0, -1000.0, mdp.n_states - 1),)
        for sa, row in mdp.transitions.items()
    }
    return TabularMDP(mdp.n_states, mdp.n_actions, transitions, mdp.gamma)


def test_samplers_ignore_zero_probability_branches():
    mdp = tabular_make_random(3, 2, 2, np.random.default_rng(4), gamma=0.8)
    padded = _with_unreachable_branches(mdp)
    pi = Policy(np.array([[0.3, 0.7], [1.0, 0.0], [0.5, 0.5]]))
    behavior = Policy.uniform(3, 2)
    out, ref = (tabular_collect(m, behavior, 500, np.random.default_rng(1)) for m in (padded, mdp))
    for name in ("states", "actions", "rewards", "next_states"):
        np.testing.assert_array_equal(getattr(out, name), getattr(ref, name))
    assert estimate_dpi_tabular(padded, behavior, pi) == estimate_dpi_tabular(mdp, behavior, pi)


# each of these used to pass its check, since NaN fails every comparison
@pytest.mark.parametrize("build", [
    lambda: Atomic([0.0], [np.nan]),
    lambda: Atomic([0.0, 1.0], [np.nan, 1.0]),
    lambda: mixture([(np.nan, Atomic([0.0], [1.0]))]),
    lambda: GaussianMixture1D(((np.nan, 0.0, 1.0),)),
    lambda: GaussianMixture1D(((1.0, np.nan, 1.0),)),
    lambda: GaussianMixture1D(((1.0, 0.0, np.nan),)),
    lambda: GaussianMixture1D(((1.0, 0.0, np.inf),)),
    lambda: Policy([[np.nan]]),
    lambda: Policy([[np.nan, 1.0]]),
    lambda: TabularMDP(1, 1, {(0, 0): ((np.nan, 1.0, 0),)}, 0.9),
    lambda: TabularMDP(1, 1, {(0, 0): ((np.nan, 1.0, 0), (1.0, 0.0, 0))}, 0.9),
    lambda: solve_return_fixed_point(single_loop_mdp(), Policy.uniform(1, 1), tol=np.nan),
])
def test_probability_checks_reject_nan(build):
    with pytest.raises(InvalidInput):
        build()


@pytest.mark.parametrize("probs", [
    [[1.0], [1.0]],  # one action on a two-action MDP: used to give a wrong table
    [[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]],  # three actions: used to raise KeyError
    [[0.5, 0.5]],  # one row on a two-state MDP: used to raise IndexError
])
def test_policy_shape_must_match_the_mdp(probs):
    rng = np.random.default_rng(0)
    mdp = tabular_make_random(2, 2, 2, rng, gamma=0.5)
    pi, uniform = Policy(probs), Policy.uniform(2, 2)
    calls = [
        lambda: apply_bellman(zero_table(mdp), mdp, pi),
        lambda: solve_return_fixed_point(mdp, pi),
        lambda: tabular_collect(mdp, pi, 10, rng),
        lambda: estimate_dpi_tabular(mdp, pi, uniform),
        lambda: estimate_dpi_tabular(mdp, uniform, pi),
    ]
    for call in calls:
        with pytest.raises(InvalidInput, match="policy table has shape"):
            call()


def test_policy_validation():
    with pytest.raises(InvalidInput):
        Policy(np.array([[0.5, 0.4]]))
    pi = Policy.deterministic([1, 0], 2)
    np.testing.assert_array_equal(pi.probs, [[0.0, 1.0], [1.0, 0.0]])


# [2], [0.5] and [True] escaped as IndexError, 5 as TypeError; [-1] picked
# action 1 and [[0]] built a policy
@pytest.mark.parametrize("actions", [
    [2], [0.5], [True], [-1], [[0]], [0, np.float64(1.0)], np.array([[0, 1]]), 5,
], ids=repr)
def test_deterministic_policy_rejects_non_action_indices(actions):
    with pytest.raises(InvalidInput, match="actions"):
        Policy.deterministic(actions, 2)


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


def test_fixed_point_matches_the_sequential_scan_bitwise(monkeypatch):
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
    for residual in (sup_w1, lambda t1, t2: _lattice_sup_w1(t1, t2, 0.5)):
        assert residual(t1, t1) == 0.0
        assert residual(t1, t2) == residual(t2, t1) == 1.5


@pytest.mark.parametrize("residual", [sup_w1, lambda t1, t2: _lattice_sup_w1(t1, t2, 0.5)])
def test_table_distances_reject_mismatched_index_sets(residual):
    # a residual that read table1's keys only gave 0.0 for a differing extra
    # pair in the second table, and a bare KeyError for the swapped call
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
    """Reference for bellman.fit_folds: the empirical mixture of each
    covered pair's composed sample backups, on the truth's lattice step."""
    table = zero_table(mdp)
    for fold in split_dataset(data, t_count):
        fitted = dict(table)
        by_pair = {}
        for s, a, r, sp in zip(fold.states, fold.actions, fold.rewards, fold.next_states):
            by_pair.setdefault((int(s), int(a)), []).append((float(r), int(sp)))
        for sa, obs in by_pair.items():
            w = 1.0 / len(obs)
            parts = [(w, _bellman_backup_composed(r, sp, table, pi, mdp.gamma)) for r, sp in obs]
            fitted[sa] = compact_atoms(mixture(parts), grid=lattice_step(mdp))
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


# --- the lattice residual against the supremum extension of W1 ------------


@st.composite
def _lattice_table_pair(draw):
    """Two tables over one index set, every atom at k * grid; negative k
    included, and index windows of up to 2e6 + 1 bins around a few atoms."""
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
# wide windows: a zero-mass atom far out, and far atoms one step apart,
# where the oracle's own locations k * grid carry the rounding of a large k
@example(case=(
    {(0, 0): Atomic([-0.25, 0.5, 1501.25, 0.0, 0.25], [0.0, 0.0, 0.0, 1 / 3, 2 / 3])},
    {(0, 0): Atomic([0.0], [1.0])},
    0.25,
))
@example(case=(
    {(0, 0): Atomic([0.0, 1e6 * 0.1], [0.5, 0.5])},
    {(0, 0): Atomic([0.0, 999_999 * 0.1], [0.5, 0.5])},
    0.1,
))
def test_lattice_residual_matches_sup_w1(case):
    table1, table2, grid = case
    expected = sup_w1(table1, table2)
    # A pair whose index window is at most twice its atom count is checked
    # to 1e-12 relative alone.  A wider pair may also round by a few ulps of
    # grid * (window + largest |k|): the oracle in its location differences
    # k * grid, the lattice in a running CDF gap of ulps summed over the
    # window.  On a window of 2e6 bins that exceeds 1e-12 of one grid step.
    slack = 0.0
    for sa in table1:
        k1, k2 = (np.rint(t[sa].locations / grid) for t in (table1, table2))
        k = np.concatenate([k1, k2])
        width = k.max() - k.min() + 1
        if width > 2 * k.size:
            eps = np.finfo(float).eps
            slack = max(slack, 16 * eps * grid * (width + np.abs(k).max()))
    for got in (_lattice_sup_w1(table1, table2, grid), _lattice_sup_w1(table2, table1, grid)):
        assert got == pytest.approx(expected, rel=1e-12, abs=slack)


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
    table = solve_return_fixed_point(mdp, pi, tol=1e-8)
    dist = table[(0, 0)]
    locs, masses = dist.locations, dist.masses
    mean = float(masses @ locs)
    var = float(masses @ (locs - mean) ** 2)
    # sum gamma^t R_t with E R = 1/2, Var R = 1/4
    # the grid is 1e-4 * 2 / (1 - gamma) = 4e-4: projection keeps the mean
    # and adds at most grid**2 / 4 / (1 - gamma**2), about 5e-8, to the variance
    assert mean == pytest.approx(0.5 / (1 - gamma), abs=1e-4)
    assert var == pytest.approx(0.25 / (1 - gamma**2), abs=1e-3)


def test_fixed_point_of_zero_rewards_is_a_point_mass_at_zero():
    # a zero return span leaves the solve a unit grid, which holds the atom at 0
    transitions = {
        (s, a): ((0.5, 0.0, 0), (0.5, 0.0, 1)) for s in range(2) for a in range(2)
    }
    mdp = TabularMDP(2, 2, transitions, 0.9)
    table = solve_return_fixed_point(mdp, Policy(np.array([[0.3, 0.7], [1.0, 0.0]])))
    assert table.keys() == set(mdp.pairs())
    for dist in table.values():
        assert dist.locations.tolist() == [0.0]
        assert dist.masses.tolist() == [1.0]


# --- shapes the dense solve sizes its arrays from ---------------------------


_ONE_ROW = {(0, 0): ((1.0, 0.0, 0),)}
_ONE_MDP = TabularMDP(1, 1, _ONE_ROW, 0.9)
_ONE_PI = Policy.uniform(1, 1)
_RNG = np.random.default_rng(0)


# TabularMDP(0, 1, {}, 0.9) and (1, 0, ...) constructed, (1.5, 1, ...) raised
# TypeError; Policy.uniform(2, 0) raised ZeroDivisionError,
# deterministic([], 2.5) TypeError, deterministic([0], 0) blamed the action,
# and deterministic([], 0) built a (0, 0) policy
@pytest.mark.parametrize("build, match", [
    (lambda: TabularMDP(0, 1, {}, 0.9), "n_states"),
    (lambda: TabularMDP(1, 0, {}, 0.9), "n_actions"),
    (lambda: TabularMDP(1.5, 1, _ONE_ROW, 0.9), "n_states"),
    (lambda: TabularMDP(True, 1, _ONE_ROW, 0.9), "n_states"),
    (lambda: TabularMDP(1, np.float64(1.0), _ONE_ROW, 0.9), "n_actions"),
    (lambda: Policy.uniform(2, 0), "n_actions"),
    (lambda: Policy.uniform(0, 2), "n_states"),
    (lambda: Policy.uniform(2.0, 2), "n_states"),
    (lambda: Policy.deterministic([], 2.5), "n_actions"),
    (lambda: Policy.deterministic([0], 0), "n_actions"),
    (lambda: Policy.deterministic([], 0), "n_actions"),
    (lambda: Policy.deterministic([], 2), "policy table"),
    (lambda: Policy(np.zeros((0, 0))), "policy table"),
    (lambda: Policy(np.zeros((2, 0))), "policy table"),
    # each of these raised TypeError
    (lambda: tabular_make_random(2.0, 1, 2, _RNG), "n_states"),
    (lambda: tabular_make_random(2, 1, 1.5, _RNG), "reward_support_size"),
    (lambda: tabular_collect(_ONE_MDP, _ONE_PI, 2.5, _RNG), "n must"),
    (lambda: lqr_collect(LQREnv.default(), 2.5, _RNG), "n must"),
    (lambda: estimate_dpi_lqr(LQREnv.default(), 2.5, _RNG), "n_points"),
    (lambda: split_dataset(tabular_collect(_ONE_MDP, _ONE_PI, 4, _RNG), 2.5), "T must"),
    (lambda: solve_return_fixed_point(_ONE_MDP, _ONE_PI, max_iters=2.5), "max_iters"),
], ids=[
    "mdp-0-states", "mdp-0-actions", "mdp-1.5-states", "mdp-True-states", "mdp-float-actions",
    "uniform-0-actions", "uniform-0-states", "uniform-float-states", "deterministic-2.5-actions",
    "deterministic-0-actions", "deterministic-empty-0-actions", "deterministic-empty",
    "policy-0x0", "policy-2x0", "random-mdp-float-states", "random-mdp-float-rewards",
    "tabular-collect-2.5", "lqr-collect-2.5", "dpi-lqr-2.5", "split-2.5",
    "solve-max-iters-2.5",
])
def test_empty_or_non_integer_shapes_are_rejected(build, match):
    with pytest.raises(InvalidInput, match=match):
        build()


def test_unreachable_branches_leave_the_solve_unchanged():
    # the grid rule read every branch, so the p = 0 branch at 1000 made the
    # lattice step 2.0 instead of 1e-3, and one at 1e308 raised "lattice step"
    reachable = {(0, 0): ((1.0, 0.5, 0),)}
    ref = solve_return_fixed_point(TabularMDP(1, 1, reachable, 0.9), Policy.uniform(1, 1))
    for far in (1000.0, 1e308):
        mdp = TabularMDP(1, 1, {(0, 0): ((1.0, 0.5, 0), (0.0, far, 0))}, 0.9)
        _assert_tables_bitwise_equal(solve_return_fixed_point(mdp, Policy.uniform(1, 1)), ref)
    mdp = _random(2, 2, 0.9, 3)
    pi = Policy.uniform(2, 2)
    _assert_tables_bitwise_equal(
        solve_return_fixed_point(_with_unreachable_branches(mdp), pi),
        solve_return_fixed_point(mdp, pi),
    )


@pytest.mark.parametrize("reward", [1e308, 5e-324])
def test_solve_rejects_a_span_whose_lattice_step_overflows_or_underflows(reward):
    mdp = TabularMDP(1, 1, {(0, 0): ((1.0, reward, 0),)}, 0.9)
    with pytest.raises(InvalidInput, match="lattice step"):
        solve_return_fixed_point(mdp, Policy.uniform(1, 1))


# --- the dense lattice solve against the atomic loop it replaced -----------


def _solve_grid(mdp):
    """The solve's lattice step, 1e-4 times the return span (1 at span 0),
    and the span."""
    rmax = max(abs(r) for branches in mdp.transitions.values() for p, r, _ in branches if p > 0)
    span = 2.0 * rmax / (1.0 - mdp.gamma)
    return (1e-4 * span if span > 0 else 1.0), span


def _solve_atomic(mdp, pi, grid, tol=1e-8, max_iters=10_000):
    """Reference for the fixed-point solve: exact apply_bellman steps from the
    zero table, each scored by its lattice residual.  Returns the table and
    the number of steps taken."""
    table, residual = zero_table(mdp), np.inf
    for steps in range(1, max_iters + 1):
        nxt = apply_bellman(table, mdp, pi, grid=grid)
        residual = _lattice_sup_w1(nxt, table, grid)
        table = nxt
        if residual <= tol:
            return table, steps
    raise NonConvergence(f"fixed point not reached in {max_iters} iterations", residual=residual)


def _with_rewards(mdp, reward_of):
    """The MDP with every branch reward r replaced by reward_of(r)."""
    transitions = {
        sa: tuple((p, reward_of(r), s_next) for p, r, s_next in branches)
        for sa, branches in mdp.transitions.items()
    }
    return TabularMDP(mdp.n_states, mdp.n_actions, transitions, mdp.gamma)


def _random(n_states, n_actions, gamma, seed):
    return tabular_make_random(n_states, n_actions, 2, np.random.default_rng(seed), gamma=gamma)


_SEEDED_SOLVES = {
    "2x1-gamma-0.9": (lambda: _random(2, 1, 0.9, 0), None),
    "3x2-gamma-0.9-pi-zeros": (
        lambda: _random(3, 2, 0.9, 1), [[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]]
    ),
    "2x2-gamma-0.5": (lambda: _random(2, 2, 0.5, 3), None),
    "4x3-gamma-0": (lambda: _random(4, 3, 0.0, 2), None),
    "2x1-gamma-0.99": (lambda: _random(2, 1, 0.99, 2), None),
    "2x2-negative": (lambda: _with_rewards(_random(2, 2, 0.9, 5), lambda r: r - 1.0), None),
    "2x2-mixed-signs": (lambda: _with_rewards(_random(2, 2, 0.9, 6), lambda r: 2.0 * r - 1.0), None),
    "2x2-zero": (lambda: _with_rewards(_random(2, 2, 0.9, 7), lambda r: 0.0), None),
    "2x2-single-reward": (lambda: _with_rewards(_random(2, 2, 0.9, 8), lambda r: 0.7), None),
}


@pytest.mark.parametrize("name", sorted(_SEEDED_SOLVES))
def test_solve_matches_the_atomic_reference(name):
    build, probs = _SEEDED_SOLVES[name]
    mdp = build()
    pi = Policy.uniform(mdp.n_states, mdp.n_actions) if probs is None else Policy(probs)
    grid, span = _solve_grid(mdp)
    ref, _ = _solve_atomic(mdp, pi, grid)
    table = solve_return_fixed_point(mdp, pi)
    assert table.keys() == ref.keys()
    assert sup_w1(table, ref) <= 1e-13 * (1.0 + span)


@st.composite
def _solve_cases(draw):
    """Small MDPs with rewards from a pool: all zero, one value, repeated
    values, negative ones; policies with zero entries.  At gamma = 0.99 the
    MDP stays at most 2 x 2, which keeps the atomic reference's ~2000 steps
    cheap."""
    gamma = draw(st.sampled_from((0.0, 0.5, 0.9, 0.99)))
    n_states = draw(st.integers(1, 5 if gamma < 0.99 else 2))
    n_actions = draw(st.integers(1, 3 if gamma < 0.99 else 2))
    rewards = draw(st.one_of(
        st.just([0.0]),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3)),
                 min_size=1, max_size=3),
    ))
    transitions = {}
    for sa in [(s, a) for s in range(n_states) for a in range(n_actions)]:
        probs = _probability_row(draw, draw(st.integers(1, 3)))
        transitions[sa] = tuple(
            (p, draw(st.sampled_from(rewards)), draw(st.integers(0, n_states - 1))) for p in probs
        )
    mdp = TabularMDP(n_states, n_actions, transitions, gamma)
    pi = Policy(np.array([_probability_row(draw, n_actions) for _ in range(n_states)]))
    return mdp, pi


def _coarse_grid(mdp):
    """A lattice step of span / 200, which keeps the atomic reference's
    supports to a few hundred atoms; the solve's own step is span / 1e4."""
    grid, span = _solve_grid(mdp)
    return (span / 200 if span > 0 else grid), span


@settings(max_examples=40, deadline=None)
@given(case=_solve_cases())
@example(case=(_with_rewards(_random(2, 2, 0.99, 4), lambda r: -r), Policy([[0.0, 1.0], [0.5, 0.5]])))
@example(case=(_with_rewards(_random(3, 3, 0.0, 4), lambda r: 0.0), Policy.uniform(3, 3)))
@example(case=(_with_rewards(_random(5, 1, 0.9, 4), lambda r: -0.3), Policy.uniform(5, 1)))
def test_lattice_solve_matches_the_atomic_reference(case):
    mdp, pi = case
    grid, span = _coarse_grid(mdp)
    ref, _ = _solve_atomic(mdp, pi, grid)
    table = bellman._solve_on_lattice(mdp, pi, grid, 1e-8, 10_000)
    assert table.keys() == ref.keys()
    assert sup_w1(table, ref) <= 1e-13 * (1.0 + span)


# Atomic accepts masses that sum to 1 within 1e-12: the exact step rescales
# them to 1, and so must the lattice step
@settings(max_examples=100, deadline=None)
@given(case=_solve_cases(), seed=st.integers(0, 2**32 - 1), defect=st.sampled_from((0.0, 8e-13, -8e-13)))
def test_one_lattice_step_is_one_exact_step(case, seed, defect):
    mdp, pi = case
    grid, _ = _coarse_grid(mdp)
    lo, width, step = bellman._lattice_operator(mdp, pi, grid)
    rng = np.random.default_rng(seed)
    table = {}
    for sa in mdp.pairs():
        k = rng.choice(width, size=min(width, 6), replace=False)
        masses = rng.dirichlet(np.ones(k.size)) * rng.integers(0, 2, size=k.size)
        masses = masses if masses.sum() > 0 else np.eye(k.size)[0]
        table[sa] = Atomic((k + lo) * grid, masses / masses.sum() * (1.0 + defect))
    pmfs = bellman._on_window(table, lo, width, grid)
    exact = bellman._on_window(apply_bellman(table, mdp, pi, grid=grid), lo, width, grid)
    np.testing.assert_allclose(step(pmfs), exact, rtol=1e-13, atol=1e-300)


def test_lattice_window_is_tight_at_gamma_0():
    """At gamma = 0 one step puts mass on both end bins of the window, so a
    window one bin narrower at either end would lose it."""
    mdp = TabularMDP(1, 1, {(0, 0): ((0.5, -0.373, 0), (0.5, 0.614, 0))}, 0.0)
    lo, width, step = bellman._lattice_operator(mdp, Policy.uniform(1, 1), 0.01)
    assert (lo, lo + width - 1) == (-38, 62)
    pmfs = np.zeros((1, width))
    pmfs[0, -lo] = 1.0
    out = step(pmfs)
    assert out[0, 0] > 0 and out[0, -1] > 0


def test_solve_certifies_with_one_exact_step(monkeypatch):
    applied = []
    apply = bellman.apply_bellman
    monkeypatch.setattr(bellman, "apply_bellman", lambda *a, **kw: applied.append(a) or apply(*a, **kw))
    solve_return_fixed_point(_random(2, 2, 0.9, 0), Policy.uniform(2, 2))
    assert len(applied) == 1


def test_max_iters_counts_dense_and_exact_steps(monkeypatch):
    mdp = _random(2, 2, 0.5, 3)
    pi = Policy.uniform(2, 2)
    grid, _ = _solve_grid(mdp)
    ref, steps = _solve_atomic(mdp, pi, grid)
    assert sup_w1(solve_return_fixed_point(mdp, pi, max_iters=steps), ref) <= 1e-13
    with pytest.raises(NonConvergence) as caught:
        solve_return_fixed_point(mdp, pi, max_iters=steps - 1)
    with pytest.raises(NonConvergence) as expected:
        _solve_atomic(mdp, pi, grid, max_iters=steps - 1)
    assert caught.value.residual > 1e-8
    assert caught.value.residual == pytest.approx(expected.value.residual, rel=1e-9)
    # a rejected certificate counts as a step, and the loop goes on from the
    # exact table: the score right after the first exact step reads inf
    applied, scored = [], []
    apply, lattice_w1 = bellman.apply_bellman, bellman._lattice_w1

    def counted_apply(*args, **kwargs):
        applied.append(len(scored))
        return apply(*args, **kwargs)

    def reject_the_first_certificate(gap, grid):
        scored.append(gap)
        w1 = lattice_w1(gap, grid)
        return w1 + np.inf if applied == [len(scored) - 1] else w1

    monkeypatch.setattr(bellman, "apply_bellman", counted_apply)
    monkeypatch.setattr(bellman, "_lattice_w1", reject_the_first_certificate)
    with pytest.raises(NonConvergence):
        solve_return_fixed_point(mdp, pi, max_iters=steps)
    assert len(applied) == 1
    applied.clear()
    scored.clear()
    table = solve_return_fixed_point(mdp, pi, max_iters=steps + 1)
    assert len(applied) == 2
    assert sup_w1(table, ref) <= 1e-8


def test_a_window_past_the_dense_limit_is_rejected(monkeypatch):
    applied = []
    monkeypatch.setattr(bellman, "apply_bellman", lambda *a, **kw: applied.append(a))
    monkeypatch.setattr(bellman, "_DENSE_ENTRIES", 0)
    with pytest.raises(InvalidInput, match="lattice window of 4 x"):
        solve_return_fixed_point(_random(2, 2, 0.5, 3), Policy.uniform(2, 2))
    assert not applied


# --- the lattice fold fits against the composed backups ------------------


def _assert_fold_fit_matches_the_composed_backup(data, mdp, pi, t_count):
    """The lattice fit differs from the composed one in summation order only."""
    table = bellman.fit_folds(split_dataset(data, t_count), mdp, pi)
    ref = _tabular_fde_composed(data, mdp, pi, t_count)
    assert table.keys() == ref.keys()
    assert sup_w1(table, ref) <= 1e-13 * (1.0 + _solve_grid(mdp)[1])


def test_tabular_fold_fit_matches_the_composed_backup():
    from fdeval.fde import choose_t

    rng = np.random.default_rng(5)
    mdp = tabular_make_random(2, 2, 2, rng, gamma=0.9)
    pi = Policy(np.array([[0.3, 0.7], [1.0, 0.0]]))
    data = tabular_collect(mdp, Policy.uniform(2, 2), 300, rng)
    _assert_fold_fit_matches_the_composed_backup(data, mdp, pi, choose_t(300, mdp.gamma))


# a few records over several folds leave pairs uncovered, in some folds or
# in all of them; an uncovered pair keeps its law without a 0 / 0
@settings(max_examples=40, deadline=None)
@given(case=_solve_cases(), n=st.integers(1, 40), t_count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(case=(_random(3, 2, 0.9, 1), Policy([[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]])), n=3, t_count=2, seed=0)
def test_fold_fit_on_small_mdps_matches_the_composed_backup(case, n, t_count, seed):
    mdp, pi = case
    rng = np.random.default_rng(seed)
    data = tabular_collect(mdp, Policy.uniform(mdp.n_states, mdp.n_actions), n, rng)
    _assert_fold_fit_matches_the_composed_backup(data, mdp, pi, min(t_count, n))


@pytest.mark.parametrize("field, value", [
    ("rewards", 0.123), ("states", 2), ("actions", -1), ("next_states", 2),
])
def test_fold_fit_rejects_records_off_the_mdp(field, value):
    mdp = _random(2, 2, 0.9, 0)
    data = tabular_collect(mdp, Policy.uniform(2, 2), 10, np.random.default_rng(0))
    column = getattr(data, field).copy()
    column[3] = value
    data = dataclasses.replace(data, **{field: column})
    with pytest.raises(InvalidInput):
        bellman.fit_folds(split_dataset(data, 2), mdp, Policy.uniform(2, 2))


# --- the truth's own error --------------------------------------------------


@pytest.mark.parametrize("shape, gamma, seed", [
    ((2, 1), 0.9, 0), ((2, 2), 0.5, 3), ((3, 2), 0.9, 1), ((1, 2), 0.95, 4), ((4, 2), 0.9, 0),
])
def test_truth_error_bound_holds_between_lattices(shape, gamma, seed):
    """The solve at step h is within e(h) = h / (2 (1 - gamma)) + gamma * tol /
    (1 - gamma) of the true laws in sup-W1, so solves at h and h / 4 are
    within e(h) + e(h / 4) of each other."""
    mdp = _random(*shape, gamma, seed)
    pi = Policy.uniform(*shape)
    tol = 1e-8
    grid, _ = _solve_grid(mdp)
    coarse = bellman._solve_on_lattice(mdp, pi, grid, tol, 10_000)
    fine = bellman._solve_on_lattice(mdp, pi, grid / 4, tol, 10_000)
    _assert_tables_bitwise_equal(solve_return_fixed_point(mdp, pi, tol=tol), coarse)

    def error(h):
        return h / (2 * (1 - gamma)) + gamma * tol / (1 - gamma)

    assert sup_w1(coarse, fine) <= error(grid) + error(grid / 4)
