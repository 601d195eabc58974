"""Exact distributional Bellman machinery for tabular MDPs.

Return tables carry one finite atomic distribution per (state, action).
The operator is exact on finite supports and merges duplicate atoms;
because supports grow multiplicatively, an optional grid projection keeps
long runs tractable.  Each backup is built in one pass: ``backup_mixture``
concatenates the shifted, scaled atoms of every (sample, action) term into
one Atomic, which compaction then merges.  The fixed-point solve projects
onto a lattice derived from the MDP (the categorical projection of Rowland
et al. 2018), iterates that linear map on dense pmfs, ends with one exact
step, and measures each change on the lattice, where W1 is the grid step
times the summed |CDF difference|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Optional

import numpy as np
from scipy import sparse

from .distributions import Atomic
from .errors import InvalidInput, NonConvergence

_PROB_TOL = 1e-12
_DENSE_ENTRIES = 2**24  # (pair, lattice index) entries the solve may hold


def _is_index(i, n: int) -> bool:
    """An integer in range(n); a float or bool equal to one is not."""
    integral = isinstance(i, (int, np.integer)) and not isinstance(i, bool)
    return integral and 0 <= i < n


def _check_counts(**counts) -> None:
    for name, n in counts.items():
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidInput(f"{name} must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class TabularMDP:
    """Finite MDP with per-(s, a) transition branches (prob, reward, next_state).

    ``branches`` holds each pair's branches of positive probability once
    parsed, as (p / total, reward, next_state), with ``total`` the sum of those
    p taken left to right; every reader of the dynamics reads it.
    """

    n_states: int
    n_actions: int
    transitions: dict  # (s, a) -> tuple of (prob, reward, next_state)
    gamma: float
    branches: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_counts(n_states=self.n_states, n_actions=self.n_actions)
        if not 0 <= self.gamma < 1:
            raise InvalidInput(f"gamma must lie in [0, 1), got {self.gamma}")
        extra = set(self.transitions) - set(self.pairs())
        if extra:
            raise InvalidInput(f"transition keys {sorted(map(repr, extra))} are not pairs of the MDP")
        parsed = {}
        for sa in self.pairs():
            row = self.transitions.get(sa)
            if not row:
                raise InvalidInput(f"missing transition row for {sa}")
            if not all(isinstance(b, (tuple, list)) and len(b) == 3 for b in row):
                raise InvalidInput(f"branches for {sa} must be (prob, reward, next_state) triples")
            if not all(isinstance(x, Real) for b in row for x in b[:2]):
                raise InvalidInput(f"probs and rewards for {sa} must be real numbers")
            probs = np.array([b[0] for b in row], dtype=float)
            if not (probs >= 0).all() or not abs(probs.sum() - 1.0) <= _PROB_TOL:
                raise InvalidInput(f"transition probs for {sa} do not sum to 1")
            if not np.isfinite([b[1] for b in row]).all():
                raise InvalidInput(f"rewards for {sa} must be finite")
            if not all(_is_index(b[2], self.n_states) for b in row):
                raise InvalidInput(f"next states for {sa} must be state indices")
            kept = [(float(p), r, s_next) for p, r, s_next in row if p > 0]
            total = sum(p for p, _, _ in kept)
            parsed[sa] = tuple((p / total, r, s_next) for p, r, s_next in kept)
        object.__setattr__(self, "branches", parsed)

    def pairs(self):
        return [(s, a) for s in range(self.n_states) for a in range(self.n_actions)]


@dataclass(frozen=True)
class Policy:
    """Tabular stochastic policy: row s gives the action distribution at s."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise InvalidInput("policy table must be 2-dimensional")
        if 0 in probs.shape:
            raise InvalidInput(f"policy table needs a state and an action, got shape {probs.shape}")
        if not (probs >= 0).all() or not (np.abs(probs.sum(axis=1) - 1.0) <= _PROB_TOL).all():
            raise InvalidInput("policy rows must be probability vectors")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "Policy":
        _check_counts(n_states=n_states, n_actions=n_actions)
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))

    @classmethod
    def deterministic(cls, actions, n_actions: int) -> "Policy":
        """Take action actions[s] at state s: a 1-D sequence of action indices."""
        _check_counts(n_actions=n_actions)
        if not np.iterable(actions) or not all(_is_index(a, n_actions) for a in actions):
            raise InvalidInput(f"actions must be integers in range({n_actions}), got {actions!r}")
        probs = np.zeros((len(actions), n_actions))
        probs[np.arange(len(actions)), actions] = 1.0
        return cls(probs)


ReturnTable = dict  # (s, a) -> Atomic


def _check_policy(mdp: TabularMDP, pi: Policy) -> None:
    shape = (mdp.n_states, mdp.n_actions)
    if pi.probs.shape != shape:
        raise InvalidInput(f"policy table has shape {pi.probs.shape}, the MDP needs {shape}")


def zero_table(mdp: TabularMDP) -> ReturnTable:
    return {sa: Atomic([0.0], [1.0]) for sa in mdp.pairs()}


def backup_mixture(samples, table: ReturnTable, pi: Policy, gamma: float) -> Atomic:
    """Mixture of the pi-backups of weighted samples (weight, r, s_next).

    Sample j contributes the atoms r_j + gamma * z of every table[(s_next_j, a)]
    with pi(a | s_next_j) > 0, at masses weight_j * ((pi(a | s_next_j) / scale)
    * m), where scale sums those pi entries.  The weights must sum to 1.  All
    atoms go into one concatenation and one Atomic, in sample order and then
    action order, with the floats of a mixture over samples of mixtures over
    actions of push-forwards.
    """
    if not 0 <= gamma < 1:
        raise InvalidInput(f"gamma must lie in [0, 1), got {gamma}")
    locs, masses = [], []
    for weight, r, s_next in samples:
        row = pi.probs[s_next]
        acts = [(a, float(row[a])) for a in range(row.size) if row[a] > 0]
        scale = sum(p for _, p in acts)
        for a, p in acts:
            dist = table[(s_next, a)]
            locs.append(r + gamma * dist.locations)
            masses.append(weight * ((p / scale) * dist.masses))
    return Atomic._owned(np.concatenate(locs), np.concatenate(masses))


def bellman_backup(r: float, s_next: int, table: ReturnTable, pi: Policy, gamma: float) -> Atomic:
    """Single-sample backup: pi-weighted mixture of push-forwards at s_next."""
    return backup_mixture([(1.0, r, s_next)], table, pi, gamma)


def compact_atoms(dist: Atomic, grid: Optional[float] = None) -> Atomic:
    """Merge duplicate atoms; optionally project onto a uniform grid first.

    Grid projection splits each atom's mass between its two neighbouring
    lattice points k*grid and (k + 1)*grid so that the mean is preserved
    exactly; masses at the same lattice index then merge by one bincount
    over k.  A lattice window k_max - k_min + 2 wider than the 2n split atoms
    takes the sort path that ``grid=None`` uses instead.  Both paths add each
    point's masses in the same order and give the same floats, except that
    a -0.0 location reads back as 0.0 from the lattice.
    """
    if grid is not None and not 0 < grid < np.inf:  # NaN included
        raise InvalidInput(f"grid must be None or a finite number > 0, got {grid}")
    locs = dist.locations
    masses = dist.masses
    if grid is not None:
        # large supports pay about one page fault per 4 KB of fresh memory,
        # so the split masses and their lattice indices fill preallocated halves
        n = locs.size
        frac = locs / grid
        lo = np.floor(frac)
        frac -= lo
        masses_split = np.empty(2 * n)  # left halves, then right halves
        np.multiply(1.0 - frac, masses, out=masses_split[:n])
        np.multiply(masses, frac, out=masses_split[n:])
        k_min, k_max = lo.min(), lo.max()
        if k_max - k_min + 2 <= 2 * n:  # False on a NaN or infinite window
            # bin j holds the left halves at k = j, then the right halves at
            # k + 1 = j, each in index order: the order a stable sort groups them
            k = np.empty(2 * n, dtype=np.intp)
            np.subtract(lo, k_min, out=k[:n], casting="unsafe")
            np.add(k[:n], 1, out=k[n:])
            masses = np.bincount(k, weights=masses_split)
            return _normalized((np.arange(masses.size) + k_min) * grid, masses)
        locs = np.concatenate([lo * grid, (lo + 1.0) * grid])
        masses = masses_split
    order = np.argsort(locs, kind="stable")
    locs, masses = locs[order], masses[order]
    opens = np.ones(locs.size, dtype=bool)
    opens[1:] = locs[1:] != locs[:-1]
    if not opens.all():  # duplicate-free supports skip the grouping's fixed cost
        # bincount adds each group's masses left to right, as a running sum would
        locs, masses = locs[opens], np.bincount(np.cumsum(opens) - 1, weights=masses)
    return _normalized(locs, masses)


def _normalized(locs: np.ndarray, masses: np.ndarray) -> Atomic:
    """The atoms of positive mass, their masses rescaled to sum to 1."""
    nz = masses > 0
    masses = masses[nz] / masses[nz].sum()
    return Atomic._owned(locs[nz], masses)


def apply_bellman(
    table: ReturnTable,
    mdp: TabularMDP,
    pi: Policy,
    grid: Optional[float] = None,
) -> ReturnTable:
    """One exact application of the distributional Bellman operator."""
    _check_policy(mdp, pi)
    out = {}
    for sa, samples in mdp.branches.items():
        out[sa] = compact_atoms(backup_mixture(samples, table, pi, mdp.gamma), grid=grid)
    return out


def _lattice_index(dist: Atomic, grid: float) -> np.ndarray:
    """The integer k of each atom at k * grid; an atom elsewhere is an error."""
    k = np.rint(dist.locations / grid)
    if not np.array_equal(k * grid, dist.locations):
        raise InvalidInput(f"atoms lie off the lattice of grid {grid}")
    return k.astype(np.intp)


def _lattice_w1(pmf_gap: np.ndarray, grid: float) -> np.ndarray:
    """W1 on the lattice grid * Z from a pmf gap along the last axis: grid * sum |CDF gap|."""
    return grid * np.abs(np.cumsum(pmf_gap, axis=-1)).sum(axis=-1)


def _on_window(table: ReturnTable, lo: int, width: int, grid: float) -> np.ndarray:
    """The table's laws as (pair, index) pmf rows over the lattice window of
    width bins from index lo; an atom off the lattice is an error."""
    rows = [np.bincount(_lattice_index(d, grid) - lo, d.masses, width) for d in table.values()]
    return np.array(rows)


def _lattice_operator(mdp: TabularMDP, pi: Policy, grid: float):
    """apply_bellman on the lattice grid * Z, as a map on (pair, index) pmfs.

    A step mixes each state's action rows by pi; shifts each mixture by each
    distinct reward r, splitting the mass at index k between floor(f) and the
    index above, f = (r + gamma * k * grid) / grid, as compact_atoms does;
    weights the shifted rows by each pair's branch probabilities; and
    rescales each row to sum to 1.  Returns the lattice window's lowest index,
    its width and the step.  A window of more than _DENSE_ENTRIES (pair,
    index) entries is an error.
    """
    n_states, n_pairs = mdp.n_states, mdp.n_states * mdp.n_actions
    rewards = list(dict.fromkeys(r for row in mdp.branches.values() for _, r, _ in row))
    # Reward r sends index k to floor(r / grid + gamma * k) and the index above,
    # so [lo, hi] holds its own images once it holds the map's fixed interval
    # [y, x] / (1 - gamma), x and y the largest and smallest r / grid, with
    # x / (1 - gamma) < hi.  Widened by 1 / (1 - gamma) + 1e-6 steps on each side,
    # then rounded inward, it has over gamma + 1e-6 (1 - gamma) steps to spare for
    # rounding.  With 0, the start, added it spans ~1e4 + 2 / (1 - gamma) bins.
    x, y = max(rewards) / grid, min(rewards) / grid
    lo = min(0, int(np.ceil((y - 1.0) / (1.0 - mdp.gamma) - 1e-6)))
    hi = max(0, int(np.floor((x + 1.0) / (1.0 - mdp.gamma) + 1e-6)))
    width, n_rewards = hi - lo + 1, len(rewards)
    if n_pairs * width > _DENSE_ENTRIES:
        raise InvalidInput(f"a lattice window of {n_pairs} x {width} entries exceeds {_DENSE_ENTRIES}")
    branch_weights = {r: np.zeros((n_pairs, n_states)) for r in rewards}  # (pair, next state)
    for i, row in enumerate(mdp.branches.values()):
        for p, r, s_next in row:
            branch_weights[r][i, s_next] += p
    lattice = np.arange(lo, hi + 1) * grid
    rows, masses = [], []
    for j, r in enumerate(rewards):
        f = (r + mdp.gamma * lattice) / grid
        k = np.floor(f)
        right, k = f - k, k.astype(np.intp) - lo
        if k[0] < 0 or k[-1] + 1 >= width:
            raise InvalidInput(f"gamma {mdp.gamma} leaves the lattice window no room for rounding")
        rows += [k * n_rewards + j, (k + 1) * n_rewards + j]
        masses += [1.0 - right, right]
    # row i * n_rewards + j holds what reward j moves to index i: O(rewards * width)
    shift = sparse.csr_matrix(
        (np.concatenate(masses), (np.concatenate(rows), np.tile(np.arange(width), 2 * n_rewards))),
        shape=(width * n_rewards, width),
    )
    weights = np.hstack(list(branch_weights.values()))
    mix = pi.probs / pi.probs.sum(axis=1, keepdims=True)

    def step(pmfs: np.ndarray) -> np.ndarray:
        mixed = np.einsum("sak,sa->sk", pmfs.reshape(n_states, mdp.n_actions, width), mix)
        out = weights @ (shift @ mixed.T).reshape(width, n_rewards * n_states).T
        return out / out.sum(axis=1, keepdims=True)

    return lo, width, step


def _solve_on_lattice(mdp: TabularMDP, pi: Policy, grid: float, tol: float, max_iters: int):
    """The fixed-point solve on the lattice grid * Z: one loop of dense steps
    from the zero table.  The step whose sup-W1 change is at most tol is
    redone by one exact apply_bellman step, scored against the same iterate
    on the same window; the exact table is the result if its change is at
    most tol too, and the loop goes on from it otherwise.  max_iters counts
    every step."""
    _check_policy(mdp, pi)
    lo, width, step = _lattice_operator(mdp, pi, grid)
    pmfs = np.zeros((mdp.n_states * mdp.n_actions, width))
    pmfs[:, -lo] = 1.0
    for _ in range(max_iters):
        nxt = step(pmfs)
        residual = float(_lattice_w1(nxt - pmfs, grid).max())
        if residual <= tol:
            table = {}
            for sa, row in zip(mdp.pairs(), pmfs):
                k = np.flatnonzero(row)
                table[sa] = Atomic._owned((k + lo) * grid, row[k])
            table = apply_bellman(table, mdp, pi, grid=grid)
            nxt = _on_window(table, lo, width, grid)
            residual = float(_lattice_w1(nxt - pmfs, grid).max())
            if residual <= tol:
                return table
        pmfs = nxt
    raise NonConvergence(f"fixed point not reached in {max_iters} iterations", residual=residual)


def solve_return_fixed_point(
    mdp: TabularMDP,
    pi: Policy,
    tol: float = 1e-8,
    max_iters: int = 10_000,
) -> ReturnTable:
    """Iterate the Bellman operator from the zero table to its fixed point.

    Every step projects onto the lattice of grid h = 1e-4 times the return
    span 2 * max|r| / (1 - gamma), r over the branches of positive
    probability, which keeps atom counts bounded, and stops when the
    supremum-W1 change, measured on that lattice, drops below tol.  When
    every reward is 0 all atoms sit at 0, which a unit grid holds.  The
    result is within h / (2 (1 - gamma)) + gamma * tol / (1 - gamma) of the
    true laws in sup-W1: a projection moves W1 by at most h / 2, and the
    projected operator is a gamma-contraction.
    """
    if not tol > 0:  # NaN included
        raise InvalidInput(f"tol must be positive, got {tol}")
    _check_counts(max_iters=max_iters)
    rmax = max(abs(r) for row in mdp.branches.values() for _, r, _ in row)
    span = 2.0 * rmax / (1.0 - mdp.gamma)
    grid = 1e-4 * span if span > 0 else 1.0
    if not 0 < grid < np.inf:  # a span that overflows, or so small its grid underflows
        raise InvalidInput(f"the lattice step 1e-4 * span must be finite and positive, got {grid}")
    return _solve_on_lattice(mdp, pi, grid, tol, max_iters)
