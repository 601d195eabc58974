"""Exact distributional Bellman machinery for tabular MDPs.

Return tables carry one finite atomic distribution per (state, action).
The operator is exact on finite supports and merges duplicate atoms;
because supports grow multiplicatively, an optional grid projection keeps
long runs tractable.  Each backup is built in one pass: ``backup_mixture``
concatenates the shifted, scaled atoms of every (sample, action) term into
one Atomic, which compaction then merges.  The fixed-point solve projects
onto a lattice derived from the MDP (the categorical projection of Rowland
et al. 2018) and measures its per-step change there, where W1 is the grid
step times the summed |CDF difference|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import Atomic
from .errors import InvalidInput, NonConvergence

_PROB_TOL = 1e-12


def _is_state_index(s, n_states: int) -> bool:
    """An integer in range(n_states); a float or bool equal to one is not."""
    integral = isinstance(s, (int, np.integer)) and not isinstance(s, bool)
    return integral and 0 <= s < n_states


@dataclass(frozen=True)
class TabularMDP:
    """Finite MDP with per-(s, a) transition branches (prob, reward, next_state)."""

    n_states: int
    n_actions: int
    transitions: dict  # (s, a) -> tuple of (prob, reward, next_state)
    gamma: float

    def __post_init__(self):
        if not 0 <= self.gamma < 1:
            raise InvalidInput(f"gamma must lie in [0, 1), got {self.gamma}")
        for s in range(self.n_states):
            for a in range(self.n_actions):
                branches = self.transitions.get((s, a))
                if not branches:
                    raise InvalidInput(f"missing transition row for {(s, a)}")
                probs = np.array([b[0] for b in branches], dtype=float)
                if not (probs >= 0).all() or not abs(probs.sum() - 1.0) <= _PROB_TOL:
                    raise InvalidInput(f"transition probs for {(s, a)} do not sum to 1")
                if not np.isfinite([b[1] for b in branches]).all():
                    raise InvalidInput(f"rewards for {(s, a)} must be finite")
                if not all(_is_state_index(b[2], self.n_states) for b in branches):
                    raise InvalidInput(f"next states for {(s, a)} must be state indices")

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
        if not (probs >= 0).all() or not (np.abs(probs.sum(axis=1) - 1.0) <= _PROB_TOL).all():
            raise InvalidInput("policy rows must be probability vectors")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "Policy":
        return cls(np.full((n_states, n_actions), 1.0 / n_actions))

    @classmethod
    def deterministic(cls, actions, n_actions: int) -> "Policy":
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
    for sa in mdp.pairs():
        branches = [(float(p), r, s_next) for p, r, s_next in mdp.transitions[sa] if p > 0]
        total = sum(p for p, _, _ in branches)
        samples = [(p / total, r, s_next) for p, r, s_next in branches]
        out[sa] = compact_atoms(backup_mixture(samples, table, pi, mdp.gamma), grid=grid)
    return out


def _lattice_index(dist: Atomic, grid: float) -> np.ndarray:
    """The integer k of each atom at k * grid; an atom elsewhere is an error."""
    k = np.rint(dist.locations / grid)
    if not np.array_equal(k * grid, dist.locations):
        raise InvalidInput(f"atoms lie off the lattice of grid {grid}")
    return k.astype(np.intp)


def _lattice_sup_w1(table1: ReturnTable, table2: ReturnTable, grid: float) -> float:
    """Largest W1 distance between the two tables' laws at a shared index,
    for tables whose atoms all lie on the lattice grid * Z.

    On the lattice W1 is grid times the summed |CDF difference| over the
    indices, so a pair costs two bincounts and one cumsum over its index
    window.  The window stays small at the fixed-point solve's grid of
    1e-4 times the return span: returns lie within 1e4 steps, and
    projection pushes the support out by less than 1 / (1 - gamma) steps
    on each side, so a window holds at most about 1e4 + 2 / (1 - gamma) + 2
    bins.
    """
    if table1.keys() != table2.keys():
        raise InvalidInput("tables must share the same index set")
    worst = 0.0
    for sa, dist1 in table1.items():
        dist2 = table2[sa]
        k1, k2 = _lattice_index(dist1, grid), _lattice_index(dist2, grid)
        lo = min(k1.min(), k2.min())
        width = max(k1.max(), k2.max()) - lo + 1
        pmf_gap = np.bincount(k1 - lo, dist1.masses, width) - np.bincount(
            k2 - lo, dist2.masses, width
        )
        worst = max(worst, grid * float(np.abs(np.cumsum(pmf_gap)).sum()))
    return worst


def solve_return_fixed_point(
    mdp: TabularMDP,
    pi: Policy,
    tol: float = 1e-8,
    max_iters: int = 10_000,
) -> ReturnTable:
    """Iterate the Bellman operator from the zero table to its fixed point.

    Every step projects onto the lattice of grid 1e-4 times the return span
    2 * max|r| / (1 - gamma), which keeps atom counts bounded, and stops
    when the supremum-W1 change, measured on that lattice, drops below tol.
    When every reward is 0 all atoms sit at 0, which a unit grid holds.
    """
    if not tol > 0:  # NaN included
        raise InvalidInput(f"tol must be positive, got {tol}")
    rmax = max(abs(r) for branches in mdp.transitions.values() for _, r, _ in branches)
    span = 2.0 * rmax / (1.0 - mdp.gamma)
    grid = 1e-4 * span if span > 0 else 1.0
    table = zero_table(mdp)
    residual = np.inf
    for _ in range(max_iters):
        nxt = apply_bellman(table, mdp, pi, grid=grid)
        residual = _lattice_sup_w1(nxt, table, grid)
        table = nxt
        if residual <= tol:
            return table
    raise NonConvergence(
        f"fixed point not reached in {max_iters} iterations", residual=residual
    )
