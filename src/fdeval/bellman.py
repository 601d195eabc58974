"""Exact distributional Bellman machinery for tabular MDPs.

Return tables carry one finite atomic distribution per (state, action).
The operator is exact on finite supports and merges duplicate atoms;
because supports grow multiplicatively, an optional grid projection keeps
long runs tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import Atomic, mixture, push_forward
from .errors import InvalidInput, NonConvergence
from .metrics import wasserstein_1d

_PROB_TOL = 1e-12


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
                probs = np.array([b[0] for b in branches])
                if np.any(probs < 0) or abs(probs.sum() - 1.0) > _PROB_TOL:
                    raise InvalidInput(f"transition probs for {(s, a)} do not sum to 1")

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
        if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > _PROB_TOL):
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


def zero_table(mdp: TabularMDP) -> ReturnTable:
    return {sa: Atomic([0.0], [1.0]) for sa in mdp.pairs()}


def bellman_backup(r: float, s_next: int, table: ReturnTable, pi: Policy, gamma: float) -> Atomic:
    """Single-sample backup: pi-weighted mixture of push-forwards at s_next."""
    row = pi.probs[s_next]
    parts = [
        (float(row[a]), push_forward(table[(s_next, a)], r, gamma))
        for a in range(row.size)
        if row[a] > 0
    ]
    scale = sum(w for w, _ in parts)
    parts = [(w / scale, d) for w, d in parts]
    return mixture(parts)


def _check_grid(grid: Optional[float]) -> None:
    if grid is not None and not 0 < grid < np.inf:  # NaN included
        raise InvalidInput(f"grid must be None or a finite number > 0, got {grid}")


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
    _check_grid(grid)
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
    return Atomic(locs[nz], masses)


def apply_bellman(
    table: ReturnTable,
    mdp: TabularMDP,
    pi: Policy,
    grid: Optional[float] = None,
) -> ReturnTable:
    """One exact application of the distributional Bellman operator."""
    out = {}
    for s, a in mdp.pairs():
        parts = [
            (float(prob), bellman_backup(r, s_next, table, pi, mdp.gamma))
            for prob, r, s_next in mdp.transitions[(s, a)]
            if prob > 0
        ]
        total = sum(w for w, _ in parts)
        parts = [(w / total, d) for w, d in parts]
        out[(s, a)] = compact_atoms(mixture(parts), grid=grid)
    return out


def sup_w1(table1: ReturnTable, table2: ReturnTable) -> float:
    return max(wasserstein_1d(1.0, table1[k], table2[k]) for k in table1)


def solve_return_fixed_point(
    mdp: TabularMDP,
    pi: Policy,
    tol: float = 1e-8,
    max_iters: int = 10_000,
    grid: Optional[float] = None,
) -> ReturnTable:
    """Iterate the Bellman operator from the zero table to its fixed point.

    Stops when the supremum-W1 change drops below tol.  When no explicit
    grid is given, a projection grid of 1e-4 times the return range is used
    to keep atom counts bounded.
    """
    if tol <= 0:
        raise InvalidInput("tol must be positive")
    _check_grid(grid)
    if grid is None:
        rmax = max(
            abs(r) for branches in mdp.transitions.values() for _, r, _ in branches
        )
        span = 2.0 * rmax / (1.0 - mdp.gamma)
        grid = 1e-4 * span if span > 0 else None
    table = zero_table(mdp)
    residual = np.inf
    for _ in range(max_iters):
        nxt = apply_bellman(table, mdp, pi, grid=grid)
        residual = sup_w1(nxt, table)
        table = nxt
        if residual <= tol:
            return table
    raise NonConvergence(
        f"fixed point not reached in {max_iters} iterations", residual=residual
    )
