"""Data-generating environments and dataset collection.

The LQR benchmark has deterministic linear dynamics, quadratic rewards with
Gaussian noise, and a known quadratic-Gaussian return family that the
Bellman operator maps into itself, so ground truth is a parameter fixed
point rather than a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bellman import Policy, TabularMDP, _check_counts, _check_policy
from .errors import InvalidInput, NonConvergence

ROTATION_ANGLES = tuple(2.0 * np.pi * k / 5.0 for k in range(5))


@dataclass(frozen=True)
class LQREnv:
    """2-D linear-quadratic environment: x' = Ax + Ba, reward quadratic + noise."""

    a_mat: np.ndarray
    b_mat: np.ndarray
    q_mat: np.ndarray
    r_mat: np.ndarray
    k_gain: np.ndarray
    sigma0: float = 1.0
    gamma: float = 0.99

    def __post_init__(self):
        for name in ("a_mat", "b_mat", "q_mat", "r_mat", "k_gain"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.shape != (2, 2):
                raise InvalidInput(f"{name} must be 2x2")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)
        if not self.sigma0 > 0:
            raise InvalidInput("sigma0 must be positive")
        if not 0 < self.gamma < 1:
            raise InvalidInput("gamma must lie in (0, 1)")

    @classmethod
    def default(cls) -> "LQREnv":
        return cls(
            a_mat=np.diag([0.6, 0.8]),
            b_mat=np.diag([0.2, 0.1]),
            q_mat=np.array([[4.0, 1.0], [1.0, 4.0]]),
            r_mat=np.array([[2.0, 1.0], [1.0, 2.0]]),
            k_gain=np.eye(2),
        )

    @property
    def return_variance(self) -> float:
        """Variance of the discounted noise-return sum."""
        return self.sigma0**2 / (1.0 - self.gamma**2)

    def step(self, x: np.ndarray, a: np.ndarray, rng: Optional[np.random.Generator] = None):
        r = float(x @ self.q_mat @ x + a @ self.r_mat @ a)
        if rng is not None:
            r += rng.normal(0.0, self.sigma0)
        return r, self.a_mat @ x + self.b_mat @ a


@dataclass(frozen=True)
class LQRTheta:
    """Quadratic-mean return model parameters (M1, M2, M3)."""

    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray

    def __post_init__(self):
        for name in ("m1", "m2", "m3"):
            mat = np.asarray(getattr(self, name), dtype=float)
            if mat.shape != (2, 2):
                raise InvalidInput(f"{name} must be 2x2")
            if not np.all(np.isfinite(mat)):
                raise InvalidInput(f"{name} has non-finite entries")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    @classmethod
    def zero(cls) -> "LQRTheta":
        return cls(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "LQRTheta":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (12,):
            raise InvalidInput("parameter vector must have 12 entries")
        return cls(vec[:4].reshape(2, 2), vec[4:8].reshape(2, 2), vec[8:].reshape(2, 2))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.m1.ravel(), self.m2.ravel(), self.m3.ravel()])

    def mean(self, x: np.ndarray, a: np.ndarray) -> float:
        """Model mean x'M1 x + a'M2 x + a'M3 a at one state-action pair."""
        return float(x @ self.m1 @ x + a @ self.m2 @ x + a @ self.m3 @ a)

    def mean_batch(self, xs: np.ndarray, acts: np.ndarray) -> np.ndarray:
        return quadratic_features(xs, acts) @ self.to_vector()


def quadratic_features(xs: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Feature map phi(x, a) such that theta-mean = phi @ vec(theta).

    Column order matches LQRTheta.to_vector: x (x) x, a (x) x, a (x) a.
    """
    xs = np.atleast_2d(xs)
    acts = np.atleast_2d(acts)
    xx = np.einsum("ni,nj->nij", xs, xs).reshape(len(xs), 4)
    ax = np.einsum("ni,nj->nij", acts, xs).reshape(len(xs), 4)
    aa = np.einsum("ni,nj->nij", acts, acts).reshape(len(xs), 4)
    return np.hstack([xx, ax, aa])


@dataclass(frozen=True)
class Dataset:
    """Homogeneous transition records; LQR uses 2-vector states/actions."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray

    def __post_init__(self):
        n = len(self.rewards)
        if n == 0:
            raise InvalidInput("dataset must be nonempty")
        for name in ("states", "actions", "rewards", "next_states"):
            arr = np.asarray(getattr(self, name))
            if len(arr) != n:
                raise InvalidInput("dataset fields must have equal length")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.rewards)

    def slice(self, start: int, stop: int) -> "Dataset":
        return Dataset(
            self.states[start:stop],
            self.actions[start:stop],
            self.rewards[start:stop],
            self.next_states[start:stop],
        )


def behavior_state(rng: np.random.Generator, n: int) -> np.ndarray:
    radius = rng.uniform(0.0, 1.0, size=n)
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def behavior_action(xs: np.ndarray, angle_idx: np.ndarray) -> np.ndarray:
    """Rotate each state xs[i] by ROTATION_ANGLES[angle_idx[i]]."""
    acts = np.empty_like(xs)
    for k, angle in enumerate(ROTATION_ANGLES):
        mask = angle_idx == k
        acts[mask] = xs[mask] @ rotation(angle).T
    return acts


def lqr_collect(env: LQREnv, n: int, rng: np.random.Generator) -> Dataset:
    """n i.i.d. transitions under the 5-rotation behavior policy."""
    _check_counts(n=n)
    xs = behavior_state(rng, n)
    angle_idx = rng.integers(0, 5, size=n)
    acts = behavior_action(xs, angle_idx)
    rewards = (
        np.einsum("ni,ij,nj->n", xs, env.q_mat, xs)
        + np.einsum("ni,ij,nj->n", acts, env.r_mat, acts)
        + rng.normal(0.0, env.sigma0, size=n)
    )
    next_states = xs @ env.a_mat.T + acts @ env.b_mat.T
    return Dataset(xs, acts, rewards, next_states)


def parameter_bellman_map(env: LQREnv, theta: LQRTheta) -> LQRTheta:
    """Closed-form image of theta under the Bellman operator on the model family.

    The mapped mean is x'M1*x + a'M2*x + a'M3*a with the blocks below; the
    Gaussian noise law is unchanged, so the family is closed under the map.
    """
    a, b, q, r, k = env.a_mat, env.b_mat, env.q_mat, env.r_mat, env.k_gain
    g = env.gamma
    m1, m2, m3 = theta.m1, theta.m2, theta.m3
    new_m1 = q + g * (a.T @ m1 @ a + a.T @ k.T @ m2 @ a + a.T @ k.T @ m3 @ k @ a)
    # cross block printed as x' C a; our convention stores a' M2 x = x' C a with M2 = C'
    cross = g * (
        a.T @ (m1 + m1.T) @ b
        + a.T @ (k.T @ m2 + m2.T @ k) @ b
        + a.T @ k.T @ (m3 + m3.T) @ k @ b
    )
    new_m2 = cross.T
    new_m3 = r + g * (b.T @ m1 @ b + b.T @ k.T @ m2 @ b + b.T @ k.T @ m3 @ k @ b)
    return LQRTheta(new_m1, new_m2, new_m3)


def _parameter_map_linear_part(env: LQREnv) -> np.ndarray:
    """12x12 matrix L of the affine parameter Bellman map theta -> L theta + T(0)."""
    zero_env = replace(env, q_mat=np.zeros((2, 2)), r_mat=np.zeros((2, 2)))
    return np.column_stack(
        [parameter_bellman_map(zero_env, LQRTheta.from_vector(e)).to_vector() for e in np.eye(12)]
    )


def lqr_true_params(env: LQREnv) -> LQRTheta:
    """Fixed point of the parameter Bellman map: one solve of (I - L) theta = T(0)."""
    lin = _parameter_map_linear_part(env)
    radius = float(np.max(np.abs(np.linalg.eigvals(lin))))
    if radius >= 1.0:
        raise NonConvergence(f"parameter map is not a contraction (radius {radius:.4f})")
    offset = parameter_bellman_map(env, LQRTheta.zero()).to_vector()
    return LQRTheta.from_vector(np.linalg.solve(np.eye(12) - lin, offset))


def lqr_rollout_return_mean(env: LQREnv, x0: np.ndarray, a0: np.ndarray, horizon: int) -> float:
    """Deterministic part of the discounted return from (x0, a0) under a = Kx."""
    total = 0.0
    x, a = np.asarray(x0, dtype=float), np.asarray(a0, dtype=float)
    for t in range(horizon):
        r, x = env.step(x, a)
        total += env.gamma**t * r
        a = env.k_gain @ x
    return total


def lqr_mc_returns(
    env: LQREnv, x0: np.ndarray, a0: np.ndarray, n_traj: int, horizon: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte-Carlo discounted returns; dynamics are deterministic, so only
    the reward noise is random.  Its discounted sum over the horizon is
    exactly N(0, sigma0^2 (1 - gamma^(2H)) / (1 - gamma^2)), drawn once per
    trajectory."""
    base = lqr_rollout_return_mean(env, x0, a0, horizon)
    sd = env.sigma0 * np.sqrt((1.0 - env.gamma ** (2 * horizon)) / (1.0 - env.gamma**2))
    return base + rng.normal(0.0, sd, size=n_traj)


def tabular_make_random(
    n_states: int, n_actions: int, reward_support_size: int, rng: np.random.Generator,
    gamma: float = 0.9,
) -> TabularMDP:
    """Random MDP: Dirichlet-uniform rows over (reward, next-state) branches."""
    _check_counts(n_states=n_states, n_actions=n_actions, reward_support_size=reward_support_size)
    rewards = rng.uniform(0.0, 1.0, size=reward_support_size)
    branches = [(float(r), sp) for sp in range(n_states) for r in rewards]
    transitions = {}
    for s in range(n_states):
        for a in range(n_actions):
            probs = rng.dirichlet(np.ones(len(branches)))
            transitions[(s, a)] = tuple((float(p), r, sp) for p, (r, sp) in zip(probs, branches))
    return TabularMDP(n_states, n_actions, transitions, gamma)


def _choice_cdf(probs) -> np.ndarray:
    """CDF table, per row of probs, that Generator.choice(k, p=row) searches.

    ``int(cdf[i].searchsorted(rng.random(), side="right"))`` draws what
    ``rng.choice(k, p=probs[i])`` draws and leaves the generator in the same
    state, without re-validating the row on every draw.
    """
    cdf = np.cumsum(probs, axis=-1)
    return cdf / cdf[..., -1:]


def tabular_collect(
    mdp: TabularMDP, behavior: Policy, n: int, rng: np.random.Generator
) -> Dataset:
    """Transitions with (s, a) ~ uniform states x behavior, then the MDP row."""
    _check_counts(n=n)
    _check_policy(mdp, behavior)
    states = rng.integers(0, mdp.n_states, size=n)
    behavior_cdf = _choice_cdf(behavior.probs)
    actions = np.array(
        [int(behavior_cdf[s].searchsorted(rng.random(), side="right")) for s in states]
    )
    branch_cdf = {sa: _choice_cdf([p for p, _, _ in row]) for sa, row in mdp.branches.items()}
    rewards = np.empty(n)
    next_states = np.empty(n, dtype=int)
    for i, (s, a) in enumerate(zip(states, actions)):
        j = int(branch_cdf[(s, a)].searchsorted(rng.random(), side="right"))
        _, rewards[i], next_states[i] = mdp.branches[(s, a)][j]
    return Dataset(states, actions, rewards, next_states)


def estimate_dpi_tabular(mdp: TabularMDP, behavior: Policy, pi: Policy) -> dict:
    """The discounted occupancy of pi over (s, a) pairs, as {pair: weight}.

    The chain starts from nu0(s, a) = behavior(a | s) / S and follows pi, so
    d = (1 - gamma) nu0 (I - gamma P_pi)^-1 with
    P_pi[(s, a), (s', a')] = P(s' | s, a) pi(a' | s'): one linear solve.
    """
    _check_policy(mdp, behavior)
    _check_policy(mdp, pi)
    pairs = mdp.pairs()
    to_state = np.zeros((len(pairs), mdp.n_states))
    for i, sa in enumerate(pairs):
        for p, _, s_next in mdp.branches[sa]:
            to_state[i, s_next] += p
    p_pi = (to_state[:, :, None] * pi.probs[None]).reshape(len(pairs), len(pairs))
    nu0 = behavior.probs.ravel() / mdp.n_states
    d = (1.0 - mdp.gamma) * np.linalg.solve(np.eye(len(pairs)) - mdp.gamma * p_pi.T, nu0)
    return dict(zip(pairs, np.maximum(d, 0.0).tolist()))  # rounding can dip below 0


def estimate_dpi_lqr(env: LQREnv, n_points: int, rng: np.random.Generator):
    """Discounted-occupancy sample for the LQR target policy a = Kx.

    Horizon H ~ Geometric(1 - gamma) on {1, 2, ...}; each point starts from
    the behavior law (state x0 and rotation action a0) and follows a = Kx for
    m = H - 1 steps.  A point with m >= 1 ends at
    x = (A + BK)^(m - 1) (A x0 + B a0), from one table of powers of A + BK.

    Returns (states, actions) arrays of shape (n_points, 2) with uniform
    weights 1/n_points.
    """
    _check_counts(n_points=n_points)
    steps = rng.geometric(1.0 - env.gamma, size=n_points) - 1
    xs = behavior_state(rng, n_points)
    acts = behavior_action(xs, rng.integers(0, 5, size=n_points))
    moved = steps > 0
    if moved.any():
        closed = env.a_mat + env.b_mat @ env.k_gain
        powers = np.eye(2)[None]  # powers[j] = closed^j
        while len(powers) < steps.max():
            powers = np.concatenate([powers, powers @ (powers[-1] @ closed)])
        first = xs[moved] @ env.a_mat.T + acts[moved] @ env.b_mat.T
        xs[moved] = np.einsum("nij,nj->ni", powers[steps[moved] - 1], first)
        acts[moved] = xs[moved] @ env.k_gain.T
    return xs, acts
