"""Tests for environments, data collection and ground-truth machinery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdeval.bellman import Policy
from fdeval.envs import (
    ROTATION_ANGLES,
    Dataset,
    LQREnv,
    LQRTheta,
    behavior_state,
    estimate_dpi_lqr,
    estimate_dpi_tabular,
    lqr_collect,
    lqr_mc_returns,
    lqr_rollout_return_mean,
    lqr_true_params,
    parameter_bellman_map,
    quadratic_features,
    rotation,
    tabular_collect,
    tabular_make_random,
)
from fdeval.errors import InvalidInput, NonConvergence


def test_default_env_matches_benchmark():
    env = LQREnv.default()
    np.testing.assert_allclose(env.a_mat, np.diag([0.6, 0.8]))
    np.testing.assert_allclose(env.b_mat, np.diag([0.2, 0.1]))
    assert env.gamma == 0.99
    assert env.return_variance == pytest.approx(1.0 / (1.0 - 0.99**2))


def test_step_reward_and_dynamics():
    env = LQREnv.default()
    x, a = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    r, x_next = env.step(x, a)
    assert r == pytest.approx(x @ env.q_mat @ x + a @ env.r_mat @ a)
    np.testing.assert_allclose(x_next, env.a_mat @ x + env.b_mat @ a)


def test_theta_vector_roundtrip_and_mean():
    rng = np.random.default_rng(0)
    vec = rng.normal(size=12)
    theta = LQRTheta.from_vector(vec)
    np.testing.assert_allclose(theta.to_vector(), vec)
    x, a = rng.normal(size=2), rng.normal(size=2)
    assert theta.mean(x, a) == pytest.approx(
        x @ theta.m1 @ x + a @ theta.m2 @ x + a @ theta.m3 @ a
    )
    assert theta.mean_batch(x[None, :], a[None, :])[0] == pytest.approx(theta.mean(x, a))


def test_quadratic_features_linearity():
    rng = np.random.default_rng(1)
    xs, acts = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    vec = rng.normal(size=12)
    theta = LQRTheta.from_vector(vec)
    np.testing.assert_allclose(
        quadratic_features(xs, acts) @ vec,
        [theta.mean(x, a) for x, a in zip(xs, acts)],
        atol=1e-12,
    )


def test_behavior_policy_geometry():
    rng = np.random.default_rng(2)
    n = 50_000
    xs = behavior_state(rng, n)
    radii = np.linalg.norm(xs, axis=1)
    assert radii.max() <= 1.0 + 1e-12
    assert radii.mean() == pytest.approx(0.5, abs=0.01)  # radius ~ U[0, 1]
    data = lqr_collect(LQREnv.default(), 2000, np.random.default_rng(3))
    # actions are rotations of the state: norms match exactly
    np.testing.assert_allclose(
        np.linalg.norm(data.actions, axis=1),
        np.linalg.norm(data.states, axis=1),
        atol=1e-12,
    )


def test_rotation_angles_cover_five_actions():
    assert len(ROTATION_ANGLES) == 5
    x = np.array([1.0, 0.0])
    mapped = {tuple(np.round(rotation(t) @ x, 12)) for t in ROTATION_ANGLES}
    assert len(mapped) == 5


def test_collect_deterministic_per_seed():
    env = LQREnv.default()
    d1 = lqr_collect(env, 50, np.random.default_rng(7))
    d2 = lqr_collect(env, 50, np.random.default_rng(7))
    np.testing.assert_array_equal(d1.rewards, d2.rewards)
    np.testing.assert_array_equal(d1.states, d2.states)


def test_parameter_map_gamma_zero():
    env = LQREnv.default()
    zero_gamma = LQREnv(
        env.a_mat, env.b_mat, env.q_mat, env.r_mat, env.k_gain, env.sigma0, 1e-12
    )
    rng = np.random.default_rng(4)
    theta = LQRTheta.from_vector(rng.normal(size=12))
    out = parameter_bellman_map(zero_gamma, theta)
    np.testing.assert_allclose(out.m1, env.q_mat, atol=1e-10)
    np.testing.assert_allclose(out.m2, np.zeros((2, 2)), atol=1e-10)
    np.testing.assert_allclose(out.m3, env.r_mat, atol=1e-10)


def test_truth_rejects_a_parameter_map_that_does_not_contract():
    env = LQREnv.default()
    unstable = LQREnv(1.5 * env.a_mat, env.b_mat, env.q_mat, env.r_mat, env.k_gain)
    with pytest.raises(NonConvergence, match="not a contraction"):
        lqr_true_params(unstable)


def test_completeness_mapped_mean_is_quadratic():
    """The Bellman image of any model mean stays in the quadratic family."""
    env = LQREnv.default()
    rng = np.random.default_rng(5)
    theta = LQRTheta.from_vector(rng.normal(size=12))
    mapped = parameter_bellman_map(env, theta)
    xs, acts = rng.normal(size=(100, 2)), rng.normal(size=(100, 2))
    # direct backup mean: r(x,a) + gamma * mu_theta(x', Kx')
    nxt = xs @ env.a_mat.T + acts @ env.b_mat.T
    direct = (
        np.einsum("ni,ij,nj->n", xs, env.q_mat, xs)
        + np.einsum("ni,ij,nj->n", acts, env.r_mat, acts)
        + env.gamma * theta.mean_batch(nxt, nxt @ env.k_gain.T)
    )
    residual = np.abs(mapped.mean_batch(xs, acts) - direct).max()
    assert residual <= 1e-10


def test_true_params_fixed_point_and_start_invariance():
    env = LQREnv.default()
    theta = lqr_true_params(env)
    image = parameter_bellman_map(env, theta)
    assert np.abs(image.to_vector() - theta.to_vector()).max() <= 1e-9
    # uniqueness: iterating from a different start reaches the same point
    rng = np.random.default_rng(6)
    other = LQRTheta.from_vector(rng.normal(scale=0.1, size=12))
    for _ in range(3000):
        other = parameter_bellman_map(env, other)
    assert np.abs(other.to_vector() - theta.to_vector()).max() <= 1e-10


def test_true_params_match_deterministic_rollout():
    env = LQREnv.default()
    theta = lqr_true_params(env)
    rng = np.random.default_rng(8)
    for _ in range(3):
        x, a = rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)
        assert theta.mean(x, a) == pytest.approx(
            lqr_rollout_return_mean(env, x, a, 3000), abs=1e-6
        )


def test_mc_returns_mean_and_variance():
    env = LQREnv.default()
    x, a = np.array([0.5, -0.3]), np.array([0.2, 0.1])
    returns = lqr_mc_returns(env, x, a, 20_000, 2000, np.random.default_rng(9))
    base = lqr_rollout_return_mean(env, x, a, 2000)
    assert returns.mean() == pytest.approx(base, abs=4 * env.return_variance**0.5 / 140)
    assert returns.var() == pytest.approx(env.return_variance, rel=0.05)
    # a short horizon, where the finite-horizon noise variance is far below
    # the infinite-horizon one: sigma0^2 (1 + gamma^2 + gamma^4)
    short = lqr_mc_returns(env, x, a, 20_000, 3, np.random.default_rng(9))
    short_var = env.sigma0**2 * (1.0 + env.gamma**2 + env.gamma**4)
    assert short.mean() == pytest.approx(
        lqr_rollout_return_mean(env, x, a, 3), abs=4 * short_var**0.5 / 140
    )
    assert short.var() == pytest.approx(short_var, rel=0.05)


def test_tabular_collect_frequencies():
    mdp = tabular_make_random(2, 2, 1, np.random.default_rng(13))
    data = tabular_collect(mdp, Policy.uniform(2, 2), 100_000, np.random.default_rng(14))
    freq0 = np.mean(data.states == 0)
    assert freq0 == pytest.approx(0.5, abs=0.01)
    # conditional next-state law matches the transition row
    for s, a in mdp.pairs():
        mask = (data.states == s) & (data.actions == a)
        if mask.sum() < 1000:
            continue
        for sp in range(mdp.n_states):
            truth = sum(p for p, _, nxt in mdp.transitions[(s, a)] if nxt == sp)
            emp = np.mean(data.next_states[mask] == sp)
            assert emp == pytest.approx(truth, abs=0.02)


def test_dpi_gamma_zero_equals_sampling_law():
    setup = np.random.default_rng(15)
    mdp = tabular_make_random(3, 2, 1, setup, gamma=0.0)
    behavior = _policy("random", 3, 2, setup)
    weights = estimate_dpi_tabular(mdp, behavior, Policy.uniform(3, 2))
    assert weights == {(s, a): behavior.probs[s, a] / 3 for s, a in mdp.pairs()}


def test_dpi_absorbing_chain_analytic():
    """Both states feed state 1, so the chain is at state 0 only at step 0,
    and only when the uniform start picked it: weight (1 - gamma) / 2."""
    from fdeval.bellman import TabularMDP

    transitions = {(0, 0): ((1.0, 0.0, 1),), (1, 0): ((1.0, 0.0, 1),)}
    mdp = TabularMDP(2, 1, transitions, 0.5)
    behavior = Policy.uniform(2, 1)
    assert estimate_dpi_tabular(mdp, behavior, behavior) == {(0, 0): 0.25, (1, 0): 0.75}


def _tabular_collect_choice(mdp, behavior, n, rng):
    """Reference for tabular_collect: one Generator.choice call per draw."""
    states = rng.integers(0, mdp.n_states, size=n)
    actions = np.array([rng.choice(mdp.n_actions, p=behavior.probs[s]) for s in states])
    rewards = np.empty(n)
    next_states = np.empty(n, dtype=int)
    for i, (s, a) in enumerate(zip(states, actions)):
        branches = mdp.transitions[(s, a)]
        probs = np.array([b[0] for b in branches])
        j = rng.choice(len(branches), p=probs)
        rewards[i] = branches[j][1]
        next_states[i] = branches[j][2]
    return Dataset(states, actions, rewards, next_states)


def _draw_actions(policy, states, rng):
    """One action per state by Generator.choice, one call per state value."""
    actions = np.empty(len(states), dtype=int)
    for s in range(policy.probs.shape[0]):
        on = states == s
        actions[on] = rng.choice(policy.probs.shape[1], p=policy.probs[s], size=on.sum())
    return actions


def _estimate_dpi_tabular_choice(mdp, behavior, pi, n_points, rng):
    """Monte-Carlo reference for estimate_dpi_tabular: the end pairs'
    frequencies over n_points chains.  Each chain draws a horizon
    H ~ Geometric(1 - gamma) on {1, 2, ...}, starts from uniform states x
    behavior and follows pi for H - 1 steps; a step draws by
    Generator.choice, once per pair for the chains that stand on it."""
    steps = (np.zeros(n_points, dtype=int) if mdp.gamma == 0
             else rng.geometric(1.0 - mdp.gamma, size=n_points) - 1)
    states = rng.integers(0, mdp.n_states, size=n_points)
    actions = _draw_actions(behavior, states, rng)
    for t in range(steps.max()):
        live = steps > t
        pair = states * mdp.n_actions + actions
        for i, sa in enumerate(mdp.pairs()):
            on = live & (pair == i)
            branches = mdp.transitions[sa]
            j = rng.choice(len(branches), p=[b[0] for b in branches], size=on.sum())
            states[on] = np.array([b[2] for b in branches])[j]
        actions[live] = _draw_actions(pi, states[live], rng)
    counts = np.bincount(states * mdp.n_actions + actions, minlength=len(mdp.pairs()))
    return dict(zip(mdp.pairs(), counts / n_points))


def _occupancy_series(mdp, behavior, pi, horizon):
    """Reference for estimate_dpi_tabular: the truncated series
    sum over h < horizon of (1 - gamma) gamma^h nu0 P_pi^h, with P_pi built
    pair by pair from the raw transitions."""
    pairs = mdp.pairs()
    index = {sa: i for i, sa in enumerate(pairs)}
    p_pi = np.zeros((len(pairs), len(pairs)))
    for sa in pairs:
        for p, _, s_next in mdp.transitions[sa]:
            for a_next in range(mdp.n_actions):
                p_pi[index[sa], index[(s_next, a_next)]] += p * pi.probs[s_next, a_next]
    term = np.array([behavior.probs[s, a] / mdp.n_states for s, a in pairs])
    total = np.zeros(len(pairs))
    for _ in range(horizon):
        total += (1.0 - mdp.gamma) * term
        term = mdp.gamma * (term @ p_pi)
    return dict(zip(pairs, total))


def _policy(kind, n_states, n_actions, rng):
    if kind == "uniform":
        return Policy.uniform(n_states, n_actions)
    if kind == "deterministic":
        return Policy.deterministic(rng.integers(0, n_actions, size=n_states), n_actions)
    return Policy(rng.dirichlet(np.ones(n_actions), size=n_states))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(1, 4),
    n_actions=st.integers(1, 3),
    gamma=st.sampled_from((0.0, 1e-9, 0.5, 0.9)),
    behavior_kind=st.sampled_from(("uniform", "deterministic", "random")),
)
@example(seed=0, n_states=1, n_actions=1, gamma=0.9, behavior_kind="uniform")
@example(seed=1, n_states=3, n_actions=2, gamma=1e-9, behavior_kind="deterministic")
def test_tabular_samplers_match_generator_choice(seed, n_states, n_actions, gamma, behavior_kind):
    """Same draws, and the same generator state afterwards, as rng.choice."""
    setup = np.random.default_rng(seed)
    mdp = tabular_make_random(n_states, n_actions, 2, setup, gamma=gamma)
    behavior = _policy(behavior_kind, n_states, n_actions, setup)
    rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    data = tabular_collect(mdp, behavior, 200, rng)
    ref = _tabular_collect_choice(mdp, behavior, 200, ref_rng)
    for name in ("states", "actions", "rewards", "next_states"):
        out, want = getattr(data, name), getattr(ref, name)
        assert np.array_equal(out, want) and out.dtype == want.dtype
    assert rng.random() == ref_rng.random()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_states=st.integers(1, 4),
    n_actions=st.integers(1, 3),
    gamma=st.sampled_from((0.0, 1e-9, 0.5, 0.9)),
    behavior_kind=st.sampled_from(("uniform", "deterministic", "random")),
    pi_kind=st.sampled_from(("uniform", "deterministic", "random")),
)
def test_dpi_tabular_matches_the_truncated_series(
    seed, n_states, n_actions, gamma, behavior_kind, pi_kind
):
    setup = np.random.default_rng(seed)
    mdp = tabular_make_random(n_states, n_actions, 2, setup, gamma=gamma)
    behavior = _policy(behavior_kind, n_states, n_actions, setup)
    pi = _policy(pi_kind, n_states, n_actions, setup)
    weights = estimate_dpi_tabular(mdp, behavior, pi)
    assert list(weights) == mdp.pairs()
    assert all(type(w) is float for w in weights.values())
    # 0.9^400 is below 1e-18
    assert weights == pytest.approx(_occupancy_series(mdp, behavior, pi, 400), rel=0, abs=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("kind", ["uniform", "deterministic", "random"])
def test_dpi_tabular_matches_sampled_chains(kind, gamma):
    """Within 5 standard errors of the frequencies of 2 x 10^5 sampled chains."""
    setup = np.random.default_rng(19)
    mdp = tabular_make_random(3, 2, 2, setup, gamma=gamma)
    behavior, pi = (_policy(kind, 3, 2, setup) for _ in range(2))
    n_points = 200_000
    freq = _estimate_dpi_tabular_choice(mdp, behavior, pi, n_points, np.random.default_rng(20))
    for sa, w in estimate_dpi_tabular(mdp, behavior, pi).items():
        assert abs(freq[sa] - w) <= 5.0 * np.sqrt(w * (1.0 - w) / n_points), sa


def test_dpi_lqr_shapes_and_decay():
    env = LQREnv.default()
    xs, acts = estimate_dpi_lqr(env, 2000, np.random.default_rng(18))
    assert xs.shape == (2000, 2) and acts.shape == (2000, 2)
    # closed-loop dynamics are stable, so occupancy states stay bounded
    assert np.linalg.norm(xs, axis=1).max() <= 1.5


def _estimate_dpi_lqr_loop(env, n_points, rng):
    """Per-point reference for estimate_dpi_lqr: the same draws, then the
    closed-loop dynamics run one point at a time."""
    xs = np.empty((n_points, 2))
    acts = np.empty((n_points, 2))
    horizons = rng.geometric(1.0 - env.gamma, size=n_points)
    x0 = behavior_state(rng, n_points)
    angle_idx = rng.integers(0, 5, size=n_points)
    for i in range(n_points):
        x = x0[i]
        a = rotation(ROTATION_ANGLES[angle_idx[i]]) @ x
        for _ in range(int(horizons[i]) - 1):
            x = env.a_mat @ x + env.b_mat @ a
            a = env.k_gain @ x
        xs[i], acts[i] = x, a
    return xs, acts


# A + BK of the default env is diagonal, so it cannot tell a power's operand
# order apart; this one is stable (spectral radius ~0.62) with A, B and K all
# non-diagonal.
_NON_DIAGONAL_DYNAMICS = (
    np.array([[0.5, 0.3], [-0.2, 0.7]]),
    np.array([[0.3, 0.1], [0.2, -0.4]]),
    np.array([[0.2, -0.5], [0.4, 0.1]]),
)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(1, 200),
    gamma=st.sampled_from((0.99, 0.9, 0.5)),
    non_diagonal=st.booleans(),
)
@example(seed=0, n_points=1, gamma=0.99, non_diagonal=False)
@example(seed=1, n_points=2, gamma=0.99, non_diagonal=False)
@example(seed=2, n_points=1000, gamma=0.99, non_diagonal=False)
@example(seed=2, n_points=1000, gamma=0.99, non_diagonal=True)
@example(seed=3, n_points=1000, gamma=1e-12, non_diagonal=False)  # every horizon is 1
def test_dpi_lqr_matches_per_point_loop(seed, n_points, gamma, non_diagonal):
    base = LQREnv.default()
    a_mat, b_mat, k_gain = (
        _NON_DIAGONAL_DYNAMICS if non_diagonal else (base.a_mat, base.b_mat, base.k_gain)
    )
    env = LQREnv(a_mat, b_mat, base.q_mat, base.r_mat, k_gain, base.sigma0, gamma)
    xs, acts = estimate_dpi_lqr(env, n_points, np.random.default_rng(seed))
    ref_xs, ref_acts = _estimate_dpi_lqr_loop(env, n_points, np.random.default_rng(seed))
    np.testing.assert_allclose(xs, ref_xs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(acts, ref_acts, rtol=0, atol=1e-12)


def test_input_validation():
    env = LQREnv.default()
    with pytest.raises(InvalidInput):
        lqr_collect(env, 0, np.random.default_rng(0))
    with pytest.raises(InvalidInput):
        LQRTheta(np.zeros((2, 2)), np.zeros((2, 2)), np.full((2, 2), np.nan))
    with pytest.raises(InvalidInput):
        Dataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)))
