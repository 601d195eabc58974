"""Randomized property suites backing the numerical claims.

Each suite returns a report dict with at least ``suite``, ``trials``,
``violations`` (a list of counterexample records) and ``passed``.  A pass
means no counterexample was found at the given seed, not a proof.
"""

from __future__ import annotations

import math

import numpy as np

from .bellman import Policy, TabularMDP, apply_bellman, zero_table
from .distributions import Atomic, GaussianMixture1D
from .divergences import (
    FDE_METHODS,
    DivergenceSpec,
    closed_form_gaussian,
    divergence_gmm,
    energy_mmd2_atomic,
    kl_gaussian,
    mmd2_gaussian,
)
from .envs import tabular_collect, tabular_make_random
from .errors import InvalidInput
from .fde import split_dataset
from .metrics import (
    ExtensionSpec,
    MetricSpec,
    _random_atomic,
    contraction_factor,
    metric_extension,
    slc_property_check,
    wasserstein_1d,
)

# slack for floating-point rounding in the suites' inequality checks
_TOL = 1e-9
_TELESCOPING_TOL = 1e-6


def _random_table(mdp: TabularMDP, rng: np.random.Generator) -> dict:
    return {sa: _random_atomic(rng, 4) for sa in mdp.pairs()}


def contraction_suite(seed: int, trials: int = 100) -> dict:
    """Exact one-step Bellman contraction under both table extensions.

    Supremum extension: random multi-state MDPs, factor gamma.  Expectation
    extension with the occupancy weights of the evaluated policy: single-state
    MDPs whose sampling law equals the policy, so the occupancy is the policy
    itself and the factor gamma^(1 - 1/(2p)) applies exactly.
    """
    def expectation(p: float, pi: Policy) -> ExtensionSpec:
        weights = {sa: float(w) for sa, w in np.ndenumerate(pi.probs)}
        return ExtensionSpec("expectation", q=p, weights=weights)

    cases = ((2, 2, lambda p, pi: ExtensionSpec("supremum")), (1, 3, expectation))
    rng = np.random.default_rng(seed)
    violations = []
    for trial in range(trials):
        gamma = float(rng.uniform(0.3, 0.95))
        for n_states, n_actions, extension in cases:
            mdp = tabular_make_random(n_states, n_actions, 2, rng, gamma=gamma)
            pi = Policy(rng.dirichlet(np.ones(n_actions), size=n_states))
            u1, u2 = _random_table(mdp, rng), _random_table(mdp, rng)
            tu1, tu2 = apply_bellman(u1, mdp, pi), apply_bellman(u2, mdp, pi)
            for p in (1.0, 2.0):
                metric = MetricSpec("wasserstein", p=p)
                ext = extension(p, pi)
                before = metric_extension(metric, ext, u1, u2)
                after = metric_extension(metric, ext, tu1, tu2)
                bound = contraction_factor(metric, ext, gamma) * before
                if after > bound + _TOL:
                    violations.append(
                        {"trial": trial, "extension": ext.mode, "p": p,
                         "after": after, "bound": bound}
                    )
    return {"suite": "contraction", "trials": trials, "violations": violations,
            "passed": not violations}


def _push_gmm(g: GaussianMixture1D, r: float, gamma: float, scale_w: float = 1.0):
    return [(scale_w * w, r + gamma * m, gamma**2 * v) for w, m, v in g.components]


def _mix_gmms(parts) -> GaussianMixture1D:
    comps = []
    for scale, comp_list in parts:
        comps.extend((scale * w, m, v) for w, m, v in comp_list)
    return GaussianMixture1D(tuple(comps))


def _shift_gmm(g: GaussianMixture1D, dz: float) -> GaussianMixture1D:
    return GaussianMixture1D(tuple((w, m + dz, v) for w, m, v in g.components))


def _reweight_gmm(g: GaussianMixture1D, rng: np.random.Generator) -> GaussianMixture1D:
    comps = list(g.components)
    w = np.array([c[0] for c in comps])
    tilt = rng.dirichlet(np.ones(len(comps)))
    w = 0.5 * w + 0.5 * tilt
    w = w / w.sum()
    return GaussianMixture1D(tuple((float(wi), m, v) for wi, (_, m, v) in zip(w, comps)))


def minimizer_suite(seed: int, mc_samples: int = 4000) -> dict:
    """Population-minimizer identity: the exact expected divergence to the
    random Bellman backup is minimized at the backup mixture itself.

    A small MDP with mixture-valued return guesses gives backup realizations
    that are Gaussian mixtures; the expected objective over transition
    randomness is computed in closed form (Monte Carlo with common random
    numbers for the KL kind) on a candidate grid containing the true mixture.
    """
    rng = np.random.default_rng(seed)
    gamma = 0.8
    mdp = tabular_make_random(2, 2, 1, rng, gamma=gamma)
    pi = Policy(rng.dirichlet(np.ones(2), size=2))
    base_var = 0.25
    guess = {}
    for sa in mdp.pairs():
        w = rng.dirichlet(np.ones(3))
        m = rng.normal(0.0, 1.0, size=3)
        guess[sa] = GaussianMixture1D(tuple((float(wi), float(mi), base_var) for wi, mi in zip(w, m)))

    specs = {method: DivergenceSpec(method) for method in FDE_METHODS}

    violations = []
    trials = 0
    for sa_index, (s, a) in enumerate(mdp.pairs()):
        branches = [b for b in mdp.transitions[(s, a)] if b[0] > 0]
        backups = []
        for prob, r, sp in branches:
            parts = [
                (float(pi.probs[sp, ap]), _push_gmm(guess[(sp, ap)], r, gamma))
                for ap in range(mdp.n_actions)
                if pi.probs[sp, ap] > 0
            ]
            backups.append((prob, _mix_gmms(parts)))
        true_min = _mix_gmms([(prob, list(g.components)) for prob, g in backups])
        candidates = [
            ("true", true_min),
            ("shift+0.3", _shift_gmm(true_min, 0.3)),
            ("shift-0.3", _shift_gmm(true_min, -0.3)),
            ("shift+0.6", _shift_gmm(true_min, 0.6)),
            ("reweight", _reweight_gmm(true_min, rng)),
        ]
        for name, spec in specs.items():
            trials += 1
            scores = {}
            for label, cand in candidates:
                total = 0.0
                for b_index, (prob, backup) in enumerate(backups):
                    # common random numbers: the same draw stream per backup
                    # realization across candidates, so MC noise cancels in
                    # the argmin comparison
                    mc_rng = np.random.default_rng((seed, sa_index, b_index))
                    total += prob * divergence_gmm(
                        spec, cand, backup, rng=mc_rng, mc_samples=mc_samples
                    )
                scores[label] = total
            best = min(scores, key=scores.get)
            margin = min(v for k, v in scores.items() if k != "true") - scores["true"]
            if best != "true" or margin <= 0:
                violations.append(
                    {"pair": (s, a), "divergence": name, "scores": scores, "margin": margin}
                )
    return {"suite": "minimizer", "trials": trials, "violations": violations,
            "passed": not violations}


def slc_suite(seed: int, trials: int = 200) -> dict:
    """Scale/location/convexity checks plus a wrong-constant negative control."""
    rng = np.random.default_rng(seed)
    metrics = {
        "wasserstein_1": MetricSpec("wasserstein", p=1.0),
        "wasserstein_2": MetricSpec("wasserstein", p=2.0),
        "energy_mmd": MetricSpec("energy"),
        "cramer": MetricSpec("cramer"),
    }
    violations = []
    for name, metric in metrics.items():
        report = slc_property_check(metric, trials, rng)
        for v in report["violations"]:
            violations.append(dict(v, metric=name))
    # negative control: Wasserstein-1 does not satisfy scale exponent c = 2
    control = slc_property_check(
        MetricSpec("wasserstein", p=1.0), trials, np.random.default_rng(seed + 1),
        c_override=2.0,
    )
    control_scale = [v for v in control["violations"] if v["property"] == "scale"]
    control_ok = len(control_scale) >= 1
    passed = not violations and control_ok
    return {"suite": "slc", "trials": trials * len(metrics), "violations": violations,
            "control_detected": control_ok, "passed": passed}


def _mc_divergence(spec, mu1, v1, mu2, v2, n, rng):
    """Paired-draw Monte-Carlo estimate (value, standard error)."""
    sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
    if spec.kind in ("cramer", "energy", "rbf", "laplace"):
        if spec.kind == "rbf":
            h = lambda d: np.exp(-(d**2) / (4.0 * spec.sigma**2))
        elif spec.kind == "laplace":
            h = lambda d: np.exp(-np.abs(d) / spec.sigma)
        else:
            h = lambda d: -np.abs(d)
        x1 = rng.normal(mu1, sd1, size=n)
        x2 = rng.normal(mu1, sd1, size=n)
        y1 = rng.normal(mu2, sd2, size=n)
        y2 = rng.normal(mu2, sd2, size=n)
        stat = h(x1 - x2) + h(y1 - y2) - h(x1 - y1) - h(x2 - y2)
        if spec.kind == "cramer":
            stat = 0.5 * stat
    elif spec.kind == "pdf_l2":
        x = rng.normal(mu1, sd1, size=n)
        y = rng.normal(mu2, sd2, size=n)

        def pdf(z, mu, var):
            return np.exp(-((z - mu) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)

        stat = pdf(x, mu1, v1) - pdf(x, mu2, v2) - pdf(y, mu1, v1) + pdf(y, mu2, v2)
    else:  # kl; convention: divergence(model P, target Q) = KL(Q || P)
        y = rng.normal(mu2, sd2, size=n)
        stat = (
            -((y - mu2) ** 2) / (2.0 * v2) - 0.5 * math.log(v2)
            + ((y - mu1) ** 2) / (2.0 * v1) + 0.5 * math.log(v1)
        )
    return float(np.mean(stat)), float(np.std(stat, ddof=1) / math.sqrt(n))


def closed_forms_suite(seed: int, pairs: int = 100, mc_n: int = 1_000_000) -> dict:
    """Closed-form Gaussian divergences against Monte-Carlo oracles.

    Each random pair must agree within three MC standard errors; two exact
    anchor values are checked with tight tolerances.
    """
    rng = np.random.default_rng(seed)
    violations = []
    trials = 0
    for name in FDE_METHODS:
        spec = DivergenceSpec(name)
        for _ in range(pairs):
            trials += 1
            mu1, mu2 = rng.uniform(-2.0, 2.0, size=2)
            v1, v2 = rng.uniform(0.3, 3.0, size=2)
            closed = float(closed_form_gaussian(spec, mu1, v1, mu2, v2))
            mc, se = _mc_divergence(spec, mu1, v1, mu2, v2, mc_n, rng)
            if abs(closed - mc) > 3.0 * se:
                violations.append(
                    {"divergence": name, "mu": (mu1, mu2), "var": (v1, v2),
                     "closed": closed, "mc": mc, "se": se}
                )
    anchors = []
    kl_anchor = float(kl_gaussian(1.0, 1.0, 0.0, 1.0))
    if abs(kl_anchor - 0.5) > 1e-9:
        anchors.append({"anchor": "kl_unit_shift", "value": kl_anchor, "expected": 0.5})
    energy_anchor = float(mmd2_gaussian(DivergenceSpec("energy"), 0.0, 1.0, 2.0, 1.0))
    if abs(energy_anchor - 1.94426) > 1e-3:
        anchors.append({"anchor": "energy_mmd2", "value": energy_anchor, "expected": 1.94426})
    violations.extend(anchors)
    return {"suite": "closed_forms", "trials": trials, "violations": violations,
            "passed": not violations}


def sandwich_suite(seed: int, trials: int = 500) -> dict:
    """Energy-distance sandwich on bounded supports.

    For atoms inside [a, b]: E <= 2 W_1 <= 2 W_p and
    (2 / (b - a)^(2p - 1)) W_p^(2p) <= E.
    """
    rng = np.random.default_rng(seed)
    violations = []
    for trial in range(trials):
        p = float(1 + trial % 3)
        lo = float(rng.uniform(-3.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 4.0))
        k1 = int(rng.integers(1, 6))
        k2 = int(rng.integers(1, 6))
        d1 = Atomic(rng.uniform(lo, hi, size=k1), rng.dirichlet(np.ones(k1)))
        d2 = Atomic(rng.uniform(lo, hi, size=k2), rng.dirichlet(np.ones(k2)))
        energy = energy_mmd2_atomic(d1, d2)
        w1 = wasserstein_1d(1.0, d1, d2)
        wp = wasserstein_1d(p, d1, d2)
        lower = 2.0 / (hi - lo) ** (2.0 * p - 1.0) * wp ** (2.0 * p)
        record = {"trial": trial, "p": p, "energy": energy, "w1": w1, "wp": wp}
        if energy > 2.0 * w1 + _TOL:
            violations.append(dict(record, check="energy<=2w1"))
        if w1 > wp + _TOL:
            violations.append(dict(record, check="w1<=wp"))
        if lower > energy + _TOL:
            violations.append(dict(record, check="lower<=energy", lower=lower))
    return {"suite": "sandwich", "trials": trials, "violations": violations,
            "passed": not violations}


def _random_deterministic_mdp(rng: np.random.Generator, n_states: int = 3, n_actions: int = 2):
    gamma = float(rng.uniform(0.5, 0.9))
    rewards = rng.uniform(0.0, 1.0, size=(n_states, n_actions))
    nxt = rng.integers(0, n_states, size=(n_states, n_actions))
    transitions = {
        (s, a): ((1.0, float(rewards[s, a]), int(nxt[s, a])),)
        for s in range(n_states)
        for a in range(n_actions)
    }
    mdp = TabularMDP(n_states, n_actions, transitions, gamma)
    pi = Policy.deterministic(rng.integers(0, n_actions, size=n_states), n_actions)
    return mdp, pi


def _exact_deterministic_returns(mdp: TabularMDP, pi: Policy) -> dict:
    """Return table of a deterministic MDP/policy via a linear solve."""
    pairs = mdp.pairs()
    index = {sa: i for i, sa in enumerate(pairs)}
    n = len(pairs)
    mat = np.eye(n)
    vec = np.empty(n)
    for sa in pairs:
        (_, r, sp), = mdp.transitions[sa]
        ap = int(np.argmax(pi.probs[sp]))
        mat[index[sa], index[(sp, ap)]] -= mdp.gamma
        vec[index[sa]] = r
    g = np.linalg.solve(mat, vec)
    return {sa: Atomic([g[index[sa]]], [1.0]) for sa in pairs}


def telescoping_suite(seed: int, runs: int = 20) -> dict:
    """Error-propagation bound on fold-fitted tabular runs with an exact
    operator oracle.

    Deterministic dynamics keep every quantity exactly computable: the true
    return table solves a linear system, and per-iteration fits update only
    the pairs covered by the fold (the rest carry over, creating genuine
    per-iteration backup errors for the bound to control).
    """
    rng = np.random.default_rng(seed)
    w1, sup = MetricSpec("wasserstein"), ExtensionSpec("supremum")
    violations = []
    for run in range(runs):
        mdp, pi = _random_deterministic_mdp(rng)
        truth = _exact_deterministic_returns(mdp, pi)
        behavior = Policy.uniform(mdp.n_states, mdp.n_actions)
        data = tabular_collect(mdp, behavior, 40, rng)
        t_count = 5
        table = zero_table(mdp)
        zeta = mdp.gamma  # supremum extension of W1 contracts with gamma
        step_errors = []
        for fold in split_dataset(data, t_count):
            exact = apply_bellman(table, mdp, pi)
            fitted = dict(table)
            for s, a in set(zip(fold.states.tolist(), fold.actions.tolist())):
                fitted[(s, a)] = exact[(s, a)]
            step_errors.append(metric_extension(w1, sup, fitted, exact))
            table = fitted
        lhs = metric_extension(w1, sup, table, truth)
        rhs = sum(
            zeta ** (t_count - t) * err for t, err in enumerate(step_errors, start=1)
        ) + zeta**t_count * metric_extension(w1, sup, zero_table(mdp), truth)
        if lhs > rhs + _TELESCOPING_TOL:
            violations.append({"run": run, "lhs": lhs, "rhs": rhs})
    return {"suite": "telescoping", "trials": runs, "violations": violations,
            "passed": not violations}


_SUITES = {
    "contraction": contraction_suite,
    "minimizer": minimizer_suite,
    "slc": slc_suite,
    "closed_forms": closed_forms_suite,
    "sandwich": sandwich_suite,
    "telescoping": telescoping_suite,
}


def run_property_suite(suite: str, seed: int = 0) -> dict:
    """Execute one named suite; see the individual suite functions."""
    if suite not in _SUITES:
        raise InvalidInput(f"unknown property suite {suite!r}")
    return _SUITES[suite](seed)
