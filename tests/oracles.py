"""Per-call reference implementations that the batched code paths replaced.

``fdeval.metrics.wasserstein_rows``, ``fdeval.divergences.energy_mmd2_rows``
and the batched property checks evaluate many small pairs as rows of padded
arrays.  The functions here are the one-pair-at-a-time versions they
replaced, kept so tests can compare the two.
"""

import numpy as np

from fdeval.bellman import Policy, apply_bellman
from fdeval.distributions import Atomic, mixture, push_forward
from fdeval.envs import tabular_make_random
from fdeval.metrics import ExtensionSpec, MetricSpec, _random_atoms, contraction_factor

_TOL = 1e-9  # the suites' and the S-L-C check's slack
_ONE = np.ones(1)


def _sorted_atoms(a):
    order = np.argsort(a.locations, kind="stable")
    return a.locations[order], a.masses[order]


def wasserstein_1d(p, dist1, dist2):
    """W_p by the quantile coupling of one pair: the cuts are both CDFs and
    1, sorted and clipped to 1; zero-width segments are dropped."""
    zp, mp = _sorted_atoms(dist1)
    zq, mq = _sorted_atoms(dist2)
    cp, cq = np.cumsum(mp), np.cumsum(mq)
    cuts = np.minimum(np.sort(np.concatenate([cp, cq, _ONE])), 1.0)
    widths = cuts.copy()
    widths[1:] -= cuts[:-1]  # np.diff(cuts, prepend=0.0) without its concatenation
    keep = widths > 0
    cuts, widths = cuts[keep], widths[keep]
    # searching all but the last CDF value clamps a cut past it to the last atom
    gaps = np.abs(zp[np.searchsorted(cp[:-1], cuts)] - zq[np.searchsorted(cq[:-1], cuts)])
    return float((widths @ gaps**p) ** (1.0 / p))


def _energy_gram(x, y):
    return np.abs(x)[:, None] + np.abs(y)[None, :] - np.abs(x[:, None] - y[None, :])


def energy_mmd2(p, q):
    """Squared energy MMD of one pair by three Gram matrices."""
    kpp = p.masses @ _energy_gram(p.locations, p.locations) @ p.masses
    kqq = q.masses @ _energy_gram(q.locations, q.locations) @ q.masses
    kpq = p.masses @ _energy_gram(p.locations, q.locations) @ q.masses
    return float(kpp + kqq - 2.0 * kpq)


def evaluate(metric, p_dist, q_dist):
    if metric.kind == "wasserstein":
        return wasserstein_1d(metric.p, p_dist, q_dist)
    val = energy_mmd2(p_dist, q_dist)
    if metric.kind == "cramer":
        val = 0.5 * val
    return float(np.sqrt(max(val, 0.0)))


def metric_extension(metric, ext, table1, table2):
    keys = sorted(table1)
    vals = np.array([evaluate(metric, table1[k], table2[k]) for k in keys])
    if ext.mode == "supremum":
        return float(vals.max())
    if ext.weights is None:
        w = np.full(len(keys), 1.0 / len(keys))
    else:
        w = np.array([ext.weights[k] for k in keys])
    power = 2.0 * ext.q
    return float(np.sum(w * vals**power) ** (1.0 / power))


def slc_property_check(metric, trials, rng, c_override=None):
    """The S-L-C check trial by trial, on Atomic measures."""
    c = metric.c if c_override is None else c_override
    q = metric.q
    violations = []
    for trial in range(trials):
        x = Atomic(*_random_atoms(rng))
        y = Atomic(*_random_atoms(rng))
        base = evaluate(metric, x, y)
        gamma = rng.uniform(0.05, 0.95)
        scaled = evaluate(metric, push_forward(x, 0.0, gamma), push_forward(y, 0.0, gamma))
        if scaled > gamma**c * base + _TOL:
            violations.append(
                {"trial": trial, "property": "scale", "lhs": scaled, "rhs": gamma**c * base}
            )
        z = rng.normal(0.0, 3.0)
        shifted = evaluate(
            metric, Atomic(x.locations + z, x.masses), Atomic(y.locations + z, y.masses)
        )
        if shifted > base + _TOL:
            violations.append(
                {"trial": trial, "property": "location", "lhs": shifted, "rhs": base}
            )
        x2 = Atomic(*_random_atoms(rng))
        y2 = Atomic(*_random_atoms(rng))
        lam = rng.uniform(0.05, 0.95)
        mixed1 = mixture([(lam, x), (1.0 - lam, x2)])
        mixed2 = mixture([(lam, y), (1.0 - lam, y2)])
        lhs = evaluate(metric, mixed1, mixed2) ** (2.0 * q)
        rhs = lam * base ** (2.0 * q) + (1.0 - lam) * evaluate(metric, x2, y2) ** (2.0 * q)
        if lhs > rhs + _TOL:
            violations.append(
                {"trial": trial, "property": "convexity", "lhs": lhs, "rhs": rhs}
            )
    return {"violations": violations, "trials": trials}


def sandwich_suite(seed, trials=500):
    """The energy-distance sandwich trial by trial."""
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
        energy = energy_mmd2(d1, d2)
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


def contraction_suite(seed, trials=100):
    """One-step contraction trial by trial, one extension call per check."""
    def expectation(p, pi):
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
            u1 = {sa: Atomic(*_random_atoms(rng, 4)) for sa in mdp.pairs()}
            u2 = {sa: Atomic(*_random_atoms(rng, 4)) for sa in mdp.pairs()}
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
