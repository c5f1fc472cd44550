"""The four worked examples as seeded, reusable fixtures.

Each example is a generator of trials (act, g, P, certify): an action, a
point, a metric and a closure that runs one criterion at that point.  One
driver, run_trials, runs every trial, re-evaluates each certified plane
through quotient_sectional, and reports the worst |sec| or the first
trial that produced no certificate.  The driver calls certify before it
draws the next trial, so a closure over the generator's loop variables
sees its own trial, and the rng stream is the same as a plain nested loop.

The criteria are looked up as `detectors.check_N*` attributes when a trial
runs, so a test that swaps a criterion on the module reaches the fixtures.
"""

from __future__ import annotations

import numpy as np

from . import detectors, freeness
from .algebra import (AlgebraError, GroupElement, GroupFamily, Subspace, adjoint,
                      cartan_subspace, identity, inner_q, quaternion_block,
                      random_group_element, root_decomposition, root_subspace,
                      torus_element)
from .biquotient import (BiquotientAction, from_torus_weights, gromoll_meyer_action,
                         quotient_sectional, unit_tangent_flow_action)
from .curvature import FLAT_THRESHOLD
from .metric import MetricOperator, build_metric, build_metric_from_subspaces

# pass thresholds of example 3: the least sampled curvature at the
# identity, and the flat tolerance at the turned point (the other examples
# use FLAT_THRESHOLD and detectors.BALANCE_TOL)
MIN_POSITIVE = 0.01
EXAMPLE3_FLAT_TOL = 1e-9


def run_trials(seed, trials, flat_tol=FLAT_THRESHOLD):
    """Run every trial (act, g, P, certify) of an iterable in order.

    certify(diag) returns a FlatCertificate or None, and records why in
    diag under "hypothesis" or "search".  Each certified plane is
    re-evaluated by quotient_sectional.  Returns {passed, seed, trials,
    worst_residual, certificates}: passed when every re-evaluated |sec| is
    below flat_tol, trials the number of certificates.  The first None
    ends the run with passed False and a `reason` quoting the criterion's
    diagnostics; trials then counts the trials before it.
    """
    certificates = []
    worst = 0.0
    for act, g, P, certify in trials:
        diag = {}
        cert = certify(diag)
        if cert is None:
            kind = "hypothesis" if "hypothesis" in diag else "search"
            return {
                "passed": False, "seed": seed, "trials": len(certificates),
                "worst_residual": worst, "certificates": certificates,
                "reason": f"{kind} failure at trial {len(certificates)}: "
                          f"{diag.get(kind, 'no certificate')}",
            }
        rep = quotient_sectional(act, g, P, cert.x, cert.y)
        worst = max(worst, abs(rep.sec_quotient))
        certificates.append((act, g, P, cert))
    return {"passed": worst < flat_tol, "seed": seed, "trials": len(certificates),
            "worst_residual": worst, "certificates": certificates}


# ---------------------------------------------------------------------------
# metric samplers
# ---------------------------------------------------------------------------

def random_torus_invariant_metric(dec, rng) -> MetricOperator:
    """Random positive Cartan block plus root scalars uniform in [0.4, 2.5]."""
    a = rng.standard_normal((dec.rank, dec.rank))
    t_block = a @ a.T + 0.3 * np.eye(dec.rank)
    alphas = rng.uniform(0.4, 2.5, size=len(dec.roots))
    return build_metric(dec, t_block, alphas)


def random_gromoll_meyer_metric(dec, rng) -> MetricOperator:
    """Right-invariant metric for the Sp(1) quotient: scalars on the two
    irreducible blocks, an arbitrary positive 3x3 form on the trivial one."""
    w1, w2, w3 = detectors.gromoll_meyer_blocks(dec)
    b2 = rng.standard_normal((3, 3))
    b2 = b2 @ b2.T + 0.3 * np.eye(3)
    return build_metric_from_subspaces(dec, [
        (w1, float(rng.uniform(0.4, 2.5))), (w2, b2), (w3, float(rng.uniform(0.4, 2.5))),
    ])


def random_unit_tangent_metric(n, dec, rng) -> MetricOperator:
    """Torus- and right-invariant metric for the flow quotient: a scalar
    on the so(2n-1) block, one shared scalar on the two columns, and a
    scalar on the corner line."""
    sub_so, sub_v, sub_w, sub_a = detectors.unit_tangent_blocks(n, dec)
    s, c, t = rng.uniform(0.4, 2.5, size=3)
    return build_metric_from_subspaces(
        dec, [(sub_so, float(s)), (sub_v, float(c)), (sub_w, float(c)), (sub_a, float(t))])


# ---------------------------------------------------------------------------
# the four examples
# ---------------------------------------------------------------------------

def _example1_trials(rng, n_weights, n_metrics, n_points):
    fam = GroupFamily("Sp", 2)
    dec = root_decomposition(fam)
    long_roots = [i for i, r in enumerate(dec.roots) if max(abs(t) for t in r.vector) == 2]
    w1 = root_subspace(dec, long_roots[0], "V1")
    w2 = root_subspace(dec, long_roots[1], "V2")

    weights = []
    while len(weights) < n_weights:
        wl = tuple((int(x),) for x in rng.integers(-4, 5, size=2))
        wr = tuple((int(x),) for x in rng.integers(-4, 5, size=2))
        try:
            w = freeness.TorusActionWeights(fam, 1, wl, wr)
        except AlgebraError:  # a zero circle spans no 1-torus
            continue
        if freeness.is_free_exact(w).free:
            weights.append(w)

    for w in weights:
        act = from_torus_weights(w)
        for _ in range(n_metrics):
            P = random_torus_invariant_metric(dec, rng)
            for _ in range(n_points):
                g = random_group_element(fam, rng)
                yield act, g, P, lambda diag: detectors.check_N2(
                    P, w1, w2, act, g, rng=rng, diagnostics=diag)


def run_example1(seed=0, n_weights=20, n_metrics=20, n_points=20):
    """Circle quotients of Sp(2): every free circle, every torus-invariant
    metric, every point carries a flat plane certified by N2 on the two
    long-root spaces."""
    rng = np.random.default_rng(seed)
    return run_trials(seed, _example1_trials(rng, n_weights, n_metrics, n_points))


def sample_balanced_eschenburg(rng, count, bound=4):
    """Free parameter pairs with q_3 inside [min p, max p]."""
    out = []
    while len(out) < count:
        p = tuple(int(x) for x in rng.integers(-bound, bound + 1, size=3))
        q12 = [int(x) for x in rng.integers(-bound, bound + 1, size=2)]
        q3 = sum(p) - sum(q12)
        q = (q12[0], q12[1], q3)
        if abs(q3) <= bound and min(p) <= q3 <= max(p) and freeness.eschenburg_free(p, q):
            out.append((p, q))
    return out


def eschenburg_action(p, q) -> BiquotientAction:
    fam = GroupFamily("SU", 3)
    w = freeness.TorusActionWeights(
        fam, 1, tuple((int(x),) for x in p), tuple((int(x),) for x in q)
    )
    return from_torus_weights(w)


def _example2_trials(rng, n_cases, balance):
    """N3 trials at the balanced points; appends each point's balance
    residual to `balance`."""
    fam = GroupFamily("SU", 3)
    dec = root_decomposition(fam)
    t_sub = cartan_subspace(dec)
    v1 = root_subspace(dec, next(i for i, r in enumerate(dec.roots)
                                 if r.vector == (-1, 1, 0)), "V1")
    y3 = torus_element(fam, np.array(detectors.Y3_COORDS))
    for p, q in sample_balanced_eschenburg(rng, n_cases):
        act = eschenburg_action(p, q)
        P = random_torus_invariant_metric(dec, rng)
        g = detectors.find_balanced_point(p, q)
        xl, xr = act.u_basis[0]
        balance.append(abs(inner_q(adjoint(g.inverse(), xl) - xr, y3)))
        yield act, g, P, lambda diag: detectors.check_N3(
            P, t_sub, v1, act, g, diagnostics=diag)


def run_example2(seed=0, n_cases=10):
    """7-dimensional circle quotients with a parameter inside the interval:
    a balanced point exists and N3 certifies a flat plane there, for any
    torus-invariant metric."""
    balance = []
    result = run_trials(
        seed, _example2_trials(np.random.default_rng(seed), n_cases, balance))
    worst = max(balance, default=0.0)
    return {**result, "passed": result["passed"] and worst <= detectors.BALANCE_TOL,
            "worst_balance_residual": worst}


def _example3_trials(act, rng, n_metrics):
    """N2 at the quarter-turned point, one random metric per trial."""
    dec = act.dec()
    g = GroupElement(act.group, quaternion_block(
        np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0), np.zeros((2, 2))))
    w1, w2, _ = detectors.gromoll_meyer_blocks(dec)
    for _ in range(n_metrics):
        P = random_gromoll_meyer_metric(dec, rng)
        yield act, g, P, lambda diag: detectors.check_N2(
            P, w1, w2, act, g, rng=rng, diagnostics=diag)


def run_example3(seed=0, n_metrics=20, budget=10_000):
    """The exotic 7-sphere quotient of Sp(2): positive curvature at the
    identity for the bi-invariant metric (sampling evidence, not a proof),
    and a flat plane at a quarter-turned point for every right-invariant
    metric, certified by N2.

    The quarter-turned point is the unitarized form of the worked example
    (entries 1/sqrt(2), so the matrix lies in the group)."""
    rng = np.random.default_rng(seed)
    act = gromoll_meyer_action()
    best = detectors.numeric_flat_search(
        act, identity(act.group), build_metric(act.dec()), budget=budget, rng=rng)
    result = run_trials(seed, _example3_trials(act, rng, n_metrics),
                        flat_tol=EXAMPLE3_FLAT_TOL)
    return {
        **result,
        "passed": best.sec_quotient > MIN_POSITIVE and result["passed"],
        "min_at_identity": best.sec_quotient,
        "positivity_note": "sampling bound over horizontal planes, not a proof",
        "point_normalization": "1/sqrt(2)",
    }


def _n1_on_commuting_pair(n, dec, P, act, g, diag):
    pair = detectors.example4_abelian_pair(n, P, act, g)
    if pair is None:
        diag["search"] = "no horizontal commuting pair"
        return None
    a_sub = Subspace.from_elements(dec, list(pair), "plane")
    return detectors.check_N1(P, a_sub, act, g, diagnostics=diag)


def _example4_trials(rng, ns, n_points, n_metrics):
    for n in ns:
        act = unit_tangent_flow_action(n)
        dec = root_decomposition(act.group)
        for _ in range(n_metrics):
            P = random_unit_tangent_metric(n, dec, rng)
            for _ in range(n_points):
                g = random_group_element(act.group, rng)
                yield act, g, P, lambda diag: _n1_on_commuting_pair(
                    n, dec, P, act, g, diag)


def run_example4(seed=0, ns=(2, 3), n_points=50, n_metrics=5):
    """Flow quotients of odd orthogonal groups: N1 certifies a flat plane
    at every sampled point for every sampled invariant metric."""
    rng = np.random.default_rng(seed)
    return run_trials(seed, _example4_trials(rng, ns, n_points, n_metrics))


FIXTURES = {
    "example1": run_example1,
    "example2": run_example2,
    "example3": run_example3,
    "example4": run_example4,
}
