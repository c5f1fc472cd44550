"""Executable sufficient criteria for zero-curvature planes, plus the four
reusable worked-example fixtures.

The three criteria certify a flat plane of the quotient metric at a point
g from purely algebraic conditions:

  N1: a P-invariant abelian subalgebra containing two independent
      horizontal vectors;
  N2: P-invariant subspaces W1, W2 with [W1, W2] = 0 and a horizontal
      pair X in W1, Y in W2 with [Y, P(Y)] in W2;
  N3: a torus-invariant eigenspace V of P orthogonal to the right
      generators, a horizontal X in the metric's invariance algebra and a
      horizontal Y in V with [P(X), Y] = 0.

The criteria work on coordinate rows in the Q-orthonormal frame: every
bracket comes from the cached structure constants (`RootDecomposition.ad`),
and residuals are coordinate norms.  Matrices are built only for the
vectors of a returned certificate.

Every certificate records the residuals of the conditions it checked; the
curvature engine independently confirms each certified plane, so a
certificate is never taken on faith.  Hypothesis failures are reported
separately from an unsuccessful search (a sufficient criterion that does
not fire proves nothing).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import freeness
from .algebra import (
    AlgebraElement,
    GroupElement,
    GroupFamily,
    Subspace,
    adjoint,
    cartan_subspace,
    identity,
    inner_q,
    quaternion_block,
    random_group_element,
    root_decomposition,
    root_subspace,
    torus_element,
)
from .biquotient import (
    BiquotientAction,
    PlaneReport,
    PointFrame,
    from_torus_weights,
    gromoll_meyer_action,
    quotient_sectional,
    unit_tangent_flow_action,
)
from .curvature import FLAT_THRESHOLD
from .metric import (
    MetricOperator,
    bi_invariant_metric,
    build_metric,
    build_metric_from_subspaces,
)

RESIDUAL_TOL = 1e-9


class HypothesisError(ValueError):
    """A criterion's structural hypothesis fails (not a failed search)."""


class BalancedPointError(RuntimeError):
    """No balanced point: the target lies outside [min p, max p], or the
    closed-form point failed its defect check."""


@dataclass(frozen=True)
class FlatCertificate:
    """A certified zero-curvature plane with the residuals that back it."""

    criterion: str  # "N1" | "N2" | "N3"
    point: GroupElement
    x: AlgebraElement
    y: AlgebraElement
    checked_conditions: tuple  # of (name, residual)

    def max_residual(self) -> float:
        return max((r for _, r in self.checked_conditions), default=0.0)


def _record(diag, key, value):
    if diag is not None:
        diag[key] = value


def _metric_normal_slice(sub: Subspace, frame: PointFrame) -> np.ndarray:
    """Orthonormal coordinate rows spanning sub intersected with the
    metric-orthogonal complement of the vertical space.

    The rank cut is absolute (scaled by the vertical and metric sizes),
    not relative to the pairing matrix itself: a subspace that is already
    horizontal pairs to numerical noise, which must count as zero."""
    pairings = frame.vert_coords @ frame.P.mat @ sub.coords.T
    scale = max(
        float(np.linalg.norm(frame.vert_coords @ frame.P.mat, axis=1).max(initial=0.0)),
        1e-300,
    )
    _, s, vt = np.linalg.svd(pairings)
    rank = int(np.sum(s > 1e-10 * scale))
    return vt[rank:] @ sub.coords


def _subspace_p_invariance(P: MetricOperator, sub: Subspace) -> float:
    img = sub.coords @ P.mat
    resid = img - (img @ sub.coords.T) @ sub.coords
    return float(np.abs(resid).max() / max(np.abs(img).max(), 1e-300))


def _bracket_residual(dec, a_rows, b_rows) -> float:
    """Largest coordinate norm of [a, b] over the rows of a_rows, b_rows."""
    return float(np.linalg.norm(b_rows @ dec.ad(a_rows), axis=-1).max(initial=0.0))


def check_N1(
    P: MetricOperator,
    a_sub: Subspace,
    act: BiquotientAction,
    g: GroupElement,
    diagnostics: dict | None = None,
) -> FlatCertificate | None:
    """Flat plane from a P-invariant abelian subalgebra.

    Verifies the hypotheses, intersects the subalgebra with the horizontal
    space at g, and returns a certificate built on two independent vectors
    of the intersection, or None.
    """
    dec = P.dec
    ab_res = _bracket_residual(dec, a_sub.coords, a_sub.coords)
    pinv_res = _subspace_p_invariance(P, a_sub)
    if ab_res > RESIDUAL_TOL or pinv_res > RESIDUAL_TOL:
        _record(diagnostics, "hypothesis", f"abelian residual {ab_res:.2e}, "
                f"P-invariance residual {pinv_res:.2e}")
        return None
    frame = PointFrame.at(act, g, P)
    slc = _metric_normal_slice(a_sub, frame)
    if slc.shape[0] < 2:
        _record(diagnostics, "search", "horizontal intersection has dimension < 2")
        return None
    conds = (
        ("abelian", ab_res),
        ("P_invariant", pinv_res),
        ("horizontal_X", frame.horizontal_residual(slc[0])),
        ("horizontal_Y", frame.horizontal_residual(slc[1])),
    )
    return FlatCertificate("N1", g, dec.from_coords(slc[0]), dec.from_coords(slc[1]),
                           conds)


def check_N2(
    P: MetricOperator,
    w1: Subspace,
    w2: Subspace,
    act: BiquotientAction,
    g: GroupElement,
    rng=None,
    diagnostics: dict | None = None,
) -> FlatCertificate | None:
    """Flat plane from commuting P-invariant subspaces.

    Searches Y in W2 intersected with the horizontal space, over an
    orthonormal basis of the intersection plus 20 random unit combinations
    drawn from rng (default: seed 0), for [Y, P(Y)] in W2, and takes any
    horizontal X in W1.  All candidates are tested at once in coordinates:
    [Y, PY] is PY @ ad_Y from the structure constants.
    """
    dec = P.dec
    p1 = _subspace_p_invariance(P, w1)
    p2 = _subspace_p_invariance(P, w2)
    br = _bracket_residual(dec, w1.coords, w2.coords)
    if max(p1, p2) > RESIDUAL_TOL or br > RESIDUAL_TOL:
        _record(diagnostics, "hypothesis",
                f"P-invariance residuals {p1:.2e}/{p2:.2e}, [W1,W2] residual {br:.2e}")
        return None

    frame = PointFrame.at(act, g, P)
    slc1 = _metric_normal_slice(w1, frame)
    slc2 = _metric_normal_slice(w2, frame)
    if slc1.shape[0] < 1 or slc2.shape[0] < 1:
        _record(diagnostics, "search", "no horizontal vectors in W1 or W2")
        return None

    rng = rng or np.random.default_rng(0)
    extra = rng.standard_normal((20, slc2.shape[0])) @ slc2
    extra /= np.linalg.norm(extra, axis=1)[:, None]
    cand = np.concatenate([slc2, extra])

    ypy = np.einsum("nj,njk->nk", cand @ P.mat, dec.ad(cand))
    off = ypy - ypy @ w2.coords.T @ w2.coords
    resid = np.linalg.norm(off, axis=1) / np.maximum(np.linalg.norm(ypy, axis=1), 1.0)
    hits = np.flatnonzero(resid <= RESIDUAL_TOL)
    if hits.size == 0:
        _record(diagnostics, "search", "no candidate Y satisfied [Y, P(Y)] in W2")
        return None
    cy = cand[hits[0]]
    conds = (
        ("P_invariant_W1", p1),
        ("P_invariant_W2", p2),
        ("bracket_W1_W2", br),
        ("Y_PY_in_W2", float(resid[hits[0]])),
        ("horizontal_X", frame.horizontal_residual(slc1[0])),
        ("horizontal_Y", frame.horizontal_residual(cy)),
    )
    return FlatCertificate("N2", g, dec.from_coords(slc1[0]), dec.from_coords(cy), conds)


def commuting_root_pairs(dec):
    """Index pairs (i, j), i < j, of root spaces with [V_i, V_j] = 0, read
    off the zero blocks of the cached structure constants."""
    c = dec.structure_constants.reshape(dec.dim, dec.dim, dec.dim)
    slices = [dec.root_block_slice(i) for i in range(len(dec.roots))]
    return [
        (i, j)
        for i, si in enumerate(slices)
        for j, sj in enumerate(slices[i + 1 :], start=i + 1)
        if np.abs(c[si, sj]).max() <= 1e-12
    ]


def auto_flat_certificate(act, g, P, rng, diagnostics: dict | None = None):
    """N2 on every pair of commuting root spaces, in order, until a
    certificate re-evaluates flat through quotient_sectional.

    Returns (certificate, |sec_quotient| of its plane), or (None, None);
    a certificate whose plane is not flat is dropped.  diagnostics, when
    given, receives the counts n2_attempts, n2_hypothesis_failures,
    n2_search_failures and n2_not_flat (certificates dropped).
    """
    dec = P.dec
    counts = {"n2_attempts": 0, "n2_hypothesis_failures": 0,
              "n2_search_failures": 0, "n2_not_flat": 0}
    found = None, None
    for i, j in commuting_root_pairs(dec):
        diag = {}
        counts["n2_attempts"] += 1
        cert = check_N2(
            P, root_subspace(dec, i), root_subspace(dec, j), act, g, rng=rng,
            diagnostics=diag,
        )
        if cert is None:
            failure = "hypothesis" if "hypothesis" in diag else "search"
            counts[f"n2_{failure}_failures"] += 1
            continue
        sec = abs(quotient_sectional(act, g, P, cert.x, cert.y).sec_quotient)
        if sec < FLAT_THRESHOLD:
            found = cert, sec
            break
        counts["n2_not_flat"] += 1
    if diagnostics is not None:
        diagnostics.update(counts)
    return found


def check_N3(
    P: MetricOperator,
    k_alg: Subspace,
    v_sub: Subspace,
    act: BiquotientAction,
    g: GroupElement,
    diagnostics: dict | None = None,
) -> FlatCertificate | None:
    """Flat plane from an invariant eigenspace of P.

    Validates that v_sub is an eigenspace of P and orthogonal to the right
    generators of the action (raising HypothesisError otherwise), then
    searches horizontal X in k_alg and horizontal Y in v_sub with
    [P(X), Y] = 0.
    """
    dec = P.dec
    img = v_sub.coords @ P.mat
    lam = float(np.sum(img * v_sub.coords) / v_sub.dim)
    eig_res = float(np.abs(img - lam * v_sub.coords).max() / max(abs(lam), 1e-300))
    if eig_res > RESIDUAL_TOL:
        raise HypothesisError(f"subspace is not a P-eigenspace (residual {eig_res:.2e})")
    frame = PointFrame.at(act, g, P)
    ur_res = float(np.abs(v_sub.coords @ frame.right.T).max(initial=0.0))
    if ur_res > RESIDUAL_TOL:
        raise HypothesisError(
            f"eigenspace is not orthogonal to the right generators ({ur_res:.2e})"
        )

    slc_k = _metric_normal_slice(k_alg, frame)
    slc_v = _metric_normal_slice(v_sub, frame)
    if slc_k.shape[0] < 1 or slc_v.shape[0] < 1:
        _record(diagnostics, "search", "no horizontal vectors available")
        return None
    # [P(X), Y] = 0 is linear in X, so for each candidate Y solve for X
    # inside the horizontal slice of k_alg instead of enumerating
    px = slc_k @ P.mat
    ys = slc_v
    if slc_v.shape[0] > 1:
        mix = slc_v.sum(axis=0)
        ys = np.vstack([slc_v, mix / np.linalg.norm(mix)])
    ad_y = dec.ad(ys)
    # cols[n] has one column [P(X), Y_n] per slice vector X; every Y_n is a unit row
    cols = -(px @ ad_y).transpose(0, 2, 1)
    scale = max(float(np.linalg.norm(px, axis=1).max()), 1e-300)
    _, s, vt = np.linalg.svd(cols)
    for n, cv in enumerate(ys):
        rank = int(np.sum(s[n] > 1e-10 * scale))
        if rank >= slc_k.shape[0]:
            continue
        ck = slc_k.T @ vt[n, rank]
        ck /= np.linalg.norm(ck)
        resid = float(np.linalg.norm(ck @ P.mat @ ad_y[n])) / scale
        if resid <= RESIDUAL_TOL:
            conds = (
                ("V_eigenspace", eig_res),
                ("V_perp_uR", ur_res),
                ("PX_Y_bracket", resid),
                ("horizontal_X", frame.horizontal_residual(ck)),
                ("horizontal_Y", frame.horizontal_residual(cv)),
            )
            return FlatCertificate("N3", g, dec.from_coords(ck), dec.from_coords(cv),
                                   conds)
    _record(diagnostics, "search", "no pair with [P(X), Y] = 0 found")
    return None


# ---------------------------------------------------------------------------
# balanced points for the 7-dimensional circle quotients
# ---------------------------------------------------------------------------

Y3_COORDS = (1.0, 1.0, -2.0)

# the largest balance defect a returned point may have
BALANCE_TOL = 1e-10


def find_balanced_point(
    p,
    q,
    tol: float = BALANCE_TOL,
    rng=None,
) -> GroupElement:
    """Point g where the circle's vertical generator is Q-orthogonal to
    Y3 = i diag(1,1,-2).

    The defect at g is proportional to (g* diag(p) g)_33 - target with
    target = q_3 - mean q + mean p.  By Schur-Horn (A. Horn, Amer. J. Math.
    76, 1954) that diagonal entry takes exactly the values in [min p,
    max p], so a balanced point exists iff target lies there.  Along the
    rotation by t in the (j, 3) plane the entry is p_3 cos^2 t + p_j sin^2 t,
    so the solve is the closed form sin^2 t = (target - p_3) / (p_j - p_3)
    for the first j in (1, 2) that puts it in [0, 1]; the defect is then
    checked against tol.  Raises BalancedPointError when no j works.  rng
    is unused and kept only because the benchmark's balanced-point ops
    pass it.
    """
    p = tuple(int(x) for x in p)
    q = tuple(int(x) for x in q)
    fam = GroupFamily("SU", 3)
    # the common scalar part drops out of every pairing against the
    # traceless direction Y3, so work with mean-free coordinates
    pv = np.array(p, dtype=float)
    qv = np.array(q, dtype=float)
    xl = torus_element(fam, pv - pv.mean())
    xr = torus_element(fam, qv - qv.mean())
    y3 = torus_element(fam, np.array(Y3_COORDS))

    def defect(gmat):
        ad = gmat.conj().T @ xl.mat @ gmat
        return -0.5 * float(np.trace((ad - xr.mat) @ y3.mat).real)

    if abs(defect(np.eye(3))) <= tol:
        return identity(fam)
    target = q[2] + (sum(p) - sum(q)) / 3
    for j in (0, 1):
        if p[j] == p[2]:
            continue
        s2 = (target - p[2]) / (p[j] - p[2])
        if not 0.0 <= s2 <= 1.0:
            continue
        gmat = np.eye(3, dtype=complex)
        c, s = np.sqrt(1.0 - s2), np.sqrt(s2)
        gmat[j, j] = gmat[2, 2] = c
        gmat[j, 2], gmat[2, j] = s, -s
        if abs(defect(gmat)) <= tol:
            return GroupElement(fam, gmat)
    raise BalancedPointError(
        f"no balanced point: target {target:g} outside [min p, max p] = "
        f"[{min(p)}, {max(p)}], or the defect check failed"
    )


# ---------------------------------------------------------------------------
# numeric flat-plane search
# ---------------------------------------------------------------------------

# planes per batched kernel call: bounds its (N, d, d) temporaries
SEARCH_CHUNK = 256

# least share of the descent budget per start
MIN_DESCENT_SHARE = 50

# alternation rounds before the polish, and the relative gain that ends
# them early
ALTERNATIONS = 20
ALTERNATION_RTOL = 1e-12

# the polish's L-BFGS memory, its stops (a relative decrease of at most
# FTOL, max |grad| <= GTOL), its strong-Wolfe constants, the most
# evaluations per line search and the least share of the bracket between
# a cubic step and the bracket's ends
LBFGS_MEMORY = 10
FTOL, GTOL = 1e-15, 1e-13
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
LINE_SEARCH_EVALS = 20
CUBIC_MARGIN = 0.01


class _BudgetSpent(Exception):
    """The polish used up its evaluations."""


def _alternation_step(frame, H, a):
    """One block step from each unit row a (P-orthonormal horizontal
    coordinates in the rows of H): the least value over unit b orthogonal
    to a of kappa(a H, b H) and its minimizer b.

    Q_x annihilates x, so the form is projected onto the complement of a
    and a is moved above its spectrum, which leaves the least eigenvalue
    on the complement."""
    F = H @ frame.quotient_forms(a @ H) @ H.T
    proj = np.eye(a.shape[1]) - a[:, :, None] * a[:, None, :]
    shift = 1.0 + np.abs(F).sum(axis=(1, 2))
    F = proj @ F @ proj + shift[:, None, None] * (a[:, :, None] * a[:, None, :])
    w, v = np.linalg.eigh(F)
    b = v[:, :, 0]
    b = b - np.einsum("ij,ij->i", b, a)[:, None] * a
    return w[:, 0], b / np.linalg.norm(b, axis=1)[:, None]


def _pair_value(frame, H, theta):
    """kappa / area of the pair theta = (a, b) of coordinates in the rows
    of H, and its gradient from the closed forms 2 Q_b a and 2 Q_a b;
    (inf, 0) when a and b are nearly parallel."""
    h = H.shape[0]
    a, b = theta[:h], theta[h:]
    Fa, Fb = H @ frame.quotient_forms(np.stack([a, b]) @ H) @ H.T
    ga, gb = 2.0 * Fb @ a, 2.0 * Fa @ b
    kappa = 0.5 * float(b @ gb)
    aa, bb, ab = a @ a, b @ b, a @ b
    area = aa * bb - ab * ab
    if area <= 1e-12 * aa * bb:
        return np.inf, np.zeros_like(theta)
    f = kappa / area
    grad = np.concatenate([
        ga - f * 2.0 * (bb * a - ab * b),
        gb - f * 2.0 * (aa * b - ab * a),
    ]) / area
    return f, grad


def _lbfgs_direction(g, memory):
    """-M g for the L-BFGS inverse Hessian M of the pairs (s, y, 1 / s.y)
    in memory: the two-loop recursion from M_0 = (s.y / y.y) I of the
    newest pair (Nocedal and Wright, Alg. 7.4)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if memory:
        s, y, _ = memory[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return -q


def _cubic_step(lo, hi):
    """The minimizer of the cubic through the values and slopes of the
    trial steps lo and hi (Nocedal and Wright, eq. 3.59), kept CUBIC_MARGIN
    of the bracket away from its ends; their midpoint when it is undefined."""
    (a0, f0, _, d0), (a1, f1, _, d1) = lo, hi
    left, right = min(a0, a1), max(a0, a1)
    mid = 0.5 * (left + right)
    if not (np.isfinite(f0) and np.isfinite(f1)):
        return mid
    e1 = d0 + d1 - 3.0 * (f0 - f1) / (a0 - a1)
    disc = e1 * e1 - d0 * d1
    if disc < 0:
        return mid
    e2 = np.copysign(np.sqrt(disc), a1 - a0)
    den = d1 - d0 + 2.0 * e2
    if den == 0:
        return mid
    a = a1 - (a1 - a0) * (d1 + e2 - e1) / den
    if not np.isfinite(a):
        return mid
    margin = CUBIC_MARGIN * (right - left)
    return min(max(a, left + margin), right - margin)


def _wolfe_step(fun, x, f0, g0, p, alpha):
    """A step along the descent direction p from x that meets the strong
    Wolfe conditions with WOLFE_C1 and WOLFE_C2 (Nocedal and Wright,
    Alg. 3.5 and 3.6): trial steps double from alpha until they bracket
    one, then a zoom by safeguarded cubic interpolation.

    Returns the trial (step, f, g, slope) that meets them; after
    LINE_SEARCH_EVALS trials without one, the lowest trial with
    sufficient decrease, or None when there is none."""
    d0 = g0 @ p
    lo, hi = (0.0, f0, g0, d0), None
    for _ in range(LINE_SEARCH_EVALS):
        # a bracket this short holds no step that passes the polish's
        # relative-decrease test, to first order
        if hi is not None and abs(hi[0] - lo[0]) * -d0 <= FTOL * max(abs(f0), 1.0):
            break
        step = alpha if hi is None else _cubic_step(lo, hi)
        f, g = fun(x + step * p)
        slope = g @ p
        t = step, f, g, slope
        if f > f0 + WOLFE_C1 * step * d0 or f >= lo[1]:
            hi = t
            continue
        if abs(slope) <= -WOLFE_C2 * d0:
            return t
        if slope * (1.0 if hi is None else hi[0] - lo[0]) >= 0:
            hi = lo
        lo = t
        alpha = 2.0 * step
    return lo if lo[0] > 0 else None


def _polish(frame, H, a, b, max_evals):
    """L-BFGS on kappa / area over pairs (a, b), with the closed-form
    gradients 2 Q_b a and 2 Q_a b: memory LBFGS_MEMORY, the two-loop
    recursion and a strong-Wolfe line search (Nocedal and Wright,
    Numerical Optimization, 2nd ed., 2006, Alg. 7.4, 3.5 and 3.6).

    The value does not change when a or b is scaled, so each step ends by
    scaling a and b back to unit length, and the stored pairs with them.
    Left to drift, |a| grows without bound on ill-conditioned points and
    the gradient stop fires far from the minimum.

    It stops when a step lowers the value by at most FTOL relative (or the
    first trial step would, to first order), when max |grad| <= GTOL, when
    a line search along the steepest descent finds no decrease, or at
    max_evals evaluations (_BudgetSpent).  Returns (value, a, b,
    evaluations) of the best pair evaluated, with a and b scaled to unit
    length."""
    h = H.shape[0]
    x = np.concatenate([a, b])
    best = [np.inf, x]
    count = [0]

    def fun(theta):
        if count[0] == max_evals:
            raise _BudgetSpent
        count[0] += 1
        f, grad = _pair_value(frame, H, theta)
        if f < best[0]:
            best[:] = f, theta
        return f, grad

    try:
        f, g = fun(x)
        memory = deque(maxlen=LBFGS_MEMORY)
        while np.abs(g).max() > GTOL:
            p = _lbfgs_direction(g, memory)
            alpha = 1.0 if memory else 1.0 / np.linalg.norm(p)
            # the relative-decrease stop, on the first trial step's
            # first-order decrease
            if -alpha * (g @ p) <= FTOL * max(abs(f), 1.0):
                break
            t = _wolfe_step(fun, x, f, g, p, alpha)
            if t is None:
                if not memory:
                    break
                memory.clear()
                continue
            step, f_new, g_new, _ = t
            if f - f_new <= FTOL * max(abs(f), abs(f_new), 1.0):
                break
            s, y = step * p, g_new - g
            sy = s @ y
            if sy > np.finfo(float).eps * (y @ y):
                memory.append((s, y, 1.0 / sy))
            # back to unit a and b; the gradient and the stored pairs follow
            # the change of scale D (s -> D s, y -> y / D)
            x = x + s
            d = np.repeat(1.0 / np.linalg.norm(x.reshape(2, h), axis=1), h)
            x, f, g = x * d, f_new, g_new / d
            memory = deque(((s * d, y / d, rho) for s, y, rho in memory),
                           maxlen=LBFGS_MEMORY)
    except _BudgetSpent:
        pass
    f, theta = best
    a, b = theta[:h], theta[h:]
    return f, a / np.linalg.norm(a), b / np.linalg.norm(b), count[0]


def numeric_flat_search(
    act: BiquotientAction,
    g: GroupElement,
    P: MetricOperator,
    budget: int = 10_000,
    rng=None,
    local_restarts: int = 4,
    diagnostics: dict | None = None,
) -> PlaneReport:
    """Minimize quotient sectional curvature over horizontal planes at g
    by random sampling plus an exact block-coordinate descent.

    The random phase draws budget // 2 planes at once and evaluates them
    in chunks of SEARCH_CHUNK planes through the coordinate kernel.  The
    descent starts from the local_restarts best samples and spends the
    other half of the budget.  kappa(x, y) = <R(x,y)y, x> + 3/4 z(x,y)^2
    is biquadratic, so for fixed unit x the least value over unit
    horizontal y orthogonal to x is the least eigenvalue of the quotient
    form Q_x on that complement (PointFrame.quotient_forms); alternating
    x <- that minimizer never raises kappa (the alternating method for
    biquadratic forms on two spheres).  All starts alternate together for
    up to ALTERNATIONS rounds, one batched eigen solve per round, and
    L-BFGS with a strong-Wolfe line search (_polish; Nocedal and Wright,
    Numerical Optimization, 2nd ed., 2006, Alg. 7.4, 3.5 and 3.6) then
    polishes the best pair on kappa / area with the closed-form gradients.
    An alternation step at one start and a polish evaluation each count
    as one evaluation of the budget; the descent keeps only as many starts
    as give each a share of at least MIN_DESCENT_SHARE evaluations, and
    none when even one start would get less.

    Returns the best plane found, re-evaluated by quotient_sectional; its
    certificate field is "numeric" when the value is below the flat
    threshold, else "none".  diagnostics, when given, receives the counts
    planes_sampled, descent_starts, alternation_steps and
    polish_evaluations.
    """
    if budget < 1:
        raise ValueError("plane budget must be at least 1")
    if local_restarts < 1:
        raise ValueError("local_restarts must be at least 1")
    rng = rng or np.random.default_rng(0)
    dec = act.dec()
    frame = PointFrame.at(act, g, P)
    hor = frame.horizontal()
    h = hor.dim
    if h < 2:
        raise ValueError("horizontal space has dimension < 2")
    pm = P.mat

    def planes(thetas):
        """Metric-orthonormal pair of each row of thetas and whether the
        row spans a plane."""
        c = thetas.reshape(-1, h) @ hor.coords
        c1, c2 = c[0::2], c[1::2]
        n1 = np.sqrt(np.einsum("ij,ij->i", c1 @ pm, c1))
        c1 = c1 / np.maximum(n1, 1e-12)[:, None]
        c2 = c2 - np.einsum("ij,ij->i", c2 @ pm, c1)[:, None] * c1
        n2 = np.sqrt(np.einsum("ij,ij->i", c2 @ pm, c2))
        c2 = c2 / np.maximum(n2, 1e-8)[:, None]
        return c1, c2, (n1 >= 1e-12) & (n2 >= 1e-8)

    def values(thetas):
        """sec_quotient of the plane of each row of thetas (inf when the
        row does not span a plane)."""
        c1, c2, ok = planes(thetas)
        sec_g, oneill = frame.curvature_rows(c1, c2)
        return np.where(ok, sec_g + oneill, np.inf)

    n_samples = max(budget // 2, 1)
    thetas = rng.standard_normal((n_samples, 2 * h))
    sampled = np.concatenate([
        values(thetas[i : i + SEARCH_CHUNK]) for i in range(0, n_samples, SEARCH_CHUNK)
    ])
    # stable: the best sample is the first minimum, as a strict < loop keeps
    order = np.argsort(sampled, kind="stable")[:local_restarts]
    c1, c2, _ = planes(thetas[order])
    best_pair = c1[0], c2[0]
    evals = max(budget - n_samples, 0)
    # as many of the best live samples as the budget affords
    live = np.flatnonzero(np.isfinite(sampled[order]))[: evals // MIN_DESCENT_SHARE]
    n_starts = live.size
    stats = {"planes_sampled": n_samples, "descent_starts": 0,
             "alternation_steps": 0, "polish_evaluations": 0}
    if n_starts:
        # P-orthonormal rows spanning the horizontal space
        chol = np.linalg.cholesky(hor.coords @ pm @ hor.coords.T)
        H = np.linalg.solve(chol, hor.coords)
        a, b = c1[live] @ pm @ H.T, c2[live] @ pm @ H.T
        val = sampled[order][live]
        stats["descent_starts"] = n_starts
        for _ in range(ALTERNATIONS):
            lam, nxt = _alternation_step(frame, H, b)
            stats["alternation_steps"] += n_starts
            gain = val - lam
            better = gain > 0
            a[better], b[better], val[better] = b[better], nxt[better], lam[better]
            if not np.any(gain > ALTERNATION_RTOL * np.maximum(1.0, np.abs(val))):
                break
        k = int(np.argmin(val))
        f, pa, pb, n = _polish(frame, H, a[k], b[k],
                               evals - stats["alternation_steps"])
        stats["polish_evaluations"] = n
        x, y = (pa, pb) if f < val[k] else (a[k], b[k])
        best_pair = x @ H, y @ H
    if diagnostics is not None:
        diagnostics.update(stats)

    rep = quotient_sectional(
        act, g, P, dec.from_coords(best_pair[0]), dec.from_coords(best_pair[1]),
        frame=frame,
    )
    flat = abs(rep.sec_quotient) < FLAT_THRESHOLD
    return replace(rep, certificate="numeric" if flat else "none")


# ---------------------------------------------------------------------------
# metric samplers used by the fixtures
# ---------------------------------------------------------------------------

def random_torus_invariant_metric(dec, rng) -> MetricOperator:
    """Random positive Cartan block plus root scalars uniform in [0.4, 2.5]."""
    a = rng.standard_normal((dec.rank, dec.rank))
    t_block = a @ a.T + 0.3 * np.eye(dec.rank)
    alphas = rng.uniform(0.4, 2.5, size=len(dec.roots))
    return build_metric(dec, t_block, alphas)


def gromoll_meyer_blocks(dec):
    """The three invariant subspaces of the Sp(1)-quotient of Sp(2):
    imaginary top diagonal, imaginary bottom diagonal, off-diagonal."""
    fam = dec.family

    def dq(top, bot):
        b = np.diag([top[0], bot[0]])
        c = np.diag([top[1], bot[1]])
        return AlgebraElement(fam, quaternion_block(b, c))

    units = [(1j, 0.0), (0.0, 1.0), (0.0, -1j)]
    zq = (0.0, 0.0)
    w1 = Subspace.from_elements(dec, [dq(u, zq) for u in units], "W1")
    w2 = Subspace.from_elements(dec, [dq(zq, u) for u in units], "W2")
    off = []
    for b_val, c_val in [(1.0, 0.0), (1j, 0.0), (0.0, 1.0), (0.0, -1j)]:
        b = np.array([[0, b_val], [-np.conj(b_val), 0]])
        c = np.array([[0, c_val], [c_val, 0]])
        off.append(AlgebraElement(fam, quaternion_block(b, c)))
    w3 = Subspace.from_elements(dec, off, "W3")
    return w1, w2, w3


def random_gromoll_meyer_metric(dec, rng) -> MetricOperator:
    """Right-invariant metric for the Sp(1) quotient: scalars on the two
    irreducible blocks, an arbitrary positive 3x3 form on the trivial one."""
    w1, w2, w3 = gromoll_meyer_blocks(dec)
    b2 = rng.standard_normal((3, 3))
    b2 = b2 @ b2.T + 0.3 * np.eye(3)
    return build_metric_from_subspaces(
        dec,
        [
            (w1, float(rng.uniform(0.4, 2.5))),
            (w2, b2),
            (w3, float(rng.uniform(0.4, 2.5))),
        ],
    )


def unit_tangent_blocks(n, dec):
    """Invariant subspaces for the flow quotient of SO(2n+1): the
    so(2n-1) block, the two coupled columns, and the corner line.  dec is
    the root decomposition of SO(2n+1); the blocks are built once per n."""
    if dec.family != GroupFamily("SO", 2 * n + 1):
        raise ValueError(f"unit_tangent_blocks({n}) needs the decomposition of SO({2 * n + 1})")
    return _unit_tangent_blocks(n)


@lru_cache(maxsize=None)
def _unit_tangent_blocks(n):
    fam = GroupFamily("SO", 2 * n + 1)
    dec = root_decomposition(fam)
    size = fam.matrix_size

    def skew(i, j):
        m = np.zeros((size, size), dtype=complex)
        m[i, j] = 1.0
        m[j, i] = -1.0
        return AlgebraElement(fam, m)

    so_small = [skew(i, j) for i in range(2 * n - 1) for j in range(i + 1, 2 * n - 1)]
    v_col = [skew(i, 2 * n - 1) for i in range(2 * n - 1)]
    w_col = [skew(i, 2 * n) for i in range(2 * n - 1)]
    corner = [skew(2 * n - 1, 2 * n)]
    return (
        Subspace.from_elements(dec, so_small, "so(2n-1)"),
        Subspace.from_elements(dec, v_col, "V"),
        Subspace.from_elements(dec, w_col, "W"),
        Subspace.from_elements(dec, corner, "corner"),
    )


def random_unit_tangent_metric(n, dec, rng) -> MetricOperator:
    """Torus- and right-invariant metric for the flow quotient: a scalar
    on the so(2n-1) block, one shared scalar on the two columns, and a
    scalar on the corner line."""
    sub_so, sub_v, sub_w, sub_a = unit_tangent_blocks(n, dec)
    s, c, t = rng.uniform(0.4, 2.5, size=3)
    return build_metric_from_subspaces(
        dec,
        [(sub_so, float(s)), (sub_v, float(c)), (sub_w, float(c)), (sub_a, float(t))],
    )


# ---------------------------------------------------------------------------
# fixtures: the four worked examples as reusable, seeded runs
# ---------------------------------------------------------------------------

# pass thresholds of example 3: the least sampled curvature at the
# identity, and the flat tolerance at the turned point (the other examples
# use FLAT_THRESHOLD and BALANCE_TOL)
MIN_POSITIVE = 0.01
EXAMPLE3_FLAT_TOL = 1e-9


def run_example1(seed=0, n_weights=20, n_metrics=20, n_points=20):
    """Circle quotients of Sp(2): every free circle, every torus-invariant
    metric, every point carries a flat plane certified by N2 on the two
    long-root spaces."""
    rng = np.random.default_rng(seed)
    fam = GroupFamily("Sp", 2)
    dec = root_decomposition(fam)
    long_roots = [
        i for i, r in enumerate(dec.roots) if sum(abs(t) for t in r.vector) == 2
        and max(abs(t) for t in r.vector) == 2
    ]
    w1 = root_subspace(dec, long_roots[0], "V1")
    w2 = root_subspace(dec, long_roots[1], "V2")

    weights = []
    while len(weights) < n_weights:
        wl = tuple((int(x),) for x in rng.integers(-4, 5, size=2))
        wr = tuple((int(x),) for x in rng.integers(-4, 5, size=2))
        try:
            w = freeness.TorusActionWeights(fam, 1, wl, wr)
        except Exception:
            continue
        if freeness.is_free_exact(w).free:
            weights.append(w)

    certificates = []
    worst = 0.0
    for w in weights:
        act = from_torus_weights(w)
        for _ in range(n_metrics):
            P = random_torus_invariant_metric(dec, rng)
            for _ in range(n_points):
                g = random_group_element(fam, rng)
                cert = check_N2(P, w1, w2, act, g, rng=rng)
                if cert is None:
                    return {"passed": False, "seed": seed,
                            "reason": "N2 produced no certificate"}
                rep = quotient_sectional(act, g, P, cert.x, cert.y)
                worst = max(worst, abs(rep.sec_quotient))
                certificates.append((act, g, P, cert))
    return {
        "passed": worst < FLAT_THRESHOLD,
        "seed": seed,
        "trials": len(certificates),
        "worst_residual": worst,
        "certificates": certificates,
    }


def sample_balanced_eschenburg(rng, count, bound=4):
    """Free parameter pairs with q_3 inside [min p, max p]."""
    out = []
    while len(out) < count:
        p = tuple(int(x) for x in rng.integers(-bound, bound + 1, size=3))
        q12 = [int(x) for x in rng.integers(-bound, bound + 1, size=2)]
        q3 = sum(p) - sum(q12)
        q = (q12[0], q12[1], q3)
        if abs(q3) > bound:
            continue
        if not (min(p) <= q[2] <= max(p)):
            continue
        try:
            if not freeness.eschenburg_free(p, q):
                continue
        except ValueError:
            continue
        out.append((p, q))
    return out


def eschenburg_action(p, q) -> BiquotientAction:
    fam = GroupFamily("SU", 3)
    w = freeness.TorusActionWeights(
        fam, 1, tuple((int(x),) for x in p), tuple((int(x),) for x in q)
    )
    return from_torus_weights(w, label=f"eschenburg{p}{q}")


def run_example2(seed=0, n_cases=10):
    """7-dimensional circle quotients with a parameter inside the interval:
    a balanced point exists and N3 certifies a flat plane there, for any
    torus-invariant metric."""
    rng = np.random.default_rng(seed)
    fam = GroupFamily("SU", 3)
    dec = root_decomposition(fam)
    t_sub = cartan_subspace(dec)
    v1_index = next(
        i for i, r in enumerate(dec.roots) if r.vector == (-1, 1, 0)
    )
    v1 = root_subspace(dec, v1_index, "V1")

    cases = sample_balanced_eschenburg(rng, n_cases)
    results = []
    certificates = []
    for p, q in cases:
        act = eschenburg_action(p, q)
        P = random_torus_invariant_metric(dec, rng)
        g = find_balanced_point(p, q)
        xl, xr = act.u_basis[0]
        y3 = torus_element(fam, np.array(Y3_COORDS))
        residual = abs(inner_q(adjoint(g.inverse(), xl) - xr, y3))
        cert = check_N3(P, t_sub, v1, act, g)
        if cert is None:
            return {"passed": False, "seed": seed, "case": (p, q),
                    "reason": "N3 produced no certificate"}
        rep = quotient_sectional(act, g, P, cert.x, cert.y)
        certificates.append((act, g, P, cert))
        results.append(
            {"p": p, "q": q, "balance_residual": residual,
             "sec_quotient": rep.sec_quotient}
        )
        if residual > BALANCE_TOL or abs(rep.sec_quotient) > FLAT_THRESHOLD:
            return {"passed": False, "seed": seed, "case": (p, q),
                    "results": results}
    return {"passed": True, "seed": seed, "results": results,
            "certificates": certificates}


def run_example3(seed=0, n_metrics=20, budget=10_000):
    """The exotic 7-sphere quotient of Sp(2): positive curvature at the
    identity for the bi-invariant metric (sampling evidence, not a proof),
    and a flat plane at a quarter-turned point for every right-invariant
    metric, certified by N2.

    The quarter-turned point is the unitarized form of the worked example
    (entries 1/sqrt(2), so the matrix lies in the group)."""
    rng = np.random.default_rng(seed)
    act = gromoll_meyer_action()
    fam = act.group
    dec = act.dec()

    p_id = bi_invariant_metric(dec)
    best = numeric_flat_search(act, identity(fam), p_id, budget=budget, rng=rng)
    positive_ok = best.sec_quotient > MIN_POSITIVE

    gmat = quaternion_block(
        np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0), np.zeros((2, 2))
    )
    g = GroupElement(fam, gmat)
    w1, w2, w3 = gromoll_meyer_blocks(dec)

    worst = 0.0
    certificates = []
    for _ in range(n_metrics):
        P = random_gromoll_meyer_metric(dec, rng)
        cert = check_N2(P, w1, w2, act, g, rng=rng)
        if cert is None:
            return {"passed": False, "seed": seed,
                    "reason": "N2 produced no certificate at the turned point"}
        rep = quotient_sectional(act, g, P, cert.x, cert.y)
        worst = max(worst, abs(rep.sec_quotient))
        certificates.append((act, g, P, cert))
    return {
        "passed": positive_ok and worst < EXAMPLE3_FLAT_TOL,
        "seed": seed,
        "min_at_identity": best.sec_quotient,
        "positivity_note": "sampling bound over horizontal planes, not a proof",
        "point_normalization": "1/sqrt(2)",
        "worst_flat_residual": worst,
        "certificates": certificates,
    }


def _reference_in_slice(refs, rows, functional=None):
    """The unit projection onto span(rows), rows orthonormal, of the first
    reference row whose projection is not ~0, or None; with `functional`
    (on the coefficients over the rows) onto its kernel only.  Unlike the
    basis an SVD picks, it depends on the span alone."""
    for ref in refs:
        c = rows @ ref
        if functional is not None and np.linalg.norm(functional) > 1e-12:
            c = c - functional * (functional @ c) / (functional @ functional)
        if np.linalg.norm(c) > 1e-8:
            return c @ rows / np.linalg.norm(c)
    return None


def example4_abelian_pair(n, P, act, g):
    """Horizontal commuting pair (X in the first column block, Y in the
    second) for the flow quotient at g, or None.

    [v(x), w(y)] is the corner generator scaled by the dot product of the
    column vectors, so the pair commutes iff those are orthogonal.  X and Y
    project fixed basis vectors of the blocks onto the horizontal slices
    (Y within that constraint), so they do not depend on the slice bases."""
    dec = P.dec
    frame = PointFrame.at(act, g, P)
    _, sub_v, sub_w, _ = unit_tangent_blocks(n, dec)
    slc_v = _metric_normal_slice(sub_v, frame)
    slc_w = _metric_normal_slice(sub_w, frame)
    x = _reference_in_slice(sub_v.coords, slc_v)
    if x is None:
        return None
    # the dot products of X's column with the columns of the w-slice rows
    mats = dec.matrices(np.vstack([x, slc_w]))
    dots = mats[1:, : 2 * n - 1, 2 * n].real @ mats[0, : 2 * n - 1, 2 * n - 1].real
    y = _reference_in_slice(sub_w.coords, slc_w, dots)
    return None if y is None else (dec.from_coords(x), dec.from_coords(y))


def run_example4(seed=0, ns=(2, 3), n_points=50, n_metrics=5):
    """Flow quotients of odd orthogonal groups: N1 certifies a flat plane
    at every sampled point for every sampled invariant metric."""
    rng = np.random.default_rng(seed)
    certificates = []
    worst = 0.0
    for n in ns:
        act = unit_tangent_flow_action(n)
        fam = act.group
        dec = root_decomposition(fam)
        for _ in range(n_metrics):
            P = random_unit_tangent_metric(n, dec, rng)
            for _ in range(n_points):
                g = random_group_element(fam, rng)
                pair = example4_abelian_pair(n, P, act, g)
                if pair is None:
                    return {"passed": False, "seed": seed, "n": n,
                            "reason": "no horizontal commuting pair"}
                a_sub = Subspace.from_elements(dec, list(pair), "plane")
                cert = check_N1(P, a_sub, act, g)
                if cert is None:
                    return {"passed": False, "seed": seed, "n": n,
                            "reason": "N1 produced no certificate"}
                rep = quotient_sectional(act, g, P, cert.x, cert.y)
                worst = max(worst, abs(rep.sec_quotient))
                certificates.append((act, g, P, cert))
    return {"passed": worst < FLAT_THRESHOLD, "seed": seed,
            "worst_residual": worst, "trials": len(certificates),
            "certificates": certificates}


FIXTURES = {
    "example1": run_example1,
    "example2": run_example2,
    "example3": run_example3,
    "example4": run_example4,
}
