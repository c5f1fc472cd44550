"""Executable sufficient criteria for zero-curvature planes, the numeric
flat-plane search, and the balanced points and invariant blocks the worked
examples are built on (the seeded example runs live in biq.fixtures).

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
vectors of a returned certificate.  What is horizontal and what spans a
plane is decided by the point's `PointFrame` (`slice` and `orthonormal`,
the rules of biq.biquotient).

The numeric search samples planes through the batched curvature kernel
and descends on h x h quotient forms in the horizontal rows, from one
kernel built per point (`PointFrame.horizontal_forms`).

Every certificate records the residuals of the conditions it checked; the
curvature engine independently confirms each certified plane, so a
certificate is never taken on faith.  A criterion that does not fire
returns None and records why in its diagnostics: under "hypothesis" when a
structural hypothesis fails, under "search" when no plane was found (a
sufficient criterion that does not fire proves nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .algebra import (
    AlgebraElement,
    GroupElement,
    GroupFamily,
    Subspace,
    identity,
    quaternion_block,
    quaternion_diag,
    QUATERNION_UNITS,
    root_decomposition,
    root_subspace,
    skew_unit,
    torus_element,
)
from .biquotient import (
    BiquotientAction,
    PLANE_AREA_RTOL,
    PlaneReport,
    PointFrame,
    quotient_sectional,
)
from .curvature import FLAT_THRESHOLD
from .metric import MetricOperator

RESIDUAL_TOL = 1e-9


class BalancedPointError(RuntimeError):
    """No balanced point: the target lies outside [min p, max p], or the
    closed-form point failed its defect check."""


@dataclass(frozen=True)
class FlatCertificate:
    """A certified zero-curvature plane with the residuals that back it."""

    criterion: str  # "N1" | "N2" | "N3"
    x: AlgebraElement
    y: AlgebraElement
    checked_conditions: tuple  # of (name, residual)

    def max_residual(self) -> float:
        return max((r for _, r in self.checked_conditions), default=0.0)


def _record(diag, key, value):
    if diag is not None:
        diag[key] = value


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
    slc = frame.slice(a_sub.coords)
    if slc.shape[0] < 2:
        _record(diagnostics, "search", "horizontal intersection has dimension < 2")
        return None
    conds = (
        ("abelian", ab_res),
        ("P_invariant", pinv_res),
        ("horizontal_X", frame.horizontal_residual(slc[0])),
        ("horizontal_Y", frame.horizontal_residual(slc[1])),
    )
    return FlatCertificate("N1", dec.from_coords(slc[0]), dec.from_coords(slc[1]),
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
    slc1 = frame.slice(w1.coords)
    slc2 = frame.slice(w2.coords)
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
    return FlatCertificate("N2", dec.from_coords(slc1[0]), dec.from_coords(cy), conds)


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

    Verifies that v_sub is an eigenspace of P and orthogonal to the right
    generators of the action, then searches horizontal X in k_alg and
    horizontal Y in v_sub with [P(X), Y] = 0.
    """
    dec = P.dec
    img = v_sub.coords @ P.mat
    lam = float(np.sum(img * v_sub.coords) / v_sub.dim)
    eig_res = float(np.abs(img - lam * v_sub.coords).max() / max(abs(lam), 1e-300))
    if eig_res > RESIDUAL_TOL:
        _record(diagnostics, "hypothesis",
                f"subspace is not a P-eigenspace (residual {eig_res:.2e})")
        return None
    frame = PointFrame.at(act, g, P)
    ur_res = float(np.abs(v_sub.coords @ frame.right.T).max(initial=0.0))
    if ur_res > RESIDUAL_TOL:
        _record(diagnostics, "hypothesis",
                f"eigenspace is not orthogonal to the right generators ({ur_res:.2e})")
        return None

    slc_k = frame.slice(k_alg.coords)
    slc_v = frame.slice(v_sub.coords)
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
            return FlatCertificate("N3", dec.from_coords(ck), dec.from_coords(cv),
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


def _alternation_step(forms, a):
    """One block step from each unit row a (P-orthonormal horizontal
    coefficients, forms from PointFrame.horizontal_forms): the least value
    over unit b orthogonal to a of kappa(a, b) and its minimizer b.

    The Householder reflection that takes a to -+e_0 has its columns past
    the first as an orthonormal basis Q of a's complement, so the least
    eigenvalue of Q^T F(a) Q, (h - 1) x (h - 1), is the least value there."""
    eye = np.eye(a.shape[1])
    v = a + np.where(a[:, :1] < 0, -1.0, 1.0) * eye[0]
    Q = eye[:, 1:] - 2.0 * v[:, :, None] * v[:, None, 1:] / (v * v).sum(axis=1)[:, None, None]
    w, y = np.linalg.eigh(Q.transpose(0, 2, 1) @ forms(a) @ Q)
    return w[:, 0], (Q @ y[:, :, :1])[:, :, 0]


def _pair_value(forms, theta):
    """kappa / area of the pair theta = (a, b) of horizontal coefficients,
    and its gradient from the closed forms 2 F(b) a and 2 F(a) b, read from
    one batched product; (inf, 0) when a and b are nearly parallel."""
    a, b = pair = theta.reshape(2, -1)
    gb, ga = 2.0 * (forms(pair) @ pair[::-1, :, None])[:, :, 0]
    kappa = 0.5 * float(b @ gb)
    aa, bb, ab = a @ a, b @ b, a @ b
    area = aa * bb - ab * ab
    if area <= PLANE_AREA_RTOL * aa * bb:
        return np.inf, np.zeros_like(theta)
    f = kappa / area
    grad = np.concatenate([
        ga - f * 2.0 * (bb * a - ab * b),
        gb - f * 2.0 * (aa * b - ab * a),
    ]) / area
    return f, grad


def _lbfgs_direction(g, S, Y, rho):
    """-M g for the L-BFGS inverse Hessian M of the pairs (S[i], Y[i]) with
    rho[i] = 1 / S[i].Y[i], oldest first: the two-loop recursion from
    M_0 = (s.y / y.y) I of the newest pair (Nocedal and Wright, Alg. 7.4)."""
    q = g.copy()
    alphas = np.empty(len(rho))
    for i in reversed(range(len(rho))):
        alphas[i] = rho[i] * (S[i] @ q)
        q -= alphas[i] * Y[i]
    if len(rho):
        q *= (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])
    for i in range(len(rho)):
        q += (alphas[i] - rho[i] * (Y[i] @ q)) * S[i]
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


def _polish(forms, a, b, max_evals):
    """L-BFGS on kappa / area over pairs (a, b), with the closed-form
    gradients 2 F(b) a and 2 F(a) b: memory LBFGS_MEMORY, the two-loop
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
    h = a.size
    x = np.concatenate([a, b])
    best = [np.inf, x]
    count = [0]

    def fun(theta):
        if count[0] == max_evals:
            raise _BudgetSpent
        count[0] += 1
        f, grad = _pair_value(forms, theta)
        if f < best[0]:
            best[:] = f, theta
        return f, grad

    # the stored pairs (S[i], Y[i], rho[i]), oldest first, in the first k rows
    (S, Y), rho = np.empty((2, LBFGS_MEMORY, 2 * h)), np.empty(LBFGS_MEMORY)
    k = 0
    try:
        f, g = fun(x)
        while np.abs(g).max() > GTOL:
            p = _lbfgs_direction(g, S[:k], Y[:k], rho[:k])
            alpha = 1.0 if k else 1.0 / np.linalg.norm(p)
            # the relative-decrease stop, on the first trial step's
            # first-order decrease
            if -alpha * (g @ p) <= FTOL * max(abs(f), 1.0):
                break
            t = _wolfe_step(fun, x, f, g, p, alpha)
            if t is None:
                if not k:
                    break
                k = 0
                continue
            step, f_new, g_new, _ = t
            if f - f_new <= FTOL * max(abs(f), abs(f_new), 1.0):
                break
            s, y = step * p, g_new - g
            sy = s @ y
            if sy > np.finfo(float).eps * (y @ y):
                if k == LBFGS_MEMORY:
                    S[:-1], Y[:-1], rho[:-1] = S[1:], Y[1:], rho[1:]
                    k -= 1
                S[k], Y[k], rho[k] = s, y, 1.0 / sy
                k += 1
            # back to unit a and b; the gradient and the stored pairs follow
            # the change of scale D (s -> D s, y -> y / D)
            x = x + s
            d = np.repeat(1.0 / np.linalg.norm(x.reshape(2, h), axis=1), h)
            x, f, g = x * d, f_new, g_new / d
            S[:k] *= d
            Y[:k] /= d
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
    form F(x) on that complement (PointFrame.horizontal_forms); alternating
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
        """PointFrame.orthonormal of the pair in each row of thetas."""
        c = thetas.reshape(-1, h) @ hor.coords
        return frame.orthonormal(c[0::2], c[1::2])

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
        forms = frame.horizontal_forms(H)
        a, b = c1[live] @ pm @ H.T, c2[live] @ pm @ H.T
        val = sampled[order][live]
        stats["descent_starts"] = n_starts
        for _ in range(ALTERNATIONS):
            lam, nxt = _alternation_step(forms, b)
            stats["alternation_steps"] += n_starts
            gain = val - lam
            better = gain > 0
            a[better], b[better], val[better] = b[better], nxt[better], lam[better]
            if not np.any(gain > ALTERNATION_RTOL * np.maximum(1.0, np.abs(val))):
                break
        k = int(np.argmin(val))
        f, pa, pb, n = _polish(forms, a[k], b[k], evals - stats["alternation_steps"])
        stats["polish_evaluations"] = n
        x, y = (pa, pb) if f < val[k] else (a[k], b[k])
        best_pair = x @ H, y @ H
    if diagnostics is not None:
        diagnostics.update(stats)

    rep = quotient_sectional(
        act, g, P, dec.from_coords(best_pair[0]), dec.from_coords(best_pair[1])
    )
    flat = abs(rep.sec_quotient) < FLAT_THRESHOLD
    return replace(rep, certificate="numeric" if flat else "none")


# ---------------------------------------------------------------------------
# invariant blocks and commuting pairs of the worked examples
# ---------------------------------------------------------------------------

def gromoll_meyer_blocks(dec):
    """The three invariant subspaces of the Sp(1)-quotient of Sp(2):
    imaginary top diagonal, imaginary bottom diagonal, off-diagonal."""
    fam = dec.family
    zq = (0.0, 0.0)
    top = [quaternion_diag(fam, u, zq) for u in QUATERNION_UNITS]
    bottom = [quaternion_diag(fam, zq, u) for u in QUATERNION_UNITS]
    w1 = Subspace.from_elements(dec, top, "W1")
    w2 = Subspace.from_elements(dec, bottom, "W2")
    off = []
    for b_val, c_val in [(1.0, 0.0), (1j, 0.0), (0.0, 1.0), (0.0, -1j)]:
        b = np.array([[0, b_val], [-np.conj(b_val), 0]])
        c = np.array([[0, c_val], [c_val, 0]])
        off.append(AlgebraElement(fam, quaternion_block(b, c)))
    w3 = Subspace.from_elements(dec, off, "W3")
    return w1, w2, w3


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
        return AlgebraElement(fam, skew_unit(size, i, j))

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
    slc_v = frame.slice(sub_v.coords)
    slc_w = frame.slice(sub_w.coords)
    x = _reference_in_slice(sub_v.coords, slc_v)
    if x is None:
        return None
    # the dot products of X's column with the columns of the w-slice rows
    mats = dec.matrices(np.vstack([x, slc_w]))
    dots = mats[1:, : 2 * n - 1, 2 * n].real @ mats[0, : 2 * n - 1, 2 * n - 1].real
    y = _reference_in_slice(sub_w.coords, slc_w, dots)
    return None if y is None else (dec.from_coords(x), dec.from_coords(y))
