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

Every certificate records the residuals of the conditions it checked; the
curvature engine independently confirms each certified plane, so a
certificate is never taken on faith.  Hypothesis failures are reported
separately from an unsuccessful search (a sufficient criterion that does
not fire proves nothing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from . import freeness
from .algebra import (
    AlgebraElement,
    GroupElement,
    GroupFamily,
    Subspace,
    adjoint,
    bracket,
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
    apply_P,
    bi_invariant_metric,
    build_metric,
    build_metric_from_subspaces,
)

RESIDUAL_TOL = 1e-9


class HypothesisError(ValueError):
    """A criterion's structural hypothesis fails (not a failed search)."""


class BalancedPointError(RuntimeError):
    """The balanced-point solve did not converge; the interval hypothesis
    on the parameters may fail."""


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
    if frame.vert_coords.size == 0:
        return sub.coords
    pairings = frame.vert_coords @ frame.P.mat @ sub.coords.T
    scale = max(
        float(np.linalg.norm(frame.vert_coords @ frame.P.mat, axis=1).max()),
        1e-300,
    )
    _, s, vt = np.linalg.svd(pairings)
    rank = int(np.sum(s > 1e-10 * scale))
    return vt[rank:] @ sub.coords


def _subspace_p_invariance(P: MetricOperator, sub: Subspace) -> float:
    img = sub.coords @ P.mat
    resid = img - (img @ sub.coords.T) @ sub.coords
    return float(np.abs(resid).max() / max(np.abs(img).max(), 1e-300))


def _bracket_coords(dec, a: AlgebraElement, b: AlgebraElement):
    return dec.to_coords(bracket(a, b))


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
    basis = a_sub.basis_elements()
    ab_res = 0.0
    for i, bi_ in enumerate(basis):
        for bj in basis[i + 1 :]:
            ab_res = max(ab_res, float(np.abs(bracket(bi_, bj).mat).max()))
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
    x = dec.from_coords(slc[0])
    y = dec.from_coords(slc[1])
    conds = (
        ("abelian", ab_res),
        ("P_invariant", pinv_res),
        ("horizontal_X", frame.horizontal_residual(slc[0])),
        ("horizontal_Y", frame.horizontal_residual(slc[1])),
    )
    return FlatCertificate("N1", g, x, y, conds)


def check_N2(
    P: MetricOperator,
    w1: Subspace,
    w2: Subspace,
    act: BiquotientAction,
    g: GroupElement,
    candidates=None,
    rng=None,
    diagnostics: dict | None = None,
) -> FlatCertificate | None:
    """Flat plane from commuting P-invariant subspaces.

    Searches Y over candidates in W2 intersected with the horizontal space
    (defaults: an orthonormal basis of the intersection plus 20 random unit
    combinations) for [Y, P(Y)] in W2, and takes any horizontal X in W1.
    """
    dec = P.dec
    p1 = _subspace_p_invariance(P, w1)
    p2 = _subspace_p_invariance(P, w2)
    br = 0.0
    for e1 in w1.basis_elements():
        for e2 in w2.basis_elements():
            br = max(br, float(np.abs(bracket(e1, e2).mat).max()))
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
    x_coords = slc1[0]
    x = dec.from_coords(x_coords)

    cand_coords = list(slc2)
    if candidates is not None:
        for c in candidates:
            cc = dec.to_coords(c)
            cc = (slc2.T @ (slc2 @ cc))  # restrict to the horizontal slice
            nrm = np.linalg.norm(cc)
            if nrm > 1e-12:
                cand_coords.append(cc / nrm)
    else:
        rng = rng or np.random.default_rng(0)
        for _ in range(20):
            mix = rng.standard_normal(slc2.shape[0])
            cc = slc2.T @ mix
            cand_coords.append(cc / np.linalg.norm(cc))

    for cy in cand_coords:
        y = dec.from_coords(cy)
        ypy = bracket(y, apply_P(P, y))
        c_ypy = dec.to_coords(ypy)
        resid = np.linalg.norm(c_ypy - w2.project_coords(c_ypy))
        resid /= max(np.linalg.norm(c_ypy), 1.0)
        if resid <= RESIDUAL_TOL:
            conds = (
                ("P_invariant_W1", p1),
                ("P_invariant_W2", p2),
                ("bracket_W1_W2", br),
                ("Y_PY_in_W2", float(resid)),
                ("horizontal_X", frame.horizontal_residual(x_coords)),
                ("horizontal_Y", frame.horizontal_residual(cy)),
            )
            return FlatCertificate("N2", g, x, y, conds)
    _record(diagnostics, "search", "no candidate Y satisfied [Y, P(Y)] in W2")
    return None


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


def auto_flat_certificate(act, g, P, rng):
    """N2 on every pair of commuting root spaces, in order, until a
    certificate re-evaluates flat through quotient_sectional.

    Returns (certificate, |sec_quotient| of its plane), or (None, None);
    a certificate whose plane is not flat is dropped.
    """
    dec = P.dec
    for i, j in commuting_root_pairs(dec):
        cert = check_N2(
            P, root_subspace(dec, i), root_subspace(dec, j), act, g, rng=rng
        )
        if cert is None:
            continue
        sec = abs(quotient_sectional(act, g, P, cert.x, cert.y).sec_quotient)
        if sec < FLAT_THRESHOLD:
            return cert, sec
    return None, None


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
    ur_res = 0.0
    for _, xr in act.u_basis:
        c = dec.to_coords(xr)
        ur_res = max(ur_res, float(np.abs(v_sub.coords @ c).max()))
    if ur_res > RESIDUAL_TOL:
        raise HypothesisError(
            f"eigenspace is not orthogonal to the right generators ({ur_res:.2e})"
        )

    frame = PointFrame.at(act, g, P)
    slc_k = _metric_normal_slice(k_alg, frame)
    slc_v = _metric_normal_slice(v_sub, frame)
    if slc_k.shape[0] < 1 or slc_v.shape[0] < 1:
        _record(diagnostics, "search", "no horizontal vectors available")
        return None
    # [P(X), Y] = 0 is linear in X, so for each candidate Y solve for X
    # inside the horizontal slice of k_alg instead of enumerating
    px_slice = [apply_P(P, dec.from_coords(ck)) for ck in slc_k]
    y_candidates = list(slc_v)
    if slc_v.shape[0] > 1:
        mix = slc_v.sum(axis=0)
        y_candidates.append(mix / np.linalg.norm(mix))
    for cv in y_candidates:
        y = dec.from_coords(cv)
        cols = np.array([dec.to_coords(bracket(px, y)) for px in px_slice]).T
        scale = max(
            max(float(np.abs(px.mat).max()) for px in px_slice)
            * float(np.abs(y.mat).max()),
            1e-300,
        )
        _, s, vt = np.linalg.svd(cols)
        rank = int(np.sum(s > 1e-10 * scale))
        if rank >= slc_k.shape[0]:
            continue
        ck = slc_k.T @ vt[rank]
        ck /= np.linalg.norm(ck)
        x = dec.from_coords(ck)
        resid = float(np.abs(bracket(apply_P(P, x), y).mat).max()) / scale
        if resid <= RESIDUAL_TOL:
            conds = (
                ("V_eigenspace", eig_res),
                ("V_perp_uR", ur_res),
                ("PX_Y_bracket", resid),
                ("horizontal_X", frame.horizontal_residual(ck)),
                ("horizontal_Y", frame.horizontal_residual(cv)),
            )
            return FlatCertificate("N3", g, x, y, conds)
    _record(diagnostics, "search", "no pair with [P(X), Y] = 0 found")
    return None


# ---------------------------------------------------------------------------
# balanced points for the 7-dimensional circle quotients
# ---------------------------------------------------------------------------

Y3_COORDS = (1.0, 1.0, -2.0)


def find_balanced_point(
    p,
    q,
    P: MetricOperator | None = None,
    q_index: int = 2,
    restarts: int = 8,
    tol: float = 1e-10,
    rng=None,
) -> GroupElement:
    """Point g where the circle's vertical generator is Q-orthogonal to
    Y3 = i diag(1,1,-2).

    Applies when q[q_index] lies in [min p, max p] (q_index permutes the
    distinguished coordinate into the last slot; default is the third).
    The solve moves g along a one-parameter rotation coupling the last
    coordinate with an entry of p on the other side of q[q_index], where
    the defect changes sign; a random-restart minimization is the
    fallback.  Raises BalancedPointError when no root is found.
    """
    p = tuple(int(x) for x in p)
    q = tuple(int(x) for x in q)
    if q_index != 2:
        order = [t for t in range(3) if t != q_index] + [q_index]
        q = tuple(q[t] for t in order)
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

    def rotation(j, t):
        m = np.eye(3, dtype=complex)
        c, s = np.cos(t), np.sin(t)
        m[j, j] = c
        m[2, 2] = c
        m[j, 2] = s
        m[2, j] = -s
        return m

    f0 = defect(np.eye(3, dtype=complex))
    if abs(f0) <= tol:
        return identity(fam)
    for j in (0, 1):
        fj = defect(rotation(j, np.pi / 2))
        if f0 * fj <= 0:
            t_star = scipy.optimize.brentq(
                lambda t: defect(rotation(j, t)), 0.0, np.pi / 2, xtol=1e-15
            )
            gmat = rotation(j, t_star)
            if abs(defect(gmat)) <= tol:
                return GroupElement(fam, gmat)
    # fallback: random-restart minimization of the squared defect over SU(3)
    rng = rng or np.random.default_rng(0)
    dec = root_decomposition(fam)
    from .algebra import random_algebra_element

    for _ in range(restarts):
        x0 = dec.to_coords(random_algebra_element(fam, rng, scale=0.8))

        def cost(c):
            return defect(scipy.linalg.expm(dec.from_coords(c).mat)) ** 2

        res = scipy.optimize.minimize(cost, x0, method="Nelder-Mead",
                                      options={"fatol": 1e-24, "xatol": 1e-12,
                                               "maxfev": 4000})
        if res.fun < tol * tol:
            return GroupElement(fam, scipy.linalg.expm(dec.from_coords(res.x).mat))
    raise BalancedPointError(
        "no balanced point found; the interval hypothesis on q may fail"
    )


# ---------------------------------------------------------------------------
# numeric flat-plane search
# ---------------------------------------------------------------------------

# planes per batched kernel call: bounds its (N, d, d) temporaries
SEARCH_CHUNK = 256


def numeric_flat_search(
    act: BiquotientAction,
    g: GroupElement,
    P: MetricOperator,
    budget: int = 10_000,
    rng=None,
    local_restarts: int = 4,
) -> PlaneReport:
    """Minimize quotient sectional curvature over horizontal planes at g
    by random sampling plus derivative-free local descent.

    The random phase draws all samples at once and evaluates them in
    chunks of SEARCH_CHUNK planes through the coordinate kernel; the
    descent evaluates one plane per call through the same path.  Returns
    the best plane found, re-evaluated by quotient_sectional; its
    certificate field is "numeric" when the value is below the flat
    threshold, else "none".
    """
    if budget < 1:
        raise ValueError("plane budget must be at least 1")
    rng = rng or np.random.default_rng(0)
    dec = act.dec()
    frame = PointFrame.at(act, g, P)
    hor = frame.horizontal()
    h = hor.dim
    if h < 2:
        raise ValueError("horizontal space has dimension < 2")
    pm = P.mat

    def values(thetas):
        """sec_quotient of the plane of each row of thetas (inf when the
        row does not span a plane)."""
        c = thetas.reshape(-1, h) @ hor.coords
        c1, c2 = c[0::2], c[1::2]
        n1 = np.sqrt(np.einsum("ij,ij->i", c1 @ pm, c1))
        c1 = c1 / np.maximum(n1, 1e-12)[:, None]
        c2 = c2 - np.einsum("ij,ij->i", c2 @ pm, c1)[:, None] * c1
        n2 = np.sqrt(np.einsum("ij,ij->i", c2 @ pm, c2))
        c2 = c2 / np.maximum(n2, 1e-8)[:, None]
        sec_g, oneill = frame.curvature_rows(c1, c2)
        return np.where((n1 >= 1e-12) & (n2 >= 1e-8), sec_g + oneill, np.inf)

    n_samples = max(budget // 2, 1)
    thetas = rng.standard_normal((n_samples, 2 * h))
    sampled = np.concatenate([
        values(thetas[i : i + SEARCH_CHUNK]) for i in range(0, n_samples, SEARCH_CHUNK)
    ])
    best = int(np.argmin(sampled))  # the first minimum, as a strict < loop keeps
    best_val = sampled[best]
    best_theta = thetas[best]
    remaining = max(budget - n_samples, 0)
    # the descent from the best sample gets a double share of the budget
    shares = [2] + [1] * max(local_restarts - 1, 0)
    unit = remaining // max(sum(shares), 1)
    theta0 = best_theta
    for k, share in enumerate(shares):
        if unit * share < 50:
            break
        start = theta0 if k == 0 else theta0 + 0.3 * rng.standard_normal(2 * h)
        res = scipy.optimize.minimize(
            lambda theta: values(theta[None])[0], start, method="Nelder-Mead",
            options={"maxfev": unit * share, "fatol": 1e-15, "xatol": 1e-11},
        )
        if res.fun < best_val:
            best_val = res.fun
            best_theta = res.x

    c1 = hor.coords.T @ best_theta[:h]
    c2 = hor.coords.T @ best_theta[h:]
    rep = quotient_sectional(
        act, g, P, dec.from_coords(c1), dec.from_coords(c2), frame=frame
    )
    cert = "numeric" if abs(rep.sec_quotient) < FLAT_THRESHOLD else "none"
    return PlaneReport(
        point=g, x=rep.x, y=rep.y, sec_g=rep.sec_g,
        oneill_term=rep.oneill_term, sec_quotient=rep.sec_quotient,
        certificate=cert,
    )


# ---------------------------------------------------------------------------
# metric samplers used by the fixtures
# ---------------------------------------------------------------------------

def random_torus_invariant_metric(dec, rng, spread=(0.4, 2.5)) -> MetricOperator:
    """Random positive Cartan block plus independent root scalars."""
    a = rng.standard_normal((dec.rank, dec.rank))
    t_block = a @ a.T + 0.3 * np.eye(dec.rank)
    alphas = rng.uniform(spread[0], spread[1], size=len(dec.roots))
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
    so(2n-1) block, the two coupled columns, and the corner line."""
    fam = dec.family
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

def run_example1(seed=0, n_weights=20, n_metrics=20, n_points=20, flat_tol=1e-8):
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
        "passed": worst < flat_tol,
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


def run_example2(seed=0, n_cases=10, flat_tol=1e-8, residual_tol=1e-10):
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
        g = find_balanced_point(p, q, tol=residual_tol, rng=rng)
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
        if residual > residual_tol or abs(rep.sec_quotient) > flat_tol:
            return {"passed": False, "seed": seed, "case": (p, q),
                    "results": results}
    return {"passed": True, "seed": seed, "results": results,
            "certificates": certificates}


def run_example3(seed=0, n_metrics=20, budget=10_000, min_positive=0.01,
                 flat_tol=1e-9):
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
    positive_ok = best.sec_quotient > min_positive

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
        "passed": positive_ok and worst < flat_tol,
        "seed": seed,
        "min_at_identity": best.sec_quotient,
        "positivity_note": "sampling bound over horizontal planes, not a proof",
        "point_normalization": "1/sqrt(2)",
        "worst_flat_residual": worst,
        "certificates": certificates,
    }


def example4_abelian_pair(n, P, act, g):
    """Horizontal commuting pair (X in the first column block, Y in the
    second) for the flow quotient at g, or None.

    [v(x), w(y)] is the corner generator scaled by the dot product of the
    column vectors, so the pair commutes iff those are orthogonal; the
    orthogonality constraint is solved inside the horizontal slice of the
    second block, which keeps Y horizontal."""
    dec = P.dec
    frame = PointFrame.at(act, g, P)
    _, sub_v, sub_w, _ = unit_tangent_blocks(n, dec)
    slc_v = _metric_normal_slice(sub_v, frame)
    slc_w = _metric_normal_slice(sub_w, frame)
    if slc_v.shape[0] < 1 or slc_w.shape[0] < 1:
        return None

    def column(el, col):
        return np.array([el.mat[i, col].real for i in range(2 * n - 1)])

    for cx in slc_v:
        x = dec.from_coords(cx)
        xvec = column(x, 2 * n - 1)
        dots = np.array(
            [column(dec.from_coords(c), 2 * n) @ xvec for c in slc_w]
        )
        null = scipy.linalg.null_space(dots[None, :])
        if null.shape[1] == 0:
            continue
        cy = slc_w.T @ null[:, 0]
        return x, dec.from_coords(cy)
    return None


def run_example4(seed=0, ns=(2, 3), n_points=50, n_metrics=5, flat_tol=1e-8):
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
    return {"passed": worst < flat_tol, "seed": seed,
            "worst_residual": worst, "trials": len(certificates),
            "certificates": certificates}


FIXTURES = {
    "example1": run_example1,
    "example2": run_example2,
    "example3": run_example3,
    "example4": run_example4,
}
