"""Independent oracles used by the tests.

The curvature oracle evaluates <R(X,Y)Y, X> from the Levi-Civita
connection assembled via the Koszul formula for left-invariant fields,
which shares no code path with the production four-term expression.
The matrix oracles evaluate the production formulas with matrix-model
brackets instead of the structure-constant kernel.  The exact oracles are
the earlier forms of the freeness checker (one full Smith form per
symmetry, no pruning), of the saturation (the kernel of the kernel), of
the Hermite form (sort-and-subtract column reduction), of the numeric
flat-plane search (random phase plus Nelder-Mead descents) and of the
flat-plane criteria N1/N2/N3 (matrix brackets per candidate).  The scipy
oracles are the earlier forms of the exponential (Pade scaling and
squaring), of the orthonormal span, of the horizontal null space and of
the flat-search polish (L-BFGS-B).
"""

import math

import numpy as np
import scipy.linalg
import scipy.optimize

from biq.algebra import GroupElement, Subspace, adjoint, bracket, inner_q
from biq.biquotient import BiquotientAction, PlaneReport, PointFrame, quotient_sectional
from biq.curvature import FLAT_THRESHOLD
from biq.detectors import (
    RESIDUAL_TOL,
    FlatCertificate,
    HypothesisError,
    _BudgetSpent,
    _metric_normal_slice,
    _pair_value,
    _record,
    _subspace_p_invariance,
)
from biq.freeness import (
    MOD_CENTER,
    STRICT,
    FreenessVerdict,
    TorusActionWeights,
    Witness,
    _all_congruent,
    _central_pair,
    _normalize_mode,
    _scalar_is_central,
    conjugacy_symmetries,
)
from biq.intlattice import invariant_factors, kernel_generators
from biq.metric import L_tensor, MetricOperator, apply_P


_structure_cache = {}


def structure_tensor(dec):
    key = (dec.family.name, dec.family.n)
    if key not in _structure_cache:
        basis = dec.basis
         # C[i, j, :] = coordinates of [B_i, B_j]
        dim = dec.dim
        C = np.zeros((dim, dim, dim))
        for i in range(dim):
            for j in range(i + 1, dim):
                c = dec.to_coords(bracket(basis[i], basis[j]))
                C[i, j] = c
                C[j, i] = -c
        _structure_cache[key] = C
    return _structure_cache[key]


def koszul_numerator(P, x, y):
    """<R(X,Y)Y, X> via nabla_U V = 1/2 [U,V] + A(U,V), where A is the
    metric correction solved from the Koszul identity."""
    dec = P.dec
    C = structure_tensor(dec)
    pm = P.mat

    def br(u, v):
        return np.einsum("i,j,ijk->k", u, v, C)

    def nabla(u, v):
        # <A(u,v), z> = 1/2 (<[z,u], v> + <[z,v], u>) for every basis z
        rhs = 0.5 * (
            np.einsum("ijk,j,k->i", C, u, pm @ v)
            + np.einsum("ijk,j,k->i", C, v, pm @ u)
        )
        return 0.5 * br(u, v) + np.linalg.solve(pm, rhs)

    cx = dec.to_coords(x)
    cy = dec.to_coords(y)
    r = nabla(cx, nabla(cy, cy)) - nabla(cy, nabla(cx, cy)) - nabla(br(cx, cy), cy)
    return float(r @ pm @ cx)


def matrix_b_tensor(P, x, y):
    """B(X,Y) = 1/2 ([X, PY] - [PX, Y]) on matrices; symmetric in X, Y
    and zero for P = id."""
    return 0.5 * (bracket(x, apply_P(P, y)) - bracket(apply_P(P, x), y))


def matrix_numerator(P, x, y):
    """The four-term numerator with every bracket taken on matrices."""
    px = apply_P(P, x)
    py = apply_P(P, y)
    xy = bracket(x, y)

    dec = P.dec
    c_xy = dec.to_coords(xy)
    c_mixed = dec.to_coords(bracket(px, y) + bracket(x, py))

    term1 = 0.5 * float(c_mixed @ c_xy)
    term2 = -0.75 * float(P.apply_coords(c_xy) @ c_xy)

    b_xy, b_xx, b_yy = (dec.to_coords(matrix_b_tensor(P, u, v))
                        for u, v in ((x, y), (x, x), (y, y)))
    term3 = float(b_xy @ P.apply_inv_coords(b_xy))
    term4 = -float(b_xx @ P.apply_inv_coords(b_yy))
    return term1 + term2 + term3 + term4


def matrix_z_squared(act, g, P, x, y):
    """z^2 from the fusing tensor L(x, y) and the generators on matrices:
    c_j = <Ad_{g^{-1}} X_L, L> - <X_R, [x, y]>, z^2 = c N^{-1} c with N
    the Gram matrix of the vertical generators."""
    dec = P.dec
    ginv = g.inverse()
    p_ell = P.apply_coords(dec.to_coords(L_tensor(P, x, y)))
    p_xy = P.apply_coords(dec.to_coords(bracket(x, y)))
    vert = np.array([dec.to_coords(adjoint(ginv, xl) - xr) for xl, xr in act.u_basis])
    c = np.array([
        dec.to_coords(adjoint(ginv, xl)) @ p_ell - dec.to_coords(xr) @ p_xy
        for xl, xr in act.u_basis
    ])
    return float(c @ np.linalg.solve(vert @ P.mat @ vert.T, c))


def matrix_quotient_sectional(act, g, P, cx, cy):
    """sec_G + 3/4 z^2 of metric-orthonormal horizontal coordinate rows."""
    x, y = P.dec.from_coords(cx), P.dec.from_coords(cy)
    return matrix_numerator(P, x, y) + 0.75 * matrix_z_squared(act, g, P, x, y)


def folded_angle_multiset(exponents, coords, fold):
    """Sorted eigenvalue angles of a diagonal torus element, folded to
    [0, 1/2] for the families whose conjugacy allows inversion."""
    angles = [float(sum(e * c for e, c in zip(row, coords))) % 1.0 for row in exponents]
    if fold:
        angles = [min(a, 1.0 - a) for a in angles]
    return np.sort(np.array(angles) % 1.0)


def witness_conjugate(weights, witness, tol=1e-8):
    """Numerically confirm that a freeness witness element has matching
    left/right eigenvalue data under the family's pairing."""
    coords = [float(f) for f in witness.coordinates()]
    fold = weights.group.name not in ("SU", "U")
    left = folded_angle_multiset(weights.w_left, coords, fold)
    right = folded_angle_multiset(weights.w_right, coords, fold)
    # guard the wrap-around at 1.0 for the unfolded families
    diff = np.abs(left - right)
    diff = np.minimum(diff, 1.0 - diff)
    return bool(np.all(diff < tol))


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------

def _apply_symmetry(w_right, perm, signs):
    return [
        [signs[i] * x for x in w_right[perm[i]]]
        for i in range(len(w_right))
    ]


def _kernel_is_central(w: TorusActionWeights, d_matrix) -> tuple:
    """Check that every kernel element of the character map acts as an
    allowed central scalar.  Returns (ok, offending_generator| None)."""
    torsion, circles = kernel_generators(d_matrix)
    fam = w.group
    for col, order in torsion:
        a = w.left_exponents(col)
        b = w.right_exponents(col)
        ma = _all_congruent(a, order)
        mb = _all_congruent(b, order)
        if (
            ma is None
            or mb is None
            or ma != mb
            or not _scalar_is_central(fam, ma, order)
        ):
            return False, (col, order, "torsion")
    for col in circles:
        a = w.left_exponents(col)
        b = w.right_exponents(col)
        scalar_circle = (
            len(set(a)) == 1 and len(set(b)) == 1 and a[0] == b[0]
        )
        if not (scalar_circle and fam.name == "U"):
            return False, (col, 2, "circle")
    return True, None


def _odd_sigma_offender(w: TorusActionWeights, d_matrix, mode: str):
    """Genuine violations inside the kernel of an odd-signed symmetry of
    SO(2n): only elements with a real eigenvalue (some exponent at 0 or a
    half turn) are actually conjugate inside the group.  Returns the first
    offending element as (numerators, denominator, kind), or None."""
    torsion, circles = kernel_generators(d_matrix)
    for col, order in torsion:
        a = w.left_exponents(col)
        b = w.right_exponents(col)
        for j in range(1, order):
            aj = tuple((j * x) % order for x in a)
            if not any((2 * x) % order == 0 for x in aj):
                continue  # no real eigenvalue: not conjugate in SO(2n)
            bj = tuple((j * x) % order for x in b)
            if mode == STRICT or not _central_pair(w, aj, bj, order):
                return tuple((j * c) % order for c in col), order, "torsion"
    for col in circles:
        a = w.left_exponents(col)
        b = w.right_exponents(col)
        if any(x == 0 for x in a):
            # a permanently fixed block: every circle point is genuinely
            # conjugate; pick one beyond the finite center
            r = 2 * max(abs(x) for x in a) + 3
            return tuple(c % r for c in col), r, "circle"
        for ai in a:
            order = 2 * abs(ai)
            for m in range(1, order):
                aj = tuple((m * x) % order for x in a)
                bj = tuple((m * x) % order for x in b)
                if mode == STRICT or not _central_pair(w, aj, bj, order):
                    return tuple((m * c) % order for c in col), order, "circle"
    return None


def leafwise_is_free_exact(w: TorusActionWeights, mode: str | None = None) -> FreenessVerdict:
    """Exact freeness verdict for a weighted torus action.

    strict mode demands a trivial kernel for every symmetry image (all
    Smith invariant factors equal to 1); mod-center mode accepts kernels
    acting by central scalars.  The reported witness belongs to the first
    failing symmetry in the iteration order.  For SO(2n) it still
    enumerates the real-eigenvalue elements of every odd-signed kernel; a
    violation found only there is returned with a note, which the
    production checker, skipping odd-signed symmetries, would never match.
    """
    mode = _normalize_mode(mode or w.mode)
    fam = w.group
    rows = w.n_rows
    w_left = [list(r) for r in w.w_left]
    first_odd_fail = None

    for perm, signs in conjugacy_symmetries(fam, rows):
        sw = _apply_symmetry(w.w_right, perm, signs)
        d_matrix = [
            [w_left[i][j] - sw[i][j] for j in range(w.k)] for i in range(rows)
        ]
        factors = invariant_factors(d_matrix, count=w.k)
        if all(f == 1 for f in factors):
            continue
        if fam.kind == "SO-even" and math.prod(signs) < 0:
            off = _odd_sigma_offender(w, d_matrix, mode)
            if off is None:
                continue  # conjugacy not realized inside SO(2n)
            nums, den, kind = off
            if first_odd_fail is None:
                first_odd_fail = Witness(
                    perm=perm, signs=signs, numerators=nums, denominator=den,
                    invariant_factors=tuple(factors), kind=kind,
                )
            continue  # an even-signed violation, if any, is reported first
        offender = None
        if mode == MOD_CENTER:
            ok, offender = _kernel_is_central(w, d_matrix)
            if ok:
                continue
        if offender is None:
            torsion, circles = kernel_generators(d_matrix)
            if torsion:
                offender = (*torsion[0], "torsion")
            else:
                offender = (circles[0], 2, "circle")
        col, order, kind = offender
        witness = Witness(
            perm=perm,
            signs=signs,
            numerators=tuple(int(c) % order for c in col),
            denominator=int(order),
            invariant_factors=tuple(factors),
            kind=kind,
        )
        return FreenessVerdict(free=False, mode=mode, witness=witness)
    if first_odd_fail is not None:
        return FreenessVerdict(
            free=False,
            mode=mode,
            witness=first_odd_fail,
            note="the violation is realized only through odd-signed symmetries",
        )
    return FreenessVerdict(free=True, mode=mode)


def saturate_columns_two_kernels(vectors):
    """Primitive closure of the lattice spanned by `vectors` as the kernel
    of its orthogonal complement's kernel (two Smith forms)."""
    cols = [tuple(int(x) for x in v) for v in vectors if any(v)]
    if not cols:
        return ()
    m = len(cols[0])
    _, complement = kernel_generators([list(v) for v in cols])
    if not complement:
        return tuple(tuple(1 if i == j else 0 for i in range(m)) for j in range(m))
    return kernel_generators([list(c) for c in complement])[1]


def sort_subtract_hnf_columns(vectors):
    """Column Hermite normal form by the earlier sort-and-subtract loop:
    row by row, the active columns are reduced by the one of least
    nonzero magnitude until a single pivot is left; at the end, earlier
    columns are reduced modulo later pivots."""
    cols = [[int(x) for x in v] for v in vectors if any(v)]
    if not cols:
        return ()
    m = len(cols[0])
    basis = []
    for r in range(m):
        if not cols:
            break
        while True:
            nz = [j for j, c in enumerate(cols) if c[r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(cols[j][r]))
            j0 = nz[0]
            for j in nz[1:]:
                q = cols[j][r] // cols[j0][r]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[j0])]
        nz = [j for j, c in enumerate(cols) if c[r] != 0]
        if not nz:
            continue
        piv = cols.pop(nz[0])
        if piv[r] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
    for i, col in enumerate(basis):
        r = next(t for t, x in enumerate(col) if x != 0)
        for j in range(i):
            q = basis[j][r] // col[r]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], col)]
    return tuple(tuple(c) for c in basis)


def nelder_mead_flat_search(act, g, P, budget=10_000, rng=None, local_restarts=4,
                            chunk=256):
    """The flat-plane search before the eigen-descent: the same random
    phase, then Nelder-Mead descents from the best sample and from random
    perturbations of it, one plane per evaluation."""
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
        values(thetas[i : i + chunk]) for i in range(0, n_samples, chunk)
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


def scipy_lbfgsb_polish(frame, H, a, b, max_evals):
    """The flat-search polish before the numpy L-BFGS: scipy's L-BFGS-B on
    the same kappa / area and gradient, with the same stopping rules and
    budget; returns (value, a, b, evaluations) of the best pair evaluated."""
    h = H.shape[0]
    theta0 = np.concatenate([a, b])
    best = [np.inf, theta0]
    count = [0]

    def fun(theta):
        if count[0] == max_evals:
            raise _BudgetSpent
        count[0] += 1
        f, grad = _pair_value(frame, H, theta)
        if f < best[0]:
            best[:] = f, theta.copy()
        return f, grad

    try:
        scipy.optimize.minimize(
            fun, theta0, jac=True, method="L-BFGS-B",
            options={"maxfun": max_evals, "maxiter": max_evals,
                     "ftol": 1e-15, "gtol": 1e-13},
        )
    except _BudgetSpent:
        pass
    f, theta = best
    a, b = theta[:h], theta[h:]
    return f, a / np.linalg.norm(a), b / np.linalg.norm(b), count[0]


# The flat-plane criteria with matrix-model brackets: every hypothesis
# bracket, every candidate [Y, P(Y)] and every [P(X), Y] goes through
# AlgebraElement matrices, with max-abs matrix residuals.  The production
# criteria run on coordinate rows and the structure constants.

def matrix_check_N1(
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


def matrix_check_N2(
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
    orthonormal basis of the intersection plus 20 random unit combinations,
    for [Y, P(Y)] in W2, and takes any horizontal X in W1.
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


def matrix_check_N3(
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


def scipy_exp_map(a):
    """exp(a) by scipy's Pade scaling and squaring."""
    return scipy.linalg.expm(np.asarray(a.mat))


def scipy_span_coords(dec, elements, tol=1e-12):
    """Orthonormal coordinate rows spanning `elements`, by scipy's orth."""
    rows = np.asarray([dec.to_coords(e) for e in elements])
    return scipy.linalg.orth(rows.T, rcond=tol).T


def scipy_horizontal_coords(frame):
    """Coordinate rows spanning the metric-orthogonal complement of the
    vertical space at a frame, by scipy's null_space."""
    return scipy.linalg.null_space(frame.vert_coords @ frame.P.mat).T
