"""Independent oracles used by the tests.

The curvature oracle evaluates <R(X,Y)Y, X> from the Levi-Civita
connection assembled via the Koszul formula for left-invariant fields,
which shares no code path with the production four-term expression.
The matrix oracles evaluate the production formulas with matrix-model
brackets instead of the structure-constant kernel.  The exact oracles are
the earlier forms of the freeness checker (one full Smith form per
symmetry, no pruning), of the saturation (the kernel of the kernel) and of
the numeric flat-plane search (random phase plus Nelder-Mead descents).
"""

import math

import numpy as np
import scipy.optimize

from biq.algebra import adjoint, bracket, inner_q
from biq.biquotient import PlaneReport, PointFrame, quotient_sectional
from biq.curvature import FLAT_THRESHOLD
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
from biq.metric import L_tensor, apply_P


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

    b_xy = 0.5 * (dec.to_coords(bracket(x, py)) - dec.to_coords(bracket(px, y)))
    b_xx = dec.to_coords(bracket(x, px))
    b_yy = dec.to_coords(bracket(y, py))
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
