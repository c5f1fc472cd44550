"""Independent oracles used by the tests.

The curvature oracle evaluates <R(X,Y)Y, X> from the Levi-Civita
connection assembled via the Koszul formula for left-invariant fields,
which shares no code path with the production four-term expression.
The matrix oracles evaluate the production formulas with matrix-model
brackets instead of the structure-constant kernel.
"""

import numpy as np

from biq.algebra import adjoint, bracket, inner_q
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
