"""Independent oracles used by the tests.

The two action constructors give the trivial action and one acting by
translations on a single side.  The element checkers test the defining
identities of algebra and group elements (skew-hermitian or real skew,
traceless on su, quaternionic on sp, unitary, determinant one).  The
curvature oracle evaluates <R(X,Y)Y, X> from the Levi-Civita connection
assembled via the Koszul formula for left-invariant fields, which shares
no code path with the production four-term expression.  The matrix oracles evaluate the
production formulas with matrix-model brackets instead of the
structure-constant kernel.  The reference root decomposition is the
earlier per-family construction (each Cartan, root functional and root
matrix written out by hand).  The determinantal oracle reads invariant
factors off gcds of minors, with no Smith form.  The exact oracles are
the earlier forms of the freeness checker (one full Smith form per
symmetry, no pruning), of the Hermite form (sort-and-subtract column
reduction), of the echelon kernel and the canonical key's image loop
(a remainder test and a division per column; the images paired through
numpy), of lattice equivalence (one membership table over all
maps of the catalog's parity model), of the two-torus
scan's pair classing (one Hermite form per pair, looked up among the reference's
orbit of Hermite forms), of the Eschenburg and Bazaikin enumerations
(a sweep of every raw tuple, deduplicated by canonical form), of the
numeric flat-plane search (random phase plus Nelder-Mead descents), of
its quotient forms (d x d operators per call, before the per-point
horizontal kernel) and alternation step (a projector and a shift instead
of a deflated basis), and of the flat-plane criteria N1/N2/N3 (matrix
brackets per candidate).  The reference point frame is the frame as built
per call before the one-slot cache (eigvalsh and inv).  The
twin-ordered permutations, which bound the exact walk, come from a filter
over every permutation.  The scipy oracles are the earlier forms of the
exponential (Pade scaling and squaring), of the orthonormal span, of the
horizontal null space and of the flat-search polish (L-BFGS-B).
"""

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.optimize

from biq.algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    AlgebraError,
    GroupElement,
    GroupFamily,
    Root,
    RootDecomposition,
    Subspace,
    _real_rows,
    _sym_i,
    adjoint,
    bracket,
    inner_q,
    quaternion_block,
    skew_unit,
    torus_element,
    zero,
)
from biq.biquotient import BiquotientAction, PlaneReport, PointFrame, quotient_sectional
from biq.curvature import FLAT_THRESHOLD
from biq.detectors import (
    RESIDUAL_TOL,
    FlatCertificate,
    _BudgetSpent,
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
    bazaikin_free,
    conjugacy_symmetries,
    eschenburg_free,
    eschenburg_positive_flag,
)
from biq.catalog import (
    BazaikinRecord,
    EschenburgRecord,
    _annihilator,
    _images_in,
    _side_images,
    _weight_columns,
    bazaikin_canonical,
    eschenburg_canonical,
)
from biq.intlattice import (
    _xgcd,
    hnf_columns,
    invariant_factors,
    kernel_generators,
    saturate_columns,
)
from biq.metric import L_tensor, MetricOperator, apply_P


# ---------------------------------------------------------------------------
# actions: U trivial, or acting on one side only
# ---------------------------------------------------------------------------

def trivial_action(fam: GroupFamily) -> BiquotientAction:
    return BiquotientAction(group=fam, u_basis=())


def one_sided_action(fam, generators, side: str = "right") -> BiquotientAction:
    """U acting by left translations only or right translations only."""
    z = zero(fam)
    if side == "right":
        pairs = tuple((z, x) for x in generators)
    elif side == "left":
        pairs = tuple((x, z) for x in generators)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return BiquotientAction(group=fam, u_basis=pairs)


class ReferenceFrame(NamedTuple):
    ad_left: np.ndarray
    right: np.ndarray
    vert_coords: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray | None


def reference_frame(act, g, P) -> ReferenceFrame:
    """PointFrame.at before it kept one frame per point: the generator
    matrices stacked on every call, freeness from eigvalsh and the inverse
    from inv."""
    dec = act.dec()
    size = act.group.matrix_size
    pairs = np.array(
        [(xl.mat, xr.mat) for xl, xr in act.u_basis], dtype=complex
    ).reshape(-1, 2, size, size)
    pairs[:, 0] = g.mat.conj().T @ pairs[:, 0] @ g.mat
    rows = dec.coords_rows(pairs)
    ad_left, right = rows[:, 0], rows[:, 1]
    vc = ad_left - right
    gram = vc @ P.mat @ vc.T
    gram_inv = None
    eigs = np.linalg.eigvalsh(gram)
    if eigs.min(initial=np.inf) > 1e-12 * max(eigs.max(initial=0.0), 1.0):
        gram_inv = np.linalg.inv(gram)
    return ReferenceFrame(ad_left, right, vc, gram, gram_inv)


# ---------------------------------------------------------------------------
# element checkers
# ---------------------------------------------------------------------------

def _symplectic_j(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def check_algebra_element(x: AlgebraElement, tol: float = DEFAULT_TOL):
    """Raise AlgebraError unless x satisfies its family's defining identities."""
    m = x.mat
    size = x.family.matrix_size
    if m.shape != (size, size):
        raise AlgebraError(f"expected {size}x{size} matrix for {x.family}")
    scale = max(1.0, float(np.abs(m).max(initial=0.0)))
    if x.family.name == "SO":
        if np.abs(m.imag).max(initial=0.0) > tol * scale:
            raise AlgebraError("so(m) elements must be real")
        if np.abs(m + m.T).max() > tol * scale:
            raise AlgebraError("so(m) elements must be skew-symmetric")
        return
    if np.abs(m + m.conj().T).max() > tol * scale:
        raise AlgebraError("element must be skew-hermitian")
    if x.family.name == "SU" and abs(np.trace(m)) > tol * scale * size:
        raise AlgebraError("su(n) elements must be traceless")
    if x.family.name == "Sp":
        j = _symplectic_j(x.family.n)
        if np.abs(j @ m.conj() - m @ j).max() > tol * scale:
            raise AlgebraError("sp(n) element violates the quaternionic structure")


def check_group_element(g: GroupElement, tol: float = DEFAULT_TOL):
    """Raise AlgebraError unless g satisfies its family's defining identities."""
    m = g.mat
    size = g.family.matrix_size
    if m.shape != (size, size):
        raise AlgebraError(f"expected {size}x{size} matrix for {g.family}")
    if np.abs(m @ m.conj().T - np.eye(size)).max() > tol:
        raise AlgebraError("group element is not unitary")
    if g.family.name == "SO":
        if np.abs(m.imag).max() > tol:
            raise AlgebraError("SO(m) elements must be real")
        if abs(np.linalg.det(m.real) - 1) > tol * size:
            raise AlgebraError("SO(m) elements must have determinant 1")
    if g.family.name == "SU" and abs(np.linalg.det(m) - 1) > tol * size:
        raise AlgebraError("SU(n) elements must have determinant 1")
    if g.family.name == "Sp":
        j = _symplectic_j(g.family.n)
        if np.abs(j @ m.conj() - m @ j).max() > tol:
            raise AlgebraError("Sp(n) element violates the quaternionic structure")


def earlier_root_decomposition(fam: GroupFamily) -> RootDecomposition:
    """algebra's root decomposition as written before one torus_element
    built every Cartan and one loop every A-type pair: each family's
    Cartan, root functionals and root matrices by hand."""
    name, n = fam.name, fam.n
    cartan = []
    roots = []
    size = fam.matrix_size

    if name == "SU":
        # orthonormalize diag(i a) with sum(a) = 0 under Q = (1/2) a.a'
        vecs = []
        for k in range(n - 1):
            a = np.zeros(n)
            a[k], a[k + 1] = 1.0, -1.0
            for v in vecs:
                a -= 0.5 * np.dot(a, v) * v
            a /= np.sqrt(0.5 * np.dot(a, a))
            vecs.append(a)
            cartan.append(AlgebraElement(fam, np.diag(1j * a)))
        for p in range(n):
            for q in range(p + 1, n):
                vec = tuple(
                    1 if t == q else (-1 if t == p else 0) for t in range(n)
                )
                x = AlgebraElement(fam, skew_unit(n, p, q))
                y = AlgebraElement(fam, _sym_i(n, p, q))
                roots.append(Root(vec, x, y))

    elif name == "Sp":
        for k in range(n):
            a = np.zeros(n)
            a[k] = 1.0
            cartan.append(AlgebraElement(fam, np.diag(np.concatenate([1j * a, -1j * a]))))
        inv = 1.0 / np.sqrt(2.0)
        for p in range(n):
            for q in range(p + 1, n):
                vec = tuple(1 if t == q else (-1 if t == p else 0) for t in range(n))
                x = AlgebraElement(fam, inv * quaternion_block(skew_unit(n, p, q), np.zeros((n, n))))
                y = AlgebraElement(fam, inv * quaternion_block(_sym_i(n, p, q), np.zeros((n, n))))
                roots.append(Root(vec, x, y))
        for p in range(n):
            for q in range(p, n):
                # C-type roots a_p + a_q (p < q) and 2 a_p (p == q)
                vec = tuple(
                    2 if (t == p and p == q) else (1 if t in (p, q) else 0)
                    for t in range(n)
                )
                c0 = np.zeros((n, n), dtype=complex)
                c0[p, q] = 1.0
                c0[q, p] = 1.0
                scale = 1.0 if p == q else inv
                x = AlgebraElement(fam, scale * quaternion_block(np.zeros((n, n)), c0))
                y = AlgebraElement(fam, scale * quaternion_block(np.zeros((n, n)), 1j * c0))
                roots.append(Root(vec, x, y))

    else:  # SO
        rank = fam.rank
        for k in range(rank):
            a = np.zeros(rank)
            a[k] = 1.0
            cartan.append(torus_element(fam, a))
        inv = 1.0 / np.sqrt(2.0)
        for p in range(rank):
            for q in range(p + 1, rank):
                up, upp = 2 * p, 2 * p + 1
                vq, vqq = 2 * q, 2 * q + 1
                m1 = skew_unit(size, up, vq)
                m2 = skew_unit(size, up, vqq)
                m3 = skew_unit(size, upp, vq)
                m4 = skew_unit(size, upp, vqq)
                vec_diff = tuple(1 if t == q else (-1 if t == p else 0) for t in range(rank))
                roots.append(
                    Root(
                        vec_diff,
                        AlgebraElement(fam, inv * (m1 + m4)),
                        AlgebraElement(fam, inv * (m3 - m2)),
                    )
                )
                vec_sum = tuple(1 if t in (p, q) else 0 for t in range(rank))
                roots.append(
                    Root(
                        vec_sum,
                        AlgebraElement(fam, inv * (m1 - m4)),
                        AlgebraElement(fam, -inv * (m2 + m3)),
                    )
                )
        if n % 2 == 1:
            w = size - 1
            for p in range(rank):
                vec = tuple(1 if t == p else 0 for t in range(rank))
                x = AlgebraElement(fam, skew_unit(size, 2 * p + 1, w))
                y = AlgebraElement(fam, skew_unit(size, 2 * p, w))
                roots.append(Root(vec, x, y))

    return RootDecomposition(
        family=fam,
        cartan=tuple(cartan),
        roots=tuple(roots),
        _basis_flat=_real_rows(
            [e.mat for e in cartan + [e for r in roots for e in (r.x, r.y)]]
        ),
    )


def earlier_structure_constants(dec: RootDecomposition) -> np.ndarray:
    """The structure constants of `dec`'s basis by the library's formula:
    C[i, j*d + k] is coordinate k of [B_i, B_j]."""
    mats = np.array([e.mat for e in dec.basis])
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    brackets = (prod - prod.transpose(1, 0, 2, 3)).reshape(-1, *mats.shape[1:])
    return dec.coords_rows(brackets).reshape(dec.dim, dec.dim * dec.dim)


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
    term2 = -0.75 * float((P.mat @ c_xy) @ c_xy)

    b_xy, b_xx, b_yy = (dec.to_coords(matrix_b_tensor(P, u, v))
                        for u, v in ((x, y), (x, x), (y, y)))
    term3 = float(b_xy @ (P.mat_inv @ b_xy))
    term4 = -float(b_xx @ (P.mat_inv @ b_yy))
    return term1 + term2 + term3 + term4


def matrix_z_squared(act, g, P, x, y):
    """z^2 from the fusing tensor L(x, y) and the generators on matrices:
    c_j = <Ad_{g^{-1}} X_L, L> - <X_R, [x, y]>, z^2 = c N^{-1} c with N
    the Gram matrix of the vertical generators."""
    dec = P.dec
    ginv = g.inverse()
    p_ell = P.mat @ dec.to_coords(L_tensor(P, x, y))
    p_xy = P.mat @ dec.to_coords(bracket(x, y))
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


# ---------------------------------------------------------------------------
# the quotient forms and the alternation step before the horizontal kernel
# ---------------------------------------------------------------------------

class NumeratorForms(NamedTuple):
    """Symmetric forms of the numerator in Y at fixed rows X."""

    forms: np.ndarray  # (r, d, d) M with numerator(X[n], Y) = Y M[n] Y
    p_bracket: np.ndarray  # (r, d, d) P ad_X: Y -> P[X, Y]
    p_fusing: np.ndarray  # (r, d, d) Y -> P L(X, Y)


def numerator_forms(P: MetricOperator, X) -> NumeratorForms:
    """The curvature numerator as a quadratic form in Y for each row of X,
    built as d x d operators (the derivation is in
    PointFrame.horizontal_forms); P A and P A - A P - A' give the kernel's
    p_bracket and p_fusing rows as linear maps of Y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    r, d = X.shape
    pm, pinv = P.mat, P.mat_inv
    PX = X @ pm.T
    C = P.dec.structure_constants
    # column operators, the kernel's row operators transposed: A[n] @ v = [X[n], v]
    A = (X @ C).reshape(r, d, d).transpose(0, 2, 1)
    A1 = (PX @ C).reshape(r, d, d).transpose(0, 2, 1)
    c = np.einsum("nij,nj->ni", A, PX) @ pinv.T
    Ac = (c @ C).reshape(r, d, d).transpose(0, 2, 1)
    AP = A @ pm
    PA = pm @ A
    B = AP - A1
    At = A.transpose(0, 2, 1)
    M = (
        0.5 * At @ (A1 + AP)
        - 0.75 * At @ PA
        + 0.25 * B.transpose(0, 2, 1) @ (pinv @ B)
        - Ac.transpose(0, 2, 1) @ pm
    )
    return NumeratorForms(0.5 * (M + M.transpose(0, 2, 1)), PA, PA - AP - A1)


def quotient_forms(frame: PointFrame, X) -> np.ndarray:
    """(r, d, d) symmetric forms Q with Y Q[n] Y = <R(X[n], Y) Y, X[n]>
    + 3/4 z(X[n], Y)^2 for horizontal Y: the numerator form plus
    3/4 K^T G^{-1} K, symmetrized, where K Y holds the pairings c of
    z_squared."""
    gram_inv = frame._free_gram_inv()
    terms = numerator_forms(frame.P, X)
    K = frame.ad_left @ terms.p_fusing - frame.right @ terms.p_bracket
    Z = K.transpose(0, 2, 1) @ (gram_inv @ K)
    return terms.forms + 0.375 * (Z + Z.transpose(0, 2, 1))


def projector_alternation_step(frame: PointFrame, H, a):
    """The alternation step on full-size forms: the form H Q(a H) H^T is
    projected onto the complement of each unit row a and a is moved above
    its spectrum by a shift, so the least eigenvalue of the h x h matrix
    is the least one on the complement; returns (lambda, b)."""
    F = H @ quotient_forms(frame, a @ H) @ H.T
    proj = np.eye(a.shape[1]) - a[:, :, None] * a[:, None, :]
    shift = 1.0 + np.abs(F).sum(axis=(1, 2))
    F = proj @ F @ proj + shift[:, None, None] * (a[:, :, None] * a[:, None, :])
    w, v = np.linalg.eigh(F)
    b = v[:, :, 0]
    b = b - np.einsum("ij,ij->i", b, a)[:, None] * a
    return w[:, 0], b / np.linalg.norm(b, axis=1)[:, None]


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

def exact_det(mat):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def determinantal_invariant_factors(mat):
    """Invariant factors of an m x k integer matrix from its minors:
    d_1 ... d_i is the gcd of the i x i minors, each an exact determinant.
    Padded with zeros to min(m, k), as the Smith form's diagonal is."""
    m, k = len(mat), len(mat[0])
    factors, prev = [], 1
    for i in range(1, min(m, k) + 1):
        g = math.gcd(*(int(exact_det([[mat[r][c] for c in cols] for r in rows]))
                       for rows in itertools.combinations(range(m), i)
                       for cols in itertools.combinations(range(k), i)))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors + [0] * (min(m, k) - len(factors))


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


def twin_ordered_perms(w: TorusActionWeights) -> np.ndarray:
    """The permutations of the twin-ordered symmetries, one per row, in
    lexicographic order: perm[i] < perm[j] for equal rows i < j of W_L, and
    p placed at an earlier row than p' for equal rows p < p' of W_R.  The
    rules do not touch the signs, so each of these permutations with every
    sign pattern of the family (even ones on SO(2n)) is a twin-ordered
    symmetry.  Filters every permutation."""
    rows = w.n_rows
    perms = np.array(list(itertools.permutations(range(rows))), dtype=np.int8).reshape(-1, rows)
    place = np.argsort(perms, axis=1)  # place[:, p]: the row that takes p
    keep = np.ones(len(perms), dtype=bool)
    for side, order in ((w.w_left, perms), (w.w_right, place)):
        for a, b in itertools.combinations(range(rows), 2):
            if side[a] == side[b]:
                keep &= order[:, a] < order[:, b]
    return perms[keep]


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

    for perm, signs in conjugacy_symmetries(fam):
        sw = _apply_symmetry(w.w_right, perm, signs)
        d_matrix = [
            [w_left[i][j] - sw[i][j] for j in range(w.k)] for i in range(rows)
        ]
        factors = invariant_factors(d_matrix)
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


def earlier_echelon_insert(basis, row):
    """intlattice.echelon_insert before its one-divmod loop: a remainder
    test and then a floor division per nonzero column."""
    basis = list(basis)
    v = list(row)
    for c in range(len(v)):
        x = v[c]
        if x == 0:
            continue
        p = basis[c]
        if p is None:
            basis[c] = tuple(v) if x > 0 else tuple(-y for y in v)
            return tuple(basis)
        y = p[c]
        if x % y == 0:
            q = x // y
            v = [a - q * b for a, b in zip(v, p)]
            continue
        g, s, t = _xgcd(y, x)
        u, w = y // g, x // g
        basis[c] = tuple(s * b + t * a for a, b in zip(v, p))
        v = [u * a - w * b for a, b in zip(v, p)]
    return tuple(basis)


def earlier_echelon_hermite(basis):
    """intlattice.echelon_hermite before it skipped empty slots: every
    pivot reduces the slots above it, re-reading itself per entry."""
    rows = list(basis)
    for c, p in enumerate(rows):
        for i, r in enumerate(rows[:c] if p else ()):
            if r is not None and not 0 <= r[c] < p[c]:
                rows[i] = tuple([a - r[c] // p[c] * b for a, b in zip(r, p)])
    return tuple(rows)


def earlier_hnf_columns(vectors):
    """intlattice.hnf_columns on the earlier kernel."""
    basis = ()
    for v in vectors:
        v = [int(x) for x in v]
        basis = earlier_echelon_insert(basis or (None,) * len(v), v)
    return tuple(r for r in earlier_echelon_hermite(basis) if r is not None)


def earlier_least_image_hnf(cols, fam: GroupFamily):
    """catalog._least_image_hnf before its direct loop: the parity-matched
    (s, t) pairs from numpy, one earlier_hnf_columns per image."""
    left, right, parity = _side_images(np.array(cols), fam)
    left, right = left.tolist(), right.tolist()
    return min(earlier_hnf_columns([a + b for a, b in zip(*pair)])
               for s, t in zip(*np.nonzero(parity[:, None] == parity))
               for pair in ((left[s], right[t]), (right[t], left[s])))


def table_lattice_equivalent(w1: TorusActionWeights, w2: TorusActionWeights) -> bool:
    """catalog.lattice_equivalent by the earlier membership table: one
    (2, |W|, |W|, vectors) boolean array over every map, as the scan
    builds it (catalog._images_in, so on SO(2n) only pairs of equal sign
    parity)."""
    if w1.group != w2.group:
        return False
    annihilator = _annihilator(w1)
    if annihilator.shape != _annihilator(w2).shape:
        return False
    member = _images_in(annihilator, np.array(_weight_columns(w2)), w1.group)
    return bool(member.all(axis=0).any())


def hnf_pair_flags(vecs, pairs, fam, reference: TorusActionWeights):
    """(one_sided, in_orbit) per free pair of the two-torus scan by the
    earlier per-pair classing: the pair's columns, with the scalar circle
    on SU, are one-sided when every column has a trivial left block or
    every one a trivial right block, and lie in the reference's orbit when
    their one Hermite form is among those of the reference lattice's
    symmetry images."""
    n = fam.n
    sym = list(conjugacy_symmetries(fam))

    def image(col, left_sym, right_sym, swap):
        (lp, ls), (rp, rs) = left_sym, right_sym
        left = [ls[i] * col[lp[i]] for i in range(n)]
        right = [rs[i] * col[n + rp[i]] for i in range(n)]
        return tuple(right + left) if swap else tuple(left + right)

    def trivial(block):
        return len(set(block)) == 1 if fam.name == "SU" else not any(block)

    normal = saturate_columns(_weight_columns(reference))
    orbit = {hnf_columns([image(c, left, right, swap) for c in normal])
             for left in sym for right in sym for swap in (False, True)}
    scalar = [(1,) * (2 * n)] if fam.name == "SU" else []
    one_sided, in_orbit = [], []
    for i, j in pairs:
        cols = [tuple(vecs[i].tolist()), tuple(vecs[j].tolist()), *scalar]
        one_sided.append(all(trivial(c[:n]) for c in cols)
                         or all(trivial(c[n:]) for c in cols))
        in_orbit.append(hnf_columns(cols) in orbit)
    return np.array(one_sided, dtype=bool), np.array(in_orbit, dtype=bool)


def sweep_enumerate_eschenburg(bound: int):
    """catalog.enumerate_eschenburg by the earlier sweep: every raw
    parameter tuple, deduplicated by its canonical form."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    vals = range(-bound, bound + 1)
    seen = {}
    for p in itertools.product(vals, repeat=3):
        for q12 in itertools.product(vals, repeat=2):
            q3 = sum(p) - sum(q12)
            if abs(q3) > bound:
                continue
            q = (*q12, q3)
            if all(x == 0 for x in p) and all(x == 0 for x in q):
                continue
            key = eschenburg_canonical(p, q)
            if key in seen:
                continue
            cp, cq = key
            free = eschenburg_free(cp, cq)
            # the printed interval condition is not symmetric in the two
            # sides while the side swap is an equivalence of actions, so
            # the record is flagged when either orientation satisfies it
            positive = free and (
                eschenburg_positive_flag(cp, cq)
                or eschenburg_positive_flag(cq, cp)
            )
            seen[key] = EschenburgRecord(cp, cq, free, positive)
    return [seen[k] for k in sorted(seen)]


def sweep_enumerate_bazaikin(bound: int):
    """catalog.enumerate_bazaikin by the earlier sweep: every raw odd
    5-tuple, deduplicated by its canonical form."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    vals = [x for x in range(-bound, bound + 1) if x % 2 != 0]
    seen = {}
    for p in itertools.product(vals, repeat=5):
        key = bazaikin_canonical(p)
        if key in seen:
            continue
        seen[key] = BazaikinRecord(key, bazaikin_free(key))
    return [seen[k] for k in sorted(seen)]


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

    def values(thetas):
        """sec_quotient of the plane of each row of thetas (inf when the
        row does not span a plane)."""
        c = thetas.reshape(-1, h) @ hor.coords
        c1, c2, ok = frame.orthonormal(c[0::2], c[1::2])
        sec_g, oneill = frame.curvature_rows(c1, c2)
        return np.where(ok, sec_g + oneill, np.inf)

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
        act, g, P, dec.from_coords(c1), dec.from_coords(c2)
    )
    cert = "numeric" if abs(rep.sec_quotient) < FLAT_THRESHOLD else "none"
    return PlaneReport(
        x=rep.x, y=rep.y, sec_g=rep.sec_g,
        oneill_term=rep.oneill_term, sec_quotient=rep.sec_quotient,
        certificate=cert,
    )


def scipy_lbfgsb_polish(forms, a, b, max_evals):
    """The flat-search polish before the numpy L-BFGS: scipy's L-BFGS-B on
    the same kappa / area and gradient, with the same stopping rules and
    budget; returns (value, a, b, evaluations) of the best pair evaluated."""
    h = a.size
    theta0 = np.concatenate([a, b])
    best = [np.inf, theta0]
    count = [0]

    def fun(theta):
        if count[0] == max_evals:
            raise _BudgetSpent
        count[0] += 1
        f, grad = _pair_value(forms, theta)
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
    slc = frame.slice(a_sub.coords)
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
    return FlatCertificate("N1", x, y, conds)


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
    slc1 = frame.slice(w1.coords)
    slc2 = frame.slice(w2.coords)
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
            return FlatCertificate("N2", x, y, conds)
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
    ur_res = 0.0
    for _, xr in act.u_basis:
        c = dec.to_coords(xr)
        ur_res = max(ur_res, float(np.abs(v_sub.coords @ c).max()))
    if ur_res > RESIDUAL_TOL:
        _record(diagnostics, "hypothesis",
                f"eigenspace is not orthogonal to the right generators ({ur_res:.2e})")
        return None

    frame = PointFrame.at(act, g, P)
    slc_k = frame.slice(k_alg.coords)
    slc_v = frame.slice(v_sub.coords)
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
            return FlatCertificate("N3", x, y, conds)
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
