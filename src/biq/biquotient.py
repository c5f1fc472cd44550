"""Two-sided subgroup actions on a compact group and their quotient curvature.

A subgroup U of G x G acts by (u_L, u_R) . g = u_L g u_R^{-1}.  An action
(`BiquotientAction`) is its group and its Lie-algebra generator pairs
(X_L, X_R), nothing more.  To check the freeness of its maximal torus, the
caller passes that torus's integer weights to freeness.is_free_exact
(`from_torus_weights` builds the torus action from the same weights).
When the action is free and the metric is invariant under the right
projection of U, the quotient carries a metric and

    sec_quotient(x, y) = sec_G(x, y) + 3/4 ||[X, Y]^vertical||^2

for orthonormal horizontal x, y.  Working in the left-translated frame,
the vertical space at g is spanned by Ad_{g^{-1}} X_L - X_R over a basis
(X_L, X_R) of the Lie algebra of U, and the vertical part of the bracket
of horizontal extensions has norm

    z(a, b; g) = max_{0 != X in u} |<Ad_{g^{-1}} X_L, L(a,b)> - <X_R, [a,b]>|
                 / |X*(g)|,

a generalized Rayleigh quotient computed in closed form from the Gram
matrix of the vertical generators (no iterative search).

`PointFrame.at` caches everything that depends only on the point: the
coordinate rows A of Ad_{g^{-1}} X_L and R of X_R, the vertical rows
A - R, their Gram matrix G and its inverse, once per (action, point,
metric), keyed by identity (sound, as `PointFrame` says): a criterion
and the re-evaluation of its certificate share one frame.  For a
metric-orthonormal plane, z^2 = c G^{-1} c with
c = A P L(x, y) - R P [x, y], where both P-rows come out of the
curvature kernel (`curvature.plane_terms`) that also gives sec_G, so one
kernel call evaluates the quotient curvature of a whole batch of planes
(`PointFrame.curvature_rows`).  Since c is linear in each argument, the
quotient numerator is a quadratic form in y for fixed x as well;
`PointFrame.horizontal_forms` builds once per point the kernel that
gives these forms in P-orthonormal horizontal rows.

`PointFrame` alone decides what is horizontal and what is a plane:

- `slice` (and `horizontal`, the slice of the whole algebra) counts a
  singular value of the vertical pairings as zero at or below 1e-10
  times the largest vertical row's metric size;
- `checked` accepts a vector whose pairings are within HORIZONTAL_TOL
  times its own norm, and projects it onto the horizontal space;
- `orthonormal` accepts a pair of Gram area > PLANE_AREA_RTOL |a|^2 |b|^2.

Every method that needs G^{-1} raises NonFreePointError where the action
is not free.  `quotient_sectional` is the checked single-plane entry point;
`horizontal_space` and `z_term` are one-call forms of a frame's
`horizontal` and `z_squared`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraError,
    GroupElement,
    GroupFamily,
    RootDecomposition,
    Subspace,
    quaternion_diag,
    QUATERNION_UNITS,
    root_decomposition,
    skew_unit,
    torus_element,
    zero,
)
from .curvature import DegeneratePlaneError, PlaneTerms, plane_terms
from .freeness import TorusActionWeights
from .metric import MetricOperator

HORIZONTAL_TOL = 1e-9
PLANE_AREA_RTOL = 1e-12
# a floor that keeps the degenerate rows of PointFrame.orthonormal finite
_TINY = np.finfo(float).tiny


class NonFreePointError(ValueError):
    """The action field degenerates at this point (Gram matrix singular)."""


class NonHorizontalError(ValueError):
    """Input vector is not horizontal at the given point (beyond tolerance)."""


@dataclass(frozen=True)
class BiquotientAction:
    """Subgroup U of G x G given by its Lie-algebra generator pairs and
    nothing else.  The freeness of U's maximal torus is decided by passing
    that torus's integer weights to freeness.is_free_exact."""

    group: GroupFamily
    u_basis: tuple  # of (AlgebraElement, AlgebraElement) pairs
    _left: np.ndarray = field(init=False, repr=False, compare=False)  # X_L stack
    _right_rows: np.ndarray = field(init=False, repr=False, compare=False)  # X_R coords

    def __post_init__(self):
        if any(x.family != self.group for pair in self.u_basis for x in pair):
            raise AlgebraError("generator pair from the wrong algebra")
        size = self.group.matrix_size
        pairs = np.array([(xl.mat, xr.mat) for xl, xr in self.u_basis],
                         dtype=complex).reshape(-1, 2, size, size)
        rows = root_decomposition(self.group).coords_rows(pairs)
        if len(rows) and np.linalg.matrix_rank(rows.reshape(len(rows), -1)) < len(rows):
            raise AlgebraError("u_basis must be linearly independent in g + g")
        for name, arr in (("_left", pairs[:, 0].copy()), ("_right_rows", rows[:, 1].copy())):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim_u(self) -> int:
        return len(self.u_basis)

    def dec(self) -> RootDecomposition:
        return root_decomposition(self.group)


def from_torus_weights(w: TorusActionWeights) -> BiquotientAction:
    """Torus action from integer weight matrices (one circle per column).

    SU weight columns may have a nonzero (but equal on both sides) sum:
    the pair then lives in u(n) x u(n), and the common scalar part is
    dropped from both generators, which leaves the action on the
    determinant-one group unchanged.
    """
    fam = w.group
    pairs = []
    wl, wr = np.array(w.w_left, dtype=float), np.array(w.w_right, dtype=float)
    for j in range(w.k):
        cl, cr = wl[:, j], wr[:, j]
        if fam.name == "SU":
            # equal column sums are enforced by the weights invariant
            cl = cl - cl.mean()
            cr = cr - cr.mean()
        xl = torus_element(fam, cl)
        xr = torus_element(fam, cr)
        pairs.append((xl, xr))
    return BiquotientAction(group=fam, u_basis=tuple(pairs))


def gromoll_meyer_action() -> BiquotientAction:
    """The Sp(1) action (diag(q,q), diag(q,1)) on Sp(2)."""
    fam = GroupFamily("Sp", 2)
    zero_q = (0.0, 0.0)
    pairs = tuple((quaternion_diag(fam, uq, uq), quaternion_diag(fam, uq, zero_q))
                  for uq in QUATERNION_UNITS)
    return BiquotientAction(group=fam, u_basis=pairs)


def unit_tangent_flow_action(n: int) -> BiquotientAction:
    """Diagonal circle (geodesic flow) on the left of SO(2n+1), block
    SO(2n-1) on the right; the quotient of the unit tangent bundle of the
    n-sphere by its geodesic flow."""
    fam = GroupFamily("SO", 2 * n + 1)
    size = fam.matrix_size
    z_delta = torus_element(fam, np.ones(n))
    pairs = [(z_delta, zero(fam))]
    for i in range(2 * n - 1):
        for j in range(i + 1, 2 * n - 1):
            pairs.append((zero(fam), AlgebraElement(fam, skew_unit(size, i, j))))
    return BiquotientAction(group=fam, u_basis=tuple(pairs))


# ---------------------------------------------------------------------------
# vertical / horizontal geometry at a point
# ---------------------------------------------------------------------------

def horizontal_space(act: BiquotientAction, g: GroupElement, P: MetricOperator) -> Subspace:
    """Metric-orthogonal complement of the vertical space at g."""
    return PointFrame.at(act, g, P).horizontal()


@dataclass(frozen=True)
class PointFrame:
    """Cached vertical data for one (action, point, metric) triple.

    ad_left and right hold the coordinate rows of Ad_{g^{-1}} X_L and X_R
    per generator pair; their difference spans the vertical space, and
    its metric Gram matrix is positive definite exactly when the action is
    free at g.  Every array is read-only.

    One frame per triple: `at` returns the frame it built last when handed
    the same three objects again (`is`, not equality).  Sound, since the
    point's matrix, P, P^{-1} and every generator matrix are read-only from
    construction (a view is copied first, since its base stays writable),
    and the slot holds the three, so no id is reused while cached.  One
    slot suffices: every caller works one point at a time.

    U = {e} needs no branch: its rows are (0, dim) arrays, its Gram matrix
    and inverse are (0, 0), so the horizontal space is all of g and the
    O'Neill term is 0.
    """

    act: BiquotientAction
    g: GroupElement
    P: MetricOperator
    ad_left: np.ndarray  # (dim_u, dim)
    right: np.ndarray  # (dim_u, dim)
    vert_coords: np.ndarray  # (dim_u, dim) raw generator coordinates
    vert_p: np.ndarray  # vert_coords @ P.mat
    vert_scale: float  # largest row norm of vert_p, floored at 1e-300
    gram: np.ndarray
    gram_inv: np.ndarray | None

    _last: ClassVar[PointFrame | None] = None

    @classmethod
    def at(cls, act, g, P):
        last = cls._last  # one read, so a racing thread can only cause a miss
        if last is not None and last.act is act and last.g is g and last.P is P:
            return last
        if P.dec.family != act.group:
            raise AlgebraError(f"a metric on {P.dec.family} for an action on {act.group}")
        ad_left = act.dec().coords_rows(g.mat.conj().T @ act._left @ g.mat)
        vc = ad_left - act._right_rows
        vp = vc @ P.mat
        gram = vp @ vc.T
        # freeness by the least eigenvalue; the same eigh gives the inverse
        w, v = np.linalg.eigh(gram)
        gram_inv = None
        if w.min(initial=np.inf) > 1e-12 * max(w.max(initial=0.0), 1.0):
            gram_inv = (v / w) @ v.T
        for arr in (ad_left, vc, vp, gram, gram_inv):
            if arr is not None:
                arr.setflags(write=False)
        scale = max(float(np.linalg.norm(vp, axis=1).max(initial=0.0)), 1e-300)
        frame = cls(act=act, g=g, P=P, ad_left=ad_left, right=act._right_rows,
                    vert_coords=vc, vert_p=vp, vert_scale=scale, gram=gram,
                    gram_inv=gram_inv)
        cls._last = frame
        return frame

    @property
    def is_free_point(self) -> bool:
        return self.gram_inv is not None

    def _free_gram_inv(self) -> np.ndarray:
        if self.gram_inv is None:
            raise NonFreePointError("action is not free at this point")
        return self.gram_inv

    def slice(self, coords) -> np.ndarray:
        """Orthonormal rows spanning the horizontal part of the span of the
        orthonormal rows coords; the rank cut is absolute, since a
        horizontal subspace pairs to noise that must count as zero."""
        coords = np.asarray(coords)
        _, s, vt = np.linalg.svd(self.vert_p @ coords.T)
        return vt[np.count_nonzero(s > 1e-10 * self.vert_scale):] @ coords

    def horizontal(self) -> Subspace:
        """Metric-orthogonal complement of the vertical space."""
        dec = self.act.dec()
        return Subspace(dec, self.slice(np.eye(dec.dim)), label="horizontal")

    def horizontal_residual(self, coords) -> float:
        return float(np.linalg.norm(self.vert_p @ np.asarray(coords)))

    def checked(self, a: AlgebraElement) -> np.ndarray:
        """Coordinates of a, metric-orthogonally projected onto the
        horizontal space; a must be horizontal within HORIZONTAL_TOL times
        its own norm."""
        gram_inv = self._free_gram_inv()  # a non-free point is reported first
        c = self.act.dec().to_coords(a)
        pairings = self.vert_p @ c
        if float(np.linalg.norm(pairings)) > HORIZONTAL_TOL * max(np.linalg.norm(c), 1e-300):
            raise NonHorizontalError("input vector is not horizontal at g")
        return c - self.vert_coords.T @ (gram_inv @ pairings)

    def orthonormal(self, c1, c2):
        """Metric-orthonormal rows (x, y) spanning span{c1[n], c2[n]} and
        the mask of the rows that span a plane (the degeneracy rule); rows
        outside it are not normalized."""
        pm = self.P.mat
        p2 = c2 @ pm
        aa = np.einsum("ij,ij->i", c1 @ pm, c1)
        x = c1 / np.sqrt(np.maximum(aa, _TINY))[:, None]
        y = c2 - np.einsum("ij,ij->i", p2, x)[:, None] * x
        # |y|^2 = area / |a|^2 once a is normalized
        yy = np.einsum("ij,ij->i", y @ pm, y)
        ok = aa * yy > PLANE_AREA_RTOL * aa * np.einsum("ij,ij->i", p2, c2)
        return x, y / np.sqrt(np.maximum(yy, _TINY))[:, None], ok

    def z_squared(self, terms: PlaneTerms) -> np.ndarray:
        """z^2 = c G^{-1} c per plane, with the pairings
        c = <Ad_{g^{-1}} X_L, L(x, y)> - <X_R, [x, y]> over the generators."""
        c = terms.p_fusing @ self.ad_left.T - terms.p_bracket @ self.right.T
        return np.maximum(np.einsum("ij,ij->i", c @ self._free_gram_inv(), c), 0.0)

    def horizontal_forms(self, H):
        """The quotient forms in P-orthonormal horizontal rows H (h, d): a
        function taking (r, h) rows a to the (r, h, h) symmetric F(a) with
        b F(a) b = <R(X, Y) Y, X> + 3/4 z(X, Y)^2 for X = a H, Y = b H.

        With A = ad_X, A' = ad_{PX} and A_c = ad_c for c = P^{-1}[X, PX] on
        coordinate columns, the numerator is Y^T M Y with

            M = 1/2 A^T (A' + A P) - 3/4 A^T P A
                + 1/4 (A P - A')^T P^{-1} (A P - A') - A_c^T P,

        the last term by ad-invariance of Q, and the pairings of z_squared
        are K Y with K = L [A; A P; A'], L = [V P, -ad_left, -ad_left] for
        the vertical rows V.  So S(a) = [A; A P; A'] H^T is linear in a, and
        all but the last term are S^T W S, W symmetric 3d x 3d: first block
        row [-3/4 P, 1/4 I, 1/4 I], then 1/4 P^{-1} on the diagonal and
        -1/4 P^{-1} off it, plus 3/4 L^T G^{-1} L.  The last term is linear
        in c, quadratic in a, and H_k P [c, H_l] = <c, [H_l, P H_k]> makes it
        two products of a (x) a with one table of [H_i, P H_j]."""
        gram_inv = self._free_gram_inv()
        pm, pinv = self.P.mat, self.P.mat_inv
        h, d = H.shape
        HP = H @ pm
        # row operators of H_i and P H_i: V @ R[i] = [H_i, V]
        C = self.P.dec.structure_constants
        R, RP = (H @ C).reshape(h, d, d), (HP @ C).reshape(h, d, d)
        hp = HP @ R  # hp[i, j] = [H_i, P H_j]
        # S(e_i) as the (3d, h) columns [H_i, H_l], [H_i, P H_l], [P H_i, H_l]
        s_flat = np.concatenate([H @ R, hp, H @ RP], axis=2).transpose(0, 2, 1).reshape(h, -1)
        quarter, q = 0.25 * np.eye(d), 0.25 * pinv
        W = np.block([[-0.75 * pm, quarter, quarter], [quarter, q, -q], [quarter, -q, q]])
        L = np.hstack([self.vert_p, -self.ad_left, -self.ad_left])
        W += 0.75 * L.T @ gram_inv @ L
        c_of_aa, lin_of_c = hp.reshape(h * h, d) @ pinv, hp.transpose(2, 1, 0).reshape(d, h * h)

        def forms(a):
            S = (a @ s_flat).reshape(-1, 3 * d, h)
            lin = ((a[:, :, None] * a[:, None, :]).reshape(-1, h * h) @ c_of_aa) @ lin_of_c
            F = S.transpose(0, 2, 1) @ (W @ S) - lin.reshape(-1, h, h)
            return 0.5 * (F + F.transpose(0, 2, 1))

        return forms

    def curvature_rows(self, cx, cy):
        """(sec_G, O'Neill term) arrays for the planes span{cx[n], cy[n]}
        of metric-orthonormal horizontal coordinate rows; no checks."""
        terms = plane_terms(self.P, cx, cy)
        return terms.numerator, 0.75 * self.z_squared(terms)


def z_term(
    act: BiquotientAction,
    g: GroupElement,
    P: MetricOperator,
    a: AlgebraElement,
    b: AlgebraElement,
) -> float:
    """Norm of the vertical part of the bracket of horizontal extensions of
    a, b at g; requires a, b horizontal and the action free at g."""
    frame = PointFrame.at(act, g, P)
    ca, cb = frame.checked(a), frame.checked(b)
    z2 = frame.z_squared(plane_terms(P, ca[None], cb[None]))
    return float(np.sqrt(z2[0]))


@dataclass(frozen=True)
class PlaneReport:
    """Curvature record for one horizontal 2-plane at one point."""

    x: AlgebraElement
    y: AlgebraElement
    sec_g: float
    oneill_term: float
    sec_quotient: float
    certificate: str = "none"  # numeric | none (numeric_flat_search)


def quotient_sectional(
    act: BiquotientAction,
    g: GroupElement,
    P: MetricOperator,
    a: AlgebraElement,
    b: AlgebraElement,
) -> PlaneReport:
    """Quotient sectional curvature of the horizontal plane span{a, b} at g.

    Inputs within the horizontality tolerance are projected onto the
    horizontal space, then orthonormalized; others are rejected.
    """
    frame = PointFrame.at(act, g, P)
    x, y, ok = frame.orthonormal(frame.checked(a)[None], frame.checked(b)[None])
    if not ok[0]:
        raise DegeneratePlaneError("a and b do not span a 2-plane")
    sec_g, oneill = frame.curvature_rows(x, y)
    sec_g, oneill = float(sec_g[0]), float(oneill[0])
    dec = act.dec()
    return PlaneReport(
        x=dec.from_coords(x[0]), y=dec.from_coords(y[0]), sec_g=sec_g,
        oneill_term=oneill, sec_quotient=sec_g + oneill,
    )
