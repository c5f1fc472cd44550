"""Two-sided subgroup actions on a compact group and their quotient curvature.

A subgroup U of G x G acts by (u_L, u_R) . g = u_L g u_R^{-1}.  When the
action is free and the metric is invariant under the right projection of
U, the quotient carries a metric and

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
A - R, their Gram matrix G and its inverse.  For a metric-orthonormal
plane, z^2 = c G^{-1} c with c = A P L(x, y) - R P [x, y], where both
P-rows come out of the curvature kernel (`curvature.plane_terms`) that
also gives sec_G, so one kernel call evaluates the quotient curvature of
a whole batch of planes (`PointFrame.curvature_rows`).  Since c is
linear in each argument, the quotient numerator is a quadratic form in y
for fixed x as well (`PointFrame.quotient_forms`).
`quotient_sectional` is the checked single-plane entry point;
`horizontal_space` and `z_term` are one-call forms of a frame's
`horizontal` and `z_squared`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import freeness
from .algebra import (
    AlgebraElement,
    AlgebraError,
    GroupElement,
    GroupFamily,
    RootDecomposition,
    Subspace,
    quaternion_block,
    root_decomposition,
    torus_element,
    zero,
)
from .curvature import DegeneratePlaneError, PlaneTerms, numerator_forms, plane_terms
from .metric import MetricOperator

HORIZONTAL_TOL = 1e-9


class NonFreePointError(ValueError):
    """The action field degenerates at this point (Gram matrix singular)."""


class NonHorizontalError(ValueError):
    """Input vector is not horizontal at the given point (beyond tolerance)."""


@dataclass(frozen=True)
class BiquotientAction:
    """Subgroup U of G x G given by Lie-algebra generator pairs.

    torus_weights, when present, are the integer characters of a maximal
    torus of U (equal to U's own characters when U is a torus); they feed
    the exact freeness checker.  mode records the intended freeness notion.
    """

    group: GroupFamily
    u_basis: tuple  # of (AlgebraElement, AlgebraElement) pairs
    torus_weights: "freeness.TorusActionWeights | None" = None
    mode: str = "strict"
    label: str = ""

    def __post_init__(self):
        dec = root_decomposition(self.group)
        rows = []
        for xl, xr in self.u_basis:
            if xl.family != self.group or xr.family != self.group:
                raise AlgebraError("generator pair from the wrong algebra")
            rows.append(np.concatenate([dec.to_coords(xl), dec.to_coords(xr)]))
        if rows and np.linalg.matrix_rank(np.asarray(rows)) < len(rows):
            raise AlgebraError("u_basis must be linearly independent in g + g")

    @property
    def dim_u(self) -> int:
        return len(self.u_basis)

    def dec(self) -> RootDecomposition:
        return root_decomposition(self.group)


def from_torus_weights(w: "freeness.TorusActionWeights", label: str = "") -> BiquotientAction:
    """Torus action from integer weight matrices (one circle per column).

    SU weight columns may have a nonzero (but equal on both sides) sum:
    the pair then lives in u(n) x u(n), and the common scalar part is
    dropped from both generators, which leaves the action on the
    determinant-one group unchanged.
    """
    fam = w.group
    pairs = []
    for j in range(w.k):
        cl = _column(w.w_left, j)
        cr = _column(w.w_right, j)
        if fam.name == "SU":
            # equal column sums are enforced by the weights invariant
            cl = cl - cl.mean()
            cr = cr - cr.mean()
        xl = torus_element(fam, cl)
        xr = torus_element(fam, cr)
        pairs.append((xl, xr))
    return BiquotientAction(
        group=fam, u_basis=tuple(pairs), torus_weights=w, mode=w.mode, label=label
    )


def _column(rows, j):
    return np.array([float(r[j]) for r in rows])


def trivial_action(fam: GroupFamily) -> BiquotientAction:
    return BiquotientAction(group=fam, u_basis=(), label="trivial")


def one_sided_action(fam, generators, side: str = "right", label: str = "") -> BiquotientAction:
    """U acting by left translations only or right translations only."""
    z = zero(fam)
    if side == "right":
        pairs = tuple((z, x) for x in generators)
    elif side == "left":
        pairs = tuple((x, z) for x in generators)
    else:
        raise ValueError("side must be 'left' or 'right'")
    return BiquotientAction(group=fam, u_basis=pairs, label=label or f"one-sided-{side}")


def gromoll_meyer_action() -> BiquotientAction:
    """The Sp(1) action (diag(q,q), diag(q,1)) on Sp(2)."""
    fam = GroupFamily("Sp", 2)
    units = [_imag_unit(m) for m in range(3)]

    def dq(q1, q2):
        b = np.diag([q1[0], q2[0]])
        c = np.diag([q1[1], q2[1]])
        return AlgebraElement(fam, quaternion_block(b, c))

    zero_q = (0.0, 0.0)
    pairs = tuple((dq(uq, uq), dq(uq, zero_q)) for uq in units)
    w = freeness.TorusActionWeights(
        group=fam, k=1, w_left=((1,), (1,)), w_right=((1,), (0,))
    )
    return BiquotientAction(
        group=fam, u_basis=pairs, torus_weights=w, label="gromoll-meyer"
    )


def _imag_unit(m):
    # quaternion units i, j, k as (b, c) components of b + jc
    return [(1j, 0.0), (0.0, 1.0), (0.0, -1j)][m]


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
            m = np.zeros((size, size), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = -1.0
            pairs.append((zero(fam), AlgebraElement(fam, m)))
    w = freeness.TorusActionWeights(
        group=fam,
        k=n,
        w_left=tuple((1,) + (0,) * (n - 1) for _ in range(n)),
        w_right=tuple(
            tuple(1 if j == i + 1 else 0 for j in range(n)) for i in range(n - 1)
        )
        + ((0,) * n,),
    )
    return BiquotientAction(
        group=fam, u_basis=tuple(pairs), torus_weights=w,
        mode="mod-center", label=f"unit-tangent-flow-S{n}",
    )


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
    free at g.

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
    gram: np.ndarray
    gram_inv: np.ndarray | None

    @classmethod
    def at(cls, act, g, P):
        dec = act.dec()
        size = act.group.matrix_size
        # (dim_u, 2, s, s): X_L conjugated by g^{-1} next to X_R, so one
        # flat-basis product gives both coordinate row sets
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
        return cls(act=act, g=g, P=P, ad_left=ad_left, right=right,
                   vert_coords=vc, gram=gram, gram_inv=gram_inv)

    @property
    def is_free_point(self) -> bool:
        return self.gram_inv is not None

    def horizontal(self) -> Subspace:
        """Metric-orthogonal complement of the vertical space."""
        # the null space of the pairings: right singular vectors past the
        # numerical rank, cut at the largest singular value * max(shape) * eps
        pairings = self.vert_coords @ self.P.mat
        _, s, vh = np.linalg.svd(pairings)
        rank = np.count_nonzero(s > s.max(initial=0.0) * max(pairings.shape) * np.finfo(float).eps)
        return Subspace(self.act.dec(), vh[rank:], label="horizontal")

    def horizontal_residual(self, coords) -> float:
        pairings = self.vert_coords @ (self.P.mat @ np.asarray(coords))
        return float(np.linalg.norm(pairings))

    def project_horizontal(self, coords) -> np.ndarray:
        """Metric-orthogonal projection onto the horizontal space."""
        c = np.asarray(coords, dtype=float)
        if self.gram_inv is None:
            raise NonFreePointError("action is not free at this point")
        pairings = self.vert_coords @ (self.P.mat @ c)
        return c - self.vert_coords.T @ (self.gram_inv @ pairings)

    def z_squared(self, terms: PlaneTerms) -> np.ndarray:
        """z^2 = c G^{-1} c per plane, with the pairings
        c = <Ad_{g^{-1}} X_L, L(x, y)> - <X_R, [x, y]> over the generators."""
        if self.gram_inv is None:
            raise NonFreePointError("action is not free at this point")
        c = terms.p_fusing @ self.ad_left.T - terms.p_bracket @ self.right.T
        return np.maximum(np.einsum("ij,ij->i", c @ self.gram_inv, c), 0.0)

    def quotient_forms(self, X) -> np.ndarray:
        """(r, d, d) symmetric forms Q with Y Q[n] Y = <R(X[n], Y) Y, X[n]>
        + 3/4 z(X[n], Y)^2 for horizontal Y: the numerator form plus
        3/4 K^T G^{-1} K, symmetrized, where K Y holds the pairings c of
        z_squared."""
        terms = numerator_forms(self.P, X)
        if self.gram_inv is None:
            raise NonFreePointError("action is not free at this point")
        K = self.ad_left @ terms.p_fusing - self.right @ terms.p_bracket
        Z = K.transpose(0, 2, 1) @ (self.gram_inv @ K)
        return terms.forms + 0.375 * (Z + Z.transpose(0, 2, 1))

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
    frame: PointFrame | None = None,
) -> float:
    """Norm of the vertical part of the bracket of horizontal extensions of
    a, b at g; requires a, b horizontal and the action free at g."""
    frame = frame or PointFrame.at(act, g, P)
    if frame.gram_inv is None:
        raise NonFreePointError("action is not free at this point")
    dec = act.dec()
    ca, cb = dec.to_coords(a), dec.to_coords(b)
    scale = max(np.linalg.norm(ca), np.linalg.norm(cb), 1e-300)
    for c in (ca, cb):
        if frame.horizontal_residual(c) > HORIZONTAL_TOL * scale:
            raise NonHorizontalError("input vector is not horizontal at g")
    z2 = frame.z_squared(plane_terms(P, ca[None], cb[None]))
    return float(np.sqrt(z2[0]))


@dataclass(frozen=True)
class PlaneReport:
    """Curvature record for one horizontal 2-plane at one point."""

    point: GroupElement
    x: AlgebraElement
    y: AlgebraElement
    sec_g: float
    oneill_term: float
    sec_quotient: float
    certificate: str = "none"  # N1 | N2 | N3 | numeric | none

    def to_dict(self):
        return {
            "sec_G": self.sec_g,
            "oneill_term": self.oneill_term,
            "sec_quotient": self.sec_quotient,
            "certificate": self.certificate,
        }


def quotient_sectional(
    act: BiquotientAction,
    g: GroupElement,
    P: MetricOperator,
    a: AlgebraElement,
    b: AlgebraElement,
    frame: PointFrame | None = None,
) -> PlaneReport:
    """Quotient sectional curvature of the horizontal plane span{a, b} at g.

    Inputs within the horizontality tolerance are projected onto the
    horizontal space, then orthonormalized; others are rejected.
    """
    frame = frame or PointFrame.at(act, g, P)
    if not frame.is_free_point:
        raise NonFreePointError("action is not free at this point")
    dec = act.dec()
    ca, cb = dec.to_coords(a), dec.to_coords(b)
    for c in (ca, cb):
        if frame.horizontal_residual(c) > HORIZONTAL_TOL * max(np.linalg.norm(c), 1e-300):
            raise NonHorizontalError("input vector is not horizontal at g")
    ca = frame.project_horizontal(ca)
    cb = frame.project_horizontal(cb)

    # metric orthonormalization of the frame
    pm = P.mat
    na = np.sqrt(ca @ pm @ ca)
    if na <= 0:
        raise DegeneratePlaneError("zero vector")
    cx = ca / na
    bb = cb @ pm @ cb
    cb = cb - (cb @ pm @ cx) * cx
    nb = np.sqrt(cb @ pm @ cb)
    # relative to b's own norm, so the test does not depend on b's scale
    if nb * nb <= 1e-12 * bb:
        raise DegeneratePlaneError("a and b do not span a 2-plane")
    cy = cb / nb

    sec_g, oneill = frame.curvature_rows(cx[None], cy[None])
    sec_g, oneill = float(sec_g[0]), float(oneill[0])
    return PlaneReport(
        point=g, x=dec.from_coords(cx), y=dec.from_coords(cy), sec_g=sec_g,
        oneill_term=oneill, sec_quotient=sec_g + oneill,
    )
