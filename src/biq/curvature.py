"""Sectional curvature of a left-invariant metric on the group.

The curvature numerator <R(X,Y)Y, X> is evaluated by the four-term
expression

    1/2 Q([PX,Y] + [X,PY], [X,Y]) - 3/4 Q(P[X,Y], [X,Y])
        + Q(B(X,Y), P^{-1} B(X,Y)) - Q(B(X,X), P^{-1} B(Y,Y)),

with B(X,Y) = 1/2 ([X,PY] - [PX,Y]).  For the bi-invariant metric this
collapses to Q([X,Y],[X,Y]) / 4.

One kernel, `plane_terms`, does all the work on coordinate rows in the
Q-orthonormal frame of the root decomposition.  The cached structure
constants turn X and Y into the operators ad_X and ad_Y, which give the
five brackets [X,Y], [X,PY], [X,PX], [PX,Y] = -[Y,PX] and [Y,PY]; P and
P^{-1} are plain matrix products, so no matrix-model element is built and
no linear solve occurs.  It takes N planes at once as (N, d) arrays and
holds two (N, d, d) operator arrays, so callers with many planes pass
them in chunks (the flat-plane search uses at most 256 planes per call).
`puttmann_numerator` evaluates one plane of algebra elements; the
normalized curvature is the numerator over the area
<X,X><Y,Y> - <X,Y>^2, and the quotient's single-plane entry point is
`biquotient.quotient_sectional`.

The numerator is biquadratic: for fixed X it is a quadratic form Y^T M Y,
which `numerator_forms` builds in closed form from the same structure
constants.  The flat-plane search minimizes over unit Y with one eigen
solve of such a form instead of one kernel call per plane.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement
from .metric import MetricOperator

# |sectional| below this counts as a flat plane on a unit-area frame.
FLAT_THRESHOLD = 1e-8


class DegeneratePlaneError(ValueError):
    """The two vectors do not span a 2-plane (relative area too small)."""


class PlaneTerms(NamedTuple):
    """Per-plane outputs of the kernel, one entry or row per plane."""

    numerator: np.ndarray  # (N,) <R(X,Y)Y, X>
    p_bracket: np.ndarray  # (N, d) coordinates of P[X, Y]
    p_fusing: np.ndarray  # (N, d) coordinates of P L(X, Y), see metric.L_tensor


def plane_terms(P: MetricOperator, X, Y) -> PlaneTerms:
    """Curvature numerator and the fusing-tensor rows of the planes
    span{X[n], Y[n]}, for (N, d) coordinate arrays X and Y.

    P L(X, Y) = P[X, Y] - [X, PY] - [PX, Y] reuses the numerator's
    brackets; the quotient's O'Neill term pairs it with the vertical
    generators.
    """
    XY = np.concatenate([X, Y]).astype(float, copy=False)
    n2, d = XY.shape
    n = n2 // 2
    pm, pinv = P.mat, P.mat_inv
    PXY = XY @ pm.T
    # ad_X then ad_Y as (2N, d, d) row operators: V @ ad[n] = [XY[n], V]
    ad = (XY @ P.dec.structure_constants).reshape(n2, d, d)
    X, Y = XY[:n], XY[n:]
    PX, PY = PXY[:n], PXY[n:]
    xy, xpy, xpx = np.matmul(
        np.concatenate([Y, PY, PX], axis=1).reshape(n, 3, d), ad[:n]
    ).transpose(1, 0, 2)
    ypx, ypy = np.matmul(
        np.concatenate([PX, PY], axis=1).reshape(n, 2, d), ad[n:]
    ).transpose(1, 0, 2)

    # [PX, Y] = -[Y, PX]
    p_xy = xy @ pm.T
    b_xy = 0.5 * (xpy + ypx)
    numerator = (
        np.einsum("ij,ij->i", xy, 0.5 * (xpy - ypx) - 0.75 * p_xy)
        + np.einsum("ij,ij->i", b_xy @ pinv.T, b_xy)
        - np.einsum("ij,ij->i", xpx, ypy @ pinv.T)
    )
    return PlaneTerms(numerator, p_xy, p_xy - xpy + ypx)


class NumeratorForms(NamedTuple):
    """Symmetric forms of the numerator in Y at fixed rows X."""

    forms: np.ndarray  # (r, d, d) M with numerator(X[n], Y) = Y M[n] Y
    p_bracket: np.ndarray  # (r, d, d) P ad_X: Y -> P[X, Y]
    p_fusing: np.ndarray  # (r, d, d) Y -> P L(X, Y)


def numerator_forms(P: MetricOperator, X) -> NumeratorForms:
    """The curvature numerator as a quadratic form in Y for each row of X.

    With A = ad_X, A' = ad_{PX} and A_c = ad_c for c = P^{-1}[X, PX],
    acting on coordinate columns, the four terms of the numerator read
    Y^T M Y with

        M = 1/2 A^T (A' + A P) - 3/4 A^T P A
            + 1/4 (A P - A')^T P^{-1} (A P - A') - A_c^T P,

    the last one by ad-invariance of Q; M is returned symmetrized.  The
    operators P A and P A - A P - A' give the kernel's p_bracket and
    p_fusing rows as linear maps of Y, for the quotient's O'Neill term.
    """
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


def puttmann_numerator(P: MetricOperator, x: AlgebraElement, y: AlgebraElement) -> float:
    """Curvature numerator <R(X,Y)Y, X> for the metric Q(., P .)."""
    dec = P.dec
    terms = plane_terms(P, dec.to_coords(x)[None], dec.to_coords(y)[None])
    return float(terms.numerator[0])
