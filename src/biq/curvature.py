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

The numerator is biquadratic: for fixed X it is a quadratic form Y^T M Y.
The flat-plane search reads these forms, with the quotient's O'Neill term,
in the horizontal rows from one kernel built per point
(`biquotient.PointFrame.horizontal_forms`, which derives M in closed form).
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


def puttmann_numerator(P: MetricOperator, x: AlgebraElement, y: AlgebraElement) -> float:
    """Curvature numerator <R(X,Y)Y, X> for the metric Q(., P .)."""
    dec = P.dec
    terms = plane_terms(P, dec.to_coords(x)[None], dec.to_coords(y)[None])
    return float(terms.numerator[0])
