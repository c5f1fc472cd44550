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
`puttmann_numerator` and `sectional` are the single-plane entry points on
algebra elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement, bracket
from .metric import MetricOperator, apply_P

# Planes whose unit-scale Gram determinant falls below this are rejected.
DEGENERATE_AREA_RTOL = 1e-12

# |sectional| below this counts as a flat plane on a unit-area frame.
FLAT_THRESHOLD = 1e-8


class DegeneratePlaneError(ValueError):
    """The two vectors do not span a 2-plane (relative area too small)."""


@dataclass(frozen=True)
class CurvatureValue:
    """Unnormalized and normalized curvature of one tangent 2-plane."""

    numerator: float
    area: float
    sectional: float

    def is_flat(self, threshold: float = FLAT_THRESHOLD) -> bool:
        return abs(self.sectional) < threshold


class PlaneTerms(NamedTuple):
    """Per-plane outputs of the kernel, one entry or row per plane."""

    numerator: np.ndarray  # (N,) <R(X,Y)Y, X>
    p_bracket: np.ndarray  # (N, d) coordinates of P[X, Y]
    p_fusing: np.ndarray  # (N, d) coordinates of P L(X, Y), see metric.L_tensor


def B_tensor(P: MetricOperator, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """B(X,Y) = 1/2 ([X, PY] - [PX, Y]); symmetric in X, Y and zero for P = id."""
    return 0.5 * (bracket(x, apply_P(P, y)) - bracket(apply_P(P, x), y))


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


def sectional(P: MetricOperator, x: AlgebraElement, y: AlgebraElement) -> CurvatureValue:
    """Sectional curvature of span{x, y}; rejects degenerate planes."""
    cx, cy = P.dec.to_coords(x), P.dec.to_coords(y)
    xx = P.inner_coords(cx, cx)
    yy = P.inner_coords(cy, cy)
    xy = P.inner_coords(cx, cy)
    area = xx * yy - xy * xy
    if area <= DEGENERATE_AREA_RTOL * max(xx * yy, 1e-300):
        raise DegeneratePlaneError("x and y do not span a 2-plane")
    num = float(plane_terms(P, cx[None], cy[None]).numerator[0])
    return CurvatureValue(numerator=num, area=area, sectional=num / area)
