"""Sectional curvature of a left-invariant metric on the group.

The curvature numerator <R(X,Y)Y, X> is evaluated by the four-term
expression

    1/2 Q([PX,Y] + [X,PY], [X,Y]) - 3/4 Q(P[X,Y], [X,Y])
        + Q(B(X,Y), P^{-1} B(X,Y)) - Q(B(X,X), P^{-1} B(Y,Y)),

with B(X,Y) = 1/2 ([X,PY] - [PX,Y]).  For the bi-invariant metric this
collapses to Q([X,Y],[X,Y]) / 4.  All work happens in the Q-orthonormal
frame of the root decomposition, so P and P^{-1} are plain matrix
multiplications and no linear solves occur.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, bracket
from .metric import MetricOperator, apply_P, metric_inner

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


def B_tensor(P: MetricOperator, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """B(X,Y) = 1/2 ([X, PY] - [PX, Y]); symmetric in X, Y and zero for P = id."""
    return 0.5 * (bracket(x, apply_P(P, y)) - bracket(apply_P(P, x), y))


def puttmann_numerator(P: MetricOperator, x: AlgebraElement, y: AlgebraElement) -> float:
    """Curvature numerator <R(X,Y)Y, X> for the metric Q(., P .)."""
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


def sectional(P: MetricOperator, x: AlgebraElement, y: AlgebraElement) -> CurvatureValue:
    """Sectional curvature of span{x, y}; rejects degenerate planes."""
    xx = metric_inner(P, x, x)
    yy = metric_inner(P, y, y)
    xy = metric_inner(P, x, y)
    area = xx * yy - xy * xy
    if area <= DEGENERATE_AREA_RTOL * max(xx * yy, 1e-300):
        raise DegeneratePlaneError("x and y do not span a 2-plane")
    num = puttmann_numerator(P, x, y)
    return CurvatureValue(numerator=num, area=area, sectional=num / area)
