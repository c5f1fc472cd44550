"""Left-invariant metrics as the positive self-adjoint operator P.

A metric <X, Y> = Q(X, P(Y)) is stored through the matrix of P in the
Q-orthonormal frame of a root decomposition.  Torus-invariant metrics are
block diagonal there: an arbitrary positive form on the Cartan subalgebra
plus a positive scalar per root space.  Metrics invariant under a larger
subgroup (needed when the right factor of the action is nonabelian) are
built from a declared orthogonal decomposition into invariant subspaces
with one positive-definite block each.

Everything is immutable after construction; operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraError,
    RootDecomposition,
    bracket,
)

__all__ = [
    "MetricOperator",
    "build_metric",
    "build_metric_from_subspaces",
    "apply_P",
    "L_tensor",
]


@dataclass(frozen=True)
class MetricOperator:
    """The operator P with <X, Y> = Q(X, P(Y)).

    mat / mat_inv are the matrices of P and P^{-1} in the decomposition's
    Q-orthonormal frame.
    """

    dec: RootDecomposition
    mat: np.ndarray
    mat_inv: np.ndarray

    def __post_init__(self):
        for name in ("mat", "mat_inv"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def apply_coords(self, c) -> np.ndarray:
        return self.mat @ np.asarray(c)

    def apply_inv_coords(self, c) -> np.ndarray:
        return self.mat_inv @ np.asarray(c)

    def inner_coords(self, c1, c2) -> float:
        return float(np.asarray(c1) @ self.mat @ np.asarray(c2))


def _check_spd(m, what: str, tol: float = 1e-12):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise AlgebraError(f"{what} must be a square matrix")
    if np.abs(m - m.T).max() > tol * max(1.0, np.abs(m).max()):
        raise AlgebraError(f"{what} must be symmetric")
    if np.linalg.eigvalsh(m).min() <= 0:
        raise AlgebraError(f"{what} must be positive definite")
    return m


def build_metric(dec: RootDecomposition, t_block=None, alphas=None) -> MetricOperator:
    """Torus-invariant metric from a form on the Cartan subalgebra plus
    one positive scalar per root space.

    t_block defaults to the identity, alphas to all ones (the bi-invariant
    metric).  Raises on a non-positive block, a nonpositive alpha, or an
    alphas length mismatch.
    """
    rank, nroots = dec.rank, len(dec.roots)
    t_block = np.eye(rank) if t_block is None else _check_spd(t_block, "t_block")
    if t_block.shape != (rank, rank):
        raise AlgebraError(f"t_block must be {rank}x{rank}")
    alphas = np.ones(nroots) if alphas is None else np.asarray(alphas, dtype=float)
    if alphas.shape != (nroots,):
        raise AlgebraError(f"expected {nroots} root scalars, got {alphas.shape}")
    if np.any(alphas <= 0):
        raise AlgebraError("all root scalars must be positive")

    mat = np.zeros((dec.dim, dec.dim))
    mat[:rank, :rank] = t_block
    inv = np.zeros_like(mat)
    inv[:rank, :rank] = np.linalg.inv(t_block)
    for i, a in enumerate(alphas):
        s = dec.root_block_slice(i)
        mat[s, s] = a * np.eye(2)
        inv[s, s] = (1.0 / a) * np.eye(2)
    return MetricOperator(dec, mat, inv)


def build_metric_from_subspaces(dec: RootDecomposition, blocks) -> MetricOperator:
    """Metric from an orthogonal decomposition into invariant subspaces.

    blocks is a list of (Subspace, block) pairs where block is either a
    positive scalar or a symmetric positive-definite matrix over the
    subspace basis.  The subspaces must be mutually Q-orthogonal and fill
    the algebra; by construction P leaves each of them invariant.
    """
    dim = dec.dim
    rows = np.vstack([s.coords for s, _ in blocks])
    if rows.shape[0] != dim:
        raise AlgebraError(
            f"subspaces cover dimension {rows.shape[0]}, algebra has {dim}"
        )
    if np.abs(rows @ rows.T - np.eye(dim)).max() > 1e-9:
        raise AlgebraError("subspaces must be Q-orthonormal and mutually orthogonal")
    mat = np.zeros((dim, dim))
    for sub, block in blocks:
        if np.isscalar(block):
            if block <= 0:
                raise AlgebraError("block scalars must be positive")
            b = float(block) * np.eye(sub.dim)
        else:
            b = _check_spd(block, f"block for {sub.label or 'subspace'}")
            if b.shape != (sub.dim, sub.dim):
                raise AlgebraError("block size does not match subspace dimension")
        mat += sub.coords.T @ b @ sub.coords
    return MetricOperator(dec, mat, np.linalg.inv(mat))


def apply_P(P: MetricOperator, x: AlgebraElement) -> AlgebraElement:
    return P.dec.from_coords(P.apply_coords(P.dec.to_coords(x)))


def L_tensor(P: MetricOperator, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Fusing tensor (ad_a)*(b) - (ad_b)*(a) + [a, b], where
    (ad_a)* = -P^{-1} o ad_a o P is the metric adjoint of ad_a.

    This is the quantity whose pairing with the vertical generators gives
    the vertical part of the bracket of horizontal extensions; for P = id
    it reduces to -[a, b].
    """
    ab = bracket(a, b)
    term = bracket(a, apply_P(P, b)) - bracket(b, apply_P(P, a))
    return ab - P.dec.from_coords(P.apply_inv_coords(P.dec.to_coords(term)))
