"""Matrix models of the compact classical Lie algebras su(n), u(n), sp(n), so(m).

Conventions used throughout the package:

- Every algebra element is stored as a complex square matrix (real entries
  for the orthogonal family).  sp(n) is represented by its complex 2n x 2n
  embedding: the quaternionic matrix B + jC maps to [[B, -conj(C)], [C,
  conj(B)]]; quaternion arithmetic is never done directly.
- The bi-invariant form is fixed as Q(A, B) = -1/2 Re tr(AB) for every
  family.  On skew-hermitian matrices this is 1/2 of the real Frobenius
  inner product, so it is positive definite.
- Root spaces are the 2-dimensional irreducible blocks of the adjoint
  action of the standard maximal torus.  Each root space carries a basis
  (X, Y) with [Z, X] = -r(Z) Y and [Z, Y] = r(Z) X for Z in the Cartan
  subalgebra, and the functional r is stored as an exact integer vector in
  the standard diagonal coordinates of the torus.

All values are immutable after construction and every operation is pure,
so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-9


class AlgebraError(ValueError):
    """Raised on family/size mismatches or invariant violations."""


# ---------------------------------------------------------------------------
# group families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupFamily:
    """A classical compact group family with its size parameter.

    name is one of "SU", "U", "Sp", "SO"; n is the defining parameter
    (matrix size for SU/U/SO, quaternionic size for Sp).
    """

    name: str
    n: int

    def __post_init__(self):
        if self.name not in ("SU", "U", "Sp", "SO"):
            raise AlgebraError(f"unknown family {self.name!r}")
        if self.n < 1:
            raise AlgebraError("size parameter must be positive")

    @property
    def matrix_size(self) -> int:
        return 2 * self.n if self.name == "Sp" else self.n

    @property
    def dim(self) -> int:
        n = self.n
        if self.name == "SU":
            return n * n - 1
        if self.name == "U":
            return n * n
        if self.name == "Sp":
            return n * (2 * n + 1)
        return n * (n - 1) // 2

    @property
    def rank(self) -> int:
        if self.name == "SO":
            return self.n // 2
        return self.n - 1 if self.name == "SU" else self.n

    @property
    def kind(self) -> str:
        """Fine-grained family label: SO splits by parity."""
        if self.name == "SO":
            return "SO-even" if self.n % 2 == 0 else "SO-odd"
        return self.name

    def __str__(self):
        return f"{self.name}({self.n})"


def su(n: int) -> GroupFamily:
    return GroupFamily("SU", n)


def u(n: int) -> GroupFamily:
    return GroupFamily("U", n)


def sp(n: int) -> GroupFamily:
    return GroupFamily("Sp", n)


def so(m: int) -> GroupFamily:
    return GroupFamily("SO", m)


def _frozen(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    arr.setflags(write=False)
    return arr


def _symplectic_j(n: int) -> np.ndarray:
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


# ---------------------------------------------------------------------------
# algebra and group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraElement:
    """A Lie algebra element: a matrix in the fixed faithful representation."""

    family: GroupFamily
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(self.mat))

    def __add__(self, other):
        _require_same(self, other)
        return AlgebraElement(self.family, self.mat + other.mat)

    def __sub__(self, other):
        _require_same(self, other)
        return AlgebraElement(self.family, self.mat - other.mat)

    def __neg__(self):
        return AlgebraElement(self.family, -self.mat)

    def __rmul__(self, scalar):
        return AlgebraElement(self.family, float(scalar) * self.mat)

    __mul__ = __rmul__


@dataclass(frozen=True)
class GroupElement:
    """A group element: unitary / special-unitary / orthogonal / symplectic."""

    family: GroupFamily
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _frozen(self.mat))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.family, self.mat.conj().T)


def _require_same(a, b):
    if a.family != b.family:
        raise AlgebraError(f"family mismatch: {a.family} vs {b.family}")


def check_algebra_element(x: AlgebraElement, tol: float = DEFAULT_TOL):
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


def zero(family: GroupFamily) -> AlgebraElement:
    size = family.matrix_size
    return AlgebraElement(family, np.zeros((size, size), dtype=complex))


def identity(family: GroupFamily) -> GroupElement:
    return GroupElement(family, np.eye(family.matrix_size, dtype=complex))


# ---------------------------------------------------------------------------
# basic operations
# ---------------------------------------------------------------------------

def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Commutator [a, b] = ab - ba."""
    _require_same(a, b)
    return AlgebraElement(a.family, a.mat @ b.mat - b.mat @ a.mat)


def inner_q(a: AlgebraElement, b: AlgebraElement) -> float:
    """Bi-invariant form Q(a, b) = -1/2 Re tr(ab)."""
    _require_same(a, b)
    return -0.5 * float(np.trace(a.mat @ b.mat).real)


def exp_map(a: AlgebraElement) -> GroupElement:
    """Matrix exponential into the group, by eigenvectors.

    a is skew-hermitian, so 1j*a is hermitian with real eigenvalues lam and
    a unitary eigenbasis V, and exp(a) = V diag(exp(-1j*lam)) V*.  For a
    normal matrix this is the well-conditioned method (Moler and Van Loan,
    "Nineteen dubious ways to compute the exponential of a matrix,
    twenty-five years later", SIAM Rev. 45 (2003), method 14): V has
    condition number 1, so the result is within a small multiple of
    n*eps*(1 + |a|_2) of exp(a) and unitary to a small multiple of n*eps
    (eps = 2**-52).  A real input has a real exponential, and the
    imaginary round-off is dropped.
    """
    lam, v = np.linalg.eigh(1j * a.mat)
    g = (v * np.exp(-1j * lam)) @ v.conj().T
    return GroupElement(a.family, g if a.mat.imag.any() else g.real)


def adjoint(g: GroupElement, x: AlgebraElement) -> AlgebraElement:
    """Ad_g(x) = g x g^{-1}."""
    if g.family != x.family:
        raise AlgebraError(f"family mismatch: {g.family} vs {x.family}")
    return AlgebraElement(x.family, g.mat @ x.mat @ g.mat.conj().T)


def torus_element(family: GroupFamily, a) -> AlgebraElement:
    """Cartan element with diagonal torus coordinates `a` (length = rank).

    SU/U: diag(i a); for SU the coordinates must sum to zero.
    Sp:   the embedding of the quaternionic diag(i a).
    SO:   sum of a_k times the rotation generator in the (2k, 2k+1) plane.
    """
    a = np.asarray(a, dtype=float)
    expected = family.rank if family.name == "SO" else family.n
    if a.shape != (expected,):
        # SU uses all n diagonal coordinates, constrained to sum zero
        raise AlgebraError(f"expected {expected} torus coordinates")
    if family.name in ("SU", "U"):
        if family.name == "SU" and abs(a.sum()) > 1e-12 * max(1, np.abs(a).max()):
            raise AlgebraError("su(n) torus coordinates must sum to zero")
        return AlgebraElement(family, np.diag(1j * a))
    if family.name == "Sp":
        return AlgebraElement(family, np.diag(np.concatenate([1j * a, -1j * a])))
    size = family.n
    m = np.zeros((size, size), dtype=complex)
    for k, ak in enumerate(a):
        m[2 * k, 2 * k + 1] = -ak
        m[2 * k + 1, 2 * k] = ak
    return AlgebraElement(family, m)


def diag_torus_coords(z: AlgebraElement) -> np.ndarray:
    """Diagonal torus coordinates of a Cartan element (inverse of torus_element)."""
    fam = z.family
    if fam.name in ("SU", "U"):
        return z.mat.diagonal().imag.copy()
    if fam.name == "Sp":
        return z.mat.diagonal()[: fam.n].imag.copy()
    return np.array([z.mat[2 * k + 1, 2 * k].real for k in range(fam.rank)])


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def quaternion_block(b, c) -> np.ndarray:
    """Complex 2n x 2n block matrix [[B, -conj(C)], [C, conj(B)]] for B + jC."""
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    if b.shape != c.shape or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise AlgebraError("B and C must be square matrices of equal size")
    return np.block([[b, -c.conj()], [c, b.conj()]])


# ---------------------------------------------------------------------------
# root decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Root:
    """One root space: exact functional vector plus a Q-orthonormal basis."""

    vector: tuple
    x: AlgebraElement
    y: AlgebraElement

    def value(self, z: AlgebraElement) -> float:
        """r(Z) for a Cartan element Z."""
        return float(np.dot(self.vector, diag_torus_coords(z)))


@dataclass(frozen=True)
class RootDecomposition:
    """Cartan subalgebra basis plus root spaces of a semisimple family.

    cartan is Q-orthonormal; every root basis pair (x, y) is Q-orthonormal
    and satisfies [Z, x] = -r(Z) y, [Z, y] = r(Z) x.  The instance also
    provides coordinates with respect to the full Q-orthonormal basis
    (cartan elements followed by interleaved root vectors), which is the
    frame used by the metric and curvature machinery.
    """

    family: GroupFamily
    cartan: tuple
    roots: tuple
    _basis_flat: np.ndarray = field(repr=False, compare=False)

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @property
    def dim(self) -> int:
        return len(self.cartan) + 2 * len(self.roots)

    @property
    def basis(self):
        out = list(self.cartan)
        for r in self.roots:
            out.extend((r.x, r.y))
        return out

    def to_coords(self, x: AlgebraElement) -> np.ndarray:
        """Coordinates of x in the Q-orthonormal basis."""
        m = np.asarray(x.mat)
        flat = np.concatenate([m.real.ravel(), m.imag.ravel()])
        return 0.5 * (self._basis_flat @ flat)

    def from_coords(self, c) -> AlgebraElement:
        c = np.asarray(c, dtype=float)
        flat = c @ self._basis_flat
        n2 = self.family.matrix_size ** 2
        size = self.family.matrix_size
        mat = flat[:n2].reshape(size, size) + 1j * flat[n2:].reshape(size, size)
        return AlgebraElement(self.family, mat)

    def coords_rows(self, mats) -> np.ndarray:
        """to_coords along the leading axes of a (..., s, s) matrix stack."""
        m = np.asarray(mats)
        shape = m.shape[:-2] + (m.shape[-1] * m.shape[-2],)
        flat = np.concatenate([m.real.reshape(shape), m.imag.reshape(shape)], axis=-1)
        return 0.5 * (flat @ self._basis_flat.T)

    def matrices(self, rows) -> np.ndarray:
        """from_coords along the leading axes of (..., d) coordinate rows,
        as a (..., s, s) complex matrix stack."""
        flat = np.asarray(rows, dtype=float) @ self._basis_flat
        size = self.family.matrix_size
        n2 = size * size
        mats = flat[..., :n2] + 1j * flat[..., n2:]
        return mats.reshape(*flat.shape[:-1], size, size)

    def ad(self, rows) -> np.ndarray:
        """ad matrices of coordinate rows from the structure constants:
        y @ ad(x)[n] is the coordinate row of [x[n], y]."""
        rows = np.asarray(rows, dtype=float)
        return (rows @ self.structure_constants).reshape(
            *rows.shape[:-1], self.dim, self.dim
        )

    def root_block_slice(self, i: int) -> slice:
        """Coordinate slice of the i-th root space."""
        return slice(self.rank + 2 * i, self.rank + 2 * i + 2)

    @property
    def structure_constants(self) -> np.ndarray:
        """The bracket in the Q-orthonormal frame as a read-only (d, d*d)
        array C: C[i, j*d + k] is coordinate k of [B_i, B_j].  So
        (x @ C).reshape(d, d) is the matrix of ad_x acting on coordinate
        rows: y @ (x @ C).reshape(d, d) is the coordinate row of [x, y]."""
        return _structure_constants_cached(self.family.name, self.family.n)


def _flatten_basis(elements, size) -> np.ndarray:
    rows = []
    for e in elements:
        m = np.asarray(e.mat)
        rows.append(np.concatenate([m.real.ravel(), m.imag.ravel()]))
    return np.asarray(rows)


def _skew(size, i, j) -> np.ndarray:
    m = np.zeros((size, size), dtype=complex)
    m[i, j] = 1.0
    m[j, i] = -1.0
    return m


def _sym_i(size, i, j) -> np.ndarray:
    m = np.zeros((size, size), dtype=complex)
    m[i, j] = 1j
    m[j, i] = 1j
    return m


@lru_cache(maxsize=None)
def _root_decomposition_cached(name: str, n: int) -> RootDecomposition:
    fam = GroupFamily(name, n)
    if name == "SU" and n < 2:
        raise AlgebraError("root decomposition needs SU(n) with n >= 2")
    if name == "SO" and n < 3:
        raise AlgebraError("root decomposition needs SO(m) with m >= 3")
    if name == "U":
        raise AlgebraError("U(n) is not semisimple; no root decomposition")

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
                x = AlgebraElement(fam, _skew(n, p, q))
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
                x = AlgebraElement(fam, inv * quaternion_block(_skew(n, p, q), np.zeros((n, n))))
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
                m1 = _skew(size, up, vq)
                m2 = _skew(size, up, vqq)
                m3 = _skew(size, upp, vq)
                m4 = _skew(size, upp, vqq)
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
                x = AlgebraElement(fam, _skew(size, 2 * p + 1, w))
                y = AlgebraElement(fam, _skew(size, 2 * p, w))
                roots.append(Root(vec, x, y))

    dec = RootDecomposition(
        family=fam,
        cartan=tuple(cartan),
        roots=tuple(roots),
        _basis_flat=_flatten_basis(
            list(cartan) + [e for r in roots for e in (r.x, r.y)], size
        ),
    )
    assert dec.dim == fam.dim, f"dimension mismatch for {fam}"
    return dec


def root_decomposition(family: GroupFamily) -> RootDecomposition:
    """Root-space decomposition with respect to the standard maximal torus."""
    return _root_decomposition_cached(family.name, family.n)


@lru_cache(maxsize=None)
def _structure_constants_cached(name: str, n: int) -> np.ndarray:
    dec = _root_decomposition_cached(name, n)
    size = dec.family.matrix_size
    mats = np.array([e.mat for e in dec.basis])
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    brackets = (prod - prod.transpose(1, 0, 2, 3)).reshape(dec.dim * dec.dim, size * size)
    flat = np.concatenate([brackets.real, brackets.imag], axis=1)
    c = (0.5 * (flat @ dec._basis_flat.T)).reshape(dec.dim, dec.dim * dec.dim)
    c.setflags(write=False)
    return c


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A Q-orthonormalized subspace of the algebra, with a free-text label."""

    dec: RootDecomposition
    coords: np.ndarray  # (dim_subspace, dim_algebra), orthonormal rows
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "coords", _frozen_real(self.coords))

    @classmethod
    def from_elements(cls, dec, elements, label: str = ""):
        rows = np.asarray([dec.to_coords(e) for e in elements])
        # orthonormal basis of the span: left singular vectors whose
        # singular value exceeds 1e-12 times the largest
        u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
        q = u[:, s > 1e-12 * s.max()].T
        return cls(dec, q, label)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def basis_elements(self):
        return [self.dec.from_coords(c) for c in self.coords]

    def project_coords(self, c) -> np.ndarray:
        return self.coords.T @ (self.coords @ np.asarray(c))

    def project(self, x: AlgebraElement) -> AlgebraElement:
        return self.dec.from_coords(self.project_coords(self.dec.to_coords(x)))

    def contains(self, x: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
        c = self.dec.to_coords(x)
        resid = np.linalg.norm(c - self.project_coords(c))
        return resid <= tol * max(1.0, np.linalg.norm(c))


def _frozen_real(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=float)
    out.setflags(write=False)
    return out


def cartan_subspace(dec: RootDecomposition, label: str = "cartan") -> Subspace:
    coords = np.zeros((dec.rank, dec.dim))
    coords[:, : dec.rank] = np.eye(dec.rank)
    return Subspace(dec, coords, label)


def root_subspace(dec: RootDecomposition, i: int, label: str = "") -> Subspace:
    coords = np.zeros((2, dec.dim))
    s = dec.root_block_slice(i)
    coords[0, s.start] = 1.0
    coords[1, s.start + 1] = 1.0
    return Subspace(dec, coords, label or f"root[{i}]")


# ---------------------------------------------------------------------------
# random sampling (explicit generators everywhere, for reproducibility)
# ---------------------------------------------------------------------------

def random_algebra_element(family: GroupFamily, rng) -> AlgebraElement:
    size = family.matrix_size
    if family.name == "SO":
        m = rng.standard_normal((size, size))
        return AlgebraElement(family, (m - m.T) / 2)
    if family.name == "Sp":
        n = family.n
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = (b - b.conj().T) / 2
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = (c + c.T) / 2
        return AlgebraElement(family, quaternion_block(b, c))
    m = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    m = (m - m.conj().T) / 2
    if family.name == "SU":
        m = m - np.trace(m) / size * np.eye(size)
    return AlgebraElement(family, m)


def random_group_element(family: GroupFamily, rng) -> GroupElement:
    return exp_map(random_algebra_element(family, rng))
