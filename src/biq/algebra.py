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
from itertools import combinations, combinations_with_replacement

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
        object.__setattr__(self, "n", as_int(self.n, "size parameter"))
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
    def torus_rows(self) -> int:
        """Diagonal coordinates of the standard maximal torus: n on SU, U
        and Sp (summing to zero on SU), the rank on SO, one per rotation
        block."""
        return self.rank if self.name == "SO" else self.n

    @property
    def kind(self) -> str:
        """Fine-grained family label: SO splits by parity."""
        if self.name == "SO":
            return "SO-even" if self.n % 2 == 0 else "SO-odd"
        return self.name

    def __str__(self):
        return f"{self.name}({self.n})"


def as_int(x, what: str) -> int:
    """x as an int if integral (2, 2.0, numpy integers); int() truncates."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise AlgebraError(f"{what} must be an integer, got {x!r}")


def su(n: int) -> GroupFamily:
    return GroupFamily("SU", n)


def u(n: int) -> GroupFamily:
    return GroupFamily("U", n)


def sp(n: int) -> GroupFamily:
    return GroupFamily("Sp", n)


def so(m: int) -> GroupFamily:
    return GroupFamily("SO", m)


def read_only(mat, dtype=complex) -> np.ndarray:
    """mat as a read-only array; a view is copied first, since its base
    would stay writable."""
    arr = np.asarray(mat, dtype=dtype)
    if not arr.flags.owndata:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# algebra and group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraElement:
    """A Lie algebra element: a matrix in the fixed faithful representation."""

    family: GroupFamily
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", read_only(self.mat))

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
        object.__setattr__(self, "mat", read_only(self.mat))

    def inverse(self) -> "GroupElement":
        return GroupElement(self.family, self.mat.conj().T)


def _require_same(a, b):
    if a.family != b.family:
        raise AlgebraError(f"family mismatch: {a.family} vs {b.family}")


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
    """Cartan element with diagonal torus coordinates `a` (length =
    family.torus_rows).

    SU/U: diag(i a); for SU the coordinates must sum to zero.
    Sp:   the embedding of the quaternionic diag(i a).
    SO:   sum of a_k times the rotation generator in the (2k, 2k+1) plane.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (family.torus_rows,):
        raise AlgebraError(f"expected {family.torus_rows} torus coordinates")
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


#: the quaternion units i, j, k as the components (b, c) of b + jc
QUATERNION_UNITS = ((1j, 0.0), (0.0, 1.0), (0.0, -1j))


def quaternion_diag(family: GroupFamily, *quaternions) -> AlgebraElement:
    """diag(q_1, ..., q_n) in sp(n), each quaternion given by its
    components (b, c) of b + jc."""
    b = np.diag([q[0] for q in quaternions])
    c = np.diag([q[1] for q in quaternions])
    return AlgebraElement(family, quaternion_block(b, c))


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
        return self.coords_rows(x.mat)

    def from_coords(self, c) -> AlgebraElement:
        return AlgebraElement(self.family, self.matrices(c))

    def coords_rows(self, mats) -> np.ndarray:
        """to_coords along the leading axes of a (..., s, s) matrix stack."""
        return 0.5 * (_real_rows(mats) @ self._basis_flat.T)

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


def _real_rows(mats) -> np.ndarray:
    """A (..., s, s) complex matrix stack as (..., 2 s^2) real rows: the
    real parts of each whole matrix, then its imaginary parts."""
    m = np.asarray(mats)
    shape = m.shape[:-2] + (m.shape[-1] * m.shape[-2],)
    return np.concatenate([m.real.reshape(shape), m.imag.reshape(shape)], axis=-1)


def skew_unit(size, i, j) -> np.ndarray:
    """E_ij - E_ji as a complex size x size matrix: the generator of the
    rotations in the (i, j) plane."""
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

    rows = fam.torus_rows
    # the root functionals are integer combinations of the rows of e
    e = np.eye(rows, dtype=int)
    coords = e.astype(float)
    if name == "SU":
        # orthonormalize the e_k - e_{k+1}, which sum to zero, under Q = (1/2) a.a'
        coords = coords[:-1] - coords[1:]
        for k, a in enumerate(coords):
            for v in coords[:k]:
                a -= 0.5 * np.dot(a, v) * v
            a /= np.sqrt(0.5 * np.dot(a, a))
    cartan = [torus_element(fam, a) for a in coords]

    roots = []
    inv = 1.0 / np.sqrt(2.0)
    zeros = np.zeros((rows, rows))

    def add(vec, x, y):
        roots.append(Root(tuple(vec.tolist()), AlgebraElement(fam, x), AlgebraElement(fam, y)))

    if name in ("SU", "Sp"):
        # A-type roots a_q - a_p; sp(n) holds su(n)'s pair in its block B
        for p, q in combinations(range(rows), 2):
            x, y = skew_unit(rows, p, q), _sym_i(rows, p, q)
            if name == "Sp":
                x, y = inv * quaternion_block(x, zeros), inv * quaternion_block(y, zeros)
            add(e[q] - e[p], x, y)
    if name == "Sp":
        # C-type roots a_p + a_q (p < q) and 2 a_p (p == q), in the block C
        for p, q in combinations_with_replacement(range(rows), 2):
            c0 = np.zeros((rows, rows), dtype=complex)
            c0[p, q] = c0[q, p] = 1.0
            scale = 1.0 if p == q else inv
            add(e[p] + e[q], scale * quaternion_block(zeros, c0),
                scale * quaternion_block(zeros, 1j * c0))
    if name == "SO":
        for p, q in combinations(range(rows), 2):
            m1, m2, m3, m4 = (skew_unit(n, i, j) for i in (2 * p, 2 * p + 1)
                              for j in (2 * q, 2 * q + 1))
            add(e[q] - e[p], inv * (m1 + m4), inv * (m3 - m2))
            add(e[p] + e[q], inv * (m1 - m4), -inv * (m2 + m3))
        if n % 2 == 1:
            for p in range(rows):
                add(e[p], skew_unit(n, 2 * p + 1, n - 1), skew_unit(n, 2 * p, n - 1))

    dec = RootDecomposition(
        family=fam,
        cartan=tuple(cartan),
        roots=tuple(roots),
        _basis_flat=_real_rows(
            [e.mat for e in cartan + [e for r in roots for e in (r.x, r.y)]]
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
    mats = np.array([e.mat for e in dec.basis])
    prod = np.einsum("iab,jbc->ijac", mats, mats)
    brackets = (prod - prod.transpose(1, 0, 2, 3)).reshape(-1, *mats.shape[1:])
    c = dec.coords_rows(brackets).reshape(dec.dim, dec.dim * dec.dim)
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
        object.__setattr__(self, "coords", read_only(self.coords, float))

    @classmethod
    def from_elements(cls, dec, elements, label: str = ""):
        rows = np.asarray([dec.to_coords(e) for e in elements]).reshape(-1, dec.dim)
        if not len(rows):
            return cls(dec, rows, label)
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
