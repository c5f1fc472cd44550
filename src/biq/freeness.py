"""Exact freeness tests for two-sided torus actions, plus the closed-form
conditions for the classical 7- and 13-dimensional families.

A k-torus in G x G is described by integer weight matrices (W_L, W_R): the
element with torus coordinates theta acts through the diagonal characters
with exponents W_L theta on the left and W_R theta on the right.  The
action is free iff for every element sigma of the family's eigenvalue
symmetry group (permutations for SU/U, signed permutations for Sp and SO)
the character matrix D_sigma = W_L - sigma . W_R has trivial kernel as a
map of tori, which is decided exactly by its Smith normal form: all k
invariant factors equal to 1.

"free modulo the center" additionally accepts kernel elements t whose
images satisfy u_L(t) = u_R(t) = a central scalar of G.  All arithmetic is
on arbitrary-precision integers; floating point never decides a verdict.

For SO(2n) the Weyl group consists of the even-signed permutations only.
An odd-signed match is realized inside SO(2n) exactly when the torus
element has a real eigenvalue (a rotation angle of 0 or a half turn):
without one, the centralizer is a product of unitary groups and lies in
the identity component, so the conjugation cannot be corrected.  The
checker applies this exact criterion, enumerating the (finitely many)
real-eigenvalue elements of each odd-signed kernel; a verdict whose
witness comes from an odd-signed symmetry is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

from .algebra import AlgebraError, GroupFamily
from .intlattice import invariant_factors, kernel_generators

STRICT = "strict"
MOD_CENTER = "mod-center"
_MODES = (STRICT, MOD_CENTER)


def _normalize_mode(mode: str) -> str:
    aliases = {
        "strict": STRICT,
        "strict-free": STRICT,
        "mod-center": MOD_CENTER,
        "free-mod-center": MOD_CENTER,
    }
    try:
        return aliases[mode]
    except KeyError:
        raise ValueError(f"unknown freeness mode {mode!r}") from None


@dataclass(frozen=True)
class TorusActionWeights:
    """Integer weight matrices of a k-torus in G x G.

    w_left and w_right have one row per torus coordinate of G (the matrix
    size for SU/U/Sp, the rank for SO, where circles act through the
    block-rotation embedding) and one column per circle of the k-torus.
    """

    group: GroupFamily
    k: int
    w_left: tuple
    w_right: tuple
    mode: str = STRICT

    def __post_init__(self):
        object.__setattr__(self, "w_left", _as_int_rows(self.w_left))
        object.__setattr__(self, "w_right", _as_int_rows(self.w_right))
        object.__setattr__(self, "mode", _normalize_mode(self.mode))
        fam = self.group
        rows = self.n_rows
        for name, w in (("W_L", self.w_left), ("W_R", self.w_right)):
            if len(w) != rows or any(len(r) != self.k for r in w):
                raise AlgebraError(f"{name} must be {rows}x{self.k} for {fam}")
        if not 1 <= self.k <= (fam.rank if fam.name != "U" else fam.n):
            raise AlgebraError(f"torus rank k={self.k} out of range for {fam}")
        if fam.name == "SU":
            for j in range(self.k):
                sl = sum(r[j] for r in self.w_left)
                sr = sum(r[j] for r in self.w_right)
                if sl != sr:
                    raise AlgebraError(
                        "SU weights need equal column sums (equal determinants); "
                        f"column {j} has {sl} vs {sr}"
                    )
        stacked = [list(a) + list(b) for a, b in zip(_cols(self.w_left), _cols(self.w_right))]
        # stacked is k x 2n; the k columns of (W_L; W_R) must be independent
        d = invariant_factors([list(c) for c in zip(*stacked)], count=self.k)
        if sum(1 for x in d if x != 0) < self.k:
            raise AlgebraError("weight columns do not define a k-torus")

    @property
    def n_rows(self) -> int:
        fam = self.group
        return fam.rank if fam.name == "SO" else fam.n

    def left_exponents(self, col):
        return tuple(sum(r[j] * col[j] for j in range(self.k)) for r in self.w_left)

    def right_exponents(self, col):
        return tuple(sum(r[j] * col[j] for j in range(self.k)) for r in self.w_right)


def _as_int_rows(w):
    return tuple(tuple(int(x) for x in row) for row in w)


def _cols(rows):
    return list(zip(*rows)) if rows else []


@dataclass(frozen=True)
class Witness:
    """A nontrivial torus element demonstrating a freeness failure.

    The element has coordinates t = numerators / denominator in R^k/Z^k;
    under the recorded symmetry (perm, signs) its left and right images
    have matching eigenvalue data, so u_L(t) is conjugate to u_R(t).
    """

    perm: tuple
    signs: tuple
    numerators: tuple
    denominator: int
    invariant_factors: tuple
    kind: str  # "torsion" or "circle"

    def coordinates(self):
        return tuple(Fraction(n, self.denominator) for n in self.numerators)


@dataclass(frozen=True)
class FreenessVerdict:
    free: bool
    mode: str
    witness: Witness | None = None
    odd_signed_only: bool = False
    note: str = ""

    def __bool__(self):
        return self.free


def conjugacy_symmetries(fam: GroupFamily, rows: int):
    """Eigenvalue symmetry group elements as (perm, signs), in a fixed
    deterministic order (permutations lexicographic, signs +1 first)."""
    if fam.name in ("SU", "U"):
        plus = (1,) * rows
        for perm in permutations(range(rows)):
            yield perm, plus
    else:
        for perm in permutations(range(rows)):
            for signs in product((1, -1), repeat=rows):
                yield perm, signs


def _apply_symmetry(w_right, perm, signs):
    return [
        [signs[i] * x for x in w_right[perm[i]]]
        for i in range(len(w_right))
    ]


def _scalar_is_central(fam: GroupFamily, m: int, d: int) -> bool:
    """Is the scalar exp(2 pi i m / d) . I central in the family's group?"""
    if fam.name == "SU":
        return (fam.n * m) % d == 0
    if fam.name == "U":
        return True
    if fam.kind == "SO-odd":
        return m % d == 0
    return (2 * m) % d == 0  # Sp and SO-even: only +-I


def _all_congruent(values, d):
    m = values[0] % d
    return m if all(v % d == m for v in values) else None


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


def _central_pair(w, exps_l, exps_r, order) -> bool:
    ma = _all_congruent(exps_l, order)
    mb = _all_congruent(exps_r, order)
    return ma is not None and ma == mb and _scalar_is_central(w.group, ma, order)


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


def is_free_exact(w: TorusActionWeights, mode: str | None = None) -> FreenessVerdict:
    """Exact freeness verdict for a weighted torus action.

    strict mode demands a trivial kernel for every symmetry image (all
    Smith invariant factors equal to 1); mod-center mode accepts kernels
    acting by central scalars.  The reported witness belongs to the first
    failing symmetry in the iteration order; for SO(2n), failures caused
    only by odd-signed symmetries are flagged odd_signed_only.
    """
    mode = _normalize_mode(mode or w.mode)
    fam = w.group
    rows = w.n_rows
    w_left = [list(r) for r in w.w_left]
    first_odd_fail = None

    for perm, signs in conjugacy_symmetries(fam, rows):
        sw = _apply_symmetry(w.w_right, perm, signs)
        d_matrix = [
            [w_left[i][j] - sw[i][j] for j in range(w.k)] for i in range(rows)
        ]
        factors = invariant_factors(d_matrix, count=w.k)
        if all(f == 1 for f in factors):
            continue
        if fam.kind == "SO-even" and _sign_product(signs) < 0:
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
            odd_signed_only=True,
            note="the violation is realized only through odd-signed symmetries",
        )
    return FreenessVerdict(free=True, mode=mode)


def _sign_product(signs):
    p = 1
    for s in signs:
        p *= s
    return p


# ---------------------------------------------------------------------------
# brute-force falsifier
# ---------------------------------------------------------------------------

def _folded(exponents, m, fold: bool):
    vals = [e % m for e in exponents]
    if fold:
        vals = [min(v, m - v) for v in vals]
    return sorted(vals)


def _upper_half_count(exponents, m) -> int:
    """Number of angles e/m strictly inside (0, 1/2) mod 1."""
    return sum(1 for e in exponents if 0 < 2 * (e % m) < m)


def _conjugate(fam: GroupFamily, a, b, m) -> bool:
    """Are the torus elements with angles a/m and b/m conjugate in the group?

    SU/U: equal angle multisets.  Sp and SO(2n+1): equal up to sign flips.
    SO(2n): the flips must be even in number unless some angle is 0 or 1/2
    (a real eigenvalue).  Otherwise every folded class keeps its count on
    each side of 1/2 up to the flips inside it, so the total flip parity
    is that of the difference of the upper-half counts.
    """
    fold = fam.name not in ("SU", "U")
    if _folded(a, m, fold) != _folded(b, m, fold):
        return False
    if fam.kind != "SO-even" or any((2 * e) % m == 0 for e in a):
        return True
    return (_upper_half_count(a, m) - _upper_half_count(b, m)) % 2 == 0


def is_free_bruteforce(
    w: TorusActionWeights, max_order: int, mode: str | None = None
) -> FreenessVerdict:
    """Falsifier: enumerate torus elements whose coordinates are m-th roots
    of unity for m <= max_order and look for a conjugate left/right pair.

    Eigenvalue multisets are compared exactly (the exponents are rational),
    with the family's +- pairing for Sp and SO and, for SO(2n), the even
    sign-flip rule of its Weyl group.  A clean run proves nothing beyond
    the stated order; it only fails to falsify.
    """
    mode = _normalize_mode(mode or w.mode)
    fam = w.group
    for m in range(1, max_order + 1):
        for col in product(range(m), repeat=w.k):
            if all(c == 0 for c in col):
                continue
            a = w.left_exponents(col)
            b = w.right_exponents(col)
            if not _conjugate(fam, a, b, m):
                continue
            if mode == MOD_CENTER:
                ma = _all_congruent(a, m)
                mb = _all_congruent(b, m)
                if (
                    ma is not None
                    and mb is not None
                    and ma == mb
                    and _scalar_is_central(fam, ma, m)
                ):
                    continue
            witness = Witness(
                perm=tuple(range(w.n_rows)),
                signs=(1,) * w.n_rows,
                numerators=col,
                denominator=m,
                invariant_factors=(),
                kind="bruteforce",
            )
            return FreenessVerdict(free=False, mode=mode, witness=witness)
    return FreenessVerdict(
        free=True,
        mode=mode,
        note=f"no violation found up to order {max_order} (not a proof)",
    )


# ---------------------------------------------------------------------------
# closed-form parameter conditions
# ---------------------------------------------------------------------------

def eschenburg_free(p, q) -> bool:
    """Freeness of the circle diag(z^p) x diag(z^q) on SU(3): over every
    permutation of q, the first two entries of p - q(sigma) are coprime."""
    p = tuple(int(x) for x in p)
    q = tuple(int(x) for x in q)
    if len(p) != 3 or len(q) != 3:
        raise ValueError("expected two triples")
    if sum(p) != sum(q):
        raise ValueError("parameter triples must have equal sums")
    return all(
        gcd(p[0] - s[0], p[1] - s[1]) == 1 for s in permutations(q)
    )


def bazaikin_free(p) -> bool:
    """Freeness condition for the 5-parameter family on SU(5): all entries
    odd and every disjoint pair of pairwise sums has gcd exactly 2."""
    p = tuple(int(x) for x in p)
    if len(p) != 5:
        raise ValueError("expected a 5-tuple")
    if any(x % 2 == 0 for x in p):
        return False
    idx = range(5)
    for i, j in combinations(idx, 2):
        rest = [t for t in idx if t not in (i, j)]
        for k, l in combinations(rest, 2):
            if gcd(p[i] + p[j], p[k] + p[l]) != 2:
                return False
    return True


def eschenburg_positive_flag(p, q) -> bool:
    """Whether every q_i avoids the closed interval [min p, max p]; free
    parameters with this flag carry a positively curved metric (the metric
    itself is not constructed here)."""
    if not eschenburg_free(p, q):
        raise ValueError("positivity flag is only defined for free parameters")
    lo, hi = min(p), max(p)
    return all(qi < lo or qi > hi for qi in q)
