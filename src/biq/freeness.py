"""Exact freeness tests for two-sided torus actions, plus the closed-form
conditions for the classical 7- and 13-dimensional families.

A k-torus in G x G is described by integer weight matrices (W_L, W_R): the
element with torus coordinates theta acts through the diagonal characters
with exponents W_L theta on the left and W_R theta on the right.  The
action is free iff for every element sigma of the family's eigenvalue
symmetry group (permutations for SU/U, signed permutations for Sp and
SO(2n+1), even-signed permutations for SO(2n)) the character matrix
D_sigma = W_L - sigma . W_R has trivial kernel as a map of tori, which is
decided exactly by its Smith normal form: all k invariant factors equal
to 1, i.e. the rows of D_sigma span Z^k.

The symmetries are walked depth first, one row of D_sigma at a time, in
the order of conjugacy_symmetries.  Each row prefix keeps an echelon basis
of the lattice its rows span (one extended-gcd insertion per row, shared
by every symmetry with that prefix); a prefix whose rows already span Z^k
is pruned with all its completions.  The live sign prefixes under a
permutation prefix are a generator pulled one item at a time, and every
subtree below it iterates its own itertools.tee copy of that one
sequence, so each prefix is inserted once and only as far as the walk
gets.  A leaf's verdict depends on its row lattice Lambda alone: its
kernel is Lambda*/Z^k, strict mode fails iff Lambda != Z^k, and the
central pairs form a subgroup, which any generating set of the kernel
tests.  Each rule below skips a symmetry only if a move that keeps
Lambda turns it into an earlier symmetry of the group.  The first
failing symmetry has no such move, so it obeys every rule at once, and
every symmetry walked before it precedes it in the full order: it is
still the first failure found, with its own D_sigma and witness.  Every
walked leaf gets one Smith form, for the invariant factors and the
kernel generators alike, so strict mode takes at most one.

Twin rows.  If rows i < j of W_L are equal, swapping (perm[i], s_i) with
(perm[j], s_j) only permutes the rows of D_sigma; if rows p < p' of W_R
are equal, swapping the values p and p' in perm leaves every row as it
was.  So the walk visits only the symmetries with perm[i] < perm[j] for
left twins and with p placed before p' for right twins, since a swap that
undoes a broken rule gives an earlier symmetry.  A twin swap moves signs
without changing their product, so the SO(2n) parity is kept.

Zero rows settle their own signs.  If row j of W_L is zero, row j of
D_sigma is -s_j W_R[perm[j]]; if row perm[j] of W_R is zero, it is W_L[j]
for either sign.  Both signs span one lattice, so the walk tries only
s_j = +1 there: flipping s_j from -1 to +1 gives an earlier symmetry.  On
SO(2n) one flip leaves the group, so only the zero rows of W_L before the
last row qualify, and the last of them, c, keeps both signs to carry the
parity: flipping s_j = -1 at another such row j < c together with s_c
keeps the parity and Lambda and gives an earlier symmetry.  Without c,
the walk, whose last sign the parity fixes, calls the SO(4) circle
W_L = (0, 2), W_R = (0, 1) free; it fails only at perm (0, 1), signs
(-1, -1).

A room rule stops the prefixes that the twin rules cannot complete.  If
row j of W_L has r later twins, they take r distinct right rows above
perm[j], none used by the prefix, so the walk tries p for row j only if
at least r unused right rows lie above p.  Every prefix of a twin-ordered
symmetry passes, so no walked leaf lies under a stopped prefix.  The rule
is necessary, not sufficient: a prefix that passes it can still lack a
completion, where two twin classes of W_L compete for the same right rows
or where the right rows left above p wait for an earlier right twin; the
twin rules then end it at a later row.

"free modulo the center" additionally accepts kernel elements t whose
images satisfy u_L(t) = u_R(t) = a central scalar of G.  All arithmetic is
on arbitrary-precision integers; floating point never decides a verdict.

For SO(2n) the Weyl group consists of the even-signed permutations only,
and the walk fixes the last sign by the parity of the others, so it
never builds an odd-signed leaf.  An odd-signed symmetry sigma can add
no violation.  Its match is realized inside SO(2n) only by a kernel
element t with a real eigenvalue, i.e.
(W_L t)_i = 0 or 1/2 mod 1 at some row i (without one, the centralizer is
a product of unitary groups and lies in the identity component, so the
conjugation cannot be corrected).  Row i of D_sigma t is integral, so
(W_R t)_perm[i] = s_i (W_L t)_i mod 1, and with s_i flipped the row reads
2 (W_L t)_i = 0 mod 1: the even-signed sigma' that differs from sigma in s_i
has t in its kernel too.  In strict mode that kernel is nontrivial.  Modulo
the center t is a violation only if it is not a central pair, and then the
kernel of sigma' is not central either.  Either way sigma' fails already.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations, product, tee
from math import factorial, gcd, prod

from .algebra import AlgebraError, GroupFamily, as_int
from .intlattice import echelon_insert, echelon_spans_all, hnf_columns, smith_kernel

STRICT = "strict"
MOD_CENTER = "mod-center"
_MODES = (STRICT, MOD_CENTER)


def _normalize_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"unknown freeness mode {mode!r}")
    return mode


@dataclass(frozen=True)
class TorusActionWeights:
    """Integer weight matrices of a k-torus in G x G.

    w_left and w_right have one row per diagonal torus coordinate of G
    (GroupFamily.torus_rows: n on SU, U and Sp, the rank on SO, where
    circles act through the block-rotation embedding) and one column per
    circle of the k-torus.
    """

    group: GroupFamily
    k: int
    w_left: tuple
    w_right: tuple
    mode: str = STRICT

    def __post_init__(self):
        object.__setattr__(self, "k", as_int(self.k, "torus rank k"))
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
        # the k columns of (W_L; W_R) are independent iff its rows span a
        # rank-k lattice
        if len(hnf_columns(self.w_left + self.w_right)) < self.k:
            raise AlgebraError("weight columns do not define a k-torus")

    @property
    def n_rows(self) -> int:
        return self.group.torus_rows

    def left_exponents(self, col):
        return _exponents(self.w_left, col)

    def right_exponents(self, col):
        return _exponents(self.w_right, col)


def _as_int_rows(w):
    return tuple(tuple(as_int(x, "a weight") for x in row) for row in w)


def _exponents(w, col):
    """The exponents W @ col of one side's image of the torus element col."""
    return tuple(sum(x * c for x, c in zip(row, col)) for row in w)


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
    note: str = ""
    #: counts of the exact walk (is_free_exact only); not part of equality
    stats: dict = field(default_factory=dict, compare=False)

    def __bool__(self):
        return self.free


def _sign_choices(fam: GroupFamily) -> tuple:
    """The signs a symmetry may put on one row: +1 on SU and U, +-1 on Sp
    and SO (on SO(2n) the Weyl group keeps only their even products)."""
    return (1,) if fam.name in ("SU", "U") else (1, -1)


def conjugacy_symmetries(fam: GroupFamily, rows: int):
    """Eigenvalue symmetry group elements as (perm, signs), in a fixed
    deterministic order (permutations lexicographic, signs +1 first).
    On SO(2n) the odd-signed ones are included."""
    choices = _sign_choices(fam)
    for perm in permutations(range(rows)):
        for signs in product(choices, repeat=rows):
            yield perm, signs


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


def _kernel_is_central(w: TorusActionWeights, torsion, circles) -> tuple:
    """Check that every kernel element of the character map, given by its
    kernel generators, acts as an allowed central scalar.  Returns
    (ok, offending_generator | None)."""
    for col, order in torsion:
        if not _central_pair(w, w.left_exponents(col), w.right_exponents(col), order):
            return False, (col, order, "torsion")
    for col in circles:
        a = w.left_exponents(col)
        b = w.right_exponents(col)
        scalar_circle = (
            len(set(a)) == 1 and len(set(b)) == 1 and a[0] == b[0]
        )
        if not (scalar_circle and w.group.name == "U"):
            return False, (col, 2, "circle")
    return True, None


def _central_pair(w, exps_l, exps_r, order) -> bool:
    """Do the exponents (mod order) of u_L(t) and u_R(t) give the same
    central scalar of the family's group?"""
    ma = _all_congruent(exps_l, order)
    mb = _all_congruent(exps_r, order)
    return ma is not None and ma == mb and _scalar_is_central(w.group, ma, order)


class _Walk:
    """One _unpruned_symmetries walk.  Its state lives on an instance, not
    in a recursive closure, whose cycle would outlive every call."""

    def __init__(self, w: TorusActionWeights, stats: dict):
        self.w, self.stats, self.rows = w, stats, w.n_rows
        self.choices = _sign_choices(w.group)
        self.so_even = w.group.kind == "SO-even"
        stats["symmetries"] = factorial(self.rows) * len(self.choices) ** (
            self.rows - self.so_even)
        # row_of[j, p, s]: row j of D_sigma for perm[j] = p, s_j = s
        self.row_of = {}
        # twin rows: left_prev[j] is the last earlier row of W_L equal to
        # row j (or -1), left_later[j] the number of later rows equal to it,
        # right_before[p] the mask of earlier rows of W_R equal to row p
        self.left_prev, last = [], {}
        for j, row in enumerate(w.w_left):
            self.left_prev.append(last.get(row, -1))
            last[row] = j
        self.left_later = [w.w_left[j + 1:].count(row) for j, row in enumerate(w.w_left)]
        self.right_before, before = [], {}
        for p, row in enumerate(w.w_right):
            self.right_before.append(before.get(row, 0))
            before[row] = self.right_before[p] | 1 << p
        # zero rows, whose sign is +1 only; on SO(2n) only those of W_L,
        # less the last one before the last row, which carries the parity
        self.plus_left = [not any(row) for row in w.w_left]
        self.plus_right = [not (any(row) or self.so_even) for row in w.w_right]
        zero = [j for j in range(self.rows - 1) if self.plus_left[j]]
        if self.so_even and zero:
            self.plus_left[zero[-1]] = False

    def extend(self, live, j, p):
        stats, row_of = self.stats, self.row_of
        last = j + 1 == self.rows
        choices = (1,) if self.plus_left[j] or self.plus_right[p] else self.choices
        for prefix, basis in copy(live):
            for s in (prod(prefix),) if self.so_even and last else choices:
                row = row_of.get((j, p, s))
                if row is None:
                    row = row_of[j, p, s] = tuple(
                        [x - s * y for x, y in zip(self.w.w_left[j], self.w.w_right[p])])
                child = echelon_insert(basis, row)
                if last:
                    stats["leaves_examined"] += 1
                if not echelon_spans_all(child):
                    yield prefix + (s,), child

    def walk(self, perm, mask, live):
        j = len(perm)
        if j == self.rows:
            for signs, _ in copy(live):
                yield perm, signs, [list(self.row_of[i, p, s])
                                    for i, (p, s) in enumerate(zip(perm, signs))]
            return
        i, room = self.left_prev[j], self.left_later[j]
        right_before, unused = self.right_before, ((1 << self.rows) - 1) ^ mask
        for p in range(perm[i] + 1 if i >= 0 else 0, self.rows):
            if (unused >> p + 1).bit_count() < room:
                break  # too few right rows above p for row j's later twins
            if unused >> p & 1 and right_before[p] & mask == right_before[p]:
                child = tee(self.extend(live, j, p), 1)[0]
                if next(copy(child), None) is not None:
                    yield from self.walk(perm + (p,), mask | 1 << p, child)


def _unpruned_symmetries(w: TorusActionWeights, stats: dict):
    """Depth-first walk over the rows of D_sigma = W_L - sigma . W_R, whose
    row i is W_L[i] - s_i W_R[perm[i]].

    Yields (perm, signs, D_sigma), in conjugacy_symmetries order, for the
    symmetries whose rows do not span Z^k, less those that the twin,
    zero-row and room rules skip, so the first failing symmetry and its
    witness are kept.  The module docstring gives the rules, their proofs
    and how sign prefixes are pruned and replayed.  Sets
    stats["symmetries"] to |W| and counts in stats["leaves_examined"] the
    symmetries whose every row was inserted.
    """
    return _Walk(w, stats).walk((), 0, [((), (None,) * w.k)])


def is_free_exact(w: TorusActionWeights, mode: str | None = None) -> FreenessVerdict:
    """Exact freeness verdict for a weighted torus action.

    strict mode demands a trivial kernel for every symmetry image (all
    Smith invariant factors equal to 1); mod-center mode accepts kernels
    acting by central scalars.  All factors are 1 exactly when the rows of
    D_sigma span Z^k, which the walk of _unpruned_symmetries decides with
    echelon insertions; a symmetry that survives it gets one Smith form,
    for both the invariant factors and the kernel generators.  The
    reported witness belongs to the first failing symmetry in the
    iteration order, an even-signed one on SO(2n) (see the module
    docstring).  The verdict's stats count the symmetries (|W|), the
    leaves examined and the Smith forms.
    """
    mode = _normalize_mode(mode or w.mode)
    stats = {"symmetries": 0, "leaves_examined": 0, "smith_forms": 0}

    for perm, signs, d_matrix in _unpruned_symmetries(w, stats):
        stats["smith_forms"] += 1
        factors, torsion, circles = smith_kernel(d_matrix)
        offender = None
        if mode == MOD_CENTER:
            ok, offender = _kernel_is_central(w, torsion, circles)
            if ok:
                continue
        if offender is None:
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
        return FreenessVerdict(free=False, mode=mode, witness=witness, stats=stats)
    return FreenessVerdict(free=True, mode=mode, stats=stats)


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
    the stated order; it only fails to falsify.  A max_order below 1
    raises ValueError.
    """
    if max_order < 1:
        raise ValueError(f"the oracle's max order must be at least 1, not {max_order}")
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
            if mode == MOD_CENTER and _central_pair(w, a, b, m):
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
