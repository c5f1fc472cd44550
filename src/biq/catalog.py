"""Machine-readable classification data for equal-rank biquotient actions.

Contents:

- generators for the free torus normal forms on the special unitary and
  symplectic groups (two variants each), and the extra torus on SO(6)
  coming from its coincidence with SU(4);
- the two classification tables of maximal equal-rank extensions, with a
  per-row verifier (torus freeness, rank and dimension arithmetic, and,
  on the rows whose circle acts on both sides, that the torus is the
  circle times the maximal torus of the right factor's SU blocks).
  Each row is defined once: its printed text and the builder that turns
  its parameter into a group, a torus and the factors of U, whose
  dimensions and ranks come from GroupFamily (only G2 is given by size);
- enumerators for the 7-dimensional circle-quotient family on SU(3) and
  the 13-dimensional family on SU(5) that walk canonical forms: only
  tuples with every side sorted are candidates, and each is kept iff it
  is its own eschenburg_canonical (resp. bazaikin_canonical);
- lattice-equivalence tests for weight matrices, and one desk-scale
  exhaustive two-torus scan, run on SU(3) and on Sp(2), backing the
  uniqueness statements for the rank-2 groups.

One integer rule decides every lattice question.  An action's lattice N,
the primitive closure of its stacked weight columns (left block on top,
the scalar circle added on the unitary families), depends only on the
image subtorus.  Its annihilator A, the integer rows of one smith_kernel
of the raw columns, has A v = 0 iff the integer v lies in N.  Two actions
generate one subtorus (lattice_equal) iff the annihilators have one shape
(N_1, N_2 of equal rank) and A_1 kills the columns of the second; they are
equivalent (lattice_equivalent) iff the shapes match and one map t, a
per-side eigenvalue symmetry on each side and maybe the side swap, gives
A_1 t(v) = 0 on them.  That is exact: a signed permutation maps a
saturated lattice onto a saturated one, so a t(N_2) inside the span of N_1
of equal rank is N_1.  Since t acts blockwise, lattice_equivalent joins
the per-side images, one side's in a set and the other's looked up, in
O(|W|); the scan needs membership per vector and map and reads a
(|W|, |W|) table of it (_images_in).  Only lattice_canonical_key computes
Hermite forms, the least over all images.  Each side's maps are
freeness.conjugacy_symmetries, and on SO(2n) only equal sign parities
pair: a map g -> a phi(g) b (phi an automorphism; inversion swaps the
sides) changes signs evenly on each side (inner) or oddly on both
(conjugation by a reflection); on one side alone it needs det(a b) = -1,
and it makes the free spin6_extra non-free.  Triality on SO(8) is no
signed permutation and stays out.  The scan decides strict freeness of
all weight pairs by the gcd of the 2 x 2 minors of every symmetry image,
the product of the Smith invariant factors, and classes each free pair
as it stands, since it spans a saturated lattice already.

Rows whose right factor needs a spin or exceptional embedding are stored
with full textual fidelity but verified only at the torus level.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .algebra import GroupFamily, so, sp, su
from .freeness import (
    MOD_CENTER,
    STRICT,
    TorusActionWeights,
    bazaikin_free,
    conjugacy_symmetries,
    eschenburg_free,
    eschenburg_positive_flag,
    is_free_exact,
)
from .intlattice import hnf_columns, saturate_columns, smith_kernel

#: Recorded metadata only: the exceptional groups admit no free two-sided
#: torus actions of maximal rank.  No computation here claims to verify
#: this; it is stored so the catalog covers every simple family.
EXCEPTIONAL_GROUPS = {
    "groups": ("G2", "F4", "E6", "E7", "E8"),
    "statement": "no free two-sided torus actions of maximal rank",
    "verified": "recorded",
}


# ---------------------------------------------------------------------------
# torus normal forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorusNormalForm:
    name: str  # "S1l" | "S2l" | "P1" | "P2" | "P3"
    weights: TorusActionWeights


def su_tori(n: int, l: int, variant: int) -> TorusNormalForm:
    """The two (n-1)-torus normal forms on SU(n), 1 <= l <= n/2.

    Coordinates are (z, w_1, ..., w_{n-2}).  Variant 1 puts l copies of
    z^2 on the left (so the determinants match); variant 2 puts a single
    z^2 in the last slot.
    """
    if n < 3:
        raise ValueError("the normal forms need n >= 3")
    if not 1 <= l <= n // 2:
        raise ValueError(f"l must satisfy 1 <= l <= n/2, got l={l}, n={n}")
    k = n - 1
    wl = [[0] * k for _ in range(n)]
    wr = [[0] * k for _ in range(n)]
    if variant == 1:
        for i in range(l):
            wl[i][0] = 2
        wr[0][0] = 1
        for j in range(1, k):
            wr[0][j] = -1  # z \bar w_1 ... \bar w_{n-2}
        for i in range(1, l):
            wr[i][0] = 2
            wr[i][i] = 1  # z^2 w_{i}
        for i in range(l, n - 1):
            wr[i][i] = 1  # w_i
        wr[n - 1][0] = 1  # z
    elif variant == 2:
        wl[n - 1][0] = 2
        wr[0][0] = 1
        for j in range(1, l):
            wr[0][j] = -1  # z \bar w_1 ... \bar w_{l-1}
        for i in range(1, n - 1):
            wr[i][i] = 1  # w_1 ... w_{n-2}
        wr[n - 1][0] = 1
        for j in range(l, k):
            wr[n - 1][j] = -1  # z \bar w_l ... \bar w_{n-2}
    else:
        raise ValueError("variant must be 1 or 2")
    w = TorusActionWeights(su(n), k, wl, wr, mode=MOD_CENTER)
    return TorusNormalForm(f"S{variant}l", w)


def su_tori_rewritten(n: int, variant: int) -> TorusNormalForm:
    """Alternative presentations of the l = n/2 forms for even n.

    Variant 1: (z, ..., z, zbar, ..., zbar) against
    (wbar_1 ... wbar_{n-2}, w_1, ..., w_{n-2}, 1).  Variant 2:
    (z, ..., z, z^{n-1}) against
    (z^{n-1} wbar_1 ... wbar_{m-1}, w_1, ..., w_{n-2},
     z^{n-1} wbar_m ... wbar_{n-2}); the z-powers on the right are forced
    by the equal-determinant constraint and recover the same subgroup.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError("rewritten forms exist for even n >= 4")
    m = n // 2
    k = n - 1
    wl = [[0] * k for _ in range(n)]
    wr = [[0] * k for _ in range(n)]
    if variant == 1:
        for i in range(m):
            wl[i][0] = 1
        for i in range(m, n):
            wl[i][0] = -1
        for j in range(1, k):
            wr[0][j] = -1
        for i in range(1, n - 1):
            wr[i][i] = 1
    elif variant == 2:
        for i in range(n - 1):
            wl[i][0] = 1
        wl[n - 1][0] = n - 1
        wr[0][0] = n - 1
        for j in range(1, m):
            wr[0][j] = -1
        for i in range(1, n - 1):
            wr[i][i] = 1
        wr[n - 1][0] = n - 1
        for j in range(m, k):
            wr[n - 1][j] = -1
    else:
        raise ValueError("variant must be 1 or 2")
    w = TorusActionWeights(su(n), k, wl, wr, mode=MOD_CENTER)
    return TorusNormalForm(f"S{variant}l-rewritten", w)


def p_torus_weights(n: int, variant: int, family: GroupFamily) -> TorusActionWeights:
    """The two n-torus normal forms, on Sp(n) or through the block-circle
    embedding on SO(2n)/SO(2n+1).  Coordinates (z, w_1, ..., w_{n-1})."""
    if n < 2:
        raise ValueError("the normal forms need rank >= 2")
    k = n
    wl = [[0] * k for _ in range(n)]
    wr = [[0] * k for _ in range(n)]
    if variant == 1:
        wl[n - 1][0] = 1  # diag(1, ..., 1, z)
        for i in range(n - 1):
            wr[i][i + 1] = 1
        for j in range(1, k):
            wr[n - 1][j] = -1  # conjugate product in the last slot
    elif variant == 2:
        for i in range(n):
            wl[i][0] = 1  # diag(z, ..., z)
        for i in range(n - 1):
            wr[i][i + 1] = 1  # diag(w_1, ..., w_{n-1}, 1)
    else:
        raise ValueError("variant must be 1 or 2")
    return TorusActionWeights(family, k, wl, wr, mode=MOD_CENTER)


def sp_tori(n: int, variant: int) -> TorusNormalForm:
    """The two free n-torus normal forms on Sp(n)."""
    return TorusNormalForm(f"P{variant}", p_torus_weights(n, variant, sp(n)))


def spin6_extra() -> TorusNormalForm:
    """The third free 3-torus on SO(6): (z, z, z) against
    (z w_1, w_2, wbar_1 wbar_2), realized through the block circles.

    It exists because SO(6) is covered by SU(4); the avatar on the cover
    is recorded but not constructed here.
    """
    wl = ((1, 0, 0), (1, 0, 0), (1, 0, 0))
    wr = ((1, 1, 0), (0, 0, 1), (0, -1, -1))
    w = TorusActionWeights(so(6), 3, wl, wr, mode=MOD_CENTER)
    return TorusNormalForm("P3", w)


# ---------------------------------------------------------------------------
# lattice equivalence of weighted torus actions
# ---------------------------------------------------------------------------

def _scalar_circle(fam: GroupFamily, length: int) -> list:
    """The scalar circle as a stacked column, on the unitary families only
    (an empty list otherwise): scalars act trivially on the
    determinant-one group, so actions that differ by them coincide."""
    return [(1,) * length] if fam.name in ("SU", "U") else []


def _weight_columns(w: TorusActionWeights) -> list:
    """The action's stacked weight columns (left block on top), extended
    by the scalar circle: the primitive closure N of their lattice
    depends only on the image subtorus."""
    cols = list(zip(*(w.w_left + w.w_right)))
    return cols + _scalar_circle(w.group, len(cols[0]))


def _annihilator(w: TorusActionWeights) -> np.ndarray:
    """Integer rows A whose common kernel is the rational span of the
    action's saturated lattice N: an integer v lies in N iff A v = 0."""
    cols = _weight_columns(w)
    return np.array(smith_kernel(cols)[2], dtype=np.int64).reshape(-1, len(cols[0]))


@functools.lru_cache(maxsize=None)
def _side_symmetries(fam: GroupFamily):
    """The family's maps of one side, conjugacy_symmetries(fam), as
    read-only arrays: (index, sign) of shape (|W|, fam.torus_rows),
    image[s, c] = sign[s, c] * v[index[s, c]], and parity: two maps pair
    iff their parities agree (odd sign counts on SO(2n), 0 elsewhere)."""
    index, sign = (np.array(a, dtype=np.int64) for a in zip(*conjugacy_symmetries(fam)))
    parity = (sign < 0).sum(axis=1) % 2 * (fam.kind == "SO-even")
    index.flags.writeable = sign.flags.writeable = parity.flags.writeable = False
    return index, sign, parity


def _side_images(vecs: np.ndarray, fam: GroupFamily):
    """(left, right, parity): each side's maps applied to that block of
    every stacked vector, as (|W|, vectors, n) arrays, and their parity."""
    index, sign, parity = _side_symmetries(fam)
    return *(sign[:, None] * block[:, index].transpose(1, 0, 2)
             for block in np.split(vecs, 2, axis=1)), parity


def _images_in(annihilator: np.ndarray, vecs: np.ndarray, fam: GroupFamily):
    """member[v, t]: does the map t carry the stacked vector vecs[v] into
    the lattice that `annihilator` cuts out?  A map acts blockwise, so
    with A = [A_L | A_R], A t(v) = A_L sigma(v_L) + A_R sigma'(v_R) with
    the sides kept and A_L sigma'(v_R) + A_R sigma(v_L) with them swapped:
    per row of A, two per-side tables meet in one (|W|, |W|, vectors)
    boolean array, False where the parities of sigma and sigma' differ."""
    left, right, parity = _side_images(vecs, fam)
    member = np.empty((2, len(left), len(right), len(vecs)), dtype=bool)
    member[:] = (parity[:, None] == parity)[:, :, None]
    for a_left, a_right in zip(*np.split(annihilator, 2, axis=1)):
        for table, (x, y) in zip(member, ((a_left, a_right), (a_right, a_left))):
            table &= (left @ x)[:, None] == -(right @ y)[None]
    return member.reshape(-1, len(vecs)).T


def _least_image_hnf(cols, fam: GroupFamily):
    """The least Hermite form over the images of the lattice spanned by
    the stacked columns `cols` (2 |W|^2 maps, half of them on SO(2n)):
    equal for two lattices iff one map carries one onto the other, since
    the maps form a group.  The images are built one at a time, each
    read by one hnf_columns, and never held all at once."""
    left, right, parity = (x.tolist() for x in _side_images(np.array(cols), fam))
    return min(hnf_columns(image)
               for a, pa in zip(left, parity) for b, pb in zip(right, parity) if pa == pb
               for image in (map(list.__add__, a, b), map(list.__add__, b, a)))


def lattice_canonical_key(w: TorusActionWeights):
    """Canonical key of the action's saturated lattice N (see the module
    docstring) modulo the family's maps: equal keys mean equivalent torus
    actions."""
    return _least_image_hnf(saturate_columns(_weight_columns(w)), w.group)


def lattice_equivalent(w1: TorusActionWeights, w2: TorusActionWeights) -> bool:
    """Whether one of the family's maps carries the saturated lattice of w2
    onto that of w1 (see the module docstring for why one annihilator
    decides it).  With the sides kept a map passes iff A_L sigma(V_L) =
    -A_R sigma'(V_R), swapped iff A_R sigma(V_L) = -A_L sigma'(V_R): per
    pairing, the right products are looked up among the left ones of the
    same parity."""
    if w1.group != w2.group:
        return False
    annihilator = _annihilator(w1)
    if annihilator.shape != _annihilator(w2).shape:
        return False
    left, right, parity = _side_images(np.array(_weight_columns(w2)), w1.group)
    a_left, a_right = np.split(annihilator, 2, axis=1)
    for x, y in ((a_left, a_right), (a_right, a_left)):
        kept = {(p, image.tobytes()) for p, image in zip(parity.tolist(), left @ x.T)}
        if any((p, (-image).tobytes()) in kept for p, image in zip(parity.tolist(), right @ y.T)):
            return True
    return False


def lattice_equal(w1: TorusActionWeights, w2: TorusActionWeights) -> bool:
    """Equality of the generated subtori (no symmetry applied): one group,
    and the saturated lattices, extended by the scalar circle for the
    unitary families, have equal rank and the first annihilates the second."""
    if w1.group != w2.group:
        return False
    annihilator = _annihilator(w1)
    return (annihilator.shape == _annihilator(w2).shape
            and not (annihilator @ np.array(_weight_columns(w2)).T).any())


# ---------------------------------------------------------------------------
# classification tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowInstance:
    """A table row at one parameter, on the group torus.group.  Each factor
    of U = U1 x U2 gives its .dim and .rank; a circle that acts on both
    sides records its left and right weights and the rows of each SU block
    of the right factor."""

    torus: TorusActionWeights
    factors: tuple
    quotient_dim: int | None
    circle: tuple | None  # (left weights, right weights, right blocks)


@dataclass(frozen=True)
class ClassificationEntry:
    """A table row as printed; `build` maps its parameter (None on a row
    with a fixed group) to the RowInstance that verify_entry checks."""

    row: int
    table: str  # "A" | "B"
    group_name: str
    parameter_note: str
    torus_name: str
    u1_description: str
    u2_description: str
    quotient: str | None
    verified: str  # "full" | "torus-only" | "recorded"
    note: str = ""
    smallest: object = None  # the smallest legal parameter, None if fixed
    build: Callable = field(kw_only=True, repr=False, compare=False)


#: G2 is not a classical family; the rows need only its size.
_G2 = SimpleNamespace(dim=14, rank=2)


def _s_row(n, l, variant, factors, quotient_dim):
    """A row on the torus S_{variant,l} of SU(n)."""
    return RowInstance(su_tori(n, l, variant).weights, factors, quotient_dim, None)


def _circle_row(nl, variant):
    """Row 1 (variant 1) or 9 (variant 2) at (n, l): S_{variant,l} on SU(n)
    with its circle as printed and the SU blocks of U2 = SU(n-1), resp.
    SU(l)SU(n-l)."""
    n, l = nl
    if n < 5 or not 2 <= l < n / 2:
        raise ValueError(f"rows 1 and 9 need n >= 5 and 2 <= l < n/2, got {nl}")
    if variant == 1:
        circle = ((2,) * l + (0,) * (n - l),
                  (1,) + (2,) * (l - 1) + (0,) * (n - 1 - l) + (1,),
                  (tuple(range(n - 1)),))
        factors, quotient_dim = (so(2), su(n - 1)), 2 * (n - 1)
    else:
        circle = ((0,) * (n - 1) + (2,), (1,) + (0,) * (n - 2) + (1,),
                  (tuple(range(l)), tuple(range(l, n))))
        factors, quotient_dim = (so(2), su(l), su(n - l)), None
    return RowInstance(su_tori(n, l, variant).weights, factors, quotient_dim, circle)


def _p_row(group, variant, factors, quotient_dim):
    """A row on the torus P_variant of a rank-n group: Sp(n), SO(2n) or
    SO(2n+1)."""
    return RowInstance(p_torus_weights(group.rank, variant, group), factors,
                       quotient_dim, None)


def _row14(pq):
    """Row 14 at odd block sizes (p, q): P_2 on SO(p + q)."""
    p, q = pq
    if p % 2 == 0 or q % 2 == 0:
        raise ValueError("both block sizes must be odd")
    return _p_row(so(p + q), 2, (so(2), so(p), so(q)), None)


_TABLE = [
    ClassificationEntry(1, "A", "SU(n)", "n >= 5", "S_{1,l}, 2 <= l < n/2",
                        "S^1 (semidirect, both sides)", "SU(n-1)", "CP^{n-1}",
                        "full", smallest=(5, 2),
                        build=lambda nl: _circle_row(nl, 1)),
    ClassificationEntry(2, "A", "SU(2n)", "n >= 2", "S_{1,n}",
                        "diagonal SU(2)", "SU(2n-1)", "HP^{n-1}", "full",
                        smallest=2,
                        build=lambda n: _s_row(2 * n, n, 1, (su(2), su(2 * n - 1)),
                                               4 * (n - 1))),
    ClassificationEntry(3, "A", "Spin(7)", "", "P_1^3", "Spin(3)",
                        "G_2", "S^4", "torus-only",
                        note="nonabelian factor needs the exceptional embedding",
                        build=lambda _: _p_row(so(7), 1, (so(3), _G2), 4)),
    ClassificationEntry(4, "A", "Spin(8)", "", "P_1^4", "Spin(3)",
                        "Spin(7)'", "S^4", "torus-only",
                        note="nonabelian factor needs the spin embedding",
                        build=lambda _: _p_row(so(8), 1, (so(3), so(7)), 4)),
    ClassificationEntry(5, "A", "Spin(9)", "", "P_1^4", "Spin(3)",
                        "Spin(7)'", "HP^3", "torus-only",
                        note="nonabelian factor needs the spin embedding",
                        build=lambda _: _p_row(so(9), 1, (so(3), so(7)), 12)),
    ClassificationEntry(6, "A", "SO(2n)", "n >= 3", "P_2^n", "diagonal SO(2)",
                        "SO(2n-1)", "CP^{n-1}", "full", smallest=3,
                        build=lambda n: _p_row(so(2 * n), 2, (so(2), so(2 * n - 1)),
                                               2 * (n - 1))),
    ClassificationEntry(7, "A", "SO(4n)", "n >= 2", "P_2^{2n}", "diagonal SU(2)",
                        "SO(4n-1)", "HP^{n-1}", "full", smallest=2,
                        build=lambda n: _p_row(so(4 * n), 2, (su(2), so(4 * n - 1)),
                                               4 * (n - 1))),
    ClassificationEntry(8, "A", "Sp(n)", "n >= 2", "P_2^n", "diagonal Sp(1)",
                        "Sp(n-1)", "HP^{n-1}", "full", smallest=2,
                        build=lambda n: _p_row(sp(n), 2, (sp(1), sp(n - 1)),
                                               4 * (n - 1))),
    ClassificationEntry(9, "B", "SU(n)", "n >= 5", "S_{2,l}, 2 <= l < n/2",
                        "S^1 (semidirect, both sides)", "SU(l)SU(n-l)", None,
                        "full", smallest=(5, 2),
                        build=lambda nl: _circle_row(nl, 2)),
    ClassificationEntry(10, "B", "SU(2n)", "n >= 2", "S_{2,n}",
                        "S^1 (left only)", "SU(n)SU(n)", None, "full",
                        smallest=2,
                        build=lambda n: _s_row(2 * n, n, 2, (so(2), su(n), su(n)), None)),
    ClassificationEntry(11, "B", "SO(2n)", "n >= 5", "P_1^n", "SO(3)",
                        "SU(n)", None, "full", smallest=5,
                        build=lambda n: _p_row(so(2 * n), 1, (so(3), su(n)), None)),
    ClassificationEntry(12, "B", "SO(2n+1)", "n >= 5", "P_1^n", "SO(3)",
                        "SU(n)", None, "full", smallest=5,
                        build=lambda n: _p_row(so(2 * n + 1), 1, (so(3), su(n)), None)),
    ClassificationEntry(13, "B", "SO(2n+1)", "n >= 3", "P_2^n", "diagonal SO(2)",
                        "SO(2n-1)", None, "full", smallest=3,
                        build=lambda n: _p_row(so(2 * n + 1), 2, (so(2), so(2 * n - 1)),
                                               None)),
    ClassificationEntry(14, "B", "SO(2n)", "2n = p + q, p, q odd", "P_2^n",
                        "diagonal SO(2)", "SO(p)SO(q)", None, "full",
                        note=("this entry was missing in full generality in the "
                              "original classification, so completeness carries "
                              "a caveat; implemented as printed"),
                        smallest=(3, 3), build=_row14),
    ClassificationEntry(15, "B", "SO(4n+1)", "n >= 2", "P_2^{2n}",
                        "diagonal SU(2)", "SO(4n-1)", None, "full",
                        smallest=2,
                        build=lambda n: _p_row(so(4 * n + 1), 2, (su(2), so(4 * n - 1)),
                                               None)),
    ClassificationEntry(16, "B", "Sp(n)", "n >= 3", "P_1^n", "Sp(1)",
                        "SU(n)", None, "full", smallest=3,
                        build=lambda n: _p_row(sp(n), 1, (sp(1), su(n)), None)),
    ClassificationEntry(17, "B", "Sp(4)", "", "P_1^4", "Sp(1)",
                        "SU(2)^3", None, "torus-only",
                        note="the tensor-product embedding of the right factor "
                             "is out of scope",
                        build=lambda _: _p_row(sp(4), 1, (sp(1), su(2), su(2), su(2)),
                                               None)),
]


def table_entries(table: str):
    """All rows of the requested classification table ("A" or "B")."""
    if table not in ("A", "B"):
        raise ValueError("table must be 'A' or 'B'")
    return [entry for entry in _TABLE if entry.table == table]


def _circle_check(inst: RowInstance) -> bool:
    """Whether the row's torus is (lattice_equal to) its circle together
    with the maximal tori of the right factor's SU blocks."""
    left, right, blocks = inst.circle
    eye = np.eye(len(right), dtype=int)
    roots = [eye[i] - eye[j] for b in blocks for i, j in zip(b, b[1:])]
    wl = np.column_stack([left] + [0 * r for r in roots])
    wr = np.column_stack([right] + roots)
    return lattice_equal(inst.torus,
                         TorusActionWeights(inst.torus.group, wr.shape[1], wl, wr))


def verify_entry(entry: ClassificationEntry, n=None) -> dict:
    """Verify one table row at a parameter (default: its smallest legal one).

    Checks: the torus passes the exact freeness test (mod center), the
    extension has full rank, the dimension arithmetic matches the stated
    quotient for the first table, and the torus of a row whose circle
    acts on both sides is that circle times the maximal torus of the
    right factor.  Rows needing spin or exceptional embeddings only get
    the torus check and report "torus-only".
    """
    if n is None:
        n = entry.smallest
    inst = entry.build(n)
    checks = []

    verdict = is_free_exact(inst.torus, MOD_CENTER)
    checks.append(("torus_free", verdict.free, f"mode={verdict.mode}"))

    group = inst.torus.group
    rank_u = sum(f.rank for f in inst.factors)
    rank_g = group.rank
    checks.append(("rank_equal", rank_u == rank_g, f"rank U={rank_u}, rank G={rank_g}"))
    checks.append(
        ("torus_rank_matches", inst.torus.k == rank_g,
         f"torus rank {inst.torus.k}")
    )

    dim_u = sum(f.dim for f in inst.factors)
    dim_g = group.dim
    if inst.quotient_dim is not None:
        ok = dim_g - dim_u == inst.quotient_dim
        checks.append(
            ("quotient_dimension", ok,
             f"dim G - dim U = {dim_g - dim_u}, expected {inst.quotient_dim}")
        )
    else:
        checks.append(
            ("dimension_recorded", True, f"dim G - dim U = {dim_g - dim_u}")
        )

    if inst.circle is not None:
        blocks = ", ".join(f"{b[0]}..{b[-1]}" for b in inst.circle[2])
        checks.append(("torus_is_circle_and_right_blocks", _circle_check(inst),
                       f"right SU blocks on rows {blocks}"))

    passed = all(ok for _, ok, _ in checks)
    return {
        "row": entry.row,
        "table": entry.table,
        "group": str(group),
        "verified": entry.verified,
        "parameter": n,
        "checks": checks,
        "passed": passed,
        "note": entry.note,
    }


# ---------------------------------------------------------------------------
# parameter-family enumerators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EschenburgRecord:
    p: tuple
    q: tuple
    free: bool
    positive_flag: bool

    @property
    def quotient_dim(self) -> int:
        return 7

    def to_dict(self):
        return {"family": "eschenburg", "p": list(self.p), "q": list(self.q),
                "free": self.free, "positive": self.positive_flag,
                "quotient_dim": self.quotient_dim}


@dataclass(frozen=True)
class BazaikinRecord:
    p: tuple
    free: bool

    @property
    def quotient_dim(self) -> int:
        return 13

    def to_dict(self):
        return {"family": "bazaikin", "p": list(self.p), "free": self.free,
                "quotient_dim": self.quotient_dim}


def eschenburg_canonical(p, q):
    """Canonical representative under sorting, the simultaneous sign flip,
    and the side swap: the image with lexicographically largest p (then q)."""
    images = []
    for pp, qq in ((p, q), (q, p)):
        for sign in (1, -1):
            images.append(
                (
                    tuple(sorted((sign * x for x in pp), reverse=True)),
                    tuple(sorted((sign * x for x in qq), reverse=True)),
                )
            )
    return max(images)


def enumerate_eschenburg(bound: int):
    """All canonical circle parameters on SU(3) with entries bounded by
    `bound` and matching sums, flagged free / positively-curvable.

    A canonical form has both sides sorted, so only pairs of non-increasing
    triples of equal sum are candidates, each kept iff it is its own
    eschenburg_canonical."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    entries = range(bound, -bound - 1, -1)
    triples = sorted(itertools.combinations_with_replacement(entries, 3), key=sum)
    records = []
    for p, q in sorted(pair for _, same_sum in itertools.groupby(triples, key=sum)
                       for pair in itertools.product(same_sum, repeat=2)):
        if not (any(p) or any(q)) or eschenburg_canonical(p, q) != (p, q):
            continue
        free = eschenburg_free(p, q)
        # the printed interval condition is not symmetric in the two
        # sides while the side swap is an equivalence of actions, so
        # the record is flagged when either orientation satisfies it
        positive = free and (eschenburg_positive_flag(p, q)
                             or eschenburg_positive_flag(q, p))
        records.append(EschenburgRecord(p, q, free, positive))
    return records


def bazaikin_canonical(p):
    a = tuple(sorted(p, reverse=True))
    b = tuple(sorted((-x for x in p), reverse=True))
    return max(a, b)


def enumerate_bazaikin(bound: int):
    """All canonical 5-tuples of odd entries in [-bound, bound], up to
    sorting and a global sign, flagged by the closed-form freeness test
    (an even bound takes the odd entries below it).  Only non-increasing
    tuples are candidates, each kept iff it is its own bazaikin_canonical."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    odd = [x for x in range(bound, -bound - 1, -1) if x % 2 != 0]
    return [BazaikinRecord(p, bazaikin_free(p))
            for p in sorted(itertools.combinations_with_replacement(odd, 5))
            if bazaikin_canonical(p) == p]


# ---------------------------------------------------------------------------
# desk-scale exhaustive scans for the rank-2 uniqueness statements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    """Outcome of an exhaustive two-torus scan.

    free_pairs counts the unordered pairs of weight vectors (entries
    bounded by `bound`) whose 2-torus acts strictly freely;
    two_sided_classes holds the sorted lattice_canonical_key of every class
    among them that acts on both sides (a pair in the normal form's orbit
    takes the normal form's key, any other pair its own full key), and
    matches_normal_form says whether that is exactly the class of the
    family's normal form.
    """

    family: str
    bound: int
    free_pairs: int
    two_sided_classes: tuple
    matches_normal_form: bool


def corollary_su3_weights() -> TorusActionWeights:
    """The unique genuinely two-sided free 2-torus on SU(3):
    (z, w, zw) against (1, 1, z^2 w^2)."""
    return TorusActionWeights(
        su(3), 2, ((1, 0), (0, 1), (1, 1)), ((0, 0), (0, 0), (2, 2)),
        mode=STRICT,
    )


def corollary_sp2_weights() -> TorusActionWeights:
    """The unique genuinely two-sided free 2-torus on Sp(2):
    (z, z) against (w, 1)."""
    return TorusActionWeights(sp(2), 2, ((1, 0), (1, 0)), ((0, 1), (0, 0)),
                              mode=STRICT)


def _weight_grid(fam: GroupFamily, bound: int) -> np.ndarray:
    """Every nonzero stacked circle weight (left, right) with entries in
    [-bound, bound], in lexicographic order; on SU the two sides need
    equal sums (equal determinants)."""
    n = fam.n
    vecs = np.indices((2 * bound + 1,) * (2 * n)).reshape(2 * n, -1).T - bound
    if fam.name == "SU":
        vecs = vecs[vecs[:, :n].sum(axis=1) == vecs[:, n:].sum(axis=1)]
    return vecs[np.any(vecs != 0, axis=1)]


# rows of the circle-free grid per pass of the pair search: bounds its
# (rows, later vectors) minor arrays
PAIR_BLOCK = 128


def _strict_free_pairs(vecs: np.ndarray, fam: GroupFamily) -> np.ndarray:
    """Index pairs i < j into `vecs` whose 2-torus acts strictly freely,
    as a (pairs, 2) array in lexicographic order.

    The pair is free iff for every symmetry sigma the n x 2 character
    matrix D_sigma = [d_sigma(v_i) | d_sigma(v_j)], d_sigma(p, q) =
    p - sigma(q), has both invariant factors equal to 1, i.e. its 2 x 2
    minors have gcd d_1 d_2 = 1.  A pair can only pass if each circle is
    strictly free on its own (every d_sigma(v) primitive), so the other
    vectors are dropped first.  The rest are taken PAIR_BLOCK rows at a
    time: the first symmetry's minors of the block against every later
    vector are one array pass, and each further symmetry tests only the
    pairs still standing.  This is the criterion is_free_exact applies in
    strict mode on SU and Sp, where every symmetry is realized by a
    conjugation; on SO(2n) is_free_exact counts only the even-signed ones.
    The two stay separate on purpose: is_free_exact on each candidate would
    cost about 2 000 times as much (the 1 128 + 18 336 candidates of SU(3)
    at bound 1 and Sp(2) at bound 2: 1.0 ms against 2.0 s on a shared
    2-vCPU x86-64 host), and a test checks on every pair at bound 1 that
    both accept the same pairs.  A minor reaches 8 max|v|^2, which must
    fit an int64."""
    n = vecs.shape[1] // 2
    left, right = vecs[:, :n].T, vecs[:, n:].T
    # images[sigma, r] is coordinate r of d_sigma on every vector
    index, sign, _ = _side_symmetries(fam)
    images = left - sign[:, :, None] * right[index]
    circle_free = np.flatnonzero(
        (np.gcd.reduce(np.abs(images), axis=1) == 1).all(axis=0))
    images = images[:, :, circle_free]
    count = len(circle_free)
    minors = list(itertools.combinations(range(n), 2))

    def coprime(a, b):
        # do the 2 x 2 minors of [a | b], coordinates first, have gcd 1?
        return abs(functools.reduce(np.gcd, [a[r] * b[s] - a[s] * b[r]
                                             for r, s in minors])) == 1

    found = [np.empty((0, 2), dtype=np.intp)]
    for start in range(0, count, PAIR_BLOCK):
        rows = np.arange(start, min(start + PAIR_BLOCK, count))
        later = np.arange(start + 1, count)
        ok = coprime(images[0][:, rows, None], images[0][:, None, later])
        hits = np.flatnonzero(ok & (rows[:, None] < later))
        a, b = start + hits // len(later), start + 1 + hits % len(later)
        for img in images[1:]:
            keep = coprime(img.take(a, axis=1), img.take(b, axis=1))
            a, b = a[keep], b[keep]
        found.append(np.column_stack((circle_free[a], circle_free[b])))
    return np.concatenate(found)


def _pair_flags(vecs: np.ndarray, pairs: np.ndarray, fam: GroupFamily,
                annihilator: np.ndarray):
    """(one_sided, in_orbit) per free pair of _strict_free_pairs, against
    the lattice N that `annihilator` (from _annihilator) cuts out;
    _scan_two_torus says why both flags are exact.  A block is trivial
    when it is scalar on SU (scalars act trivially on the determinant-one
    group) and zero otherwise.  One _images_in table over the vectors in
    some pair decides the orbit membership of all pairs."""
    used, pair_rows = np.unique(pairs, return_inverse=True)
    pair_rows = pair_rows.reshape(pairs.shape)
    vecs = vecs[used]
    blocks = np.split(vecs, 2, axis=1)
    if fam.name == "SU":
        trivial = [(b == b[:, :1]).all(axis=1) for b in blocks]
    else:
        trivial = [~b.any(axis=1) for b in blocks]
    one_sided = np.any([t[pair_rows].all(axis=1) for t in trivial], axis=0)
    member = _images_in(annihilator, vecs, fam)
    in_orbit = (member[pair_rows[:, 0]] & member[pair_rows[:, 1]]).any(axis=1)
    return one_sided, in_orbit


def _scan_two_torus(fam: GroupFamily, bound: int,
                    corollary: TorusActionWeights) -> ScanResult:
    """Exhaustive scan of 2-torus weights on a rank-2 group `fam` with
    entries bounded by `bound`: every strictly free, genuinely two-sided
    action must be lattice equivalent to `corollary`.

    Each free pair (v_i, v_j), with the scalar circle 1 added on SU, spans
    a saturated lattice.  Take one symmetry sigma; the pair passed the
    scan because d_sigma(v_i), d_sigma(v_j) have 2 x 2 minors of gcd 1, so
    they span a saturated rank-2 lattice in Z^n, and d_sigma(1) = 0 on SU.
    If an integer x equals a v_i + b v_j (+ c 1) with a, b, c rational,
    then d_sigma(x) = a d_sigma(v_i) + b d_sigma(v_j) is integral, which
    forces a and b to be integers, and then c 1 = x - a v_i - b v_j is
    integral too.  So the raw lattice is the primitive closure, of rank 2
    (3 on SU), the rank of the corollary's saturated lattice N, and
    lattice_canonical_key would see the same lattice.

    That makes the classing a few array passes (_pair_flags).  A pair
    acts on one side only when both vectors have a trivial block on the
    same side (the scalar circle is trivial on both): trivial blocks form
    a linear subspace.  A pair lies in N's orbit iff one map carries both
    vectors into N (every map fixes the scalar circle, which N holds), by
    the module docstring's rule.  The corollary's canonical key is
    computed once, and only a pair outside the orbit pays for its own."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    annihilator = _annihilator(corollary)
    # a minor reaches 8 bound^2, A tau(v) the largest row sum of |A| times bound
    if max(8 * bound ** 2,
           int(np.abs(annihilator).sum(axis=1).max()) * bound) > np.iinfo(np.int64).max:
        raise ValueError(f"bound {bound} overflows the scan's int64 arithmetic")
    normal_key = lattice_canonical_key(corollary)
    vecs = _weight_grid(fam, bound)
    pairs = _strict_free_pairs(vecs, fam)
    one_sided, in_orbit = _pair_flags(vecs, pairs, fam, annihilator)
    classes = {normal_key} if (in_orbit & ~one_sided).any() else set()
    scalar = _scalar_circle(fam, vecs.shape[1])
    for i, j in pairs[~in_orbit & ~one_sided]:
        classes.add(_least_image_hnf([*vecs[[i, j]].tolist(), *scalar], fam))
    two_sided = tuple(sorted(classes))
    return ScanResult(
        family=str(fam),
        bound=bound,
        free_pairs=len(pairs),
        two_sided_classes=two_sided,
        matches_normal_form=(two_sided == (normal_key,)),
    )


def scan_two_torus_su3(bound: int = 3) -> ScanResult:
    """Exhaustive scan of 2-torus weights on SU(3) with bounded entries:
    every strictly free, genuinely two-sided action must be lattice
    equivalent to the normal form."""
    return _scan_two_torus(su(3), bound, corollary_su3_weights())


def scan_two_torus_sp2(bound: int = 3) -> ScanResult:
    """Same scan on Sp(2) (signed symmetries, no determinant constraint)."""
    return _scan_two_torus(sp(2), bound, corollary_sp2_weights())
