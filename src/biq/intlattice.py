"""Exact integer matrix utilities: Smith and Hermite normal forms.

Everything here works on plain Python ints (arbitrary precision), never
floats.  Matrices are lists of lists, row-major.  These routines back the
freeness checker (kernel structure of character maps) and the catalog's
lattice-equivalence tests, where floating point cannot certify gcd = 1.
"""

from __future__ import annotations


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Smith normal form with transforms.

    Returns (d, left, right) where diag(d) = left @ mat @ right,
    left and right are unimodular, and d[0] | d[1] | ... are the
    nonnegative invariant factors (padded with zeros up to min(m, k)).
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    k = len(a[0]) if m else 0
    left = _identity(m)
    right = _identity(k)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in right:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row[dst] += c * row[src]
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        left[dst] = [x + c * y for x, y in zip(left[dst], left[src])]

    def add_col(dst, src, c):
        for row in a:
            row[dst] += c * row[src]
        for row in right:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        left[i] = [-x for x in left[i]]

    s = 0
    while s < min(m, k):
        # pivot: nonzero entry of least magnitude in the trailing block
        piv = None
        best = None
        for i in range(s, m):
            for j in range(s, k):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(s, piv[0])
        swap_cols(s, piv[1])

        dirty = False
        for i in range(s + 1, m):
            if a[i][s] != 0:
                q = a[i][s] // a[s][s]
                add_row(i, s, -q)
                if a[i][s] != 0:
                    dirty = True
        for j in range(s + 1, k):
            if a[s][j] != 0:
                q = a[s][j] // a[s][s]
                add_col(j, s, -q)
                if a[s][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainders left; pick a smaller pivot

        # divisibility: a[s][s] must divide the rest of the block
        stuck = False
        for i in range(s + 1, m):
            for j in range(s + 1, k):
                if a[i][j] % a[s][s] != 0:
                    add_row(s, i, 1)
                    stuck = True
                    break
            if stuck:
                break
        if stuck:
            continue
        if a[s][s] < 0:
            negate_row(s)
        s += 1

    d = [a[i][i] for i in range(min(m, k))]
    return d, left, right


def invariant_factors(mat, count=None):
    """Invariant factors of `mat`, padded with zeros to `count` entries."""
    m = len(mat)
    k = len(mat[0]) if m else 0
    d = smith_normal_form(mat)[0]
    if count is None:
        count = min(m, k)
    return d + [0] * (count - len(d))


def kernel_generators(mat):
    """Generators of ker(T^k -> T^m) for the torus map given by `mat`.

    The map sends theta in R^k/Z^k to mat @ theta in R^m/Z^m.  Returns
    (torsion, circles): torsion is a list of (column: tuple[int], order)
    with the kernel element column/order, circles is a list of integer
    columns spanning the positive-dimensional part.
    """
    m = len(mat)
    k = len(mat[0]) if m else 0
    d, _, right = smith_normal_form(mat)
    d = d + [0] * (k - len(d))
    torsion = []
    circles = []
    for i in range(k):
        col = tuple(right[r][i] for r in range(k))
        if d[i] == 0:
            circles.append(col)
        elif d[i] > 1:
            torsion.append((col, d[i]))
    return torsion, circles


def hnf_columns(vectors):
    """Canonical column Hermite normal form of the lattice spanned by `vectors`.

    `vectors` is an iterable of equal-length integer tuples (generators).
    Returns a tuple of column tuples: the unique basis with positive
    pivots in increasing pivot rows, zeros to the right of each pivot,
    and earlier columns reduced modulo the pivot in each pivot row.
    Two generator sets span the same lattice iff their forms are equal.
    """
    cols = [list(v) for v in vectors if any(v)]
    if not cols:
        return ()
    m = len(cols[0])
    basis = []
    for r in range(m):
        if not cols:
            break
        # clear row r across the active columns down to a single pivot
        while True:
            nz = [j for j, c in enumerate(cols) if c[r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(cols[j][r]))
            j0 = nz[0]
            for j in nz[1:]:
                q = cols[j][r] // cols[j0][r]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[j0])]
        nz = [j for j, c in enumerate(cols) if c[r] != 0]
        if not nz:
            continue
        piv = cols.pop(nz[0])
        if piv[r] < 0:
            piv = [-x for x in piv]
        basis.append(piv)
    # reduce earlier basis columns modulo later pivots
    for i, col in enumerate(basis):
        r = next(t for t, x in enumerate(col) if x != 0)
        for j in range(i):
            q = basis[j][r] // col[r]
            if q:
                basis[j] = [x - q * y for x, y in zip(basis[j], col)]
    return tuple(tuple(c) for c in basis)


def integer_kernel(mat):
    """Basis of the saturated sublattice {x in Z^k : mat @ x = 0}."""
    _, circles = kernel_generators(mat)
    return circles


def saturate_columns(vectors):
    """Primitive closure of the lattice spanned by `vectors`: all integer
    points of its rational span.

    The image of a torus homomorphism only depends on this closure, so
    weight matrices parametrizing the same subtorus have equal saturations
    even when their raw column lattices differ by a finite index.
    """
    cols = [tuple(int(x) for x in v) for v in vectors if any(v)]
    if not cols:
        return ()
    m = len(cols[0])
    complement = integer_kernel([list(v) for v in cols])
    if not complement:
        return tuple(tuple(1 if i == j else 0 for i in range(m)) for j in range(m))
    return integer_kernel([list(c) for c in complement])
