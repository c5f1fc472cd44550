"""Exact integer matrix utilities: Smith and Hermite normal forms.

Everything here works on plain Python ints (arbitrary precision), never
floats.  Matrices are lists of lists, row-major.  These routines back the
freeness checker (kernel structure of character maps, and the echelon row
insertions that decide whether rows span Z^k) and the catalog's
lattice-equivalence tests, where floating point cannot certify gcd = 1.
Every Hermite form and integer rank comes from one kernel, echelon_insert
(an extended-gcd row insertion that does one divmod per nonzero column,
and a gcd step only where it leaves a remainder) followed by
echelon_hermite.  The Smith form gives invariant factors and integer
kernels (smith_kernel); it keeps only its column transform, since no
caller reads the row one.  A saturated lattice is held by its
annihilator, the integer kernel of the matrix with its generators as
rows: an integer v lies in the lattice's primitive closure iff the
annihilator kills v, and saturate_columns reads a basis of that closure
off the annihilator's own integer kernel.
"""

from __future__ import annotations


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """Smith normal form with its column transform.

    Returns (d, right) where left @ mat @ right = diag(d) for a unimodular
    left that is never built (row operations act on mat alone), right is
    unimodular, and d[0] | d[1] | ... are the nonnegative invariant
    factors (padded with zeros up to min(m, k)).
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    k = len(a[0]) if m else 0
    right = _identity(k)
    s = 0
    while s < min(m, k):
        # pivot: first nonzero entry of least magnitude in the trailing
        # block, row by row; none can undercut a magnitude of 1
        piv = None
        best = None
        for i in range(s, m):
            row = a[i]
            for j in range(s, k):
                x = abs(row[j])
                if x and (best is None or x < best):
                    best = x
                    piv = (i, j)
                    if x == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i, j = piv
        a[s], a[i] = a[i], a[s]
        if j != s:
            for row in a + right:  # column operations act on right too
                row[s], row[j] = row[j], row[s]

        dirty = False
        for i in range(s + 1, m):
            if a[i][s] != 0:
                q = a[i][s] // a[s][s]
                a[i] = [x - q * y for x, y in zip(a[i], a[s])]
                if a[i][s] != 0:
                    dirty = True
        for j in range(s + 1, k):
            if a[s][j] != 0:
                q = a[s][j] // a[s][s]
                for row in a + right:
                    row[j] -= q * row[s]
                if a[s][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainders left; pick a smaller pivot

        # divisibility: a[s][s] must divide the rest of the block, which a
        # unit pivot always does
        if best != 1:
            r = next((r for r in range(s + 1, m)
                      if any(x % a[s][s] for x in a[r][s + 1:])), None)
            if r is not None:
                a[s] = [x + y for x, y in zip(a[s], a[r])]
                continue
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
        s += 1

    d = [a[i][i] for i in range(min(m, k))]
    return d, right


def invariant_factors(mat):
    """Invariant factors of `mat`, padded with zeros to its column count."""
    return smith_kernel(mat)[0]


def smith_kernel(mat):
    """Invariant factors and kernel generators of `mat` from one Smith form.

    Returns (factors, torsion, circles): the invariant factors padded with
    zeros to the column count, and kernel_generators' two lists.
    """
    k = len(mat[0]) if mat else 0
    d, right = smith_normal_form(mat)
    d = d + [0] * (k - len(d))
    torsion = []
    circles = []
    for i in range(k):
        col = tuple(right[r][i] for r in range(k))
        if d[i] == 0:
            circles.append(col)
        elif d[i] > 1:
            torsion.append((col, d[i]))
    return d, torsion, circles


def kernel_generators(mat):
    """Generators of ker(T^k -> T^m) for the torus map given by `mat`.

    The map sends theta in R^k/Z^k to mat @ theta in R^m/Z^m.  Returns
    (torsion, circles): torsion is a list of (column: tuple[int], order)
    with the kernel element column/order, circles is a list of integer
    columns spanning the positive-dimensional part.
    """
    _, torsion, circles = smith_kernel(mat)
    return torsion, circles


def hnf_columns(vectors):
    """Canonical column Hermite normal form of the lattice spanned by `vectors`.

    `vectors` is an iterable of equal-length integer tuples (generators).
    Returns a tuple of column tuples: the unique basis with positive
    pivots in increasing pivot rows, zeros to the right of each pivot,
    and earlier columns reduced modulo the pivot in each pivot row.
    Two generator sets span the same lattice iff their forms are equal.
    It is the echelon_hermite form of the vectors inserted one by one,
    read without its empty slots.
    """
    basis = ()
    for v in vectors:
        basis = echelon_insert(basis or (None,) * len(v), list(map(int, v)))
    return tuple(filter(None, echelon_hermite(basis)))


def saturate_columns(vectors):
    """Primitive closure of the lattice spanned by `vectors`: all integer
    points of its rational span.

    The image of a torus homomorphism only depends on this closure, so
    weight matrices parametrizing the same subtorus have equal saturations
    even when their raw column lattices differ by a finite index.  The
    closure is the integer kernel of the annihilator, the integer kernel
    of the matrix with the vectors as rows: two smith_kernel calls.
    """
    rows = [tuple(int(x) for x in v) for v in vectors if any(v)]
    if not rows:
        return ()
    annihilator = smith_kernel(rows)[2]
    if not annihilator:
        return [tuple(r) for r in _identity(len(rows[0]))]
    return smith_kernel(annihilator)[2]


def echelon_insert(basis, row):
    """Add an integer row to the echelon basis of a lattice in Z^k.

    `basis` is a tuple of k slots: slot c is None or the basis row whose
    first nonzero entry, positive, sits in column c.  Returns the echelon
    basis of the lattice spanned by `basis` and `row`.  Column by column,
    one divmod by the pivot either clears the incoming entry or, when it
    leaves a remainder, an extended-gcd step (a 2 x 2 unimodular change of
    the pivot row and the incoming one) leaves the gcd in the pivot and
    zero in the incoming row, so the lattice never changes; no transform
    is kept.
    """
    basis = list(basis)
    v = list(row)
    k = len(v)
    c = 0
    while c < k:
        x = v[c]
        if x:
            p = basis[c]
            if p is None:
                basis[c] = tuple(v) if x > 0 else tuple([-a for a in v])
                return tuple(basis)
            y = p[c]
            q, r = divmod(x, y)
            if r:
                g, s, t = _xgcd(y, x)
                u, w = y // g, x // g  # s*y + t*x = g, so s*u + t*w = 1
                basis[c] = tuple([s * b + t * a for a, b in zip(v, p)])
                v = [u * a - w * b for a, b in zip(v, p)]
            else:
                v = [a - q * b for a, b in zip(v, p)]
        c += 1
    return tuple(basis)


def echelon_hermite(basis):
    """Hermite form of an echelon_insert basis: every entry above a pivot
    reduced into [0, pivot).  It is unique per lattice."""
    rows = list(basis)
    for c, p in enumerate(rows):
        if p is None:
            continue
        d = p[c]
        for i in range(c):
            r = rows[i]
            if r is not None and not 0 <= r[c] < d:
                q = r[c] // d
                rows[i] = tuple([a - q * b for a, b in zip(r, p)])
    return tuple(rows)


def echelon_spans_all(basis) -> bool:
    """Do the rows of an echelon_insert basis span all of Z^k?  Exactly
    when every column has a pivot and every pivot is 1: the basis is
    triangular, so its determinant is the product of the pivots."""
    return None not in basis and all(p[c] == 1 for c, p in enumerate(basis))


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) > 0, for a, b not both 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a > 0 else (-a, -s0, -t0)
