import gc
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biq import algebra as al
from biq import catalog as ca
from biq import freeness as fr
from biq.intlattice import (
    echelon_hermite,
    echelon_insert,
    echelon_spans_all,
    hnf_columns,
    invariant_factors,
    kernel_generators,
    saturate_columns,
    smith_normal_form,
)
from oracles import (
    determinantal_invariant_factors,
    earlier_echelon_hermite,
    earlier_echelon_insert,
    earlier_hnf_columns,
    exact_det,
    leafwise_is_free_exact,
    sort_subtract_hnf_columns,
    twin_ordered_perms,
    witness_conjugate,
)


def circle(fam, p, q, **kw):
    return fr.TorusActionWeights(
        fam, 1, tuple((int(x),) for x in p), tuple((int(x),) for x in q), **kw
    )


class TestIntLattice:
    def test_smith_transforms(self, rng):
        for _ in range(30):
            m = rng.integers(-6, 7, size=(rng.integers(1, 5), rng.integers(1, 5)))
            _assert_smith_form(m.tolist())

    def test_hnf_invariant_under_recombination(self, rng):
        for _ in range(20):
            vecs = rng.integers(-4, 5, size=(2, 5))
            if np.linalg.matrix_rank(vecs) < 2:
                continue
            key = hnf_columns([tuple(v) for v in vecs])
            assert key == sort_subtract_hnf_columns(vecs)
            u = np.array([[1, 0], [3, 1]])  # unimodular recombination
            mixed = u @ vecs
            assert hnf_columns([tuple(v) for v in mixed]) == key

    @pytest.mark.parametrize("vecs,expected", [
        ([], ()),
        ([(0, 0, 0)], ()),
        ([(0, 0), (0, 0)], ()),
        ([(2, 4, -6), (2, 4, -6)], ((2, 4, -6),)),
        ([(0, -3, 1), (0, 0, 0), (0, -3, 1), (1, 1, 1)], ((1, 1, 1), (0, 3, -1))),
        ([(-2, 0), (0, 0), (4, 1), (-2, 0)], ((2, 0), (0, 1))),
    ])
    def test_hnf_of_empty_zero_and_duplicate_generators(self, vecs, expected):
        assert hnf_columns(vecs) == sort_subtract_hnf_columns(vecs) == expected
        assert hnf_columns(vecs + vecs) == expected


@st.composite
def _generators(draw):
    """2 or 3 integer generators of equal length 2 to 6 (zero and
    dependent ones included)."""
    m = draw(st.integers(2, 6))
    vec = st.lists(st.integers(-4, 4), min_size=m, max_size=m).map(tuple)
    return draw(st.lists(vec, min_size=2, max_size=3))


@st.composite
def _unimodular_steps(draw, k):
    """A random unimodular change of k generators as elementary steps:
    swap two, negate one, or add an integer multiple of one to another."""
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        i, j = draw(st.permutations(range(k)))[:2]
        kind = draw(st.sampled_from(("swap", "negate", "add")))
        steps.append((kind, i, j, draw(st.integers(-3, 3).filter(bool))))
    return steps


def _apply_steps(vecs, steps):
    vecs = [list(v) for v in vecs]
    for kind, i, j, c in steps:
        if kind == "swap":
            vecs[i], vecs[j] = vecs[j], vecs[i]
        elif kind == "negate":
            vecs[i] = [-x for x in vecs[i]]
        else:
            vecs[i] = [x + c * y for x, y in zip(vecs[i], vecs[j])]
    return [tuple(v) for v in vecs]


_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(data=st.data())
def test_hnf_invariant_under_change_of_generators(data):
    # the catalog decides orbit membership by one HNF per lattice, which
    # is sound only if the HNF sees the lattice, not its generators
    vecs = data.draw(_generators())
    key = hnf_columns(vecs)
    assert key == sort_subtract_hnf_columns(vecs)
    assert hnf_columns(_apply_steps(vecs, data.draw(_unimodular_steps(len(vecs))))) == key
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(vecs), max_size=len(vecs)))
    combo = tuple(sum(c * v[r] for c, v in zip(coeffs, vecs)) for r in range(len(vecs[0])))
    assert hnf_columns(vecs + [combo]) == key
    assert hnf_columns(vecs + [(0,) * len(vecs[0])]) == key
    assert hnf_columns(vecs + [vecs[-1]]) == key


@_PROPERTY
@given(data=st.data())
def test_saturation_invariant_under_scaling_a_generator(data):
    vecs = data.draw(_generators())
    i = data.draw(st.integers(0, len(vecs) - 1))
    scale = data.draw(st.integers(-5, 5).filter(bool))
    scaled = list(vecs)
    scaled[i] = tuple(scale * x for x in vecs[i])
    assert hnf_columns(saturate_columns(scaled)) == hnf_columns(saturate_columns(vecs))


@_PROPERTY
@given(vecs=_generators())
def test_saturation_is_the_primitive_closure(vecs):
    # by the definition: a basis of a saturated lattice (invariant factors
    # all 1) with the input's annihilator, holding every input vector
    m = len(vecs[0])
    sat = list(saturate_columns(vecs))
    if sat:
        assert invariant_factors(sat) == [1] * len(sat) + [0] * (m - len(sat))
    annihilator = kernel_generators(sat or [(0,) * m])[1]
    assert hnf_columns(annihilator) == hnf_columns(kernel_generators(vecs)[1])
    assert hnf_columns(sat + vecs) == hnf_columns(sat)


@st.composite
def _int_matrices(draw, max_rows=5, max_cols=5, bound=6):
    m = draw(st.integers(1, max_rows))
    k = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(-bound, bound), min_size=k, max_size=k)
    return draw(st.lists(row, min_size=m, max_size=m))


@_PROPERTY
@given(mat=_int_matrices())
def test_smith_form_identities(mat):
    _assert_smith_form(mat)


def _assert_smith_form(mat):
    """(d, right) is a Smith form of mat, checked with no row transform:
    mat @ right = L diag(d) for a unimodular L exactly when column j of
    mat @ right is d_j times a column of L (zero where d_j = 0 or
    j >= min(m, k)), and those quotient columns, being part of a basis,
    have invariant factors all 1."""
    d, right = smith_normal_form(mat)
    m, k = len(mat), len(mat[0])
    assert exact_det(right) in (1, -1)
    cols = [[sum(mat[i][c] * right[c][j] for c in range(k)) for i in range(m)]
            for j in range(k)]
    quotient = []
    for j, col in enumerate(cols):
        if j >= len(d) or d[j] == 0:
            assert not any(col)
        else:
            assert all(x % d[j] == 0 for x in col)
            quotient.append([x // d[j] for x in col])
    if quotient:
        assert determinantal_invariant_factors(list(zip(*quotient))) == [1] * len(quotient)
    assert d == determinantal_invariant_factors(mat)
    assert len(d) == min(m, k) and all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert (b == 0) if a == 0 else (b % a == 0)


@_PROPERTY
@given(mat=_int_matrices(max_rows=7), data=st.data())
def test_hermite_key_is_a_lattice_invariant(mat, data):
    # the same for every insertion order and every unimodular recombination
    # of the rows, and equal to the sort-and-subtract reference's basis
    def key(rows):
        basis = (None,) * len(mat[0])
        for row in rows:
            basis = echelon_insert(basis, row)
        return echelon_hermite(basis)

    reference = key(mat)
    assert tuple(r for r in reference if r is not None) == sort_subtract_hnf_columns(mat)
    assert key(data.draw(st.permutations(mat))) == reference
    rows = [list(r) for r in mat]
    for _ in range(data.draw(st.integers(0, 6))):
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.integers(-3, 3))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    assert key(rows) == reference


@_PROPERTY
@given(mat=_int_matrices(max_rows=7))
def test_echelon_rows_span_the_lattice_of_the_matrix(mat):
    basis = (None,) * len(mat[0])
    for row in mat:
        basis = echelon_insert(basis, row)
    assert (sort_subtract_hnf_columns([r for r in basis if r is not None])
            == sort_subtract_hnf_columns(mat))
    unimodular = len(mat) >= len(mat[0]) and all(
        f == 1 for f in invariant_factors(mat))
    assert echelon_spans_all(basis) == unimodular


@st.composite
def _wide_rows(draw, entries=st.integers(-3, 3) | st.integers(-2 ** 70, 2 ** 70)):
    """1 to 8 integer rows of length 1 to 8, small entries mixed with
    entries up to 2^70 in magnitude."""
    k = draw(st.integers(1, 8))
    return draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=1, max_size=8))


@_PROPERTY
@given(mat=_wide_rows(),
       mat64=_wide_rows(st.integers(-3, 3) | st.integers(-2 ** 63, 2 ** 63 - 1)))
def test_echelon_kernel_equals_the_earlier_kernel(mat, mat64):
    # every insertion, the Hermite form and hnf_columns, bit for bit; numpy
    # int64 input, which would overflow inside the kernel, is read as ints
    basis = earlier = (None,) * len(mat[0])
    for row in mat:
        basis, earlier = echelon_insert(basis, row), earlier_echelon_insert(earlier, row)
        assert basis == earlier
    assert echelon_hermite(basis) == earlier_echelon_hermite(earlier)
    assert hnf_columns(mat) == earlier_hnf_columns(mat)
    form = hnf_columns(np.array(mat64, dtype=np.int64))
    assert form == earlier_hnf_columns(mat64)
    assert all(type(x) is int for col in form for x in col)


@st.composite
def _stacked_weights(draw):
    """Weights (fam, k, W_L, W_R) with entries in [-2, 2], SU column sums
    balanced, and in half the draws one column made zero or a multiple of
    another."""
    fam = draw(st.sampled_from((al.su(3), al.su(4), al.u(3), al.sp(3), al.so(6),
                                al.so(7))))
    rows = fam.torus_rows
    k = draw(st.integers(1, fam.n if fam.name == "U" else fam.rank))
    entry = st.integers(-2, 2)
    wl = [[draw(entry) for _ in range(k)] for _ in range(rows)]
    wr = [[draw(entry) for _ in range(k)] for _ in range(rows)]
    if fam.name == "SU":
        for j in range(k):
            wr[-1][j] += sum(r[j] for r in wl) - sum(r[j] for r in wr)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        c = 0 if i == j else draw(st.integers(-2, 2))
        for r in wl + wr:
            r[j] = c * r[i]
    return fam, k, wl, wr


@_PROPERTY
@given(w=_stacked_weights())
def test_weights_rejected_exactly_when_an_invariant_factor_vanishes(w):
    # the echelon rank check in TorusActionWeights against the Smith form
    # of the stacked 2n x k matrix (W_L; W_R)
    fam, k, wl, wr = w
    dependent = 0 in invariant_factors(wl + wr)
    try:
        fr.TorusActionWeights(fam, k, wl, wr)
    except al.AlgebraError as exc:
        assert dependent, exc
        assert "k-torus" in str(exc)
    else:
        assert not dependent


#: every family the checker knows, odd and even SO included
_FAMILIES = (al.su(3), al.su(4), al.su(5), al.u(2), al.u(3), al.sp(2), al.sp(3),
             al.so(5), al.so(7), al.so(4), al.so(6), al.so(8))


@st.composite
def _tori(draw, families=_FAMILIES, twins=False):
    """A k-torus, k = 1..rank, on one of `families` with entries in [-3, 3]
    (on SU the last right row is forced by the equal column sums), in
    either mode.  Each side gets up to two zero rows at random places,
    whose signs the walk settles without trying both.  With `twins`, each
    side then gets two twin classes, planted as two pairs of equal rows at
    random places (one pair where the side has fewer than four free rows),
    and every other row is a copy of another row of that side with
    probability 2/5."""
    fam = draw(st.sampled_from(families))
    rows = fam.torus_rows
    k = draw(st.integers(1, fam.n if fam.name == "U" else fam.rank))
    row = st.lists(st.integers(-3, 3), min_size=k, max_size=k)

    def block(free):
        out = [draw(row) for _ in range(rows)]
        for i in draw(st.sets(st.integers(0, free - 1), max_size=2)):
            out[i] = [0] * k
        if not twins:
            return out
        order = draw(st.permutations(range(free)))
        pairs = min(2, free // 2)
        for a, b in zip(order[:2 * pairs:2], order[1:2 * pairs:2]):
            out[b] = list(out[a])
        assume(len({tuple(out[a]) for a in order[:2 * pairs:2]}) == pairs)
        for i in order[2 * pairs:]:
            if draw(st.integers(0, 4)) < 2:
                out[i] = list(out[draw(st.integers(0, rows - 1))])
        return out

    wl, wr = block(rows), block(rows - (fam.name == "SU"))
    if fam.name == "SU":
        wr[-1] = [sum(r[j] for r in wl) - sum(r[j] for r in wr[:-1]) for j in range(k)]
    mode = draw(st.sampled_from((fr.STRICT, fr.MOD_CENTER)))
    try:
        return fr.TorusActionWeights(fam, k, wl, wr, mode=mode)
    except al.AlgebraError:
        assume(False)


_TORI = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@settings(_TORI, max_examples=600)
@given(w=_tori())
def test_pruned_walk_equals_leafwise_reference(w):
    # equal verdicts compare the witness and note too; on SO(2n) the
    # reference still enumerates the odd-signed kernels the walk skips
    assert fr.is_free_exact(w) == leafwise_is_free_exact(w)


@settings(_TORI, max_examples=400)
@given(w=_tori(_FAMILIES + (al.sp(4), al.so(9)), twins=True))
def test_twin_row_walk_equals_leafwise_reference(w):
    # the walk visits one symmetry per class of twin-row swaps; the
    # reference builds every leaf, so the first failing symmetry, its
    # witness and the note must agree
    assert fr.is_free_exact(w) == leafwise_is_free_exact(w)


def test_pruned_walk_equals_leafwise_reference_on_every_so4_circle():
    # and on every SO(6) circle with weights in [-1, 1]
    for fam, span in ((al.so(4), range(-2, 3)), (al.so(6), range(-1, 2))):
        verdicts = set()
        for wl, wr in itertools.product(itertools.product(span, repeat=fam.rank), repeat=2):
            for mode in (fr.STRICT, fr.MOD_CENTER):
                try:
                    w = fr.TorusActionWeights(fam, 1, tuple((x,) for x in wl),
                                              tuple((x,) for x in wr), mode=mode)
                except al.AlgebraError:
                    continue
                v = fr.is_free_exact(w)
                assert v == leafwise_is_free_exact(w), (fam, wl, wr, mode)
                verdicts.add((mode, v.free))
        assert len(verdicts) == 4, fam  # free and not free in both modes


def _even_symmetries(fam, rows):
    return [(perm, signs) for perm, signs in fr.conjugacy_symmetries(fam, rows)
            if fam.kind != "SO-even" or np.prod(signs) > 0]


def _image(w_side, perm, signs):
    return [[signs[i] * x for x in w_side[perm[i]]] for i in range(len(w_side))]


@_TORI
@given(w=_tori(), data=st.data())
def test_verdict_invariant_under_a_symmetry_of_either_side(w, data):
    # on SO(2n) only the even-signed symmetries are conjugations in the group
    perm, signs = data.draw(st.sampled_from(_even_symmetries(w.group, w.n_rows)))
    verdict = fr.is_free_exact(w).free
    left = fr.TorusActionWeights(w.group, w.k, _image(w.w_left, perm, signs), w.w_right, w.mode)
    right = fr.TorusActionWeights(w.group, w.k, w.w_left, _image(w.w_right, perm, signs), w.mode)
    assert fr.is_free_exact(left).free == verdict
    assert fr.is_free_exact(right).free == verdict


@_TORI
@given(w=_tori((al.so(4), al.so(6), al.so(8))), data=st.data())
def test_so_even_verdict_invariant_under_the_same_odd_flip_of_both_sides(w, data):
    # flipping the same rows of W_L and W_R is conjugation by a reflection,
    # an automorphism of SO(2n) that the Weyl group does not contain
    signs = data.draw(st.sampled_from(
        [s for s in itertools.product((1, -1), repeat=w.n_rows) if np.prod(s) < 0]))
    ident = tuple(range(w.n_rows))
    flipped = fr.TorusActionWeights(w.group, w.k, _image(w.w_left, ident, signs),
                                    _image(w.w_right, ident, signs), w.mode)
    assert fr.is_free_exact(flipped).free == fr.is_free_exact(w).free


@_TORI
@given(w=_tori())
def test_verdict_invariant_under_side_swap(w):
    swapped = fr.TorusActionWeights(w.group, w.k, w.w_right, w.w_left, w.mode)
    assert fr.is_free_exact(swapped).free == fr.is_free_exact(w).free


@pytest.mark.parametrize("w", [
    # every row of D_sigma is even: nothing prunes, every symmetry is a leaf
    fr.TorusActionWeights(al.sp(3), 1, ((1,), (1,), (1,)), ((1,), (1,), (1,))),
    fr.TorusActionWeights(al.so(8), 2, ((1, 0), (0, 1), (1, 1), (0, 0)),
                          ((1, 1), (0, 1), (1, 0), (1, 0))),
    ca.spin6_extra().weights,
    ca.su_tori(4, 2, 1).weights,
], ids=["sp3-even-circle", "so8-2-torus", "spin6-extra", "su4-normal-form"])
def test_walk_replays_signs_in_symmetry_order(w):
    """The walk yields a subsequence, in conjugacy_symmetries order, of the
    symmetries whose D_sigma has a factor other than 1, with their D_sigma
    (on SO(2n) only the even-signed ones): the first of them, and one for
    every leaf lattice among them."""
    expected = []
    for perm, signs in fr.conjugacy_symmetries(w.group, w.n_rows):
        if w.group.kind == "SO-even" and np.prod(signs) < 0:
            continue
        d = [[x - s * y for x, y in zip(w.w_left[i], w.w_right[perm[i]])]
             for i, s in enumerate(signs)]
        if any(f != 1 for f in invariant_factors(d)):
            expected.append((perm, signs, d))
    stats = {"leaves_examined": 0}
    walked = list(fr._unpruned_symmetries(w, stats))
    rest = iter(expected)
    assert all(leaf in rest for leaf in walked)  # an ordered subsequence
    assert walked[:1] == expected[:1]
    assert {hnf_columns(d) for *_, d in walked} == {hnf_columns(d) for *_, d in expected}


def test_every_walked_prefix_has_a_twin_ordered_completion(monkeypatch):
    # the room rule stops a prefix once too few right rows are left above
    # a row's value for its later twins; on the catalog normal forms no
    # walked prefix is left that the twin rules cannot complete
    walked, walk = [], fr._Walk.walk

    def recording(self, perm, mask, live):
        walked.append(perm)
        return walk(self, perm, mask, live)

    monkeypatch.setattr(fr._Walk, "walk", recording)
    forms = [ca.su_tori(n, l, v).weights
             for n in range(3, 9) for l in range(1, n // 2 + 1) for v in (1, 2)]
    forms += [ca.sp_tori(n, v).weights for n in range(2, 7) for v in (1, 2)]
    forms += [ca.p_torus_weights(n, v, al.so(2 * n)) for n in range(3, 9) for v in (1, 2)]
    for w in forms + [ca.spin6_extra().weights]:
        walked.clear()
        assert fr.is_free_exact(w).free
        prefixes = {tuple(perm[:j]) for perm in twin_ordered_perms(w).tolist()
                    for j in range(w.n_rows + 1)}
        assert walked and set(walked) <= prefixes, w


class TestIsFreeExact:
    def test_two_torus_normal_form_is_free(self):
        w = fr.TorusActionWeights(
            al.su(3), 2, ((1, 0), (0, 1), (1, 1)), ((0, 0), (0, 0), (2, 2))
        )
        assert fr.is_free_exact(w).free

    def test_equal_weights_not_free(self):
        w = circle(al.su(3), (1, 1, 1), (1, 1, 1))
        v = fr.is_free_exact(w)
        assert not v.free
        assert v.witness.perm == (0, 1, 2)

    def test_gcd_two_violation(self):
        w = circle(al.su(3), (2, 2, 0), (0, 0, 4))
        v = fr.is_free_exact(w)
        assert not v.free
        assert witness_conjugate(w, v.witness)

    def test_column_sum_mismatch_rejected(self):
        with pytest.raises(al.AlgebraError):
            circle(al.su(3), (1, 1, 1), (1, 1, 2))

    def test_degenerate_weights_rejected(self):
        with pytest.raises(al.AlgebraError):
            fr.TorusActionWeights(
                al.su(3), 2, ((1, 2), (0, 0), (-1, -2)), ((0, 0), (0, 0), (0, 0))
            )

    @pytest.mark.parametrize("entry", [1.5, np.float64(-0.5), "1", None])
    def test_non_integral_weight_rejected(self, entry):
        # int() used to truncate 1.5 to 1, which made this circle free
        with pytest.raises(al.AlgebraError, match="integer"):
            fr.TorusActionWeights(al.sp(2), 1, ((entry,), (1,)), ((1,), (0,)))

    @pytest.mark.parametrize("entry", [1.0, np.int64(1), np.float64(1.0)])
    def test_integral_weights_read_as_ints(self, entry):
        w = fr.TorusActionWeights(al.sp(2), entry, ((entry,), (1,)), ((1,), (0,)))
        assert w.w_left == ((1,), (1,)) and type(w.w_left[0][0]) is int
        # a float k used to raise TypeError in the rank check
        assert type(w.k) is int and fr.is_free_exact(w).free

    def test_non_integral_torus_rank_rejected(self):
        with pytest.raises(al.AlgebraError, match="integer"):
            fr.TorusActionWeights(al.sp(2), 1.5, ((1,), (1,)), ((1,), (0,)))

    def test_row_permutation_equivariance(self, rng):
        for _ in range(20):
            p = rng.integers(-4, 5, size=3)
            q = np.array([*rng.integers(-4, 5, size=2), 0])
            q[2] = p.sum() - q[:2].sum()
            try:
                w = circle(al.su(3), p, q)
            except al.AlgebraError:
                continue
            verdict = fr.is_free_exact(w).free
            perm = rng.permutation(3)
            w2 = circle(al.su(3), p[perm], q)
            assert fr.is_free_exact(w2).free == verdict

    def test_stats_repeat_and_count_the_walk(self):
        w = ca.su_tori(5, 2, 1).weights
        first, second = fr.is_free_exact(w), fr.is_free_exact(w)
        assert first.free
        assert first.stats == second.stats
        # every row prefix of a free SU(5) normal form is settled by
        # pruning: no Smith form is taken
        assert first.stats["symmetries"] == 120
        assert first.stats["smith_forms"] == 0

    def test_early_exit_takes_one_leaf_and_one_smith_form(self):
        v = fr.is_free_exact(circle(al.su(3), (1, 1, 1), (1, 1, 1)))
        assert not v.free
        assert v.stats == {"symmetries": 6, "leaves_examined": 1, "smith_forms": 1}

    def test_so_even_walk_builds_no_odd_signed_leaf(self):
        # SO(6): 3! * 2^2 even-signed symmetries; the three left rows are
        # equal, so the walk keeps only perm (0, 1, 2), whose 4 even sign
        # patterns all survive as leaves spanning one lattice, each with
        # its Smith form
        v = fr.is_free_exact(ca.spin6_extra().weights, "mod-center")
        assert v.stats == {"symmetries": 24, "leaves_examined": 4, "smith_forms": 4}

    @pytest.mark.parametrize("w, leaves", [
        (ca.p_torus_weights(8, 2, al.so(16)), 128),  # of 5 160 960 symmetries
        (ca.sp_tori(6, 1).weights, 12),  # of 46 080
    ], ids=["so16-P2", "sp6-P1"])
    def test_twin_rows_shrink_the_walk(self, w, leaves):
        # P2's left rows are all equal; P1 has n - 1 zero left rows, which
        # are twins and take the sign +1 only
        v = fr.is_free_exact(w, fr.MOD_CENTER)
        assert v.free and v.stats["leaves_examined"] == leaves

    def test_equal_prefix_states_are_walked_once(self):
        # Sp(5) P1: four zero left rows, twins whose signs are settled
        sp5 = fr.is_free_exact(ca.sp_tori(5, 1).weights)
        assert sp5.free and sp5.stats["leaves_examined"] < 1000  # of 3 840

    @pytest.mark.parametrize("w", [
        ca.su_tori(7, 1, 1).weights,
        circle(al.su(3), (1, 1, 1), (1, 1, 1)),
    ], ids=["su7-normal-form", "su3-equal-circle"])
    def test_verdict_leaves_no_cyclic_garbage(self, w):
        gc.collect()
        gc.disable()
        try:
            fr.is_free_exact(w)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_mod_center_accepts_central_kernel(self):
        # a doubled one-sided circle: the parametrization half turn acts
        # as the identity, which mod-center mode forgives
        w2 = fr.TorusActionWeights(al.sp(2), 1, ((2,), (0,)), ((0,), (0,)))
        assert not fr.is_free_exact(w2, "strict").free
        assert fr.is_free_exact(w2, "mod-center").free

    def test_signed_conjugacy_everywhere_rejected_in_both_modes(self):
        # the diagonal circle against its conjugate is pointwise conjugate
        # through a single sign flip, so it is not free even mod center
        w = fr.TorusActionWeights(al.sp(2), 1, ((1,), (1,)), ((1,), (-1,)))
        assert not fr.is_free_exact(w, "strict").free
        assert not fr.is_free_exact(w, "mod-center").free

    def test_witness_validity_random_batches(self, rng):
        fams_rows = [(al.su(3), 3), (al.su(4), 4), (al.sp(2), 2), (al.so(5), 2)]
        checked = 0
        for fam, rows in fams_rows:
            for _ in range(40):
                wl = rng.integers(-3, 4, size=(rows, 1))
                wr = rng.integers(-3, 4, size=(rows, 1))
                if fam.name == "SU":
                    wr[-1, 0] = wl.sum() - wr[:-1, 0].sum()
                    if abs(wr[-1, 0]) > 6:
                        continue
                try:
                    w = fr.TorusActionWeights(
                        fam, 1, tuple(map(tuple, wl)), tuple(map(tuple, wr))
                    )
                except al.AlgebraError:
                    continue
                v = fr.is_free_exact(w)
                if not v.free:
                    assert witness_conjugate(w, v.witness), (fam, wl, wr)
                    checked += 1
        assert checked > 10

    def test_exact_never_contradicted_by_bruteforce(self, rng):
        fams_rows = [(al.su(3), 3), (al.su(4), 4), (al.sp(2), 2), (al.so(5), 2)]
        for fam, rows in fams_rows:
            count = 0
            while count < 12:
                wl = rng.integers(-3, 4, size=(rows, 1))
                wr = rng.integers(-3, 4, size=(rows, 1))
                if fam.name == "SU":
                    wr[-1, 0] = wl.sum() - wr[:-1, 0].sum()
                    if abs(wr[-1, 0]) > 6:
                        continue
                try:
                    w = fr.TorusActionWeights(
                        fam, 1, tuple(map(tuple, wl)), tuple(map(tuple, wr))
                    )
                except al.AlgebraError:
                    continue
                count += 1
                if fr.is_free_exact(w).free:
                    assert fr.is_free_bruteforce(w, 12).free, (fam, wl, wr)


def _catalog_normal_forms():
    """Every catalog normal form through SU(6), Sp(4) and SO(8), and the
    extra Spin(6) torus: free modulo the center, with zero rows and twin
    rows, whose rules skip most of their symmetries."""
    forms = [ca.su_tori(n, l, v).weights
             for n in range(3, 7) for l in range(1, n // 2 + 1) for v in (1, 2)]
    forms += [ca.sp_tori(n, v).weights for n in range(2, 5) for v in (1, 2)]
    forms += [ca.p_torus_weights(n, v, al.so(2 * n)) for n in range(3, 5) for v in (1, 2)]
    return forms + [ca.spin6_extra().weights]


@pytest.mark.parametrize("mode", [fr.STRICT, fr.MOD_CENTER])
def test_merged_walk_equals_leafwise_reference_on_normal_forms(mode):
    # plus an SO(6) circle whose zero left row 0 carries the sign parity:
    # its prefixes (0, +1) and (0, -1) span one lattice, but their
    # even-signed completions differ
    so6 = circle(al.so(6), (0, 1, 1), (0, 1, 2))
    for w in _catalog_normal_forms() + [so6]:
        assert fr.is_free_exact(w, mode) == leafwise_is_free_exact(w, mode), (w, mode)


# Non-free inputs and their full witnesses, pinned from a run before the
# Smith form lost its row transform.  The numerators are read off the
# column transform, which the walk and leafwise_is_free_exact share, so
# only a recorded value catches a change in it.  Rows: group, mode, W_L,
# W_R, then (perm, signs, numerators, denominator, invariant factors, kind)
# and the walk's (leaves_examined, smith_forms): a walk that extends its
# sign prefixes eagerly, not pulled one at a time, inserts more leaves
# before the first failure.
_S, _M = fr.STRICT, fr.MOD_CENTER
_SP2 = ([[1, 2], [-2, 2]], [[0, 0], [1, -1]],
        ((0, 1), (1, 1), (7, 1), 9, (1, 9), "torsion"))
_SO6 = ([[2, -2, -1], [-1, 0, 0], [-2, -2, -2]], [[-2, -2, 2], [-2, 1, 1], [-1, -1, 0]],
        ((0, 1, 2), (1, 1, 1), (7, 1, 6), 10, (1, 1, 10), "torsion"))
_SU4 = ([[-1, 2, -2], [2, 1, 2], [-2, -1, 1], [0, 1, 1]],
        [[1, -2, 2], [0, 2, -1], [-1, 2, -2], [-1, 1, 3]],
        ((0, 1, 2, 3), (1, 1, 1, 1), (2, 7, 1), 20, (1, 1, 20), "torsion"))
_PINNED_WITNESSES = [
    *((al.sp(2), mode, *_SP2, (1, 1)) for mode in (_S, _M)),
    *((al.so(6), mode, *_SO6, (1, 1)) for mode in (_S, _M)),
    *((al.su(4), mode, *_SU4, (1, 1)) for mode in (_S, _M)),
    (al.su(3), _S, [[-1, -1], [2, -1], [2, 3]], [[0, -1], [3, -2], [0, 4]],
     ((0, 2, 1), (1, 1, 1), (0, 1), 5, (1, 5), "torsion"), (1, 1)),
    (al.su(3), _M, [[-2, -2], [1, -3], [-1, 3]], [[2, -3], [0, -3], [-4, 4]],
     ((0, 2, 1), (1, 1, 1), (1, 4), 23, (1, 23), "torsion"), (1, 1)),
    (al.su(4), _S, [[-1, 2], [0, -3], [0, 2], [0, -3]], [[-3, 3], [-3, -2], [1, 2], [4, -5]],
     ((0, 2, 1, 3), (1, 1, 1, 1), (1, 2), 11, (1, 11), "torsion"), (1, 1)),
    (al.su(4), _M, [[2, -3], [0, 0], [3, -3], [-3, -1]], [[3, 0], [0, -1], [2, -3], [-3, -3]],
     ((0, 2, 3, 1), (1, 1, 1, 1), (6, 1), 9, (1, 9), "torsion"), (1, 1)),
    (al.u(3), _S, [[-3, -3], [-3, -2], [3, -1]], [[0, 3], [-1, 1], [-3, -2]],
     ((0, 2, 1), (1, 1, 1), (28, 11), 30, (1, 30), "torsion"), (2, 1)),
    (al.u(3), _M, [[2, -3, 1], [-1, 1, 0], [1, 0, 1]], [[2, 2, 0], [0, 3, 3], [1, 2, 1]],
     ((0, 2, 1), (1, 1, 1), (13, 1, 5), 32, (1, 1, 32), "torsion"), (2, 2)),
    (al.u(3), _M, [[0, 2], [2, -1], [0, -2]], [[0, 2], [-3, -1], [-1, -2]],
     ((0, 1, 2), (1, 1, 1), (0, 1), 2, (1, 0), "circle"), (1, 1)),
    (al.sp(2), _M, [[3, -2], [1, 1]], [[-2, -2], [0, 0]],
     ((1, 0), (1, 1), (13, 12), 15, (1, 15), "torsion"), (3, 3)),
    (al.sp(3), _S, [[1, 1], [1, 2], [3, 0]], [[-3, 1], [0, -1], [-2, 2]],
     ((1, 0, 2), (1, 1, -1), (5, 1), 7, (1, 7), "torsion"), (18, 1)),
    (al.sp(3), _M, [[0, 0], [0, -3], [3, 2]], [[3, 1], [-2, -3], [-1, -1]],
     ((2, 0, 1), (1, -1, 1), (4, 1), 5, (1, 5), "torsion"), (15, 1)),
    (al.so(5), _S, [[1, -1], [-1, -2]], [[-2, 3], [2, -3]],
     ((0, 1), (1, 1), (1, 3), 9, (1, 9), "torsion"), (1, 1)),
    (al.so(5), _M, [[3, 3], [-1, -1]], [[-3, 0], [0, 0]],
     ((1, 0), (1, 1), (1, 2), 9, (1, 9), "torsion"), (3, 3)),
    (al.so(7), _S, [[-1, 0], [2, 3], [3, -1]], [[0, 0], [1, 1], [2, -2]],
     ((0, 2, 1), (1, 1, -1), (0, 1), 5, (1, 5), "torsion"), (6, 1)),
    (al.so(7), _S, [[-2, 3], [2, 3], [-3, -2]], [[3, 3], [-2, 3], [-3, -2]],
     ((0, 1, 2), (1, 1, 1), (0, 1), 2, (1, 0), "circle"), (1, 1)),
    (al.so(7), _M, [[2, 0], [-3, -2], [-2, -3]], [[2, -2], [-1, 3], [-1, -1]],
     ((1, 0, 2), (-1, 1, -1), (2, 1), 5, (1, 5), "torsion"), (22, 1)),
    (al.so(6), _S, [[-3, 2], [1, -3], [-2, 1]], [[-1, -1], [2, 2], [0, -1]],
     ((1, 0, 2), (1, 1, 1), (6, 1), 10, (1, 10), "torsion"), (7, 1)),
    (al.so(6), _M, [[1, 2], [0, -2], [-3, 3]], [[-2, 1], [-1, -2], [0, 2]],
     ((0, 2, 1), (1, -1, -1), (1, 4), 7, (1, 7), "torsion"), (5, 1)),
    (al.so(8), _S, [[-2, 1], [-3, 3], [-1, 0], [-2, -1]], [[-3, 0], [2, 1], [0, 2], [-1, -3]],
     ((1, 0, 3, 2), (1, 1, 1, 1), (3, 4), 6, (1, 6), "torsion"), (18, 1)),
    (al.so(8), _M, [[0, 0, 0], [-2, 2, 0], [0, -2, -2], [-3, 0, 1]],
     [[3, 3, 1], [1, -1, -2], [3, 0, 0], [1, 1, -3]],
     ((0, 1, 3, 2), (1, 1, 1, 1), (39, 37, 24), 42, (1, 1, 42), "torsion"), (7, 1)),
    # a zero left row that must carry the SO(2n) sign parity
    *((al.so(4), mode, [[0], [2]], [[0], [1]],
       ((0, 1), (-1, -1), (1,), 3, (3,), "torsion"), (2, 1)) for mode in (_S, _M)),
    # strict, failing at its first leaf while four sign prefixes are live
    # at the last row: an eager walk inserts all eight leaves
    (al.sp(3), _S, [[-1, 1], [-2, -2], [2, 0]], [[1, 3], [1, 0], [0, 2]],
     ((0, 1, 2), (1, 1, 1), (0, 1), 2, (1, 2), "torsion"), (1, 1)),
]


@pytest.mark.parametrize("fam, mode, wl, wr, expected, stats", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{i}") for i, case in enumerate(_PINNED_WITNESSES)
])
def test_non_free_witness_is_pinned(fam, mode, wl, wr, expected, stats):
    verdict = fr.is_free_exact(fr.TorusActionWeights(fam, len(wl[0]), wl, wr, mode=mode))
    assert not verdict.free and verdict.note == ""
    assert verdict.witness == fr.Witness(*expected)
    assert (verdict.stats["leaves_examined"], verdict.stats["smith_forms"]) == stats


class TestRankScaling:
    @pytest.mark.parametrize("w", [
        *(ca.sp_tori(6, v).weights for v in (1, 2)),
        *(ca.p_torus_weights(6, v, al.so(12)) for v in (1, 2)),
        *(ca.su_tori(8, l, v).weights for l in (1, 4) for v in (1, 2)),
    ], ids=["sp6-1", "sp6-2", "so12-1", "so12-2", "su8-l1-1", "su8-l1-2",
            "su8-l4-1", "su8-l4-2"])
    def test_rank_six_to_eight_normal_forms_free_mod_center(self, w):
        assert fr.is_free_exact(w, fr.MOD_CENTER).free


class TestBruteforce:
    def test_half_turn_violation(self):
        w = circle(al.su(3), (2, 2, 0), (0, 0, 4))
        v = fr.is_free_bruteforce(w, 2)
        assert not v.free
        assert v.witness.denominator == 2

    def test_normal_form_survives_order_12(self):
        w = fr.TorusActionWeights(
            al.su(3), 2, ((1, 0), (0, 1), (1, 1)), ((0, 0), (0, 0), (2, 2))
        )
        assert fr.is_free_bruteforce(w, 12).free

    def test_order_one_checks_nothing(self):
        w = circle(al.su(3), (1, 1, 1), (1, 1, 1))
        assert fr.is_free_bruteforce(w, 1).free

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one_is_rejected(self, order):
        w = circle(al.su(3), (1, 1, 1), (1, 1, 1))
        with pytest.raises(ValueError, match="at least 1"):
            fr.is_free_bruteforce(w, order)

    def test_so_even_odd_flip_without_real_eigenvalue_is_no_violation(self):
        # at t = 1/5 the angles (2/5, 2/5) and (2/5, 3/5) agree up to one
        # sign flip, which SO(4) cannot realize without a real eigenvalue
        w = circle(al.so(4), (-3, -3), (-3, -2))
        assert fr.is_free_exact(w).free
        assert fr.is_free_bruteforce(w, 12).free

    def test_so_even_real_eigenvalue_allows_odd_flip(self):
        # a zero angle makes the single flip a conjugation in SO(4)
        w = circle(al.so(4), (1, 0), (-1, 0))
        assert not fr.is_free_exact(w).free
        assert not fr.is_free_bruteforce(w, 12).free


class TestEschenburgCondition:
    def test_known_free_triple(self):
        assert fr.eschenburg_free((1, 1, 1), (0, 0, 3))

    def test_known_non_free_triple(self):
        assert not fr.eschenburg_free((2, 2, 0), (0, 0, 4))

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fr.eschenburg_free((1, 1, 1), (1, 1, 2))

    def test_agrees_with_exact_checker(self, rng):
        agreements = 0
        while agreements < 300:
            p = rng.integers(-6, 7, size=3)
            q = np.array([*rng.integers(-6, 7, size=2), 0])
            q[2] = p.sum() - q[:2].sum()
            if abs(q[2]) > 6:
                continue
            try:
                w = circle(al.su(3), p, q)
            except al.AlgebraError:
                continue
            assert fr.eschenburg_free(p, q) == fr.is_free_exact(w).free, (p, q)
            agreements += 1

    def test_exhaustive_small_window(self):
        # all parameter pairs with entries in [-4, 4]: closed form vs checker
        import itertools

        for p in itertools.product(range(-4, 5), repeat=3):
            for q12 in itertools.product(range(-4, 5), repeat=2):
                q3 = sum(p) - sum(q12)
                if abs(q3) > 4:
                    continue
                q = (*q12, q3)
                try:
                    w = circle(al.su(3), p, q)
                except al.AlgebraError:
                    continue
                assert fr.eschenburg_free(p, q) == fr.is_free_exact(w).free


class TestBazaikinCondition:
    def test_all_ones(self):
        assert fr.bazaikin_free((1, 1, 1, 1, 1))

    def test_one_three(self):
        assert fr.bazaikin_free((1, 1, 1, 1, 3))

    def test_two_threes_fails(self):
        assert not fr.bazaikin_free((1, 1, 1, 3, 3))

    def test_even_entry_fails(self):
        assert not fr.bazaikin_free((1, 1, 1, 1, 2))


class TestPositiveFlag:
    def test_interval_avoidance(self):
        assert fr.eschenburg_positive_flag((1, 1, 1), (0, 0, 3))
        assert fr.eschenburg_positive_flag((1, 2, 3), (0, 0, 6))

    def test_endpoint_inclusion_fails(self):
        # free pair with an entry of q on the interval endpoint: flag off
        assert fr.eschenburg_free((0, 0, 2), (1, -1, 2))
        assert not fr.eschenburg_positive_flag((0, 0, 2), (1, -1, 2))

    def test_requires_free_parameters(self):
        with pytest.raises(ValueError):
            fr.eschenburg_positive_flag((2, 2, 0), (0, 0, 4))
