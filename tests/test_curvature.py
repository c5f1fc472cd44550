import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biq import algebra as al
from biq import biquotient as bi
from biq import curvature as cu
from biq import metric as me
from oracles import (
    koszul_numerator,
    matrix_b_tensor,
    matrix_numerator,
    numerator_forms,
    trivial_action,
)


def random_invariant_metric(dec, rng):
    a = rng.standard_normal((dec.rank, dec.rank))
    return me.build_metric(dec, a @ a.T + 0.4 * np.eye(dec.rank),
                           rng.uniform(0.4, 2.5, size=len(dec.roots)))


def random_block_metric(dec, rng, n_blocks=3):
    """Metric with one random positive block on each of n_blocks
    subspaces of a random Q-orthonormal frame."""
    q, _ = np.linalg.qr(rng.standard_normal((dec.dim, dec.dim)))
    cuts = np.sort(rng.choice(np.arange(1, dec.dim), size=n_blocks - 1, replace=False))
    blocks = []
    for rows in np.split(q.T, cuts):
        b = rng.standard_normal((len(rows), len(rows)))
        blocks.append((al.Subspace(dec, rows), b @ b.T + 0.5 * np.eye(len(rows))))
    return me.build_metric_from_subspaces(dec, blocks)


def sectional(P, x, y):
    """The kernel's numerator over the area <x,x><y,y> - <x,y>^2 of span{x, y}."""
    cx, cy = P.dec.to_coords(x), P.dec.to_coords(y)
    area = P.inner_coords(cx, cx) * P.inner_coords(cy, cy) - P.inner_coords(cx, cy) ** 2
    return float(cu.plane_terms(P, cx[None], cy[None]).numerator[0]) / area


KERNEL_FAMILIES = [al.su(3), al.sp(2), al.su(5), al.so(7)]
FORM_FAMILIES = [al.su(3), al.sp(2), al.su(5), al.so(5)]


class TestStructureConstants:
    @pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=str)
    def test_matches_matrix_bracket(self, fam, rng):
        dec = al.root_decomposition(fam)
        C = dec.structure_constants
        assert C.shape == (dec.dim, dec.dim * dec.dim)
        for _ in range(5):
            x = al.random_algebra_element(fam, rng)
            y = al.random_algebra_element(fam, rng)
            cx, cy = dec.to_coords(x), dec.to_coords(y)
            expected = dec.to_coords(al.bracket(x, y))
            assert np.abs(cy @ (cx @ C).reshape(dec.dim, dec.dim) - expected).max() < 1e-12 * max(
                1.0, np.abs(expected).max())


class TestKernel:
    @pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=str)
    def test_single_and_batched_match_both_oracles(self, fam, rng):
        dec = al.root_decomposition(fam)
        P = random_block_metric(dec, rng)
        X = rng.standard_normal((6, dec.dim))
        Y = rng.standard_normal((6, dec.dim))
        batched = cu.plane_terms(P, X, Y).numerator
        for n in range(6):
            x, y = dec.from_coords(X[n]), dec.from_coords(Y[n])
            single = cu.puttmann_numerator(P, x, y)
            for ref in (matrix_numerator(P, x, y), koszul_numerator(P, x, y)):
                assert abs(single - ref) <= 1e-12 * abs(ref)
                assert abs(batched[n] - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("fam", KERNEL_FAMILIES, ids=str)
    def test_fusing_rows_match_L_tensor(self, fam, rng):
        dec = al.root_decomposition(fam)
        P = random_block_metric(dec, rng)
        X = rng.standard_normal((4, dec.dim))
        Y = rng.standard_normal((4, dec.dim))
        terms = cu.plane_terms(P, X, Y)
        for n in range(4):
            x, y = dec.from_coords(X[n]), dec.from_coords(Y[n])
            p_ell = P.apply_coords(dec.to_coords(me.L_tensor(P, x, y)))
            p_xy = P.apply_coords(dec.to_coords(al.bracket(x, y)))
            for row, ref in ((terms.p_fusing[n], p_ell), (terms.p_bracket[n], p_xy)):
                assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(ref)


class TestBTensor:
    # the matrix oracle's B, which matrix_numerator is built on
    def test_vanishes_for_bi_invariant(self, rng):
        dec = al.root_decomposition(al.su(3))
        P = me.build_metric(dec)
        x = al.random_algebra_element(al.su(3), rng)
        y = al.random_algebra_element(al.su(3), rng)
        assert np.abs(matrix_b_tensor(P, x, y).mat).max() < 1e-12

    def test_diagonal_value(self, rng):
        dec = al.root_decomposition(al.su(3))
        P = random_invariant_metric(dec, rng)
        x = al.random_algebra_element(al.su(3), rng)
        b = matrix_b_tensor(P, x, x)
        expected = al.bracket(x, me.apply_P(P, x))
        assert np.abs(b.mat - expected.mat).max() < 1e-10

    def test_vanishes_on_cartan(self, rng):
        dec = al.root_decomposition(al.su(3))
        P = random_invariant_metric(dec, rng)
        z1, z2 = dec.cartan
        assert np.abs(matrix_b_tensor(P, z1, z2).mat).max() < 1e-12


class TestPuttmannNumerator:
    def test_bi_invariant_reduction(self, rng):
        for fam in (al.su(3), al.sp(2), al.so(5)):
            dec = al.root_decomposition(fam)
            P = me.build_metric(dec)
            for _ in range(20):
                x = al.random_algebra_element(fam, rng)
                y = al.random_algebra_element(fam, rng)
                xy = al.bracket(x, y)
                num = cu.puttmann_numerator(P, x, y)
                assert abs(num - 0.25 * al.inner_q(xy, xy)) < 1e-10

    def test_commuting_pair_is_flat(self):
        dec = al.root_decomposition(al.su(3))
        P = me.build_metric(dec)
        z1, z2 = dec.cartan
        assert abs(cu.puttmann_numerator(P, z1, z2)) < 1e-14

    def test_su2_unit_sphere_value(self):
        fam = al.su(2)
        dec = al.root_decomposition(fam)
        P = me.build_metric(dec)
        x = al.AlgebraElement(fam, np.diag([1j, -1j]))
        y = al.AlgebraElement(fam, np.array([[0, 1], [-1, 0]], dtype=complex))
        # frozen from the independent bi-invariant closed form: the bracket
        # has squared norm 4, so the numerator is 1 on this orthonormal pair
        assert abs(cu.puttmann_numerator(P, x, y) - 1.0) < 1e-12

    def test_symmetry_in_arguments(self, rng):
        dec = al.root_decomposition(al.sp(2))
        P = random_invariant_metric(dec, rng)
        for _ in range(10):
            x = al.random_algebra_element(al.sp(2), rng)
            y = al.random_algebra_element(al.sp(2), rng)
            assert abs(
                cu.puttmann_numerator(P, x, y) - cu.puttmann_numerator(P, y, x)
            ) < 1e-10

    @pytest.mark.parametrize("fam", [al.su(3), al.sp(2), al.so(5)])
    def test_matches_connection_oracle(self, fam, rng):
        dec = al.root_decomposition(fam)
        for _ in range(5):
            P = random_invariant_metric(dec, rng)
            x = al.random_algebra_element(fam, rng)
            y = al.random_algebra_element(fam, rng)
            assert abs(
                cu.puttmann_numerator(P, x, y) - koszul_numerator(P, x, y)
            ) < 1e-9

    def test_root_space_plane_matches_oracle(self, rng):
        # the distinguished case: both vectors inside one root space
        dec = al.root_decomposition(al.su(3))
        for _ in range(5):
            P = random_invariant_metric(dec, rng)
            r = dec.roots[rng.integers(3)]
            c = rng.standard_normal(4)
            x = c[0] * r.x + c[1] * r.y
            y = c[2] * r.x + c[3] * r.y
            assert abs(
                cu.puttmann_numerator(P, x, y) - koszul_numerator(P, x, y)
            ) < 1e-9


class TestSectional:
    def test_scaling_invariance(self, rng):
        dec = al.root_decomposition(al.su(3))
        P = random_invariant_metric(dec, rng)
        x = al.random_algebra_element(al.su(3), rng)
        y = al.random_algebra_element(al.su(3), rng)
        s1 = sectional(P, x, y)
        s2 = sectional(P, 2.0 * x, y)
        assert abs(s1 - s2) < 1e-10 * max(1, abs(s1))

    def test_shear_invariance(self, rng):
        dec = al.root_decomposition(al.su(3))
        P = random_invariant_metric(dec, rng)
        x = al.random_algebra_element(al.su(3), rng)
        y = al.random_algebra_element(al.su(3), rng)
        s1 = sectional(P, x, y)
        s2 = sectional(P, x + y, y)
        assert abs(s1 - s2) < 1e-9 * max(1, abs(s1))

    def test_degenerate_plane_rejected(self, rng):
        fam = al.su(3)
        P = me.build_metric(al.root_decomposition(fam))
        x = al.random_algebra_element(fam, rng)
        with pytest.raises(cu.DegeneratePlaneError):
            bi.quotient_sectional(trivial_action(fam), al.identity(fam), P, x, 2.0 * x)

    @pytest.mark.parametrize("j, expected", [(3, 1.0), (4, 0.25)])
    def test_degeneracy_is_scale_free(self, j, expected):
        # two root coordinates of SU(3), one of them scaled by 1e-7: the
        # plane is the same whichever vector carries the small scale
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        P = me.build_metric(dec)
        act, g = trivial_action(fam), al.identity(fam)
        x, y = (dec.from_coords(row) for row in np.eye(dec.dim)[[2, j]])
        for a, b in ((1e-7 * x, y), (x, 1e-7 * y)):
            rep = bi.quotient_sectional(act, g, P, a, b)
            assert abs(rep.sec_quotient - expected) < 1e-12
        with pytest.raises(cu.DegeneratePlaneError):
            bi.quotient_sectional(act, g, P, 1e-7 * x, 2e-7 * x)

    def test_gl2_invariance(self, rng):
        dec = al.root_decomposition(al.sp(2))
        P = random_invariant_metric(dec, rng)
        x = al.random_algebra_element(al.sp(2), rng)
        y = al.random_algebra_element(al.sp(2), rng)
        s0 = sectional(P, x, y)
        for _ in range(10):
            m = rng.standard_normal((2, 2))
            if abs(np.linalg.det(m)) < 0.1:
                continue
            x2 = m[0, 0] * x + m[0, 1] * y
            y2 = m[1, 0] * x + m[1, 1] * y
            s = sectional(P, x2, y2)
            assert abs(s - s0) < 1e-8 * max(1.0, abs(s0))

    def test_bi_invariant_nonnegative_and_flat_iff_commuting(self, rng):
        for fam in (al.su(3), al.sp(2)):
            dec = al.root_decomposition(fam)
            P = me.build_metric(dec)
            for _ in range(30):
                x = al.random_algebra_element(fam, rng)
                y = al.random_algebra_element(fam, rng)
                sec = sectional(P, x, y)
                assert sec >= -1e-12
                xy = al.bracket(x, y)
                bracket_norm = np.sqrt(al.inner_q(xy, xy))
                assert (abs(sec) < cu.FLAT_THRESHOLD) == (bracket_norm < 1e-7)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fam=st.sampled_from(FORM_FAMILIES), bi_invariant=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_numerator_forms_equal_the_kernel(fam, bi_invariant, seed):
    # Y M Y and the linear maps reproduce plane_terms on arbitrary rows
    rng = np.random.default_rng(seed)
    dec = al.root_decomposition(fam)
    P = me.build_metric(dec) if bi_invariant else random_block_metric(dec, rng)
    X = rng.standard_normal((3, dec.dim))
    Y = rng.standard_normal((3, dec.dim))
    terms = cu.plane_terms(P, X, Y)
    forms = numerator_forms(P, X)
    assert np.array_equal(forms.forms, forms.forms.transpose(0, 2, 1))
    value = np.einsum("ni,nij,nj->n", Y, forms.forms, Y)
    scale = max(1.0, np.abs(terms.numerator).max())
    assert np.abs(value - terms.numerator).max() <= 1e-11 * scale
    for op, rows in ((forms.p_bracket, terms.p_bracket),
                     (forms.p_fusing, terms.p_fusing)):
        mapped = np.einsum("nij,nj->ni", op, Y)
        assert np.abs(mapped - rows).max() <= 1e-11 * max(1.0, np.abs(rows).max())
    # Y along X adds nothing: M X = 0
    assert np.abs(np.einsum("nij,nj->ni", forms.forms, X)).max() <= 1e-11 * scale


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(fam=st.sampled_from(FORM_FAMILIES), seed=st.integers(0, 2**32 - 1),
       m=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
def test_sectional_invariant_under_plane_basis_change(fam, seed, m):
    m = np.reshape(m, (2, 2))
    assume(abs(np.linalg.det(m)) > 0.1)
    rng = np.random.default_rng(seed)
    dec = al.root_decomposition(fam)
    P = random_block_metric(dec, rng)
    x = al.random_algebra_element(fam, rng)
    y = al.random_algebra_element(fam, rng)
    s0 = sectional(P, x, y)
    s1 = sectional(P, m[0, 0] * x + m[0, 1] * y, m[1, 0] * x + m[1, 1] * y)
    assert abs(s1 - s0) <= 1e-9 * max(1.0, abs(s0))
