import numpy as np
import pytest

from biq import algebra as al
from biq import freeness as fr
from biq.metric import MetricOperator
from conftest import semisimple_families
from oracles import (
    check_algebra_element,
    check_group_element,
    earlier_root_decomposition,
    earlier_structure_constants,
    scipy_exp_map,
    scipy_span_coords,
)


class TestGroupFamily:
    def test_integral_float_size_reads_as_int(self):
        fam = al.GroupFamily("Sp", 2.0)
        assert fam == al.sp(2) and str(fam) == "Sp(2)" and type(fam.n) is int
        # a float n used to reach factorial() in the walk and raise TypeError
        w = fr.TorusActionWeights(fam, 1, ((1,), (1,)), ((1,), (0,)))
        assert fr.is_free_exact(w).free

    @pytest.mark.parametrize("n", [2.5, "2", None])
    def test_non_integral_size_rejected(self, n):
        with pytest.raises(al.AlgebraError, match="integer"):
            al.GroupFamily("Sp", n)

    @pytest.mark.parametrize("fam,rows", [
        (al.su(3), 3), (al.u(2), 2), (al.sp(3), 3), (al.so(7), 3), (al.so(8), 4),
    ], ids=str)
    def test_torus_rows_sizes_torus_coordinates_and_weight_rows(self, fam, rows):
        assert fam.torus_rows == rows
        al.torus_element(fam, np.zeros(rows))
        for wrong in (rows - 1, rows + 1):
            with pytest.raises(al.AlgebraError, match=f"expected {rows} torus"):
                al.torus_element(fam, np.zeros(wrong))
        ones = ((1,),) * rows
        assert fr.TorusActionWeights(fam, 1, ones, ones).n_rows == rows
        with pytest.raises(al.AlgebraError, match=f"W_L must be {rows}x1"):
            fr.TorusActionWeights(fam, 1, ones + ((1,),), ones)


class TestBracket:
    def test_cartan_elements_commute_su3(self):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        for z1 in dec.cartan:
            for z2 in dec.cartan:
                assert np.abs(al.bracket(z1, z2).mat).max() < 1e-14

    def test_su2_hand_value(self):
        fam = al.su(2)
        x = al.AlgebraElement(fam, np.diag([1j, -1j]))
        y = al.AlgebraElement(fam, np.array([[0, 1], [-1, 0]], dtype=complex))
        expected = np.array([[0, 2j], [2j, 0]])
        assert np.abs(al.bracket(x, y).mat - expected).max() < 1e-14

    def test_self_bracket_vanishes(self, rng):
        for fam in (al.su(3), al.sp(2), al.so(5)):
            for _ in range(50):
                a = al.random_algebra_element(fam, rng)
                assert np.abs(al.bracket(a, a).mat).max() < 1e-12

    def test_family_mismatch_rejected(self, rng):
        a = al.random_algebra_element(al.su(3), rng)
        b = al.random_algebra_element(al.su(2), rng)
        with pytest.raises(al.AlgebraError):
            al.bracket(a, b)

    def test_jacobi_identity(self, rng):
        for fam in semisimple_families():
            for _ in range(5):
                a, b, c = (al.random_algebra_element(fam, rng) for _ in range(3))
                total = (
                    al.bracket(a, al.bracket(b, c))
                    + al.bracket(b, al.bracket(c, a))
                    + al.bracket(c, al.bracket(a, b))
                )
                assert np.abs(total.mat).max() < 1e-9


class TestInnerQ:
    def test_su2_hand_value(self):
        fam = al.su(2)
        a = al.AlgebraElement(fam, np.diag([1j, -1j]))
        assert abs(al.inner_q(a, a) - 1.0) < 1e-14

    def test_cartan_orthogonal_to_root_vectors(self):
        dec = al.root_decomposition(al.su(3))
        for z in dec.cartan:
            for r in dec.roots:
                assert abs(al.inner_q(z, r.x)) < 1e-14
                assert abs(al.inner_q(z, r.y)) < 1e-14

    def test_ad_invariance(self, rng):
        for fam in (al.su(3), al.sp(2), al.so(5)):
            for _ in range(5):
                g = al.random_group_element(fam, rng)
                a = al.random_algebra_element(fam, rng)
                b = al.random_algebra_element(fam, rng)
                lhs = al.inner_q(al.adjoint(g, a), al.adjoint(g, b))
                assert abs(lhs - al.inner_q(a, b)) < 1e-10

    def test_ad_skewness(self, rng):
        for fam in (al.su(3), al.sp(2), al.so(5)):
            z, x, y = (al.random_algebra_element(fam, rng) for _ in range(3))
            s = al.inner_q(al.bracket(z, x), y) + al.inner_q(x, al.bracket(z, y))
            assert abs(s) < 1e-10

    def test_positive_definite(self, rng):
        for fam in semisimple_families():
            a = al.random_algebra_element(fam, rng)
            assert al.inner_q(a, a) > 0


class TestExpMap:
    def test_zero_maps_to_identity(self):
        g = al.exp_map(al.zero(al.su(3)))
        assert np.abs(g.mat - np.eye(3)).max() < 1e-14

    def test_diagonal_half_turns(self):
        a = al.AlgebraElement(al.su(3), np.diag([1j * np.pi, -1j * np.pi, 0]))
        g = al.exp_map(a)
        assert np.abs(g.mat - np.diag([-1, -1, 1])).max() < 1e-10

    def test_inverse(self, rng):
        for fam in (al.su(3), al.sp(2), al.so(5)):
            a = al.random_algebra_element(fam, rng)
            g = al.exp_map(a)
            h = al.exp_map(-a)
            assert np.abs(g.mat @ h.mat - np.eye(fam.matrix_size)).max() < 1e-10

    def test_output_satisfies_group_invariants(self, rng):
        for fam in semisimple_families():
            g = al.exp_map(al.random_algebra_element(fam, rng))
            check_group_element(g, tol=1e-10)

    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_matches_scipy_expm(self, rng, scale):
        for fam in semisimple_families():
            for _ in range(10):
                a = scale * al.random_algebra_element(fam, rng)
                assert np.abs(al.exp_map(a).mat - scipy_exp_map(a)).max() < 1e-13

    def test_real_element_has_a_real_exponential(self, rng):
        g = al.exp_map(al.random_algebra_element(al.so(5), rng))
        assert not g.mat.imag.any()


class TestRootDecomposition:
    @pytest.mark.parametrize(
        "fam,count",
        [(al.su(3), 3), (al.sp(2), 4), (al.so(5), 4)],
    )
    def test_root_counts(self, fam, count):
        dec = al.root_decomposition(fam)
        assert len(dec.roots) == count
        assert dec.rank == 2
        assert dec.dim == fam.dim

    def test_counts_formula_all_families(self):
        for fam in semisimple_families():
            dec = al.root_decomposition(fam)
            assert len(dec.roots) == (fam.dim - fam.rank) // 2

    def test_unsupported_family(self):
        with pytest.raises(al.AlgebraError):
            al.root_decomposition(al.u(3))

    @pytest.mark.parametrize("fam", [
        *(al.su(n) for n in range(2, 9)), *(al.sp(n) for n in range(1, 6)),
        *(al.so(m) for m in range(3, 13)),
    ], ids=str)
    def test_decomposition_equals_the_earlier_construction(self, fam):
        # every Cartan and root matrix, the integer root functionals, the
        # coordinate frame and the structure constants, bit for bit
        dec, ref = al.root_decomposition(fam), earlier_root_decomposition(fam)
        assert [r.vector for r in dec.roots] == [r.vector for r in ref.roots]
        assert all(type(v) is int for r in dec.roots for v in r.vector)
        for a, b in zip(dec.basis, ref.basis, strict=True):
            assert np.array_equal(a.mat, b.mat)
        assert np.array_equal(dec._basis_flat, ref._basis_flat)
        assert np.array_equal(dec.structure_constants, earlier_structure_constants(ref))

    def test_root_action_matrix(self, rng):
        for fam in semisimple_families():
            dec = al.root_decomposition(fam)
            coords = rng.standard_normal(fam.rank)
            if fam.name == "SU":
                coords = rng.standard_normal(fam.n)
                coords -= coords.mean()
            z = al.torus_element(fam, coords)
            for r in dec.roots:
                rz = r.value(z)
                assert np.abs(al.bracket(z, r.x).mat + rz * r.y.mat).max() < 1e-10
                assert np.abs(al.bracket(z, r.y).mat - rz * r.x.mat).max() < 1e-10

    def test_completeness(self, rng):
        for fam in semisimple_families():
            dec = al.root_decomposition(fam)
            x = al.random_algebra_element(fam, rng)
            back = dec.from_coords(dec.to_coords(x))
            assert np.abs(back.mat - x.mat).max() < 1e-10

    def test_basis_orthonormal(self):
        for fam in semisimple_families():
            dec = al.root_decomposition(fam)
            basis = dec.basis
            gram = np.array([[al.inner_q(a, b) for b in basis] for a in basis])
            assert np.abs(gram - np.eye(len(basis))).max() < 1e-10


class TestEmbeddings:
    def test_sp_identity(self):
        g = al.GroupElement(al.sp(2), al.quaternion_block(np.eye(2), np.zeros((2, 2))))
        check_group_element(g)
        assert np.abs(g.mat - np.eye(4)).max() < 1e-14

    def test_pure_j_unit(self):
        x = al.AlgebraElement(al.sp(1), al.quaternion_block(np.zeros((1, 1)), np.eye(1)))
        check_algebra_element(x)
        assert np.abs(x.mat - np.array([[0, -1], [1, 0]])).max() < 1e-14

    def test_bracket_homomorphism(self, rng):
        n = 2
        for _ in range(10):
            elems = []
            for _ in range(2):
                b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                b = (b - b.conj().T) / 2
                c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                c = (c + c.T) / 2
                elems.append((b, c))
            imgs = [al.AlgebraElement(al.sp(n), al.quaternion_block(b, c))
                    for b, c in elems]
            for img in imgs:
                check_algebra_element(img)
            # quaternionic commutator computed through the embedding itself
            # must agree with the matrix commutator of the images
            br = al.bracket(imgs[0], imgs[1])
            check_algebra_element(br)  # image closed under brackets
            direct = imgs[0].mat @ imgs[1].mat - imgs[1].mat @ imgs[0].mat
            assert np.abs(br.mat - direct).max() < 1e-12


class TestSubspace:
    def test_projection_and_membership(self, rng):
        dec = al.root_decomposition(al.su(3))
        sub = al.root_subspace(dec, 0)
        assert sub.dim == 2
        assert sub.contains(dec.roots[0].x)
        assert not sub.contains(dec.cartan[0])
        x = al.random_algebra_element(al.su(3), rng)
        p = sub.project(x)
        assert sub.contains(p, tol=1e-9) or np.abs(p.mat).max() < 1e-12

    def test_from_elements_spans_what_scipy_orth_spans(self, rng):
        for fam in semisimple_families():
            dec = al.root_decomposition(fam)
            xs = [al.random_algebra_element(fam, rng) for _ in range(3)]
            sub = al.Subspace.from_elements(dec, xs)
            ref = scipy_span_coords(dec, xs)
            assert sub.dim == ref.shape[0] == 3
            assert np.abs(_projector(sub.coords) - _projector(ref)).max() < 1e-12

    def test_from_elements_of_nothing_is_the_zero_subspace(self):
        dec = al.root_decomposition(al.so(3))
        sub = al.Subspace.from_elements(dec, [], "empty")
        assert sub.dim == 0 and sub.coords.shape == (0, dec.dim)
        assert sub.basis_elements() == []
        assert not sub.project_coords(np.ones(dec.dim)).any()

    @pytest.mark.parametrize("small, dim", [(1e-13, 2), (1e-10, 3)])
    def test_from_elements_cuts_rank_at_tol_times_the_largest_singular_value(
            self, rng, small, dim):
        # x + y and 2x add nothing; z enters at `small` relative to the
        # rest, below or above the rank cut at 1e-12; the inputs are
        # scaled so that an absolute or an eps-based cut would keep it both times
        dec = al.root_decomposition(al.su(3))
        x, y, z = (1e3 * al.random_algebra_element(al.su(3), rng) for _ in range(3))
        xs = [x, y, x + y, 2.0 * x, x + small * z]
        sub = al.Subspace.from_elements(dec, xs)
        ref = scipy_span_coords(dec, xs)
        assert sub.dim == ref.shape[0] == dim
        # the z direction is fixed only to about eps / small
        assert np.abs(_projector(sub.coords) - _projector(ref)).max() < 1e-5


def _projector(rows):
    return rows.T @ rows



@pytest.mark.parametrize("kind", ["GroupElement", "AlgebraElement", "MetricOperator",
                                  "Subspace"])
def test_an_array_view_is_copied_before_it_is_frozen(kind):
    # freezing a view leaves its base writable; a write through the base
    # would change the object under PointFrame.at's identity-keyed slot
    dec = al.root_decomposition(al.sp(2))
    build = {
        "GroupElement": lambda m: al.GroupElement(dec.family, m).mat,
        "AlgebraElement": lambda m: al.AlgebraElement(dec.family, m).mat,
        "MetricOperator": lambda m: MetricOperator(dec, m, np.eye(dec.dim)).mat,
        "Subspace": lambda m: al.Subspace(dec, m[:2]).coords,
    }[kind]
    base = np.eye(4, dtype=complex) if kind.endswith("Element") else np.eye(dec.dim)
    arr = build(base[:])
    base[0, 0] = 5
    assert arr[0, 0] == 1 and not arr.flags.writeable
