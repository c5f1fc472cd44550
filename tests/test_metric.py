import numpy as np
import pytest

from biq import algebra as al
from biq import metric as me
from biq.detectors import gromoll_meyer_blocks


@pytest.fixture
def su3_dec():
    return al.root_decomposition(al.su(3))


class TestBuildMetric:
    def test_identity_parameters_give_identity_operator(self, su3_dec, rng):
        P = me.build_metric(su3_dec)
        assert np.array_equal(P.mat, np.eye(su3_dec.dim))
        x = al.random_algebra_element(al.su(3), rng)
        assert np.abs(me.apply_P(P, x).mat - x.mat).max() < 1e-12

    def test_root_block_scaling(self, su3_dec):
        P = me.build_metric(su3_dec, alphas=[1.0, 2.0, 3.0])
        v = su3_dec.roots[1].x  # second root space
        assert np.abs(me.apply_P(P, v).mat - 2.0 * v.mat).max() < 1e-12

    def test_zero_alpha_rejected(self, su3_dec):
        with pytest.raises(al.AlgebraError):
            me.build_metric(su3_dec, alphas=[1.0, 0.0, 3.0])

    def test_non_pd_t_block_rejected(self, su3_dec):
        with pytest.raises(al.AlgebraError):
            me.build_metric(su3_dec, t_block=np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("kwargs", [
        {"alphas": [np.nan, 1.0, 1.0]},
        {"alphas": [1.0, np.inf, 1.0]},
        {"t_block": [[np.inf, 0.0], [0.0, 1.0]]},
        {"t_block": [[1.0, np.nan], [np.nan, 1.0]]},
    ], ids=["nan-alpha", "inf-alpha", "inf-t-block", "nan-t-block"])
    def test_non_finite_input_rejected(self, su3_dec, kwargs):
        # nan <= 0 is False, so the positivity checks alone let NaN through
        with pytest.raises(al.AlgebraError, match="must be finite"):
            me.build_metric(su3_dec, **kwargs)

    def test_alphas_length_mismatch(self, su3_dec):
        with pytest.raises(al.AlgebraError):
            me.build_metric(su3_dec, alphas=[1.0, 2.0])

    def test_eigenvalues_are_block_data(self, su3_dec, rng):
        a = rng.standard_normal((2, 2))
        t_block = a @ a.T + 0.5 * np.eye(2)
        alphas = [0.7, 1.3, 2.9]
        P = me.build_metric(su3_dec, t_block, alphas)
        expected = np.sort(
            np.concatenate([np.linalg.eigvalsh(t_block), np.repeat(alphas, 2)])
        )
        assert np.abs(np.sort(np.linalg.eigvalsh(P.mat)) - expected).max() < 1e-10


class TestApplyP:
    def test_round_trip(self, su3_dec, rng):
        a = rng.standard_normal((2, 2))
        P = me.build_metric(su3_dec, a @ a.T + np.eye(2), [0.5, 1.5, 2.5])
        c = rng.standard_normal(su3_dec.dim)
        back = P.mat_inv @ (P.mat @ c)
        assert np.abs(back - c).max() < 1e-10

    def test_positive_definite(self, su3_dec, rng):
        P = me.build_metric(su3_dec, alphas=[0.5, 1.5, 2.5])
        for _ in range(10):
            x = al.random_algebra_element(al.su(3), rng)
            assert al.inner_q(x, me.apply_P(P, x)) > 0

    def test_self_adjointness(self, su3_dec, rng):
        a = rng.standard_normal((2, 2))
        P = me.build_metric(su3_dec, a @ a.T + np.eye(2), [0.5, 1.5, 2.5])
        for _ in range(10):
            x = al.random_algebra_element(al.su(3), rng)
            y = al.random_algebra_element(al.su(3), rng)
            assert abs(
                al.inner_q(me.apply_P(P, x), y) - al.inner_q(x, me.apply_P(P, y))
            ) < 1e-10

    def test_torus_invariance(self, su3_dec, rng):
        a = rng.standard_normal((2, 2))
        P = me.build_metric(su3_dec, a @ a.T + np.eye(2), [0.5, 1.5, 2.5])
        def inner(x, y):
            return float(su3_dec.to_coords(x) @ P.mat @ su3_dec.to_coords(y))

        for _ in range(5):
            a = rng.uniform(-np.pi, np.pi, size=2)
            t = al.exp_map(al.torus_element(al.su(3), np.append(a, -a.sum())))
            x = al.random_algebra_element(al.su(3), rng)
            y = al.random_algebra_element(al.su(3), rng)
            assert abs(inner(al.adjoint(t, x), al.adjoint(t, y)) - inner(x, y)) < 1e-9

    def test_commutes_with_cartan_ad(self, su3_dec, rng):
        P = me.build_metric(su3_dec, alphas=[0.5, 1.5, 2.5])
        for z in su3_dec.cartan:
            x = al.random_algebra_element(al.su(3), rng)
            lhs = me.apply_P(P, al.bracket(z, x))
            rhs = al.bracket(z, me.apply_P(P, x))
            assert np.abs(lhs.mat - rhs.mat).max() < 1e-10


class TestLTensor:
    def test_bi_invariant_value(self, su3_dec, rng):
        P = me.build_metric(su3_dec)
        a = al.random_algebra_element(al.su(3), rng)
        b = al.random_algebra_element(al.su(3), rng)
        assert np.abs(me.L_tensor(P, a, b).mat + al.bracket(a, b).mat).max() < 1e-12

    def test_vanishes_on_equal_arguments(self, su3_dec, rng):
        P = me.build_metric(su3_dec, alphas=[0.5, 1.5, 2.5])
        a = al.random_algebra_element(al.su(3), rng)
        assert np.abs(me.L_tensor(P, a, a).mat).max() < 1e-12

    def test_vanishes_on_cartan_pairs(self, su3_dec, rng):
        a_blk = rng.standard_normal((2, 2))
        P = me.build_metric(su3_dec, a_blk @ a_blk.T + np.eye(2), [0.5, 1.5, 2.5])
        z1, z2 = su3_dec.cartan
        assert np.abs(me.L_tensor(P, z1, z2).mat).max() < 1e-12


class TestSubspaceMetric:
    def test_block_structure_and_invariance(self, rng):
        dec = al.root_decomposition(al.sp(2))
        from biq.detectors import gromoll_meyer_blocks
        from biq.fixtures import random_gromoll_meyer_metric

        P = random_gromoll_meyer_metric(dec, rng)
        w1, w2, w3 = gromoll_meyer_blocks(dec)
        for sub in (w1, w2, w3):
            for e in sub.basis_elements():
                assert sub.contains(me.apply_P(P, e), tol=1e-9)

    def test_non_finite_scalar_block_rejected(self):
        from biq.detectors import gromoll_meyer_blocks

        dec = al.root_decomposition(al.sp(2))
        w1, w2, w3 = gromoll_meyer_blocks(dec)
        with pytest.raises(al.AlgebraError, match="must be finite"):
            me.build_metric_from_subspaces(dec, [(w1, np.nan), (w2, 1.0), (w3, 1.0)])

    def test_blocks_from_another_algebra_rejected(self):
        # sp(2) and so(5) both have dimension 10, so the blocks fill so(5)
        blocks = gromoll_meyer_blocks(al.root_decomposition(al.sp(2)))
        with pytest.raises(al.AlgebraError, match="not in the algebra of SO"):
            me.build_metric_from_subspaces(al.root_decomposition(al.so(5)),
                                           [(b, 1.0) for b in blocks])

    def test_incomplete_cover_rejected(self):
        dec = al.root_decomposition(al.su(3))
        sub = al.root_subspace(dec, 0)
        with pytest.raises(al.AlgebraError):
            me.build_metric_from_subspaces(dec, [(sub, 1.0)])
