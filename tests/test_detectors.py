import numpy as np
import pytest

from biq import algebra as al
from biq import biquotient as bi
from biq import detectors as de
from biq import freeness as fr
from biq import metric as me
from conftest import assert_certificate_flat
from oracles import matrix_quotient_sectional


class TestCheckN1:
    def test_commuting_root_spaces_su4(self, rng):
        # two root spaces with disjoint index pairs commute; with a trivial
        # action everything is horizontal
        fam = al.su(4)
        dec = al.root_decomposition(fam)
        i01 = next(i for i, r in enumerate(dec.roots) if r.vector == (-1, 1, 0, 0))
        i23 = next(i for i, r in enumerate(dec.roots) if r.vector == (0, 0, -1, 1))
        a_sub = al.Subspace.from_elements(
            dec, [dec.roots[i01].x, dec.roots[i23].x], "commuting"
        )
        act = bi.trivial_action(fam)
        P = me.build_metric(dec, alphas=rng.uniform(0.5, 2, size=len(dec.roots)))
        g = al.identity(fam)
        cert = de.check_N1(P, a_sub, act, g)
        assert cert is not None
        assert_certificate_flat(act, g, P, cert)

    def test_cartan_fails_when_vertical(self):
        # a full left torus action makes the Cartan subalgebra vertical at
        # the identity, so no horizontal pair exists inside it
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        act = bi.one_sided_action(fam, list(dec.cartan), side="left")
        P = me.build_metric(dec)
        diag = {}
        cert = de.check_N1(P, al.cartan_subspace(dec), act, al.identity(fam), diagnostics=diag)
        assert cert is None
        assert "search" in diag

    def test_non_abelian_subspace_rejected(self, rng):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        sub = al.root_subspace(dec, 0)  # [X, Y] lands in the Cartan algebra
        act = bi.trivial_action(fam)
        P = me.build_metric(dec)
        diag = {}
        cert = de.check_N1(P, sub, act, al.identity(fam), diagnostics=diag)
        assert cert is None
        assert "hypothesis" in diag

    def test_flow_quotient_every_point(self, rng):
        # the worked example: a flat plane at every sampled point
        n = 2
        act = bi.unit_tangent_flow_action(n)
        dec = al.root_decomposition(act.group)
        for _ in range(3):
            P = de.random_unit_tangent_metric(n, dec, rng)
            for _ in range(5):
                g = al.random_group_element(act.group, rng)
                pair = de.example4_abelian_pair(n, P, act, g)
                assert pair is not None
                a_sub = al.Subspace.from_elements(dec, list(pair), "plane")
                cert = de.check_N1(P, a_sub, act, g)
                assert cert is not None
                assert_certificate_flat(act, g, P, cert)


class TestCheckN2:
    def test_sp2_circle_long_roots(self, rng):
        # any free circle, any invariant metric, any point
        fam = al.sp(2)
        dec = al.root_decomposition(fam)
        long_roots = [i for i, r in enumerate(dec.roots) if max(r.vector) == 2]
        w1 = al.root_subspace(dec, long_roots[0])
        w2 = al.root_subspace(dec, long_roots[1])
        w = fr.TorusActionWeights(fam, 1, ((1,), (1,)), ((1,), (0,)))
        assert fr.is_free_exact(w).free
        act = bi.from_torus_weights(w)
        for _ in range(3):
            P = de.random_torus_invariant_metric(dec, rng)
            g = al.random_group_element(fam, rng)
            cert = de.check_N2(P, w1, w2, act, g, rng=rng)
            assert cert is not None
            assert_certificate_flat(act, g, P, cert)

    def test_turned_point_block_metrics(self, rng):
        act = bi.gromoll_meyer_action()
        dec = act.dec()
        gmat = al.quaternion_block(
            np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), np.zeros((2, 2))
        )
        g = al.GroupElement(al.sp(2), gmat)
        w1, w2, w3 = de.gromoll_meyer_blocks(dec)
        for _ in range(5):
            P = de.random_gromoll_meyer_metric(dec, rng)
            cert = de.check_N2(P, w1, w2, act, g, rng=rng)
            assert cert is not None
            rep = assert_certificate_flat(act, g, P, cert, tol=1e-9)
            # the certified first direction is forced into the top slot
            assert w1.contains(cert.x, tol=1e-8)

    def test_noncommuting_subspaces_rejected(self, rng):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        sub = al.root_subspace(dec, 0)
        act = bi.trivial_action(fam)
        P = me.build_metric(dec)
        diag = {}
        cert = de.check_N2(P, sub, sub, act, al.identity(fam), rng=rng, diagnostics=diag)
        assert cert is None
        assert "hypothesis" in diag


class TestCheckN3:
    def test_balanced_point_certificate(self, rng):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        t_sub = al.cartan_subspace(dec)
        v1 = al.root_subspace(
            dec, next(i for i, r in enumerate(dec.roots) if r.vector == (-1, 1, 0))
        )
        p, q = (0, 0, 2), (1, -1, 2)
        assert fr.eschenburg_free(p, q)
        act = de.eschenburg_action(p, q)
        P = de.random_torus_invariant_metric(dec, rng)
        g = de.find_balanced_point(p, q)
        cert = de.check_N3(P, t_sub, v1, act, g)
        assert cert is not None
        assert_certificate_flat(act, g, P, cert)

    def test_non_eigenspace_rejected(self, rng):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        P = me.build_metric(dec, alphas=[1.0, 2.0, 3.0])
        mixed = al.Subspace.from_elements(
            dec, [dec.roots[0].x + dec.roots[1].x], "mixed"
        )
        act = bi.trivial_action(fam)
        with pytest.raises(de.HypothesisError):
            de.check_N3(P, al.cartan_subspace(dec), mixed, act, al.identity(fam))

    def test_eigenspace_meeting_right_generators_rejected(self):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        P = me.build_metric(dec)
        act = de.eschenburg_action((1, 1, 1), (0, 0, 3))
        with pytest.raises(de.HypothesisError):
            de.check_N3(P, al.root_subspace(dec, 0), al.cartan_subspace(dec),
                        act, al.identity(fam))

    def test_positive_family_yields_no_certificate(self, rng):
        # positively-curvable parameters: the search over all root spaces
        # finds nothing at random points (evidence, not proof)
        p, q = (1, 2, 3), (0, 0, 6)
        assert fr.eschenburg_positive_flag(p, q)
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        act = de.eschenburg_action(p, q)
        t_sub = al.cartan_subspace(dec)
        found = 0
        for _ in range(50):
            P = de.random_torus_invariant_metric(dec, rng)
            g = al.random_group_element(fam, rng)
            for i in range(3):
                cert = de.check_N3(P, t_sub, al.root_subspace(dec, i), act, g)
                if cert is not None:
                    found += 1
        assert found == 0


class TestFindBalancedPoint:
    def test_interior_case_converges(self):
        p, q = (0, 0, 2), (1, -1, 2)
        g = de.find_balanced_point(p, q)
        act = de.eschenburg_action(p, q)
        xl, xr = act.u_basis[0]
        y3 = al.torus_element(al.su(3), np.array(de.Y3_COORDS))
        resid = al.inner_q(al.adjoint(g.inverse(), xl) - xr, y3)
        assert abs(resid) < 1e-10

    def test_degenerate_case_returns_identity(self):
        # the defect already vanishes at the identity when the third
        # entries agree
        p, q = (0, 0, 2), (-1, 1, 2)
        assert fr.eschenburg_free(p, q)
        g = de.find_balanced_point(p, q)
        assert np.abs(g.mat - np.eye(3)).max() < 1e-12

    def test_positive_flag_parameters_fail(self):
        p, q = (1, 2, 3), (0, 0, 6)
        with pytest.raises(de.BalancedPointError):
            de.find_balanced_point(p, q, restarts=2)

    def test_permutation_hook(self):
        # distinguished entry in the first slot instead of the third
        p, q = (0, 0, 2), (2, 1, -1)
        assert fr.eschenburg_free(p, q)
        g = de.find_balanced_point(p, q, q_index=0)
        act = de.eschenburg_action(p, (q[1], q[2], q[0]))
        xl, xr = act.u_basis[0]
        y3 = al.torus_element(al.su(3), np.array(de.Y3_COORDS))
        assert abs(al.inner_q(al.adjoint(g.inverse(), xl) - xr, y3)) < 1e-10


class TestNumericFlatSearch:
    def test_gromoll_meyer_identity_positive(self, rng):
        act = bi.gromoll_meyer_action()
        P = me.build_metric(act.dec())
        best = de.numeric_flat_search(act, al.identity(al.sp(2)), P,
                                      budget=800, rng=rng)
        assert best.sec_quotient > 0.01
        assert best.certificate == "none"

    def test_sp2_circle_min_reaches_flat_level(self, rng):
        # a flat plane exists at every point, so the minimum over planes
        # drops (at least) to zero; random invariant metrics also carry
        # negatively curved planes, which the search may find
        fam = al.sp(2)
        dec = al.root_decomposition(fam)
        w = fr.TorusActionWeights(fam, 1, ((1,), (1,)), ((1,), (0,)))
        act = bi.from_torus_weights(w)
        P = de.random_torus_invariant_metric(dec, rng)
        g = al.random_group_element(fam, rng)
        best = de.numeric_flat_search(act, g, P, budget=4000, rng=rng)
        assert best.sec_quotient < 1e-8

    def test_trivial_action_finds_cartan_plane(self, rng):
        fam = al.su(3)
        act = bi.trivial_action(fam)
        P = me.build_metric(al.root_decomposition(fam))
        best = de.numeric_flat_search(act, al.identity(fam), P, budget=4000, rng=rng)
        assert best.sec_quotient < 1e-8

    def test_zero_budget_rejected(self, rng):
        act = bi.gromoll_meyer_action()
        P = me.build_metric(act.dec())
        with pytest.raises(ValueError):
            de.numeric_flat_search(act, al.identity(al.sp(2)), P, budget=0)

    @pytest.mark.parametrize("chunk", [7, 256])
    def test_random_phase_matches_sequential_matrix_loop(self, chunk, monkeypatch):
        # a budget of 2n planes with n < 125 leaves the descent too few
        # evaluations to start, so the search returns its best sample
        monkeypatch.setattr(de, "SEARCH_CHUNK", chunk)
        rng = np.random.default_rng(5)
        act = bi.gromoll_meyer_action()
        dec = act.dec()
        P = de.random_gromoll_meyer_metric(dec, rng)
        g = al.random_group_element(act.group, rng)
        frame = bi.PointFrame.at(act, g, P)
        hor = frame.horizontal()
        h = hor.dim
        pm = P.mat

        stream = np.random.default_rng(9)
        best_val, best_plane = np.inf, None
        for _ in range(100):
            theta = stream.standard_normal(2 * h)
            c1 = hor.coords.T @ theta[:h]
            c1 = c1 / np.sqrt(c1 @ pm @ c1)
            c2 = hor.coords.T @ theta[h:]
            c2 = c2 - (c2 @ pm @ c1) * c1
            c2 = c2 / np.sqrt(c2 @ pm @ c2)
            v = matrix_quotient_sectional(act, g, P, c1, c2)
            if v < best_val:
                best_val, best_plane = v, (c1, c2)

        rep = de.numeric_flat_search(act, g, P, budget=200,
                                     rng=np.random.default_rng(9))
        assert np.abs(dec.to_coords(rep.x) - best_plane[0]).max() < 1e-10
        assert np.abs(dec.to_coords(rep.y) - best_plane[1]).max() < 1e-10
        assert abs(rep.sec_quotient - best_val) <= 1e-12 * max(1.0, abs(best_val))


class TestFixturesSmall:
    def test_example1_small(self):
        r = de.run_example1(seed=11, n_weights=2, n_metrics=2, n_points=2)
        assert r["passed"]

    def test_example2_small(self):
        r = de.run_example2(seed=11, n_cases=2)
        assert r["passed"]

    def test_example3_small(self):
        r = de.run_example3(seed=11, n_metrics=2, budget=800)
        assert r["passed"]
        assert r["point_normalization"] == "1/sqrt(2)"

    def test_example4_small(self):
        r = de.run_example4(seed=11, ns=(2,), n_points=3, n_metrics=2)
        assert r["passed"]
