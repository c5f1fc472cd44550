import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biq import algebra as al
from biq import biquotient as bi
from biq import catalog as ca
from biq import detectors as de
from biq import fixtures as fx
from biq import freeness as fr
from biq import metric as me
from conftest import assert_certificate_flat
from oracles import (
    matrix_check_N1,
    matrix_check_N2,
    matrix_check_N3,
    matrix_quotient_sectional,
    nelder_mead_flat_search,
    one_sided_action,
    projector_alternation_step,
    scipy_lbfgsb_polish,
    trivial_action,
)


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
        act = trivial_action(fam)
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
        act = one_sided_action(fam, list(dec.cartan), side="left")
        P = me.build_metric(dec)
        diag = {}
        cert = de.check_N1(P, al.cartan_subspace(dec), act, al.identity(fam), diagnostics=diag)
        assert cert is None
        assert "search" in diag

    def test_non_abelian_subspace_rejected(self, rng):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        sub = al.root_subspace(dec, 0)  # [X, Y] lands in the Cartan algebra
        act = trivial_action(fam)
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
            P = fx.random_unit_tangent_metric(n, dec, rng)
            for _ in range(5):
                g = al.random_group_element(act.group, rng)
                pair = de.example4_abelian_pair(n, P, act, g)
                assert pair is not None
                a_sub = al.Subspace.from_elements(dec, list(pair), "plane")
                cert = de.check_N1(P, a_sub, act, g)
                assert cert is not None
                assert_certificate_flat(act, g, P, cert)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_tangent_blocks_split_the_algebra(self, n):
        # so(2n+1) = so(2n-1) + V + W + corner; for n = 1 the so(1) block is empty
        dec = al.root_decomposition(al.so(2 * n + 1))
        blocks = de.unit_tangent_blocks(n, dec)
        assert [b.dim for b in blocks] == [(n - 1) * (2 * n - 1), 2 * n - 1, 2 * n - 1, 1]
        coords = np.vstack([b.coords for b in blocks])
        assert np.abs(coords @ coords.T - np.eye(dec.dim)).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_flow_pair_ignores_last_digit_changes_of_the_point(self, n):
        # the horizontal slices have dimension > 1, so a pair read off their
        # SVD bases would move with roundoff; the plane must not
        rng = np.random.default_rng(0)
        act = bi.unit_tangent_flow_action(n)
        dec = al.root_decomposition(act.group)

        def plane(g):
            rows = np.array([dec.to_coords(v) for v in de.example4_abelian_pair(n, P, act, g)])
            q, _ = np.linalg.qr(rows.T)
            return q @ q.T

        P = fx.random_unit_tangent_metric(n, dec, rng)
        for _ in range(8):
            g = al.random_group_element(act.group, rng)
            nudged = g.mat * (1 + 4e-16 * rng.standard_normal(g.mat.shape))
            assert np.abs(plane(al.GroupElement(act.group, nudged)) - plane(g)).max() < 1e-10


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
            P = fx.random_torus_invariant_metric(dec, rng)
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
            P = fx.random_gromoll_meyer_metric(dec, rng)
            cert = de.check_N2(P, w1, w2, act, g, rng=rng)
            assert cert is not None
            rep = assert_certificate_flat(act, g, P, cert, tol=1e-9)
            # the certified first direction is forced into the top slot
            assert w1.contains(cert.x, tol=1e-8)

    def test_noncommuting_subspaces_rejected(self, rng):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        sub = al.root_subspace(dec, 0)
        act = trivial_action(fam)
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
        act = fx.eschenburg_action(p, q)
        P = fx.random_torus_invariant_metric(dec, rng)
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
        act = trivial_action(fam)
        diag = {}
        assert de.check_N3(P, al.cartan_subspace(dec), mixed, act, al.identity(fam),
                           diagnostics=diag) is None
        assert "hypothesis" in diag

    def test_eigenspace_meeting_right_generators_rejected(self):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        P = me.build_metric(dec)
        act = fx.eschenburg_action((1, 1, 1), (0, 0, 3))
        diag = {}
        assert de.check_N3(P, al.root_subspace(dec, 0), al.cartan_subspace(dec),
                           act, al.identity(fam), diagnostics=diag) is None
        assert "hypothesis" in diag

    def test_positive_family_yields_no_certificate(self, rng):
        # positively-curvable parameters: the search over all root spaces
        # finds nothing at random points (evidence, not proof)
        p, q = (1, 2, 3), (0, 0, 6)
        assert fr.eschenburg_positive_flag(p, q)
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        act = fx.eschenburg_action(p, q)
        t_sub = al.cartan_subspace(dec)
        found = 0
        for _ in range(50):
            P = fx.random_torus_invariant_metric(dec, rng)
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
        act = fx.eschenburg_action(p, q)
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
            de.find_balanced_point(p, q)

    # every balanced pair with entries in [-2, 2] whose q_3 is an entry p_j
    # with the other entry of p on the wrong side: sin^2 t = 1, t = pi/2
    ENDPOINT_PAIRS = [
        ((-2, -1, 1), (0, 0, -2)), ((-2, 1, -1), (0, 0, -2)),
        ((-1, -2, 1), (0, 0, -2)), ((-1, 2, 1), (0, 0, 2)),
        ((1, -2, -1), (0, 0, -2)), ((1, 2, -1), (0, 0, 2)),
        ((2, -1, 1), (0, 0, 2)), ((2, 1, -1), (0, 0, 2)),
    ]

    @pytest.mark.parametrize("p, q", ENDPOINT_PAIRS)
    def test_endpoint_target_is_a_plane_rotation(self, p, q):
        assert fr.eschenburg_free(p, q)
        g = de.find_balanced_point(p, q, tol=1e-10)
        assert _balance_defect(p, q, g) <= 1e-10
        # the identity outside rows and columns {j, 3} for some j: the
        # other row and column of the first two are a unit vector
        e = np.eye(3)
        assert any(
            np.abs(g.mat[k] - e[k]).max() < 1e-12
            and np.abs(g.mat[:, k] - e[k]).max() < 1e-12
            for k in (0, 1)
        )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        p=st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        q12=st.lists(st.integers(-6, 6), min_size=2, max_size=2),
    )
    def test_point_returned_iff_target_in_interval(self, p, q12):
        # Schur-Horn: the (3,3) entry of g* diag(p) g fills [min p, max p]
        q3 = sum(p) - sum(q12)
        q = q12 + [q3]
        inside = min(p) <= q3 <= max(p)
        try:
            g = de.find_balanced_point(p, q, tol=1e-10)
        except de.BalancedPointError:
            assert not inside
            return
        assert inside
        assert _balance_defect(p, q, g) <= 1e-10


def _balance_defect(p, q, g):
    """|Q(Ad_{g^-1} X_L - X_R, Y3)| for the circle p, q (distinguished
    entry of q last), with mean-free torus coordinates."""
    fam = al.su(3)
    pv, qv = np.array(p, dtype=float), np.array(q, dtype=float)
    xl = al.torus_element(fam, pv - pv.mean())
    xr = al.torus_element(fam, qv - qv.mean())
    y3 = al.torus_element(fam, np.array(de.Y3_COORDS))
    return abs(al.inner_q(al.adjoint(g.inverse(), xl) - xr, y3))


def _circle_action(name):
    """The free circle (1, ..., 1) on the left, (n, 0, ..., 0) on the right
    of Sp(2), SU(3) or SU(5), or the SU(3) two-torus of the corollary."""
    if name == "two-torus":
        return bi.from_torus_weights(ca.corollary_su3_weights())
    fam = {"Sp(2)": al.sp(2), "SU(3)": al.su(3), "SU(5)": al.su(5)}[name]
    w = fr.TorusActionWeights(fam, 1, ((1,),) * fam.n,
                              ((fam.n,),) + ((0,),) * (fam.n - 1))
    return bi.from_torus_weights(w)


def _horizontal_rows(name, seed):
    """The frame, P-orthonormal horizontal rows H, their kernel and the
    generator at a random point and metric of a named action."""
    rng = np.random.default_rng(seed)
    if name == "gromoll-meyer":
        act = bi.gromoll_meyer_action()
        P = fx.random_gromoll_meyer_metric(act.dec(), rng)
    else:
        act = _circle_action(name)
        P = fx.random_torus_invariant_metric(act.dec(), rng)
    g = al.random_group_element(act.group, rng)
    frame = bi.PointFrame.at(act, g, P)
    hor = frame.horizontal()
    H = np.linalg.solve(np.linalg.cholesky(hor.coords @ P.mat @ hor.coords.T), hor.coords)
    return frame, H, frame.horizontal_forms(H), rng


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
        P = fx.random_torus_invariant_metric(dec, rng)
        g = al.random_group_element(fam, rng)
        best = de.numeric_flat_search(act, g, P, budget=4000, rng=rng)
        assert best.sec_quotient < 1e-8

    def test_trivial_action_finds_cartan_plane(self, rng):
        fam = al.su(3)
        act = trivial_action(fam)
        P = me.build_metric(al.root_decomposition(fam))
        best = de.numeric_flat_search(act, al.identity(fam), P, budget=4000, rng=rng)
        assert best.sec_quotient < 1e-8

    def test_zero_budget_rejected(self, rng):
        act = bi.gromoll_meyer_action()
        P = me.build_metric(act.dec())
        with pytest.raises(ValueError):
            de.numeric_flat_search(act, al.identity(al.sp(2)), P, budget=0)

    def test_restarts_below_one_rejected(self):
        act = bi.gromoll_meyer_action()
        P = me.build_metric(act.dec())
        with pytest.raises(ValueError):
            de.numeric_flat_search(act, al.identity(al.sp(2)), P, local_restarts=0)

    def test_diagnostics_count_the_phases(self):
        act = bi.gromoll_meyer_action()
        P = me.build_metric(act.dec())
        g = al.identity(al.sp(2))
        none, small, full = {}, {}, {}
        # 40 descent evaluations: less than one start's share, no descent
        de.numeric_flat_search(act, g, P, budget=80, diagnostics=none)
        assert none == {"planes_sampled": 40, "descent_starts": 0,
                        "alternation_steps": 0, "polish_evaluations": 0}
        # 100 descent evaluations afford 2 of the 4 starts
        de.numeric_flat_search(act, g, P, budget=200, diagnostics=small)
        assert small["planes_sampled"] == 100
        assert small["descent_starts"] == 2
        assert 0 < small["polish_evaluations"] <= 100 - small["alternation_steps"]
        de.numeric_flat_search(act, g, P, budget=2000, local_restarts=3,
                               diagnostics=full)
        assert full["planes_sampled"] == 1000
        assert full["descent_starts"] == 3
        assert 0 < full["alternation_steps"] <= 3 * de.ALTERNATIONS
        assert full["alternation_steps"] % 3 == 0
        assert 0 < full["polish_evaluations"] <= 1000 - full["alternation_steps"]

    @pytest.mark.parametrize("name", ["gromoll-meyer", "Sp(2)", "SU(5)"])
    def test_alternation_steps_never_raise_kappa(self, name):
        frame, H, forms, rng = _horizontal_rows(name, 3)
        q, _ = np.linalg.qr(rng.standard_normal((H.shape[0], 2)))
        a, b = q.T[None, 0], q.T[None, 1]
        sec_g, oneill = frame.curvature_rows(a @ H, b @ H)
        value = sec_g + oneill
        for _ in range(15):
            lam, nxt = de._alternation_step(forms, b)
            assert lam[0] <= value[0] + 1e-12 * max(1.0, abs(value[0]))
            # the step's value is the curvature of the orthonormal pair
            assert abs(nxt[0] @ b[0]) < 1e-12 and abs(nxt[0] @ nxt[0] - 1) < 1e-12
            sec_g, oneill = frame.curvature_rows(b @ H, nxt @ H)
            assert abs(sec_g[0] + oneill[0] - lam[0]) <= 1e-10 * max(1.0, abs(lam[0]))
            value, b = lam, nxt

    @pytest.mark.parametrize("name", ["gromoll-meyer", "Sp(2)", "SU(3)", "two-torus", "SU(5)"])
    def test_deflated_step_equals_the_projector_step(self, name):
        # eigh on a Householder basis of the complement of a gives the
        # least value of the projected and shifted full-size form
        frame, H, forms, rng = _horizontal_rows(name, 4)
        a = rng.standard_normal((5, H.shape[0]))
        a /= np.linalg.norm(a, axis=1)[:, None]
        a[0] = np.eye(H.shape[0])[0]  # the reflection's pivot on either sign
        a[1] = -a[0]
        lam, b = de._alternation_step(forms, a)
        ref, _ = projector_alternation_step(frame, H, a)
        assert np.abs(lam - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        assert np.abs(np.einsum("ij,ij->i", b, b) - 1).max() < 1e-12
        assert np.abs(np.einsum("ij,ij->i", a, b)).max() < 1e-12
        sec_g, oneill = frame.curvature_rows(a @ H, b @ H)
        assert np.abs(sec_g + oneill - lam).max() <= 1e-12 * max(1.0, np.abs(lam).max())

    @pytest.mark.parametrize("name", ["gromoll-meyer", "Sp(2)", "two-torus", "SU(5)"])
    def test_pair_value_gradient_equals_central_differences(self, name):
        _, H, forms, rng = _horizontal_rows(name, 5)
        theta = rng.standard_normal(2 * H.shape[0])
        f, grad = de._pair_value(forms, theta)
        step = 1e-6
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = step
            diff = (de._pair_value(forms, theta + e)[0]
                    - de._pair_value(forms, theta - e)[0]) / (2 * step)
            assert abs(diff - grad[i]) <= 1e-7 * max(1.0, abs(f), np.abs(grad).max())

    @pytest.mark.parametrize("name, at_identity", [
        ("Sp(2)", True), ("SU(3)", True), ("two-torus", True),
        ("Sp(2)", False), ("two-torus", False), ("SU(5)", False),
    ])
    def test_not_above_the_nelder_mead_reference(self, name, at_identity):
        rng = np.random.default_rng(100)
        act = _circle_action(name)
        P = fx.random_torus_invariant_metric(act.dec(), rng)
        g = al.identity(act.group) if at_identity else al.random_group_element(act.group, rng)
        new = de.numeric_flat_search(act, g, P, budget=2000,
                                     rng=np.random.default_rng(7))
        ref = nelder_mead_flat_search(act, g, P, budget=2000,
                                      rng=np.random.default_rng(7))
        assert new.sec_quotient <= ref.sec_quotient + 1e-12 * max(1.0, abs(ref.sec_quotient))

    @pytest.mark.parametrize("budget", [800, 10_000])
    def test_gromoll_meyer_identity_not_above_the_nelder_mead_reference(self, budget):
        act = bi.gromoll_meyer_action()
        P = me.build_metric(act.dec())
        g = al.identity(al.sp(2))
        new = de.numeric_flat_search(act, g, P, budget=budget,
                                     rng=np.random.default_rng(1))
        ref = nelder_mead_flat_search(act, g, P, budget=budget,
                                      rng=np.random.default_rng(1))
        assert new.sec_quotient <= ref.sec_quotient + 1e-12 * max(1.0, abs(ref.sec_quotient))
        # every budget and seed tried converges to this minimum (16/157 to rounding)
        assert abs(new.sec_quotient - 16 / 157) < 1e-12

    @staticmethod
    def _polish_start(name, seed):
        """The kernel and the alternation result at a random point and
        metric: the polish's start in numeric_flat_search."""
        _, H, forms, rng = _horizontal_rows(name, seed)
        q, _ = np.linalg.qr(rng.standard_normal((H.shape[0], 2)))
        b = q.T[None, 1]
        for _ in range(de.ALTERNATIONS):
            _, nxt = de._alternation_step(forms, b)
            a, b = b, nxt
        return forms, a[0], b[0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["Sp(2)", "SU(3)", "two-torus", "SU(5)"])
    def test_polish_not_above_the_lbfgsb_reference(self, name, seed):
        forms, a, b = self._polish_start(name, seed)
        ref = scipy_lbfgsb_polish(forms, a, b, 1000)[0]
        for max_evals in (1, 2, 1000):
            f, pa, pb, n = de._polish(forms, a, b, max_evals)
            assert 1 <= n <= max_evals
            assert abs(pa @ pa - 1) < 1e-12 and abs(pb @ pb - 1) < 1e-12
        assert f <= ref + 1e-12 * max(1.0, abs(ref))

    @pytest.mark.parametrize("chunk", [7, 256])
    def test_random_phase_matches_sequential_matrix_loop(self, chunk, monkeypatch):
        # a budget of 2n planes with n < MIN_DESCENT_SHARE leaves the descent
        # too few evaluations to start, so the search returns its best sample
        monkeypatch.setattr(de, "SEARCH_CHUNK", chunk)
        rng = np.random.default_rng(5)
        act = bi.gromoll_meyer_action()
        dec = act.dec()
        P = fx.random_gromoll_meyer_metric(dec, rng)
        g = al.random_group_element(act.group, rng)
        frame = bi.PointFrame.at(act, g, P)
        hor = frame.horizontal()
        h = hor.dim
        pm = P.mat

        stream = np.random.default_rng(9)
        best_val, best_plane = np.inf, None
        for _ in range(45):
            theta = stream.standard_normal(2 * h)
            c1 = hor.coords.T @ theta[:h]
            c1 = c1 / np.sqrt(c1 @ pm @ c1)
            c2 = hor.coords.T @ theta[h:]
            c2 = c2 - (c2 @ pm @ c1) * c1
            c2 = c2 / np.sqrt(c2 @ pm @ c2)
            v = matrix_quotient_sectional(act, g, P, c1, c2)
            if v < best_val:
                best_val, best_plane = v, (c1, c2)

        rep = de.numeric_flat_search(act, g, P, budget=90,
                                     rng=np.random.default_rng(9))
        assert np.abs(dec.to_coords(rep.x) - best_plane[0]).max() < 1e-10
        assert np.abs(dec.to_coords(rep.y) - best_plane[1]).max() < 1e-10
        assert abs(rep.sec_quotient - best_val) <= 1e-12 * max(1.0, abs(best_val))


class TestFixturesSmall:
    def test_example1_small(self):
        r = fx.run_example1(seed=11, n_weights=2, n_metrics=2, n_points=2)
        assert r["passed"]

    def test_example2_small(self):
        r = fx.run_example2(seed=11, n_cases=2)
        assert r["passed"]

    def test_example3_small(self):
        r = fx.run_example3(seed=11, n_metrics=2, budget=800)
        assert r["passed"]
        assert r["point_normalization"] == "1/sqrt(2)"

    def test_example4_small(self):
        r = fx.run_example4(seed=11, ns=(2,), n_points=3, n_metrics=2)
        assert r["passed"]


class TestRunTrials:
    """The fixture driver's two ways to fail, on hand-built SU(3) trials
    with the bi-invariant metric at the identity."""

    @staticmethod
    def _setup():
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        return fam, dec, me.build_metric(dec), al.identity(fam)

    @pytest.mark.parametrize("kind", ["hypothesis", "search"])
    def test_no_certificate_stops_with_the_criterion_reason(self, kind):
        fam, dec, P, g = self._setup()
        free = trivial_action(fam)
        # the Cartan algebra is abelian and P-invariant: flat under a trivial
        # action, vertical under the full left torus
        flat = (free, g, P, lambda diag: de.check_N1(
            P, al.cartan_subspace(dec), free, g, diagnostics=diag))
        if kind == "hypothesis":  # a root space is not abelian
            act, sub = free, al.root_subspace(dec, 0)
        else:
            act = one_sided_action(fam, list(dec.cartan), side="left")
            sub = al.cartan_subspace(dec)
        failing = (act, g, P, lambda diag: de.check_N1(P, sub, act, g, diagnostics=diag))
        drawn = []

        def trials():
            for trial in (flat, flat, failing, flat):
                drawn.append(trial)
                yield trial

        r = fx.run_trials(5, trials())
        assert r["passed"] is False
        assert r["seed"] == 5 and r["trials"] == 2
        assert len(r["certificates"]) == 2
        assert kind in r["reason"]
        assert len(drawn) == 3  # nothing is drawn after the failure

    def test_certificate_above_flat_tol_fails(self):
        fam, dec, P, g = self._setup()
        act = trivial_action(fam)
        # a root vector against the Cartan algebra does not commute, so
        # the plane is curved (sec = |[x, y]|^2 / 4 > 0)
        x, y = dec.roots[0].x, dec.cartan[0]
        cert = de.FlatCertificate("N1", x, y, ())
        sec = abs(bi.quotient_sectional(act, g, P, x, y).sec_quotient)
        assert sec > 1e-3
        trial = (act, g, P, lambda diag: cert)
        r = fx.run_trials(0, [trial])
        assert r["passed"] is False
        assert r["trials"] == 1
        assert r["worst_residual"] == sec
        assert "reason" not in r
        assert fx.run_trials(0, [trial], flat_tol=2 * sec)["passed"]


_MATRIX_REFERENCE = {"check_N1": matrix_check_N1, "check_N2": matrix_check_N2,
                     "check_N3": matrix_check_N3}


def _assert_same_certificate(expected, got):
    """Same verdict, criterion and X, Y to 1e-12 (N3's X up to sign: it
    is a null vector of an SVD)."""
    if expected is None:
        assert got is None
        return
    assert got is not None and got.criterion == expected.criterion
    for a, b in ((expected.x, got.x), (expected.y, got.y)):
        dist = np.abs(a.mat - b.mat).max()
        if got.criterion == "N3":
            dist = min(dist, np.abs(a.mat + b.mat).max())
        assert dist < 1e-12
    assert got.max_residual() < de.RESIDUAL_TOL


class TestCriteriaMatchMatrixReference:
    """The coordinate-native criteria against the matrix-bracket forms
    (tests/oracles.py) on the inputs the fixtures draw."""

    @pytest.mark.parametrize("name, kwargs", [
        ("example1", dict(n_weights=2, n_metrics=2, n_points=3)),
        ("example2", dict(n_cases=4)),
        ("example3", dict(n_metrics=3, budget=800)),
        ("example4", dict(ns=(2, 3), n_points=3, n_metrics=2)),
    ])
    def test_fixture_inputs(self, name, kwargs, monkeypatch):
        compared = []

        def twin(crit):
            new, ref = getattr(de, crit), _MATRIX_REFERENCE[crit]

            def run(*args, **kw):
                ref_kw = dict(kw)
                if kw.get("rng") is not None:
                    ref_kw["rng"] = copy.deepcopy(kw["rng"])
                expected = ref(*args, **ref_kw)
                got = new(*args, **kw)
                _assert_same_certificate(expected, got)
                compared.append(crit)
                return got
            return run

        for crit in _MATRIX_REFERENCE:
            monkeypatch.setattr(de, crit, twin(crit))
        assert fx.FIXTURES[name](seed=11, **kwargs)["passed"]
        assert compared

    def test_positive_flag_no_certificate(self, rng):
        p, q = (1, 2, 3), (0, 0, 6)
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        act = fx.eschenburg_action(p, q)
        t_sub = al.cartan_subspace(dec)
        for _ in range(10):
            P = fx.random_torus_invariant_metric(dec, rng)
            g = al.random_group_element(fam, rng)
            for i in range(3):
                args = (P, t_sub, al.root_subspace(dec, i), act, g)
                expected = matrix_check_N3(*args)
                assert expected is None
                _assert_same_certificate(expected, de.check_N3(*args))

    def test_hypothesis_failures(self, rng):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        act = trivial_action(fam)
        g = al.identity(fam)
        P = me.build_metric(dec, alphas=[1.0, 2.0, 3.0])
        root0 = al.root_subspace(dec, 0)
        mixed = al.Subspace.from_elements(dec, [dec.roots[0].x + dec.roots[1].x])
        cases = [
            ("check_N1", (P, root0, act, g), {}),
            ("check_N2", (P, root0, root0, act, g), {"rng": rng}),
            ("check_N3", (P, al.cartan_subspace(dec), mixed, act, g), {}),
        ]
        for crit, args, kwargs in cases:
            ref_kwargs = {k: copy.deepcopy(v) for k, v in kwargs.items()}
            ref_diag, diag = {}, {}
            ref_kwargs["diagnostics"], kwargs["diagnostics"] = ref_diag, diag
            expected = _MATRIX_REFERENCE[crit](*args, **ref_kwargs)
            got = getattr(de, crit)(*args, **kwargs)
            _assert_same_certificate(expected, got)
            assert "hypothesis" in diag
            assert ref_diag.keys() == diag.keys()
