import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biq import algebra as al
from biq import biquotient as bi
from biq import catalog as ca
from biq import curvature as cu
from biq import fixtures as fx
from biq import metric as me
from biq import freeness as fr
from oracles import (
    check_algebra_element,
    matrix_quotient_sectional,
    matrix_z_squared,
    numerator_forms,
    one_sided_action,
    quotient_forms,
    reference_frame,
    scipy_horizontal_coords,
    trivial_action,
)


def quat_diag(top, bot):
    """Diagonal 2x2 quaternionic matrix from (w,x,y,z) component tuples."""
    fam = al.sp(2)
    b = np.diag([complex(top[0], top[1]), complex(bot[0], bot[1])])
    c = np.diag([complex(top[2], -top[3]), complex(bot[2], -bot[3])])
    return al.AlgebraElement(fam, al.quaternion_block(b, c))


O = (0, 0, 0, 0)
QI = (0, 1, 0, 0)
QJ = (0, 0, 1, 0)
QK = (0, 0, 0, 1)


def vertical_span(act, g):
    """Span of the point frame's vertical rows Ad_{g^{-1}} X_L - X_R."""
    dec = act.dec()
    frame = bi.PointFrame.at(act, g, me.build_metric(dec))
    return al.Subspace.from_elements(dec, [dec.from_coords(r) for r in frame.vert_coords])


def turned_point():
    gmat = al.quaternion_block(np.array([[1, 1j], [1j, 1]]) / np.sqrt(2),
                               np.zeros((2, 2)))
    return al.GroupElement(al.sp(2), gmat)


class TestVerticalSpace:
    def test_gromoll_meyer_at_identity(self):
        act = bi.gromoll_meyer_action()
        v = vertical_span(act, al.identity(al.sp(2)))
        assert v.dim == 3
        for unit in (QI, QJ, QK):
            assert v.contains(quat_diag(O, unit))

    def test_one_sided_at_identity(self, rng):
        fam = al.su(3)
        gens = [al.random_algebra_element(fam, rng) for _ in range(2)]
        act = one_sided_action(fam, gens, side="left")
        v = vertical_span(act, al.identity(fam))
        assert v.dim == 2
        for x in gens:
            assert v.contains(x)

    def test_gromoll_meyer_at_turned_point(self):
        # the three-dimensional span worked out by hand for the quarter
        # turn (with the group-normalized entries 1/sqrt(2))
        act = bi.gromoll_meyer_action()
        g = turned_point()
        v = vertical_span(act, g)
        assert v.dim == 3

        def quat_full(entries):
            b = np.array([[complex(e[0], e[1]) for e in row] for row in entries])
            c = np.array([[complex(e[2], -e[3]) for e in row] for row in entries])
            return al.AlgebraElement(al.sp(2), al.quaternion_block(b, c))

        expected = [
            quat_full([[O, O], [O, QI]]),
            quat_full([[QJ, QK], [QK, O]]),
            quat_full([[(0, 0, 0, -1), QJ], [QJ, O]]),
        ]
        for e in expected:
            check_algebra_element(e)
            assert v.contains(e)


def _flow_torus(n):
    """The maximal torus of unit_tangent_flow_action(n): the diagonal
    circle on the left, the block circles of SO(2n-1) on the right."""
    return fr.TorusActionWeights(
        al.so(2 * n + 1), n,
        tuple((1,) + (0,) * (n - 1) for _ in range(n)),
        tuple(tuple(int(j == i + 1) for j in range(n)) for i in range(n - 1)) + ((0,) * n,),
        mode=fr.MOD_CENTER)


class TestNamedActions:
    @pytest.mark.parametrize("act, torus", [
        (bi.gromoll_meyer_action(),
         fr.TorusActionWeights(al.sp(2), 1, ((1,), (1,)), ((1,), (0,)))),
        *((bi.unit_tangent_flow_action(n), _flow_torus(n)) for n in (2, 3, 4)),
    ], ids=["gromoll-meyer", "flow-S2", "flow-S3", "flow-S4"])
    def test_maximal_torus_is_free(self, act, torus):
        # the torus lies in U (its generator pairs add nothing to the span
        # of u_basis) and the exact checker finds it free
        dec = act.dec()
        rows = [np.concatenate([dec.to_coords(xl), dec.to_coords(xr)])
                for xl, xr in act.u_basis + bi.from_torus_weights(torus).u_basis]
        assert np.linalg.matrix_rank(np.array(rows)) == act.dim_u
        assert fr.is_free_exact(torus).free


class TestHorizontalSpace:
    def test_gromoll_meyer_at_identity(self):
        act = bi.gromoll_meyer_action()
        dec = act.dec()
        P = me.build_metric(dec)
        h = bi.horizontal_space(act, al.identity(al.sp(2)), P)
        assert h.dim == 7
        # representatives of {(y, v; -vbar, 0)}
        assert h.contains(quat_diag(QJ, O))
        off = al.AlgebraElement(
            al.sp(2),
            al.quaternion_block(np.array([[0, 1], [-1, 0]]), np.zeros((2, 2))),
        )
        assert h.contains(off)

    def test_trivial_action_gives_everything(self, rng):
        # U = {e} takes no branch: the (0, dim) vertical rows reproduce the
        # group's own values exactly
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        act = trivial_action(fam)
        P = fx.random_torus_invariant_metric(dec, rng)
        g = al.random_group_element(fam, rng)
        frame = bi.PointFrame.at(act, g, P)
        assert frame.is_free_point
        assert np.array_equal(bi.horizontal_space(act, g, P).coords, np.eye(dec.dim))
        c = rng.standard_normal((2, dec.dim))
        a, b = dec.from_coords(c[0]), dec.from_coords(c[1])
        assert np.array_equal(frame.checked(a), dec.to_coords(a))
        assert np.array_equal(frame.z_squared(cu.plane_terms(P, c[:1], c[1:])), [0.0])
        assert bi.z_term(act, g, P, a, b) == 0.0
        assert np.array_equal(quotient_forms(frame, c), numerator_forms(P, c).forms)
        sub = al.root_subspace(dec, 0)
        assert np.array_equal(frame.slice(sub.coords), sub.coords)

    def test_dimensions_sum(self, rng):
        act = bi.gromoll_meyer_action()
        P = me.build_metric(act.dec())
        for _ in range(5):
            g = al.random_group_element(al.sp(2), rng)
            v = vertical_span(act, g)
            h = bi.horizontal_space(act, g, P)
            assert v.dim + h.dim == al.sp(2).dim

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("name", ["gromoll-meyer", "sp2-circle", "su3-two-torus",
                                      "su5-circle", "so5-circle"])
    def test_frame_spans_what_scipy_null_space_spans(self, name, seed):
        rng = np.random.default_rng(seed)
        act, P = _case(name, rng)
        frame = bi.PointFrame.at(act, al.random_group_element(act.group, rng), P)
        hor, ref = frame.horizontal().coords, scipy_horizontal_coords(frame)
        assert hor.shape == ref.shape
        assert np.abs(hor.T @ hor - ref.T @ ref).max() < 1e-12

    @pytest.mark.parametrize("w_right, dim", [
        (((1, 0), (-1, 1), (0, -1)), 8),  # both generators vanish at the identity
        (((1, 0), (-1, 0), (0, 0)), 7),  # the second one does not
    ])
    def test_frame_at_a_non_free_point_spans_what_scipy_null_space_spans(
            self, w_right, dim):
        fam = al.su(3)
        w = fr.TorusActionWeights(fam, 2, ((1, 0), (-1, 1), (0, -1)), w_right)
        act = bi.from_torus_weights(w)
        frame = bi.PointFrame.at(act, al.identity(fam), me.build_metric(act.dec()))
        hor, ref = frame.horizontal().coords, scipy_horizontal_coords(frame)
        assert hor.shape == ref.shape == (dim, fam.dim)
        assert np.abs(hor.T @ hor - ref.T @ ref).max() < 1e-12


class TestActionGram:
    def test_free_action_positive(self, rng):
        act = bi.gromoll_meyer_action()
        P = me.build_metric(act.dec())
        for _ in range(5):
            g = al.random_group_element(al.sp(2), rng)
            n = bi.PointFrame.at(act, g, P).gram
            assert np.linalg.eigvalsh(n).min() > 1e-6

    def test_non_free_toy_action_singular_at_identity(self):
        fam = al.su(3)
        w = fr.TorusActionWeights(fam, 1, ((1,), (0,), (-1,)), ((1,), (0,), (-1,)))
        act = bi.from_torus_weights(w)
        n = bi.PointFrame.at(act, al.identity(fam), me.build_metric(act.dec())).gram
        assert abs(n[0, 0]) < 1e-14

    def test_continuity_under_perturbation(self, rng):
        act = bi.gromoll_meyer_action()
        P = me.build_metric(act.dec())
        g = al.random_group_element(al.sp(2), rng)
        n0 = bi.PointFrame.at(act, g, P).gram
        eps = 1e-6
        step = al.exp_map(eps * al.random_algebra_element(al.sp(2), rng))
        g2 = al.GroupElement(g.family, g.mat @ step.mat)
        n1 = bi.PointFrame.at(act, g2, P).gram
        assert np.abs(n1 - n0).max() < 100 * eps


class TestZTerm:
    def test_vanishes_on_fully_commuting_data(self):
        # two Cartan directions of su(3) with a one-sided root-vector circle
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        act = one_sided_action(fam, [dec.roots[2].x], side="right")
        P = me.build_metric(dec)
        g = al.identity(fam)
        a = dec.cartan[0]
        b = dec.cartan[1]
        # both Cartan directions are horizontal: the generator sits in a
        # root space, which is Q-orthogonal to the Cartan subalgebra
        assert bi.z_term(act, g, P, a, b) < 1e-12

    def test_right_action_projection_oracle(self, rng):
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        gens = [al.random_algebra_element(fam, rng) for _ in range(2)]
        act = one_sided_action(fam, gens, side="right")
        P = me.build_metric(dec)
        for _ in range(5):
            g = al.random_group_element(fam, rng)
            frame = bi.PointFrame.at(act, g, P)
            hor = frame.horizontal()
            c = rng.standard_normal((2, hor.dim))
            a = dec.from_coords(hor.coords.T @ c[0])
            b = dec.from_coords(hor.coords.T @ c[1])
            z = bi.z_term(act, g, P, a, b)
            vert = vertical_span(act, g)
            proj = vert.project_coords(dec.to_coords(al.bracket(a, b)))
            assert abs(z - np.linalg.norm(proj)) < 1e-9

    def test_basis_change_invariance(self, rng):
        act = bi.gromoll_meyer_action()
        dec = act.dec()
        P = me.build_metric(dec)
        g = al.random_group_element(al.sp(2), rng)
        frame = bi.PointFrame.at(act, g, P)
        hor = frame.horizontal()
        a = dec.from_coords(hor.coords[0])
        b = dec.from_coords(hor.coords[1])
        z0 = bi.z_term(act, g, P, a, b)
        m = np.array([[2, 1, 0], [1, 1, 0], [3, 0, 1]])  # unimodular

        def mix(i, side):
            parts = [float(m[i][j]) * act.u_basis[j][side] for j in range(3)]
            return parts[0] + parts[1] + parts[2]

        new_basis = tuple((mix(i, 0), mix(i, 1)) for i in range(3))
        act2 = bi.BiquotientAction(group=act.group, u_basis=new_basis)
        z1 = bi.z_term(act2, g, P, a, b)
        assert abs(z0 - z1) < 1e-8 * max(1.0, z0)

    def test_non_free_point_raises(self):
        fam = al.su(3)
        w = fr.TorusActionWeights(fam, 1, ((1,), (0,), (-1,)), ((1,), (0,), (-1,)))
        act = bi.from_torus_weights(w)
        dec = al.root_decomposition(fam)
        P = me.build_metric(dec)
        with pytest.raises(bi.NonFreePointError):
            bi.z_term(act, al.identity(fam), P, dec.cartan[0], dec.roots[0].x)


def _non_free_frame():
    """An SU(3) circle whose generator pair cancels at the identity."""
    fam = al.su(3)
    w = fr.TorusActionWeights(fam, 1, ((1,), (0,), (-1,)), ((1,), (0,), (-1,)))
    act = bi.from_torus_weights(w)
    P = me.build_metric(act.dec())
    return bi.PointFrame.at(act, al.identity(fam), P)


_NON_FREE_CALLS = {
    "z_squared": lambda f, a, b: f.z_squared(cu.plane_terms(f.P, a[None], b[None])),
    "quotient_forms": lambda f, a, b: quotient_forms(f, a[None]),
    "horizontal_forms": lambda f, a, b: f.horizontal_forms(np.stack([a, b])),
    "checked": lambda f, a, b: f.checked(f.act.dec().from_coords(a)),
    "quotient_sectional": lambda f, a, b: bi.quotient_sectional(
        f.act, f.g, f.P, f.act.dec().from_coords(a), f.act.dec().from_coords(b)),
    "z_term": lambda f, a, b: bi.z_term(
        f.act, f.g, f.P, f.act.dec().from_coords(a), f.act.dec().from_coords(b)),
}


@pytest.mark.parametrize("call", list(_NON_FREE_CALLS))
def test_non_free_point_raises_everywhere(call):
    frame = _non_free_frame()
    assert not frame.is_free_point
    # two root coordinates: horizontal, since the vertical row vanishes
    a, b = np.eye(frame.act.dec().dim)[[2, 3]]
    with pytest.raises(bi.NonFreePointError):
        _NON_FREE_CALLS[call](frame, a, b)


class TestQuotientSectional:
    @pytest.mark.parametrize("t, spans", [(0.9e-6, False), (1.1e-6, True)])
    def test_one_plane_degeneracy_rule(self, t, spans):
        # a = e_2 and b = e_2 + t e_3 under the bi-invariant metric have
        # area / (|a|^2 |b|^2) = t^2 / (1 + t^2): just under or just over
        # PLANE_AREA_RTOL = 1e-12
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        P = me.build_metric(dec)
        act, g = trivial_action(fam), al.identity(fam)
        e = np.eye(dec.dim)
        ca, cb = e[2], e[2] + t * e[3]
        _, _, ok = bi.PointFrame.at(act, g, P).orthonormal(ca[None], cb[None])
        assert ok[0] == spans
        a, b = dec.from_coords(ca), dec.from_coords(cb)
        if spans:
            assert bi.quotient_sectional(act, g, P, a, b).sec_quotient > 0
        else:
            with pytest.raises(cu.DegeneratePlaneError):
                bi.quotient_sectional(act, g, P, a, b)

    def test_trivial_action_agrees_with_group_curvature(self, rng):
        from biq import curvature as cu

        fam = al.su(3)
        dec = al.root_decomposition(fam)
        act = trivial_action(fam)
        a_blk = rng.standard_normal((2, 2))
        P = me.build_metric(dec, a_blk @ a_blk.T + np.eye(2), [0.5, 1.5, 2.5])
        x = al.random_algebra_element(fam, rng)
        y = al.random_algebra_element(fam, rng)
        rep = bi.quotient_sectional(act, al.identity(fam), P, x, y)
        assert abs(rep.oneill_term) < 1e-12
        cx, cy = dec.to_coords(x), dec.to_coords(y)
        area = P.inner_coords(cx, cx) * P.inner_coords(cy, cy) - P.inner_coords(cx, cy) ** 2
        assert abs(rep.sec_quotient - cu.puttmann_numerator(P, x, y) / area) < 1e-9

    def test_oneill_monotonicity(self, rng):
        act = bi.gromoll_meyer_action()
        dec = act.dec()
        P = me.build_metric(dec)
        for _ in range(10):
            g = al.random_group_element(al.sp(2), rng)
            frame = bi.PointFrame.at(act, g, P)
            hor = frame.horizontal()
            c = rng.standard_normal((2, hor.dim))
            a = dec.from_coords(hor.coords.T @ c[0])
            b = dec.from_coords(hor.coords.T @ c[1])
            rep = bi.quotient_sectional(act, g, P, a, b)
            assert rep.oneill_term >= 0
            assert rep.sec_quotient >= rep.sec_g - 1e-12
            assert abs(rep.sec_quotient - rep.sec_g - rep.oneill_term) < 1e-12

    def test_one_sided_homogeneous_oracle(self, rng):
        # for a one-sided action of the bi-invariant metric the quotient
        # curvature is 1/4 |[a,b]^H|^2 + |[a,b]^V|^2 on orthonormal frames
        fam = al.su(3)
        dec = al.root_decomposition(fam)
        P = me.build_metric(dec)
        for side in ("left", "right"):
            gens = [al.random_algebra_element(fam, rng) for _ in range(2)]
            act = one_sided_action(fam, gens, side=side)
            g = al.random_group_element(fam, rng)
            frame = bi.PointFrame.at(act, g, P)
            hor = frame.horizontal()
            for _ in range(5):
                c = rng.standard_normal((2, hor.dim))
                a = dec.from_coords(hor.coords.T @ c[0])
                b = dec.from_coords(hor.coords.T @ c[1])
                rep = bi.quotient_sectional(act, g, P, a, b)
                cab = dec.to_coords(al.bracket(rep.x, rep.y))
                vpart = vertical_span(act, g).project_coords(cab)
                hpart = cab - vpart
                expected = 0.25 * float(hpart @ hpart) + float(vpart @ vpart)
                assert abs(rep.sec_quotient - expected) < 1e-9

    def test_gromoll_meyer_positive_at_identity(self, rng):
        act = bi.gromoll_meyer_action()
        dec = act.dec()
        P = me.build_metric(dec)
        g = al.identity(al.sp(2))
        frame = bi.PointFrame.at(act, g, P)
        hor = frame.horizontal()
        for _ in range(50):
            c = rng.standard_normal((2, hor.dim))
            a = dec.from_coords(hor.coords.T @ c[0])
            b = dec.from_coords(hor.coords.T @ c[1])
            rep = bi.quotient_sectional(act, g, P, a, b)
            assert rep.sec_quotient > 0

    def test_orthonormalization_preserves_horizontality(self, rng):
        act = bi.gromoll_meyer_action()
        dec = act.dec()
        P = me.build_metric(dec)
        g = al.random_group_element(al.sp(2), rng)
        frame = bi.PointFrame.at(act, g, P)
        hor = frame.horizontal()
        c = rng.standard_normal((2, hor.dim))
        a = dec.from_coords(hor.coords.T @ c[0])
        b = dec.from_coords(hor.coords.T @ c[1])
        rep = bi.quotient_sectional(act, g, P, a, b)
        for v in (rep.x, rep.y):
            assert frame.horizontal_residual(dec.to_coords(v)) < 1e-9

    def test_non_horizontal_input_rejected(self, rng):
        act = bi.gromoll_meyer_action()
        dec = act.dec()
        P = me.build_metric(dec)
        g = al.identity(al.sp(2))
        vertical = quat_diag(O, QI)
        other = quat_diag(QJ, O)
        with pytest.raises(bi.NonHorizontalError):
            bi.quotient_sectional(act, g, P, vertical, other)


def _case(name, rng):
    """A free action with a metric invariant under its right projection."""
    if name == "gromoll-meyer":
        act = bi.gromoll_meyer_action()
        return act, fx.random_gromoll_meyer_metric(act.dec(), rng)
    if name == "sp2-circle":
        w = fr.TorusActionWeights(al.sp(2), 1, ((1,), (1,)), ((3,), (2,)))
    elif name == "su5-circle":
        w = fr.TorusActionWeights(al.su(5), 1, ((1,),) * 5, ((5,), (0,), (0,), (0,), (0,)))
    elif name == "so5-circle":
        w = fr.TorusActionWeights(al.so(5), 1, ((1,), (1,)), ((1,), (0,)))
    else:  # su3-two-torus
        w = ca.corollary_su3_weights()
    act = bi.from_torus_weights(w)
    return act, fx.random_torus_invariant_metric(act.dec(), rng)


CASES = ("gromoll-meyer", "sp2-circle", "su3-two-torus")
FORM_CASES = CASES + ("su5-circle", "so5-circle")


def _horizontal_plane(name, seed):
    """Action, point, metric, frame and two horizontal coordinate rows."""
    rng = np.random.default_rng(seed)
    act, P = _case(name, rng)
    g = al.random_group_element(act.group, rng)
    frame = bi.PointFrame.at(act, g, P)
    hor = frame.horizontal()
    return act, g, P, frame, rng.standard_normal((2, hor.dim)) @ hor.coords


class TestCoordinateKernel:
    @pytest.mark.parametrize("name", CASES)
    def test_z_term_matches_L_tensor_matrix_oracle(self, name):
        for seed in range(4):
            act, g, P, frame, c = _horizontal_plane(name, seed)
            a, b = act.dec().from_coords(c[0]), act.dec().from_coords(c[1])
            z = bi.z_term(act, g, P, a, b)
            ref = matrix_z_squared(act, g, P, a, b)
            assert abs(z * z - ref) <= 1e-12 * max(ref, 1.0)

    @pytest.mark.parametrize("name", FORM_CASES + ("flow-S3", "trivial"))
    def test_frame_rows_match_per_generator_loop(self, name):
        # the batched conjugation against Ad_{g^-1} X_L and X_R, one
        # generator at a time
        rng = np.random.default_rng(7)
        if name == "flow-S3":
            act = bi.unit_tangent_flow_action(3)
        elif name == "trivial":
            act = trivial_action(al.su(3))
        else:
            act, _ = _case(name, rng)
        dec = act.dec()
        g = al.random_group_element(act.group, rng)
        frame = bi.PointFrame.at(act, g, me.build_metric(dec))
        ad_left = [dec.to_coords(al.adjoint(g.inverse(), xl)) for xl, _ in act.u_basis]
        right = [dec.to_coords(xr) for _, xr in act.u_basis]
        assert frame.ad_left.shape == frame.right.shape == (act.dim_u, dec.dim)
        if act.dim_u:
            assert np.abs(frame.ad_left - np.array(ad_left)).max() <= 1e-13
            assert np.abs(frame.right - np.array(right)).max() <= 1e-13

    @pytest.mark.parametrize("name", CASES)
    def test_batched_rows_match_matrix_oracle(self, name):
        act, g, P, frame, _ = _horizontal_plane(name, 3)
        dec = act.dec()
        rng = np.random.default_rng(11)
        hor = frame.horizontal()
        rows = []
        for _ in range(5):
            c = rng.standard_normal((2, hor.dim)) @ hor.coords
            rep = bi.quotient_sectional(
                act, g, P, dec.from_coords(c[0]), dec.from_coords(c[1])
            )
            rows.append((dec.to_coords(rep.x), dec.to_coords(rep.y), rep))
        cx = np.array([r[0] for r in rows])
        cy = np.array([r[1] for r in rows])
        sec_g, oneill = frame.curvature_rows(cx, cy)
        for n, (x, y, rep) in enumerate(rows):
            ref = matrix_quotient_sectional(act, g, P, x, y)
            assert abs(sec_g[n] + oneill[n] - ref) <= 1e-12 * max(abs(ref), 1.0)
            assert abs(rep.sec_quotient - ref) <= 1e-12 * max(abs(ref), 1.0)


FRAME_FAMILIES = (al.su(3), al.su(4), al.su(5), al.sp(2), al.sp(3),
                  al.so(5), al.so(6), al.so(7))


def _assert_frame_matches_reference(frame, act, g, P):
    ref = reference_frame(act, g, P)
    for name in ("ad_left", "right", "vert_coords", "gram"):
        assert np.abs(getattr(frame, name) - getattr(ref, name)).max(initial=0.0) <= 1e-12
    assert np.array_equal(frame.vert_p, frame.vert_coords @ P.mat)
    assert frame.is_free_point == (ref.gram_inv is not None)
    if frame.is_free_point:
        err = np.abs(frame.gram_inv - ref.gram_inv).max(initial=0.0)
        assert err <= 1e-10 * np.abs(ref.gram_inv).max(initial=1.0)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(fam=st.sampled_from(FRAME_FAMILIES), seed=st.integers(0, 2**32 - 1),
       dim_u=st.integers(1, 3))
def test_frame_matches_per_call_reference(fam, seed, dim_u):
    # random generator pairs (a subspace of g + g, which is all the frame
    # reads), and a pair (X, Ad_{g^-1} X) that makes the action non-free at g
    rng = np.random.default_rng(seed)
    dec = al.root_decomposition(fam)
    P = fx.random_torus_invariant_metric(dec, rng)
    g = al.random_group_element(fam, rng)
    pairs = tuple((al.random_algebra_element(fam, rng), al.random_algebra_element(fam, rng))
                  for _ in range(dim_u))
    act = bi.BiquotientAction(fam, pairs)
    frame = bi.PointFrame.at(act, g, P)
    assert frame.is_free_point
    _assert_frame_matches_reference(frame, act, g, P)
    x = al.random_algebra_element(fam, rng)
    stuck = bi.BiquotientAction(fam, ((x, al.adjoint(g.inverse(), x)),) + pairs[1:])
    frame = bi.PointFrame.at(stuck, g, P)
    assert not frame.is_free_point
    _assert_frame_matches_reference(frame, stuck, g, P)
    with pytest.raises(bi.NonFreePointError):
        bi.z_term(stuck, g, P, x, x)


class TestFrameSlot:
    def _triple(self, seed):
        rng = np.random.default_rng(seed)
        act, P = _case("gromoll-meyer", rng)
        return act, al.random_group_element(act.group, rng), P

    def test_same_triple_returns_same_frame(self):
        act, g, P = self._triple(0)
        frame = bi.PointFrame.at(act, g, P)
        assert bi.PointFrame.at(act, g, P) is frame

    def test_equal_point_that_is_another_object_gets_a_new_frame(self):
        act, g, P = self._triple(0)
        frame = bi.PointFrame.at(act, g, P)
        twin = al.GroupElement(g.family, g.mat.copy())
        other = bi.PointFrame.at(act, twin, P)
        assert other is not frame and other.g is twin
        assert np.array_equal(other.gram, frame.gram)

    def test_interleaved_triples_get_their_own_frames(self):
        triples = [self._triple(seed) for seed in range(3)]
        act, g, _ = triples[0]
        triples.append((act, g, me.build_metric(act.dec())))  # only P differs
        for i in (0, 1, 0, 2, 3, 0, 3, 3, 1):
            act, g, P = triples[i]
            frame = bi.PointFrame.at(act, g, P)
            assert frame.act is act and frame.g is g and frame.P is P
            _assert_frame_matches_reference(frame, act, g, P)

    def test_frame_arrays_are_read_only(self):
        act, g, P = self._triple(0)
        frame = bi.PointFrame.at(act, g, P)
        for name in ("ad_left", "right", "vert_coords", "vert_p", "gram", "gram_inv"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(frame, name)[0, 0] = 1.0
        for arr in (act._left, act._right_rows):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] *= 2.0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(CASES),
    seed=st.integers(0, 2**32 - 1),
    m=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
)
def test_quotient_sectional_invariant_under_plane_basis_change(name, seed, m):
    m = np.reshape(m, (2, 2))
    assume(abs(np.linalg.det(m)) > 0.1)
    act, g, P, frame, c = _horizontal_plane(name, seed)
    dec = act.dec()
    rep = bi.quotient_sectional(
        act, g, P, dec.from_coords(c[0]), dec.from_coords(c[1])
    )
    mc = m @ c
    rep2 = bi.quotient_sectional(
        act, g, P, dec.from_coords(mc[0]), dec.from_coords(mc[1])
    )
    assert abs(rep2.sec_quotient - rep.sec_quotient) <= 1e-9 * max(1.0, abs(rep.sec_quotient))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(FORM_CASES), at_identity=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_quotient_forms_equal_the_kernel(name, at_identity, seed):
    # Y Q_X Y = numerator + 3/4 z^2 on horizontal rows of any length
    rng = np.random.default_rng(seed)
    act, P = _case(name, rng)
    g = al.identity(act.group) if at_identity else al.random_group_element(act.group, rng)
    frame = bi.PointFrame.at(act, g, P)
    hor = frame.horizontal()
    X = rng.standard_normal((3, hor.dim)) @ hor.coords
    Y = rng.standard_normal((3, hor.dim)) @ hor.coords
    terms = cu.plane_terms(P, X, Y)
    ref = terms.numerator + 0.75 * frame.z_squared(terms)
    forms = quotient_forms(frame, X)
    value = np.einsum("ni,nij,nj->n", Y, forms, Y)
    assert np.array_equal(forms, forms.transpose(0, 2, 1))
    assert np.abs(value - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


def _kernel_case(name, rng):
    """An action and a metric invariant under its right projection: the
    circle (1, ..., 1) against (n, 0, ..., 0) on n torus rows of a named
    group, the SU(3)
    two-torus, Gromoll-Meyer or the trivial action on SU(3)."""
    if name in ("gromoll-meyer", "su3-two-torus"):
        return _case(name, rng)
    if name == "trivial":
        act = trivial_action(al.su(3))
    else:
        fam = {"SU": al.su, "Sp": al.sp, "SO": al.so}[name[:2]](int(name[3]))
        n = fam.n if fam.name == "SU" else fam.rank
        w = fr.TorusActionWeights(fam, 1, ((1,),) * n, ((n,),) + ((0,),) * (n - 1))
        act = bi.from_torus_weights(w)
    return act, fx.random_torus_invariant_metric(act.dec(), rng)


@pytest.mark.parametrize("at_identity", [True, False], ids=["identity", "random"])
@pytest.mark.parametrize("name", [
    "SU(3)", "SU(4)", "SU(5)", "Sp(2)", "Sp(3)", "SO(5)", "SO(6)", "SO(7)", "SO(8)",
    "su3-two-torus", "gromoll-meyer", "trivial",
])
def test_horizontal_forms_equal_the_references(name, at_identity):
    # F(a) = H Q(a H) H^T for the earlier d x d forms, and b F(a) b is
    # sec_G + O'Neill term of the P-orthonormal plane (a H, b H)
    for seed in range(2):
        rng = np.random.default_rng(seed)
        act, P = _kernel_case(name, rng)
        g = al.identity(act.group) if at_identity else al.random_group_element(act.group, rng)
        frame = bi.PointFrame.at(act, g, P)
        hor = frame.horizontal()
        H = np.linalg.solve(np.linalg.cholesky(hor.coords @ P.mat @ hor.coords.T), hor.coords)
        forms = frame.horizontal_forms(H)
        a = rng.standard_normal((3, hor.dim))
        F = forms(a)
        assert np.array_equal(F, F.transpose(0, 2, 1))
        ref = H @ quotient_forms(frame, a @ H) @ H.T
        assert np.abs(F - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        q = np.linalg.qr(rng.standard_normal((hor.dim, 6)))[0].T
        x, y = q[:3], q[3:]
        sec_g, oneill = frame.curvature_rows(x @ H, y @ H)
        value = np.einsum("ni,nij,nj->n", y, forms(x), y)
        scale = max(1.0, np.abs(sec_g + oneill).max())
        assert np.abs(value - (sec_g + oneill)).max() <= 1e-12 * scale


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CASES), seed=st.integers(0, 2**32 - 1))
def test_oneill_term_nonnegative_on_horizontal_planes(name, seed):
    act, g, P, frame, c = _horizontal_plane(name, seed)
    dec = act.dec()
    rep = bi.quotient_sectional(
        act, g, P, dec.from_coords(c[0]), dec.from_coords(c[1])
    )
    assert rep.oneill_term >= 0
    assert rep.sec_quotient >= rep.sec_g
    # the clamp at zero in the kernel hides nothing: the unclamped matrix
    # computation agrees
    ref = 0.75 * matrix_z_squared(act, g, P, rep.x, rep.y)
    assert abs(rep.oneill_term - ref) <= 1e-12 * max(1.0, abs(ref))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CASES), seed=st.integers(0, 2**32 - 1),
       n_hor=st.integers(0, 3), n_other=st.integers(0, 4))
def test_slice_rows_are_orthonormal_horizontal_and_inside(name, seed, n_hor, n_other):
    # a subspace spanned by n_hor horizontal and n_other random vectors
    # meets the horizontal space in n_hor + n_other - min(n_other, dim u)
    # dimensions at a generic point
    assume(n_hor + n_other > 0)
    rng = np.random.default_rng(seed)
    act, P = _case(name, rng)
    g = al.random_group_element(act.group, rng)
    frame = bi.PointFrame.at(act, g, P)
    dec = act.dec()
    hor = frame.horizontal()
    rows = np.vstack([rng.standard_normal((n_hor, hor.dim)) @ hor.coords,
                      rng.standard_normal((n_other, dec.dim))])
    sub = al.Subspace(dec, np.linalg.svd(rows, full_matrices=False)[2])
    slc = frame.slice(sub.coords)
    assert slc.shape[0] == n_hor + n_other - min(n_other, act.dim_u)
    assert np.abs(slc @ slc.T - np.eye(slc.shape[0])).max(initial=0.0) <= 1e-12
    assert np.abs(slc - slc @ sub.coords.T @ sub.coords).max(initial=0.0) <= 1e-12
    for row in slc:
        assert frame.horizontal_residual(row) <= 1e-12
