import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biq import algebra as al
from biq import biquotient as bi
from biq import catalog as ca
from biq import curvature as cu
from biq import detectors as de
from biq import metric as me
from biq import freeness as fr
from oracles import matrix_quotient_sectional, matrix_z_squared, scipy_horizontal_coords


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
        act = bi.one_sided_action(fam, gens, side="left")
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
            al.check_algebra_element(e)
            assert v.contains(e)


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
        act = bi.trivial_action(fam)
        P = de.random_torus_invariant_metric(dec, rng)
        g = al.random_group_element(fam, rng)
        frame = bi.PointFrame.at(act, g, P)
        assert frame.is_free_point
        assert np.array_equal(bi.horizontal_space(act, g, P).coords, np.eye(dec.dim))
        c = rng.standard_normal((2, dec.dim))
        assert np.array_equal(frame.project_horizontal(c[0]), c[0])
        assert np.array_equal(frame.z_squared(cu.plane_terms(P, c[:1], c[1:])), [0.0])
        a, b = dec.from_coords(c[0]), dec.from_coords(c[1])
        assert bi.z_term(act, g, P, a, b, frame=frame) == 0.0
        assert np.array_equal(frame.quotient_forms(c), cu.numerator_forms(P, c).forms)
        sub = al.root_subspace(dec, 0)
        assert np.array_equal(de._metric_normal_slice(sub, frame), sub.coords)

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
        act = bi.one_sided_action(fam, [dec.roots[2].x], side="right")
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
        act = bi.one_sided_action(fam, gens, side="right")
        P = me.build_metric(dec)
        for _ in range(5):
            g = al.random_group_element(fam, rng)
            frame = bi.PointFrame.at(act, g, P)
            hor = frame.horizontal()
            c = rng.standard_normal((2, hor.dim))
            a = dec.from_coords(hor.coords.T @ c[0])
            b = dec.from_coords(hor.coords.T @ c[1])
            z = bi.z_term(act, g, P, a, b, frame=frame)
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


class TestQuotientSectional:
    def test_trivial_action_agrees_with_group_curvature(self, rng):
        from biq import curvature as cu

        fam = al.su(3)
        dec = al.root_decomposition(fam)
        act = bi.trivial_action(fam)
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
            rep = bi.quotient_sectional(act, g, P, a, b, frame=frame)
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
            act = bi.one_sided_action(fam, gens, side=side)
            g = al.random_group_element(fam, rng)
            frame = bi.PointFrame.at(act, g, P)
            hor = frame.horizontal()
            for _ in range(5):
                c = rng.standard_normal((2, hor.dim))
                a = dec.from_coords(hor.coords.T @ c[0])
                b = dec.from_coords(hor.coords.T @ c[1])
                rep = bi.quotient_sectional(act, g, P, a, b, frame=frame)
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
            rep = bi.quotient_sectional(act, g, P, a, b, frame=frame)
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
        rep = bi.quotient_sectional(act, g, P, a, b, frame=frame)
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
        return act, de.random_gromoll_meyer_metric(act.dec(), rng)
    if name == "sp2-circle":
        w = fr.TorusActionWeights(al.sp(2), 1, ((1,), (1,)), ((3,), (2,)))
    elif name == "su5-circle":
        w = fr.TorusActionWeights(al.su(5), 1, ((1,),) * 5, ((5,), (0,), (0,), (0,), (0,)))
    elif name == "so5-circle":
        w = fr.TorusActionWeights(al.so(5), 1, ((1,), (1,)), ((1,), (0,)))
    else:  # su3-two-torus
        w = ca.corollary_su3_weights()
    act = bi.from_torus_weights(w)
    return act, de.random_torus_invariant_metric(act.dec(), rng)


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
            z = bi.z_term(act, g, P, a, b, frame=frame)
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
            act = bi.trivial_action(al.su(3))
        else:
            act, _ = _case(name, rng)
        dec = act.dec()
        g = al.random_group_element(act.group, rng)
        frame = bi.PointFrame.at(act, g, me.bi_invariant_metric(dec))
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
                act, g, P, dec.from_coords(c[0]), dec.from_coords(c[1]), frame=frame
            )
            rows.append((dec.to_coords(rep.x), dec.to_coords(rep.y), rep))
        cx = np.array([r[0] for r in rows])
        cy = np.array([r[1] for r in rows])
        sec_g, oneill = frame.curvature_rows(cx, cy)
        for n, (x, y, rep) in enumerate(rows):
            ref = matrix_quotient_sectional(act, g, P, x, y)
            assert abs(sec_g[n] + oneill[n] - ref) <= 1e-12 * max(abs(ref), 1.0)
            assert abs(rep.sec_quotient - ref) <= 1e-12 * max(abs(ref), 1.0)


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
        act, g, P, dec.from_coords(c[0]), dec.from_coords(c[1]), frame=frame
    )
    mc = m @ c
    rep2 = bi.quotient_sectional(
        act, g, P, dec.from_coords(mc[0]), dec.from_coords(mc[1]), frame=frame
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
    forms = frame.quotient_forms(X)
    value = np.einsum("ni,nij,nj->n", Y, forms, Y)
    assert np.array_equal(forms, forms.transpose(0, 2, 1))
    assert np.abs(value - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(CASES), seed=st.integers(0, 2**32 - 1))
def test_oneill_term_nonnegative_on_horizontal_planes(name, seed):
    act, g, P, frame, c = _horizontal_plane(name, seed)
    dec = act.dec()
    rep = bi.quotient_sectional(
        act, g, P, dec.from_coords(c[0]), dec.from_coords(c[1]), frame=frame
    )
    assert rep.oneill_term >= 0
    assert rep.sec_quotient >= rep.sec_g
    # the clamp at zero in the kernel hides nothing: the unclamped matrix
    # computation agrees
    ref = 0.75 * matrix_z_squared(act, g, P, rep.x, rep.y)
    assert abs(rep.oneill_term - ref) <= 1e-12 * max(1.0, abs(ref))
