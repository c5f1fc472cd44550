import numpy as np
import pytest

from biq import algebra as al
from biq import freeness as fr
from biq.intlattice import hnf_columns, smith_normal_form
from oracles import witness_conjugate


def circle(fam, p, q, **kw):
    return fr.TorusActionWeights(
        fam, 1, tuple((int(x),) for x in p), tuple((int(x),) for x in q), **kw
    )


class TestIntLattice:
    def test_smith_transforms(self, rng):
        for _ in range(30):
            m = rng.integers(-6, 7, size=(rng.integers(1, 5), rng.integers(1, 5)))
            d, left, right = smith_normal_form(m.tolist())
            full = np.array(left) @ m @ np.array(right)
            diag = np.zeros_like(m)
            for i, x in enumerate(d):
                diag[i, i] = x
            assert np.array_equal(full, diag)
            assert abs(round(np.linalg.det(np.array(left, dtype=float)))) == 1
            assert abs(round(np.linalg.det(np.array(right, dtype=float)))) == 1
            for i in range(len(d) - 1):
                if d[i + 1] != 0:
                    assert d[i] != 0 and d[i + 1] % d[i] == 0

    def test_hnf_invariant_under_recombination(self, rng):
        for _ in range(20):
            vecs = rng.integers(-4, 5, size=(2, 5))
            if np.linalg.matrix_rank(vecs) < 2:
                continue
            key = hnf_columns([tuple(v) for v in vecs])
            u = np.array([[1, 0], [3, 1]])  # unimodular recombination
            mixed = u @ vecs
            assert hnf_columns([tuple(v) for v in mixed]) == key


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
