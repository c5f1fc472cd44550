import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biq import algebra as al
from biq import catalog as ca
from biq import freeness as fr
from biq.intlattice import hnf_columns, saturate_columns
from oracles import (
    earlier_least_image_hnf,
    hnf_pair_flags,
    sweep_enumerate_bazaikin,
    sweep_enumerate_eschenburg,
    table_lattice_equivalent,
)

#: an Sp(2) two-torus outside the normal form's class
_OTHER_SP2 = fr.TorusActionWeights(al.sp(2), 2, ((1, 0), (0, 1)), ((0, 0), (1, 0)))


class TestSuTori:
    def test_small_rank_matches_unique_form(self):
        for variant in (1, 2):
            tor = ca.su_tori(3, 1, variant)
            assert ca.lattice_equivalent(tor.weights, ca.corollary_su3_weights())

    def test_n5_l2_free(self):
        tor = ca.su_tori(5, 2, 1)
        assert fr.is_free_exact(tor.weights, fr.MOD_CENTER).free

    def test_rewritten_forms_generate_same_subtorus(self):
        for n in (4, 6):
            for variant in (1, 2):
                orig = ca.su_tori(n, n // 2, variant).weights
                rew = ca.su_tori_rewritten(n, variant).weights
                assert ca.lattice_equal(orig, rew)

    def test_all_parameters_free_mod_center(self):
        for n in range(3, 8):
            for l in range(1, n // 2 + 1):
                for variant in (1, 2):
                    w = ca.su_tori(n, l, variant).weights
                    assert fr.is_free_exact(w, fr.MOD_CENTER).free, (n, l, variant)

    def test_variants_equivalent_exactly_for_l_one(self):
        assert ca.lattice_equivalent(
            ca.su_tori(5, 1, 1).weights, ca.su_tori(5, 1, 2).weights
        )
        assert not ca.lattice_equivalent(
            ca.su_tori(5, 2, 1).weights, ca.su_tori(5, 2, 2).weights
        )

    def test_parameter_range_enforced(self):
        with pytest.raises(ValueError):
            ca.su_tori(5, 3, 1)


class TestSpTori:
    def test_rank_two_variants_coincide(self):
        w1 = ca.sp_tori(2, 1).weights
        w2 = ca.sp_tori(2, 2).weights
        assert ca.lattice_equivalent(w1, w2)
        assert ca.lattice_equivalent(w2, ca.corollary_sp2_weights())

    def test_rank_three_variants_differ(self):
        assert not ca.lattice_equivalent(
            ca.sp_tori(3, 1).weights, ca.sp_tori(3, 2).weights
        )

    def test_all_parameters_free_mod_center(self):
        for n in range(2, 6):
            for variant in (1, 2):
                w = ca.sp_tori(n, variant).weights
                assert fr.is_free_exact(w, fr.MOD_CENTER).free, (n, variant)


class TestSpin6Extra:
    def test_free_mod_center_only(self):
        tor = ca.spin6_extra()
        assert fr.is_free_exact(tor.weights, fr.MOD_CENTER).free
        strict = fr.is_free_exact(tor.weights, fr.STRICT)
        assert not strict.free  # the half turn acts as the central -I

    def test_quotient_dimension(self):
        tor = ca.spin6_extra()
        assert tor.weights.group.dim - tor.weights.k == 15 - 3 == 12

    def test_inequivalent_to_other_forms(self):
        w3 = ca.spin6_extra().weights
        for variant in (1, 2):
            other = ca.p_torus_weights(3, variant, al.so(6))
            assert not ca.lattice_equivalent(w3, other)


def _normal_forms():
    """Every catalog normal form through SU(4) (the rewritten l = 2 forms
    too), Sp(3), SO(6) and SO(7), the extra torus on SO(6) and the two
    corollaries."""
    forms = [ca.su_tori(n, l, v).weights
             for n in (3, 4) for l in range(1, n // 2 + 1) for v in (1, 2)]
    forms += [ca.su_tori_rewritten(4, v).weights for v in (1, 2)]
    forms += [ca.sp_tori(n, v).weights for n in (2, 3) for v in (1, 2)]
    forms += [ca.p_torus_weights(g.rank, v, g) for g in (al.so(6), al.so(7)) for v in (1, 2)]
    return forms + [ca.spin6_extra().weights, ca.corollary_su3_weights(),
                    ca.corollary_sp2_weights()]


@pytest.mark.parametrize("w", _normal_forms() + [
    *(ca.su_tori(5, l, v).weights for l in (1, 2) for v in (1, 2)),
    *(ca.p_torus_weights(m // 2, v, al.so(m)) for m in (5, 8) for v in (1, 2)),
])
def test_canonical_key_equals_the_earlier_least_image_loop(w):
    # every catalog normal form through SU(5), Sp(3) and SO(8), the extra
    # SO(6) torus and both corollaries: the direct loop on the one-divmod
    # kernel and the numpy pair walk on the earlier kernel give the same
    # key, bit for bit
    cols = saturate_columns(ca._weight_columns(w))
    assert ca.lattice_canonical_key(w) == earlier_least_image_hnf(cols, w.group)


@pytest.mark.parametrize("fam", [
    *(al.su(n) for n in range(3, 7)), *(al.sp(n) for n in range(2, 5)),
    *(al.so(m) for m in range(5, 9)),
], ids=str)
def test_side_symmetries_are_the_conjugacy_symmetries_in_order(fam):
    n = fam.torus_rows
    index, sign, parity = ca._side_symmetries(fam, n)
    perms, signs = zip(*fr.conjugacy_symmetries(fam, n))
    assert index.tolist() == [list(p) for p in perms]
    assert sign.tolist() == [list(s) for s in signs]
    # only SO(2n) splits its maps by the parity of their sign changes
    odd = [s.count(-1) % 2 for s in signs] if fam.kind == "SO-even" else [0] * len(signs)
    assert parity.tolist() == odd
    # the arrays are cached per group, so no caller may write to them
    assert not any(a.flags.writeable for a in (index, sign, parity))
    assert ca._side_symmetries(fam, n)[0] is index


def _spin6_row0_negated():
    w = ca.spin6_extra().weights
    return fr.TorusActionWeights(w.group, w.k, ((-1, 0, 0),) + w.w_left[1:], w.w_right,
                                 mode=w.mode)


class TestLatticeEquivalence:
    @pytest.mark.parametrize("w1,w2", [
        (ca.spin6_extra().weights, _spin6_row0_negated()),
        (fr.TorusActionWeights(al.so(4), 1, ((-1,), (1,)), ((-2,), (-1,))),
         fr.TorusActionWeights(al.so(4), 1, ((1,), (1,)), ((-2,), (-1,)))),
    ], ids=["spin6-row0-negated", "SO4-circle"])
    def test_odd_sign_change_on_one_side_is_no_equivalence(self, w1, w2):
        # the second is free and the first is not, or the other way round,
        # so no equivalence carries one to the other
        assert fr.is_free_exact(w1).free != fr.is_free_exact(w2).free
        assert not ca.lattice_equivalent(w1, w2) and not ca.lattice_equivalent(w2, w1)
        assert not table_lattice_equivalent(w1, w2)
        assert ca.lattice_canonical_key(w1) != ca.lattice_canonical_key(w2)

    def test_annihilator_rule_equals_key_equality_on_normal_forms(self):
        forms = _normal_forms()
        keys = [ca.lattice_canonical_key(w) for w in forms]
        pairs = [(i, j) for i, j in itertools.combinations_with_replacement(range(len(forms)), 2)
                 if forms[i].group == forms[j].group]
        assert len(pairs) == 26 + len(forms)
        for i, j in pairs:
            same = keys[i] == keys[j]
            for a, b in ((i, j), (j, i)):
                assert ca.lattice_equivalent(forms[a], forms[b]) == same, (a, b)
                assert table_lattice_equivalent(forms[a], forms[b]) == same, (a, b)

    @pytest.mark.parametrize("w1,w2,equivalent", [
        (ca.sp_tori(4, 1).weights, ca.sp_tori(4, 2).weights, False),
        (ca.p_torus_weights(4, 1, al.so(8)), ca.p_torus_weights(4, 2, al.so(8)), False),
        (ca.su_tori(6, 1, 1).weights, ca.su_tori(6, 1, 2).weights, True),
        (ca.su_tori(6, 3, 1).weights, ca.su_tori(6, 3, 2).weights, False),
    ], ids=["Sp4-P1-P2", "SO8-P1-P2", "SU6-S11-S21", "SU6-S13-S23"])
    def test_verdicts_beyond_the_reach_of_keys(self, w1, w2, equivalent):
        # one canonical key alone takes seconds here (Sp(4): 294 912 images)
        assert ca.lattice_equivalent(w1, w2) == equivalent
        assert table_lattice_equivalent(w1, w2) == equivalent

    @pytest.mark.parametrize("w1,w2,equivalent", [
        (ca.su_tori(7, 1, 1).weights, ca.su_tori(7, 1, 2).weights, True),
        (ca.sp_tori(5, 1).weights, ca.sp_tori(5, 2).weights, False),
        (ca.p_torus_weights(5, 1, al.so(10)), ca.p_torus_weights(5, 2, al.so(10)), False),
        (ca.su_tori(8, 1, 1).weights, ca.su_tori(8, 1, 2).weights, True),
        (ca.su_tori(8, 4, 1).weights, ca.su_tori_rewritten(8, 1).weights, True),
        (ca.sp_tori(6, 1).weights, ca.sp_tori(6, 2).weights, False),
    ], ids=["SU7-S11-S21", "Sp5-P1-P2", "SO10-P1-P2", "SU8-S11-S21", "SU8-S14-rewritten",
            "Sp6-P1-P2"])
    def test_verdicts_beyond_the_reach_of_a_table(self, w1, w2, equivalent):
        # the join keeps O(|W|) images (SU(8): 40 320 per side); a
        # (|W|, |W|) membership table would take SU(7) 0.5 GB and SU(8)
        # some 26 GB
        assert ca.lattice_equivalent(w1, w2) == equivalent

    def test_other_group_or_rank_is_never_equivalent(self):
        assert not ca.lattice_equivalent(ca.p_torus_weights(3, 2, al.so(6)),
                                         ca.p_torus_weights(3, 2, al.so(7)))
        circle = fr.TorusActionWeights(al.sp(2), 1, ((1,), (1,)), ((0,), (0,)))
        assert not ca.lattice_equivalent(ca.corollary_sp2_weights(), circle)
        assert not ca.lattice_equal(ca.corollary_sp2_weights(), circle)

    def test_lattice_equal_needs_one_group(self):
        # the same weight matrices acting on Sp(2) and on SO(4)
        on_sp2, on_so4 = ca.sp_tori(2, 1).weights, ca.p_torus_weights(2, 1, al.so(4))
        assert on_sp2.w_left == on_so4.w_left and on_sp2.w_right == on_so4.w_right
        assert ca.lattice_equal(on_sp2, on_sp2) and ca.lattice_equal(on_so4, on_so4)
        assert not ca.lattice_equal(on_sp2, on_so4)
        assert not ca.lattice_equal(on_so4, on_sp2)


class TestTables:
    def test_row_counts(self):
        # one list holds both tables; each letter picks its rows in order
        for table, rows in (("A", range(1, 9)), ("B", range(9, 18))):
            entries = ca.table_entries(table)
            assert [e.row for e in entries] == list(rows)
            assert {e.table for e in entries} == {table}

    def test_row8_contents(self):
        row = next(e for e in ca.table_entries("A") if e.row == 8)
        assert row.group_name == "Sp(n)"
        assert row.torus_name == "P_2^n"
        assert "Sp(1)" in row.u1_description
        assert row.quotient == "HP^{n-1}"

    def test_row10_contents(self):
        row = next(e for e in ca.table_entries("B") if e.row == 10)
        assert row.group_name == "SU(2n)"
        assert row.torus_name == "S_{2,n}"
        assert "SU(n)SU(n)" in row.u2_description

    def test_row14_parameter_note(self):
        row = next(e for e in ca.table_entries("B") if e.row == 14)
        assert "odd" in row.parameter_note
        assert "missing" in row.note

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError):
            ca.table_entries("C")

    def test_exceptional_groups_recorded_not_verified(self):
        assert ca.EXCEPTIONAL_GROUPS["verified"] == "recorded"
        assert "G2" in ca.EXCEPTIONAL_GROUPS["groups"]


def _nl(row, nl, *sizes):
    """A case of row 1 or 9, which take (n, l); its id names n only, as
    it did while l was fixed at 2."""
    return pytest.param(row, nl, *sizes, id="-".join(map(str, (row, nl[0], *sizes))))


# (row, parameter, dim G - dim U, rank U, quotient_dim) at each row's two
# smallest legal parameters, and rows 1 and 9 at two larger (n, l); a row
# with a fixed group has one, None
_ROW_SIZES = [
    _nl(1, (5, 2), 8, 4, 8), _nl(1, (6, 2), 10, 5, 10),
    (2, 2, 4, 3, 4), (2, 3, 8, 5, 8),
    (3, None, 4, 3, 4),
    (4, None, 4, 4, 4),
    (5, None, 12, 4, 12),
    (6, 3, 4, 3, 4), (6, 4, 6, 4, 6),
    (7, 2, 4, 4, 4), (7, 3, 8, 6, 8),
    (8, 2, 4, 2, 4), (8, 3, 8, 3, 8),
    _nl(9, (5, 2), 12, 4, None), _nl(9, (6, 2), 16, 5, None),
    (10, 2, 8, 3, None), (10, 3, 18, 5, None),
    (11, 5, 18, 5, None), (11, 6, 28, 6, None),
    (12, 5, 28, 5, None), (12, 6, 40, 6, None),
    (13, 3, 10, 3, None), (13, 4, 14, 4, None),
    (14, (3, 3), 8, 3, None), (14, (3, 5), 14, 4, None),
    (15, 2, 12, 4, None), (15, 3, 20, 6, None),
    (16, 3, 10, 3, None), (16, 4, 18, 4, None),
    (17, None, 24, 4, None),
    _nl(1, (7, 3), 12, 6, 12), _nl(1, (9, 4), 16, 8, 16),
    _nl(9, (7, 3), 24, 6, None), _nl(9, (9, 4), 40, 8, None),
]


def _entry(row):
    return next(e for t in "AB" for e in ca.table_entries(t) if e.row == row)


def _bracket_outside_block(right_row, block_rows):
    """Largest entry outside the block of [circle, E_ij - E_ji] over the
    block's root vectors, for the diagonal circle with these right
    weights on SU(len(right_row))."""
    n = len(right_row)
    fam = al.su(n)
    circle = np.diag(1j * np.asarray(right_row, dtype=float))
    gen = al.AlgebraElement(fam, circle - np.trace(circle) / n * np.eye(n))
    outside = np.ones((n, n), dtype=bool)
    outside[np.ix_(block_rows, block_rows)] = False
    resid = 0.0
    for i, j in itertools.permutations(block_rows, 2):
        m = np.zeros((n, n), dtype=complex)
        m[i, j], m[j, i] = 1.0, -1.0
        br = al.bracket(gen, al.AlgebraElement(fam, m)).mat
        resid = max(resid, float(np.abs(br[outside]).max()))
    return resid


class TestVerifyEntry:
    @pytest.mark.parametrize("row,n,codim,rank_u,quotient_dim", _ROW_SIZES)
    def test_row_sizes_at_two_smallest_parameters(self, row, n, codim, rank_u,
                                                 quotient_dim):
        # a wrong factor in a row's builder moves dim U or rank U
        entry = _entry(row)
        inst = entry.instantiate(n)
        assert inst.torus.group.dim - sum(f.dim for f in inst.factors) == codim
        assert sum(f.rank for f in inst.factors) == rank_u
        assert inst.quotient_dim == quotient_dim
        rep = ca.verify_entry(entry, n)
        assert rep["passed"], rep["checks"]
        assert rep["parameter"] == n
        details = [d for _, _, d in rep["checks"]]
        assert f"rank U={rank_u}, rank G={rank_u}" in details
        expected = "" if quotient_dim is None else f", expected {quotient_dim}"
        assert f"dim G - dim U = {codim}{expected}" in details

    def test_row1_dimension_arithmetic(self):
        row = _entry(1)
        rep = ca.verify_entry(row, (5, 2))
        assert rep["passed"]
        names = dict((n, ok) for n, ok, _ in rep["checks"])
        assert names["quotient_dimension"]  # 24 - 16 = 8
        assert names["torus_is_circle_and_right_blocks"]

    @pytest.mark.parametrize("row", [1, 9])
    @pytest.mark.parametrize("nl", [(4, 2), (5, 1), (6, 3)])
    def test_circle_rows_reject_illegal_parameters(self, row, nl):
        with pytest.raises(ValueError):
            _entry(row).instantiate(nl)

    @pytest.mark.parametrize("row", [1, 9])
    def test_circle_rows_pass_for_every_l_up_to_n_9(self, row):
        for n in range(5, 10):
            for l in range(2, (n + 1) // 2):
                inst = _entry(row).instantiate((n, l))
                assert ca._circle_check(inst), (row, n, l)

    def test_row9_single_middle_block_fails(self):
        # the one block of rows 1..n-2 that row 9 recorded before: its SU
        # torus has rank n - 3, one short of the printed U2 = SU(l)SU(n-l)
        inst = _entry(9).instantiate((5, 2))
        left, right, _ = inst.circle
        old = replace(inst, circle=(left, right, ((1, 2, 3),)))
        assert not ca._circle_check(old)

    def test_row1_wrong_circle_fails_where_normalization_passed(self):
        # any diagonal circle normalizes the block, so the bracket residual
        # the verifier checked before is 0 for a wrong circle as well
        inst = _entry(1).instantiate((5, 2))
        left, _, blocks = inst.circle
        wrong = (1, 0, 0, 0, 3)
        assert _bracket_outside_block(wrong, blocks[0]) == 0.0
        assert not ca._circle_check(replace(inst, circle=(left, wrong, blocks)))

    def test_row3_torus_only(self):
        row = next(e for e in ca.table_entries("A") if e.row == 3)
        rep = ca.verify_entry(row)
        assert rep["verified"] == "torus-only"
        assert rep["passed"]

    def test_every_row_passes_at_smallest_parameter(self):
        for table in ("A", "B"):
            for entry in ca.table_entries(table):
                rep = ca.verify_entry(entry)
                assert rep["passed"], (entry.row, rep["checks"])


class TestEschenburgEnumeration:
    def test_flags_agree_with_checkers(self):
        records = ca.enumerate_eschenburg(1)
        assert records
        for rec in records:
            assert rec.free == fr.eschenburg_free(rec.p, rec.q)
            if rec.free:
                # the record's flag is the class property: the interval
                # condition in either orientation of the pair
                expected = fr.eschenburg_positive_flag(
                    rec.p, rec.q
                ) or fr.eschenburg_positive_flag(rec.q, rec.p)
                assert rec.positive_flag == expected
            else:
                assert not rec.positive_flag
        assert any(r.free for r in records)

    def test_positively_curvable_class_keeps_flag_through_canonicalization(self):
        records = {(r.p, r.q): r for r in ca.enumerate_eschenburg(3)}
        key = ca.eschenburg_canonical((1, 1, 1), (0, 0, 3))
        assert records[key].free
        assert records[key].positive_flag

    def test_trivial_parameters_present_and_not_free(self):
        records = ca.enumerate_eschenburg(1)
        key = ca.eschenburg_canonical((1, 1, 1), (1, 1, 1))
        rec = next(r for r in records if (r.p, r.q) == key)
        assert not rec.free

    def test_normal_form_circle_subactions_appear(self):
        # circles inside the free 2-torus show up as free records
        records = {(r.p, r.q): r for r in ca.enumerate_eschenburg(2)}
        key = ca.eschenburg_canonical((1, 0, 1), (0, 0, 2))
        assert key in records
        assert records[key].free

    def test_canonicalization_is_involutive(self, rng):
        for _ in range(100):
            p = tuple(int(x) for x in rng.integers(-4, 5, size=3))
            q3 = sum(p) - int(rng.integers(-4, 5)) - int(rng.integers(-4, 5))
            q = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)), 0)
            q = (q[0], q[1], sum(p) - q[0] - q[1])
            cp, cq = ca.eschenburg_canonical(p, q)
            assert (cp, cq) == ca.eschenburg_canonical(cp, cq)
            assert sum(cp) == sum(cq)

    def test_quotient_dimension_is_seven(self):
        rec = ca.enumerate_eschenburg(1)[0]
        assert rec.quotient_dim == 7

    @pytest.mark.parametrize("bound", range(1, 6))
    def test_canonical_walk_equals_raw_sweep(self, bound):
        assert ca.enumerate_eschenburg(bound) == sweep_enumerate_eschenburg(bound)

    def test_counts(self):
        counts = [len(ca.enumerate_eschenburg(b)) for b in range(1, 7)]
        assert counts == [7, 41, 151, 431, 1033, 2183]


class TestBazaikinEnumeration:
    def test_all_ones_present_and_free(self):
        records = {r.p: r for r in ca.enumerate_bazaikin(1)}
        assert records[(1, 1, 1, 1, 1)].free

    def test_one_three_flag(self):
        records = {r.p: r for r in ca.enumerate_bazaikin(3)}
        assert records[(3, 1, 1, 1, 1)].free == fr.bazaikin_free((3, 1, 1, 1, 1))

    def test_count_matches_bruteforce(self):
        records = ca.enumerate_bazaikin(3)
        # independent count: descending odd 5-tuples modulo global sign
        vals = [x for x in range(-3, 4) if x % 2]
        seen = set()
        for p in itertools.product(vals, repeat=5):
            a = tuple(sorted(p, reverse=True))
            b = tuple(sorted((-x for x in p), reverse=True))
            seen.add(max(a, b))
        assert len(records) == len(seen)

    def test_quotient_dimension_is_thirteen(self):
        assert ca.enumerate_bazaikin(1)[0].quotient_dim == 13

    @pytest.mark.parametrize("bound", range(1, 10))
    def test_canonical_walk_equals_raw_sweep(self, bound):
        assert ca.enumerate_bazaikin(bound) == sweep_enumerate_bazaikin(bound)

    def test_counts(self):
        # an even bound takes the odd entries below it
        counts = [len(ca.enumerate_bazaikin(b)) for b in range(1, 10)]
        assert counts == [3, 3, 28, 28, 126, 126, 396, 396, 1001]


class TestScans:
    def test_sp2_scan_uniqueness(self):
        res = ca.scan_two_torus_sp2(bound=2)
        assert res.matches_normal_form
        assert res.free_pairs > 0
        assert len(res.two_sided_classes) == 1

    def test_su3_scan_uniqueness_small(self):
        res = ca.scan_two_torus_su3(bound=2)
        assert res.matches_normal_form
        assert res.free_pairs > 0
        assert len(res.two_sided_classes) == 1

    @pytest.mark.parametrize("fam,two_tori,free", [
        (al.su(3), 9660, 240),
        (al.sp(2), 3120, 200),
    ])
    def test_pair_criterion_is_strict_freeness_at_bound_one(self, fam, two_tori, free):
        # the Smith-form checker is the reference for the scan's minor-gcd
        # criterion, on every pair of weight vectors spanning a 2-torus
        vecs = ca._weight_grid(fam, 1)
        n = fam.n
        exact = set()
        checked = 0
        for i, j in itertools.combinations(range(len(vecs)), 2):
            cols = vecs[[i, j]].T
            try:
                w = fr.TorusActionWeights(fam, 2, cols[:n], cols[n:])
            except al.AlgebraError:
                continue  # parallel columns span only a circle
            checked += 1
            if fr.is_free_exact(w, fr.STRICT).free:
                exact.add((i, j))
        assert checked == two_tori
        assert set(map(tuple, ca._strict_free_pairs(vecs, fam).tolist())) == exact
        assert len(exact) == free

    @pytest.mark.parametrize("fam,bound,free", [
        (al.su(3), 2, 4608),
        (al.sp(2), 3, 1160),
    ])
    def test_free_pairs_span_saturated_lattices(self, fam, bound, free):
        # the scan hashes each free pair as it stands, with the scalar
        # circle on SU, instead of its primitive closure: exact only if
        # every such lattice is already saturated, of rank 2 (3 on SU)
        vecs = ca._weight_grid(fam, bound)
        rows = [tuple(v) for v in vecs.tolist()]
        scalar = [(1,) * vecs.shape[1]] if fam.name == "SU" else []
        pairs = ca._strict_free_pairs(vecs, fam)
        assert len(pairs) == free
        for i, j in pairs:
            cols = [rows[i], rows[j], *scalar]
            hnf = hnf_columns(cols)
            assert len(hnf) == 2 + len(scalar)
            assert hnf == hnf_columns(saturate_columns(cols)), (rows[i], rows[j])

    @pytest.mark.parametrize("scan,bound", [
        (ca.scan_two_torus_su3, 0),
        (ca.scan_two_torus_sp2, 0),
        (ca.scan_two_torus_sp2, -1),
        (ca.enumerate_bazaikin, 0),
    ])
    def test_bound_below_one_rejected(self, scan, bound):
        with pytest.raises(ValueError, match="bound must be at least 1"):
            scan(bound)

    @pytest.mark.parametrize("fam,bound", [(al.su(3), 2), (al.sp(2), 3)])
    def test_pair_block_size_keeps_the_pairs(self, fam, bound, monkeypatch):
        vecs = ca._weight_grid(fam, bound)
        default = ca._strict_free_pairs(vecs, fam)
        monkeypatch.setattr(ca, "PAIR_BLOCK", 7)
        assert ca._strict_free_pairs(vecs, fam).tolist() == default.tolist()

    @pytest.mark.parametrize("fam,reference,counts", [
        (al.su(3), ca.corollary_su3_weights(), [504, 4104]),
        (al.sp(2), ca.corollary_sp2_weights(), [104, 416]),
        (al.sp(2), _OTHER_SP2, [104, 0]),
    ])
    def test_pair_flags_match_per_pair_hermite_forms(self, fam, reference, counts):
        # reference: one Hermite form per pair, looked up among the Hermite
        # forms of the reference's symmetry images
        vecs = ca._weight_grid(fam, 2)
        pairs = ca._strict_free_pairs(vecs, fam)
        one_sided, in_orbit = ca._pair_flags(vecs, pairs, fam, ca._annihilator(reference))
        want_one_sided, want_in_orbit = hnf_pair_flags(vecs, pairs, fam, reference)
        assert one_sided.tolist() == want_one_sided.tolist()
        assert in_orbit.tolist() == want_in_orbit.tolist()
        assert [one_sided.sum(), in_orbit.sum()] == counts

    @pytest.mark.parametrize("scan", [ca.scan_two_torus_su3, ca.scan_two_torus_sp2])
    def test_bound_overflowing_int64_rejected(self, scan):
        # 8 bound^2 bounds a minor; 2^30 takes it past the int64 range
        with pytest.raises(ValueError, match="int64"):
            scan(2 ** 30)

    def test_pair_outside_the_orbit_takes_the_full_key(self):
        # a reference from another class: its orbit is disjoint from the
        # normal form's, so every two-sided pair is classed by a full key
        other = _OTHER_SP2
        assert ca.lattice_canonical_key(other) != ca.lattice_canonical_key(
            ca.corollary_sp2_weights())
        res = ca._scan_two_torus(al.sp(2), 1, other)
        ref = ca.scan_two_torus_sp2(1)
        assert res.free_pairs == ref.free_pairs == 200
        assert res.two_sided_classes == ref.two_sided_classes
        assert not res.matches_normal_form

    @pytest.mark.parametrize("fam,bound,free,two_sided", [
        (al.su(3), 1, 240, 216),
        (al.sp(2), 2, 520, 416),
    ])
    def test_classes_equal_full_keys_of_two_sided_pairs(self, fam, bound, free, two_sided):
        # reference: a full canonical key for every genuinely two-sided pair
        vecs = ca._weight_grid(fam, bound)
        pairs = ca._strict_free_pairs(vecs, fam)
        n = fam.n

        def trivial(block):
            return len(set(block)) == 1 if fam.name == "SU" else not any(block)

        keys = set()
        count = 0
        for i, j in pairs:
            cols = vecs[[i, j]].T
            w = fr.TorusActionWeights(fam, 2, cols[:n], cols[n:])
            sat = saturate_columns(ca._weight_columns(w))
            if all(trivial(c[:n]) for c in sat) or all(trivial(c[n:]) for c in sat):
                continue
            count += 1
            keys.add(ca.lattice_canonical_key(w))
        assert (len(pairs), count) == (free, two_sided)
        scan = ca.scan_two_torus_su3 if fam.name == "SU" else ca.scan_two_torus_sp2
        assert scan(bound).two_sided_classes == tuple(sorted(keys))


# 2 x 2 integer matrices of determinant +-1 with small entries
_UNIMODULAR = [
    ((a, b), (c, d))
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4)
    if abs(a * d - b * c) == 1
]


def _transform(side, sym, basis):
    perm, signs = sym
    k = len(basis)
    rows = [[signs[i] * x for x in side[perm[i]]] for i in range(len(side))]
    return [[sum(r[t] * basis[t][j] for t in range(k)) for j in range(k)] for r in rows]


@st.composite
def _two_torus_and_image(draw, fam):
    """Random 2-torus weights on fam and an equivalent image of them: one
    symmetry per side, an optional side swap and a change of basis."""
    n = fam.n
    entry = st.integers(-3, 3)
    wl = [[draw(entry) for _ in range(2)] for _ in range(n)]
    wr = [[draw(entry) for _ in range(2)] for _ in range(n)]
    if fam.name == "SU":
        wr[-1] = [sum(r[j] for r in wl) - sum(r[j] for r in wr[:-1]) for j in range(2)]
    sym = list(fr.conjugacy_symmetries(fam, n))
    basis = draw(st.sampled_from(_UNIMODULAR))
    left = _transform(wl, draw(st.sampled_from(sym)), basis)
    right = _transform(wr, draw(st.sampled_from(sym)), basis)
    if draw(st.booleans()):
        left, right = right, left
    try:
        return (fr.TorusActionWeights(fam, 2, wl, wr),
                fr.TorusActionWeights(fam, 2, left, right))
    except al.AlgebraError:
        assume(False)


@pytest.mark.parametrize("fam", [al.su(3), al.sp(2)])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_canonical_key_invariant_under_equivalences(fam, data):
    w, image = data.draw(_two_torus_and_image(fam))
    assert ca.lattice_canonical_key(image) == ca.lattice_canonical_key(w)


@st.composite
def _lattice_samples(draw, fam):
    """(w, equivalent, rebased, independent): random 2-tori on fam, an
    equivalent image of w, w under a change of basis only, and an
    independent draw."""
    w, image = draw(_two_torus_and_image(fam))
    other, _ = draw(_two_torus_and_image(fam))
    basis = draw(st.sampled_from(_UNIMODULAR))
    same = (tuple(range(fam.n)), (1,) * fam.n)
    rebased = fr.TorusActionWeights(fam, 2, _transform(w.w_left, same, basis),
                                    _transform(w.w_right, same, basis))
    return w, image, rebased, other


def _saturated_hnf(w):
    return hnf_columns(saturate_columns(ca._weight_columns(w)))


@pytest.mark.parametrize("fam", [al.su(3), al.sp(2)])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_annihilator_rules_equal_hermite_form_rules(fam, data):
    w, image, rebased, other = data.draw(_lattice_samples(fam))
    key = ca.lattice_canonical_key(w)
    assert ca.lattice_equivalent(w, image)
    assert ca.lattice_equivalent(image, w)
    assert ca.lattice_equivalent(w, other) == (key == ca.lattice_canonical_key(other))
    assert ca.lattice_equal(w, rebased)
    for x in (image, rebased, other):
        assert ca.lattice_equal(w, x) == (_saturated_hnf(w) == _saturated_hnf(x))


def _join_forms():
    """Normal forms through SU(5), Sp(4), SO(8), SO(9) and the third torus
    on SO(6), by group."""
    forms = [ca.su_tori(n, l, v).weights
             for n in (4, 5) for l in range(1, n // 2 + 1) for v in (1, 2)]
    forms += [ca.su_tori_rewritten(4, v).weights for v in (1, 2)]
    forms += [ca.sp_tori(n, v).weights for n in (3, 4) for v in (1, 2)]
    forms += [ca.p_torus_weights(g.rank, v, g)
              for g in (al.so(6), al.so(8), al.so(9)) for v in (1, 2)]
    forms.append(ca.spin6_extra().weights)
    by_group = {}
    for w in forms:
        by_group.setdefault(w.group, []).append(w)
    return list(by_group.values())


_JOIN_FORMS = _join_forms()


@st.composite
def _unimodular(draw, k):
    """A k x k integer matrix of determinant +-1: a few column operations
    (add a multiple of one column to another, negate one) on the identity."""
    basis = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        c = draw(st.integers(-2, 2))
        for row in basis:
            if a == b:
                row[a] = -row[a]
            else:
                row[b] += c * row[a]
    return basis


@st.composite
def _model_map(draw, w):
    """((perm, signs), (perm', signs')): one map of each side of w's
    family that pair into a map of both sides (equal parity)."""
    index, sign, parity = ca._side_symmetries(w.group, len(w.w_left))
    s = draw(st.integers(0, len(index) - 1))
    t = draw(st.sampled_from(np.flatnonzero(parity == parity[s]).tolist()))
    return (index[s].tolist(), sign[s].tolist()), (index[t].tolist(), sign[t].tolist())


_MODEL_FAMILIES = [al.su(3), al.su(4), al.su(5), al.sp(2), al.sp(3),
                   *(al.so(m) for m in range(4, 11))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_freeness_invariant_under_the_model_maps(data):
    # every map of the model (a pair of per-side maps of equal parity, the
    # sides swapped half the time) keeps the exact verdict, in both modes
    fam = data.draw(st.sampled_from(_MODEL_FAMILIES))
    k = data.draw(st.integers(1, 2))
    n = fam.n if fam.name == "SU" else fam.rank
    entry = st.integers(-3, 3)
    wl = [[data.draw(entry) for _ in range(k)] for _ in range(n)]
    wr = [[data.draw(entry) for _ in range(k)] for _ in range(n)]
    if fam.name == "SU":
        wr[-1] = [sum(r[j] for r in wl) - sum(r[j] for r in wr[:-1]) for j in range(k)]
    mode = data.draw(st.sampled_from([fr.STRICT, fr.MOD_CENTER]))
    try:
        w = fr.TorusActionWeights(fam, k, wl, wr, mode=mode)
    except al.AlgebraError:
        assume(False)
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    left, right = (_transform(side, sym, identity)
                   for side, sym in zip((wl, wr), data.draw(_model_map(w))))
    if data.draw(st.booleans()):
        left, right = right, left
    image = fr.TorusActionWeights(fam, k, left, right, mode=mode)
    assert fr.is_free_exact(image).free == fr.is_free_exact(w).free


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_join_equals_table_on_images_of_normal_forms(data):
    # an image (one signed permutation per side, the side swap half the
    # time, a unimodular change of torus basis) is equivalent to its form;
    # against any form of its group the join gives the table's verdict
    forms = data.draw(st.sampled_from(_JOIN_FORMS))
    w, other = data.draw(st.sampled_from(forms)), data.draw(st.sampled_from(forms))
    basis = data.draw(_unimodular(w.k))
    left, right = (_transform(side, sym, basis)
                   for side, sym in zip((w.w_left, w.w_right), data.draw(_model_map(w))))
    if data.draw(st.booleans()):
        left, right = right, left
    image = fr.TorusActionWeights(w.group, w.k, left, right, mode=w.mode)
    assert ca.lattice_equivalent(w, image) and ca.lattice_equivalent(image, w)
    assert table_lattice_equivalent(w, image)
    assert ca.lattice_equivalent(image, other) == table_lattice_equivalent(image, other)
