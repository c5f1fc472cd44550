"""The benchmark's workloads: inputs drawn from a seed, one round of ops,
and an exact check of every op's output.

A workload's ``setup`` draws every input from ``numpy.random.default_rng(seed)``
and returns one round: a list of :class:`Op`.  The runner repeats the round
until its timed seconds are used up, so every run measures whole rounds of
one fixed composition.  An op that needs randomness of its own builds its
generator from a seed fixed here, so a repeated round repeats exactly and the
per-op counts of the traced run do not depend on how many rounds fit.

biq receives only what is generated here: weight and metric JSON files for
the command line, and objects for the library calls.  Every biq function is
reached through its module at call time (``freeness.is_free_exact(...)``, not
a name bound at import), so the traced run's wrappers and the tests' stubs
take effect.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from biq import algebra, biquotient, catalog, cli, detectors, freeness, metric

FLAT_TOL = 1e-8  # re-evaluated |sec| of a certified plane
RESIDUAL_TOL = 1e-9  # a certificate's own residuals
BALANCE_TOL = 1e-10  # balanced-point residual for N3
SUM_RTOL = 1e-12  # min_sec_quotient against sec_G + oneill_term

#: free_pairs of the two-torus scans at each bound (invariants of the bound)
SCAN_FREE_PAIRS = {
    ("SU(3)", 1): 240, ("SU(3)", 2): 4608, ("SU(3)", 3): 22080,
    ("Sp(2)", 1): 200, ("Sp(2)", 2): 520, ("Sp(2)", 3): 1160,
}


@dataclass
class Op:
    """One timed call and the check of its output.

    ``run`` is the timed call.  ``check`` gets its return value, runs outside
    the timed region and returns an error message, or None when the output is
    right.  ``weight`` is how many ops the call counts for: 1, except for a
    classify scan, which counts its free pairs.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    weight: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # what one op is
    why: str
    setup: Callable[[int, str, bool], list]
    p50_per_round: bool = False  # op_ms_p50 from round time per op weight


# ---------------------------------------------------------------------------
# input generators shared by the workloads
# ---------------------------------------------------------------------------

def _circle(fam, p, q, mode=freeness.STRICT):
    return freeness.TorusActionWeights(
        fam, 1, tuple((int(x),) for x in p), tuple((int(x),) for x in q), mode=mode
    )


def _free_circle(fam, bound, rng):
    """A strictly free circle with entries in [-bound, bound]."""
    rows = fam.n
    while True:
        p = rng.integers(-bound, bound + 1, size=rows)
        q = rng.integers(-bound, bound + 1, size=rows)
        if fam.name == "SU":
            q[-1] = p.sum() - q[:-1].sum()
            if abs(q[-1]) > bound:
                continue
        try:
            w = _circle(fam, p, q)
        except algebra.AlgebraError:  # zero column: no circle
            continue
        if freeness.is_free_exact(w).free:
            return w


def _metric_numbers(dec, rng):
    """A positive Cartan block and one positive scalar per root space."""
    a = rng.standard_normal((dec.rank, dec.rank))
    t_block = a @ a.T + 0.3 * np.eye(dec.rank)
    alphas = rng.uniform(0.4, 2.5, size=len(dec.roots))
    return t_block, alphas


def _point(dec, rng):
    return algebra.exp_map(dec.from_coords(rng.standard_normal(dec.dim)))


def _op_seed(rng):
    return int(rng.integers(2**31))


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# flat_search: the user's `biq scan`
# ---------------------------------------------------------------------------

def _scan_check(out_path, points):
    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        try:
            with open(out_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"report does not parse: {exc}"
        # the next op of this input must write a fresh report
        os.remove(out_path)
        rows = report.get("points")
        if not isinstance(rows, list) or len(rows) != points:
            return f"report has {len(rows or [])} points, expected {points}"
        for row in rows:
            sec_q, sec_g, oneill = (
                row["min_sec_quotient"], row["sec_G"], row["oneill_term"]
            )
            if oneill < 0:
                return f"{row['point']}: oneill_term {oneill} < 0"
            scale = max(abs(sec_g), abs(oneill))
            if abs(sec_q - (sec_g + oneill)) > SUM_RTOL * scale:
                return (f"{row['point']}: min_sec_quotient {sec_q} != "
                        f"sec_G + oneill_term {sec_g + oneill}")
        expected_min = min(row["min_sec_quotient"] for row in rows)
        if report.get("global_min") != expected_min:
            return f"global_min {report.get('global_min')} != {expected_min}"
        return None

    return check


def setup_flat_search(seed, workdir, tiny):
    rng = np.random.default_rng(seed)
    actions = [
        ("Sp(2) circle", _free_circle(algebra.sp(2), 4, rng)),
        ("SU(3) Eschenburg circle", _free_circle(algebra.su(3), 4, rng)),
        ("SU(3) two-torus", catalog.corollary_su3_weights()),
        ("SU(5) circle", _free_circle(algebra.su(5), 3, rng)),
    ]
    budgets = ["--points", "2", "--planes", "40", "--restarts", "1"] if tiny else []
    points = 2 if tiny else 5  # 5 is the CLI default
    ops = []
    for j, (label, w) in enumerate(actions):
        dec = algebra.root_decomposition(w.group)
        t_block, alphas = _metric_numbers(dec, rng)
        w_path = os.path.join(workdir, f"weights{j}.json")
        m_path = os.path.join(workdir, f"metric{j}.json")
        out_path = os.path.join(workdir, f"report{j}.json")
        _write_json(w_path, {
            "group": w.group.name, "n": w.group.n, "k": w.k,
            "W_L": [list(r) for r in w.w_left], "W_R": [list(r) for r in w.w_right],
            "mode": w.mode,
        })
        _write_json(m_path, {"t_block": t_block.tolist(), "alphas": alphas.tolist()})
        argv = ["scan", "--action", w_path, "--metric", m_path,
                "--seed", str(_op_seed(rng)), "-o", out_path, *budgets]
        ops.append(Op(
            label=f"{label} (dim {w.group.dim})",
            run=lambda argv=argv: cli.main(argv),
            check=_scan_check(out_path, points),
        ))
    return ops


# ---------------------------------------------------------------------------
# certify: one flat plane per op, certified by N1/N2/N3 and re-evaluated
# ---------------------------------------------------------------------------

def _certificate_error(result):
    cert, rep, diag = result
    if cert is None:
        return f"no certificate where the recipe guarantees one ({diag})"
    if abs(rep.sec_quotient) >= FLAT_TOL:
        return f"{cert.criterion} plane re-evaluates to sec {rep.sec_quotient:.3e}"
    if cert.max_residual() >= RESIDUAL_TOL:
        return f"{cert.criterion} residual {cert.max_residual():.3e}"
    return None


def _certify(cert, act, g, P, diag):
    """The shared tail of every certify op: re-evaluate the certified plane."""
    if cert is None:
        return None, None, diag
    rep = biquotient.quotient_sectional(act, g, P, cert.x, cert.y)
    return cert, rep, diag


def _n2_long_roots_op(fam, w1, w2, rng):
    """example1: N2 on the long-root spaces of a free Sp(2) circle."""
    dec = algebra.root_decomposition(fam)
    act = biquotient.from_torus_weights(_free_circle(fam, 4, rng))
    P = metric.build_metric(dec, *_metric_numbers(dec, rng))
    g = _point(dec, rng)
    op_seed = _op_seed(rng)

    def run():
        diag = {}
        cert = detectors.check_N2(P, w1, w2, act, g,
                                  rng=np.random.default_rng(op_seed),
                                  diagnostics=diag)
        return _certify(cert, act, g, P, diag)

    return Op("N2 Sp(2) circle", run, _certificate_error)


def _balanced_pairs(bound):
    """Every free Eschenburg pair with entries in [-bound, bound] and q_3
    inside [min p, max p], in a fixed order."""
    pairs = []
    for p in itertools.product(range(-bound, bound + 1), repeat=3):
        for q1, q2 in itertools.product(range(-bound, bound + 1), repeat=2):
            q = (q1, q2, sum(p) - q1 - q2)
            if abs(q[2]) <= bound and min(p) <= q[2] <= max(p) \
                    and freeness.eschenburg_free(p, q):
                pairs.append((p, q))
    return pairs


def _n3_balanced_op(fam, p, q, t_sub, v1, y3, rng):
    """example2: balanced point plus N3 on a balanced Eschenburg circle."""
    dec = algebra.root_decomposition(fam)
    act = biquotient.from_torus_weights(_circle(fam, p, q))
    P = metric.build_metric(dec, *_metric_numbers(dec, rng))
    # the solver's fallback restarts until one converges; a generator seeded
    # by the pair alone keeps that cost a property of the pair, not of the
    # benchmark seed
    solver_seed = [x + 16 for x in p + q]
    xl, xr = act.u_basis[0]

    def run():
        diag = {}
        g = detectors.find_balanced_point(p, q, tol=BALANCE_TOL,
                                          rng=np.random.default_rng(solver_seed))
        cert = detectors.check_N3(P, t_sub, v1, act, g, diagnostics=diag)
        return _certify(cert, act, g, P, diag), g

    def check(result):
        out, g = result
        balance = abs(algebra.inner_q(algebra.adjoint(g.inverse(), xl) - xr, y3))
        if balance > BALANCE_TOL:
            return f"balance residual {balance:.3e} at p={p}, q={q}"
        err = _certificate_error(out)
        return None if err is None else f"p={p}, q={q}: {err}"

    return Op("N3 Eschenburg", run, check)


def _n2_gromoll_meyer_op(act, g, blocks, rng):
    """example3: N2 on Gromoll-Meyer at the quarter-turned point."""
    w1, w2, w3 = blocks
    b2 = rng.standard_normal((3, 3))
    P = metric.build_metric_from_subspaces(act.dec(), [
        (w1, float(rng.uniform(0.4, 2.5))),
        (w2, b2 @ b2.T + 0.3 * np.eye(3)),
        (w3, float(rng.uniform(0.4, 2.5))),
    ])
    op_seed = _op_seed(rng)

    def run():
        diag = {}
        cert = detectors.check_N2(P, w1, w2, act, g,
                                  rng=np.random.default_rng(op_seed),
                                  diagnostics=diag)
        return _certify(cert, act, g, P, diag)

    return Op("N2 Gromoll-Meyer", run, _certificate_error)


def _n1_flow_op(n, act, blocks, rng):
    """example4: commuting pair plus N1 on the flow quotient of SO(2n+1)."""
    dec = algebra.root_decomposition(act.group)
    sub_so, sub_v, sub_w, sub_a = blocks
    s, c, t = rng.uniform(0.4, 2.5, size=3)
    P = metric.build_metric_from_subspaces(dec, [
        (sub_so, float(s)), (sub_v, float(c)), (sub_w, float(c)), (sub_a, float(t)),
    ])
    g = _point(dec, rng)

    def run():
        diag = {}
        pair = detectors.example4_abelian_pair(n, P, act, g)
        if pair is None:
            return None, None, {"search": "no horizontal commuting pair"}
        a_sub = algebra.Subspace.from_elements(dec, list(pair), "plane")
        cert = detectors.check_N1(P, a_sub, act, g, diagnostics=diag)
        return _certify(cert, act, g, P, diag)

    return Op(f"N1 SO({2 * n + 1}) flow", run, _certificate_error)


def setup_certify(seed, workdir, tiny):
    rng = np.random.default_rng(seed)
    sp2 = algebra.sp(2)
    dec_sp2 = algebra.root_decomposition(sp2)
    long_roots = [i for i, r in enumerate(dec_sp2.roots)
                  if max(abs(t) for t in r.vector) == 2]
    w1 = algebra.root_subspace(dec_sp2, long_roots[0], "V1")
    w2 = algebra.root_subspace(dec_sp2, long_roots[1], "V2")

    su3 = algebra.su(3)
    dec_su3 = algebra.root_decomposition(su3)
    t_sub = algebra.cartan_subspace(dec_su3)
    v1 = algebra.root_subspace(
        dec_su3, next(i for i, r in enumerate(dec_su3.roots) if r.vector == (-1, 1, 0)),
        "V1",
    )
    y3 = algebra.torus_element(su3, np.array(detectors.Y3_COORDS))

    gm = biquotient.gromoll_meyer_action()
    gm_point = algebra.GroupElement(gm.group, algebra.quaternion_block(
        np.array([[1.0, 1j], [1j, 1.0]]) / np.sqrt(2.0), np.zeros((2, 2))))
    gm_blocks = detectors.gromoll_meyer_blocks(gm.dec())

    flows = {}
    for n in (2, 3):
        act = biquotient.unit_tangent_flow_action(n)
        flows[n] = act, detectors.unit_tangent_blocks(n, act.dec())

    # The round holds every balanced pair with entries in [-2, 2]: about 2.5%
    # of them need find_balanced_point's slow fallback (~100 ms against
    # ~0.4 ms), so a sample of them would make the round's cost depend on the
    # seed.  The other recipes get as many ops, with inputs drawn from the seed.
    pairs = _balanced_pairs(2)
    pairs = [pairs[i] for i in rng.permutation(len(pairs))]
    ops = []
    for k, (p, q) in enumerate(pairs[:2] if tiny else pairs):
        ops.append(_n2_long_roots_op(sp2, w1, w2, rng))
        ops.append(_n3_balanced_op(su3, p, q, t_sub, v1, y3, rng))
        ops.append(_n2_gromoll_meyer_op(gm, gm_point, gm_blocks, rng))
        ops.append(_n1_flow_op(2 + k % 2, *flows[2 + k % 2], rng))
    return ops


# ---------------------------------------------------------------------------
# exact_rank: one is_free_exact verdict per op
# ---------------------------------------------------------------------------

def _normal_forms(tiny):
    top_su, top_sp, top_so = (5, 3, 3) if tiny else (7, 5, 5)
    forms = [
        catalog.su_tori(n, l, v).weights
        for n in range(3, top_su + 1) for l in range(1, n // 2 + 1) for v in (1, 2)
    ]
    forms += [catalog.sp_tori(n, v).weights for n in range(2, top_sp + 1) for v in (1, 2)]
    forms += [catalog.p_torus_weights(n, v, algebra.so(2 * n))
              for n in range(3, top_so + 1) for v in (1, 2)]
    forms.append(catalog.spin6_extra().weights)
    return forms


def _random_torus(fam, bound, rng):
    """A full-rank torus with entries in [-bound, bound], strict mode."""
    rows = fam.rank if fam.name == "SO" else fam.n
    k = fam.rank
    while True:
        wl = rng.integers(-bound, bound + 1, size=(rows, k))
        wr = rng.integers(-bound, bound + 1, size=(rows, k))
        if fam.name == "SU":
            wr[-1] = wl.sum(axis=0) - wr[:-1].sum(axis=0)
            if np.abs(wr[-1]).max() > bound:
                continue
        try:
            return freeness.TorusActionWeights(
                fam, k, tuple(map(tuple, wl.tolist())), tuple(map(tuple, wr.tolist()))
            )
        except algebra.AlgebraError:  # dependent columns: not a k-torus
            continue


def _witness_error(w, witness):
    """The exact check of a non-free verdict: t = numerators / denominator is
    a nontrivial torus element with (W_L t)_i - signs_i (W_R t)_{perm_i}
    an integer for every row i."""
    if witness is None:
        return "non-free verdict without a witness"
    t = [Fraction(x, witness.denominator) for x in witness.numerators]
    if all(x.denominator == 1 for x in t):
        return f"witness {witness} is the identity"
    for i in range(w.n_rows):
        left = sum(w.w_left[i][j] * t[j] for j in range(w.k))
        right = sum(w.w_right[witness.perm[i]][j] * t[j] for j in range(w.k))
        if (left - witness.signs[i] * right).denominator != 1:
            return f"witness {witness} fails row {i}"
    return None


def _verdict_check(w, kind):
    """kind: "normal form" (must be free), "circle" (SU(3), compared with
    eschenburg_free), or "torus".  Free SU/Sp verdicts of torus rank <= 2 are
    cross-checked by the brute-force falsifier.  SO(2n) is left out of that
    cross-check: the falsifier folds every sign flip and is unsound there."""
    oracle = {}

    def expected_free():
        if "v" not in oracle:
            oracle["v"] = freeness.eschenburg_free(
                [r[0] for r in w.w_left], [r[0] for r in w.w_right])
        return oracle["v"]

    def falsified():
        if "bf" not in oracle:
            order = 12 if w.k == 1 else 8
            oracle["bf"] = not freeness.is_free_bruteforce(w, order, w.mode).free
        return oracle["bf"]

    def check(verdict):
        if kind == "normal form" and not verdict.free:
            return "normal form is not free"
        if kind == "circle" and verdict.free != expected_free():
            return f"verdict {verdict.free} disagrees with eschenburg_free"
        if not verdict.free:
            return _witness_error(w, verdict.witness)
        if w.group.name in ("SU", "Sp") and w.k <= 2 and falsified():
            return "free verdict falsified by is_free_bruteforce"
        return None

    return check


def setup_exact_rank(seed, workdir, tiny):
    rng = np.random.default_rng(seed)
    inputs = [(w, "normal form") for w in _normal_forms(tiny)]
    su3 = algebra.su(3)
    n_circles = 4 if tiny else 26
    while sum(kind == "circle" for _, kind in inputs) < n_circles:
        # criterion-01 style: entries in [-6, 6], equal sums
        p = rng.integers(-6, 7, size=3)
        q12 = rng.integers(-6, 7, size=2)
        q = (int(q12[0]), int(q12[1]), int(p.sum() - q12.sum()))
        if abs(q[2]) > 6:
            continue
        try:
            inputs.append((_circle(su3, p, q), "circle"))
        except algebra.AlgebraError:
            continue
    if tiny:
        families = [algebra.su(4), algebra.sp(3), algebra.so(6), algebra.so(7)]
    else:
        families = [algebra.su(n) for n in range(4, 8)]
        families += [algebra.sp(n) for n in range(3, 6)]
        families += [algebra.so(m) for m in range(6, 11)]
    per_family = 1 if tiny else 6
    for fam in families:
        inputs += [(_random_torus(fam, 2, rng), "torus") for _ in range(per_family)]
    order = rng.permutation(len(inputs))
    ops = []
    for i in order:
        w, kind = inputs[i]
        ops.append(Op(
            label=f"{kind} {w.group} k={w.k} {w.mode}",
            run=lambda w=w: freeness.is_free_exact(w),
            check=_verdict_check(w, kind),
        ))
    return ops


# ---------------------------------------------------------------------------
# classify: the exhaustive two-torus scans
# ---------------------------------------------------------------------------

def _classify_check(family, bound, key):
    expected = SCAN_FREE_PAIRS[(family, bound)]

    def check(res):
        if res.free_pairs != expected:
            return f"{family} bound {bound}: free_pairs {res.free_pairs} != {expected}"
        if not res.matches_normal_form:
            return f"{family} bound {bound}: does not match the normal form"
        if res.two_sided_classes != (key,):
            return f"{family} bound {bound}: classes {res.two_sided_classes} != ({key},)"
        return None

    return check


def setup_classify(seed, workdir, tiny):
    # the scans take no random input; the seed is recorded but changes nothing
    su3_key = catalog.lattice_canonical_key(catalog.corollary_su3_weights())
    sp2_key = catalog.lattice_canonical_key(catalog.corollary_sp2_weights())
    su3_bound, sp2_bound = (1, 1) if tiny else (1, 2)
    return [
        Op(f"scan_two_torus_su3 bound {su3_bound}",
           lambda: catalog.scan_two_torus_su3(su3_bound),
           _classify_check("SU(3)", su3_bound, su3_key),
           weight=SCAN_FREE_PAIRS[("SU(3)", su3_bound)]),
        Op(f"scan_two_torus_sp2 bound {sp2_bound}",
           lambda: catalog.scan_two_torus_sp2(sp2_bound),
           _classify_check("Sp(2)", sp2_bound, sp2_key),
           weight=SCAN_FREE_PAIRS[("Sp(2)", sp2_bound)]),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="flat_search",
            op="one `biq scan` through biq.cli.main at the CLI default budgets "
               "(5 points, 2000 planes, 4 restarts), its own --seed, report "
               "written with -o; a round is one op on each of an Sp(2) circle "
               "(dim 10), an SU(3) Eschenburg circle (dim 8), the SU(3) two-torus "
               "and an SU(5) circle (dim 24), each with a random torus-invariant "
               "metric file, and a run measures whole rounds, so every dim is "
               "timed in every run",
            why="This is the user's `biq scan`: about 10^4 planes per op against "
                "5 point frames, so curvature, biquotient, metric and algebra do "
                "almost all the work and freeness almost none; dims 8 to 24 show "
                "whether a plane-kernel gain holds as dimension grows.",
            setup=setup_flat_search,
        ),
        Workload(
            name="certify",
            op="one flat plane certified by N1, N2 or N3 (called directly with a "
               "diagnostics dict) and re-evaluated by quotient_sectional; equal "
               "shares of the four fixture recipes (N2 on Sp(2) circles, balanced "
               "point plus N3 on all 324 free balanced Eschenburg pairs with "
               "entries in [-2, 2], N2 on Gromoll-Meyer at the quarter-turned "
               "point, commuting pair plus N1 on the SO(5)/SO(7) flow quotients)",
            why="The curvature layers the other way round: many points with one "
                "plane each, so frame construction, hypothesis checks and the "
                "criteria dominate; a plane-kernel gain should barely move it, "
                "frame reuse should move it a lot.",
            setup=setup_certify,
        ),
        Workload(
            name="exact_rank",
            op="one is_free_exact verdict; the round holds every catalog normal "
               "form (SU(3..7), Sp(2..5), SO(6/8/10), the extra SO(6) torus; "
               "mod-center, free, full symmetry walk), 26 random SU(3) circles "
               "and 72 random full-rank strict tori on SU(4..7), Sp(3..5) and "
               "SO(6..10), which mostly exit early with a witness",
            why="freeness and intlattice at the rank where n!*2^n symmetries hurt "
                "(SU(7), Sp(5), SO(10)); the early-exit verdicts use the same layer "
                "differently, so a pruning gain that slows the witness path shows. "
                "SO(2n) verdicts are not cross-checked by the brute-force "
                "falsifier, which is unsound there.",
            setup=setup_exact_rank,
        ),
        Workload(
            name="classify",
            op="one free two-torus pair classified; a round is scan_two_torus_su3 "
               "at bound 1 (240 free pairs) plus scan_two_torus_sp2 at bound 2 "
               "(520), and op_ms_p50 is the median over rounds of round time per "
               "free pair",
            why="catalog plus HNF-heavy intlattice (lattice_canonical_key runs 72 "
                "HNFs per SU(3) key, 128 per Sp(2) key); the only workload that "
                "exercises catalog, and the many-small-verdicts counterpart to "
                "exact_rank.",
            setup=setup_classify,
            p50_per_round=True,
        ),
    )
}
