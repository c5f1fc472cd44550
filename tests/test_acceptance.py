"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and budgets are pinned here, not configurable.
Certificates produced by the example criteria are pooled and re-validated
wholesale by the final soundness criterion.
"""

import itertools
import time

import numpy as np
import pytest

from biq import algebra as al
from biq import biquotient as bi
from biq import catalog as ca
from biq import curvature as cu
from biq import detectors as de
from biq import freeness as fr
from biq import metric as me

SEED = 20240815

#: certificates pooled across the example criteria: (action, point, metric,
#: certificate) tuples, re-verified in the final criterion
CERTIFICATE_POOL = []


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_freeness_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(SEED)
    fam = al.su(3)
    checked = 0
    mismatches = 0
    contradictions = 0
    while checked < 500:
        p = rng.integers(-6, 7, size=3)
        q12 = rng.integers(-6, 7, size=2)
        q3 = int(p.sum() - q12.sum())
        if abs(q3) > 6:
            continue
        q = (int(q12[0]), int(q12[1]), q3)
        try:
            w = fr.TorusActionWeights(
                fam, 1, tuple((int(x),) for x in p), tuple((int(x),) for x in q)
            )
        except al.AlgebraError:
            continue  # degenerate weight columns carry no circle action
        checked += 1
        exact = fr.is_free_exact(w).free
        closed_form = fr.eschenburg_free(tuple(p), q)
        if exact != closed_form:
            mismatches += 1
        if exact and not fr.is_free_bruteforce(w, 12).free:
            contradictions += 1
    elapsed = time.time() - started
    # the brute-force falsifier decides circles with weights in [-2, 2]
    # completely at order 12 (kernel orders stay below 8), so both
    # verdicts must agree: every circle on SO(4) and Sp(2), 1500 on SO(6)
    disagreements = {}
    for fam in (al.so(4), al.sp(2), al.so(6)):
        rows = fam.rank if fam.name == "SO" else fam.n
        pairs = list(itertools.product(
            itertools.product(range(-2, 3), repeat=rows), repeat=2))
        if len(pairs) > 1500:
            pairs = [pairs[i] for i in rng.choice(len(pairs), 1500, replace=False)]
        disagreements[str(fam)] = 0
        for wl, wr in pairs:
            try:
                w = fr.TorusActionWeights(
                    fam, 1, tuple((x,) for x in wl), tuple((x,) for x in wr)
                )
            except al.AlgebraError:
                continue
            if fr.is_free_exact(w).free != fr.is_free_bruteforce(w, 12).free:
                disagreements[str(fam)] += 1
    _report(
        1, "freeness oracle equivalence on 500 circle weights, plus SO(4)/Sp(2)/SO(6)",
        mismatches == 0 and contradictions == 0 and elapsed < 10.0
        and not any(disagreements.values()),
        f"mismatches={mismatches}, contradictions={contradictions}, {elapsed:.1f}s, "
        f"bruteforce disagreements {disagreements}",
    )


def test_criterion_02_unique_two_sided_normal_forms():
    started = time.time()
    assert fr.is_free_exact(ca.corollary_su3_weights()).free
    assert fr.is_free_exact(ca.corollary_sp2_weights()).free
    res_su3 = ca.scan_two_torus_su3(bound=3)
    res_sp2 = ca.scan_two_torus_sp2(bound=3)
    elapsed = time.time() - started
    _report(
        2, "exhaustive two-torus scans match the unique normal forms",
        res_su3.matches_normal_form and res_sp2.matches_normal_form
        and elapsed < 300.0,
        f"su3: {res_su3.free_pairs} free pairs, "
        f"{len(res_su3.two_sided_classes)} two-sided class(es); "
        f"sp2: {res_sp2.free_pairs} free pairs, "
        f"{len(res_sp2.two_sided_classes)} class(es); {elapsed:.0f}s",
    )


def test_criterion_03_torus_normal_forms_free():
    started = time.time()
    failures = []
    for n in range(3, 8):
        for l in range(1, n // 2 + 1):
            for variant in (1, 2):
                w = ca.su_tori(n, l, variant).weights
                if not fr.is_free_exact(w, fr.MOD_CENTER).free:
                    failures.append(("S", n, l, variant))
    for n in range(2, 6):
        for variant in (1, 2):
            w = ca.sp_tori(n, variant).weights
            if not fr.is_free_exact(w, fr.MOD_CENTER).free:
                failures.append(("P", n, variant))
    if not fr.is_free_exact(ca.spin6_extra().weights, fr.MOD_CENTER).free:
        failures.append(("P3",))
    elapsed = time.time() - started
    _report(
        3, "generated torus normal forms all free mod center",
        not failures and elapsed < 60.0,
        f"failures={failures}, {elapsed:.1f}s",
    )


def test_criterion_04_table_verification():
    results = []
    for table in ("A", "B"):
        for entry in ca.table_entries(table):
            results.append(ca.verify_entry(entry))
    failed = [r["row"] for r in results if not r["passed"]]
    torus_only = sorted(r["row"] for r in results if r["verified"] == "torus-only")
    _report(
        4, "classification table rows verify at smallest parameters",
        not failed and torus_only == [3, 4, 5, 17],
        f"failed rows={failed}, torus-only rows={torus_only}",
    )


def test_criterion_05_puttmann_bi_invariant_reduction():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for fam in (al.su(3), al.sp(2), al.so(5)):
        dec = al.root_decomposition(fam)
        P = me.build_metric(dec)
        for _ in range(1000):
            x = al.random_algebra_element(fam, rng)
            y = al.random_algebra_element(fam, rng)
            xy = al.bracket(x, y)
            resid = abs(
                cu.puttmann_numerator(P, x, y) - 0.25 * al.inner_q(xy, xy)
            )
            worst = max(worst, resid)
    _report(
        5, "curvature numerator reduces to the bi-invariant form",
        worst < 1e-10, f"worst residual {worst:.2e} over 3000 pairs",
    )


def test_criterion_06_sp2_circles_flat_everywhere():
    started = time.time()
    result = de.run_example1(seed=SEED, n_weights=20, n_metrics=20, n_points=20)
    elapsed = time.time() - started
    CERTIFICATE_POOL.extend(result.get("certificates", []))
    _report(
        6, "every circle quotient of Sp(2) has a certified flat plane",
        result["passed"] and result["trials"] == 8000 and elapsed < 60.0,
        f"trials={result.get('trials')}, "
        f"worst residual {result.get('worst_residual', 1):.2e}, {elapsed:.0f}s",
    )


def test_criterion_07_exotic_sphere_positivity_and_flatness():
    result = de.run_example3(seed=SEED, n_metrics=20, budget=10_000)
    CERTIFICATE_POOL.extend(result.get("certificates", []))
    _report(
        7, "positive curvature at the identity (sampling bound) and flat "
           "plane at the turned point",
        result["passed"],
        f"min over planes {result.get('min_at_identity', 0):.3f}, "
        f"worst flat residual {result.get('worst_flat_residual', 1):.2e}",
    )


def test_criterion_08_interior_parameters_flat_plane():
    result = de.run_example2(seed=SEED, n_cases=10)
    CERTIFICATE_POOL.extend(result.get("certificates", []))
    worst_balance = max(
        (r["balance_residual"] for r in result.get("results", [])), default=1.0
    )
    worst_flat = max(
        (abs(r["sec_quotient"]) for r in result.get("results", [])), default=1.0
    )
    _report(
        8, "balanced points converge and certify flat planes",
        result["passed"],
        f"worst balance residual {worst_balance:.2e}, "
        f"worst flatness {worst_flat:.2e} over 10 parameter sets",
    )


def test_criterion_09_flow_quotients_flat_everywhere():
    result = de.run_example4(seed=SEED, ns=(2, 3), n_points=50, n_metrics=5)
    CERTIFICATE_POOL.extend(result.get("certificates", []))
    _report(
        9, "flow quotients carry certified flat planes at every sampled point",
        result["passed"] and result.get("trials") == 500,
        f"trials={result.get('trials')}, "
        f"worst residual {result.get('worst_residual', 1):.2e}",
    )


def test_criterion_10_certificate_soundness():
    if not CERTIFICATE_POOL:
        pytest.skip("no certificates pooled (earlier criteria did not run)")
    worst = 0.0
    exceptions = 0
    for act, g, P, cert in CERTIFICATE_POOL:
        rep = bi.quotient_sectional(act, g, P, cert.x, cert.y)
        worst = max(worst, abs(rep.sec_quotient))
        if abs(rep.sec_quotient) >= 1e-8:
            exceptions += 1
    _report(
        10, "every emitted certificate evaluates flat through the "
            "curvature engine",
        exceptions == 0,
        f"{len(CERTIFICATE_POOL)} certificates, worst |sec| {worst:.2e}, "
        f"exceptions={exceptions}",
    )
