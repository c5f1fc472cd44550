"""The benchmark's correctness gates: a wrong result injected into biq is
counted as a failed op, not timed as a good one.

Run from the checkout root (the file name keeps it out of the package's own
test collection):

    python3 -m pytest perfbench/tests/check_gates.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run._import_biq()

import workloads  # noqa: E402
from biq import biquotient, catalog, detectors, freeness  # noqa: E402


@pytest.fixture
def one_round(tmp_path):
    """One whole tiny round of a workload (seconds=0 stops after it)."""

    def measure(name):
        workload = workloads.WORKLOADS[name]
        m = run.measure(workload.setup(3, str(tmp_path), True), seconds=0)
        metrics, extra = run.end_to_end(workload, m, setup=[1.0])
        return m, metrics, extra

    return measure


def first_call_only(real, corrupt, when=lambda *a, **k: True):
    """A stub that corrupts the result of the first call matching `when`."""
    state = {"done": False}

    def stub(*args, **kwargs):
        result = real(*args, **kwargs)
        if not state["done"] and when(*args, **kwargs):
            state["done"] = True
            return corrupt(result)
        return result

    return stub


def assert_one_failure(m, metrics, extra, weight=1):
    assert m["failed"] == weight, m["errors"]
    assert m["attempted"] > m["failed"]
    assert extra["failed_frac"] == weight / m["attempted"]
    # only ops that passed their check count towards throughput
    assert extra["wall_ops_per_s"] * m["timed_s"] == pytest.approx(m["attempted"] - weight)


@pytest.mark.parametrize("name", ["flat_search", "certify", "exact_rank", "classify"])
def test_clean_round_has_no_failures(one_round, name):
    m, _, extra = one_round(name)
    assert m["failed"] == 0, m["errors"]
    assert extra["failed_frac"] == 0.0


def test_flipped_verdict_counts_as_failed(monkeypatch, one_round):
    # every normal form is free and built in mod-center mode; flip one
    stub = first_call_only(
        freeness.is_free_exact,
        lambda v: replace(v, free=not v.free),
        when=lambda w, mode=None: w.mode == freeness.MOD_CENTER,
    )
    monkeypatch.setattr(freeness, "is_free_exact", stub)
    assert_one_failure(*one_round("exact_rank"))


def test_perturbed_curvature_counts_as_failed(monkeypatch, one_round):
    stub = first_call_only(
        biquotient.quotient_sectional,
        lambda rep: replace(rep, sec_quotient=rep.sec_quotient + 1e-6),
    )
    monkeypatch.setattr(biquotient, "quotient_sectional", stub)
    assert_one_failure(*one_round("certify"))


def test_negative_oneill_term_in_scan_report_counts_as_failed(monkeypatch, one_round):
    stub = first_call_only(
        detectors.numeric_flat_search,
        lambda rep: replace(rep, oneill_term=-rep.oneill_term - 1.0),
    )
    monkeypatch.setattr(detectors, "numeric_flat_search", stub)
    assert_one_failure(*one_round("flat_search"))


def test_wrong_free_pair_count_counts_its_pairs_as_failed(monkeypatch, one_round):
    stub = first_call_only(
        catalog.scan_two_torus_sp2,
        lambda res: replace(res, free_pairs=res.free_pairs - 1),
    )
    monkeypatch.setattr(catalog, "scan_two_torus_sp2", stub)
    m, metrics, extra = one_round("classify")
    assert_one_failure(m, metrics, extra, weight=200)  # Sp(2) bound 1


def test_witness_check_accepts_a_witness_and_rejects_a_wrong_one():
    # (z^2, 1) against (1, 1) on Sp(2): t = 1/2 acts trivially
    w = freeness.TorusActionWeights(catalog.sp(2), 1, ((2,), (0,)), ((0,), (0,)))
    verdict = freeness.is_free_exact(w)
    assert not verdict.free
    assert workloads._witness_error(w, verdict.witness) is None
    assert workloads._witness_error(w, replace(verdict.witness, denominator=3)) is not None
