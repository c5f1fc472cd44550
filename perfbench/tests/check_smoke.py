"""Smoke test of the benchmark at tiny sizes, run through its command line
in a fresh copy of the checkout.

Run from the checkout root (the file name keeps it out of the package's own
test collection):

    python3 -m pytest perfbench/tests/check_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
IGNORE = shutil.ignore_patterns("__pycache__", ".work", "results")


def _files(root):
    return {
        str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns)
        for p in root.rglob("*") if p.is_file()
    }


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy holding src/, the benchmark's paths and BENCHMARK.json, and
    the files in it before any run."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=IGNORE)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, root / path, ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", root)
    return root, _files(root)


def bench(root, *args):
    proc = subprocess.run(
        ["python3", *BENCHMARK["command"][1:], *map(str, args)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(root, workload, trace, seed=5):
    proc = bench(root, "--workload", workload, "--seed", seed, "--seconds", 0.3,
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    return last


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_end_to_end_metric_with_its_unit(checkout, workload):
    root, _ = checkout
    metrics = result(root, workload, trace=0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload,exact", [
    ("exact_rank", ["freeness.sigma_per_verdict", "freeness.sigma_per_free_verdict"]),
    ("classify", ["catalog.hnf_per_key", "catalog.scan_two_torus_su3.hnf_per_key",
                  "catalog.scan_two_torus_sp2.hnf_per_key"]),
])
def test_traced_counts_repeat_exactly(checkout, workload, exact):
    root, _ = checkout
    first = result(root, workload, trace=1)["metrics"]
    second = result(root, workload, trace=1)["metrics"]
    assert {k: v["unit"] for k, v in first.items()} == units("per_layer")
    for name in exact:
        assert first[name]["value"] > 0
        assert first[name]["value"] == second[name]["value"], name
    if workload == "classify":
        assert first["catalog.scan_two_torus_su3.hnf_per_key"]["value"] == 72
        assert first["catalog.scan_two_torus_sp2.hnf_per_key"]["value"] == 128


def test_writes_nothing_outside_its_paths(checkout):
    # runs after the runs above (pytest keeps file order) in the same copy
    root, before = checkout
    after = _files(root)
    changed = [p for p, stat in after.items() if before.get(p) != stat]
    outside = [p for p in changed
               if not any(p.startswith(path + "/") for path in BENCHMARK["paths"])]
    assert outside == []
    assert not [p for p in before if p not in after]


def test_fails_without_the_program(tmp_path):
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=IGNORE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", BENCHMARK["workloads"][0]["name"],
                 "--seed", 1, "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _record(values, host_probe_ms=10.0):
    return {"metrics": {k: {"value": v, "unit": units("end_to_end")[k]}
                        for k, v in values.items()},
            "reported": {"host_probe_ms": {"value": host_probe_ms, "unit": "ms"}}}


@pytest.mark.parametrize("noisy_metric,base", [("ops_per_s", 10.0), ("setup_s", 1.0)])
def test_compare_marks_wide_spread_unresolved(tmp_path, capsys, noisy_metric, base):
    steady = {"setup_s": 1.0, "ops_per_s": 10.0, "op_ms_p50": 5.0, "peak_rss_mb": 90.0}
    noisy = [dict(steady, **{noisy_metric: base * f}) for f in (0.5, 1.0, 2.0)]
    old = {"workloads": {"certify": {"runs": [_record(steady)] * 3}}}
    new = {"workloads": {"certify": {"runs": [_record(r, 20.0) for r in noisy]}}}
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    run.compare(tmp_path / "old.json", tmp_path / "new.json")
    rows = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows[noisy_metric].endswith("unresolved")
    assert rows["op_ms_p50"].endswith("within bound")
    assert rows["host_probe_ms"].split()[-1] == "2.000"
    assert all(line.startswith("certify") for line in rows.values())


def test_op_timings_are_scaled_to_the_reference_host_speed():
    # a host twice as slow as the reference: every op takes 100 ms of wall
    # time, 50 ms at reference speed; set-up is reported as measured
    slow = 2 * run.REF_PROBE_MS
    m = {"op_s": [0.1] * 4, "labels": ["op"] * 4, "round_s": [0.4], "timed_s": 0.4,
         "attempted": 4, "failed": 0, "round_weight": 4, "probes_ms": [slow] * 7}
    run._import_biq()
    import workloads

    metrics, extra = run.end_to_end(workloads.WORKLOADS["certify"], m,
                                    setup=[1.0, 1.2, 1.4])
    assert extra["wall_op_ms_p50"] == pytest.approx(100.0)
    assert metrics["op_ms_p50"] == pytest.approx(50.0)
    assert extra["wall_ops_per_s"] == pytest.approx(10.0)
    assert metrics["ops_per_s"] == pytest.approx(20.0)
    assert metrics["setup_s"] == pytest.approx(1.2)
    assert extra["op_ms_p50_by_label"] == {"op": [pytest.approx(50.0), 4]}
