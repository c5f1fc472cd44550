import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from biq import biquotient, cli, detectors, fixtures


@pytest.fixture
def thm2_file(tmp_path):
    path = tmp_path / "thm2.json"
    path.write_text(json.dumps({
        "group": "SU", "n": 3, "k": 2,
        "W_L": [[1, 0], [0, 1], [1, 1]],
        "W_R": [[0, 0], [0, 0], [2, 2]],
    }))
    return str(path)


@pytest.fixture
def nonfree_file(tmp_path):
    path = tmp_path / "nonfree.json"
    path.write_text(json.dumps({
        "group": "SU", "n": 3, "k": 1,
        "W_L": [[2], [2], [0]], "W_R": [[0], [0], [4]],
    }))
    return str(path)


@pytest.fixture
def gm_circle_file(tmp_path):
    path = tmp_path / "gm.json"
    path.write_text(json.dumps({
        "group": "Sp", "n": 2, "k": 1,
        "W_L": [[1], [1]], "W_R": [[1], [0]],
    }))
    return str(path)


class TestFree:
    def test_free_action_exits_zero(self, thm2_file, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["free", thm2_file, "--oracle", "6", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["free"] is True
        assert report["oracle"]["violation_found"] is False

    def test_report_carries_walk_stats_and_repeats_byte_for_byte(self, thm2_file, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["free", thm2_file, "-o", str(out1)]) == 0
        assert cli.main(["free", thm2_file, "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["config"]["schema_version"] == "9"
        assert report["stats"] == {"symmetries": 6, "leaves_examined": 0, "smith_forms": 0}

    def test_nonfree_action_exits_one_with_witness(self, nonfree_file, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["free", nonfree_file, "-o", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["free"] is False
        assert report["witness"]["element_denominator"] >= 2

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_row_formats_are_usage_errors(self, thm2_file, fmt, capsys):
        # a verdict has no rows: csv or jsonl would write an empty report
        assert cli.main(["free", thm2_file, "--format", fmt]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_oracle_order_exits_two(self, thm2_file, tmp_path, capsys):
        # --oracle 0 is off; a negative order is a usage error, not a clean run
        out = tmp_path / "report.json"
        assert cli.main(["free", thm2_file, "--oracle", "-3", "-o", str(out)]) == 2
        assert "max order" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["free", thm2_file, "--oracle", "0", "-o", str(out)]) == 0
        assert "oracle" not in json.loads(out.read_text())

    def test_missing_file_exits_two(self):
        assert cli.main(["free", "/nonexistent/weights.json"]) == 2

    @pytest.mark.parametrize("target", ["missing/report.json", "existing"],
                             ids=["missing-directory", "existing-directory"])
    def test_unwritable_output_exits_two_and_leaves_no_temporary(
            self, thm2_file, tmp_path, target, capsys):
        (tmp_path / "existing").mkdir()
        assert cli.main(["free", thm2_file, "-o", str(tmp_path / target)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_file_mode_is_honoured_unless_overridden(self, tmp_path):
        # (z^-2, z^-2) against (z^-2, 1) on Sp(2): t = 1/2 maps to the
        # central identity on both sides, so the circle is free only mod center
        path = tmp_path / "mod_center.json"
        path.write_text(json.dumps({
            "group": "Sp", "n": 2, "k": 1, "mode": "mod-center",
            "W_L": [[-2], [-2]], "W_R": [[-2], [0]],
        }))
        out = tmp_path / "report.json"
        assert cli.main(["free", str(path), "--oracle", "6", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["mode"] == "mod-center"
        assert report["free"] is True
        assert report["oracle"]["violation_found"] is False
        assert cli.main(["free", str(path), "--mode", "strict", "-o", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["mode"] == "strict"
        assert report["free"] is False


class TestScan:
    def test_gromoll_meyer_circle_scan(self, gm_circle_file, tmp_path):
        out = tmp_path / "scan.json"
        code = cli.main([
            "scan", "--action", gm_circle_file,
            "--points", "2", "--planes", "300", "--seed", "4",
            "-o", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["points"]) == 2
        # a flat plane exists at every point of any circle quotient here
        assert report["flat_planes_found"] == 2
        assert report["config"]["schema_version"] == "9"
        assert report["config"]["budgets"] == {"points": 2, "planes": 300, "restarts": 4}
        for row in report["points"]:
            assert row["flat_certificate"] == "N2"
            assert row["flat_certificate_abs_sec"] < 1e-8

    def test_rows_carry_search_and_certificate_counts(self, gm_circle_file, tmp_path):
        out = tmp_path / "scan.json"
        code = cli.main([
            "scan", "--action", gm_circle_file, "--points", "2", "--planes", "600",
            "--restarts", "2", "--seed", "4", "-o", str(out),
        ])
        assert code == 0
        for row in json.loads(out.read_text())["points"]:
            st = row["stats"]
            assert st["planes_sampled"] == 300
            assert st["descent_starts"] == 2
            steps = st["alternation_steps"]
            assert 0 < steps <= 2 * detectors.ALTERNATIONS and steps % 2 == 0
            assert 0 < st["polish_evaluations"] <= 300 - steps
            assert st["n2_attempts"] == (
                st["n2_hypothesis_failures"] + st["n2_search_failures"]
                + st["n2_not_flat"] + (row["flat_certificate"] == "N2")
            )
        csv_out = tmp_path / "scan.csv"
        cli.main([
            "scan", "--action", gm_circle_file, "--points", "2", "--planes", "600",
            "--restarts", "2", "--seed", "4", "--format", "csv", "-o", str(csv_out),
        ])
        header = csv_out.read_text().splitlines()[0].split(",")
        assert "stats.polish_evaluations" in header and "stats" not in header

    def test_small_plane_budget_still_descends(self, gm_circle_file, tmp_path):
        # 150 descent evaluations afford 3 of the 4 default starts; the
        # bi-invariant circle quotient has a flat plane at every point
        out = tmp_path / "scan.json"
        assert cli.main(["scan", "--action", gm_circle_file, "--planes", "300",
                         "-o", str(out)]) == 0
        for row in json.loads(out.read_text())["points"]:
            assert row["stats"]["descent_starts"] == 3
            assert row["numeric_certificate"] == "numeric"
            assert abs(row["min_sec_quotient"]) < 1e-12

    def test_certificate_that_does_not_evaluate_flat_is_dropped(
        self, gm_circle_file, tmp_path, monkeypatch
    ):
        def non_flat_n2(P, w1, w2, act, g, rng=None, diagnostics=None):
            # a horizontal plane with clearly nonzero quotient curvature
            frame = biquotient.PointFrame.at(act, g, P)
            hor = frame.horizontal().basis_elements()
            for x in hor:
                for y in hor:
                    if x is not y and abs(biquotient.quotient_sectional(
                            act, g, P, x, y).sec_quotient) > 1e-3:
                        return detectors.FlatCertificate("N2", x, y, ())
            raise AssertionError("no curved horizontal plane")

        monkeypatch.setattr(detectors, "check_N2", non_flat_n2)
        out = tmp_path / "scan.json"
        code = cli.main([
            "scan", "--action", gm_circle_file,
            "--points", "2", "--planes", "100", "--seed", "4", "-o", str(out),
        ])
        assert code == 0
        for row in json.loads(out.read_text())["points"]:
            assert row["flat_certificate"] == ""
            assert row["flat_certificate_abs_sec"] is None

    def test_refuses_non_free_action(self, nonfree_file, tmp_path):
        out = tmp_path / "scan.json"
        code = cli.main(["scan", "--action", nonfree_file, "-o", str(out)])
        assert code == 1
        assert "refusing" in json.loads(out.read_text())["error"]
        assert json.loads(out.read_text())["witness"] is not None

    def test_refusal_is_the_one_csv_row(self, nonfree_file, tmp_path):
        out = tmp_path / "scan.csv"
        code = cli.main(["scan", "--action", nonfree_file, "--format", "csv", "-o", str(out)])
        assert code == 1
        header, row, *rest = out.read_text().splitlines()
        assert not rest
        assert "error" in header.split(",")
        assert "witness.element_denominator" in header.split(",")
        assert "refusing" in row

    def test_refusal_csv_joins_witness_lists_as_catalog_rows_do(self, tmp_path):
        # the SU(3) 2-torus (z, w, 1) against (1, 1, zw) is not free; the
        # witness lists inside its nested dict are space-joined like p and q
        action = tmp_path / "action.json"
        action.write_text(json.dumps({
            "group": "SU", "n": 3, "k": 2,
            "W_L": [[1, 0], [0, 1], [0, 0]], "W_R": [[0, 0], [0, 0], [1, 1]],
        }))
        out = tmp_path / "scan.csv"
        code = cli.main(["scan", "--action", str(action), "--format", "csv",
                         "-o", str(out)])
        assert code == 1
        (row,) = csv.DictReader(io.StringIO(out.read_text()))
        assert row["witness.perm"] == "0 2 1"
        assert row["witness.signs"] == "1 1 1"
        assert row["witness.element_numerators"] == "0 1"

    def test_refusal_is_the_one_jsonl_row(self, nonfree_file, tmp_path):
        out = tmp_path / "scan.jsonl"
        code = cli.main(["scan", "--action", nonfree_file, "--format", "jsonl", "-o", str(out)])
        assert code == 1
        (line,) = out.read_text().splitlines()
        row = json.loads(line)
        assert "refusing" in row["error"]
        assert row["witness"]["element_denominator"] >= 2

    def test_zero_plane_budget_is_input_error(self, gm_circle_file):
        assert cli.main(["scan", "--action", gm_circle_file, "--planes", "0"]) == 2

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_restarts_below_one_is_input_error(self, gm_circle_file, tmp_path, capsys,
                                               restarts):
        out = tmp_path / "scan.json"
        code = cli.main(["scan", "--action", gm_circle_file, "--points", "1",
                         "--planes", "200", "--restarts", restarts, "-o", str(out)])
        assert code == 2
        assert "budgets must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_metric_file(self, gm_circle_file, tmp_path):
        metric = tmp_path / "metric.json"
        metric.write_text(json.dumps({
            "t_block": [[1.0, 0.0], [0.0, 2.0]],
            "alphas": [0.5, 1.0, 1.5, 2.0],
        }))
        out = tmp_path / "scan.json"
        code = cli.main([
            "scan", "--action", gm_circle_file, "--metric", str(metric),
            "--points", "1", "--planes", "200", "-o", str(out),
        ])
        assert code == 0

    def test_bad_metric_rejected(self, gm_circle_file, tmp_path):
        metric = tmp_path / "metric.json"
        metric.write_text(json.dumps({"alphas": [0.5, -1.0, 1.5, 2.0]}))
        assert cli.main([
            "scan", "--action", gm_circle_file, "--metric", str(metric),
        ]) == 2

    @pytest.mark.parametrize("doc", ['{"alphas": [NaN, 1.0, 1.0, 1.0]}',
                                     '{"t_block": [[Infinity, 0.0], [0.0, 1.0]]}'],
                             ids=["nan-alpha", "inf-t-block"])
    def test_non_finite_metric_names_the_file(self, gm_circle_file, tmp_path, doc,
                                              capsys):
        # Python's json reads NaN and Infinity as numbers, so only
        # build_metric can reject them
        metric = tmp_path / "m.json"
        metric.write_text(doc)
        assert cli.main(["scan", "--action", gm_circle_file, "--metric", str(metric),
                         "--points", "1", "--planes", "200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {metric}: ") and "must be finite" in err


class TestFixtures:
    def test_example1_passes(self, tmp_path, monkeypatch):
        # shrink the fixture through its seed interface only: run as-is at
        # reduced size via the runner map
        monkeypatch.setitem(
            fixtures.FIXTURES, "example1",
            lambda seed=0: fixtures.run_example1(seed, n_weights=2, n_metrics=2,
                                                 n_points=2),
        )
        out = tmp_path / "f.json"
        assert cli.main(["fixtures", "example1", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["summary"]["trials"] == 8
        # only scan takes budgets, so only its report records them
        assert "budgets" not in report["config"]

    def test_example3_passes(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            fixtures.FIXTURES, "example3",
            lambda seed=0: fixtures.run_example3(seed, n_metrics=2, budget=800),
        )
        out = tmp_path / "f.json"
        assert cli.main(["fixtures", "example3", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["summary"]["min_at_identity"] > 0.01
        assert report["summary"]["trials"] == 2
        assert report["summary"]["worst_residual"] < 1e-9

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_row_formats_are_usage_errors(self, fmt, capsys):
        # a fixture summary has no rows: csv or jsonl would write nothing
        assert cli.main(["fixtures", "example2", "--format", fmt]) == 2
        assert capsys.readouterr().out == ""

    def test_unknown_fixture_is_usage_error(self):
        assert cli.main(["fixtures", "example9"]) == 2


class TestCatalog:
    def test_verify_tables_exits_zero(self, tmp_path):
        out = tmp_path / "tables.json"
        assert cli.main(["catalog", "verify-tables", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert len(report["rows"]) == 17

    def test_eschenburg_enumeration_deterministic(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main(["catalog", "enumerate-eschenburg", "--bound", "1",
                         "-o", str(out1)]) == 0
        assert cli.main(["catalog", "enumerate-eschenburg", "--bound", "1",
                         "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bazaikin_count_matches_module(self, tmp_path):
        from biq import catalog as ca

        out = tmp_path / "bz.json"
        assert cli.main(["catalog", "enumerate-bazaikin", "--bound", "3",
                         "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["count"] == len(ca.enumerate_bazaikin(3))

    def test_bazaikin_default_bound_takes_the_odd_entries_within_it(self, tmp_path):
        from biq import catalog as ca

        out = tmp_path / "bz.json"
        assert cli.main(["catalog", "enumerate-bazaikin", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["count"] == len(ca.enumerate_bazaikin(1))

    def test_csv_output(self, tmp_path):
        out = tmp_path / "records.csv"
        assert cli.main(["catalog", "enumerate-bazaikin", "--bound", "1",
                         "--format", "csv", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("family")
        assert len(lines) >= 2

    def test_jsonl_rows_keep_lists_as_arrays(self, tmp_path):
        # a jsonl row is the json report's record; only csv joins lists
        out = tmp_path / "records.jsonl"
        assert cli.main(["catalog", "enumerate-eschenburg", "--bound", "1",
                         "--format", "jsonl", "-o", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows
        for row in rows:
            assert isinstance(row["p"], list) and isinstance(row["q"], list)
            assert all(isinstance(x, int) for x in row["p"] + row["q"])


class TestDeterminism:
    def test_no_partial_report_on_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out.json"
        assert cli.main(["free", str(bad), "-o", str(out)]) == 2
        assert not out.exists()


# the Gromoll-Meyer circle on Sp(2), free; each malformed document below
# differs from it (or from METRIC) in one place
WEIGHTS = {"group": "Sp", "n": 2, "k": 1, "W_L": [[1], [1]], "W_R": [[1], [0]]}
METRIC = {"t_block": [[1.0, 0.0], [0.0, 2.0]], "alphas": [0.5, 1.0, 1.5, 2.0]}
# wrong JSON types for any scalar field; each field also gets the other
# kind of scalar, a number for a string field and a string for an integer
_WRONG_TYPES = {"bool": True, "float": 1.5, "null": None}


def _bad(base, field, value):
    return {**base, field: value}


# (document, the field a key or type error names, or None for a value error)
MALFORMED_WEIGHTS = {
    **{f"missing-{key}": ({k: v for k, v in WEIGHTS.items() if k != key}, key)
       for key in ("group", "n", "k", "W_L", "W_R")},
    "unknown-key": ({**WEIGHTS, "W_M": [[0], [0]]}, "W_M"),
    "not-an-object": ([WEIGHTS], None),
    **{f"{key}-{name}": (_bad(WEIGHTS, key, value), key)
       for key, other in (("group", 2), ("mode", 2), ("n", "2"), ("k", "1"))
       for name, value in {**_WRONG_TYPES, type(other).__name__: other}.items()},
    **{f"W_L-{name}": (_bad(WEIGHTS, "W_L", value), "W_L")
       for name, value in {"empty": [], "empty-row": [[]], "scalar": 5, "flat": [1, 1],
                           "string-entry": [["x"], [1]], "float-entry": [[1.5], [1]],
                           "bool-entry": [[True], [1]]}.items()},
    "n-zero": (_bad(WEIGHTS, "n", 0), None),
    "k-zero": (_bad(WEIGHTS, "k", 0), None),
    "mode-unknown": (_bad(WEIGHTS, "mode", "loose"), None),
}
MALFORMED_METRICS = {
    "unknown-key": ({**METRIC, "alpha": [1.0]}, "alpha"),
    "not-an-object": ([1.0], None),
    "t_block-string": (_bad(METRIC, "t_block", "I"), "t_block"),
    "t_block-null": (_bad(METRIC, "t_block", None), "t_block"),
    "t_block-string-entry": (_bad(METRIC, "t_block", [["1", 0], [0, 1]]), "t_block"),
    "t_block-bool-entry": (_bad(METRIC, "t_block", [[True, 0], [0, 1]]), "t_block"),
    "alphas-zero": (_bad(METRIC, "alphas", [0, 1, 1, 1]), None),
    "alphas-string-entry": (_bad(METRIC, "alphas", ["x", 1, 1, 1]), "alphas"),
    "alphas-bool-entry": (_bad(METRIC, "alphas", [True, 1, 1, 1]), "alphas"),
    "alphas-not-a-list": (_bad(METRIC, "alphas", 1.0), "alphas"),
}


class TestInputFiles:
    @staticmethod
    def _write(tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    @staticmethod
    def _assert_rejected(code, err, path, field):
        assert code == 2
        assert err.startswith(f"error: {path}: ")
        assert "Traceback" not in err
        if field is not None:
            assert re.search(rf"\b{field}\b", err[len(f"error: {path}: "):])

    @pytest.mark.parametrize("doc, field", MALFORMED_WEIGHTS.values(),
                             ids=MALFORMED_WEIGHTS.keys())
    def test_malformed_weights_exit_two_and_name_the_file(self, tmp_path, capsys, doc,
                                                          field):
        path = self._write(tmp_path, "w.json", doc)
        code = cli.main(["free", path])
        self._assert_rejected(code, capsys.readouterr().err, path, field)

    @pytest.mark.parametrize("doc, field", MALFORMED_METRICS.values(),
                             ids=MALFORMED_METRICS.keys())
    def test_malformed_metric_exits_two_and_names_the_file(self, tmp_path, capsys, doc,
                                                           field):
        action = self._write(tmp_path, "w.json", WEIGHTS)
        path = self._write(tmp_path, "m.json", doc)
        code = cli.main(["scan", "--action", action, "--metric", path, "--points", "1",
                         "--planes", "50", "--restarts", "1"])
        self._assert_rejected(code, capsys.readouterr().err, path, field)

    @pytest.mark.parametrize("doc", [
        WEIGHTS,
        _bad(WEIGHTS, "W_L", [[1.0], [1.0]]),
        _bad(WEIGHTS, "mode", "strict"),
        _bad(WEIGHTS, "mode", "mod-center"),
    ], ids=["no-mode", "integral-float-entries", "strict", "mod-center"])
    def test_accepted_weights(self, tmp_path, doc):
        assert cli.main(["free", self._write(tmp_path, "w.json", doc)]) == 0

    @pytest.mark.parametrize("doc", [
        {}, METRIC, {"alphas": [1, 2, 1, 1]}, {"t_block": [[1, 0], [0, 2]]},
    ], ids=["empty", "floats", "integer-alphas", "integer-t_block"])
    def test_accepted_metrics(self, tmp_path, doc):
        code = cli.main(["scan", "--action", self._write(tmp_path, "w.json", WEIGHTS),
                         "--metric", self._write(tmp_path, "m.json", doc),
                         "--points", "1", "--planes", "50", "--restarts", "1",
                         "-o", str(tmp_path / "scan.json")])
        assert code == 0

    @pytest.mark.parametrize("field, value", [("n", 2.0), ("k", 1.0)])
    def test_integral_float_sizes_read_as_integers(self, tmp_path, field, value):
        # an integral number is a JSON integer: "n": 2.0 is the Sp(2) circle,
        # with the verdict and report of "n": 2
        outs = []
        for name, doc in (("int", WEIGHTS), ("float", _bad(WEIGHTS, field, value))):
            out = tmp_path / f"{name}.json"
            path = self._write(tmp_path, f"w_{name}.json", doc)
            assert cli.main(["free", path, "-o", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _src_env():
    """The environment with this checkout's biq first on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _free_and_scan(tmp_path, prelude=""):
    """Run `biq free` and a small `biq scan` in a fresh interpreter after
    `prelude`; return the two exit codes and the top-level modules loaded."""
    action = tmp_path / "w.json"
    action.write_text(json.dumps(WEIGHTS))
    runs = [["free", str(action)],
            ["scan", "--action", str(action), "--points", "1", "--planes", "50",
             "--restarts", "1", "-o", str(tmp_path / "scan.json")]]
    probe = (f"import json, sys; {prelude}\nfrom biq.cli import main\n"
             f"codes = [main(argv) for argv in {runs!r}]\n"
             "print(json.dumps([codes, sorted({m.split('.')[0] for m in sys.modules})]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_input_files_are_read_without_jsonschema(tmp_path):
    codes, _ = _free_and_scan(tmp_path, "sys.modules['jsonschema'] = None")
    assert codes == [0, 0]


def test_import_path_is_numpy_only(tmp_path):
    # a free verdict and a scan load nothing beyond the standard library
    # and what numpy loads itself (numpy.random's Cython extensions add
    # cython_runtime and a _cython_* module): scipy, for one, is a test
    # dependency only
    probe = "import json, sys, numpy.random; print(json.dumps(sorted(sys.modules)))"
    baseline = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(), check=True,
        capture_output=True, text=True).stdout)
    codes, loaded = _free_and_scan(tmp_path)
    assert codes == [0, 0]
    extra = set(loaded) - set(sys.stdlib_module_names) - {m.split(".")[0] for m in baseline}
    assert extra == {"biq"}


def test_scan_runs_without_scipy(gm_circle_file, tmp_path):
    # scipy is a test dependency only: with it unimportable, a scan whose
    # budget affords descent starts still runs its polish
    out = tmp_path / "scan.json"
    argv = ["scan", "--action", gm_circle_file, "--points", "2", "--planes", "600",
            "--restarts", "2", "-o", str(out)]
    probe = ("import sys; sys.modules['scipy'] = None; from biq.cli import main; "
             f"sys.exit(main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())["points"]
    assert len(rows) == 2
    assert all(row["stats"]["polish_evaluations"] > 0 for row in rows)


def test_closed_stdout_keeps_the_verdict_exit_code(gm_circle_file):
    # `biq free FILE | head -0`: the reader is gone before the report is
    # written, and exit code 1 would read as "not free"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "biq.cli", "free", gm_circle_file],
                              env=_src_env(), stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (0, "")
