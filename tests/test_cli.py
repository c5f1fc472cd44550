import json

import pytest

from biq import biquotient, cli, detectors


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

    def test_nonfree_action_exits_one_with_witness(self, nonfree_file, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["free", nonfree_file, "-o", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["free"] is False
        assert report["witness"]["element_denominator"] >= 2

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "group": "SU", "n": 3, "k": 1,
            "W_L": [[2], [2], ["x"]], "W_R": [[0], [0], [4]],
        }))
        code = cli.main(["free", str(bad)])
        assert code == 2
        assert "W_L" in capsys.readouterr().err

    def test_missing_file_exits_two(self):
        assert cli.main(["free", "/nonexistent/weights.json"]) == 2

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
        assert report["config"]["schema_version"] == "3"
        for row in report["points"]:
            assert row["flat_certificate"] == "N2"
            assert row["flat_certificate_abs_sec"] < 1e-8

    def test_certificate_that_does_not_evaluate_flat_is_dropped(
        self, gm_circle_file, tmp_path, monkeypatch
    ):
        def non_flat_n2(P, w1, w2, act, g, candidates=None, rng=None, diagnostics=None):
            # a horizontal plane with clearly nonzero quotient curvature
            frame = biquotient.PointFrame.at(act, g, P)
            hor = frame.horizontal().basis_elements()
            for x in hor:
                for y in hor:
                    if x is not y and abs(biquotient.quotient_sectional(
                            act, g, P, x, y, frame=frame).sec_quotient) > 1e-3:
                        return detectors.FlatCertificate("N2", g, x, y, ())
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

    def test_zero_plane_budget_is_input_error(self, gm_circle_file):
        assert cli.main(["scan", "--action", gm_circle_file, "--planes", "0"]) == 2

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


class TestFixtures:
    def test_example1_passes(self, tmp_path, monkeypatch):
        # shrink the fixture through its seed interface only: run as-is at
        # reduced size via the runner map
        import biq.detectors as de

        monkeypatch.setitem(
            de.FIXTURES, "example1",
            lambda seed=0: de.run_example1(seed, n_weights=2, n_metrics=2,
                                           n_points=2),
        )
        out = tmp_path / "f.json"
        assert cli.main(["fixtures", "example1", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_example3_passes(self, tmp_path, monkeypatch):
        import biq.detectors as de

        monkeypatch.setitem(
            de.FIXTURES, "example3",
            lambda seed=0: de.run_example3(seed, n_metrics=2, budget=800),
        )
        out = tmp_path / "f.json"
        assert cli.main(["fixtures", "example3", "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["summary"]["min_at_identity"] > 0.01

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

    def test_csv_output(self, tmp_path):
        out = tmp_path / "records.csv"
        assert cli.main(["catalog", "enumerate-bazaikin", "--bound", "1",
                         "--format", "csv", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("family")
        assert len(lines) >= 2


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, thm2_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        cli.main(["free", thm2_file, "--oracle", "4", "--seed", "9", "-o", str(out1)])
        cli.main(["free", thm2_file, "--oracle", "4", "--seed", "9", "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_scan_reports_byte_identical(self, gm_circle_file, tmp_path):
        metric = tmp_path / "metric.json"
        metric.write_text(json.dumps({
            "t_block": [[1.0, 0.2], [0.2, 2.0]],
            "alphas": [0.5, 1.0, 1.5, 2.0],
        }))
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for out in outs:
            assert cli.main([
                "scan", "--action", gm_circle_file, "--metric", str(metric),
                "--points", "3", "--planes", "600", "--seed", "9", "-o", str(out),
            ]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_no_partial_report_on_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "out.json"
        assert cli.main(["free", str(bad), "-o", str(out)]) == 2
        assert not out.exists()
