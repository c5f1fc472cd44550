"""Pinned outputs: the command line's reports and the demos' printouts,
re-run in process and compared with tests/pinned_outputs.json.

Integer and text outputs (`biq free`, `biq catalog`, demos 02 and 04) are
pinned by the SHA-256 of their bytes; they came out byte-identical under
every OpenBLAS core type and thread count tried.  Outputs with floats
(`biq scan`, `biq fixtures`, demos 01 and 03) are pinned as values: every
non-float field, and every piece of a demo's text between its numbers,
must match exactly, while a float a matches its pin b when

    |a - b| <= 1e-9 max(|a|, |b|) + 1e-12.

The relative term covers the last digits that BLAS kernels change from
one CPU to another (6.7e-16 relative was the worst seen on values away
from 0); the absolute term covers flat minima near 1e-17, which can move
by 100% relative.  Two scan counts, `alternation_steps` and
`polish_evaluations`, follow float comparisons in the descent (one moved
from 5 to 6 on another core type), so they are not compared.  On one
machine, a scan report repeats byte for byte: each scan case runs twice.

A failing pin names its case and prints the new pin as one JSON line; to
accept an intended change, put that value into tests/pinned_outputs.json
and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from biq import cli

PINS = json.loads((Path(__file__).parent / "pinned_outputs.json").read_text())
DEMOS = Path(__file__).parents[1] / "demos"

RTOL, ATOL = 1e-9, 1e-12
FLOAT_DRIVEN_COUNTS = {"alternation_steps", "polish_evaluations"}
FLOAT = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\d+[eE][-+]?\d+)")

INPUTS = {
    "sp2_circle.json": {"group": "Sp", "n": 2, "k": 1, "W_L": [[1], [1]], "W_R": [[1], [0]]},
    "spin6_extra.json": {"group": "SO", "n": 6, "k": 3, "mode": "mod-center",
                         "W_L": [[1, 0, 0], [1, 0, 0], [1, 0, 0]],
                         "W_R": [[1, 1, 0], [0, 0, 1], [0, -1, -1]]},
    # the SU(7) normal form S11 (l = 1), free modulo the center
    "su7_s11.json": {"group": "SU", "n": 7, "k": 6, "mode": "mod-center",
                     "W_L": [[2, 0, 0, 0, 0, 0]] + [[0] * 6] * 6,
                     "W_R": [[1, -1, -1, -1, -1, -1], [0, 1, 0, 0, 0, 0],
                             [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0],
                             [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1],
                             [1, 0, 0, 0, 0, 0]]},
    "sp2_two_torus.json": {"group": "Sp", "n": 2, "k": 2,
                           "W_L": [[1, 2], [-2, 2]], "W_R": [[0, 0], [1, -1]]},
    # catalog.corollary_su3_weights, the genuinely two-sided free 2-torus
    "su3_two_torus.json": {"group": "SU", "n": 3, "k": 2,
                           "W_L": [[1, 0], [0, 1], [1, 1]], "W_R": [[0, 0], [0, 0], [2, 2]]},
    # a zero left row that carries the SO(2n) sign parity: not free, the
    # witness needs signs (-1, -1)
    "so4_zero_row.json": {"group": "SO", "n": 4, "k": 1, "W_L": [[0], [2]], "W_R": [[0], [1]]},
    "metric.json": {"t_block": [[1.0, 0.2], [0.2, 1.5]], "alphas": [1.0, 2.0, 1.5, 0.5]},
}

# name: (argv, exit code); `scan` and `fixtures` reports carry floats
CLI_CASES = {
    "free_sp2_circle": (["free", "sp2_circle.json"], 0),
    "free_sp2_circle_oracle3": (["free", "sp2_circle.json", "--oracle", "3"], 0),
    "free_spin6_extra": (["free", "spin6_extra.json"], 0),
    "free_su7_s11": (["free", "su7_s11.json"], 0),
    "free_sp2_two_torus": (["free", "sp2_two_torus.json"], 1),
    "free_so4_zero_row": (["free", "so4_zero_row.json"], 1),
    "verify_tables": (["catalog", "verify-tables"], 0),
    "verify_tables_csv": (["catalog", "verify-tables", "--format", "csv"], 0),
    "eschenburg_bound6": (["catalog", "enumerate-eschenburg", "--bound", "6"], 0),
    "eschenburg_bound1_jsonl": (["catalog", "enumerate-eschenburg", "--bound", "1",
                                 "--format", "jsonl"], 0),
    "bazaikin_bound9": (["catalog", "enumerate-bazaikin", "--bound", "9"], 0),
    "bazaikin_bound5_csv": (["catalog", "enumerate-bazaikin", "--bound", "5",
                             "--format", "csv"], 0),
    "scan_sp2_circle": (["scan", "--action", "sp2_circle.json", "--points", "1",
                         "--planes", "600"], 0),
    "scan_sp2_circle_metric": (["scan", "--action", "sp2_circle.json", "--metric",
                                "metric.json", "--points", "1", "--planes", "600"], 0),
    "scan_su3_two_torus": (["scan", "--action", "su3_two_torus.json", "--points", "2",
                            "--planes", "600"], 0),
    "fixtures_example2": (["fixtures", "example2"], 0),
    "fixtures_example3": (["fixtures", "example3"], 0),
    "fixtures_example4": (["fixtures", "example4"], 0),
}

# name: (script and arguments, whether it prints floats)
DEMO_CASES = {
    "demo_01": (["01_root_spaces_and_curvature.py"], True),
    "demo_02": (["02_freeness_checking.py"], False),
    "demo_03": (["03_flat_plane_detectors.py"], True),
    "demo_04": (["04_classification_catalog.py"], False),
    "demo_04_scan": (["04_classification_catalog.py", "--scan"], False),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    for name, doc in INPUTS.items():
        (directory / name).write_text(json.dumps(doc))
    return directory


def run_cli(argv, inputs, out):
    """The exit code and report text of `biq argv -o out`, input file
    names resolved in the inputs directory."""
    argv = [str(inputs / a) if a in INPUTS else a for a in argv]
    code = cli.main(argv + ["-o", str(out)])
    return code, out.read_text()


def run_demo(script_and_args, monkeypatch):
    monkeypatch.setattr(sys, "argv", script_and_args)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(DEMOS / script_and_args[0]), run_name="__main__")
    return buf.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def split_floats(text):
    """The text as [text, float, text, ..., text]: pieces of text between
    the decimal numbers, and the numbers parsed."""
    parts = FLOAT.split(text)
    return [float(p) if i % 2 else p for i, p in enumerate(parts)]


def difference(new, pin, path="$"):
    """The first place where new leaves pin, or None: floats within the
    tolerance, everything else exact, the float-driven counts skipped."""
    if type(new) is not type(pin):
        return f"{path}: {new!r} against pinned {pin!r}"
    if isinstance(new, float):
        if abs(new - pin) <= RTOL * max(abs(new), abs(pin)) + ATOL:
            return None
        return f"{path}: {new!r} against pinned {pin!r}"
    if isinstance(new, dict):
        if new.keys() != pin.keys():
            return f"{path}: keys {sorted(new)} against pinned {sorted(pin)}"
        pairs = [(f"{path}.{k}", new[k], pin[k]) for k in sorted(new)
                 if k not in FLOAT_DRIVEN_COUNTS]
    elif isinstance(new, list):
        if len(new) != len(pin):
            return f"{path}: {len(new)} items against {len(pin)} pinned"
        pairs = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(new, pin))]
    else:
        return None if new == pin else f"{path}: {new!r} against pinned {pin!r}"
    for p, a, b in pairs:
        diff = difference(a, b, p)
        if diff:
            return diff
    return None


def check_pin(name, new, read=lambda pin: pin):
    """Fail, naming the case and its new pin, unless new matches the pin
    once both are read by `read`."""
    diff = difference(read(new), read(PINS[name]))
    if diff:
        pytest.fail(f"{name}: {diff}\nnew pin: {json.dumps({name: new})}")


@pytest.mark.parametrize("name", CLI_CASES)
def test_command_line_output(name, inputs, tmp_path):
    argv, exit_code = CLI_CASES[name]
    code, text = run_cli(argv, inputs, tmp_path / "out")
    assert code == exit_code
    if argv[0] == "scan":
        assert run_cli(argv, inputs, tmp_path / "again")[1] == text
    check_pin(name, json.loads(text) if argv[0] in ("scan", "fixtures") else sha256(text))


@pytest.mark.parametrize("name", DEMO_CASES)
def test_demo_output(name, monkeypatch):
    script_and_args, prints_floats = DEMO_CASES[name]
    text = run_demo(script_and_args, monkeypatch)
    if prints_floats:
        check_pin(name, text, split_floats)
    else:
        check_pin(name, sha256(text))


def test_pins_match_the_cases():
    assert sorted(PINS) == sorted([*CLI_CASES, *DEMO_CASES])


def test_su3_two_torus_rows_are_sec_g_plus_the_oneill_term(inputs, tmp_path):
    # on the SU(3) two-torus every row's minimum is sec_G plus the O'Neill
    # term, and global_min is the least row
    report = json.loads(run_cli(CLI_CASES["scan_su3_two_torus"][0], inputs,
                                tmp_path / "out")[1])
    rows = report["points"]
    assert len(rows) == 2
    for r in rows:
        scale = max(abs(r["sec_G"]), abs(r["oneill_term"]))
        assert abs(r["min_sec_quotient"] - r["sec_G"] - r["oneill_term"]) <= 1e-12 * scale
    assert report["global_min"] == min(r["min_sec_quotient"] for r in rows)


def test_difference_applies_the_float_rule_and_skips_float_driven_counts():
    pin = {"x": 1.0, "n": 3, "s": "a", "stats": {"polish_evaluations": 5}}
    assert difference({**pin, "x": 1.0 + 5e-10}, pin) is None
    assert difference({**pin, "x": 1.0 + 2e-9}, pin) == "$.x: 1.000000002 against pinned 1.0"
    assert difference({**pin, "n": 3.0}, pin) == "$.n: 3.0 against pinned 3"
    assert difference({**pin, "stats": {"polish_evaluations": 6}}, pin) is None
    assert difference(split_floats("a 1.5e-32 b"), split_floats("a 1.7e-32 b")) is None
    assert difference(split_floats("a 1.5e-32 c"), split_floats("a 1.7e-32 b")) is not None
