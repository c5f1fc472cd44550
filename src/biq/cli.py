"""Command-line front end: freeness checks, curvature scans, fixture runs,
catalog enumeration and table verification.

Input files are JSON objects: this module checks their fields' JSON types,
and the library's constructors check their values.  All randomness
flows from the single --seed option, which is recorded in every report
header, and output ordering is canonical, so identical invocations on one
machine produce byte-identical reports.  Across CPUs, integer and text
outputs stay identical, while float fields, and counts decided by float
comparisons, can differ in the last digits.  Reports are written through
a temporary file and renamed, never partially.

Exit codes: 0 success (for `free`: the action is free), 1 a check failed
(for `free`: not free), 2 input or usage error, an output path that
cannot be written included.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

from . import catalog, detectors, fixtures
from .algebra import (
    AlgebraError,
    GroupFamily,
    identity,
    random_group_element,
    root_decomposition,
)
from .biquotient import from_torus_weights
from .freeness import TorusActionWeights, is_free_bruteforce, is_free_exact
from .metric import build_metric

SCHEMA_VERSION = "8"


def _header(args):
    """The report's config block; only `scan` takes budgets, so only its
    report records them."""
    return {"seed": args.seed, "schema_version": SCHEMA_VERSION}


class InputError(Exception):
    """Malformed input file or arguments (exit code 2)."""


def _is_int(v):  # JSON Schema's integer: an integral number, never a boolean
    return type(v) is int or (type(v) is float and v.is_integer())


def _is_number(v):
    return type(v) in (int, float)


def _list_of(entry):
    return lambda v: type(v) is list and all(map(entry, v))


# each field's JSON type; the constructors check the values
_WEIGHTS_FIELDS = {
    "group": ("a string", lambda v: type(v) is str),
    "n": ("an integer", _is_int),
    "k": ("an integer", _is_int),
    "W_L": ("a matrix of integers", _list_of(_list_of(_is_int))),
    "W_R": ("a matrix of integers", _list_of(_list_of(_is_int))),
    "mode": ("a string", lambda v: type(v) is str),
}
_METRIC_FIELDS = {
    "t_block": ("a matrix of numbers", _list_of(_list_of(_is_number))),
    "alphas": ("a list of numbers", _list_of(_is_number)),
}


def _load_json(path, fields, required=()):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if type(doc) is not dict:
        raise InputError(f"{path}: expected a JSON object")
    for name in required:
        if name not in doc:
            raise InputError(f"{path}: missing field {name!r}")
    for name, value in doc.items():
        if name not in fields:
            raise InputError(f"{path}: unknown field {name!r}")
        if not fields[name][1](value):
            raise InputError(f"{path}: field {name!r} must be {fields[name][0]}")
    return doc


def load_weights(path) -> TorusActionWeights:
    doc = _load_json(path, _WEIGHTS_FIELDS, required=("group", "n", "k", "W_L", "W_R"))
    try:
        return TorusActionWeights(
            group=GroupFamily(doc["group"], int(doc["n"])),
            k=int(doc["k"]),
            w_left=tuple(map(tuple, doc["W_L"])),
            w_right=tuple(map(tuple, doc["W_R"])),
            mode=doc.get("mode", "strict"),
        )
    except (AlgebraError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_metric(path, dec):
    doc = _load_json(path, _METRIC_FIELDS)
    try:
        return build_metric(dec, doc.get("t_block"), doc.get("alphas"))
    except (AlgebraError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_report(text: str, output: str | None):
    if output is None:
        try:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader left early (`biq free FILE | head`); the verdict
            # still decides the exit code, and stdout goes to devnull so
            # the flush at shutdown cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    directory, name = os.path.split(os.path.abspath(output))
    tmp = os.path.join(directory, f".{name}.tmp")
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, output)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise InputError(f"cannot write {output}: {exc}") from exc


def _emit(report, args, csv_rows=None):
    if args.format == "json":
        _write_report(json.dumps(report, indent=2, sort_keys=True), args.output)
    elif args.format == "jsonl":
        lines = [json.dumps(r, sort_keys=True) for r in csv_rows or []]
        _write_report("\n".join(lines), args.output)
    else:
        rows = [_flat_row(r) for r in csv_rows or []]
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=sorted(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        _write_report(buf.getvalue(), args.output)


def _flat_row(row):
    """A CSV row: a nested dict becomes one "key.subkey" column per entry,
    and a list, nested or not, one column of its space-joined items."""
    flat = {}
    for k, v in row.items():
        if isinstance(v, dict):
            flat.update(_flat_row({f"{k}.{kk}": vv for kk, vv in v.items()}))
        elif isinstance(v, list):
            flat[k] = " ".join(map(str, v))
        else:
            flat[k] = v
    return flat


def _witness_dict(witness):
    if witness is None:
        return None
    return {
        "perm": list(witness.perm),
        "signs": list(witness.signs),
        "element_numerators": list(witness.numerators),
        "element_denominator": witness.denominator,
        "invariant_factors": list(witness.invariant_factors),
        "kind": witness.kind,
    }


def cmd_free(args) -> int:
    weights = load_weights(args.weights)
    verdict = is_free_exact(weights, args.mode)
    report = {
        "config": _header(args),
        "command": "free",
        "group": str(weights.group),
        "k": weights.k,
        "mode": verdict.mode,
        "free": verdict.free,
        "witness": _witness_dict(verdict.witness),
        "note": verdict.note,
        "stats": verdict.stats,
    }
    if args.oracle:
        oracle = is_free_bruteforce(weights, args.oracle, verdict.mode)
        report["oracle"] = {
            "max_order": args.oracle,
            "violation_found": not oracle.free,
            "witness": _witness_dict(oracle.witness),
            "note": oracle.note,
        }
        if verdict.free and not oracle.free:
            report["oracle"]["contradiction"] = True
    _emit(report, args)
    return 0 if verdict.free else 1


def cmd_scan(args) -> int:
    if min(args.planes, args.points, args.restarts) < 1:
        raise InputError("budgets must be at least 1")
    config = {**_header(args), "budgets": {"points": args.points, "planes": args.planes,
                                           "restarts": args.restarts}}
    weights = load_weights(args.action)
    verdict = is_free_exact(weights)
    if not verdict.free:
        refusal = {
            "error": "action is not free; refusing to scan",
            "witness": _witness_dict(verdict.witness),
        }
        _emit({"config": config, "command": "scan", **refusal}, args,
              csv_rows=[refusal])
        return 1
    act = from_torus_weights(weights)
    dec = root_decomposition(weights.group)
    P = load_metric(args.metric, dec) if args.metric else build_metric(dec)
    rng = np.random.default_rng(args.seed)

    points = ["identity"] + [f"random[{i}]" for i in range(args.points - 1)]
    rows = []
    global_min = None
    for name in points:
        g = identity(weights.group) if name == "identity" else \
            random_group_element(weights.group, rng)
        stats = {}
        best = detectors.numeric_flat_search(
            act, g, P, budget=args.planes, rng=rng,
            local_restarts=args.restarts, diagnostics=stats,
        )
        cert, cert_sec = detectors.auto_flat_certificate(
            act, g, P, rng, diagnostics=stats
        )
        rows.append({
            "point": name,
            "min_sec_quotient": best.sec_quotient,
            "sec_G": best.sec_g,
            "oneill_term": best.oneill_term,
            "numeric_certificate": best.certificate,
            "flat_certificate": cert.criterion if cert else "",
            "flat_certificate_abs_sec": cert_sec,
            "stats": stats,
        })
        if global_min is None or best.sec_quotient < global_min:
            global_min = best.sec_quotient
    report = {
        "config": config,
        "command": "scan",
        "group": str(weights.group),
        "points": rows,
        "global_min": global_min,
        "flat_planes_found": sum(
            1 for r in rows
            if r["numeric_certificate"] == "numeric" or r["flat_certificate"]
        ),
    }
    _emit(report, args, csv_rows=rows)
    return 0


def cmd_fixtures(args) -> int:
    runner = fixtures.FIXTURES.get(args.name)
    if runner is None:
        raise InputError(
            f"unknown fixture {args.name!r}; choose from "
            + ", ".join(sorted(fixtures.FIXTURES))
        )
    result = runner(seed=args.seed)
    report = {
        "config": _header(args),
        "command": "fixtures",
        "fixture": args.name,
        "passed": result["passed"],
        "summary": {k: v for k, v in result.items() if k != "certificates"},
    }
    _emit(report, args)
    return 0 if result["passed"] else 1


def cmd_catalog(args) -> int:
    enumerate_family = {
        "enumerate-eschenburg": catalog.enumerate_eschenburg,
        "enumerate-bazaikin": catalog.enumerate_bazaikin,
    }.get(args.what)
    if enumerate_family is not None:
        records = [r.to_dict() for r in enumerate_family(args.bound)]
        report = {"config": _header(args), "command": "catalog",
                  "records": records, "count": len(records)}
        _emit(report, args, csv_rows=records)
        return 0
    # verify-tables
    rows = []
    ok = True
    for table in ("A", "B"):
        for entry in catalog.table_entries(table):
            rep = catalog.verify_entry(entry)
            ok &= rep["passed"]
            rows.append({
                "row": rep["row"], "table": rep["table"], "group": rep["group"],
                "verified": rep["verified"], "passed": rep["passed"],
                "checks": "; ".join(
                    f"{name}={'ok' if okk else 'FAIL'}" for name, okk, _ in rep["checks"]
                ),
            })
    report = {"config": _header(args), "command": "catalog",
              "rows": rows, "all_passed": ok}
    _emit(report, args, csv_rows=rows)
    return 0 if ok else 1


def _add_common(p, budgets=False, rows=True):
    """Options every subcommand takes; csv and jsonl are offered only to
    the subcommands whose report has rows to write."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.add_argument("--format", choices=("json", "csv", "jsonl") if rows else ("json",),
                   default="json")
    if budgets:
        p.add_argument("--points", type=int, default=5)
        p.add_argument("--planes", type=int, default=2000)
        p.add_argument("--restarts", type=int, default=4)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="biq",
        description="Freeness, curvature and classification workbench for "
                    "two-sided quotients of compact matrix groups",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("free", help="exact freeness verdict for weight matrices")
    p.add_argument("weights", help="weights JSON file")
    p.add_argument("--mode", choices=("strict", "mod-center"), default=None,
                   help="freeness notion (default: the file's mode)")
    p.add_argument("--oracle", type=int, default=0, metavar="MAX_ORDER",
                   help="cross-check with the brute-force falsifier")
    _add_common(p, rows=False)
    p.set_defaults(func=cmd_free)

    p = sub.add_parser("scan", help="curvature scan over points and planes")
    p.add_argument("--action", required=True, help="weights JSON file")
    p.add_argument("--metric", default=None, help="metric JSON file (default: bi-invariant)")
    _add_common(p, budgets=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fixtures", help="run a worked-example fixture")
    p.add_argument("name", help="example1 | example2 | example3 | example4")
    _add_common(p, rows=False)
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("catalog", help="enumerations and table verification")
    p.add_argument("what", choices=("enumerate-eschenburg", "enumerate-bazaikin",
                                    "verify-tables"))
    p.add_argument("--bound", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
