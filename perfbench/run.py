#!/usr/bin/env python3
"""biq's benchmark: four workloads, end-to-end metrics, a traced run for
per-layer metrics, and a compare mode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
(BENCHMARK.json lists both).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the line before
it, starting with ``# record``, holds the full record with machine facts,
op_ms_p90, failed_frac and the bases of the derived ratios.

    python3 perfbench/run.py --workload all --seconds S --runs R --out FILE
    python3 perfbench/run.py --compare OLD.json NEW.json

``all`` runs every workload R times (seeds N, N+1, ...), each in its own
process and the workloads in turn, prints one row per run and writes the
records to FILE.
``--compare`` prints per-metric ratios of two such files, one workload per
row, and marks a metric unresolved when either side's spread exceeds its
bound.  Each workload's rows end with how much the host's own speed moved
between the two files.

Op timings are reported at a reference host speed.  A fixed probe loop of no
biq code is timed before, during (every PROBE_EVERY_S of op time) and after
each measurement, and ops_per_s, op_ms_p50 and op_ms_p90 are scaled by
REF_PROBE_MS over the median probe time (see end_to_end); the wall values are
recorded as wall_*.  setup_s is wall time.

The loop is closed: one client, each op issued after the previous one
returns, no threads beyond BLAS's own.  A run repeats one round of ops
(see workloads.py) until the summed op time is nearest --seconds; every op's
output is checked outside the timed region.  ``setup_s`` is the median of
SETUP_SAMPLES fresh processes, each timed from its start until its set-up is
done.
The traced run measures its untraced baseline in a child process, then
installs the span wrappers before its own set-up.

Nothing is written outside perfbench/: inputs go to perfbench/.work/ and are
removed at exit, spans of a traced run to perfbench/results/, and no
bytecode is written.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
#: op timings are reported at the host speed on which one probe takes this long
REF_PROBE_MS = 5.0
#: op seconds between two probes of the host's speed while a run measures
PROBE_EVERY_S = 0.5

#: end-to-end metrics: name -> unit; the gated ones are in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}
#: printed and recorded, but not gated: p90 needs >= 100 ops in a run, which
#: flat_search and classify never reach, and failed_frac is 0 on correct code;
#: wall_* are ops_per_s and op_ms_p50 before scaling to the reference host speed,
#: and host_probe_ms is the speed of the host, not of biq (see end_to_end)
REPORTED_ONLY = {"op_ms_p90": "ms", "failed_frac": "fraction",
                 "wall_ops_per_s": "ops/s", "wall_op_ms_p50": "ms",
                 "host_probe_ms": "ms"}


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def _child_cmd(*args):
    return [sys.executable, "-B", str(Path(__file__).resolve()), *map(str, args)]


def _import_biq():
    if not (SRC / "biq" / "__init__.py").is_file():
        raise BenchError(f"no biq sources under {SRC}; run from a checkout root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


# ---------------------------------------------------------------------------
# facts
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git without running git; a checkout
    that is not a git repository reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_configuration": blas.get("openblas configuration", "n/a"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
    }


def probe_ms():
    """ms of one fixed loop of Python arithmetic and small matrix products,
    none of it biq's code: how fast the host runs at this moment."""
    import numpy

    # an orthogonal matrix keeps the products' norm at 1: no overflow, and
    # no subnormal numbers, whose arithmetic is slow
    q, _ = numpy.linalg.qr(numpy.linspace(-1.0, 1.0, 24 * 24).reshape(24, 24)
                           + numpy.eye(24))
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    x = q
    for _ in range(1000):
        x = x @ q
    return 1e3 * (time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# one workload in this process
# ---------------------------------------------------------------------------

def setup_samples(workload, seed, tiny):
    """Set-up time of SETUP_SAMPLES fresh processes, each timed from its
    start until it reports its set-up done."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cmd = _child_cmd("--workload", workload, "--seed", seed, "--setup-only")
        if tiny:
            cmd.append("--tiny")
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up process failed ({proc.returncode}): {line!r}")
        samples.append(elapsed)
    return samples


def measure(ops, seconds, recorder=None):
    """Repeat the round of ops while one more round (as long as the last)
    would bring the summed op time nearer to `seconds`: a run measures whole
    rounds, at least one, so every op of the round is timed, and a round as
    long as `seconds` (flat_search) does not double the run.

    Returns per-op seconds and labels, per-round seconds, counts, the first
    errors and the probe times: three before the first op, one after each
    PROBE_EVERY_S of op time and three after the last op.  Each op's output
    is checked, and the probe run, outside the timed region.
    """
    op_s, labels, round_s, errors = [], [], [], []
    probes = [probe_ms() for _ in range(3)]
    attempted = failed = 0
    timed = since_probe = 0.0
    while not round_s or timed + round_s[-1] / 2 < seconds:
        this_round = 0.0
        for op in ops:
            if recorder is not None:
                recorder.begin_op(len(op_s))
            t0 = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, err = None, f"raised {exc!r}"
                if not errors:
                    traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
            if recorder is not None:
                recorder.end_op()
            if err is None:
                try:
                    err = op.check(out)
                except Exception as exc:
                    err = f"check raised {exc!r}"
            op_s.append(dt)
            labels.append(op.label)
            this_round += dt
            attempted += op.weight
            if err is not None:
                failed += op.weight
                if len(errors) < 20:
                    errors.append(f"{op.label}: {err}")
            since_probe += dt
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe_ms())
                since_probe = 0.0
        round_s.append(this_round)
        timed += this_round
    probes += [probe_ms() for _ in range(3)]
    return {"op_s": op_s, "labels": labels, "round_s": round_s, "timed_s": timed,
            "attempted": attempted, "failed": failed, "errors": errors,
            "probes_ms": probes,
            "rounds": len(round_s), "round_weight": sum(op.weight for op in ops)}


def end_to_end(workload, m, setup):
    """The end-to-end metrics of an untraced run, and what is recorded with
    them.

    A host shared with other tenants can change speed by 2x within minutes,
    and the op timings with it.  So they are scaled to a reference host
    speed: multiplied by REF_PROBE_MS / host_ms (rates divided by it), where
    host_ms is the median probe time of the measurement.  The probe runs no
    biq code, so a change to biq moves the scaled timings as it moves the
    wall ones, which are recorded as wall_*.  setup_s is wall time: process
    start and imports do not follow the probe.
    """
    host_ms = statistics.median(m["probes_ms"])
    scale = REF_PROBE_MS / host_ms
    ops_ok = m["attempted"] - m["failed"]
    if workload.p50_per_round:
        ms = [1e3 * r / m["round_weight"] for r in m["round_s"]]
    else:
        ms = [1e3 * s for s in m["op_s"]]
    wall = {
        "wall_ops_per_s": ops_ok / m["timed_s"],
        "wall_op_ms_p50": statistics.median(ms),
    }
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": wall["wall_ops_per_s"] / scale,
        "op_ms_p50": wall["wall_op_ms_p50"] * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "op_ms_p90": (scale * statistics.quantiles(ms, n=10)[-1]
                      if len(ms) >= 100 else None),
        "failed_frac": m["failed"] / m["attempted"],
        **wall,
        "host_probe_ms": host_ms,
        "p50_samples": len(ms),
        "setup_samples_s": setup,
        "op_ms_p50_by_label": _p50_by_label(m["labels"], m["op_s"], scale),
    }
    return metrics, extra


def _p50_by_label(labels, op_s, scale):
    """Median ms (scaled like op_ms_p50) and sample count of each kind of op,
    so that an action of the round (say flat_search's dim-24 scan) can be
    followed on its own."""
    by = {}
    for label, s in zip(labels, op_s):
        by.setdefault(label, []).append(1e3 * s * scale)
    return {label: [statistics.median(v), len(v)] for label, v in sorted(by.items())}


def run_workload(name, seed, seconds, tiny=False, recorder=None):
    """Set up and measure one workload in this process (no setup_s)."""
    _import_biq()
    import workloads

    workload = workloads.WORKLOADS[name]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        ops = workload.setup(seed, workdir, tiny)
        return workload, ops, measure(ops, seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _record_line(text):
    for line in text.splitlines():
        if line.startswith("# record "):
            return json.loads(line[len("# record "):])
    return None


def traced_run(name, seed, seconds, tiny):
    """Per-layer metrics: the untraced baseline in a child process, then set-up
    and measurement with every wrapper installed."""
    cmd = _child_cmd("--workload", name, "--seed", seed, "--seconds", seconds,
                     "--trace", 0)
    if tiny:
        cmd.append("--tiny")
    base = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if base.returncode != 0:
        raise BenchError(f"untraced baseline failed: {base.stderr[-2000:]}")
    untraced_ops_per_s = _record_line(base.stdout)["metrics"]["ops_per_s"]["value"]

    _import_biq()
    import spans

    recorder = spans.Recorder()
    recorder.install()
    workload, ops, m = run_workload(name, seed, seconds, tiny, recorder)
    arrays = recorder.arrays()
    RESULTS.mkdir(parents=True, exist_ok=True)
    recorder.save(RESULTS / f"spans-{name}.npz")
    metrics, bases, free_sigma = spans.layer_metrics(arrays, recorder.names,
                                                     m["attempted"])
    # scaled to the reference host speed like the untraced ops_per_s
    traced_ops_per_s = ((m["attempted"] - m["failed"]) / m["timed_s"]
                        * statistics.median(m["probes_ms"]) / REF_PROBE_MS)
    metrics["trace.overhead_frac"] = (
        1.0 - traced_ops_per_s / untraced_ops_per_s if untraced_ops_per_s else 0.0)
    bases["trace.overhead_frac"] = f"{untraced_ops_per_s:.6g} untraced ops/s"
    details = {"spans": len(arrays["start"]), "bases": bases}
    if name == "exact_rank":
        # invariant_factors calls of each free verdict, by op label (|W| today)
        by_label = {}
        for op_id, count in free_sigma.items():
            by_label.setdefault(ops[op_id % len(ops)].label, set()).add(count)
        details["sigma_per_free_verdict_by_op"] = {
            label: sorted(v) for label, v in sorted(by_label.items())}
    return workload, m, metrics, details


def run_one(args):
    facts = machine_facts()
    if args.trace:
        workload, m, metrics, details = traced_run(
            args.workload, args.seed, args.seconds, args.tiny)
        import spans

        units = {k: u for k, (u, _) in spans.per_layer_units().items()}
        extra = {}
    else:
        setup = setup_samples(args.workload, args.seed, args.tiny)
        workload, _, m = run_workload(args.workload, args.seed, args.seconds, args.tiny)
        metrics, extra = end_to_end(workload, m, setup)
        units = dict(END_TO_END)
        details = {}
    return {
        "workload": workload.name,
        "op": workload.op,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "facts": facts,
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "errors": m["errors"],
        "rounds": m["rounds"],
        "timed_s": m["timed_s"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "reported": {k: {"value": v, "unit": REPORTED_ONLY[k]}
                     for k, v in extra.items() if k in REPORTED_ONLY},
        "details": {**details,
                    **{k: v for k, v in extra.items() if k not in REPORTED_ONLY}},
    }


def print_record(rec):
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"rounds {rec['rounds']}  timed {rec['timed_s']:.2f} s  "
          f"attempted {rec['attempted']}  failed {rec['failed']}")
    for err in rec["errors"]:
        print(f"  FAILED {err}")
    bases = rec["details"].get("bases", {})
    for name, mv in {**rec["metrics"], **rec["reported"]}.items():
        value = "n/a (fewer than 100 ops)" if mv["value"] is None else f"{mv['value']:.6g}"
        base = f"  (base {bases[name]})" if name in bases else ""
        print(f"  {name:48s} {value} {mv['unit']}{base}")


def final_line(rec):
    return json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    })


# ---------------------------------------------------------------------------
# all workloads, and compare
# ---------------------------------------------------------------------------

def _benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_all(args):
    bench = _benchmark_json()
    names = [w["name"] for w in bench["workloads"]]
    runs = {name: [] for name in names}
    # round-robin over the workloads, so that a slow spell of a shared host
    # falls on every workload alike instead of on whichever ran during it
    for r in range(args.runs):
        for name in names:
            cmd = _child_cmd("--workload", name, "--seed", args.seed + r,
                             "--seconds", args.seconds, "--trace", args.trace)
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=2 * CHILD_TIMEOUT_S)
            rec = _record_line(proc.stdout)
            if proc.returncode != 0 or rec is None:
                raise BenchError(f"{name} run failed: {proc.stderr[-2000:]}")
            runs[name].append(rec)
            shown = {**rec["metrics"], **rec["reported"]}
            print(f"{name:12s} seed {rec['seed']:<6d} " + "  ".join(
                f"{k} {'n/a' if v['value'] is None else format(v['value'], '.4g')} {v['unit']}"
                for k, v in shown.items()), flush=True)
    out = {"benchmark": bench, "facts": runs[names[0]][0]["facts"], "workloads": {
        name: {"op": rs[0]["op"], "why": rs[0]["why"], "runs": rs}
        for name, rs in runs.items()}}
    path = Path(args.out) if args.out else RESULTS / "all.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1))
    print(f"wrote {path}")


def spread(values):
    """Interquartile distance as a share of the median (None below 2 runs)."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else None


def compare(old_path, new_path):
    bench = _benchmark_json()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    better_of = {m["name"]: m["better"] for m in bench["per_layer"]}
    old = json.loads(Path(old_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    print(f"{'workload':12s} {'metric':48s} {'old':>11s} {'new':>11s} "
          f"{'new/old':>8s} {'spread':>13s}  verdict")
    for name in [w for w in old if w in new]:
        o_runs, n_runs = old[name]["runs"], new[name]["runs"]
        for metric in o_runs[0]["metrics"]:
            ov = [r["metrics"][metric]["value"] for r in o_runs if metric in r["metrics"]]
            nv = [r["metrics"][metric]["value"] for r in n_runs if metric in r["metrics"]]
            if not ov or not nv:
                continue
            om, nm = statistics.median(ov), statistics.median(nv)
            ratio = nm / om if om else float("nan")
            so, sn = spread(ov), spread(nv)
            verdict = ""
            if metric in bounds:
                bound, better = bounds[metric]
                lower = better == "lower"
                worse = (nm > om * (1 + bound)) if lower else (nm < om * (1 - bound))
                all_better = (max(nv) < min(ov)) if lower else (min(nv) > max(ov))
                if (so is None or sn is None or so > bound or sn > bound) \
                        and not all_better:
                    verdict = "unresolved"
                elif worse:
                    verdict = "WORSE"
                elif all_better:
                    verdict = "better"
                else:
                    verdict = "within bound"
            elif metric in better_of:
                verdict = f"({better_of[metric]} is better)"
            fmt = lambda s: "-" if s is None else f"{s:.3f}"  # noqa: E731
            print(f"{name:12s} {metric:48s} {om:11.5g} {nm:11.5g} {ratio:8.3f} "
                  f"{fmt(so):>6s}/{fmt(sn):<6s}  {verdict}")
        # how much the host itself moved between the two files; the op
        # timings above are already scaled by it
        probes = [[r["reported"]["host_probe_ms"]["value"] for r in runs
                   if "host_probe_ms" in r.get("reported", {})]
                  for runs in (o_runs, n_runs)]
        if all(probes):
            om, nm = map(statistics.median, probes)
            print(f"{name:12s} {'host_probe_ms (no biq code; not gated)':48s} "
                  f"{om:11.5g} {nm:11.5g} {nm / om:8.3f}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1, help="runs per workload with 'all'")
    p.add_argument("--out", help="write the records of 'all' to this file")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.compare:
            compare(*args.compare)
            return 0
        _import_biq()
        if args.workload == "all":
            run_all(args)
            return 0
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from "
                             + ", ".join(workloads.WORKLOADS) + " or all")
        if args.setup_only:
            WORK.mkdir(parents=True, exist_ok=True)
            workdir = tempfile.mkdtemp(dir=WORK)
            try:
                workloads.WORKLOADS[args.workload].setup(args.seed, workdir, args.tiny)
                print("ready", flush=True)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            return 0
        rec = run_one(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_record(rec)
    print("# record " + json.dumps(rec))
    print(final_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
