"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

Only the traced process calls :meth:`Recorder.install`; untraced runs import
nothing from here.  ``install`` replaces each public function listed in
:data:`WRAPPED` by a wrapper, in its defining module and in every biq module
that bound the same object under any name, so a call through
``catalog.is_free_exact`` is traced like one through ``freeness.is_free_exact``.
Methods are wrapped on their class.

A span holds a name, start, end, parent span and op id, kept in flat arrays
while the run lasts and written out once at the end.  Spans opened during
set-up carry op id -1, spans opened while checking an op's output carry -2;
the per-op metrics use only the spans of timed ops.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

SETUP_OP = -1
CHECK_OP = -2

# outcome codes stored with a span
NO_OUTCOME, FALSE, TRUE, HYPOTHESIS_FAIL, SEARCH_FAIL = -1, 0, 1, 2, 3

MODULES = ("algebra", "metric", "curvature", "biquotient", "freeness",
           "intlattice", "detectors", "catalog", "cli")


def _criterion_outcome(result, kwargs, exc):
    if result is not None:
        return TRUE
    if exc is not None and type(exc).__name__ == "HypothesisError":
        return HYPOTHESIS_FAIL
    diag = kwargs.get("diagnostics") or {}
    if "hypothesis" in diag:
        return HYPOTHESIS_FAIL
    if "search" in diag:
        return SEARCH_FAIL
    return FALSE


def _search_outcome(result, kwargs, exc):
    return TRUE if result is not None and result.certificate == "numeric" else FALSE


def _verdict_outcome(result, kwargs, exc):
    return TRUE if result is not None and result.free else FALSE


#: (metric name, defining module, attribute path, outcome classifier)
WRAPPED = (
    ("algebra.bracket", "algebra", "bracket", None),
    ("algebra.to_coords", "algebra", "RootDecomposition.to_coords", None),
    ("algebra.from_coords", "algebra", "RootDecomposition.from_coords", None),
    ("algebra.root_decomposition", "algebra", "root_decomposition", None),
    ("metric.L_tensor", "metric", "L_tensor", None),
    ("metric.apply_P", "metric", "apply_P", None),
    ("curvature.puttmann_numerator", "curvature", "puttmann_numerator", None),
    ("biquotient.quotient_sectional", "biquotient", "quotient_sectional", None),
    ("biquotient.z_term", "biquotient", "z_term", None),
    ("biquotient.PointFrame.at", "biquotient", "PointFrame.at", None),
    ("biquotient.horizontal_space", "biquotient", "horizontal_space", None),
    ("detectors.numeric_flat_search", "detectors", "numeric_flat_search", _search_outcome),
    ("detectors.check_N1", "detectors", "check_N1", _criterion_outcome),
    ("detectors.check_N2", "detectors", "check_N2", _criterion_outcome),
    ("detectors.check_N3", "detectors", "check_N3", _criterion_outcome),
    ("detectors.find_balanced_point", "detectors", "find_balanced_point", None),
    ("detectors.example4_abelian_pair", "detectors", "example4_abelian_pair", None),
    ("freeness.is_free_exact", "freeness", "is_free_exact", _verdict_outcome),
    # construction runs an SNF; the generated __init__ looks __post_init__ up
    # on the class, so every construction is traced whatever name it used
    ("freeness.TorusActionWeights", "freeness", "TorusActionWeights.__post_init__", None),
    ("intlattice.invariant_factors", "intlattice", "invariant_factors", None),
    ("intlattice.smith_normal_form", "intlattice", "smith_normal_form", None),
    ("intlattice.kernel_generators", "intlattice", "kernel_generators", None),
    ("intlattice.hnf_columns", "intlattice", "hnf_columns", None),
    ("intlattice.saturate_columns", "intlattice", "saturate_columns", None),
    ("catalog.lattice_canonical_key", "catalog", "lattice_canonical_key", None),
    ("catalog.scan_two_torus_su3", "catalog", "scan_two_torus_su3", None),
    ("catalog.scan_two_torus_sp2", "catalog", "scan_two_torus_sp2", None),
    ("cli.cmd_scan", "cli", "cmd_scan", None),
)

#: derived per-layer metrics: name -> (unit, better, what the base counts)
DERIVED = {
    "detectors.planes_per_search": ("planes/search", "lower", "numeric_flat_search calls"),
    "detectors.search_flat_frac": ("fraction", "higher", "numeric_flat_search calls"),
    "detectors.check_N1.yield": ("fraction", "higher", "check_N1 attempts"),
    "detectors.check_N2.yield": ("fraction", "higher", "check_N2 attempts"),
    "detectors.check_N3.yield": ("fraction", "higher", "check_N3 attempts"),
    "detectors.hypothesis_fail_frac": ("fraction", "lower", "criterion attempts"),
    "detectors.search_fail_frac": ("fraction", "lower", "criterion attempts"),
    "biquotient.frames_per_op": ("frames/op", "lower", "ops"),
    "freeness.sigma_per_verdict": ("sigma/verdict", "lower", "is_free_exact verdicts"),
    "freeness.sigma_per_free_verdict": ("sigma/verdict", "lower", "free verdicts"),
    "freeness.free_frac": ("fraction", "higher", "is_free_exact verdicts"),
    "catalog.hnf_per_key": ("hnf/key", "lower", "lattice_canonical_key calls"),
    "catalog.scan_two_torus_su3.hnf_per_key": ("hnf/key", "lower", "keys in SU(3) scans"),
    "catalog.scan_two_torus_sp2.hnf_per_key": ("hnf/key", "lower", "keys in Sp(2) scans"),
    "catalog.confirm_rejects_frac": ("fraction", "lower", "is_free_exact calls in scans"),
    "algebra.root_decomposition.setup_self_s": ("s", "lower", "set-up calls"),
    "trace.overhead_frac": ("fraction", "lower", "untraced ops_per_s"),
}


def per_layer_units():
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    units = {}
    for name, *_ in WRAPPED:
        units[f"{name}.calls"] = ("calls/op", "lower")
        units[f"{name}.self_s"] = ("s/op", "lower")
    for name, (unit, better, _) in DERIVED.items():
        units[name] = (unit, better)
    return units


class Recorder:
    """Spans in flat arrays; ``wrap`` makes a function record one per call."""

    def __init__(self):
        self.names = []  # span name by id
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.outcome = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = SETUP_OP

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.outcome.append(NO_OUTCOME)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, outcome=None):
        nid = self._name_id(name)
        open_, close, outcomes = self._open, self._close, self.outcome

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(idx)
                if outcome is not None:
                    outcomes[idx] = outcome(None, kwargs, exc)
                raise
            close(idx)
            if outcome is not None:
                outcomes[idx] = outcome(result, kwargs, None)
            return result

        return wrapper

    def begin_op(self, op_id):
        self.op_id = op_id
        self._op_span = self._open(self._name_id("op"))

    def end_op(self):
        self._close(self._op_span)
        self.op_id = CHECK_OP

    def install(self):
        """Wrap every function in WRAPPED, wherever biq bound it."""
        modules = [importlib.import_module("biq")]
        modules += [importlib.import_module(f"biq.{m}") for m in MODULES]
        for name, mod, target, outcome in WRAPPED:
            owner = importlib.import_module(f"biq.{mod}")
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, outcome)))
                else:
                    setattr(cls, attr, self.wrap(name, raw, outcome))
                continue
            original = getattr(owner, target)
            wrapper = self.wrap(name, original, outcome)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "outcome": np.frombuffer(self.outcome, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _nearest(parent, is_target):
    """Index of each span's nearest ancestor with is_target, or -1, by
    pointer jumping (a span's parent always has a smaller index)."""
    n = len(parent)
    near = np.full(n, -2, dtype=np.int64)
    jump = parent.astype(np.int64)
    near[jump < 0] = -1
    has = jump >= 0
    hit = np.zeros(n, dtype=bool)
    hit[has] = is_target[jump[has]]
    near[hit] = jump[hit]
    while True:
        todo = np.nonzero(near == -2)[0]
        if todo.size == 0:
            return near
        up = jump[todo]
        resolved = near[up] != -2
        near[todo[resolved]] = near[up[resolved]]
        jump[todo[~resolved]] = jump[up[~resolved]]


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans, names, n_ops):
    """Per-layer metrics from the span arrays of one traced run.

    ``n_ops`` is the op count of the timed ops (a classify scan counts its
    free pairs).  Returns (metrics, bases, free_sigma): metric name -> value;
    for each derived ratio the count it was divided by; and for each timed op
    with a free verdict, its invariant_factors calls under that verdict.
    """
    name_id = {n: i for i, n in enumerate(names)}
    name = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    inner = parent >= 0
    child = np.bincount(parent[inner], weights=dur[inner], minlength=len(name))
    self_t = dur - child
    timed = spans["op"] >= 0
    outcome = spans["outcome"]

    def mask(metric):
        nid = name_id.get(metric, -1)
        return name == nid

    def under(metric):
        """Nearest ancestor named `metric` of each span (-1: none)."""
        return _nearest(parent, mask(metric))

    metrics = {}
    for metric, *_ in WRAPPED:
        m = mask(metric) & timed
        metrics[f"{metric}.calls"] = _ratio(m.sum(), n_ops)
        metrics[f"{metric}.self_s"] = _ratio(self_t[m].sum(), n_ops)

    bases = {}

    def put(metric, num, den):
        metrics[metric] = _ratio(num, den)
        bases[metric] = f"{int(den)} {DERIVED[metric][2]}"

    searches = mask("detectors.numeric_flat_search") & timed
    planes = mask("biquotient.quotient_sectional") & timed
    put("detectors.planes_per_search",
        (planes & (under("detectors.numeric_flat_search") >= 0)).sum(), searches.sum())
    put("detectors.search_flat_frac", (searches & (outcome == TRUE)).sum(), searches.sum())
    attempts = np.zeros_like(timed)
    for crit in ("check_N1", "check_N2", "check_N3"):
        m = mask(f"detectors.{crit}") & timed
        attempts |= m
        put(f"detectors.{crit}.yield", (m & (outcome == TRUE)).sum(), m.sum())
    put("detectors.hypothesis_fail_frac",
        (attempts & (outcome == HYPOTHESIS_FAIL)).sum(), attempts.sum())
    put("detectors.search_fail_frac",
        (attempts & (outcome == SEARCH_FAIL)).sum(), attempts.sum())
    put("biquotient.frames_per_op", (mask("biquotient.PointFrame.at") & timed).sum(), n_ops)

    verdicts = mask("freeness.is_free_exact") & timed
    free = verdicts & (outcome == TRUE)
    verdict_of = under("freeness.is_free_exact")
    sigma = mask("intlattice.invariant_factors") & timed & (verdict_of >= 0)
    put("freeness.sigma_per_verdict", sigma.sum(), verdicts.sum())
    sigma_free = sigma.copy()
    sigma_free[sigma] = outcome[verdict_of[sigma]] == TRUE
    put("freeness.sigma_per_free_verdict", sigma_free.sum(), free.sum())
    free_ops, free_counts = np.unique(spans["op"][sigma_free], return_counts=True)
    put("freeness.free_frac", free.sum(), verdicts.sum())

    keys = mask("catalog.lattice_canonical_key") & timed
    hnf_key = mask("intlattice.hnf_columns") & timed & (under("catalog.lattice_canonical_key") >= 0)
    put("catalog.hnf_per_key", hnf_key.sum(), keys.sum())
    in_scan = np.zeros_like(timed)
    for scan in ("scan_two_torus_su3", "scan_two_torus_sp2"):
        scan_of = under(f"catalog.{scan}") >= 0
        in_scan |= scan_of
        put(f"catalog.{scan}.hnf_per_key", (hnf_key & scan_of).sum(), (keys & scan_of).sum())
    confirms = verdicts & in_scan
    put("catalog.confirm_rejects_frac", (confirms & (outcome == FALSE)).sum(), confirms.sum())

    setup_decs = mask("algebra.root_decomposition") & (spans["op"] == SETUP_OP)
    metrics["algebra.root_decomposition.setup_self_s"] = float(self_t[setup_decs].sum())
    bases["algebra.root_decomposition.setup_self_s"] = (
        f"{int(setup_decs.sum())} {DERIVED['algebra.root_decomposition.setup_self_s'][2]}")
    return metrics, bases, dict(zip(free_ops.tolist(), free_counts.tolist()))
