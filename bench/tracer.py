"""Outside-in span tracer for the conetest layers.

The tracer wraps every public function of each layer module in every module
namespace that binds it: ``calibrate`` and ``powerlab`` import ``_batch``
names with ``from ._batch import ...``, so patching ``_batch`` alone would
miss their calls.  Metric names drop the leading ``_`` of ``_batch``.  A
span is recorded only when a call crosses into a layer from outside it; a
call from a layer into itself (``g_star_tail`` calling ``g_ratio_tail``
inside its quadrature integrand, ``exact_halfspace_critical_value`` calling
``sup_critical_value``) passes straight through, so spans sit at layer
boundaries and the hot intra-layer calls stay cheap.

The ``worker`` callable passed to ``_batch.run_chunks`` is wrapped too.
Chunks may run on pool threads, so each thread keeps its own parent stack
and a worker span names the ``run_chunks`` span as its parent explicitly.

Spans stay in memory; :func:`layer_metrics` derives self times and counts
from them when a pass ends, and :func:`write_spans` writes them out when the
run ends.  No code under ``src/`` changes.
"""

import itertools
import json
import sys
import threading
import time
import types

PACKAGE = "conetest"
LAYERS = ("cli", "sample", "cones", "stats", "dist", "calibrate", "_batch", "powerlab")


def label(module_name):
    """Metric prefix of a layer module: its last name part, leading ``_`` dropped."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")

CV_FUNCTIONS = (
    "calibrate.sup_critical_value",
    "calibrate.exact_halfspace_critical_value",
    "calibrate.bayes_critical_value",
)
TAIL_FUNCTIONS = ("dist.g_star_tail", "dist.g_ratio_tail")


class Span:
    __slots__ = ("id", "parent", "name", "layer", "t0", "t1", "attrs")

    def __init__(self, id_, parent, name, layer, attrs):
        self.id = id_
        self.parent = parent
        self.name = name
        self.layer = layer
        self.attrs = attrs
        self.t0 = self.t1 = 0.0


def _shape_attrs(name, args, kwargs):
    """Work counts recorded at the call boundary (no references are kept)."""
    if name in ("batch.batch_orthant", "batch.batch_active_sizes_fixed_cov"):
        draws, p = args[0].shape
        return {"draws": int(draws), "p": int(p)}
    if name == "batch.sample_mean_cov":
        n = args[3] if len(args) > 3 else kwargs["n"]
        reps = args[4] if len(args) > 4 else kwargs["reps"]
        return {"draws": int(reps), "rows": int(reps) * int(n)}
    if name == "batch.run_chunks":
        workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
        return {"workers": int(workers)}
    return None


class Tracer:
    """Patch the layer functions of an imported ``conetest`` package."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name, layer, parent, attrs):
        span = Span(next(self._ids), parent, name, layer, attrs)
        self._stack().append(span)
        span.t0 = time.perf_counter()
        return span

    def _exit(self, span):
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, layer, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            span = tracer._enter(
                name, layer, stack[-1].id if stack else None,
                _shape_attrs(name, args, kwargs),
            )
            if name == "batch.run_chunks":
                args = (tracer._wrap_worker(args[0], span.id),) + tuple(args[1:])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(span)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def _wrap_worker(self, worker, parent_id):
        layer = label(worker.__module__)
        tracer = self

        def traced_worker(i):
            span = tracer._enter(f"{layer}.worker", layer, parent_id, None)
            try:
                return worker(i)
            finally:
                tracer._exit(span)

        return traced_worker

    def install(self):
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if (name == PACKAGE or name.startswith(PACKAGE + "."))
            and isinstance(mod, types.ModuleType)
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            prefix = label(layer)
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(prefix, f"{prefix}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def take_spans(self):
        spans, self.spans = self.spans, []
        return spans


def write_spans(spans, path):
    """Write spans as JSON lines, times in seconds from the first span's start."""
    origin = min((s.t0 for s in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "parent": s.parent, "name": s.name, "layer": s.layer,
                "start": s.t0 - origin, "end": s.t1 - origin, "attrs": s.attrs,
            }) + "\n")
    return str(path)


def _covered(t0, t1, intervals):
    """Length of ``[t0, t1]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, t0), min(hi, t1)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {
        s.id: (s.t1 - s.t0) - _covered(s.t0, s.t1, children.get(s.id, ()))
        for s in spans
    }


def _ancestor_names(spans):
    by_id = {s.id: s for s in spans}
    out = {}
    for s in spans:
        names = set()
        parent = by_id.get(s.parent)
        while parent is not None:
            names.add(parent.name)
            parent = by_id.get(parent.parent)
        out[s.id] = names
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (counts and seconds)."""
    selfs = self_times(spans)
    layers = [label(layer) for layer in LAYERS]
    calls, fn_self, fn_dur, layer_self = {}, {}, {}, dict.fromkeys(layers, 0.0)
    attrs = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        fn_self[s.name] = fn_self.get(s.name, 0.0) + selfs[s.id]
        fn_dur[s.name] = fn_dur.get(s.name, 0.0) + (s.t1 - s.t0)
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + selfs[s.id]
        for k, v in (s.attrs or {}).items():
            if k != "p" and k != "workers":
                key = f"{s.name}.{k}"
                attrs[key] = attrs.get(key, 0) + v

    m = {f"{layer}.self_s": layer_self[layer] for layer in layers}
    busy = sum(layer_self.values())
    m.update(
        {f"{layer}.self_share": (layer_self[layer] / busy if busy else 0.0) for layer in layers}
    )
    for name in (
        "cli.main", "sample.summarize", "cones.project", "dist.g_star_tail",
        "dist.g_ratio_tail", "calibrate.sup_critical_value", "calibrate.bayes_weights_b1",
        "calibrate.chi_bar_weights", "powerlab.simulate_power",
        "powerlab.domination_experiment",
    ):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "cli.main", "sample.summarize", "cones.project", "dist.g_star_tail",
        "dist.g_ratio_tail", "dist.student_t_upper_quantile",
        "calibrate.sup_critical_value", "calibrate.bayes_critical_value",
        "calibrate.bayes_weights_b1", "calibrate.chi_bar_weights",
        "batch.batch_orthant", "batch.batch_active_sizes_fixed_cov",
        "batch.sample_mean_cov", "batch.sample_invwishart_chol",
        "batch.batch_halfspace", "batch.batch_fuit_max_t",
        "powerlab.simulate_power", "powerlab.domination_experiment",
    ):
        m[f"{name}.self_s"] = fn_self.get(name, 0.0)
    g_calls = calls.get("dist.g_star_tail", 0)
    m["dist.g_star_tail.mean_us"] = (
        1e6 * fn_dur.get("dist.g_star_tail", 0.0) / g_calls if g_calls else 0.0
    )
    for key in (
        "batch.batch_orthant.draws", "batch.batch_active_sizes_fixed_cov.draws",
        "batch.sample_mean_cov.draws", "batch.sample_mean_cov.rows",
    ):
        m[key] = attrs.get(key, 0)

    by_p = {}
    for s in spans:
        if s.name == "batch.batch_orthant":
            draws, secs = by_p.get(s.attrs["p"], (0, 0.0))
            by_p[s.attrs["p"]] = (draws + s.attrs["draws"], secs + selfs[s.id])
    for p in sorted(set(by_p) | {3, 5, 6, 8}):
        draws, secs = by_p.get(p, (0, 0.0))
        m[f"batch.batch_orthant.p{p}.draws_per_s"] = draws / secs if secs else 0.0

    ancestors = _ancestor_names(spans)
    cv_count = sum(calls.get(name, 0) for name in CV_FUNCTIONS)
    tails_in_cv = sum(
        1
        for s in spans
        if s.name in TAIL_FUNCTIONS and ancestors[s.id].intersection(CV_FUNCTIONS)
    )
    m["calibrate.tail_evals_per_cv"] = tails_in_cv / cv_count if cv_count else 0.0

    by_id = {s.id: s for s in spans}
    workers = [s for s in spans if s.name.endswith(".worker")]
    pools = [s for s in spans if s.name == "batch.run_chunks"]
    m["batch.run_chunks.chunks"] = len(workers)
    capacity = sum(s.attrs["workers"] * (s.t1 - s.t0) for s in pools)
    m["batch.run_chunks.busy_ratio"] = (
        sum(s.t1 - s.t0 for s in workers) / capacity if capacity else 0.0
    )
    m["powerlab.cells"] = sum(
        1
        for s in pools
        if s.parent in by_id and by_id[s.parent].layer == "powerlab"
    )
    return m
