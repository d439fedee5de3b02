"""Outside-in tracing: spans recorded from wrappers bound over the names
one library module imports from another.

Nothing here is imported by the library.  ``Tracer.install`` replaces
module attributes such as ``resistive_pricing.pricing.build_electrical``
with a wrapper that records a span (name, start, end, parent, op id) and
re-raises whatever the wrapped call raises, so calls that raise are
counted beside calls that return.  A name the library no longer defines
is skipped and its metrics are reported as absent (``null``).
"""

import functools
import json
import os
import statistics
import threading
import time


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "op", "error",
                 "extra")

    def __init__(self, index, name, start, parent, op):
        self.index = index
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.error = None
        self.extra = None

    @property
    def ms(self):
        return (self.end - self.start) * 1e3


def _active_set_size(result, args, kwargs):
    return {"active_set": len(result.active_set)}


def _qp_iterations(result, args, kwargs):
    return {"iterations": int(result.iterations)}


def _written_bytes(result, args, kwargs):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


def _ride_count(result, args, kwargs):
    return {"rides": len(result)}


# (module, attribute, span name, hook reading numbers off the result)
TARGETS = [
    ("pricing", "build_electrical", "electrical.build_electrical", None),
    ("selection", "build_electrical", "electrical.build_electrical", None),
    ("cli", "build_electrical", "electrical.build_electrical", None),
    ("pricing", "solve_general", "pricing.solve_general", _active_set_size),
    ("selection", "solve_general", "pricing.solve_general", _active_set_size),
    ("extended", "solve_general", "pricing.solve_general", _active_set_size),
    ("cli", "solve_general", "pricing.solve_general", _active_set_size),
    ("extended", "solve_closed_form", "pricing.solve_closed_form", None),
    ("cli", "solve_closed_form", "pricing.solve_closed_form", None),
    ("selection", "delta", "selection.delta", None),
    ("cli", "strategy_compare", "selection.strategy_compare", None),
    ("extended", "solve_convex_qp", "qp.solve_convex_qp", _qp_iterations),
    ("extended", "solve_extended", "extended.solve_extended", None),
    ("cli", "solve_extended", "extended.solve_extended", None),
    ("cli", "read_rides_csv", "ingest.read_rides_csv", _ride_count),
    ("cli", "cluster_endpoints", "ingest.cluster_endpoints", None),
    ("cli", "aggregate_network", "ingest.aggregate_network", None),
    ("fileio", "load_network", "fileio.load_network", None),
    ("fileio", "write_csv", "fileio.write_csv", _written_bytes),
    ("fileio", "write_manifest", "fileio.write_manifest", None),
]


class Tracer:
    """Span recorder; one per traced run, spans kept in memory."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.absent = set()
        self.sweep_workers = []
        self._local = threading.local()
        # sweep pool threads open spans too
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(),
                        stack[-1].index if stack else None, self.op)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self.close(span)
            if hook is not None:
                span.extra = hook(result, args, kwargs)
            return result
        return traced

    def install(self, modules):
        """Bind wrappers over every target name that still exists."""
        present = set()
        for mod_name, attr, span_name, hook in TARGETS:
            module = modules.get(mod_name)
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.absent.add(span_name)
                continue
            present.add(span_name)
            setattr(module, attr, self.wrap(span_name, fn, hook))
        # a name is absent only if no module still binds it
        self.absent -= present
        cli = modules.get("cli")
        pool = getattr(cli, "ThreadPoolExecutor", None)
        if pool is None:
            self.absent.add("cli.sweep")
        else:
            def recording_pool(*args, **kwargs):
                executor = pool(*args, **kwargs)
                self.sweep_workers.append(executor._max_workers)
                return executor
            cli.ThreadPoolExecutor = recording_pool

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "i": s.index, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "op": s.op,
                    "error": s.error, "extra": s.extra}) + "\n")


def _self_ms(spans, children):
    total = 0.0
    for s in spans:
        total += s.ms - sum(c.ms for c in children.get(s.index, ()))
    return total


def _p50(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, passes, op_ms_total, ops_per_pass, scale):
    """Per-layer metrics from the spans of ``passes`` identical passes.

    Counts, totals and bytes are per pass, so they repeat exactly between
    runs whatever the pass count; medians and maxima are over every
    traced call.  Stats of a layer that made no call read 0.  Times are
    multiplied by ``scale``, the run's host-speed factor.
    """
    by_name = {}
    children = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def ok(name):
        return [s for s in calls(name) if s.error is None]

    out = {}

    def put(key, value, unit, layer):
        if unit == "ms":
            value *= scale
        elif unit == "1/s":
            value /= scale
        out[key] = {"value": None if layer in tracer.absent else value,
                    "unit": unit}

    def per_pass(x):
        return x / passes

    be = calls("electrical.build_electrical")
    put("electrical.build_electrical.calls", per_pass(len(be)), "count",
        "electrical.build_electrical")
    be_total = sum(s.ms for s in be)
    put("electrical.build_electrical.ms_total", per_pass(be_total), "ms",
        "electrical.build_electrical")
    put("electrical.build_electrical.ms_p50", _p50([s.ms for s in be]), "ms",
        "electrical.build_electrical")
    put("electrical.build_electrical.calls_per_op",
        len(be) / (passes * ops_per_pass), "count",
        "electrical.build_electrical")
    put("electrical.build_electrical.wall_share",
        be_total / op_ms_total if op_ms_total else 0.0, "ratio",
        "electrical.build_electrical")

    sg = calls("pricing.solve_general")
    sg_ms = [s.ms for s in sg]
    layer = "pricing.solve_general"
    put("pricing.solve_general.calls", per_pass(len(sg)), "count", layer)
    put("pricing.solve_general.ms_p50", _p50(sg_ms), "ms", layer)
    put("pricing.solve_general.ms_max", max(sg_ms, default=0.0), "ms", layer)
    put("pricing.solve_general.self_ms",
        per_pass(_self_ms(sg, children)), "ms", layer)
    iters = [sum(1 for c in children.get(s.index, ())
                 if c.name == "electrical.build_electrical") for s in sg]
    put("pricing.solve_general.iterations_mean",
        statistics.fmean(iters) if iters else 0.0, "count", layer)
    active = [s.extra["active_set"] for s in sg if s.extra]
    put("pricing.solve_general.active_set_mean",
        statistics.fmean(active) if active else 0.0, "count", layer)
    put("pricing.no_convergence",
        per_pass(sum(1 for s in sg if s.error == "NoConvergence")),
        "count", layer)

    cf = calls("pricing.solve_closed_form")
    layer = "pricing.solve_closed_form"
    put("pricing.solve_closed_form.calls", per_pass(len(cf)), "count", layer)
    put("pricing.solve_closed_form.hit_ratio",
        len(ok(layer)) / len(cf) if cf else 0.0, "ratio", layer)

    dl = calls("selection.delta")
    put("selection.delta.calls", per_pass(len(dl)), "count", "selection.delta")
    put("selection.delta.ms_total", per_pass(sum(s.ms for s in dl)), "ms",
        "selection.delta")
    put("selection.strategy_compare.ms_p50",
        _p50([s.ms for s in calls("selection.strategy_compare")]), "ms",
        "selection.strategy_compare")

    qp = calls("qp.solve_convex_qp")
    layer = "qp.solve_convex_qp"
    qp_iters = [s.extra["iterations"] for s in qp if s.extra]
    qp_total = sum(s.ms for s in qp)
    put("qp.solve_convex_qp.calls", per_pass(len(qp)), "count", layer)
    put("qp.solve_convex_qp.ms_p50", _p50([s.ms for s in qp]), "ms", layer)
    put("qp.solve_convex_qp.iterations_p50", _p50(qp_iters), "count", layer)
    put("qp.solve_convex_qp.iterations_max", max(qp_iters, default=0),
        "count", layer)
    put("qp.solve_convex_qp.iterations_total", per_pass(sum(qp_iters)),
        "count", layer)
    put("qp.solve_convex_qp.ms_per_iteration",
        sum(s.ms for s in qp if s.extra) / sum(qp_iters) if qp_iters else 0.0,
        "ms", layer)
    put("qp.solve_convex_qp.wall_share",
        qp_total / op_ms_total if op_ms_total else 0.0, "ratio", layer)
    put("qp.no_convergence",
        per_pass(sum(1 for s in qp if s.error == "QPNoConvergence")),
        "count", layer)

    se = calls("extended.solve_extended")
    layer = "extended.solve_extended"
    se_ms = [s.ms for s in se]
    se_p50 = _p50(se_ms)
    put("extended.solve_extended.ms_p50", se_p50, "ms", layer)
    put("extended.solve_extended.ms_max", max(se_ms, default=0.0), "ms", layer)
    put("extended.solve_extended.max_over_p50",
        max(se_ms) / se_p50 if se_ms else 0.0, "ratio", layer)
    put("extended.solve_extended.self_ms", per_pass(_self_ms(se, children)),
        "ms", layer)
    put("extended.infeasible",
        per_pass(sum(1 for s in se if s.error == "Infeasible")),
        "count", layer)

    ingest_ms = 0.0
    for fn in ("read_rides_csv", "cluster_endpoints", "aggregate_network"):
        spans = calls(f"ingest.{fn}")
        ingest_ms += sum(s.ms for s in spans)
        put(f"ingest.{fn}.ms", _p50([s.ms for s in spans]), "ms",
            f"ingest.{fn}")
    rides = sum(s.extra["rides"] for s in calls("ingest.read_rides_csv")
                if s.extra)
    put("ingest.rides_per_s", rides / (ingest_ms / 1e3) if ingest_ms else 0.0,
        "1/s", "ingest.read_rides_csv")

    for fn in ("load_network", "write_csv", "write_manifest"):
        spans = calls(f"fileio.{fn}")
        put(f"fileio.{fn}.calls", per_pass(len(spans)), "count", f"fileio.{fn}")
        put(f"fileio.{fn}.ms_total", per_pass(sum(s.ms for s in spans)), "ms",
            f"fileio.{fn}")
    put("fileio.write_csv.bytes",
        per_pass(sum(s.extra["bytes"] for s in calls("fileio.write_csv")
                     if s.extra)), "bytes", "fileio.write_csv")

    for sub in CLI_SUBCOMMANDS:
        put(f"cli.{sub}.ms_p50", _p50([s.ms for s in calls(f"cli.{sub}")]),
            "ms", f"cli.{sub}")
    put("cli.sweep.workers", max(tracer.sweep_workers, default=0), "count",
        "cli.sweep")
    return out


CLI_SUBCOMMANDS = ("ingest", "price", "report", "dump-electrical",
                   "price-extended", "select", "sweep-psi")
