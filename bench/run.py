"""Benchmark of resistive_pricing, driven from outside through its public
functions, one workload per process, closed loop from a single caller.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  BLAS is pinned to one thread before
numpy is imported.  A run builds the workload's ops (one *pass*), then
issues passes back to back and stops at the first pass boundary where
another pass would overrun ``--seconds``; it always completes at least one
pass, so every run measures whole passes of the same ops.  Every op's
output is checked.  Times are scaled to a reference core speed measured
between ops (see ``Calibration``).  The last line of standard output is
the result JSON; the line before it records the environment, the raw
wall-clock times and the run's details.  See README.md.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced passes for half the time, then installs the span wrappers of
``spans.py`` and runs traced passes for the other half; it prints the
per-layer metrics of the traced passes and the difference between the two
halves as tracing overhead, and writes the spans under ``.bench_out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# the sweep pool keeps its default size, at most the core count
os.environ.pop("RESISTIVE_PRICING_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_PROBES = 6
# a run stops issuing ops here even inside its first pass, so that it
# always exits well within three minutes
HARD_CAP_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only build the workload and print its set-up "
                             "time in seconds")
    return parser.parse_args(argv)


def setup_probe_times(args):
    """Set-up time of fresh processes that import and build the workload."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=os.getcwd(), capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Calibration:
    """A fixed numpy-and-Python kernel timed between stretches of work.

    On a shared host the whole core speeds up and slows down by +-30% over
    seconds, for CPU time as much as for wall time.  ``checkpoint`` runs a
    batch of the kernel, once per PERIOD_S of work since the last batch but
    from 3 to 10 times, closing a *segment* of work.  Each segment is scaled
    by REF_KERNEL_MS over the median kernel time of the batches that end
    within one segment length (at least WINDOW_S) of it: a time on a core
    where the kernel takes REF_KERNEL_MS.  Swings of host speed then cancel
    between runs.  The kernel does not touch the library, and its own time
    falls between segments, outside any op.
    """

    PERIOD_S = 0.1
    WINDOW_S = 0.5
    REF_KERNEL_MS = 1.25

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.solve = np.linalg.solve
        self.a = rng.random((30, 30)) + 30.0 * np.eye(30)
        self.b = rng.random(30)
        self.kernel_ms = []
        self.batches = []   # (segment start, segment end, batch after it)
        self.start = time.perf_counter()

    def kernel(self):
        t = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            acc += self.solve(self.a, self.b)[0]
        for i in range(8000):
            acc += i * i
        return (time.perf_counter() - t) * 1e3

    def checkpoint(self, force=False):
        """Close the current segment if it is due (or ``force``)."""
        end = time.perf_counter()
        due = int((end - self.start) / self.PERIOD_S)
        if not due and not force:
            return
        batch = [self.kernel() for _ in range(min(max(due, 3), 10))]
        self.kernel_ms += batch
        self.batches.append((self.start, end, batch))
        self.start = time.perf_counter()

    def segments(self):
        """(start, end, scale) of every closed segment."""
        ends = [end for _, end, _ in self.batches]
        out = []
        for start, end, _ in self.batches:
            reach = max(end - start, self.WINDOW_S)
            near = self.batches[bisect.bisect_left(ends, start - reach):
                                bisect.bisect_right(ends, end + reach)]
            kernel = statistics.median(k for _, _, batch in near for k in batch)
            out.append((start, end, self.REF_KERNEL_MS / kernel))
        return out

    def durations(self, intervals):
        """Raw and scaled seconds of each (start, end), in time order."""
        segs = self.segments()
        out = []
        i = 0
        for t0, t1 in intervals:
            while i < len(segs) and segs[i][1] <= t0:
                i += 1
            raw = scaled = 0.0
            j = i
            while j < len(segs) and segs[j][0] < t1:
                part = min(t1, segs[j][1]) - max(t0, segs[j][0])
                if part > 0:
                    raw += part
                    scaled += part * segs[j][2]
                j += 1
            out.append((raw, scaled))
        return out


class Loop:
    """Closed-loop runner: one caller, the next op when the last returns.

    ``latencies`` and ``wall`` are scaled to the reference core (see
    Calibration); ``raw`` and ``raw_wall`` are wall-clock, without the
    kernel's time.
    """

    def __init__(self, workload, order, calibration):
        self.workload = workload
        self.order = order
        self.calibration = calibration
        self.payoffs = {}
        self.attempted = 0
        self.failures = []
        self.passes = 0
        self.complete = True

    def _issue(self, idx, tracer):
        """Run and check one op; return its (start, end), None on failure."""
        wl = self.workload
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        op = wl.ops[idx]
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:  # an op failure is a result
            self.failures.append(f"op {idx}: {type(exc).__name__}: {exc}")
            return None
        t1 = time.perf_counter()
        try:
            payoff = wl.check(op, out)
            first = self.payoffs.setdefault(idx, payoff)
            if payoff != first:
                raise AssertionError(f"payoff {payoff!r} differs from the "
                                     f"first pass {first!r}")
        except AssertionError as exc:
            self.failures.append(f"op {idx}: check: {exc}")
            return None
        return t0, t1

    def run(self, budget_s, cap_s, tracer=None):
        cal = self.calibration
        self.workload.checkpoint = cal.checkpoint
        ops = []
        start = cal.start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for idx in self.order:
                if time.perf_counter() - start > cap_s:
                    self.complete = False
                    break
                span = self._issue(idx, tracer)
                if span is not None:
                    ops.append(span)
                cal.checkpoint()
            if not self.complete:
                break
            self.passes += 1
            now = time.perf_counter()
            # the next pass would end past the budget
            if now - start + (now - pass_start) > budget_s:
                break
        cal.checkpoint(force=True)
        self.workload.checkpoint = None
        measured = cal.durations(ops)
        self.raw = [r * 1e3 for r, _ in measured]
        self.latencies = [s * 1e3 for _, s in measured]
        segs = cal.segments()
        self.raw_wall = sum(end - start for start, end, _ in segs)
        self.wall = sum((end - start) * f for start, end, f in segs)
        self.scale = self.wall / self.raw_wall if self.raw_wall else 1.0
        return self

    def p50(self):
        return statistics.median(self.latencies) if self.latencies else 0.0


def tail(latencies, ops_per_pass):
    """Highest percentile with at least 10 samples beyond it in one pass.

    The percentile is fixed by the pass size, so runs with different pass
    counts report the same percentile.  A pass of fewer than 11 ops has no
    such percentile; the maximum is reported then.
    """
    ordered = sorted(latencies)
    if ops_per_pass < 11:
        return ordered[-1], 100.0
    pct = 100.0 * (ops_per_pass - 10) / ops_per_pass
    rank = max(1, -(-len(ordered) * (ops_per_pass - 10) // ops_per_pass))
    return ordered[rank - 1], pct


def environment(cli):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except Exception as exc:  # numpy without a config dict
        blas = {"error": repr(exc)}
    pool = getattr(cli, "_pool_size", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "sweep_pool_size": pool() if pool else None,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "resistive_pricing").is_dir():
        print(f"no library under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    import workloads
    import spans
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_own = time.perf_counter() - T0
        if args.setup_probe:
            print(repr(setup_own))
            return 0
        return measure(args, wl, setup_own, workloads, spans, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, setup_own, workloads, spans, out_dir):
    import numpy as np
    # set-up is scaled like the ops, by kernels timed around the probes
    cal = Calibration(np)
    around = [cal.kernel() for _ in range(5)]
    setup_samples = [setup_own] + setup_probe_times(args)
    around += [cal.kernel() for _ in range(5)]
    setup_scale = Calibration.REF_KERNEL_MS / statistics.median(around)
    order = np.random.default_rng(args.seed).permutation(len(wl.ops)).tolist()
    n_pass = len(wl.ops)

    def loop(budget, cap, tracer=None):
        return Loop(wl, order, Calibration(np)).run(budget, cap, tracer)

    if args.trace:
        plain = loop(args.seconds / 2, HARD_CAP_S / 2)
        tracer = spans.Tracer()
        tracer.install(workloads.MODULES)
        wl.tracer = tracer
        main_loop = loop(args.seconds / 2, HARD_CAP_S / 2, tracer)
        wl.tracer = None
        loops = [plain, main_loop]
    else:
        main_loop = loop(args.seconds, HARD_CAP_S)
        loops = [main_loop]

    attempted = sum(lp.attempted for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    complete = all(lp.complete and lp.passes for lp in loops)
    lat = main_loop.latencies
    tail_ms, tail_pct = tail(lat, n_pass) if lat else (0.0, None)
    raw_tail_ms = tail(main_loop.raw, n_pass)[0] if lat else 0.0
    p50_ms = main_loop.p50()
    payoff_sum = sum(loops[0].payoffs[i] for i in sorted(loops[0].payoffs))
    kernel_ms = main_loop.calibration.kernel_ms

    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(workloads.cli),
        "ops_per_pass": n_pass, "passes": main_loop.passes,
        "ops_measured": len(lat),
        "speed_scale": main_loop.scale,
        "kernel_ms_mean": statistics.fmean(kernel_ms),
        "kernel_runs": len(kernel_ms),
        "raw_wall_s": main_loop.raw_wall,
        "raw_op_p50_ms": statistics.median(main_loop.raw) if lat else 0.0,
        "raw_op_tail_ms": raw_tail_ms,
        "raw_ops_per_s": len(lat) / main_loop.raw_wall,
        "op_tail_pct": tail_pct,
        "op_tail_samples_beyond": sum(1 for x in lat if x > tail_ms),
        "failed_frac": metric(len(failures) / max(attempted, 1), "ratio"),
        "failures": failures[:10],
        "raw_setup_samples_s": setup_samples,
        "setup_scale": setup_scale,
        "passes_complete": complete,
    }

    if args.trace:
        metrics = spans.layer_metrics(tracer, max(main_loop.passes, 1),
                                      sum(main_loop.raw), n_pass,
                                      main_loop.scale)
        plain_p50 = plain.p50()
        metrics["trace.untraced_op_p50_ms"] = metric(plain_p50, "ms")
        metrics["trace.traced_op_p50_ms"] = metric(p50_ms, "ms")
        metrics["trace.overhead_frac"] = metric(
            p50_ms / plain_p50 - 1.0 if plain_p50 else 0.0, "ratio")
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_file)
        info["spans_file"] = str(spans_file.relative_to(Path.cwd()))
    else:
        metrics = {
            "op_p50_ms": metric(p50_ms, "ms"),
            "op_tail_ms": metric(tail_ms, "ms"),
            "ops_per_s": metric(len(lat) / main_loop.wall, "1/s"),
            "setup_s": metric(statistics.median(setup_samples) * setup_scale,
                              "s"),
            "payoff_sum": metric(payoff_sum, "payoff"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }

    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures and complete,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
