"""The four benchmark workloads.

Each workload builds a fixed list of ops (one *pass*) in its constructor;
that is the set-up the benchmark times as ``setup_s``.  ``run(op)`` is the
timed user-level call and ``check(op, out)`` verifies its output and
returns the op's payoff, raising ``CheckFailed`` when a check does not
hold.  Every public name is reached through its defining module (for
example ``pricing.solve_general``), so the wrappers of a traced run see the
benchmark's own calls as well as the library's internal ones.

Instance pools are fixed per workload so that run-to-run spread measures
the code and the machine rather than the draw of instances; ``--seed``
sets the order in which a pass issues its ops.
"""

import contextlib
import io
import os
import shutil
import tempfile

import numpy as np

from resistive_pricing import cli, extended, fileio, ingest, pricing, selection

MODULES = {"cli": cli, "extended": extended, "fileio": fileio,
           "ingest": ingest, "pricing": pricing, "selection": selection}


class CheckFailed(AssertionError):
    pass


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _location_candidates(net, catalog):
    return [selection.location_candidate(net, k, catalog.location_based[k])
            for k in sorted(catalog.location_based)]


class Workload:
    tracer = None
    # called between the steps of a long op, so that host-speed calibration
    # can sample inside it (set by the runner while it measures)
    checkpoint = None


class PricingCapped(Workload):
    """Commuter N=60: one op is delta then solve_general for one candidate.

    At N=60 about 40 caps bind per candidate, so each solve runs about 40
    active-set iterations, each rebuilding the electrical model.
    """

    INSTANCE_SEEDS = (0, 1)

    def __init__(self, seed, workdir):
        self.ops = []
        for s in self.INSTANCE_SEEDS:
            net, catalog = ingest.synth_instance(60, 0.3, seed=s,
                                                 profile="commuter")
            self.ops += [(net, a) for a in _location_candidates(net, catalog)]

    def run(self, op):
        net, a = op
        return selection.delta(net, a), pricing.solve_general(net, a)

    def check(self, op, out):
        bound, sol = out
        if not sol.kkt_residual < 1e-8:
            raise CheckFailed(f"kkt_residual {sol.kkt_residual:.3e}")
        if not _close(sol.payoff, 2.0 * sol.consumer_surplus, 1e-8):
            raise CheckFailed(f"payoff {sol.payoff!r} != 2 x consumer surplus "
                              f"{sol.consumer_surplus!r}")
        if not bound >= sol.payoff - 1e-9:
            raise CheckFailed(f"delta {bound!r} below payoff {sol.payoff!r}")
        return sol.payoff


class Extended(Workload):
    """Criterion-9 extended solves: commuter N=15, psi = 0.5 x total
    vehicle mass, eta = 0.8, c = 0.6, one op per location candidate, with
    criterion 9's per-candidate ``SeedSequence(seed).spawn`` solver seeds.
    """

    def __init__(self, demand, instance_seeds):
        self.demand = demand
        self.ops = []
        for s in instance_seeds:
            net, catalog = ingest.synth_instance(15, 0.3, seed=s,
                                                 profile="commuter")
            total = float((net.arc_demand * net.arc_time).sum())
            params = extended.ExtendedParams(eta=0.8, psi=0.5 * total,
                                             demand=demand)
            vectors = _location_candidates(net, catalog)
            children = np.random.SeedSequence(s).spawn(len(vectors) + 1)
            self.ops += [(net, a, params, child)
                         for a, child in zip(vectors, children)]

    def run(self, op):
        net, a, params, child = op
        return extended.solve_extended(net, a, params, seed=child)

    def check(self, op, sol):
        net, a, params, _ = op
        try:
            ref = extended.payoff_extended(net, a, params, sol.prices,
                                           sol.empty_flows)
        except extended.InfeasiblePoint as exc:
            raise CheckFailed(f"infeasible answer: {exc}") from exc
        if not _close(ref, sol.payoff, 1e-7):
            raise CheckFailed(f"payoff {sol.payoff!r} but the point is worth "
                              f"{ref!r}")
        if self.demand.kind == "uniform" and sol.local_only:
            raise CheckFailed("uniform solve not certified global")
        return sol.payoff


class ExtendedUniform(Extended):
    INSTANCE_SEEDS = range(4)

    def __init__(self, seed, workdir):
        super().__init__(extended.DemandModel.uniform(), self.INSTANCE_SEEDS)


class ExtendedExp(Extended):
    # all 300 exponential solves of criterion 9, outliers included
    INSTANCE_SEEDS = range(20)

    def __init__(self, seed, workdir):
        super().__init__(extended.DemandModel.exponential(2.0),
                         self.INSTANCE_SEEDS)


# README's ingest example: bbox lat0,lat1,lon0,lon1 and a 07:00-09:00 window
BBOX = (30.65, 30.69, 104.03, 104.08)
WINDOW = (25200.0, 32400.0)
SLOT_SECONDS = 600.0
RIDES = 20000
HOTSPOTS = 15
SMALL_INSTANCE_SEED = 7
RIDE_MODEL_SEED = 7
RIDE_SEED = 0


def write_rides(path, rng):
    """Synthetic rides between hotspots, all inside BBOX and WINDOW.

    The ride model is fixed: 15 hotspots on a jittered grid about 1 km
    apart, joined like ``synth_instance(15, 0.3)`` (a random spanning tree
    plus random pairs up to 30% of all pairs), each direction with its own
    ride rate.  ``rng`` draws the rides from it.  Endpoints scatter about
    100 m around their hotspot.  Returns the total ride time in slots.
    """
    model = np.random.default_rng(RIDE_MODEL_SEED)
    lat0, lat1, lon0, lon1 = BBOX
    grid = np.stack(np.meshgrid(np.linspace(lat0 + 0.007, lat1 - 0.007, 3),
                                np.linspace(lon0 + 0.006, lon1 - 0.006, 5),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    centre = grid + model.uniform(-0.001, 0.001, size=grid.shape)
    order = model.permutation(HOTSPOTS)
    pairs = {tuple(sorted((int(order[i]), int(order[model.integers(i)]))))
             for i in range(1, HOTSPOTS)}
    every = [(i, j) for i in range(HOTSPOTS) for j in range(i + 1, HOTSPOTS)]
    for k in model.permutation(len(every)):
        if len(pairs) >= round(0.3 * len(every)):
            break
        pairs.add(every[k])
    routes = np.array([p for i, j in sorted(pairs) for p in ((i, j), (j, i))])
    rate = model.uniform(0.3, 1.0, len(routes))

    chosen = routes[rng.choice(len(routes), size=RIDES, p=rate / rate.sum())]
    src, dst = chosen[:, 0], chosen[:, 1]
    jitter = 0.0009
    pick = centre[src] + rng.normal(0.0, jitter, size=(RIDES, 2))
    drop = centre[dst] + rng.normal(0.0, jitter, size=(RIDES, 2))
    lo, hi = np.array([lat0, lon0]), np.array([lat1, lon1])
    pick = np.clip(pick, lo, hi)
    drop = np.clip(drop, lo, hi)
    metres = np.hypot((pick[:, 0] - drop[:, 0]) * 111_000.0,
                      (pick[:, 1] - drop[:, 1]) * 96_000.0)
    duration = 120.0 + metres / 7.0 + rng.exponential(60.0, size=RIDES)
    start = rng.uniform(WINDOW[0], WINDOW[1] - duration)
    end = start + duration
    with open(path, "w") as fh:
        fh.write("pickup_time,dropoff_time,pickup_lon,pickup_lat,"
                 "dropoff_lon,dropoff_lat\n")
        for row in zip(start, end, pick[:, 1], pick[:, 0],
                       drop[:, 1], drop[:, 0]):
            fh.write("%.1f,%.1f,%.6f,%.6f,%.6f,%.6f\n" % row)
    return float(duration.sum() / SLOT_SECONDS)


class CliPipeline(Workload):
    """One op is one job of seven commands through ``cli.main``.

    ingest on a fixed ride file, then price, report, dump-electrical and
    price-extended (exp:2) on the ingested network, then select and a
    4-point uniform sweep-psi on a small synthetic network (N=10).  A pass
    is one job; every job's output files must match, byte for byte, those
    of the run's first job.
    """

    def __init__(self, seed, workdir):
        self.workdir = workdir
        small, catalog = ingest.synth_instance(
            10, 0.3, seed=SMALL_INSTANCE_SEED, profile="commuter")
        network = os.path.join(workdir, "small.json")
        ads = os.path.join(workdir, "small_ads.json")
        fileio.save_network(network, small)
        fileio.save_advertisers(ads, catalog)
        mass = float((small.arc_demand * small.arc_time).sum())
        grid = ",".join(f"{f * mass:.6g}" for f in (0.25, 0.5, 0.75, 1.0))
        rides = os.path.join(workdir, "rides.csv")
        slots = write_rides(rides, np.random.default_rng(RIDE_SEED))
        s = str(RIDE_SEED)
        # output paths are relative to the job directory
        self.ops = [[
            ["ingest", "--rides", rides,
             "--bbox", ",".join(str(x) for x in BBOX),
             "--window", ",".join(str(x) for x in WINDOW),
             "--k", str(HOTSPOTS), "--slot-seconds", str(SLOT_SECONDS),
             "--cost", "0.6", "--seed", s, "--out", "net.json"],
            ["price", "--network", "net.json", "--out", "prices.csv"],
            ["report", "prices.csv", "--out-prefix", "series"],
            ["dump-electrical", "--network", "net.json", "--out", "elec"],
            ["price-extended", "--network", "net.json",
             "--psi", f"{0.05 * slots:.6g}", "--eta", "0.8",
             "--demand", "exp:2", "--seed", s, "--out", "ext.csv"],
            ["select", "--network", network, "--advertisers", ads,
             "--mode", "location", "--strategy", "resistance",
             "--seed", s, "--out", "select.csv"],
            ["sweep-psi", "--network", network, "--advertisers", ads,
             "--psi-grid", grid, "--eta", "0.8", "--seed", s,
             "--out", "sweep.csv"],
        ]]
        self.reference = None

    def run(self, commands):
        job = tempfile.mkdtemp(prefix="job-", dir=self.workdir)
        codes = []
        here = os.getcwd()
        sink = io.StringIO()
        os.chdir(job)
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                for argv in commands:
                    span = self.tracer.open(f"cli.{argv[0]}") \
                        if self.tracer else None
                    try:
                        codes.append(cli.main(argv))
                    finally:
                        if span is not None:
                            self.tracer.close(span)
                    if self.checkpoint is not None:
                        self.checkpoint()
        finally:
            os.chdir(here)
        return job, codes, sink.getvalue()

    def check(self, commands, out):
        job, codes, log = out
        try:
            if any(codes):
                raise CheckFailed(f"exit codes {codes}: {log[-500:]}")
            files = {}
            for name in sorted(os.listdir(job)):
                if not name.endswith(".manifest.json"):
                    with open(os.path.join(job, name), "rb") as fh:
                        files[name] = fh.read()
        finally:
            shutil.rmtree(job)
        if self.reference is None:
            self.reference = files, self._payoff(files)
        first, payoff = self.reference
        if files != first:
            changed = sorted(k for k in set(files) | set(first)
                             if files.get(k) != first.get(k))
            raise CheckFailed(f"output differs from the first job: {changed}")
        return payoff

    @staticmethod
    def _payoff(files):
        """Sum of the payoffs the job reports, checking price's identity."""
        def table(name):
            lines = files[name].decode().splitlines()
            rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
            footer = dict(ln[2:].split("=", 1) for ln in lines
                          if ln.startswith("# "))
            return rows, footer

        rows, _ = table("prices.csv")
        payoff = sum(float(r[5]) for r in rows)
        surplus = sum(float(r[6]) for r in rows)
        if not _close(payoff, 2.0 * surplus, 1e-6):
            raise CheckFailed(f"price payoff {payoff!r} != 2 x surplus "
                              f"{surplus!r}")
        _, ext = table("ext.csv")
        if ext.get("local_only") != "1":
            raise CheckFailed("exponential solve not flagged local_only")
        _, sel = table("select.csv")
        sweep, _ = table("sweep.csv")
        return (payoff + float(ext["payoff"]) + float(sel["payoff"])
                + sum(float(r[2]) for r in sweep if r[1] == "optimal"))


WORKLOADS = {
    "pricing-capped": PricingCapped,
    "extended-uniform": ExtendedUniform,
    "extended-exp": ExtendedExp,
    "cli-pipeline": CliPipeline,
}
