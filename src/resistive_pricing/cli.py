"""Command-line front end.

Subcommands: price, price-extended, select, ingest, synth, sweep-psi,
sweep-eta, report, dump-electrical.  Every command except ``report``
writes ``<out>.manifest.json`` when it succeeds; :func:`main` builds it
from the parsed arguments: every option but the seed as a parameter (the
sweeps record their resolved grid under ``psi_grid`` or ``eta_grid``),
the seed, and the SHA-256 of each input file given.  Re-running a command
with the same manifest reproduces byte-identical CSV output.  Exit codes:
0 success, 2 usage or validation error or a file that cannot be read or
written, 3 solver non-convergence.
"""

import argparse
import functools
import math
import sys
import time
# bench/spans.py wraps this name; the sweeps no longer call it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from . import fileio
from .electrical import build_electrical, value_vector
from .extended import (
    DemandModel,
    ExtendedParams,
    Infeasible,
    solve_extended,
)
from .fileio import MalformedInput, fmt
from .ingest import (
    aggregate_network,
    cluster_endpoints,
    filter_rides,
    read_rides_csv,
    synth_instance,
)
from .pricing import (
    NoConvergence,
    NotApplicable,
    payoff_and_surplus,
    solve_closed_form,
    solve_general,
)
from .selection import _compare_grid, strategy_compare

USAGE_ERROR = 2
SOLVER_ERROR = 3
# the arguments that name input files, hashed into the manifest
INPUT_ARGS = ("network", "ads", "advertisers", "rides")
# the most points a start:stop:step grid may have
MAX_GRID_POINTS = 10_000


def _parse_demand(text: str | None) -> DemandModel:
    if text in ("uniform", None):
        return DemandModel.uniform()
    if text.startswith("exp:"):
        return DemandModel.exponential(float(text.split(":", 1)[1]))
    raise ValueError("demand must be 'uniform' or 'exp:<gamma>'")


def _extended_params(args, **point) -> ExtendedParams:
    """Parameters from ``--eta``, ``--psi`` and ``--demand``; a sweep gives
    its grid value for the one it sweeps as ``point``."""
    given = vars(args) | point
    if given["eta"] is None or given["psi"] is None:
        raise ValueError("extended model requires --psi and --eta")
    return ExtendedParams(eta=given["eta"], psi=given["psi"],
                          demand=_parse_demand(args.demand))


def _parse_grid(text: str) -> list[float]:
    """``start:stop:step`` (stop included, at most ``MAX_GRID_POINTS``
    points) or ``v1,v2,...`` as a list."""
    try:
        if ":" in text:
            start, stop, step = (float(t) for t in text.split(":"))
            if not all(map(math.isfinite, (start, stop, step))):
                raise ValueError("grid bounds and step must be finite")
            if step <= 0:
                raise ValueError("grid step must be positive")
            steps = (stop + 1e-9 - start) / step
            if not steps < MAX_GRID_POINTS:  # inf included
                raise ValueError(f"{steps + 1:.6g} points, more than the "
                                 f"{MAX_GRID_POINTS} allowed")
            values = []
            x = start
            for _ in range(math.floor(steps) + 1):
                values.append(round(x, 12))
                x += step
        else:
            values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty grid {text!r}")
    return values


def _dump_electrical(net, a, prefix):
    model = build_electrical(net)
    n = net.n_locations
    fileio.write_csv(
        f"{prefix}.resistance.csv",
        ["location"] + [str(j) for j in range(n)],
        ([str(i)] + [fmt(model.effective_resistance[i, j]) for j in range(n)]
         for i in range(n)))
    v = value_vector(net, a)
    fileio.write_csv(f"{prefix}.value.csv", ["location", "value"],
                     ([str(i), fmt(v[i])] for i in range(n)))


def _price_rows(net, a, sol):
    breakdown = payoff_and_surplus(net, a, sol.prices)
    for i, j in net.arcs:
        yield [str(i), str(j), fmt(sol.prices[i, j]), fmt(sol.flows[i, j]),
               fmt(sol.duals_mu[i, j]), fmt(breakdown.payoff_by_arc[i, j]),
               fmt(breakdown.surplus_by_arc[i, j])]


PRICE_HEADER = ["from", "to", "price", "flow", "mu",
                "payoff_contrib", "cs_contrib"]
EXTENDED_HEADER = ["row_type", "from", "to", "price", "flow"]
# a sweep table's columns after the swept parameter
SWEEP_COLUMNS = ["strategy", "payoff", "gap_to_optimal"]


def _network_and_ads(args):
    """The ``--network`` file's network and the ad revenues to price
    with: the ``--ads`` file's when given, else the network file's own."""
    loaded = fileio.load_network(args.network)
    if args.ads:
        return loaded.network, fileio.load_ads(args.ads, loaded.network)
    return loaded.network, loaded.ad_revenue


def cmd_price(args) -> int:
    net, a = _network_and_ads(args)
    try:
        sol = solve_closed_form(net, a)
    except NotApplicable:
        sol = solve_general(net, a)
    fileio.write_csv(args.out, PRICE_HEADER, _price_rows(net, a, sol))
    if args.dump_electrical:
        _dump_electrical(net, a, args.dump_electrical)
    print(f"payoff={fmt(sol.payoff)} consumer_surplus={fmt(sol.consumer_surplus)} "
          f"active_set={len(sol.active_set)} kkt_residual={sol.kkt_residual:.3e}")
    return 0


def cmd_price_extended(args) -> int:
    net, a = _network_and_ads(args)
    params = _extended_params(args)
    sol = solve_extended(net, a, params, seed=args.seed)
    rows = []
    for i, j in net.arcs:
        q = net.demand[i, j] * params.demand.remaining(sol.prices[i, j])
        rows.append(["arc", str(i), str(j), fmt(sol.prices[i, j]), fmt(q)])
    for i, j in sorted(net.pair_array.tolist()):
        rows.append(["empty", str(i), str(j), "", fmt(sol.empty_flows[i, j])])
    footer = [f"# payoff={fmt(sol.payoff)}",
              f"# kkt_residual={sol.kkt_residual:.3e}",
              f"# local_only={int(sol.local_only)}"]
    fileio.write_csv(args.out, EXTENDED_HEADER, rows, footer)
    print(f"payoff={fmt(sol.payoff)} local_only={int(sol.local_only)} "
          f"kkt_residual={sol.kkt_residual:.3e}")
    return 0


def cmd_select(args) -> int:
    loaded = fileio.load_network(args.network)
    catalog = fileio.load_advertisers(args.advertisers)
    params = None
    if args.model == "extended":
        params = _extended_params(args)
    elif (args.psi, args.eta, args.demand) != (None, None, None):
        raise ValueError("--psi, --eta and --demand apply only with "
                         "--model extended")
    comparison = strategy_compare(
        loaded.network, catalog, mode=args.mode, params=params,
        seed=args.seed, trials=args.trials)
    outcome = comparison.outcome(args.strategy)
    rows = []
    for label, dval, pval in zip(comparison.candidates, comparison.deltas,
                                 comparison.payoffs):
        name = f"{label[0]}->{label[1]}" if isinstance(label, tuple) else str(label)
        chosen = int(label == outcome.chosen)
        rows.append([name, fmt(dval), fmt(pval), str(chosen)])
    footer = [f"# strategy={outcome.strategy}",
              f"# chosen={outcome.chosen}",
              f"# payoff={fmt(outcome.payoff)}",
              f"# gap_to_optimal={fmt(outcome.gap_to_optimal)}"]
    fileio.write_csv(args.out, ["candidate", "delta", "payoff", "chosen"],
                     rows, footer)
    print(f"strategy={outcome.strategy} chosen={outcome.chosen} "
          f"payoff={fmt(outcome.payoff)} gap={fmt(outcome.gap_to_optimal)}")
    return 0


def cmd_sweep(args) -> int:
    kind = args.command.removeprefix("sweep-")
    loaded = fileio.load_network(args.network)
    catalog = fileio.load_advertisers(args.advertisers)
    grid = getattr(args, f"{kind}_grid")
    comparisons = _compare_grid(
        loaded.network, catalog, args.mode,
        [_extended_params(args, **{kind: value}) for value in grid],
        [np.random.SeedSequence(args.seed, spawn_key=(index,))
         for index in range(len(grid))],
        args.trials)

    rows = []
    for value, comparison in zip(grid, comparisons):
        for name in ("resistance", "optimal", "random"):
            outcome = comparison.outcome(name)
            rows.append([fmt(value), name, fmt(outcome.payoff),
                         fmt(outcome.gap_to_optimal)])
    fileio.write_csv(args.out, [kind] + SWEEP_COLUMNS, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _parse_ranges(option, text, form):
    """The bounds of ``--bbox`` or ``--window``: finite numbers in the
    order of ``form``, each lower bound at most the upper one after it."""
    try:
        values = tuple(float(t) for t in text.split(","))
    except ValueError:
        values = ()
    if (len(values) != len(form.split(","))
            or not all(map(math.isfinite, values))
            or any(lo > hi for lo, hi in zip(values[::2], values[1::2]))):
        raise ValueError(f"{option} must be {form}: finite numbers, each "
                         f"lower bound at most its upper bound, not {text!r}")
    return values


def cmd_ingest(args) -> int:
    # every option is checked before the ride file is read
    bbox = _parse_ranges("--bbox", args.bbox, "lat0,lat1,lon0,lon1")
    window = _parse_ranges("--window", args.window, "t0,t1")
    if not (math.isfinite(args.slot_seconds) and args.slot_seconds > 0):
        raise ValueError("--slot-seconds must be finite and positive")
    if args.k < 2:
        raise ValueError("--k must be at least 2")
    rides = read_rides_csv(args.rides)
    count = len(rides)
    rides = filter_rides(rides, bbox, window)
    if count and not len(rides):
        raise ValueError(f"--bbox and --window leave none of the {count} "
                         "rides read")
    clustering = cluster_endpoints(rides, args.k, bbox, args.seed)
    result = aggregate_network(rides, clustering, args.slot_seconds, args.cost)
    fileio.save_network(args.out, result.network)
    print(f"locations={result.network.n_locations} "
          f"arcs={len(result.network.arcs)} "
          f"dropped_clusters={list(result.dropped_clusters)} "
          f"intra_cluster_rides={result.dropped_rides}")
    return 0


def cmd_synth(args) -> int:
    net, catalog = synth_instance(args.n, args.density, args.seed,
                                  profile=args.profile, cost=args.cost)
    fileio.save_network(args.out, net)
    if args.advertisers_out:
        fileio.save_advertisers(args.advertisers_out, catalog)
    print(f"locations={net.n_locations} arcs={len(net.arcs)}")
    return 0


def cmd_dump_electrical(args) -> int:
    loaded = fileio.load_network(args.network)
    _dump_electrical(loaded.network, loaded.ad_revenue, args.out)
    print(f"wrote {args.out}.resistance.csv and {args.out}.value.csv")
    return 0


def _read_table(path):
    """Header, (line number, fields) rows and footer of a CSV table."""
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise MalformedInput(f"{path} is empty")
    header = lines[0].split(",")
    rows, footer = [], {}
    for number, ln in enumerate(lines[1:], start=2):
        if ln.startswith("#"):
            key, sep, value = ln[1:].lstrip().partition("=")
            if not sep:
                raise MalformedInput(f"{path}: footer line {ln!r} has no '='")
            footer[key] = value
        elif ln:
            row = ln.split(",")
            if len(row) != len(header):
                raise MalformedInput(f"{path}, line {number}: {len(row)} "
                                     f"fields, but the header has "
                                     f"{len(header)}")
            rows.append((number, row))
    return header, rows, footer


def _floats(path, rows, cols):
    """Fields ``cols`` of (line number, fields) rows, one float list per
    column; a field that is not a number raises MalformedInput naming the
    file and line."""
    values = [[] for _ in cols]
    for number, row in rows:
        for col, column in zip(cols, values):
            try:
                column.append(float(row[col]))
            except ValueError:
                raise MalformedInput(f"{path}, line {number}: field "
                                     f"{col + 1} is {row[col]!r}, not a "
                                     f"number") from None
    return values


def _write_series(path, points):
    """An x,y table of (x, y) points."""
    fileio.write_csv(path, ["x", "y"], ([str(x), fmt(y)] for x, y in points))


def cmd_report(args) -> int:
    path = args.input
    header, rows, footer = _read_table(path)
    prefix = args.out_prefix or (path + ".series")
    if header == PRICE_HEADER:
        price, mu, pay, cs = _floats(path, rows, (2, 4, 5, 6))
        payoff = sum(pay)
        surplus = sum(cs)
        active = sum(1 for m in mu if m > 1e-9)
        ratio = payoff / surplus if surplus else float("nan")
        print(f"payoff={fmt(payoff)}")
        print(f"consumer_surplus={fmt(surplus)}")
        print(f"payoff_to_surplus_ratio={ratio:.4f}")
        print(f"active_set_size={active}")
        top = sorted(range(len(rows)), key=lambda idx: -pay[idx])[:5]
        print("top_arcs_by_payoff=" + ";".join(
            f"{rows[idx][1][0]}->{rows[idx][1][1]}:{fmt(pay[idx])}"
            for idx in top))
        _write_series(f"{prefix}.payoff_by_arc.csv", enumerate(pay))
        _write_series(f"{prefix}.price_by_arc.csv", enumerate(price))
        return 0
    if header[1:] == SWEEP_COLUMNS:
        xname = header[0]
        [payoffs] = _floats(path, rows, (2,))
        strategies = sorted({r[1] for _, r in rows})
        for strat in strategies:
            _write_series(f"{prefix}.{strat}.csv",
                          ((r[0], y) for (_, r), y in zip(rows, payoffs)
                           if r[1] == strat))
        print(f"series_over={xname} strategies={strategies} rows={len(rows)}")
        return 0
    if header == EXTENDED_HEADER:
        [flows] = _floats(path, [r for r in rows if r[1][0] == "arc"], (4,))
        print(f"payoff={footer.get('payoff')}")
        print(f"kkt_residual={footer.get('kkt_residual')}")
        print(f"local_only={footer.get('local_only')}")
        _write_series(f"{prefix}.flow_by_arc.csv", enumerate(flows))
        return 0
    raise MalformedInput(f"unrecognized table schema in {path}")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line and exit code 2."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="resistive-pricing",
        description="Spatial pricing and advertiser selection for vehicle "
                    "service networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="solve the basic pricing problem")
    p.add_argument("--network", required=True)
    p.add_argument("--ads", default=None,
                   help='optional ads file {"ads": [{from, to, a}]} whose '
                        "revenues override the network file's")
    p.add_argument("--out", default="prices.csv")
    p.add_argument("--dump-electrical", default=None, metavar="PREFIX")
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("price-extended", help="solve with capacity and "
                                              "empty-vehicle routing")
    p.add_argument("--network", required=True)
    p.add_argument("--ads", default=None)
    p.add_argument("--psi", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--demand", default="uniform")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="ext.csv")
    p.set_defaults(func=cmd_price_extended)

    p = sub.add_parser("select", help="advertiser selection strategies")
    p.add_argument("--network", required=True)
    p.add_argument("--advertisers", required=True)
    p.add_argument("--mode", choices=["arc", "location"], required=True)
    p.add_argument("--strategy", choices=["resistance", "optimal", "random"],
                   required=True)
    p.add_argument("--model", choices=["basic", "extended"], default="basic")
    p.add_argument("--psi", type=float, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--demand", default=None,
                   help="demand curve of --model extended (default uniform)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="table.csv")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("ingest", help="build a network from ride records")
    p.add_argument("--rides", required=True)
    p.add_argument("--bbox", required=True, metavar="lat0,lat1,lon0,lon1")
    p.add_argument("--window", required=True, metavar="t0,t1")
    p.add_argument("--k", type=int, default=15)
    p.add_argument("--slot-seconds", type=float, default=600.0)
    p.add_argument("--cost", type=float, default=0.6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="network.json")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic instance")
    p.add_argument("--n", type=int, default=15)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--profile", choices=["symmetric", "commuter"],
                   default="symmetric")
    p.add_argument("--cost", type=float, default=0.6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default="network.json")
    p.add_argument("--advertisers-out", default=None)
    p.set_defaults(func=cmd_synth)

    for kind, fixed, grid, value, text in [
        ("psi", "eta", "40:280:40", 0.8, "capacity sweep over strategies"),
        ("eta", "psi", "0.1:1.0:0.1", 300.0, "empty-routing cost sweep"),
    ]:
        p = sub.add_parser(f"sweep-{kind}", help=text)
        p.add_argument("--network", required=True)
        p.add_argument("--advertisers", required=True)
        p.add_argument(f"--{kind}-grid", type=_parse_grid, default=grid)
        p.add_argument(f"--{fixed}", type=float, default=value)
        p.add_argument("--demand", default="uniform")
        p.add_argument("--mode", choices=["arc", "location"],
                       default="location")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", default=f"sweep_{kind}.csv")
        p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="summarize a solver output file")
    p.add_argument("input")
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("dump-electrical",
                       help="write effective resistances and location values")
    p.add_argument("--network", required=True)
    p.add_argument("--out", required=True, metavar="PREFIX")
    p.set_defaults(func=cmd_dump_electrical)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser that :func:`main` reuses within a process; parsing
    changes no parser state."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.time()
    try:
        # float overflow, division by zero and nan raise instead of warning
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            code = args.func(args)
        if code == 0 and args.command != "report":
            params = {k: v for k, v in vars(args).items()
                      if k not in ("command", "func", "seed")}
            inputs = [getattr(args, k) for k in INPUT_ARGS
                      if getattr(args, k, None)]
            fileio.write_manifest(args.out, args.command, params,
                                  getattr(args, "seed", None), inputs, started)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FloatingPointError as exc:
        print(f"error: input out of float range: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return USAGE_ERROR
    except (NoConvergence, Infeasible) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
