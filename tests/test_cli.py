import contextlib
import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resistive_pricing import AdvertiserCatalog, synth_instance, validate_network
from resistive_pricing import cli, fileio
from resistive_pricing.cli import build_parser, main
from resistive_pricing.electrical import value_vector
from resistive_pricing.extended import Infeasible


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_instance(path_net, path_ads, n=6, seed=3, profile="symmetric"):
    net, catalog = synth_instance(n, 0.5, seed=seed, profile=profile)
    fileio.save_network(path_net, net)
    fileio.save_advertisers(path_ads, catalog)
    return net, catalog


class TestFileFormats:
    def test_network_round_trip(self, workdir):
        demand = np.array([[0, 2.0, 0], [0.5, 0, 1.0], [1.5, 0, 0]])
        travel = np.where(demand > 0, 1.5, 1.0)
        net = validate_network(demand, travel, 0.42, [(0, 2, 2.5)])
        ads = np.where(demand > 0, 0.2, 0.0)
        fileio.save_network("net.json", net, ad_revenue=ads)
        loaded = fileio.load_network("net.json")
        assert loaded.network.n_locations == 3
        assert np.array_equal(loaded.network.demand, net.demand)
        assert loaded.network.unit_cost == 0.42
        assert loaded.ad_revenue.values[0, 1] == 0.2
        assert loaded.network.empty_pairs == ((0, 2, 2.5),)

    def test_empty_pairs_round_trip_bit_equal(self, workdir):
        """save_network writes the network's own empty pairs, arc repeats
        and duplicates included, and load_network rebuilds the same pair
        set, bit for bit."""
        base, _ = synth_instance(8, 0.3, seed=3, profile="commuter")
        rng = np.random.default_rng(11)
        off = [(i, j, float(rng.uniform(0.1, 3.0)))
               for i in range(8) for j in range(8)
               if i != j and base.demand[i, j] == 0][:5]
        given = off + [(*base.arcs[0], 0.7), off[1][:2] + (9.0,)]
        net = validate_network(base.demand, base.travel_time,
                               base.unit_cost, given)
        fileio.save_network("net.json", net)
        back = fileio.load_network("net.json").network
        assert back.empty_pairs == net.empty_pairs == tuple(given)
        assert len(net.pair_array) == len(net.arcs) + 5
        for name in ("pair_array", "pair_time"):
            got, want = getattr(back, name), getattr(net, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        fileio.save_network("arcs.json", base)
        assert "empty_travel_time" not in json.loads(
            Path("arcs.json").read_text())

    def test_missing_ad_revenue_means_zero(self, workdir):
        doc = {"n": 2, "cost": 0.6,
               "arcs": [{"from": 0, "to": 1, "demand": 1, "travel_time": 1},
                        {"from": 1, "to": 0, "demand": 1, "travel_time": 1}]}
        Path("n.json").write_text(json.dumps(doc))
        loaded = fileio.load_network("n.json")
        assert loaded.ad_revenue.values.sum() == 0

    def test_advertisers_round_trip(self, workdir):
        catalog = AdvertiserCatalog(
            arc_based={(0, 1): 0.3, (1, 0): 0.1},
            location_based={1: {0: 0.4}}, budget=1)
        fileio.save_advertisers("ads.json", catalog)
        loaded = fileio.load_advertisers("ads.json")
        assert loaded.arc_based == catalog.arc_based
        assert loaded.location_based == {1: {0: 0.4}}

    def test_malformed_network(self, workdir):
        Path("bad.json").write_text("{not json")
        with pytest.raises(fileio.MalformedInput):
            fileio.load_network("bad.json")

    def test_integral_index_forms_accepted(self, workdir):
        doc = {"n": 2, "cost": 0.6,
               "arcs": [{"from": 0, "to": 1.0, "demand": 1, "travel_time": 1},
                        {"from": "1", "to": 0, "demand": 1, "travel_time": 1}]}
        Path("n.json").write_text(json.dumps(doc))
        assert fileio.load_network("n.json").network.arcs == ((0, 1), (1, 0))

    def test_fmt_nine_significant_digits(self):
        assert fileio.fmt(2.0) == "2"
        assert fileio.fmt(1.0 / 3.0) == "0.333333333"


class TestPriceCommand:
    def test_price_runs_and_reports(self, workdir, capsys):
        write_instance("net.json", "ads.json")
        code = main(["price", "--network", "net.json", "--out", "p.csv"])
        assert code == 0
        lines = Path("p.csv").read_text().splitlines()
        assert lines[0] == "from,to,price,flow,mu,payoff_contrib,cs_contrib"
        manifest = json.loads(Path("p.csv.manifest.json").read_text())
        assert manifest["version"] == "0.1.0"
        out = capsys.readouterr().out
        assert "payoff=" in out

    def test_price_deterministic_bytes(self, workdir):
        write_instance("net.json", "ads.json")
        main(["price", "--network", "net.json", "--out", "a.csv"])
        main(["price", "--network", "net.json", "--out", "b.csv"])
        assert Path("a.csv").read_bytes() == Path("b.csv").read_bytes()

    def test_dump_electrical(self, workdir):
        write_instance("net.json", "ads.json")
        code = main(["price", "--network", "net.json", "--out", "p.csv",
                     "--dump-electrical", "elec"])
        assert code == 0
        assert Path("elec.resistance.csv").exists()
        assert Path("elec.value.csv").exists()

    def test_price_with_binding_cap(self, workdir, capsys):
        """Where the closed form does not apply, price runs the active-set
        solve: a positive active set and mu > 0 rows."""
        net, _ = synth_instance(15, 0.3, seed=0, profile="commuter")
        fileio.save_network("net.json", net)
        assert main(["price", "--network", "net.json", "--out", "p.csv"]) == 0
        active = int(capsys.readouterr().out.split("active_set=")[1].split()[0])
        assert active > 0
        rows = [r.split(",") for r in Path("p.csv").read_text().splitlines()[1:]]
        assert sum(float(r[4]) > 0 for r in rows) == active

    def test_invalid_network_exit_2(self, workdir):
        doc = {"n": 2, "cost": 0.6,
               "arcs": [{"from": 0, "to": 0, "demand": 1, "travel_time": 1}]}
        Path("bad.json").write_text(json.dumps(doc))
        assert main(["price", "--network", "bad.json"]) == 2

    def test_huge_location_count_exit_2(self, workdir):
        """A billion locations on one arc cannot be connected: exit 2 and
        one error: line naming both counts, before the (n, n) matrices
        (6.94 EiB each) are allocated."""
        doc = {"n": 10 ** 9, "cost": 0.5,
               "arcs": [{"from": 0, "to": 1, "demand": 1, "travel_time": 1}]}
        Path("huge.json").write_text(json.dumps(doc))
        code, err, _ = run_main(["price", "--network", "huge.json"])
        assert code == 2
        assert err == ("error: 1000000000 locations cannot be weakly "
                       "connected by 1 arcs\n")

    def test_memory_error_exit_2(self, workdir, monkeypatch):
        """A command that runs out of memory ends in exit 2 and one error:
        line, not a traceback."""
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")
        monkeypatch.setattr(cli, "synth_instance", exhausted)
        code, err, _ = run_main(["synth", "--n", "1000000000", "--seed", "1"])
        assert code == 2
        assert err == ("error: out of memory: Unable to allocate 7.45 GiB "
                       "for an array\n")
        assert list(Path().glob("*.manifest.json")) == []

    def test_usage_error_exit_2(self, workdir):
        assert main(["price"]) == 2


RING = [{"from": i, "to": (i + 1) % 3, "demand": 1, "travel_time": 1}
        for i in range(3)]
PRICE = ["price", "--network", "net.json", "--out", "p.csv"]
SELECT = ["select", "--network", "net.json", "--advertisers", "adv.json",
          "--mode", "location", "--strategy", "resistance", "--seed", "0",
          "--out", "s.csv"]
PRICE_EXTENDED = ["price-extended", "--network", "net.json", "--psi", "30",
                  "--eta", "0.8", "--out", "e.csv"]
SWEEP = ["sweep-psi", "--network", "net.json", "--advertisers", "adv.json",
         "--seed", "0", "--psi-grid"]
INGEST = ["ingest", "--rides", "rides.csv", "--seed", "0", "--bbox",
          "30.65,30.69,104.03,104.08", "--window"]
TWO_RIDES = ("pickup_time,dropoff_time,pickup_lon,pickup_lat,dropoff_lon,"
             "dropoff_lat\n0,600,104.04,30.66,104.05,30.67\n"
             "100,700,104.06,30.68,104.04,30.66\n")


def ring(*arcs):
    return {"n": 3, "cost": 0.6, "arcs": list(arcs)}


MALFORMED = [
    ({"net.json": ring({"from": 0, "demand": 1, "travel_time": 1})}, PRICE),
    ({"net.json": ring(*RING[:2], {**RING[2], "to": 3})}, PRICE),
    ({"net.json": ring(1, 2)}, PRICE),
    ({"net.json": ring(*RING[:2], {**RING[2], "from": -1})}, PRICE),
    ({"net.json": ring(*RING), "ads.json": {"ads": [{"from": 0, "to": 1}]}},
     PRICE + ["--ads", "ads.json"]),
    ({"net.json": ring(*RING),
      "ads.json": {"ads": [{"from": -1, "to": 0, "a": 0.1}]}},
     PRICE + ["--ads", "ads.json"]),
    ({"net.json": ring(*RING),
      "adv.json": {"location_based": [{"location": 1, "d": [{"from": 0}]}]}},
     SELECT),
    ({"net.json": ring({**RING[0], "from": 0.9}, *RING[1:])}, PRICE),
    ({"net.json": ring(*RING),
      "ads.json": {"ads": [{"from": 0.5, "to": 1, "a": 0.1}]}},
     PRICE + ["--ads", "ads.json"]),
    ({"net.json": ring(*RING),
      "adv.json": {"location_based": [
          {"location": 1, "d": [{"from": 0.9, "value": 0.1}]}]}},
     SELECT),
    ({"net.json": {"n": 2.5, "cost": 0.6, "arcs": [
        {"from": 0, "to": 1, "demand": 1, "travel_time": 1},
        {"from": 1, "to": 0, "demand": 1, "travel_time": 1}]}}, PRICE),
    ({"net.json": ring(*RING),
      "adv.json": {"location_based": [
          {"location": 1, "d": [{"from": 0, "value": 0.1}]}],
          "budget": 1.7}},
     SELECT),
    ({"net.json": ring(*RING),
      "adv.json": {"location_based": [
          {"location": 1, "d": [{"from": 0, "value": 0.1}]}], "budget": 0}},
     SELECT),
    ({"net.json": ring(*RING),
      "adv.json": {"arc_based": [{"from": 0, "to": 1, "b": -0.1}]}}, SELECT),
    ({"net.json": ring(*RING),
      "adv.json": {"arc_based": [{"from": 0, "to": 2, "b": 0.1}]}}, SELECT),
    ({"net.json": {**ring(*RING), "empty_travel_time": [
        {"from": 1, "to": 1, "travel_time": 1}]}}, PRICE_EXTENDED),
    ({"net.json": {**ring(*RING), "empty_travel_time": [
        {"from": 0, "to": 2, "travel_time": 0}]}}, PRICE_EXTENDED),
    ({"net.json": {**ring(*RING), "empty_travel_time": [
        {"from": 0, "to": 2, "travel_time": float("nan")}]}}, PRICE_EXTENDED),
    ({"net.json": {**ring(*RING), "empty_travel_time": [
        {"from": 0, "to": 2, "travel_time": float("nan")}]}}, PRICE),
    ({}, SWEEP + ["nan:50:10"]),
    ({}, SWEEP + ["10:inf:10"]),
    ({}, SWEEP + ["10:50:0"]),
    ({}, SWEEP + ["10:50:-10"]),
    ({}, INGEST[:-2] + ["30.65,30.69,104.03", "--window", "0,4200"]),
    ({}, INGEST + ["4200"]),
    ({"rides.csv": TWO_RIDES}, INGEST + ["0,4200", "--k", "1000000000"]),
    ({"rides.csv": TWO_RIDES}, INGEST[:-2] + ["30.69,30.65,104.03,104.08",
                                              "--window", "0,4200"]),
    ({"rides.csv": TWO_RIDES}, INGEST[:-2] + ["nan,30.69,104.03,104.08",
                                              "--window", "0,4200"]),
    ({"rides.csv": TWO_RIDES}, INGEST + ["4200,0"]),
    ({"rides.csv": TWO_RIDES}, INGEST + ["0,4200", "--slot-seconds", "0"]),
    ({"rides.csv": TWO_RIDES}, INGEST + ["5000,9000"]),
    ({"t.csv": ""}, ["report", "t.csv"]),
    ({"t.csv": "a,b\n1,2\n"}, ["report", "t.csv"]),
]
MALFORMED_IDS = ["arc-without-to", "to-out-of-range", "arcs-not-objects",
                 "from-negative", "ad-without-a", "ad-from-negative",
                 "advertiser-d-without-value", "from-fractional",
                 "ad-from-fractional", "advertiser-from-fractional",
                 "n-fractional", "budget-fractional", "budget-zero",
                 "arc-bid-negative", "arc-bid-off-arc", "empty-self-loop",
                 "empty-time-zero", "empty-time-nan", "empty-time-nan-price",
                 "grid-start-nan", "grid-stop-inf",
                 "grid-step-zero", "grid-step-negative", "bbox-three-fields",
                 "window-one-field", "k-above-endpoints", "bbox-reversed",
                 "bbox-nan", "window-reversed", "slot-seconds-zero",
                 "window-leaves-no-ride", "report-empty",
                 "report-unknown-header"]


def write_files(files):
    """Write each named input: a string as is, anything else as JSON."""
    for name, doc in files.items():
        Path(name).write_text(doc if isinstance(doc, str) else json.dumps(doc))


@pytest.mark.parametrize("files, argv", MALFORMED, ids=MALFORMED_IDS)
def test_malformed_input_exit_2(workdir, capsys, files, argv):
    write_files(files)
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("files, argv", MALFORMED + [
    ({"net.json": ring(*RING[:2], {**RING[2], "travel_time": 0})}, PRICE)],
    ids=MALFORMED_IDS + ["travel-time-zero"])
def test_malformed_input_message_has_plain_numbers(workdir, capsys, files,
                                                   argv):
    """Indices in an error message read as plain ints, not numpy reprs."""
    write_files(files)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "np." not in err


@pytest.mark.parametrize("blocked", ["nodir", "p.csv.manifest.json"],
                         ids=["output-dir-missing", "manifest-unwritable"])
def test_unwritable_output_exit_2(workdir, capsys, blocked):
    """An output or manifest path that cannot be opened for writing ends
    in one error line and exit code 2, not a traceback."""
    Path("net.json").write_text(json.dumps(ring(*RING)))
    argv = PRICE
    if blocked == "nodir":
        argv = PRICE[:-1] + ["nodir/p.csv"]
    else:
        Path(blocked).mkdir()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("option, value", [
    ("--bbox", "30.69,30.65,104.03,104.08"),
    ("--bbox", "nan,30.69,104.03,104.08"),
    ("--bbox", "30.65,30.69,104.08,104.03"), ("--bbox", "30.65,30.69,104.03"),
    ("--bbox", "30.65,30.69,x,104.08"), ("--window", "32400,25200"),
    ("--window", "0,nan"), ("--slot-seconds", "0"), ("--slot-seconds", "-600"),
    ("--slot-seconds", "nan"), ("--k", "1")],
    ids=["bbox-lat-reversed", "bbox-nan", "bbox-lon-reversed",
         "bbox-three-fields", "bbox-not-a-number", "window-reversed",
         "window-nan", "slot-seconds-zero", "slot-seconds-negative",
         "slot-seconds-nan", "k-one"])
def test_ingest_options_checked_before_reading(workdir, capsys, option,
                                               value):
    """A bad ingest option ends in exit 2 and one error line naming it,
    before the ride file is read: here there is none to read."""
    argv = ["ingest", "--rides", "missing.csv", "--bbox",
            "30.65,30.69,104.03,104.08", "--window", "25200,32400",
            "--seed", "0"]
    assert main(argv + [option, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1


def test_ingest_names_rides_left_by_filter(workdir, capsys):
    """A window or box that keeps no ride of a non-empty file says so
    and gives the count read, not 'no rides supplied'."""
    Path("rides.csv").write_text(TWO_RIDES)
    assert main(INGEST + ["5000,9000"]) == 2
    assert capsys.readouterr().err == (
        "error: --bbox and --window leave none of the 2 rides read\n")
    Path("rides.csv").write_text(TWO_RIDES.splitlines()[0] + "\n")
    assert main(INGEST + ["5000,9000"]) == 2
    assert capsys.readouterr().err == "error: no rides supplied\n"


@pytest.mark.parametrize("option, value", [
    ("--psi", "nan"), ("--psi", "inf"), ("--eta", "nan"),
    ("--demand", "exp:nan"), ("--demand", "exp:1e6")],
    ids=["psi-nan", "psi-inf", "eta-nan", "gamma-nan", "gamma-exp-overflows"])
def test_non_finite_extended_parameter_exit_2(workdir, capsys, option, value):
    """A non-finite psi, eta or gamma, or a gamma whose e^gamma overflows,
    is a usage error, not a solver error."""
    write_instance("net.json", "adv.json", n=5)
    argv = {"--psi": "30", "--eta": "0.8", "--demand": "exp:2"}
    argv[option] = value
    assert main(["price-extended", "--network", "net.json", "--seed", "4",
                 "--out", "ext.csv", *(t for kv in argv.items() for t in kv)
                 ]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_price_extended_seed_optional(workdir):
    """The extended solve is deterministic: without --seed it writes the
    same bytes as with one, and the manifest records a null seed."""
    write_instance("net.json", "adv.json", n=5)
    argv = ["price-extended", "--network", "net.json", "--psi", "30",
            "--eta", "0.8", "--demand", "exp:2"]
    assert main(argv + ["--out", "free.csv"]) == 0
    assert main(argv + ["--seed", "7", "--out", "seeded.csv"]) == 0
    assert Path("free.csv").read_bytes() == Path("seeded.csv").read_bytes()
    assert json.loads(
        Path("free.csv.manifest.json").read_text())["seed"] is None


def test_price_extended_with_slack_capacity_solves(workdir, capsys):
    """The commuter N = 15 seed-4 network without ads: at psi = 369 the
    capacity is slack, so the payoff is the one at psi = 300 and 420.  A
    predictor-corrector loop cycled at psi = 369 and exited 3."""
    assert main(["synth", "--n", "15", "--density", "0.3", "--profile",
                 "commuter", "--seed", "4", "--out", "net.json"]) == 0
    for psi in ("300", "369", "420"):
        assert main(["price-extended", "--network", "net.json", "--psi", psi,
                     "--eta", "0.8", "--out", f"ext-{psi}.csv"]) == 0
        assert "# payoff=6.40494131" \
            in Path(f"ext-{psi}.csv").read_text().splitlines()
    assert capsys.readouterr().err == ""


def test_mixed_scale_solve_is_no_float_range_error(workdir, capsys):
    """Mixed-scale draw 221 (tests/test_extended.py) with random ads,
    uniform demand, psi = mass / 2: the interior point's arithmetic stays
    in float range, so the command never exits 2 "input out of float
    range"; it solves, or exits 3 with a solver error."""
    from gen import random_ads
    from test_extended import mixed_scale_draw

    net = mixed_scale_draw(221)
    ads = random_ads(np.random.default_rng(1), net, hi=3.0)
    fileio.save_network("net.json", net)
    Path("ads.json").write_text(json.dumps({"ads": [
        {"from": i, "to": j, "a": float(ads[i, j])} for i, j in net.arcs]}))
    mass = float((net.arc_demand * net.arc_time).sum())
    code = main(["price-extended", "--network", "net.json", "--ads",
                 "ads.json", "--psi", repr(0.5 * mass), "--eta", "0.8",
                 "--out", "ext.csv"])
    err = capsys.readouterr().err
    assert code in (0, 3), err
    assert err.startswith("solver error:") == (code == 3)


@pytest.mark.parametrize("argv", [
    ["price", "--network", "net.json", "--out", "p.csv",
     "--dump-electrical", "el"],
    ["price", "--network", "net.json", "--ads", "rev.json", "--out", "p.csv",
     "--dump-electrical", "el"],
    ["dump-electrical", "--network", "net.json", "--out", "el"],
], ids=["price", "price-ads-file", "dump-electrical"])
def test_value_csv_includes_ad_revenue(workdir, argv):
    """value.csv holds the location values under the ad revenues the
    command priced with: the --ads file's, else the network file's."""
    net, _ = synth_instance(6, 0.5, seed=3, profile="commuter")
    ads = np.where(net.demand > 0, 0.3, 0.0)
    fileio.save_network("net.json", net,
                        ad_revenue=None if "--ads" in argv else ads)
    Path("rev.json").write_text(json.dumps(
        {"ads": [{"from": i, "to": j, "a": 0.3} for i, j in net.arcs]}))
    assert main(argv) == 0
    rows = Path("el.value.csv").read_text().splitlines()[1:]
    want = value_vector(net, ads)
    assert not np.allclose(want, value_vector(net))
    assert rows == [f"{i},{fileio.fmt(v)}" for i, v in enumerate(want)]


def test_extended_select_and_sweeps_route_empty_pairs(workdir):
    """select --model extended, sweep-psi and sweep-eta price each
    candidate with the network file's empty_travel_time, as price-extended
    does: select's payoff column is price-extended --ads <candidate>'s
    payoff, and the pairs move it."""
    net, catalog = synth_instance(8, 0.3, seed=3, profile="commuter")
    off = [(i, j, 0.5) for i in range(8) for j in range(8)
           if i != j and net.demand[i, j] == 0][:6]
    fileio.save_network("net.json", validate_network(
        net.demand, net.travel_time, net.unit_cost, off))
    fileio.save_network("arcs-only.json", net)
    fileio.save_advertisers("adv.json", catalog)
    mass = float((net.arc_demand * net.arc_time).sum())
    psi = f"{0.3 * mass:.6g}"
    extended = ["--psi", psi, "--eta", "0.8", "--seed", "0"]
    payoffs = {}
    for name in ("net.json", "arcs-only.json"):
        assert main(["select", "--network", name, "--advertisers", "adv.json",
                     "--mode", "location", "--strategy", "resistance",
                     "--model", "extended", "--out", f"{name}.csv"]
                    + extended) == 0
        rows = Path(f"{name}.csv").read_text().splitlines()[1:]
        payoffs[name] = [r.split(",")[2] for r in rows if r[0] != "#"]
    assert payoffs["net.json"] != payoffs["arcs-only.json"]
    for k, payoff in zip(sorted(catalog.location_based), payoffs["net.json"]):
        Path("cand.json").write_text(json.dumps({"ads": [
            {"from": i, "to": k, "a": d}
            for i, d in sorted(catalog.location_based[k].items())]}))
        assert main(["price-extended", "--network", "net.json", "--ads",
                     "cand.json", "--psi", psi, "--eta", "0.8",
                     "--out", "one.csv"]) == 0
        footer = Path("one.csv").read_text().splitlines()
        assert f"# payoff={payoff}" in footer
    # each sweep's optimal payoff is select's largest payoff
    best = max(payoffs["net.json"], key=float)
    for argv in (["sweep-psi", "--psi-grid", psi, "--eta", "0.8"],
                 ["sweep-eta", "--eta-grid", "0.8", "--psi", psi]):
        assert main(argv + ["--network", "net.json", "--advertisers",
                            "adv.json", "--seed", "0", "--out", "sw.csv"]) == 0
        rows = [r.split(",") for r in
                Path("sw.csv").read_text().splitlines()[1:]]
        assert [r[2] for r in rows if r[1] == "optimal"] == [best]


def run_main(argv):
    """Exit code, stderr and recorded warnings of one in-process run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize("source", ["network", "ads"])
def test_non_finite_ad_revenue_exit_2(workdir, source):
    """A NaN ad revenue in a network file or an infinite one in an --ads
    file (JSON reads NaN and Infinity) ends in exit 2 and one error: line
    naming the arc."""
    net, _ = write_instance("net.json", "adv.json", n=5)
    i, j = net.arcs[1]
    argv = ["price", "--network", "net.json", "--out", "p.csv"]
    if source == "network":
        doc = json.loads(Path("net.json").read_text())
        doc["arcs"][1]["ad_revenue"] = float("nan")
        Path("net.json").write_text(json.dumps(doc))
        value = "nan"
    else:
        Path("ads.json").write_text(json.dumps(
            {"ads": [{"from": i, "to": j, "a": float("inf")}]}))
        argv += ["--ads", "ads.json"]
        value = "inf"
    code, err, caught = run_main(argv)
    assert code == 2 and caught == []
    assert err == (f"error: ad revenue on arc ({i}, {j}) must be finite, "
                   f"not {value}\n")
    assert list(Path().glob("*.manifest.json")) == []


@pytest.mark.parametrize("mode, value", [
    ("arc", float("nan")), ("arc", float("inf")),
    ("location", float("nan")), ("location", float("-inf"))],
    ids=["arc-nan", "arc-inf", "location-nan", "location-minus-inf"])
def test_non_finite_willingness_exit_2(workdir, mode, value):
    """A NaN or infinite willingness to pay in the advertiser file (JSON
    reads NaN and Infinity) ends in exit 2 and one error: line naming the
    entry, whichever mode is selected."""
    write_instance("net.json", "adv.json", n=5)
    doc = json.loads(Path("adv.json").read_text())
    if mode == "arc":
        entry = doc["arc_based"][0]
        entry["b"] = value
        named = f"on arc ({entry['from']}, {entry['to']})"
    else:
        entry = doc["location_based"][0]
        entry["d"][0]["value"] = value
        named = f"for ({entry['d'][0]['from']}, {entry['location']})"
    Path("bad.json").write_text(json.dumps(doc))
    other = "location" if mode == "arc" else "arc"
    code, err, caught = run_main([
        "select", "--network", "net.json", "--advertisers", "bad.json",
        "--mode", other, "--strategy", "resistance", "--seed", "0",
        "--out", "s.csv"])
    assert code == 2 and caught == []
    assert err.startswith(f"error: non-finite willingness to pay {named}")
    assert err.count("\n") == 1
    assert list(Path().glob("*.manifest.json")) == []


@pytest.mark.parametrize("argv", [
    ["price-extended", "--network", "net.json", "--psi", "abc",
     "--eta", "0.8"],
    ["select", "--network", "net.json", "--advertisers", "adv.json",
     "--mode", "location", "--strategy", "random", "--trials", "0",
     "--seed", "0"],
    ["price", "--network", "huge.json"],
    ["sweep-psi", "--network", "net.json", "--advertisers", "adv.json",
     "--psi-grid", "1e308", "--seed", "0"],
    SELECT + ["--psi", "5"],
    SELECT + ["--eta", "0.8"],
    SELECT + ["--model", "basic", "--psi", "5", "--eta", "0.8"],
    SELECT + ["--demand", "exp:2"],
    ["select", "--network", "net.json", "--advertisers", "budget2.json",
     "--mode", "location", "--strategy", "resistance", "--seed", "0"],
    ["sweep-psi", "--network", "net.json", "--advertisers", "budget2.json",
     "--psi-grid", "40", "--seed", "0"],
], ids=["argparse-type", "zero-trials", "demand-overflows",
        "sweep-thread-overflows", "select-psi-basic", "select-eta-basic",
        "select-model-basic-psi-eta", "select-demand-basic", "select-budget-2",
        "sweep-budget-2"])
def test_bad_input_one_error_line_no_warning(workdir, argv):
    """An option argparse rejects, zero random trials, inputs whose
    arithmetic overflows, in a solve or in a sweep's grid point, --psi,
    --eta or --demand without --model extended, and an advertiser budget other than 1
    (each compared candidate is one collaboration): exit 2 with one
    error: line, no warning and no manifest."""
    net, _ = write_instance("net.json", "adv.json", n=5)
    doc = json.loads(Path("net.json").read_text())
    doc["arcs"][0].update(demand=1e308, travel_time=0.5)
    Path("huge.json").write_text(json.dumps(doc))
    doc = json.loads(Path("adv.json").read_text())
    Path("budget2.json").write_text(json.dumps({**doc, "budget": 2}))
    code, err, caught = run_main(argv)
    assert code == 2 and caught == []
    assert err.startswith("error:") and err.count("\n") == 1
    assert list(Path().glob("*.manifest.json")) == []


# one-field mutations of every input kind and of the numeric options
BAD_VALUES = [float("nan"), float("inf"), float("-inf"), 0, -1.5, 1e308,
              "abc", None, "DROP"]
BAD_TEXT = ["nan", "inf", "-inf", "0", "-1.5", "1e308", "abc"]
NET_COMMANDS = [["price", "--out", "p.csv"],
                ["price-extended", "--psi", "30", "--eta", "0.8",
                 "--demand", "exp:2", "--out", "e.csv"],
                ["dump-electrical", "--out", "el"]]
OPTION_COMMANDS = [
    (["price-extended", "--network", "net.json", "--psi", "30", "--eta",
      "0.8", "--demand", "exp:2", "--out", "e.csv"],
     ["--psi", "--eta", "--demand"]),
    (["ingest", "--rides", "rides.csv", "--bbox",
      "30.65,30.69,104.03,104.08", "--window", "0,4200", "--k", "3",
      "--slot-seconds", "600", "--cost", "0.6", "--seed", "3",
      "--out", "ing.json"], ["--k", "--slot-seconds", "--cost"]),
    (["synth", "--n", "5", "--density", "0.5", "--cost", "0.6", "--seed",
      "2", "--out", "syn.json"], ["--n", "--density", "--cost"]),
    (["select", "--network", "net.json", "--advertisers", "adv.json",
      "--mode", "location", "--strategy", "random", "--trials", "3",
      "--seed", "0", "--out", "s.csv"], ["--trials"]),
    (["sweep-psi", "--network", "net.json", "--advertisers", "adv.json",
      "--psi-grid", "20,40", "--eta", "0.8", "--trials", "3", "--seed",
      "1", "--out", "sw.csv"], ["--psi-grid", "--eta"]),
]


@contextlib.contextmanager
def fresh_dir():
    """Run the block inside a new temporary working directory."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(old)


@functools.cache
def fuzz_inputs():
    """File name -> text of one valid input of each kind, price and
    extended tables included."""
    with fresh_dir():
        net, _ = write_instance("net.json", "adv.json", n=5,
                                profile="commuter")
        Path("ads.json").write_text(json.dumps(
            {"ads": [{"from": i, "to": j, "a": 0.1} for i, j in net.arcs]}))
        write_rides("rides.csv")
        for argv in NET_COMMANDS[:2]:
            assert run_main(argv + ["--network", "net.json"])[0] == 0
        return {p.name: p.read_text() for p in Path().iterdir()
                if p.suffix in (".json", ".csv")
                and not p.name.endswith(".manifest.json")}


def leaf_paths(doc, path=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items
            for leaf in leaf_paths(value, path + (key,))]


@st.composite
def mutated_run(draw):
    """(files, argv): valid inputs with one field, row or option made
    NaN, +-inf, 0, negative, huge, of the wrong type or missing, and the
    command that reads it."""
    files = dict(fuzz_inputs())
    kind = draw(st.sampled_from(["net.json", "ads.json", "adv.json",
                                 "rides.csv", "p.csv", "e.csv", "option"]))
    if kind == "option":
        argv, options = draw(st.sampled_from(OPTION_COMMANDS))
        argv = list(argv)
        option = draw(st.sampled_from(options))
        text = draw(st.sampled_from(BAD_TEXT))
        argv[argv.index(option) + 1] = \
            f"exp:{text}" if option == "--demand" else text
        return files, argv
    if kind.endswith(".json"):
        doc = json.loads(files[kind])
        path = draw(st.sampled_from(leaf_paths(doc)))
        value = draw(st.sampled_from(BAD_VALUES))
        doc = copy.deepcopy(doc)
        parent = functools.reduce(lambda d, key: d[key], path[:-1], doc)
        if value == "DROP":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        files[kind] = json.dumps(doc)
    else:
        lines = files[kind].splitlines()
        row = draw(st.integers(1, len(lines) - 1))
        fields = lines[row].split(",")
        col = draw(st.integers(-1, len(fields) - 1))
        if col < 0:
            fields.pop()
        else:
            fields[col] = draw(st.sampled_from(BAD_TEXT))
        lines[row] = ",".join(fields)
        files[kind] = "\n".join(lines) + "\n"
    if kind == "net.json":
        argv = draw(st.sampled_from(NET_COMMANDS)) + ["--network", kind]
    elif kind == "ads.json":
        argv = NET_COMMANDS[0] + ["--network", "net.json", "--ads", kind]
    elif kind == "adv.json":
        argv = ["select", "--network", "net.json", "--advertisers", kind,
                "--mode", draw(st.sampled_from(["arc", "location"])),
                "--strategy", "resistance", "--seed", "0", "--out", "s.csv"]
    elif kind == "rides.csv":
        argv = OPTION_COMMANDS[1][0]
    else:
        argv = ["report", kind, "--out-prefix", "series"]
    return files, argv


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mutated_run())
def test_mutated_input_exits_with_typed_error(case):
    """Any one bad field, row or option: exit 0, 2 or 3, no exception and
    no warning; on failure one error: or solver error: line first on
    stderr and no manifest."""
    files, argv = case
    with fresh_dir():
        for name, text in files.items():
            Path(name).write_text(text)
        code, err, caught = run_main(argv)
        manifests = list(Path().glob("*.manifest.json"))
    assert code in (0, 2, 3) and caught == []
    if code:
        assert err.startswith(("error:", "solver error:")) and not manifests
    elif argv[0] != "report":
        assert manifests


@pytest.mark.parametrize("argv", [
    ["price", "--network", "net.json", "--out", "p.csv",
     "--dump-electrical", "el"],
    ["dump-electrical", "--network", "net.json", "--out", "el"],
    ["select", "--network", "net.json", "--advertisers", "ads.json",
     "--mode", "location", "--strategy", "optimal", "--seed", "0",
     "--out", "s.csv"],
], ids=["price", "dump-electrical", "select"])
def test_one_model_build_per_command(workdir, model_builds, argv):
    """A command builds the electrical model of the network it loads once,
    however many prices, scores and dumps it takes from it."""
    write_instance("net.json", "ads.json", profile="commuter")
    assert main(argv) == 0
    assert len(model_builds) == 1


class TestSelectCommand:
    def test_select_random_seeded_identical(self, workdir):
        write_instance("net.json", "ads.json")
        args = ["select", "--network", "net.json", "--advertisers",
                "ads.json", "--mode", "arc", "--strategy", "random",
                "--seed", "11", "--out", "t1.csv"]
        assert main(args) == 0
        args[-1] = "t2.csv"
        assert main(args) == 0
        assert Path("t1.csv").read_bytes() == Path("t2.csv").read_bytes()

    def test_select_optimal_extended(self, workdir):
        write_instance("net.json", "ads.json", n=5)
        code = main(["select", "--network", "net.json", "--advertisers",
                     "ads.json", "--mode", "location", "--strategy",
                     "optimal", "--model", "extended", "--psi", "40",
                     "--eta", "0.8", "--seed", "0", "--out", "sel.csv"])
        assert code == 0
        content = Path("sel.csv").read_text()
        assert "# strategy=optimal" in content

    def test_extended_requires_psi(self, workdir):
        write_instance("net.json", "ads.json", n=5)
        code = main(["select", "--network", "net.json", "--advertisers",
                     "ads.json", "--mode", "arc", "--strategy", "optimal",
                     "--model", "extended", "--seed", "0"])
        assert code == 2


class TestSweeps:
    def test_sweep_psi_rows_and_determinism(self, workdir):
        write_instance("net.json", "ads.json", n=5)
        args = ["sweep-psi", "--network", "net.json", "--advertisers",
                "ads.json", "--psi-grid", "20:60:20", "--eta", "0.8",
                "--trials", "20", "--seed", "5", "--out", "s1.csv"]
        assert main(args) == 0
        rows = Path("s1.csv").read_text().splitlines()
        assert rows[0] == "psi,strategy,payoff,gap_to_optimal"
        assert len(rows) == 1 + 3 * 3
        gaps = [float(r.split(",")[3]) for r in rows[1:]]
        assert min(gaps) >= 0.0
        args[-1] = "s2.csv"
        assert main(args) == 0
        assert Path("s1.csv").read_bytes() == Path("s2.csv").read_bytes()

    def test_sweep_eta_single_point(self, workdir):
        write_instance("net.json", "ads.json", n=5)
        code = main(["sweep-eta", "--network", "net.json", "--advertisers",
                     "ads.json", "--eta-grid", "0.5", "--psi", "50",
                     "--trials", "10", "--seed", "1", "--out", "e.csv"])
        assert code == 0
        rows = Path("e.csv").read_text().splitlines()
        assert len(rows) == 4

    def test_empty_grid_usage_error(self, workdir):
        write_instance("net.json", "ads.json", n=5)
        code = main(["sweep-eta", "--network", "net.json", "--advertisers",
                     "ads.json", "--eta-grid", ",", "--seed", "1"])
        assert code == 2


class TestSweepBatch:
    """A sweep cuts its grid's rows into batches by a row budget."""

    @pytest.mark.parametrize("argv", [
        ["sweep-psi", "--psi-grid", "30:90:20", "--eta", "0.8"],
        ["sweep-eta", "--eta-grid", "0.2,0.9", "--psi", "60", "--demand",
         "exp:2", "--mode", "arc"]], ids=["psi-uniform", "eta-exp-arc"])
    def test_one_point_per_chunk_same_bytes(self, workdir, monkeypatch,
                                            argv):
        """Budgets of one and of two rows per batch, fewer than one grid
        point's candidates, write the bytes of the default budget."""
        from resistive_pricing import extended, selection

        _, catalog = write_instance("net.json", "adv.json", n=10, seed=7,
                                    profile="commuter")
        net = fileio.load_network("net.json").network
        width = len(net.arcs) + len(net.pair_array) + 1
        argv = argv + ["--network", "net.json", "--advertisers", "adv.json",
                       "--trials", "20", "--seed", "4"]
        assert main(argv + ["--out", "whole.csv"]) == 0
        grid = json.loads(Path("whole.csv.manifest.json").read_text())[
            "parameters"][f"{argv[0].removeprefix('sweep-')}_grid"]
        mode = "arc" if "arc" in argv else "location"
        rows = len(grid) * len(getattr(catalog, f"{mode}_based"))
        loops = []
        true_loop = extended._interior_point

        def counted(*args, **kwargs):
            results = true_loop(*args, **kwargs)
            loops.append(len(results))  # one result per row
            return results

        monkeypatch.setattr(extended, "_interior_point", counted)
        for size in (1, 2):
            loops.clear()
            monkeypatch.setattr(selection, "BATCH_BUDGET", size * width)
            assert main(argv + ["--out", f"rows{size}.csv"]) == 0
            assert loops == [size] * (rows // size) + [1] * (rows % size)
            assert Path("whole.csv").read_bytes() \
                == Path(f"rows{size}.csv").read_bytes()


class TestGridParsing:
    def test_default_psi_grid_shape(self):
        from resistive_pricing.cli import _parse_grid
        grid = _parse_grid("40:280:40")
        assert grid == [40.0, 80.0, 120.0, 160.0, 200.0, 240.0, 280.0]

    def test_comma_grid_and_default_eta(self):
        from resistive_pricing.cli import _parse_grid
        assert _parse_grid("0.5,0.7") == [0.5, 0.7]
        assert len(_parse_grid("0.1:1.0:0.1")) == 10

    def test_default_grids_bit_for_bit(self):
        from resistive_pricing.cli import _parse_grid
        for text, expected in [
                ("40:280:40", [40.0, 80.0, 120.0, 160.0, 200.0, 240.0,
                               280.0]),
                ("0.1:1.0:0.1", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                 0.9, 1.0])]:
            grid = _parse_grid(text)
            assert np.array(grid).tobytes() == np.array(expected).tobytes()

    def test_grid_point_count_capped(self):
        import argparse
        from resistive_pricing.cli import MAX_GRID_POINTS, _parse_grid
        with pytest.raises(argparse.ArgumentTypeError, match="1e[+]06 points"):
            _parse_grid("0:1:1e-6")
        assert len(_parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS

    def test_demand_spec_parsing(self):
        from resistive_pricing.cli import _parse_demand
        assert _parse_demand("uniform").kind == "uniform"
        exp = _parse_demand("exp:2")
        assert exp.kind == "exponential" and exp.gamma == 2.0
        with pytest.raises(ValueError):
            _parse_demand("normal")

    def test_eta_sweep_payoff_non_increasing(self, workdir):
        net, catalog = synth_instance(6, 0.5, seed=3, profile="commuter")
        net = validate_network(net.demand * 4.0, net.travel_time,
                               net.unit_cost)
        fileio.save_network("net.json", net)
        fileio.save_advertisers("ads.json", catalog)
        total = float((net.arc_demand * net.arc_time).sum())
        code = main(["sweep-eta", "--network", "net.json", "--advertisers",
                     "ads.json", "--eta-grid", "0.1,0.5,1.0", "--psi",
                     str(0.8 * total), "--trials", "10", "--seed", "2",
                     "--out", "eta.csv"])
        assert code == 0
        rows = [r.split(",") for r in
                Path("eta.csv").read_text().splitlines()[1:]]
        for strategy in ("resistance", "optimal"):
            series = [float(r[2]) for r in rows if r[1] == strategy]
            for hi, lo in zip(series, series[1:]):
                assert lo <= hi + 1e-6


class TestSynthIngestReport:
    def test_synth_writes_network_and_catalog(self, workdir):
        code = main(["synth", "--n", "8", "--density", "0.4", "--profile",
                     "commuter", "--seed", "9", "--out", "net.json",
                     "--advertisers-out", "ads.json"])
        assert code == 0
        loaded = fileio.load_network("net.json")
        assert loaded.network.n_locations == 8
        catalog = fileio.load_advertisers("ads.json")
        catalog.validate_for(loaded.network)
        assert Path("net.json.manifest.json").exists()

    def test_ingest_builds_network(self, workdir):
        rng = np.random.default_rng(2)
        lines = ["pickup_time,dropoff_time,pickup_lon,pickup_lat,"
                 "dropoff_lon,dropoff_lat"]
        sites = [(104.035, 30.655), (104.075, 30.685), (104.055, 30.670)]
        for _ in range(120):
            a, b = rng.choice(3, size=2, replace=False)
            t0 = float(rng.uniform(0, 3600))
            lines.append(f"{t0},{t0 + 600},{sites[a][0]},{sites[a][1]},"
                         f"{sites[b][0]},{sites[b][1]}")
        Path("rides.csv").write_text("\n".join(lines) + "\n")
        code = main(["ingest", "--rides", "rides.csv", "--bbox",
                     "30.65,30.69,104.03,104.08", "--window", "0,4200",
                     "--k", "3", "--slot-seconds", "600", "--cost", "0.6",
                     "--seed", "3", "--out", "net.json"])
        assert code == 0
        loaded = fileio.load_network("net.json")
        assert loaded.network.n_locations == 3

    def test_report_on_prices(self, workdir, capsys):
        write_instance("net.json", "ads.json")
        main(["price", "--network", "net.json", "--out", "p.csv"])
        capsys.readouterr()
        code = main(["report", "p.csv", "--out-prefix", "series"])
        assert code == 0
        out = capsys.readouterr().out
        assert "payoff_to_surplus_ratio=2.0000" in out
        assert Path("series.payoff_by_arc.csv").exists()

    def test_report_on_sweep(self, workdir, capsys):
        write_instance("net.json", "ads.json", n=5)
        main(["sweep-eta", "--network", "net.json", "--advertisers",
              "ads.json", "--eta-grid", "0.4,0.8", "--psi", "50",
              "--trials", "10", "--seed", "1", "--out", "e.csv"])
        capsys.readouterr()
        code = main(["report", "e.csv", "--out-prefix", "es"])
        assert code == 0
        assert Path("es.optimal.csv").exists()
        assert Path("es.resistance.csv").exists()
        assert Path("es.random.csv").exists()

    def test_report_missing_file(self, workdir):
        assert main(["report", "nope.csv"]) == 2

    def test_report_malformed_footer_exit_2(self, workdir, capsys):
        Path("ext.csv").write_text("row_type,from,to,price,flow\n"
                                   "arc,0,1,0.5,0.2\n#oops\n")
        assert main(["report", "ext.csv"]) == 2
        assert "has no '='" in capsys.readouterr().err

    def test_report_short_row_exit_2(self, workdir, capsys):
        write_instance("net.json", "ads.json")
        main(["price", "--network", "net.json", "--out", "p.csv"])
        lines = Path("p.csv").read_text().splitlines()
        Path("p.csv").write_text("\n".join(lines[:2] + ["0,1,0.5"]
                                            + lines[2:]) + "\n")
        capsys.readouterr()
        assert main(["report", "p.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: p.csv, line 3: 3 fields")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("table, line", [
        ("from,to,price,flow,mu,payoff_contrib,cs_contrib\n"
         "0,1,0.5,1,0,1,0.5\n0,2,x,1,0,1,1\n", 3),
        ("psi,strategy,payoff,gap_to_optimal\n40,optimal,x,0\n", 2),
        ("row_type,from,to,price,flow\narc,0,1,0.5,0.2\narc,1,0,0.5,x\n"
         "# payoff=1\n", 3)], ids=["price", "sweep", "extended"])
    def test_report_non_numeric_field_exit_2(self, workdir, capsys, table,
                                             line):
        """A field that is not a number is named by file and line before
        report prints or writes anything."""
        Path("t.csv").write_text(table)
        assert main(["report", "t.csv", "--out-prefix", "series"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: t.csv, line {line}: ")
        assert "'x'" in err and err.count("\n") == 1
        assert not list(Path().glob("series*"))

    def test_price_extended_footer(self, workdir):
        write_instance("net.json", "ads.json", n=5)
        code = main(["price-extended", "--network", "net.json", "--psi",
                     "30", "--eta", "0.8", "--demand", "exp:2", "--seed",
                     "4", "--out", "ext.csv"])
        assert code == 0
        content = Path("ext.csv").read_text()
        assert "# local_only=1" in content
        assert "# payoff=" in content

    def test_dump_electrical_command(self, workdir):
        write_instance("net.json", "ads.json")
        code = main(["dump-electrical", "--network", "net.json",
                     "--out", "el"])
        assert code == 0
        rows = Path("el.resistance.csv").read_text().splitlines()
        assert len(rows) == 7  # header + 6 locations


def write_rides(path):
    rng = np.random.default_rng(2)
    lines = ["pickup_time,dropoff_time,pickup_lon,pickup_lat,"
             "dropoff_lon,dropoff_lat"]
    sites = [(104.035, 30.655), (104.075, 30.685), (104.055, 30.670)]
    for _ in range(60):
        a, b = rng.choice(3, size=2, replace=False)
        t0 = float(rng.uniform(0, 3600))
        lines.append(f"{t0},{t0 + 600},{sites[a][0]},{sites[a][1]},"
                     f"{sites[b][0]},{sites[b][1]}")
    Path(path).write_text("\n".join(lines) + "\n")


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_fresh(argv, cwd):
    """Exit code of ``argv`` run in a new interpreter."""
    src = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "resistive_pricing",
                           *argv], cwd=cwd, env=env, capture_output=True,
                          timeout=120).returncode


class TestCachedParser:
    def test_main_calls_share_no_state(self, workdir):
        """main reuses one parser: a run of commands in one process, with
        and without optional arguments and with usage errors between
        them, writes what each command writes in a new process."""
        net, _ = write_instance("adv-net.json", "adv.json", n=5)
        own = np.zeros((5, 5))
        for i, j in net.arcs[::2]:
            own[i, j] = 0.2
        fileio.save_network("net.json", net, own)
        Path("ads.json").write_text(json.dumps(
            {"ads": [{"from": i, "to": j, "a": 0.4} for i, j in net.arcs]}))
        sweep = ["sweep-psi", "--network", "net.json", "--advertisers",
                 "adv.json", "--trials", "5", "--seed", "3"]
        jobs = [
            ["price", "--network", "net.json", "--ads", "ads.json",
             "--out", "p1.csv"],
            ["price", "--network"],
            ["price", "--network", "net.json", "--out", "p2.csv"],
            sweep + ["--psi-grid", "40,80", "--out", "s1.csv"],
            sweep + ["--psi-grid", ",", "--out", "bad.csv"],
            sweep + ["--out", "s2.csv"],
        ]
        outputs = ["p1.csv", "p2.csv", "s1.csv", "s2.csv"]
        Path("fresh").mkdir()
        for name in ("net.json", "adv.json", "ads.json"):
            Path("fresh", name).write_bytes(Path(name).read_bytes())
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            codes = [main(argv) for argv in jobs]
        assert codes == [run_fresh(argv, "fresh") for argv in jobs] \
            == [0, 2, 0, 0, 2, 0]
        assert Path("p1.csv").read_bytes() != Path("p2.csv").read_bytes()
        for out in outputs:
            assert Path(out).read_bytes() == Path("fresh", out).read_bytes()
            kept, fresh = (
                {k: v for k, v in json.loads(
                    Path(*where, f"{out}.manifest.json").read_text()).items()
                 if k != "duration_seconds"}
                for where in ((), ("fresh",)))
            assert kept == fresh
        assert json.loads(Path("s2.csv.manifest.json").read_text())[
            "parameters"]["psi_grid"] == [40.0, 80.0, 120.0, 160.0, 200.0,
                                          240.0, 280.0]


class TestManifest:
    @pytest.mark.parametrize("argv, manifest_of, inputs", [
        (["price", "--network", "net.json", "--ads", "rev.json",
          "--out", "p.csv"], "p.csv", ["net.json", "rev.json"]),
        (["price-extended", "--network", "net.json", "--psi", "30",
          "--eta", "0.8", "--seed", "4", "--out", "ext.csv"],
         "ext.csv", ["net.json"]),
        (["select", "--network", "net.json", "--advertisers", "adv.json",
          "--mode", "arc", "--strategy", "resistance", "--trials", "5",
          "--seed", "6", "--out", "s.csv"], "s.csv", ["net.json", "adv.json"]),
        (["ingest", "--rides", "rides.csv", "--bbox",
          "30.65,30.69,104.03,104.08", "--window", "0,4200", "--k", "3",
          "--seed", "3", "--out", "ing.json"], "ing.json", ["rides.csv"]),
        (["synth", "--n", "5", "--seed", "9", "--out", "syn.json",
          "--advertisers-out", "syn_adv.json"], "syn.json", []),
        (["sweep-psi", "--network", "net.json", "--advertisers", "adv.json",
          "--psi-grid", "20:40:20", "--trials", "5", "--seed", "5",
          "--out", "sw.csv"], "sw.csv", ["net.json", "adv.json"]),
        (["sweep-eta", "--network", "net.json", "--advertisers", "adv.json",
          "--eta-grid", "0.4,0.8", "--psi", "50", "--demand", "exp:2",
          "--mode", "arc", "--trials", "5", "--seed", "5", "--out", "se.csv"],
         "se.csv", ["net.json", "adv.json"]),
        (["dump-electrical", "--network", "net.json", "--out", "el"],
         "el", ["net.json"]),
    ], ids=["price", "price-extended", "select", "ingest", "synth",
            "sweep-psi", "sweep-eta", "dump-electrical"])
    def test_manifest_records_parsed_arguments(self, workdir, argv,
                                               manifest_of, inputs):
        net, _ = write_instance("net.json", "adv.json", n=5)
        Path("rev.json").write_text(json.dumps(
            {"ads": [{"from": i, "to": j, "a": 0.1} for i, j in net.arcs]}))
        write_rides("rides.csv")
        assert main(argv) == 0
        manifest = json.loads(
            Path(f"{manifest_of}.manifest.json").read_text())
        parsed = vars(build_parser().parse_args(argv))
        seed = parsed.pop("seed", None)
        for key in ("command", "func"):
            del parsed[key]
        assert manifest["command"] == argv[0]
        assert manifest["parameters"] == parsed
        assert manifest["inputs"] == {p: sha256(p) for p in inputs}
        assert manifest["seed"] == seed

    def test_sweep_records_resolved_grid(self, workdir):
        write_instance("net.json", "adv.json", n=5)
        assert main(["sweep-eta", "--network", "net.json", "--advertisers",
                     "adv.json", "--eta-grid", "0.4:0.8:0.4", "--psi", "50",
                     "--trials", "5", "--seed", "1", "--out", "e.csv"]) == 0
        params = json.loads(Path("e.csv.manifest.json").read_text())[
            "parameters"]
        assert params["eta_grid"] == [0.4, 0.8]
        assert "grid" not in params and "eta" not in params

    def test_usage_error_writes_no_manifest(self, workdir):
        doc = {"n": 2, "cost": 0.6,
               "arcs": [{"from": 0, "to": 0, "demand": 1, "travel_time": 1}]}
        Path("bad.json").write_text(json.dumps(doc))
        assert main(["price", "--network", "bad.json", "--out", "p.csv"]) == 2
        assert list(Path().glob("*.manifest.json")) == []

    def test_solver_error_writes_no_manifest(self, workdir, monkeypatch):
        write_instance("net.json", "adv.json", n=5)

        def infeasible(*args, **kwargs):
            raise Infeasible("no feasible point")
        monkeypatch.setattr(cli, "solve_extended", infeasible)
        assert main(["price-extended", "--network", "net.json", "--psi", "30",
                     "--eta", "0.8", "--seed", "4", "--out", "ext.csv"]) == 3
        assert list(Path().glob("*.manifest.json")) == []

    def test_report_writes_no_manifest(self, workdir):
        write_instance("net.json", "adv.json")
        assert main(["price", "--network", "net.json", "--out", "p.csv"]) == 0
        assert main(["report", "p.csv", "--out-prefix", "series"]) == 0
        assert [p.name for p in Path().glob("*.manifest.json")] == [
            "p.csv.manifest.json"]

    def test_bad_grid_names_the_option(self, workdir, capsys):
        write_instance("net.json", "adv.json", n=5)
        assert main(["sweep-eta", "--network", "net.json", "--advertisers",
                     "adv.json", "--eta-grid", "0.1:x:0.1", "--seed",
                     "1"]) == 2
        assert "--eta-grid" in capsys.readouterr().err
