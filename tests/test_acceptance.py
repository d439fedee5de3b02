"""Acceptance suite: one test per criterion, each with its runtime budget.

The conftest hook prints a PASS/FAIL line per criterion after the run.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from resistive_pricing import (
    DemandModel,
    ExtendedParams,
    arc_candidate,
    build_electrical,
    find_cut_vertices,
    location_candidate,
    price_sensitivity,
    reduced_search,
    solve_closed_form,
    solve_extended,
    solve_general,
    strategy_compare,
    synth_instance,
    validate_network,
)
from resistive_pricing.cli import main
from resistive_pricing.selection import AdvertiserCatalog

from gen import quiet_instance, random_connected_network, random_instance
from oracles import central_difference_sensitivity, enumerate_optimal_prices


def ring_with_chord(n=6):
    demand = np.zeros((n, n))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]:
        demand[i, j] = demand[j, i] = 1.0
    return validate_network(demand, np.ones((n, n)), 0.6)


def scaled_commuter(seed=1, factor=6.0):
    net, catalog = synth_instance(15, 0.3, seed=seed, profile="commuter")
    scaled = validate_network(net.demand * factor, net.travel_time,
                              net.unit_cost)
    return scaled, catalog


def test_criterion_01_effective_resistance_golden():
    """Ring-with-chord golden values: chord 0.3, ring edges 11/30."""
    t0 = time.monotonic()
    model = build_electrical(ring_with_chord())
    eff = model.effective_resistance
    assert eff[1, 4] == pytest.approx(0.3, abs=1e-9)
    assert eff[4, 1] == pytest.approx(0.3, abs=1e-9)
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]:
        assert eff[i, j] == pytest.approx(11.0 / 30.0, abs=1e-9)
    assert time.monotonic() - t0 < 1.0


def test_criterion_02_local_sum_rule():
    """sum_j (R_ij + R_ik - R_jk)/r_ij = 2 at every (i, k), 200 networks."""
    t0 = time.monotonic()
    rng = np.random.default_rng(12)
    for _ in range(200):
        net = random_connected_network(rng, n_min=3, n_max=12)
        w = net.projection
        eff = build_electrical(net).effective_resistance
        n = net.n_locations
        deg = w.sum(axis=1)
        row_self = (w * eff).sum(axis=1)
        # lhs[i, k] = sum_j w_ij (R_ij + R_ik - R_jk)
        lhs = row_self[:, None] + deg[:, None] * eff - w @ eff
        off = ~np.eye(n, dtype=bool)
        assert np.abs(lhs[off] - 2.0).max() < 1e-8
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_payoff_twice_surplus():
    """Optimal payoff equals twice consumer surplus, cap regime included."""
    t0 = time.monotonic()
    rng = np.random.default_rng(33)
    with_active = 0
    for k in range(200):
        net, a = random_instance(rng, aggressive=(k % 2 == 0))
        sol = solve_general(net, a)
        if sol.active_set:
            with_active += 1
        assert sol.payoff == pytest.approx(2.0 * sol.consumer_surplus,
                                           rel=1e-8, abs=1e-12)
    assert with_active >= 10
    assert time.monotonic() - t0 < 30.0


def test_criterion_04_oracle_equivalence():
    """Active-set solver matches subset-enumeration KKT oracle prices."""
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    solved = 0
    while solved < 500:
        net, a = random_instance(rng, n_min=2, n_max=5,
                                 aggressive=(solved % 3 == 0))
        if len(net.arcs) > 8:
            continue
        sol = solve_general(net, a)
        oracle_prices, oracle_val = enumerate_optimal_prices(net, a)
        for arc in net.arcs:
            assert float(sol.prices[arc]) == pytest.approx(
                oracle_prices[arc], abs=1e-6)
        assert sol.payoff == pytest.approx(oracle_val, rel=1e-7, abs=1e-9)
        solved += 1
    assert time.monotonic() - t0 < 120.0


def test_criterion_05_sensitivity_finite_differences():
    """Resistance sensitivity formula vs central differences, eps 1e-5."""
    t0 = time.monotonic()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(50):
        net, a = quiet_instance(rng, margin=1e-3, ad_floor=0.05,
                                n_min=3, n_max=5)
        for arc in net.arcs:
            deriv = price_sensitivity(net, a, arc)
            fd = central_difference_sensitivity(solve_closed_form, net, a,
                                                arc, eps=1e-5)
            for i, j in net.arcs:
                worst = max(worst, abs(deriv[i, j] - fd[i, j]))
    assert worst < 1e-4
    assert time.monotonic() - t0 < 30.0


def test_criterion_06_structural_zero_sensitivities():
    """Exact zeros: homogeneous complete graph and cut-vertex separation."""
    t0 = time.monotonic()
    n = 4
    net = validate_network(np.ones((n, n)) - np.eye(n), np.ones((n, n)), 0.6)
    for x, y in net.arcs:
        deriv = price_sensitivity(net, None, (x, y))
        for i, j in net.arcs:
            if len({i, j} & {x, y}) == 0:
                assert abs(deriv[i, j]) < 1e-10

    demand = np.zeros((5, 5))
    for i, j in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]:
        demand[i, j] = demand[j, i] = 1.0
    net = validate_network(demand, np.ones((5, 5)), 0.6)
    assert 2 in find_cut_vertices(net)
    side_one = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    for src in [(2, 3), (3, 2), (3, 4), (4, 3), (2, 4), (4, 2)]:
        deriv = price_sensitivity(net, None, src)
        for arc in side_one:
            assert abs(deriv[arc]) < 1e-10
    assert time.monotonic() - t0 < 5.0


def test_criterion_07_selection_optimality():
    """Reduced search equals exhaustive payoff argmax; golden chord case."""
    t0 = time.monotonic()
    rng = np.random.default_rng(777)
    for trial in range(100):
        net, _ = random_instance(rng, n_min=5, n_max=5,
                                 aggressive=(trial % 2 == 0))
        candidates = [arc_candidate(net, arc, float(rng.uniform(0.1, 2.0)))
                      for arc in net.arcs]
        result = reduced_search(net, candidates)
        payoffs = [solve_general(net, c).payoff for c in candidates]
        assert result.payoff == pytest.approx(max(payoffs),
                                              rel=1e-9, abs=1e-12)

    net = ring_with_chord()
    catalog = AdvertiserCatalog(
        arc_based={arc: 0.4 for arc in net.arcs}, location_based={},
        budget=1)
    from resistive_pricing import select_arc_advertiser
    chosen = select_arc_advertiser(net, catalog).chosen
    assert chosen in {(1, 4), (4, 1)}
    assert time.monotonic() - t0 < 60.0


def test_criterion_08_extended_consistency_and_monotonicity():
    """Loose capacity and prohibitive empty-routing reduce to the basic
    model; payoff is monotone across the capacity and cost grids."""
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    for _ in range(50):
        net, a = random_instance(rng, n_min=3, n_max=6)
        total = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=1e6, psi=10.0 * total,
                                demand=DemandModel.uniform())
        ext = solve_extended(net, a, params)
        basic = solve_general(net, a)
        for arc in net.arcs:
            assert float(ext.prices[arc]) == pytest.approx(
                float(basic.prices[arc]), abs=1e-5)

    net, catalog = scaled_commuter(seed=1)
    best_loc = max(sorted(catalog.location_based),
                   key=lambda k: len(catalog.location_based[k]))
    ad = location_candidate(net, best_loc, catalog.location_based[best_loc])

    psi_payoffs = []
    for psi in range(40, 281, 40):
        params = ExtendedParams(eta=0.8, psi=float(psi),
                                demand=DemandModel.uniform())
        psi_payoffs.append(solve_extended(net, ad, params).payoff)
    for lo, hi in zip(psi_payoffs, psi_payoffs[1:]):
        assert hi >= lo - 1e-6

    eta_payoffs = []
    for eta10 in range(1, 11):
        params = ExtendedParams(eta=eta10 / 10.0, psi=300.0,
                                demand=DemandModel.uniform())
        eta_payoffs.append(solve_extended(net, ad, params).payoff)
    for hi, lo in zip(eta_payoffs, eta_payoffs[1:]):
        assert lo <= hi + 1e-6
    assert time.monotonic() - t0 < 300.0


def test_criterion_09_strategy_property_on_synthetic_instances():
    """Resistance-based selection beats the randomized mean on every
    synthetic commuter instance; the gap to optimal is reported.

    The paper-scale dataset numbers are not reproducible without the
    proprietary rides, so this asserts the qualitative property at
    psi = 0.5 * total vehicle mass, c = 0.6, eta = 0.8, d ~ Exp(0.4).
    """
    t0 = time.monotonic()
    gaps = {"uniform": [], "exponential": []}
    for seed in range(20):
        net, catalog = synth_instance(15, 0.3, seed=seed, profile="commuter")
        total = float((net.arc_demand * net.arc_time).sum())
        for kind in ("uniform", "exponential"):
            demand = DemandModel.uniform() if kind == "uniform" \
                else DemandModel.exponential(2.0)
            params = ExtendedParams(eta=0.8, psi=0.5 * total, demand=demand)
            comparison = strategy_compare(net, catalog, mode="location",
                                          params=params, seed=seed,
                                          trials=100)
            res = comparison.outcome("resistance")
            ran = comparison.outcome("random")
            assert res.payoff >= ran.payoff - 1e-9, \
                f"seed {seed} {kind}: resistance below randomized mean"
            gaps[kind].append(res.gap_to_optimal)
    from conftest import record_note
    med_uniform = float(np.median(gaps["uniform"]))
    med_exp = float(np.median(gaps["exponential"]))
    record_note(f"criterion 9: median gap to optimal - uniform "
                f"{med_uniform:.4%}, exponential {med_exp:.4%} "
                f"(target <= 10%)")
    assert med_uniform <= 0.10
    assert med_exp <= 0.10
    assert time.monotonic() - t0 < 600.0


def test_criterion_10_determinism(tmp_path, monkeypatch):
    """Stochastic commands re-run with the same seed are byte-identical."""
    t0 = time.monotonic()
    monkeypatch.chdir(tmp_path)
    main(["synth", "--n", "10", "--density", "0.4", "--profile", "commuter",
          "--seed", "3", "--out", "net.json", "--advertisers-out",
          "ads.json"])
    main(["synth", "--n", "10", "--density", "0.4", "--profile", "commuter",
          "--seed", "3", "--out", "net2.json", "--advertisers-out",
          "ads2.json"])
    assert Path("net.json").read_bytes() == Path("net2.json").read_bytes()
    assert Path("ads.json").read_bytes() == Path("ads2.json").read_bytes()

    sel = ["select", "--network", "net.json", "--advertisers", "ads.json",
           "--mode", "location", "--strategy", "random", "--seed", "21",
           "--out", "sel1.csv"]
    assert main(sel) == 0
    sel[-1] = "sel2.csv"
    assert main(sel) == 0
    assert Path("sel1.csv").read_bytes() == Path("sel2.csv").read_bytes()

    sweep = ["sweep-psi", "--network", "net.json", "--advertisers",
             "ads.json", "--psi-grid", "20:40:20", "--eta", "0.8",
             "--trials", "25", "--seed", "7", "--out", "sw1.csv"]
    assert main(sweep) == 0
    sweep[-1] = "sw2.csv"
    assert main(sweep) == 0
    assert Path("sw1.csv").read_bytes() == Path("sw2.csv").read_bytes()
    assert time.monotonic() - t0 < 120.0
