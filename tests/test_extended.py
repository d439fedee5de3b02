import dataclasses
import hashlib
import pickle
import warnings

import numpy as np
import pytest

from resistive_pricing import (
    DemandModel,
    ExtendedParams,
    Infeasible,
    InfeasiblePoint,
    NoConvergence,
    arc_candidate,
    location_candidate,
    payoff_extended,
    solve_extended,
    solve_general,
    strategy_compare,
    synth_instance,
    validate_network,
)
from resistive_pricing import extended
from resistive_pricing.extended import (
    IPM_TOL,
    _interior_point,
    _solution,
    _solve_rows,
    routing,
)
from resistive_pricing.selection import _compare_grid
from resistive_pricing.network import arc_ads, strong_classes

from gen import random_ads, random_instance
from oracles import (
    arcs_off_cycles,
    enumerate_extended_uniform,
    duality_gap,
)


def uniform_params(net, psi_frac=10.0, eta=1e6):
    total = float((net.arc_demand * net.arc_time).sum())
    return ExtendedParams(eta=eta, psi=psi_frac * total,
                          demand=DemandModel.uniform())


def strong_classes_by_dfs(n, pairs):
    """Mask of the node pairs that reach each other, one depth-first
    search per start node."""
    out = [[] for _ in range(n)]
    for u, v in pairs.tolist():
        out[u].append(v)
    reach = np.eye(n, dtype=bool)
    for start in range(n):
        stack = [start]
        while stack:
            for v in out[stack.pop()]:
                if not reach[start, v]:
                    reach[start, v] = True
                    stack.append(v)
    return reach & reach.T


def test_strong_classes_match_dfs():
    """Routing graphs of random networks with extra empty pairs, and
    sparse directed graphs with isolated nodes."""
    rng = np.random.default_rng(31)
    singletons = multi = 0
    for draw in range(400):
        if draw % 2:
            net = random_instance(rng, aggressive=draw % 4 == 1,
                                  n_min=2, n_max=10)[0]
            n = net.n_locations
            extra = [(*rng.integers(n, size=2), rng.uniform(0.5, 3))
                     for _ in range(rng.integers(0, 4))]
            pairs = validate_network(
                net.demand, net.travel_time, net.unit_cost,
                [e for e in extra if e[0] != e[1]]).pair_array
        else:
            n = int(rng.integers(1, 11))
            pairs = np.argwhere((rng.random((n, n)) < 0.15) & ~np.eye(
                n, dtype=bool))
        classes = strong_classes(n, pairs)
        assert np.array_equal(classes, strong_classes_by_dfs(n, pairs))
        sizes = classes.sum(axis=1)
        singletons += int((sizes == 1).sum())
        multi += int((sizes > 1).sum())
    assert singletons > 100 and multi > 100


class TestDemandModel:
    def test_uniform_remaining(self):
        d = DemandModel.uniform()
        assert d.remaining(0.25) == pytest.approx(0.75)
        assert d.remaining(-0.5) == pytest.approx(1.5)
        assert d.remaining(1.7) == 0.0

    def test_exponential_remaining(self):
        d = DemandModel.exponential(2.0)
        assert d.remaining(0.5) == pytest.approx(np.exp(-1.0))

    @pytest.mark.parametrize("eta, psi, gamma", [
        (np.nan, 1.0, 2.0), (np.inf, 1.0, 2.0), (1.0, np.nan, 2.0),
        (1.0, np.inf, 2.0), (1.0, 1.0, np.nan), (1.0, 1.0, np.inf),
        (1.0, 1.0, 1e6)],
        ids=["eta-nan", "eta-inf", "psi-nan", "psi-inf", "gamma-nan",
             "gamma-inf", "gamma-exp-overflows"])
    def test_non_finite_rejected(self, eta, psi, gamma):
        """NaN, infinity, and a gamma whose e^gamma overflows are usage
        errors, not inputs the solver meets."""
        with pytest.raises(ValueError):
            ExtendedParams(eta=eta, psi=psi,
                           demand=DemandModel.exponential(gamma))

    def test_largest_gamma_accepted(self):
        gamma = np.log(np.finfo(float).max)
        assert np.isfinite(np.exp(DemandModel.exponential(gamma).gamma))

    def test_validation(self):
        with pytest.raises(ValueError):
            DemandModel("gamma")
        with pytest.raises(ValueError):
            DemandModel.exponential(0.0)
        with pytest.raises(ValueError):
            ExtendedParams(eta=0.0, psi=1.0, demand=DemandModel.uniform())
        with pytest.raises(ValueError):
            ExtendedParams(eta=1.0, psi=-1.0, demand=DemandModel.uniform())


class TestPayoffExtended:
    def test_cap_prices_zero_payoff(self):
        rng = np.random.default_rng(0)
        net, a = random_instance(rng)
        params = uniform_params(net)
        n = net.n_locations
        assert payoff_extended(net, a, params, np.ones((n, n)),
                               np.zeros((n, n))) == pytest.approx(0.0)

    def test_cycle_empty_flow_costs_linearly(self):
        demand = np.zeros((3, 3))
        demand[0, 1] = demand[1, 2] = demand[2, 0] = 1.0
        travel = np.full((3, 3), 2.0)
        net = validate_network(demand, travel, 0.6)
        params = ExtendedParams(eta=0.8, psi=100.0,
                                demand=DemandModel.uniform())
        n = 3
        base = payoff_extended(net, None, params, np.ones((n, n)),
                               np.zeros((n, n)))
        w = np.zeros((n, n))
        delta = 0.1
        for i, j in net.arcs:
            w[i, j] = delta
        shifted = payoff_extended(net, None, params, np.ones((n, n)), w)
        expected_drop = sum(net.travel_time[i, j] * delta * 0.8 * 0.6
                            for i, j in net.arcs)
        assert base - shifted == pytest.approx(expected_drop, abs=1e-12)

    def test_exponential_plugin_contribution(self):
        demand = np.array([[0, 1.0], [1.0, 0]])
        net = validate_network(demand, np.ones((2, 2)), 0.6)
        params = ExtendedParams(eta=0.8, psi=100.0,
                                demand=DemandModel.exponential(2.0))
        prices = np.full((2, 2), 0.5)
        value = payoff_extended(net, None, params, prices, np.zeros((2, 2)))
        assert value == pytest.approx(2.0 * np.exp(-1.0) * (0.5 - 0.6))

    def test_infeasible_points_named(self):
        demand = np.array([[0, 1.0], [1.0, 0]])
        net = validate_network(demand, np.ones((2, 2)), 0.6)
        params = ExtendedParams(eta=0.8, psi=0.05,
                                demand=DemandModel.uniform())
        with pytest.raises(InfeasiblePoint, match="capacity"):
            payoff_extended(net, None, params, np.full((2, 2), 0.5),
                            np.zeros((2, 2)))
        params = ExtendedParams(eta=0.8, psi=100.0,
                                demand=DemandModel.uniform())
        bad_prices = np.zeros((2, 2))
        bad_prices[0, 1] = 0.2  # unbalanced demand
        with pytest.raises(InfeasiblePoint, match="balance"):
            payoff_extended(net, None, params, bad_prices, np.zeros((2, 2)))
        w = np.zeros((2, 2))
        w[0, 1] = -0.5
        with pytest.raises(InfeasiblePoint, match="negative"):
            payoff_extended(net, None, params, np.ones((2, 2)), w)

    def test_solver_point_accepted_at_large_demand(self):
        net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
        scaled = validate_network(net.demand * 1e8, net.travel_time,
                                  net.unit_cost)
        mass = float((scaled.arc_demand * scaled.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=0.5 * mass,
                                demand=DemandModel.exponential(2.0))
        sol = solve_extended(scaled, None, params, seed=0)
        value = payoff_extended(scaled, None, params, sol.prices,
                                sol.empty_flows)
        assert value == pytest.approx(sol.payoff, rel=1e-9)

    def test_small_imbalance_rejected_at_unit_scale(self):
        demand = np.array([[0, 1.0], [1.0, 0]])
        net = validate_network(demand, np.ones((2, 2)), 0.6)
        params = ExtendedParams(eta=0.8, psi=100.0,
                                demand=DemandModel.uniform())
        prices = np.full((2, 2), 0.5)
        prices[1, 0] += 1e-5
        with pytest.raises(InfeasiblePoint, match="balance"):
            payoff_extended(net, None, params, prices, np.zeros((2, 2)))


class TestUniformSolver:
    def test_reduces_to_basic_model(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            net, a = random_instance(rng, n_min=3, n_max=6)
            sol = solve_extended(net, a, uniform_params(net))
            basic = solve_general(net, a)
            for arc in net.arcs:
                assert sol.prices[arc] == pytest.approx(
                    float(basic.prices[arc]), abs=1e-5)
            assert sol.empty_flows.max() <= 1e-8
            assert not sol.local_only

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 8:
            net, a = random_instance(rng, n_min=3, n_max=4)
            if len(net.arcs) > 5:
                continue
            total = float((net.arc_demand * net.arc_time).sum())
            params = ExtendedParams(eta=0.7, psi=0.6 * total,
                                    demand=DemandModel.uniform())
            sol = solve_extended(net, a, params)
            _, oracle_val = enumerate_extended_uniform(net, a, params)
            assert sol.payoff == pytest.approx(oracle_val, rel=1e-7, abs=1e-9)
            checked += 1

    def test_beats_random_feasible_points(self):
        """No feasible point beats the solve: the Lagrangian-dual bound,
        which caps the payoff of every feasible point, lies within 1e-8
        of its payoff (2.9e-13 on this draw)."""
        rng = np.random.default_rng(3)
        net, a = random_instance(rng, n_min=3, n_max=5)
        total = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=0.4 * total,
                                demand=DemandModel.uniform())
        sol = solve_extended(net, a, params)
        assert -1e-12 <= duality_gap(net, a, params, sol) <= 1e-8

    def test_capacity_monotone_small_grid(self):
        net, _ = synth_instance(8, 0.4, seed=2, profile="commuter")
        net = validate_network(net.demand * 4.0, net.travel_time,
                               net.unit_cost)
        total = float((net.arc_demand * net.arc_time).sum())
        payoffs = []
        for frac in (0.1, 0.25, 0.5, 1.0):
            params = ExtendedParams(eta=0.8, psi=frac * total,
                                    demand=DemandModel.uniform())
            payoffs.append(solve_extended(net, None, params).payoff)
        for lo, hi in zip(payoffs, payoffs[1:]):
            assert hi >= lo - 1e-6

    def test_eta_monotone_small_grid(self):
        net, _ = synth_instance(8, 0.4, seed=2, profile="commuter")
        total = float((net.arc_demand * net.arc_time).sum())
        payoffs = []
        for eta in (0.1, 0.4, 0.7, 1.0):
            params = ExtendedParams(eta=eta, psi=2.0 * total,
                                    demand=DemandModel.uniform())
            payoffs.append(solve_extended(net, None, params).payoff)
        for hi, lo in zip(payoffs, payoffs[1:]):
            assert lo <= hi + 1e-6

    def test_off_arc_empty_pair_unlocks_payoff(self):
        """A one-way arc can only be served when empty vehicles return."""
        demand = np.array([[0, 1.0], [0.0, 0]])
        net = validate_network(demand, np.ones((2, 2)), 0.6)
        a = np.zeros((2, 2))
        a[0, 1] = 1.0
        params = ExtendedParams(eta=0.8, psi=50.0,
                                demand=DemandModel.uniform())
        closed = solve_extended(net, a, params)
        assert closed.payoff == pytest.approx(0.0, abs=1e-9)
        with_pair = solve_extended(
            validate_network(demand, np.ones((2, 2)), 0.6, [(1, 0, 1.0)]),
            a, params)
        # optimum p = 0.54: (1-p)(p + 1 - c) - 0.48 (1-p)
        assert with_pair.payoff == pytest.approx(0.46 * 0.46, abs=1e-8)
        assert with_pair.empty_flows[1, 0] == pytest.approx(0.46, abs=1e-8)


def aggressive_uniform_draws():
    """300 one-way-heavy draws, many with off-cycle arcs, across capacity
    and empty-cost ranges: (net, a, params, vehicle mass) each."""
    rng = np.random.default_rng(2026)
    for _ in range(300):
        net, a = random_instance(rng, aggressive=True, n_min=2, n_max=9)
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(
            eta=float(rng.uniform(0.1, 1.0)),
            psi=float(rng.uniform(0.05, 2.0)) * mass,
            demand=DemandModel.uniform())
        yield net, a, params, mass


def assert_eta_limit_is_basic(net, a):
    """With empty routing dearer than any dual difference and slack
    capacity, w = 0 and the uniform extended problem is the basic one,
    which the active-set engine solves exactly: the two engines share no
    solver code."""
    basic = solve_general(net, a)
    lam = np.asarray(basic.duals_lambda)
    mass = float((net.arc_demand * net.arc_time).sum())
    params = ExtendedParams(
        eta=10.0 * (float(lam.max() - lam.min()) + 1.0)
        / (net.unit_cost * float(net.arc_time.min())),
        psi=10.0 * (4.0 * mass + 10.0),
        demand=DemandModel.uniform())
    sol = solve_extended(net, a, params)
    assert abs(sol.payoff - basic.payoff) \
        <= 1e-9 * max(abs(basic.payoff), 1e-3 * mass)
    on = net.demand > 0
    assert np.abs(sol.prices[on] - basic.prices[on]).max() <= 1e-7


def enumerated_payoff(net, a, params):
    """The enumeration oracle's optimum (at most 5 arcs)."""
    return enumerate_extended_uniform(
        net, np.zeros_like(net.demand) if a is None else a, params)[1]


class TestUniformInteriorPoint:
    def test_small_aggressive_draws_match_enumeration(self):
        """Every aggressive draw with at most 5 arcs agrees with the
        enumeration oracle at its own eta and psi, capacity binding on
        some of them."""
        checked = binding = 0
        for net, a, params, mass in aggressive_uniform_draws():
            if len(net.arcs) > 5:
                continue
            sol = solve_extended(net, a, params)
            ref = enumerated_payoff(net, a, params)
            # a payoff of 0 (every arc off-cycle) is compared at mass scale
            assert abs(sol.payoff - ref) <= 1e-9 * max(abs(ref), 1e-3 * mass)
            assert sol.kkt_residual < 1e-8
            assert not sol.local_only
            checked += 1
            binding += sol.feasibility_slacks["capacity"] <= 1e-9 * params.psi
        assert checked == 95 and binding >= 20

    def test_aggressive_draws_at_eta_limit(self):
        """Every aggressive draw, whatever its size, at the eta-limit."""
        for net, a, _, _ in aggressive_uniform_draws():
            assert_eta_limit_is_basic(net, a)

    def test_eta_limit_matches_basic_pricing(self):
        """400 more draws, every other one aggressive, at the eta-limit."""
        rng = np.random.default_rng(4)
        for k in range(400):
            net, a = random_instance(rng, aggressive=k % 2 == 1, n_min=2,
                                     n_max=9)
            assert_eta_limit_is_basic(net, a)

    def test_off_cycle_arc_priced_at_cap(self):
        """Arc (0, 1) is on no directed cycle: price exactly 1, no flow."""
        demand = np.zeros((3, 3))
        demand[0, 1] = 1.0
        demand[1, 2] = demand[2, 1] = 0.5
        net = validate_network(demand, np.ones((3, 3)), 0.3)
        params = ExtendedParams(eta=0.8, psi=10.0,
                                demand=DemandModel.uniform())
        sol = solve_extended(net, None, params)
        assert sol.prices[0, 1] == 1.0
        assert sol.empty_flows[0, 1] == 0.0
        assert sol.prices[1, 2] < 1.0 and sol.prices[2, 1] < 1.0
        assert sol.payoff == pytest.approx(
            enumerated_payoff(net, None, params), rel=1e-9)

    def test_drop_splits_routing_graph(self):
        """Dropping the bridge (1, 2) leaves two weak components."""
        demand = np.zeros((4, 4))
        demand[0, 1], demand[1, 0] = 1.0, 0.6
        demand[2, 3], demand[3, 2] = 0.8, 1.2
        demand[1, 2] = 2.0
        net = validate_network(demand, np.full((4, 4), 1.5), 0.4)
        a = np.where(demand > 0, 0.2, 0.0)
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.5, psi=0.4 * mass,
                                demand=DemandModel.uniform())
        sol = solve_extended(net, a, params)
        assert sol.prices[1, 2] == 1.0
        prices = np.where(net.demand > 0, sol.prices, 0.0)
        assert payoff_extended(net, a, params, prices, sol.empty_flows) \
            == pytest.approx(sol.payoff, rel=1e-9)
        assert sol.payoff == pytest.approx(
            enumerated_payoff(net, a, params), rel=1e-9)
        assert sol.kkt_residual < 1e-8

    @pytest.mark.parametrize("psi", [206.0, 220.0, 244.0])
    def test_sweep_network_arc_candidate_solves(self, psi):
        """The sweep network of the pipeline benchmark with its arc
        candidate (8, 3), capacity slack (the vehicle mass is 94.6).  A
        predictor-corrector loop ended at the iteration cap here, primal
        feasible, while its scaled gap repeated the same four values."""
        net, catalog = synth_instance(10, 0.3, seed=7, profile="commuter")
        a = arc_candidate(net, (8, 3), catalog.arc_based[(8, 3)])
        params = ExtendedParams(eta=0.8, psi=psi,
                                demand=DemandModel.uniform())
        sol = solve_extended(net, a, params)
        assert sol.kkt_residual <= IPM_TOL
        assert -1e-12 <= duality_gap(net, a, params, sol) <= 1e-8

    @pytest.mark.parametrize("n, seed, frac, index", [
        *((10, 7, frac, 24) for frac in (2.2, 2.4)),
        *((15, 4, 2.0, index)
          for index in (1, 2, 3, 10, 21, 24, 33, 34, 40, 56, 58)),
        *((15, 4, 2.2, index) for index in (2, 3, 21, 33)),
        *((15, 4, 2.4, index) for index in (2, 3, 10, 21, 33, 34, 58)),
    ])
    def test_arc_candidate_with_slack_capacity_solves(self, n, seed, frac,
                                                      index):
        """Commuter synth networks with arc candidate ``index`` in sorted
        order, psi = ``frac`` x the vehicle mass, eta = 0.8: the 24 solves
        of a 44 160-solve scan on which a predictor-corrector loop cycled
        to the iteration cap at a primal-feasible point.  Each answer is
        certified by the Lagrangian-dual bound."""
        net, catalog = synth_instance(n, 0.3, seed=seed, profile="commuter")
        arc = sorted(catalog.arc_based)[index]
        a = arc_candidate(net, arc, catalog.arc_based[arc])
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=frac * mass,
                                demand=DemandModel.uniform())
        sol = solve_extended(net, a, params)
        assert sol.kkt_residual <= IPM_TOL
        assert -1e-12 <= duality_gap(net, a, params, sol) <= 1e-8

    def test_payoff_scale_invariant(self):
        net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
        payoffs = []
        for k in range(-6, 7):
            scaled = validate_network(net.demand * 10.0 ** k,
                                      net.travel_time, net.unit_cost)
            mass = float((scaled.arc_demand * scaled.arc_time).sum())
            params = ExtendedParams(eta=0.8, psi=0.5 * mass,
                                    demand=DemandModel.uniform())
            sol = solve_extended(scaled, None, params)
            assert sol.kkt_residual < 1e-8
            payoffs.append(sol.payoff / 10.0 ** k)
        assert payoffs == pytest.approx([payoffs[6]] * 13, rel=1e-9)


class TestExponentialSolver:
    def test_seed_optional(self):
        """The seed is optional and changes no bit of the answer."""
        rng = np.random.default_rng(1)
        net, a = random_instance(rng, n_min=3, n_max=4, both_dirs=1.1)
        total = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=total,
                                demand=DemandModel.exponential(2.0))
        unseeded = solve_extended(net, a, params)
        seeded = solve_extended(net, a, params, seed=0)
        for name in ("prices", "empty_flows"):
            assert getattr(unseeded, name).tobytes() \
                == getattr(seeded, name).tobytes()
        assert unseeded.payoff == seeded.payoff
        assert unseeded.kkt_residual == seeded.kkt_residual

    def test_deterministic_and_stationary(self):
        net, _ = synth_instance(6, 0.5, seed=4, profile="symmetric")
        a = random_ads(np.random.default_rng(2), net, hi=0.4)
        total = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=0.6 * total,
                                demand=DemandModel.exponential(2.0))
        first = solve_extended(net, a, params, seed=11)
        second = solve_extended(net, a, params, seed=11)
        assert first.payoff == second.payoff
        assert np.array_equal(first.empty_flows, second.empty_flows)
        assert first.local_only
        assert first.kkt_residual < 1e-6
        prices = np.where(net.demand > 0, first.prices, 0.0)
        assert payoff_extended(net, a, params, prices, first.empty_flows) \
            == pytest.approx(first.payoff, rel=1e-6, abs=1e-8)

    def test_feasibility_slacks_reported(self):
        net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
        total = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.5, psi=0.5 * total,
                                demand=DemandModel.exponential(2.0))
        sol = solve_extended(net, None, params, seed=0)
        slacks = sol.feasibility_slacks
        assert slacks["capacity"] >= -1e-8
        assert slacks["flow_balance"] < 1e-7
        assert slacks["empty_flow_min"] >= -1e-10

    def test_capacity_relief_does_not_hurt(self):
        net, _ = synth_instance(6, 0.5, seed=9, profile="commuter")
        net = validate_network(net.demand * 4.0, net.travel_time,
                               net.unit_cost)
        total = float((net.arc_demand * net.arc_time).sum())
        payoffs = []
        for frac in (0.15, 0.4, 0.9):
            params = ExtendedParams(eta=0.8, psi=frac * total,
                                    demand=DemandModel.exponential(2.0))
            payoffs.append(solve_extended(net, None, params, seed=1).payoff)
        for lo, hi in zip(payoffs, payoffs[1:]):
            assert hi >= lo - 1e-9

    def test_large_psi_not_reported_infeasible(self):
        """Scaling demand and psi by 1e3 is not reported infeasible."""
        net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
        payoffs = []
        for k in (1.0, 1e3):
            scaled = validate_network(net.demand * k, net.travel_time,
                                      net.unit_cost)
            total = float((scaled.arc_demand * scaled.arc_time).sum())
            params = ExtendedParams(eta=0.8, psi=2.0 * total,
                                    demand=DemandModel.exponential(2.0))
            payoffs.append(solve_extended(scaled, None, params, seed=0).payoff)
        assert payoffs[1] == pytest.approx(1e3 * payoffs[0], rel=1e-6)


def criterion9_ops(seed, demand=DemandModel.exponential(2.0)):
    """Criterion 9's solves under ``demand`` (by default exponential) on
    one synthetic instance."""
    net, catalog = synth_instance(15, 0.3, seed=seed, profile="commuter")
    total = float((net.arc_demand * net.arc_time).sum())
    params = ExtendedParams(eta=0.8, psi=0.5 * total, demand=demand)
    return [(net, location_candidate(net, k, catalog.location_based[k]),
             params) for k in sorted(catalog.location_based)]


class TestExponentialInteriorPoint:
    def test_infeasible_exactly_when_an_arc_is_off_every_cycle(self):
        """Random one-way-heavy networks: Infeasible iff some arc lies on
        no directed cycle; otherwise the answer is feasible and optimal."""
        rng = np.random.default_rng(2024)
        raised = 0
        for _ in range(400):
            net, a = random_instance(rng, n_min=2, n_max=7)
            mass = float((net.arc_demand * net.arc_time).sum())
            params = ExtendedParams(
                eta=float(rng.uniform(0.1, 1.0)),
                psi=float(rng.uniform(0.1, 2.0)) * mass,
                demand=DemandModel.exponential(float(rng.uniform(0.5, 4.0))))
            if arcs_off_cycles(net, []):
                with pytest.raises(Infeasible):
                    solve_extended(net, a, params, seed=0)
                raised += 1
                continue
            sol = solve_extended(net, a, params, seed=0)
            prices = np.where(net.demand > 0, sol.prices, 0.0)
            assert payoff_extended(net, a, params, prices, sol.empty_flows) \
                == pytest.approx(sol.payoff, rel=1e-9, abs=1e-12)
            assert sol.feasibility_slacks["capacity"] >= -1e-8
            assert sol.kkt_residual < 1e-8
            assert abs(duality_gap(net, a, params, sol)) <= 1e-8
        assert 0 < raised < 400

    def test_arc_at_its_upper_end_solves(self):
        """Draws 673 and 1431 of a random exponential recipe price an arc
        at -1, the upper end of its box.  Recomputing the slack hi - x
        rounded it to 0 there, which stopped the loop with NoConvergence at
        a primal-feasible point; the loop now carries its slacks."""
        rng = np.random.default_rng(77)
        for draw in range(1432):
            net, a = random_instance(rng, aggressive=True, n_min=2, n_max=9)
            gamma = float(np.exp(rng.uniform(np.log(0.1), np.log(50))))
            mass = float((net.arc_demand * net.arc_time).sum())
            psi = mass * float(np.exp(rng.uniform(np.log(0.01), np.log(5))))
            extra = []
            for _ in range(int(rng.integers(0, 4))):
                i, j = (int(v) for v in rng.integers(net.n_locations, size=2))
                t = float(rng.uniform(0.5, 3))
                if i != j:
                    extra.append((i, j, t))
            eta = float(rng.uniform(0.1, 1))
            if draw not in (673, 1431):
                continue
            params = ExtendedParams(eta=eta, psi=psi,
                                    demand=DemandModel.exponential(gamma))
            net = validate_network(net.demand, net.travel_time,
                                   net.unit_cost, extra)
            sol = solve_extended(net, a, params)
            assert sol.kkt_residual < IPM_TOL
            assert float(net.on_arcs(sol.prices).min()) \
                == pytest.approx(-1.0, abs=1e-9)
            assert payoff_extended(net, a, params, sol.prices,
                                   sol.empty_flows) \
                == pytest.approx(sol.payoff, rel=1e-9)

    def test_tiny_capacity_infeasible(self):
        net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=1e-9 * mass,
                                demand=DemandModel.exponential(2.0))
        with pytest.raises(Infeasible, match="below the vehicle mass"):
            solve_extended(net, None, params, seed=0)

    def test_infeasible_past_the_checks_made_before_iterating(self):
        """Every arc is on a cycle and xi z_lo ~ 4.5e-5 < psi, but the
        return pair needs 100 z >= 4.5e-3 > psi: no balanced flow fits."""
        demand = np.zeros((2, 2))
        demand[0, 1] = 1.0
        net = validate_network(demand, np.ones((2, 2)), 0.5, [(1, 0, 100.0)])
        params = ExtendedParams(eta=0.8, psi=1e-3,
                                demand=DemandModel.exponential(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Infeasible, match="interior-point iterations"):
                solve_extended(net, None, params, seed=0)

    def test_iteration_cap_classified_by_primal_residual(self, monkeypatch):
        demand = np.zeros((2, 2))
        demand[0, 1] = 1.0
        net = validate_network(demand, np.ones((2, 2)), 0.5, [(1, 0, 100.0)])
        params = ExtendedParams(eta=0.8, psi=1e-3,
                                demand=DemandModel.exponential(1.0))
        monkeypatch.setattr("resistive_pricing.extended.IPM_MAX_ITER", 5)
        with pytest.raises(Infeasible, match="after 5 interior-point"):
            solve_extended(net, None, params, seed=0)
        # a feasible instance primal feasible after 4 iterations, done at 9
        net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=mass,
                                demand=DemandModel.exponential(2.0))
        monkeypatch.setattr("resistive_pricing.extended.IPM_MAX_ITER", 6)
        with pytest.raises(NoConvergence, match="after 6 interior-point"):
            solve_extended(net, None, params, seed=0)

    def test_off_cycle_arc_named_and_unlocked_by_empty_pair(self):
        """A one-way arc is infeasible until empty vehicles can return."""
        demand = np.zeros((3, 3))
        demand[0, 1] = 1.0
        demand[1, 2] = demand[2, 1] = 0.5
        net = validate_network(demand, np.ones((3, 3)), 0.6)
        params = ExtendedParams(eta=0.8, psi=10.0,
                                demand=DemandModel.exponential(2.0))
        with pytest.raises(Infeasible, match=r"arc \(0, 1\)"):
            solve_extended(net, None, params, seed=0)
        net = validate_network(demand, np.ones((3, 3)), 0.6, [(1, 0, 1.0)])
        sol = solve_extended(net, None, params, seed=0)
        assert sol.empty_flows[1, 0] == pytest.approx(
            np.exp(-2.0 * sol.prices[0, 1]), rel=1e-9)
        assert abs(duality_gap(net, None, params, sol)) <= 1e-8

    def test_capacity_binds_under_large_ads_and_gamma(self):
        """The per-arc optimum lies far beyond the capacity (z ~ e^60
        theta); the answer is the closed form z = psi / (xi + t)."""
        demand = np.zeros((2, 2))
        demand[1, 0] = 3.0
        net = validate_network(demand, np.full((2, 2), 2.4), 0.5,
                               [(0, 1, 2.0)])
        a = np.zeros((2, 2))
        a[1, 0] = 2.5
        params = ExtendedParams(eta=0.7, psi=1.8,
                                demand=DemandModel.exponential(33.0))
        sol = solve_extended(net, a, params, seed=0)
        z = 1.8 / (2.4 + 2.0)
        expected = 2.4 * z * 2.0 - 2.4 / 33.0 * z * np.log(z / 3.0) \
            - 0.7 * 0.5 * 2.0 * z
        assert sol.payoff == pytest.approx(expected, rel=1e-9)
        assert sol.empty_flows[0, 1] == pytest.approx(z, rel=1e-9)
        assert sol.kkt_residual < 1e-8

    def test_singular_newton_system_raises_no_convergence(self,
                                                          monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=mass,
                                demand=DemandModel.exponential(2.0))
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NoConvergence, match="singular"):
            solve_extended(net, None, params, seed=0)

    def test_seed_does_not_change_the_answer(self):
        """Seed 16, candidate 4 of criterion 9: the former multi-start
        solver returned 21.91413 with residual 1.1e-2 for seed 2."""
        net, a, params = criterion9_ops(16)[4]
        first = solve_extended(net, a, params, seed=0)
        second = solve_extended(net, a, params, seed=2)
        assert first.payoff == pytest.approx(21.933761, abs=1e-6)
        assert second.payoff == pytest.approx(first.payoff, rel=1e-9)
        assert second.kkt_residual < 1e-8

    def test_residual_and_payoff_scale_invariant(self):
        net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
        sols = []
        for k in (1.0, 1e3):
            scaled = validate_network(net.demand * k, net.travel_time,
                                      net.unit_cost)
            mass = float((scaled.arc_demand * scaled.arc_time).sum())
            params = ExtendedParams(eta=0.8, psi=2.0 * mass,
                                    demand=DemandModel.exponential(2.0))
            sols.append(solve_extended(scaled, None, params, seed=0))
        assert sols[0].kkt_residual < 1e-8
        assert sols[1].kkt_residual < 1e-8
        assert sols[1].payoff == pytest.approx(1e3 * sols[0].payoff,
                                               rel=1e-9)


class TestDualityCertificate:
    """The Lagrangian-dual bound of :func:`oracles.duality_gap` certifies
    solves of both demand curves without another solver."""

    @pytest.mark.parametrize("demand", [DemandModel.uniform(),
                                        DemandModel.exponential(2.0)],
                             ids=["uniform", "exp2"])
    @pytest.mark.parametrize("seed", range(4))
    def test_duality_gap_on_criterion9(self, seed, demand):
        for net, a, params in criterion9_ops(seed, demand):
            sol = solve_extended(net, a, params, seed=0)
            gap = duality_gap(net, a, params, sol)
            assert -1e-12 <= gap <= 1e-8

    def test_degenerate_uniform_instance(self):
        """The N = 6 instance on which the dense QP starts with every
        bound in its working set, at half the vehicle mass (1.9e-14)."""
        net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
        total = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=0.5 * total,
                                demand=DemandModel.uniform())
        sol = solve_extended(net, None, params)
        assert sol.kkt_residual < 1e-8
        assert -1e-12 <= duality_gap(net, None, params, sol) <= 1e-8


class TestReadOnlySolution:
    @pytest.mark.parametrize("demand", [DemandModel.uniform(),
                                        DemandModel.exponential(2.0)])
    def test_arrays_read_only_after_unpickling(self, demand):
        net, _ = synth_instance(6, 0.5, seed=4)
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=mass, demand=demand)
        sol = solve_extended(net, None, params, seed=0)
        for record in (sol, pickle.loads(pickle.dumps(sol))):
            for name in ("prices", "empty_flows"):
                with pytest.raises(ValueError):
                    getattr(record, name)[0, 1] = 5.0


def solution_digest(sol):
    """SHA-256 over every field of an ExtendedSolution, bit for bit."""
    h = hashlib.sha256()
    for name in ("prices", "empty_flows"):
        h.update(getattr(sol, name).tobytes())
    for value in (sol.payoff, sol.kkt_residual,
                  *(sol.feasibility_slacks[k]
                    for k in sorted(sol.feasibility_slacks))):
        h.update(np.float64(value).tobytes())
    h.update(bytes([sol.local_only]))
    return h.hexdigest()


def outcome(solve):
    """A solve's digest, or the (type, message) of what it raises."""
    try:
        return solution_digest(solve())
    except (Infeasible, NoConvergence) as exc:
        return type(exc), str(exc)


def mixed_scale_instance(index):
    """Draw ``index`` of the mixed-scale recipe and its own ad matrix:
    default_rng(2024), one aggressive random instance per draw, then each
    N x N entry's demand x 10^U(-6, 6) and travel time x 10^U(-3, 3)."""
    rng = np.random.default_rng(2024)
    for _ in range(index + 1):
        net, a = random_instance(rng, aggressive=True, n_min=3, n_max=10)
        n = net.n_locations
        demand = net.demand * 10 ** rng.uniform(-6, 6, (n, n))
        time = net.travel_time * 10 ** rng.uniform(-3, 3, (n, n))
    return validate_network(demand, time, net.unit_cost), a


def mixed_scale_draw(index):
    """The network of :func:`mixed_scale_instance`, without its ads."""
    return mixed_scale_instance(index)[0]


def ad_rows(net, ads):
    """The (K, arcs) per-arc ad revenues of K ad vectors, converted as
    solve_extended converts its one."""
    return np.array([arc_ads(net, a) for a in ads])


def solve_rows(net, ads, params):
    """The solution records of one batch of rows, as solve_extended
    builds its one row's."""
    rows = ad_rows(net, ads)
    return [_solution(net, a, p, *out)
            for a, p, out in zip(rows, params, _solve_rows(net, rows, params))]


class TestCandidateBatch:
    """A candidate set solved as one stack equals its single solves."""

    @staticmethod
    def assert_rows_match_single_solves(net, ads, params):
        batch = solve_rows(net, ads, [params] * len(ads))
        singles = [solve_extended(net, a, params) for a in ads]
        assert [solution_digest(s) for s in batch] \
            == [solution_digest(s) for s in singles]

    @pytest.mark.parametrize("demand, seeds", [
        (DemandModel.uniform(), range(4)),
        (DemandModel.exponential(2.0), range(20)),
    ], ids=["extended-uniform", "extended-exp"])
    def test_bench_pools_bit_for_bit(self, demand, seeds):
        """The 60 uniform and 300 exponential criterion-9 solves of the
        extended benchmark pools, one batch per instance."""
        for seed in seeds:
            net, catalog = synth_instance(15, 0.3, seed=seed,
                                          profile="commuter")
            total = float((net.arc_demand * net.arc_time).sum())
            params = ExtendedParams(eta=0.8, psi=0.5 * total, demand=demand)
            self.assert_rows_match_single_solves(
                net, [location_candidate(net, k, catalog.location_based[k])
                      for k in sorted(catalog.location_based)], params)

    def test_sweep_network_bit_for_bit(self):
        """The benchmark sweep's N = 10 seed-7 network at its 4 psi."""
        net, catalog = synth_instance(10, 0.3, seed=7, profile="commuter")
        mass = float((net.arc_demand * net.arc_time).sum())
        ads = [location_candidate(net, k, catalog.location_based[k])
               for k in sorted(catalog.location_based)]
        for frac in (0.25, 0.5, 0.75, 1.0):
            params = ExtendedParams(eta=0.8, psi=float(f"{frac * mass:.6g}"),
                                    demand=DemandModel.uniform())
            self.assert_rows_match_single_solves(net, ads, params)

    @pytest.mark.parametrize("demand", [DemandModel.uniform(),
                                        DemandModel.exponential(2.0)],
                             ids=["uniform", "exp"])
    def test_per_row_parameters_bit_for_bit(self, demand):
        """Rows with their own psi and eta, a grid of points times the
        benchmark sweep's candidates, each equal to its single solve."""
        net, catalog = synth_instance(10, 0.3, seed=7, profile="commuter")
        mass = float((net.arc_demand * net.arc_time).sum())
        ads = [location_candidate(net, k, catalog.location_based[k])
               for k in sorted(catalog.location_based)]
        grid = [ExtendedParams(eta=eta, psi=frac * mass, demand=demand)
                for frac, eta in ((0.25, 0.8), (1.0, 0.1), (0.5, 1.0))]
        rows = [(a, params) for params in grid for a in ads]
        batch = solve_rows(net, [a for a, _ in rows], [p for _, p in rows])
        assert [solution_digest(s) for s in batch] \
            == [solution_digest(solve_extended(net, a, p)) for a, p in rows]

    def test_rows_share_one_demand_curve(self):
        net, _ = synth_instance(6, 0.5, seed=4)
        rows = [ExtendedParams(eta=0.8, psi=10.0, demand=demand)
                for demand in (DemandModel.uniform(),
                               DemandModel.exponential(2.0))]
        with pytest.raises(ValueError, match="one demand curve"):
            _solve_rows(net, ad_rows(net, [None, None]), rows)

    def test_empty_pairs_and_order_bit_for_bit(self):
        """Off-arc empty pairs shared by every row; reversing the rows
        reverses the answers and changes no bit."""
        net, _ = synth_instance(8, 0.3, seed=3, profile="commuter")
        rng = np.random.default_rng(5)
        ads = [None] + [random_ads(rng, net, hi=1.0) for _ in range(6)]
        mass = float((net.arc_demand * net.arc_time).sum())
        off = [(i, j, 0.5) for i in range(8) for j in range(8)
               if i != j and net.demand[i, j] == 0][:6]
        net = validate_network(net.demand, net.travel_time, net.unit_cost,
                               off)
        for demand in (DemandModel.uniform(), DemandModel.exponential(2.0)):
            params = ExtendedParams(eta=0.8, psi=0.3 * mass, demand=demand)
            self.assert_rows_match_single_solves(net, ads, params)
            forward = solve_rows(net, ads, [params] * len(ads))
            backward = solve_rows(net, ads[::-1], [params] * len(ads))
            assert [solution_digest(s) for s in forward] \
                == [solution_digest(s) for s in backward[::-1]]

    @pytest.mark.parametrize("draw, demand, failing", [
        (4, DemandModel.exponential(2.0), [4]),
        (2, DemandModel.uniform(), [0, 1, 3]),
    ])
    def test_first_failing_row_raises_its_own_error(self, draw, demand,
                                                    failing):
        """Mixed-scale draws where only some candidates fail: the batch
        raises exactly the error (type and message, with that row's own
        iteration count) that a loop of single solves raises first, and
        the rows before it are unaffected."""
        net = mixed_scale_draw(draw)
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=0.5 * mass, demand=demand)
        ads = [None] + [random_ads(np.random.default_rng(s), net, hi=3.0)
                        for s in range(5)]
        singles = [outcome(lambda a=a: solve_extended(net, a, params))
                   for a in ads]
        assert [i for i, o in enumerate(singles)
                if isinstance(o, tuple)] == failing
        error, message = singles[failing[0]]
        with pytest.raises(error) as caught:
            _solve_rows(net, ad_rows(net, ads), [params] * len(ads))
        assert str(caught.value) == message
        # without the failing rows the batch solves, bit for bit
        kept = [a for i, a in enumerate(ads) if i not in failing]
        self.assert_rows_match_single_solves(net, kept, params)

    def test_singular_row_fails_alone(self, monkeypatch):
        """A row whose Newton system is singular fails with NoConvergence
        at its own iteration, and the rows beside it still solve."""
        net, catalog = synth_instance(6, 0.5, seed=4, profile="commuter")
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=mass,
                                demand=DemandModel.exponential(2.0))
        ads = [location_candidate(net, k, catalog.location_based[k])
               for k in sorted(catalog.location_based)][:3]
        solve, singular = np.linalg.solve, []

        def row_1_singular(a, b):
            """Row 1's first Newton matrix is singular."""
            if not singular:
                singular.append(a[1].tobytes())
            if any(m.tobytes() == singular[0] for m in a):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", row_1_singular)
        with pytest.raises(NoConvergence, match="singular interior-point "
                           "Newton system at iteration 0") as caught:
            _solve_rows(net, ad_rows(net, ads), [params] * len(ads))
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)
        singular.clear()
        monkeypatch.setattr(np.linalg, "solve", solve)
        self.assert_rows_match_single_solves(net, ads[::2], params)

    def test_singular_stall_is_infeasible(self, monkeypatch):
        """A singular Newton system at a primal-infeasible iterate whose
        bound multipliers exceed 1/eps times its gradient ends the row
        with Infeasible, as an infeasible instance ends, and the message
        reads the residual the stop test reads at that iterate; below that
        bound the row fails with NoConvergence.  Both rows' capacities fit
        the least vehicle mass but no balanced flow.  The multipliers of an
        infeasible row grow without bound; here they are that large from
        the start, where f' reads 1e20 or more higher (at z0 alone)."""
        net = validate_network(np.array([[0.0, 4.0], [1.0, 0.0]]),
                               np.ones((2, 2)), 0.6)
        route, demand, c = routing(net), DemandModel.exponential(2.0), 0.6
        th, xi = route.th, route.xi
        psi = np.array([[1.01], [1.2]]) * float((xi * th).sum()) \
            * np.exp(-10.0)
        a_vec = np.zeros((2, len(th)))
        lin, bend = demand.derivatives(th, xi, a_vec, c)
        z0 = demand.start(th, xi, a_vec, c, psi)

        def run(boost):
            def bent(z):
                rest, hess = bend(z)
                return (rest + boost if z is z0 else rest), hess
            return _interior_point(route, psi, np.full((2, 1), 0.8), c, lin,
                                   bent, *demand.box(th, xi, psi), z0)

        boost = np.array([[1e20], [3e20]])  # rows of their own residuals

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        with monkeypatch.context() as patch:
            patch.setattr(extended, "IPM_MAX_ITER", 0)
            capped = [str(error) for error in run(boost)]
        assert capped[0] != capped[1]
        assert all(text.startswith("after 0 interior-point iterations")
                   for text in capped)
        monkeypatch.setattr(np.linalg, "solve", singular)
        stalled = run(boost)
        assert [type(error) for error in stalled] == [Infeasible] * 2
        assert [str(error) for error in stalled] == capped
        assert all(isinstance(error.__cause__, np.linalg.LinAlgError)
                   for error in stalled)
        assert [(type(error), str(error)) for error in run(0.0)] == [
            (NoConvergence, "singular interior-point Newton system at "
             "iteration 0")] * 2

    def test_non_finite_row_stops_at_once(self):
        """A row whose gradient turns NaN stops on that pass, with a NaN
        residual in its error, and the row beside it still equals its own
        one-row solve."""
        net, _ = synth_instance(10, 0.3, seed=7, profile="commuter")
        mass = float((net.arc_demand * net.arc_time).sum())
        route, demand, c = routing(net), DemandModel.uniform(), net.unit_cost
        th, xi = route.th, route.xi
        psi, eta = np.array([[0.5], [0.25]]) * mass, np.full((2, 1), 0.8)
        a_vec = np.zeros((2, len(th)))
        lin, bend = demand.derivatives(th, xi, a_vec, c)
        z0 = demand.start(th, xi, a_vec, c, psi)
        passes = []

        def bent(z):
            rest, hess = bend(z)
            if z is not th and z is not z0:
                passes.append(len(z))
                if len(passes) == 4:  # iteration 3
                    rest = rest.copy()
                    rest[1] = np.nan
            return rest, hess

        rows = _interior_point(route, psi, eta, c, lin, bent,
                               *demand.box(th, xi, psi), z0)
        assert passes[:4] == [2] * 4 and set(passes[4:]) == {1}
        assert isinstance(rows[1], (Infeasible, NoConvergence))
        assert str(rows[1]).startswith("after 3 interior-point iterations")
        assert str(rows[1]).endswith("scaled KKT residual nan")
        alone = _interior_point(route, psi[:1], eta[:1], c, lin[:1], bend,
                                *demand.box(th, xi, psi[:1]), z0[:1])[0]
        assert [value.tobytes() for value in rows[0][:2]] \
            == [value.tobytes() for value in alone[:2]]
        assert rows[0][2] == alone[2]

class TestRoutingPerNetwork:
    """Each network builds the interior point's routing structure once, on
    its first extended solve or batch, and keeps it."""

    @pytest.fixture
    def class_builds(self, monkeypatch):
        """The pairs of each strong-class computation, in order."""
        built, true = [], extended.strong_classes

        def recording(nodes, pairs):
            built.append(pairs)
            return true(nodes, pairs)

        monkeypatch.setattr(extended, "strong_classes", recording)
        return built

    @staticmethod
    def sweep_network():
        net, catalog = synth_instance(10, 0.3, seed=7, profile="commuter")
        return net, catalog, float((net.arc_demand * net.arc_time).sum())

    def test_one_build_across_solves_selects_and_sweeps(self, class_builds):
        net, catalog, mass = self.sweep_network()
        seeds = [np.random.SeedSequence(3, spawn_key=(q,)) for q in range(2)]
        for demand in (DemandModel.uniform(), DemandModel.exponential(2.0)):
            params = ExtendedParams(eta=0.8, psi=0.5 * mass, demand=demand)
            solve_extended(net, None, params)
            strategy_compare(net, catalog, "location", params, seed=3,
                             trials=5)
            _compare_grid(net, catalog, "location",
                          [ExtendedParams(0.8, f * mass, demand)
                           for f in (0.25, 0.5)], seeds, 5)
            _compare_grid(net, catalog, "arc",
                          [ExtendedParams(eta, 0.5 * mass, demand)
                           for eta in (0.4, 0.8)], seeds, 5)
        assert len(class_builds) == 1
        assert class_builds[0] is net.pair_array
        assert routing(net) is routing(net)

    def test_equal_network_builds_its_own(self, class_builds):
        net, twin = self.sweep_network()[0], self.sweep_network()[0]
        assert routing(twin) is not routing(net)
        assert routing(twin) is routing(twin)
        assert [id(pairs) for pairs in class_builds] \
            == [id(twin.pair_array), id(net.pair_array)]

    def test_read_only_after_unpickling(self, class_builds):
        net, _, mass = self.sweep_network()
        params = ExtendedParams(eta=0.8, psi=0.5 * mass,
                                demand=DemandModel.uniform())
        sol = solve_extended(net, None, params)
        copy = pickle.loads(pickle.dumps(net))
        route = routing(copy)
        assert len(class_builds) == 1  # it came with the network
        arrays = [value for value in vars(route).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) == 9
        assert not any(value.flags.writeable for value in arrays)
        with pytest.raises(dataclasses.FrozenInstanceError):
            route.th = route.th.copy()
        assert solution_digest(solve_extended(copy, None, params)) \
            == solution_digest(sol)

    def test_off_cycle_arc_on_a_kept_structure(self, class_builds):
        """Arc (1, 2) lies on no directed cycle: price 1 and no flow under
        uniform demand, Infeasible naming it under exponential demand, on
        the first solve and on those that reuse its structure."""
        net = validate_network(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0],
                                         [0.0, 0.0, 0.0]]),
                               np.ones((3, 3)), 0.6)
        mass = float((net.arc_demand * net.arc_time).sum())
        uniform, exp = (ExtendedParams(eta=0.8, psi=mass, demand=demand)
                        for demand in (DemandModel.uniform(),
                                       DemandModel.exponential(2.0)))
        assert routing(net).off_cycle == (1, 2)
        for _ in range(2):
            sol = solve_extended(net, None, uniform)
            assert sol.prices[1, 2] == 1.0
            assert sol.empty_flows[1, 2] == 0.0
            with pytest.raises(Infeasible, match=r"arc \(1, 2\) lies on no "
                               "directed cycle"):
                solve_extended(net, None, exp)
        assert len(class_builds) == 1

