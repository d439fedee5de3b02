import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resistive_pricing import (
    AdRevenueVector,
    NoConvergence,
    NotApplicable,
    RegimeBoundary,
    arc_candidate,
    check_mu_zero_sufficient,
    find_cut_vertices,
    location_candidate,
    payoff_and_surplus,
    price_sensitivity,
    solve_closed_form,
    solve_general,
    synth_instance,
    validate_network,
)
from resistive_pricing import pricing
from resistive_pricing.electrical import component_border, potentials
from resistive_pricing.network import (
    arc_ads,
    connected_components,
    projection_weights,
)

from gen import quiet_instance, random_ads, random_instance
from oracles import (
    central_difference_sensitivity,
    enumerate_optimal_prices,
    next_active,
    pricing_objective,
    resistance_candidate,
    resistance_pricing_path,
)


def symmetric_triangle(cost=0.6, theta=1.0):
    demand = np.full((3, 3), float(theta))
    np.fill_diagonal(demand, 0.0)
    return validate_network(demand, np.ones((3, 3)), cost)


def mirror_tie_instance():
    """Two mirror-image copies of :func:`capped_instance` sharing node 0:
    arcs (2, 1) and (4, 3) tie exactly for the largest violated cap."""
    demand = np.zeros((5, 5))
    a = np.zeros((5, 5))
    for x, y in ((1, 2), (3, 4)):
        demand[0, x], demand[0, y] = 5.0, 0.1
        demand[x, 0], demand[x, y] = 0.2, 0.05
        demand[y, 0], demand[y, x] = 4.0, 0.3
        a[0, x] = 3.0
    return validate_network(demand, np.ones((5, 5)), 0.6), a


def capped_instance():
    """3-node instance whose optimum pins one arc at the cap."""
    demand = np.array([[0.0, 5.0, 0.1],
                       [0.2, 0.0, 0.05],
                       [4.0, 0.3, 0.0]])
    net = validate_network(demand, np.ones((3, 3)), 0.6)
    a = np.zeros((3, 3))
    a[0, 1] = 3.0
    return net, a


class TestClosedForm:
    def test_symmetric_network_flat_price(self):
        net = symmetric_triangle()
        sol = solve_closed_form(net)
        for arc in net.arcs:
            assert sol.prices[arc] == pytest.approx(0.8, abs=1e-12)

    def test_symmetric_pair_ad_revenue(self):
        net = symmetric_triangle()
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 0.4
        sol = solve_closed_form(net, a)
        assert sol.prices[0, 1] == pytest.approx(0.6, abs=1e-12)
        assert sol.prices[1, 0] == pytest.approx(0.6, abs=1e-12)
        assert sol.prices[1, 2] == pytest.approx(0.8, abs=1e-12)

    def test_not_applicable_signal(self):
        net, a = capped_instance()
        with pytest.raises(NotApplicable):
            solve_closed_form(net, a)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            net, a = random_instance(rng, n_min=4, n_max=4)
            try:
                sol = solve_closed_form(net, a)
            except NotApplicable:
                continue
            oracle_prices, oracle_val = enumerate_optimal_prices(net, a)
            for arc in net.arcs:
                assert sol.prices[arc] == pytest.approx(
                    oracle_prices[arc], abs=1e-6)
            assert sol.payoff == pytest.approx(oracle_val, abs=1e-8)

    def test_lambda_pinned_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        net, a = quiet_instance(rng)
        sol = solve_closed_form(net, a)
        assert sol.duals_lambda[-1] == 0.0
        # prices depend only on dual differences: rebuild from lambda
        for i, j in net.arcs:
            rebuilt = (1.0 - a[i, j] + net.unit_cost) / 2.0 \
                + (sol.duals_lambda[i] - sol.duals_lambda[j]) \
                / (2.0 * net.travel_time[i, j])
            assert rebuilt == pytest.approx(float(sol.prices[i, j]), abs=1e-9)


class TestGeneralSolver:
    def test_consistent_with_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            net, a = quiet_instance(rng)
            cf = solve_closed_form(net, a)
            gen = solve_general(net, a)
            assert gen.active_set == frozenset()
            for arc in net.arcs:
                assert gen.prices[arc] == pytest.approx(
                    float(cf.prices[arc]), abs=1e-12)

    def test_capped_arc_structure(self):
        net, a = capped_instance()
        sol = solve_general(net, a)
        assert len(sol.active_set) > 0
        oracle_prices, oracle_val = enumerate_optimal_prices(net, a)
        for arc in net.arcs:
            assert sol.prices[arc] == pytest.approx(oracle_prices[arc], abs=1e-6)
        for arc in sol.active_set:
            assert sol.prices[arc] == 1.0
            assert sol.duals_mu[arc] > 0
            assert sol.flows[arc] == 0.0
        assert sol.payoff == pytest.approx(oracle_val, abs=1e-8)

    def test_mu_zero_sufficient_implies_empty_active_set(self):
        net = symmetric_triangle()
        a = random_ads(np.random.default_rng(5), net, hi=0.3)
        a = np.maximum(a, a.T) * (net.demand > 0)  # symmetric ads
        assert check_mu_zero_sufficient(net, a)
        assert solve_general(net, a).active_set == frozenset()

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_flow_balance_and_kkt(self, seed):
        rng = np.random.default_rng(seed)
        net, a = random_instance(rng, aggressive=seed % 2 == 0)
        sol = solve_general(net, a)
        imbalance = sol.flows.sum(axis=1) - sol.flows.sum(axis=0)
        assert np.abs(imbalance).max() < 1e-8
        assert sol.kkt_residual < 1e-8
        for arc in net.arcs:
            assert sol.prices[arc] <= 1.0 + 1e-9
            assert sol.flows[arc] >= 0.0
            assert sol.duals_mu[arc] >= -1e-9
            if sol.duals_mu[arc] > 1e-9:
                assert sol.prices[arc] == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_payoff_twice_surplus(self, seed):
        rng = np.random.default_rng(seed)
        net, a = random_instance(rng, aggressive=True)
        sol = solve_general(net, a)
        assert sol.payoff == pytest.approx(2.0 * sol.consumer_surplus,
                                           rel=1e-8, abs=1e-12)

    def test_block_round_enters_every_violation(self, monkeypatch):
        """On the mirror-image instance the first block round enters both
        tied arcs, and the second candidate is already the KKT point."""
        steps = record_loop(monkeypatch)
        net, a = mirror_tie_instance()
        sol = solve_general(net, a)
        assert [capped_arcs(net, step[0]) for step in steps] \
            == [frozenset(), {(2, 1), (4, 3)}]
        assert sol.active_set == {(2, 1), (4, 3)}
        assert sol.kkt_residual < 1e-8

    def test_iteration_cap_raises_no_convergence(self, monkeypatch):
        """A candidate that always reports a violated cap and a negative
        multiplier never settles: every round flips every arc, and the loop
        stops after max(8, 4 |arcs|) candidates with a typed
        NoConvergence."""
        net, a = capped_instance()
        calls = []

        def restless(state):
            calls.append(state.capped.sum())
            arcs = len(state.ai)
            return np.full(arcs, 2.0), np.zeros(state.n), np.full(arcs, -1.0)

        monkeypatch.setattr(pricing, "_kkt_candidate", restless)
        cap = max(8, 4 * len(net.arcs))
        with pytest.raises(NoConvergence,
                           match=f"after {cap} active-set iterations"):
            solve_general(net, a)
        assert calls == [0, len(net.arcs)] * (cap // 2)

    def test_read_only_after_unpickling(self):
        net, a = capped_instance()
        sol = pickle.loads(pickle.dumps(solve_general(net, a)))
        assert sol.active_set == solve_general(net, a).active_set
        for name in ("prices", "flows", "duals_lambda", "duals_mu"):
            with pytest.raises(ValueError):
                getattr(sol, name)[0] = 0.0
        breakdown = pickle.loads(pickle.dumps(
            payoff_and_surplus(net, a, sol.prices)))
        for name in ("payoff_by_arc", "surplus_by_arc"):
            with pytest.raises(ValueError):
                getattr(breakdown, name)[0] = 0.0

    def test_payoff_monotone_in_ad_revenue(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            net, a = random_instance(rng)
            base = solve_general(net, a).payoff
            arc = net.arcs[int(rng.integers(len(net.arcs)))]
            bumped = a.copy()
            bumped[arc] += 0.05
            assert solve_general(net, bumped).payoff >= base - 1e-10


def capped_arcs(net, capped):
    return frozenset(arc for arc, on in zip(net.arcs, capped) if on)


def arc_matrix(net, values, fill):
    out = np.full((net.n_locations,) * 2, fill)
    for arc, value in zip(net.arcs, values):
        out[arc] = value
    return out


def record_loop(monkeypatch):
    """Record (state copy, prices, lambda, mu) for every candidate the
    pricing loop computes."""
    steps = []
    candidate = pricing._kkt_candidate

    def recording(state):
        out = candidate(state)
        snapshot = (state.capped.copy(), state.weights.copy(),
                    state.labels.copy(), state.border.copy())
        steps.append(snapshot + out)
        return out

    monkeypatch.setattr(pricing, "_kkt_candidate", recording)
    return steps


def check_loop_path(monkeypatch):
    """Run 60 aggressive n = 5-8 draws through the loop and check every
    candidate against its per-arc form and every move against
    :func:`oracles.next_active`.
    Returns the counts of moves, net exits, pair deaths, moves of more
    than one arc, and moves that both enter and release arcs."""
    steps = record_loop(monkeypatch)
    rng = np.random.default_rng(0)
    moves = exits = deaths = blocks = swaps = 0
    for _ in range(60):
        net, a = random_instance(rng, aggressive=True, n_min=5, n_max=8)
        steps.clear()
        sol = solve_general(net, a)
        c = net.unit_cost
        for t, (capped, weights, labels, border, prices, lam, mu) \
                in enumerate(steps):
            active = arc_matrix(net, capped, False)
            keep = (net.demand > 0) & ~active
            # the incrementally kept state equals a fresh build
            assert np.array_equal(weights, projection_weights(
                np.where(keep, net.demand, 0.0), net.travel_time))
            assert np.array_equal(labels, connected_components(weights))
            assert np.array_equal(border, component_border(labels))
            out = np.zeros(net.n_locations)
            into = np.zeros(net.n_locations)
            for k, (i, j) in enumerate(net.arcs):
                if not capped[k]:
                    gain = net.demand[i, j] * (1.0 + a[i, j] - c)
                    out[i] += gain
                    into[j] += gain
            lam_free = potentials(weights, out - into, border)
            if labels.max() == 0:
                assert np.array_equal(lam, lam_free)
            for k, (i, j) in enumerate(net.arcs):
                xi = net.travel_time[i, j]
                if capped[k]:
                    assert prices[k] == 1.0
                    assert mu[k] == net.demand[i, j] * (
                        (lam[i] - lam[j]) - xi * (1.0 + a[i, j] - c))
                else:
                    assert prices[k] == (1.0 - a[i, j] + c) / 2.0 \
                        + (lam_free[i] - lam_free[j]) / (2.0 * xi)
                    assert mu[k] == 0.0
            expected = next_active(net, active,
                                   arc_matrix(net, prices, np.nan),
                                   arc_matrix(net, mu, 0.0))
            if t + 1 < len(steps):
                following = arc_matrix(net, steps[t + 1][0], False)
                assert np.array_equal(following, expected)
                moves += 1
                exits += expected.sum() < active.sum()
                deaths += (steps[t + 1][1] == 0).sum() \
                    > (weights == 0).sum()
                blocks += (following != active).sum() > 1
                swaps += np.any(following & ~active) \
                    and np.any(active & ~following)
            else:
                assert expected is None
        assert sol.active_set == capped_arcs(net, steps[-1][0])
    return moves, exits, deaths, blocks, swaps


def check_resistance_path(monkeypatch):
    """On the same 60 draws, the resistance-form loop visits the same
    capped sets and reaches the same prices."""
    steps = record_loop(monkeypatch)
    rng = np.random.default_rng(0)
    for _ in range(60):
        net, a = random_instance(rng, aggressive=True, n_min=5, n_max=8)
        steps.clear()
        sol = solve_general(net, a)
        path, (prices, lam, _) = resistance_pricing_path(net, a)
        assert path == [capped_arcs(net, step[0]) for step in steps]
        on = net.on_arcs(prices)
        assert np.abs(net.on_arcs(sol.prices) - on).max() \
            <= 1e-12 * np.abs(on).max()
        assert np.allclose(sol.duals_lambda, lam - lam[-1],
                           rtol=0.0, atol=1e-12 * np.abs(lam).max())


class TestLoopReference:
    """The pricing loop against its per-arc loop form, with exact equality,
    and against the paper's resistance form of the same loop."""

    def test_block_candidates_and_active_set_path(self, monkeypatch):
        moves, exits, deaths, blocks, swaps = check_loop_path(monkeypatch)
        # 69 rounds, many of which move several arcs at once; draw 48
        # exits the active set, some entries kill a pair, and in draw 58
        # one round enters two arcs and releases one
        assert moves >= 60 and exits >= 1 and deaths >= 1
        assert blocks >= 30 and swaps >= 1

    def test_block_resistance_form_oracle(self, monkeypatch):
        """On the same 60 instances the loop driven by the resistance-form
        candidate takes exactly the same path to the same prices."""
        check_resistance_path(monkeypatch)

    def test_bridge_cap_splits_components(self):
        """Capping the one-way bridge (2, 3) between two triangles kills its
        pair: the state splits into two components, and the shift that keeps
        the bridge's multiplier non-negative moves the far side's lambda.
        The state is driven directly so that the split is known; for a
        split that solve_general reaches, see
        test_solve_splits_masked_network."""
        demand = np.zeros((6, 6))
        for tri in ((0, 1, 2), (3, 4, 5)):
            for i in tri:
                for j in tri:
                    if i != j:
                        demand[i, j] = 1.0 + 0.3 * i + 0.1 * j
        demand[2, 3] = 0.8
        net = validate_network(demand, np.full((6, 6), 1.5), 0.6)
        a = random_ads(np.random.default_rng(3), net, hi=0.3)
        state = pricing._LoopState(net, arc_ads(net, a))
        bridge = net.arcs.index((2, 3))
        state.move(np.array([bridge]), np.array([], dtype=int))
        assert state.labels.tolist() == [0, 0, 0, 1, 1, 1]
        assert np.array_equal(state.border, component_border(state.labels))
        prices, lam, mu = pricing._kkt_candidate(state)

        active = arc_matrix(net, state.capped, False)
        ref_prices, ref_lam, ref_mu = resistance_candidate(net, a, active)
        assert np.abs(prices - net.on_arcs(ref_prices)).max() < 1e-12
        assert np.abs(lam - ref_lam).max() < 1e-12
        assert np.abs(mu - net.on_arcs(ref_mu)).max() < 1e-12
        assert mu[bridge] == pytest.approx(0.0, abs=1e-12)
        masked = np.where((net.demand > 0) & ~active, net.demand, 0.0)
        gain = masked * (1.0 + a - net.unit_cost)
        v = gain.sum(axis=1) - gain.sum(axis=0)
        shift = lam - potentials(state.weights, v, state.border)
        assert np.ptp(shift[:3]) < 1e-12 and np.ptp(shift[3:]) < 1e-12
        assert shift[3] - shift[0] < -0.1

        state.move(np.array([], dtype=int), np.array([bridge]))
        assert state.labels.tolist() == [0] * 6
        assert np.array_equal(state.border, np.full((6, 6), 1.0 / 6.0))

    def test_solve_splits_masked_network(self, monkeypatch):
        """Draw 65 of the aggressive n = 3-9 stream ends with (2, 3) and
        (3, 1) capped, which isolates node 3: the masked projection splits,
        the shift resolution moves lambda, and the answer is still the
        enumeration optimum."""
        shifts = []
        resolve = pricing._resolve_shifts

        def recording(n_comp, constraints):
            shifts.append(resolve(n_comp, constraints))
            return shifts[-1]
        monkeypatch.setattr(pricing, "_resolve_shifts", recording)
        rng = np.random.default_rng(5)
        for _ in range(66):
            net, a = random_instance(rng, aggressive=True, n_min=3, n_max=9)
        assert net.arcs == ((0, 1), (0, 2), (2, 0), (2, 3), (3, 1))
        sol = solve_general(net, a)
        assert sol.active_set == {(2, 3), (3, 1)}
        active = arc_matrix(net, [arc in sol.active_set for arc in net.arcs],
                            False)
        masked = np.where(active, 0.0, net.demand)
        assert connected_components(
            projection_weights(masked, net.travel_time)).max() == 1
        assert any(feasible and np.any(s != 0) for s, feasible in shifts)
        oracle_prices, oracle_val = enumerate_optimal_prices(net, a)
        for arc in net.arcs:
            assert sol.prices[arc] == pytest.approx(oracle_prices[arc],
                                                    abs=1e-12)
        assert sol.payoff == pytest.approx(oracle_val, rel=1e-12)

    def test_kkt_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            net, a = random_instance(rng, aggressive=True)
            sol = solve_general(net, a)
            p, lam, mu, c = sol.prices, sol.duals_lambda, sol.duals_mu, \
                net.unit_cost
            res = 0.0
            for i, j in net.arcs:
                th, xi = net.demand[i, j], net.travel_time[i, j]
                stat = th * xi * (2.0 * p[i, j] - 1.0 - c + a[i, j]) \
                    - th * (lam[i] - lam[j]) + mu[i, j]
                res = max(res, abs(stat), p[i, j] - 1.0, -mu[i, j],
                          abs(mu[i, j] * (p[i, j] - 1.0)))
            imbalance = sol.flows.sum(axis=1) - sol.flows.sum(axis=0)
            res = max(res, np.abs(imbalance).max())
            assert sol.kkt_residual == res


class TestBlockMoves:
    """Every round enters every violated cap and releases every negative
    cap multiplier; traffic-like instances need few rounds."""

    @staticmethod
    def traffic_like(stream):
        """Seeded samples of aggressive random draws (seeds 11, 12 and 5 at
        n = 3-12, 10-25 and 3-9), or of commuter and symmetric synth
        networks at N = 30 without ads and with every location candidate,
        or of the same networks with every 7th arc candidate."""
        if stream == "random":
            for seed, n_min, n_max, draws in ((11, 3, 12, 1000),
                                              (12, 10, 25, 150),
                                              (5, 3, 9, 500)):
                rng = np.random.default_rng(seed)
                for _ in range(draws):
                    yield random_instance(rng, aggressive=True,
                                          n_min=n_min, n_max=n_max)
        elif stream == "synth":
            for profile in ("commuter", "symmetric"):
                net, catalog = synth_instance(30, 0.3, seed=0,
                                              profile=profile)
                yield net, None
                for k, incoming in sorted(catalog.location_based.items()):
                    yield net, location_candidate(net, k, incoming)
        elif stream == "arc":
            for profile in ("commuter", "symmetric"):
                net, catalog = synth_instance(30, 0.3, seed=0,
                                              profile=profile)
                for arc, b in sorted(catalog.arc_based.items())[::7]:
                    yield net, arc_candidate(net, arc, b)

    @pytest.mark.parametrize("stream", ["random", "synth", "arc"])
    def test_traffic_like_solves_in_few_candidates(self, monkeypatch,
                                                   stream):
        """Each traffic-like solve reaches its KKT point within 6
        candidates."""
        steps = record_loop(monkeypatch)
        lengths = []
        for net, a in self.traffic_like(stream):
            steps.clear()
            assert solve_general(net, a).kkt_residual < 1e-8
            lengths.append(len(steps))
        assert 2 <= max(lengths) <= 6

    @pytest.mark.parametrize("n", [60, 120])
    def test_commuter_in_few_candidates(self, monkeypatch, n):
        """The commuter instances that cap 38 and 189 arcs reach their KKT
        point in at most 6 candidates, at the prices of the resistance-form
        loop within 1e-12 relative."""
        net = synth_instance(n, 0.3, seed=1, profile="commuter")[0]
        steps = record_loop(monkeypatch)
        sol = solve_general(net)
        assert len(steps) <= 6
        assert len(sol.active_set) == {60: 38, 120: 189}[n]
        assert sol.kkt_residual < 1e-8
        _, (prices, _, _) = resistance_pricing_path(net, np.zeros((n, n)))
        on = net.on_arcs(prices)
        assert np.abs(net.on_arcs(sol.prices) - on).max() \
            <= 1e-12 * np.abs(on).max()

    @pytest.mark.xfail(strict=True, raises=NoConvergence,
                       reason="ROADMAP item 5 (scale-invariant checks in "
                       "basic pricing): the block rounds cycle on this "
                       "mixed-scale draw")
    def test_mixed_scale_draw_314_reaches_oracle_optimum(self):
        """Mixed-scale draw 314 with its own ads (N = 5, 7 arcs, theta from
        1.6e-6 to 1.4e5): the capped set repeats with period 2 from round
        1, so the loop runs to its cap of 28 rounds.  Enumerating the 128
        capped subsets finds the optimum, payoff 3836.600416424802."""
        from test_extended import mixed_scale_instance

        net, a = mixed_scale_instance(314)
        oracle_prices, oracle_val = enumerate_optimal_prices(net, a)
        assert oracle_val == pytest.approx(3836.600416424802, rel=1e-12)
        sol = solve_general(net, a)
        on = net.on_arcs(oracle_prices)
        assert np.abs(net.on_arcs(sol.prices) - on).max() \
            <= 1e-9 * np.abs(on).max()
        assert sol.payoff == pytest.approx(oracle_val, rel=1e-9)


class TestLoopStateMove:
    """A round of moves against a fresh build of the masked state."""

    @staticmethod
    def assert_fresh(net, state):
        keep = (net.demand > 0) & ~arc_matrix(net, state.capped, False)
        weights = projection_weights(np.where(keep, net.demand, 0.0),
                                     net.travel_time)
        assert state.weights.tobytes() == weights.tobytes()
        labels = connected_components(weights)
        assert np.array_equal(state.labels, labels)
        assert np.array_equal(np.unique(state.labels),
                              np.arange(labels.max() + 1))
        assert state.border.tobytes() == component_border(labels).tobytes()

    def test_rounds_match_fresh_build(self):
        """Random enter and leave sets on aggressive draws, 6 rounds each:
        after every round the pair weights are bit-equal to the projection
        of the masked demand, and the labels and border equal a fresh
        build.  Some rounds kill one pair and revive another, and some
        cap one arc of a pair while releasing its reverse."""
        rng = np.random.default_rng(11)
        kill_and_revive = swaps = 0
        for _ in range(150):
            net, a = random_instance(rng, aggressive=True, n_min=3, n_max=8)
            state = pricing._LoopState(net, arc_ads(net, a))
            self.assert_fresh(net, state)
            for _ in range(6):
                m = len(state.capped)
                enter = np.flatnonzero(~state.capped & (rng.random(m) < 0.4))
                leave = np.flatnonzero(state.capped & (rng.random(m) < 0.4))
                live = state.weights > 0
                state.move(enter, leave)
                self.assert_fresh(net, state)
                now = state.weights > 0
                kill_and_revive += np.any(live & ~now) and np.any(~live & now)
                swaps += bool(set(net.reverse_arc[enter]) & set(leave))
        # 428 and 177 of the 900 rounds
        assert kill_and_revive >= 100 and swaps >= 50

    def test_connected_start_equals_fresh_components(self):
        """The start skips the components pass: labels 0 and border J/N,
        bit-equal to what the pass would build."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            net, a = random_instance(rng, n_min=2, n_max=9)
            state = pricing._LoopState(net, arc_ads(net, a))
            self.assert_fresh(net, state)
            assert state.weights is not net.projection


class TestMuZeroSufficient:
    def test_symmetric_true(self):
        net = symmetric_triangle()
        assert check_mu_zero_sufficient(net, None)

    def test_unidirectional_ring_true(self):
        demand = np.zeros((4, 4))
        for i in range(4):
            demand[i, (i + 1) % 4] = 1.5
        net = validate_network(demand, np.ones((4, 4)), 0.6)
        assert check_mu_zero_sufficient(net, None)

    def test_asymmetric_two_node_false(self):
        # sum |v| = 2 * 9.9 * 0.4 = 7.92; the (2,1) bound with its short
        # travel time is 2 (0.1 + 10 * 0.01) * 0.4 = 0.16 < 7.92
        demand = np.array([[0, 10.0], [0.1, 0]])
        travel = np.array([[1.0, 1.0], [0.01, 1.0]])
        net = validate_network(demand, travel, 0.6)
        assert not check_mu_zero_sufficient(net, None)


class TestPayoffAndSurplus:
    def test_cap_prices_zero_everything(self):
        net = symmetric_triangle()
        prices = np.ones((3, 3))
        result = payoff_and_surplus(net, None, prices)
        assert result.payoff == 0.0
        assert result.consumer_surplus == 0.0

    def test_single_pair_plugin(self):
        demand = np.array([[0, 2.0], [2.0, 0]])
        travel = np.full((2, 2), 3.0)
        net = validate_network(demand, travel, 0.6)
        prices = np.full((2, 2), 0.8)
        result = payoff_and_surplus(net, None, prices)
        per_arc = 0.5 * 2.0 * 3.0 * 0.2 ** 2
        assert result.surplus_by_arc[0, 1] == pytest.approx(per_arc)
        assert result.consumer_surplus == pytest.approx(2 * per_arc)

    def test_rejects_prices_above_cap(self):
        net = symmetric_triangle()
        prices = np.full((3, 3), 1.2)
        with pytest.raises(ValueError):
            payoff_and_surplus(net, None, prices)

    def test_solver_totals_equal_payoff_and_surplus(self):
        """solve_general's payoff and consumer surplus are exactly what
        payoff_and_surplus gives on its prices."""
        rng = np.random.default_rng(13)
        for _ in range(40):
            net, a = random_instance(rng, aggressive=True)
            sol = solve_general(net, a)
            ref = payoff_and_surplus(net, a, sol.prices)
            assert sol.payoff == ref.payoff
            assert sol.consumer_surplus == ref.consumer_surplus

    def test_arbitrary_feasible_prices(self):
        rng = np.random.default_rng(2)
        net, a = random_instance(rng)
        prices = np.where(net.demand > 0, rng.uniform(-0.5, 1.0,
                                                      net.demand.shape), 0.0)
        result = payoff_and_surplus(net, a, prices)
        assert result.payoff == pytest.approx(
            pricing_objective(net, a, prices), abs=1e-10)


class TestSensitivity:
    def test_own_arc_formula_and_sign(self):
        rng = np.random.default_rng(31)
        net, a = quiet_instance(rng)
        from resistive_pricing import build_electrical
        model = build_electrical(net)
        for x, y in net.arcs:
            deriv = price_sensitivity(net, a, (x, y))
            own = -0.5 + net.demand[x, y] * model.effective_resistance[x, y] \
                / (2.0 * net.travel_time[x, y])
            assert deriv[x, y] == pytest.approx(own, abs=1e-12)
            assert deriv[x, y] <= 0.0

    def test_shared_origin_nonnegative(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            net, a = quiet_instance(rng, n_min=4, n_max=6)
            for x, y in net.arcs:
                deriv = price_sensitivity(net, a, (x, y))
                for i, j in net.arcs:
                    if i == x and j != y:
                        assert deriv[i, j] >= -1e-12

    def test_complete_homogeneous_disjoint_zero(self):
        n = 4
        demand = np.ones((n, n)) - np.eye(n)
        net = validate_network(demand, np.ones((n, n)), 0.6)
        deriv = price_sensitivity(net, None, (0, 1))
        for i, j in net.arcs:
            if len({i, j} & {0, 1}) == 0:
                assert abs(deriv[i, j]) < 1e-10

    def test_cut_vertex_independence(self):
        # two triangles sharing vertex 2
        demand = np.zeros((5, 5))
        for i, j in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]:
            demand[i, j] = demand[j, i] = 1.0
        net = validate_network(demand, np.ones((5, 5)), 0.6)
        assert 2 in find_cut_vertices(net)
        deriv = price_sensitivity(net, None, (3, 4))
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 0), (0, 2), (2, 1)]:
            assert abs(deriv[i, j]) < 1e-10
        # re-solve with the perturbed ad vector: side-1 prices unchanged
        a = np.zeros((5, 5))
        a[3, 4] = 0.2
        base = solve_closed_form(net)
        bumped = solve_closed_form(net, a)
        for i, j in [(0, 1), (1, 0), (1, 2), (2, 0), (0, 2), (2, 1)]:
            assert bumped.prices[i, j] == pytest.approx(
                float(base.prices[i, j]), abs=1e-9)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            net, a = quiet_instance(rng, margin=5e-3, ad_floor=0.05)
            for arc in net.arcs:
                deriv = price_sensitivity(net, a, arc)
                fd = central_difference_sensitivity(solve_closed_form, net, a, arc)
                for i, j in net.arcs:
                    assert deriv[i, j] == pytest.approx(fd[i, j], abs=1e-4)

    def test_masked_variant_zero_for_capped_source(self):
        net, a = capped_instance()
        sol = solve_general(net, a)
        capped = next(iter(sol.active_set))
        deriv = price_sensitivity(net, a, capped)
        for arc in net.arcs:
            assert deriv[arc] == 0.0

    def test_masked_variant_finite_differences_live_source(self):
        """Live source arcs of capped optima match a general-solve FD."""
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(200):
            net, a = random_instance(rng, aggressive=True)
            a = np.where(net.demand > 0, np.maximum(a, 0.05), 0.0)
            active = solve_general(net, a).active_set
            live = [arc for arc in net.arcs if arc not in active]
            if not active or not live:
                continue
            try:
                deriv = price_sensitivity(net, a, live[0], boundary_eps=1e-4)
            except RegimeBoundary:
                continue
            fd = central_difference_sensitivity(solve_general, net, a,
                                                live[0], eps=1e-6)
            for i, j in net.arcs:
                assert deriv[i, j] == pytest.approx(fd[i, j], abs=1e-6)
            checked += 1
            if checked == 5:
                break
        assert checked == 5

    def test_regime_boundary_detection(self):
        """Bisect a symmetric triangle onto the exact active-set flip."""
        demand = np.ones((3, 3)) - np.eye(3)
        net = validate_network(demand, np.ones((3, 3)), 0.6)
        arc_src = (0, 1)
        a_probe = np.zeros((3, 3))
        lo, hi = 2.0, 4.0  # empty at 2, nonempty at 4
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            a_probe[arc_src] = mid
            if solve_general(net, a_probe).active_set:
                hi = mid
            else:
                lo = mid
        a_probe[arc_src] = 0.5 * (lo + hi)
        with pytest.raises(RegimeBoundary):
            price_sensitivity(net, a_probe, arc_src, boundary_eps=1e-4)


class TestAdRevenueValidation:
    def test_solvers_accept_ad_revenue_vector(self):
        net = symmetric_triangle()
        a = AdRevenueVector.from_arcs(net, {(0, 1): 0.2})
        sol = solve_closed_form(net, a)
        assert np.isfinite(sol.payoff)
