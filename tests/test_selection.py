import numpy as np
import pytest

import resistive_pricing.selection as selection_mod
from resistive_pricing import (
    AdvertiserCatalog,
    DemandModel,
    ExtendedParams,
    Infeasible,
    NoConvergence,
    arc_candidate,
    delta,
    location_candidate,
    reduced_search,
    select_arc_advertiser,
    select_location_advertiser,
    solve_extended,
    solve_general,
    strategy_compare,
    synth_instance,
    validate_network,
)

from resistive_pricing.electrical import build_electrical, value_vector

from gen import quiet_instance, random_connected_network, random_instance
from oracles import symmetric_arc_score, symmetric_location_score


def bidirectional(edges, n, theta=1.0, xi=1.0, cost=0.6):
    demand = np.zeros((n, n))
    travel = np.full((n, n), float(xi))
    for i, j in edges:
        demand[i, j] = demand[j, i] = theta
    return validate_network(demand, travel, cost)


def ring_with_chord():
    return bidirectional([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                          (1, 4)], 6)


def capped_instance():
    demand = np.array([[0.0, 5.0, 0.1],
                       [0.2, 0.0, 0.05],
                       [4.0, 0.3, 0.0]])
    net = validate_network(demand, np.ones((3, 3)), 0.6)
    a = np.zeros((3, 3))
    a[0, 1] = 3.0
    return net, a


def test_module_doctests():
    import doctest

    results = doctest.testmod(selection_mod)
    assert results.attempted > 0
    assert results.failed == 0


class TestDelta:
    def test_equals_payoff_when_cap_free(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            net, a = quiet_instance(rng)
            sol = solve_general(net, a)
            assert sol.active_set == frozenset()
            assert delta(net, a) == pytest.approx(sol.payoff, rel=1e-8)

    def test_symmetric_closed_form(self):
        net = bidirectional([(0, 1), (1, 2), (2, 0)], 3, theta=1.5, xi=2.0)
        expected = sum(net.demand[i, j] * net.travel_time[i, j]
                       * ((1 - 0.6) / 2) ** 2 for i, j in net.arcs)
        assert delta(net, None) == pytest.approx(expected, abs=1e-12)

    def test_strict_upper_bound_with_active_set(self):
        net, a = capped_instance()
        sol = solve_general(net, a)
        assert sol.active_set
        assert delta(net, a) > sol.payoff + 1e-6

    def test_matches_per_arc_loop(self):
        """The summation order differs from the per-arc loop, so agreement
        is to rounding: 1e-12 relative."""
        rng = np.random.default_rng(19)
        for _ in range(20):
            net, a = random_instance(rng, aggressive=True, n_max=9)
            model = build_electrical(net)
            s = model.effective_resistance @ value_vector(net, a)
            total = 0.0
            for i, j in net.arcs:
                th, xi = net.demand[i, j], net.travel_time[i, j]
                gain = 1.0 + a[i, j] - net.unit_cost
                total += th * xi * (gain / 2.0) ** 2
                total -= th * gain * (s[j] - s[i]) / 8.0
            assert delta(net, a) == pytest.approx(total, rel=1e-12)


class TestArcSelection:
    def test_negative_willingness_names_arc_with_plain_ints(self):
        arc = tuple(np.array([0, 1]))
        with pytest.raises(ValueError) as err:
            AdvertiserCatalog(arc_based={arc: -0.1}, location_based={})
        assert str(err.value) == "negative willingness to pay on arc (0, 1)"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_willingness_names_entry(self, value):
        """NaN passes a `< 0` test; the catalog names the entry rather than
        leaving the ad vector to fail later without one."""
        with pytest.raises(ValueError,
                           match=r"^non-finite willingness to pay on arc \(0, 1\)"):
            AdvertiserCatalog(arc_based={(0, 1): value}, location_based={})
        with pytest.raises(ValueError,
                           match=r"^non-finite willingness to pay for \(2, 3\)"):
            AdvertiserCatalog(arc_based={},
                              location_based={3: {1: 0.2, 2: value}})

    def test_ring_chord_golden(self):
        net = ring_with_chord()
        catalog = AdvertiserCatalog(
            arc_based={arc: 0.4 for arc in net.arcs},
            location_based={}, budget=1)
        result = select_arc_advertiser(net, catalog)
        assert result.chosen in {(1, 4), (4, 1)}
        assert result.chosen == (1, 4)  # lexicographic tie-break

    def test_line_graph_tree_edges_tie(self):
        """On a tree every edge's effective resistance equals its own
        resistance, so a homogeneous path has all-equal scores and the
        lexicographic tie-break picks the first arc."""
        net = bidirectional([(0, 1), (1, 2), (2, 3)], 4)
        catalog = AdvertiserCatalog(
            arc_based={arc: 0.5 for arc in net.arcs},
            location_based={}, budget=1)
        result = select_arc_advertiser(net, catalog)
        scores = [s for _, s in result.scores]
        assert max(scores) - min(scores) < 1e-12
        assert result.chosen == (0, 1)

    def test_lowest_resistance_wins_off_tree(self):
        """Adding a parallel route around one edge lowers its effective
        resistance and makes it the selected arc."""
        net = bidirectional([(0, 1), (1, 2), (2, 3), (1, 3)], 4)
        catalog = AdvertiserCatalog(
            arc_based={arc: 0.5 for arc in net.arcs},
            location_based={}, budget=1)
        result = select_arc_advertiser(net, catalog)
        # edges (1,2),(2,3),(1,3) form a cycle; (0,1) is a bridge with R = r
        assert result.chosen in {(1, 2), (1, 3), (2, 3)}

    def test_score_increases_with_willingness(self):
        net = ring_with_chord()
        for arc in net.arcs:
            scores = {}
            for b in (0.3, 0.3 + 1e-6):
                catalog = AdvertiserCatalog(arc_based={arc: b},
                                            location_based={}, budget=1)
                scores[b] = dict(select_arc_advertiser(net, catalog).scores)[arc]
            assert scores[0.3 + 1e-6] > scores[0.3]

    def test_asymmetric_falls_back_to_delta(self):
        rng = np.random.default_rng(5)
        net, _ = random_instance(rng, n_min=4, n_max=4)
        assert not np.array_equal(net.demand, net.demand.T)
        catalog = AdvertiserCatalog(
            arc_based={arc: 0.3 for arc in net.arcs},
            location_based={}, budget=1)
        result = select_arc_advertiser(net, catalog)
        expected = {arc: delta(net, arc_candidate(net, arc, 0.3))
                    for arc in net.arcs}
        assert dict(result.scores) == pytest.approx(expected)

    def test_induced_vector_zero_elsewhere(self):
        net = ring_with_chord()
        catalog = AdvertiserCatalog(
            arc_based={arc: 0.4 for arc in net.arcs},
            location_based={}, budget=1)
        result = select_arc_advertiser(net, catalog)
        values = result.ad_revenue.values
        assert values[result.chosen] == 0.4
        assert np.count_nonzero(values) == 1

    def test_budget_above_one_rejected(self):
        """The selector and the strategy comparison both score one
        collaboration per candidate."""
        net = ring_with_chord()
        catalog = AdvertiserCatalog(arc_based={(0, 1): 0.4},
                                    location_based={}, budget=2)
        with pytest.raises(ValueError):
            select_arc_advertiser(net, catalog)
        with pytest.raises(ValueError, match="budget == 1"):
            strategy_compare(net, catalog, mode="arc", seed=0)


class TestLocationSelection:
    def test_star_center_wins(self):
        net = bidirectional([(0, k) for k in range(1, 6)], 6)
        catalog = AdvertiserCatalog(
            arc_based={},
            location_based={k: {i: 0.4 for i, j in net.arcs if j == k}
                            for k in range(6)},
            budget=1)
        result = select_location_advertiser(net, catalog)
        assert result.chosen == 0

    def test_only_location_with_advertiser_wins(self):
        net = ring_with_chord()
        catalog = AdvertiserCatalog(
            arc_based={},
            location_based={3: {2: 0.4, 4: 0.4}},
            budget=1)
        result = select_location_advertiser(net, catalog)
        assert result.chosen == 3

    def test_quadratic_term_is_injection_energy(self):
        """The score's resistance part equals minus the dissipated energy
        of injecting the d-weighted demand at k and drawing it at the
        origins: sum_s sum_t 0.5 th th d d (R_st - R_sk - R_tk)
        = -y' L+ y with y = sum_s th_sk d_sk (e_k - e_s)."""
        rng = np.random.default_rng(13)
        for _ in range(10):
            net = random_connected_network(rng, n_min=4, n_max=7,
                                           both_dirs=1.1)  # all bidirectional
            demand = np.maximum(net.demand, net.demand.T)
            net = validate_network(demand, net.travel_time, net.unit_cost)
            k = int(rng.integers(net.n_locations))
            origins = [i for i, j in net.arcs if j == k]
            if not origins:
                continue
            dmap = {i: float(rng.uniform(0.1, 0.8)) for i in origins}
            c = net.unit_cost
            linear = sum(net.demand[s, k] * net.travel_time[s, k]
                         * (d * d + 2 * (1 - c) * d)
                         for s, d in dmap.items())
            model = build_electrical(net)
            score = symmetric_location_score(
                net, k, dmap, model.effective_resistance)
            y = np.zeros(net.n_locations)
            for s, d in dmap.items():
                y[k] += net.demand[s, k] * d
                y[s] -= net.demand[s, k] * d
            energy = float(y @ model.pseudoinverse @ y)
            assert score == pytest.approx(linear - energy, abs=1e-9)

    def test_cut_vertex_resistances_add(self):
        """Through a cut-vertex hub, origin-to-origin resistance is the
        sum of the origins' hub resistances, the boundary case of the
        separated-origins configuration."""
        net = bidirectional([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)], 6)
        from resistive_pricing import build_electrical
        eff = build_electrical(net).effective_resistance
        assert eff[1, 3] == pytest.approx(eff[1, 0] + eff[0, 3], abs=1e-10)

    def test_budget_above_one_and_empty_rejected(self):
        net = ring_with_chord()
        catalog = AdvertiserCatalog(arc_based={}, location_based={1: {0: 0.4}},
                                    budget=2)
        with pytest.raises(ValueError, match="budget == 1"):
            select_location_advertiser(net, catalog)
        catalog = AdvertiserCatalog(arc_based={(0, 1): 0.4},
                                    location_based={}, budget=1)
        with pytest.raises(ValueError,
                           match="no location-based advertisers"):
            select_location_advertiser(net, catalog)

    def test_validates_incoming_arcs(self):
        net = bidirectional([(0, 1)], 2)
        catalog = AdvertiserCatalog(
            arc_based={}, location_based={0: {0: 0.4}}, budget=1)
        with pytest.raises(ValueError):
            select_location_advertiser(net, catalog)


class TestReducedSearch:
    def test_single_candidate(self):
        net = ring_with_chord()
        cand = arc_candidate(net, (0, 1), 0.4)
        result = reduced_search(net, [cand])
        assert result.chosen == 0

    def test_single_general_solve_when_cap_free(self, monkeypatch):
        net = ring_with_chord()
        candidates = [arc_candidate(net, arc, 0.3) for arc in net.arcs]
        calls = {"n": 0}
        true_solver = selection_mod.solve_general

        def counting(net_, a_, **kw):
            calls["n"] += 1
            return true_solver(net_, a_, **kw)

        monkeypatch.setattr(selection_mod, "solve_general", counting)
        result = reduced_search(net, candidates)
        assert calls["n"] == 1
        deltas = [delta(net, c) for c in candidates]
        assert result.chosen == int(np.argmax(deltas))

    def test_matches_exhaustive_argmax(self):
        rng = np.random.default_rng(29)
        for trial in range(20):
            net, _ = random_instance(rng, n_min=4, n_max=5,
                                     aggressive=trial % 2 == 0)
            b = {arc: float(rng.uniform(0.1, 2.5)) for arc in net.arcs}
            candidates = [arc_candidate(net, arc, b[arc]) for arc in net.arcs]
            result = reduced_search(net, candidates)
            payoffs = [solve_general(net, c).payoff for c in candidates]
            assert result.payoff == pytest.approx(max(payoffs), rel=1e-9)

    def test_location_candidates_supported(self):
        rng = np.random.default_rng(31)
        net, _ = random_instance(rng, n_min=4, n_max=5)
        candidates = []
        for k in range(net.n_locations):
            incoming = {i: 0.5 for i, j in net.arcs if j == k}
            if incoming:
                candidates.append(location_candidate(net, k, incoming))
        result = reduced_search(net, candidates)
        payoffs = [solve_general(net, c).payoff for c in candidates]
        assert result.payoff == pytest.approx(max(payoffs), rel=1e-9)


class TestStrategyCompare:
    def test_resistance_gap_zero_when_cap_free(self):
        net = ring_with_chord()
        catalog = AdvertiserCatalog(
            arc_based={arc: 0.3 for arc in net.arcs},
            location_based={}, budget=1)
        comparison = strategy_compare(net, catalog, mode="arc", seed=0)
        assert comparison.outcome("resistance").gap_to_optimal \
            == pytest.approx(0.0, abs=1e-12)

    def test_randomized_reproducible(self):
        net = ring_with_chord()
        catalog = AdvertiserCatalog(
            arc_based={arc: 0.3 for arc in net.arcs},
            location_based={}, budget=1)
        first = strategy_compare(net, catalog, mode="arc", seed=42)
        second = strategy_compare(net, catalog, mode="arc", seed=42)
        assert first.outcome("random").payoff == second.outcome("random").payoff

    def test_gaps_nonnegative(self):
        rng = np.random.default_rng(3)
        net, _ = random_instance(rng, n_min=4, n_max=5)
        catalog = AdvertiserCatalog(
            arc_based={arc: float(rng.uniform(0.1, 1.0)) for arc in net.arcs},
            location_based={}, budget=1)
        comparison = strategy_compare(net, catalog, mode="arc", seed=9)
        for row in comparison.outcomes:
            assert row.gap_to_optimal >= -1e-12

    def test_requires_seed(self):
        net = ring_with_chord()
        catalog = AdvertiserCatalog(arc_based={(0, 1): 0.3},
                                    location_based={}, budget=1)
        with pytest.raises(ValueError):
            strategy_compare(net, catalog, mode="arc")


def symmetric_draws():
    """150 symmetric-demand instances, N from 5 to 20."""
    for seed in range(150):
        yield synth_instance(5 + seed % 16, 0.4, seed=seed)


def ranking(scores):
    """Candidate positions by score, best first, ties in label order."""
    return sorted(range(len(scores)), key=lambda q: (-scores[q], q))


@pytest.mark.parametrize("mode", ["arc", "location"])
def test_symmetric_delta_is_closed_form(mode):
    """The paper's theorem: under symmetric demand the closed-form score
    is 4 (Delta(a) - Delta(0)), to 1e-12 of 4 |Delta(0)|, and it ranks the
    candidates, winner and ties included, exactly as Delta does."""
    select, oracle = {
        "arc": (select_arc_advertiser, symmetric_arc_score),
        "location": (select_location_advertiser, symmetric_location_score),
    }[mode]
    for net, catalog in symmetric_draws():
        assert np.array_equal(net.demand, net.demand.T)
        bids = getattr(catalog, f"{mode}_based")
        eff = build_electrical(net).effective_resistance
        base = delta(net, None)
        result = select(net, catalog)
        labels = [label for label, _ in result.scores]
        closed = [oracle(net, label, bids[label], eff) for label in labels]
        scores = [4.0 * (s - base) for _, s in result.scores]
        assert np.max(np.abs(np.subtract(scores, closed))) \
            <= 1e-12 * 4.0 * abs(base)
        assert ranking(scores) == ranking(closed)
        assert result.chosen == labels[ranking(closed)[0]]


def location_candidates(net, catalog):
    return [location_candidate(net, k, catalog.location_based[k])
            for k in sorted(catalog.location_based)]


class TestBatchedScores:
    @pytest.mark.parametrize("profile", ["symmetric", "commuter"])
    def test_one_factorization_per_candidate_set(self, monkeypatch, profile):
        """Each selector, reduced search and strategy comparison scores its
        whole candidate set with one bordered solve."""
        net, catalog = synth_instance(8, 0.5, seed=3, profile=profile)
        calls = {"n": 0}
        true_potentials = selection_mod.potentials

        def counting(weights, v, border):
            calls["n"] += 1
            return true_potentials(weights, v, border)

        monkeypatch.setattr(selection_mod, "potentials", counting)
        arcs = [arc_candidate(net, arc, b)
                for arc, b in sorted(catalog.arc_based.items())]
        params = ExtendedParams(eta=0.8, psi=50.0,
                                demand=DemandModel.uniform())
        scorings = [
            lambda: select_arc_advertiser(net, catalog),
            lambda: select_location_advertiser(net, catalog),
            lambda: reduced_search(net, arcs),
            lambda: reduced_search(net, location_candidates(net, catalog)),
            lambda: strategy_compare(net, catalog, mode="arc", seed=0),
            lambda: strategy_compare(net, catalog, mode="location",
                                     params=params, seed=0),
        ]
        for scoring in scorings:
            calls["n"] = 0
            scoring()
            assert calls["n"] == 1

    @pytest.mark.parametrize("n, seed", [(60, 0), (60, 1), (10, 7)])
    def test_rows_match_single_delta(self, n, seed):
        """A batched row agrees with its own K = 1 delta to 1e-12
        relative, on commuter location pools (N = 60) and on the arc and
        location candidates of a commuter network of N = 10."""
        net, catalog = synth_instance(n, 0.3, seed=seed, profile="commuter")
        candidates = location_candidates(net, catalog)
        if n == 10:
            candidates += [arc_candidate(net, arc, b)
                           for arc, b in sorted(catalog.arc_based.items())]
        batched = selection_mod._deltas(
            net, np.array([net.on_arcs(cand.values) for cand in candidates]))
        single = [delta(net, cand) for cand in candidates]
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0)


def bench_sweep_instance():
    """The benchmark sweep's N = 10 seed-7 commuter network, its catalog
    and its vehicle mass."""
    net, catalog = synth_instance(10, 0.3, seed=7, profile="commuter")
    return net, catalog, float((net.arc_demand * net.arc_time).sum())


class TestCompareGrid:
    """A whole grid compared as one batch equals one strategy_compare per
    grid point."""

    @pytest.mark.parametrize("demand", [DemandModel.uniform(),
                                        DemandModel.exponential(2.0)],
                             ids=["uniform", "exp"])
    @pytest.mark.parametrize("kind, mode", [("psi", "location"),
                                            ("eta", "location"),
                                            ("psi", "arc")])
    def test_points_equal_strategy_compare(self, demand, kind, mode):
        net, catalog, mass = bench_sweep_instance()
        if kind == "psi":
            grid = [ExtendedParams(eta=0.8, psi=float(f"{f * mass:.6g}"),
                                   demand=demand)
                    for f in (0.25, 0.5, 0.75, 1.0)]
        else:
            grid = [ExtendedParams(eta=eta, psi=0.5 * mass, demand=demand)
                    for eta in (0.1, 0.4, 0.7, 1.0)]
        seeds = [np.random.SeedSequence(7, spawn_key=(q,))
                 for q in range(len(grid))]
        batch = selection_mod._compare_grid(net, catalog, mode, grid, seeds,
                                            100)
        assert len(batch) == len(grid)
        for q, (params, point) in enumerate(zip(grid, batch)):
            single = strategy_compare(
                net, catalog, mode=mode, params=params,
                seed=np.random.SeedSequence(7, spawn_key=(q,)))
            assert point == single
            assert np.array(point.payoffs).tobytes() \
                == np.array(single.payoffs).tobytes()
            assert [o.payoff for o in point.outcomes] \
                == [o.payoff for o in single.outcomes]

    @pytest.mark.parametrize("order", ["loop-first", "capacity-first"])
    def test_first_failing_point_raises_its_own_error(self, order):
        """On mixed-scale draw 4 (tests/test_extended.py), location
        candidate 4 fails in the loop at psi = mass / 2 and every
        candidate fails the capacity pre-check at psi = 1e-300: the grid
        raises the error of its earlier failing point, as one
        strategy_compare per point does."""
        from gen import random_ads
        from test_extended import mixed_scale_draw

        net = mixed_scale_draw(4)
        mass = float((net.arc_demand * net.arc_time).sum())
        ads = random_ads(np.random.default_rng(3), net, hi=3.0)
        incoming = {}
        for i, k in net.arcs:
            incoming.setdefault(k, {})[i] = float(ads[i, k])
        catalog = AdvertiserCatalog(arc_based={}, location_based=incoming)
        demand = DemandModel.exponential(2.0)
        grid = [ExtendedParams(eta=0.8, psi=psi, demand=demand)
                for psi in (0.5 * mass, 1e-300)]
        if order == "capacity-first":
            grid.reverse()
        seeds = [np.random.SeedSequence(0, spawn_key=(q,)) for q in (0, 1)]
        with pytest.raises((Infeasible, NoConvergence)) as first:
            strategy_compare(net, catalog, params=grid[0], seed=seeds[0])
        with pytest.raises(type(first.value)) as caught:
            selection_mod._compare_grid(net, catalog, "location", grid,
                                        seeds, 100)
        assert str(caught.value) == str(first.value)
        assert ("capacity" in str(caught.value)) \
            == (order == "capacity-first")

    def test_point_split_across_batches(self, monkeypatch):
        """Mixed-scale draw 4 (tests/test_extended.py) under exp:2 at psi
        = mass / 2, one grid point cut two rows per batch: location
        candidates 2 and 4 fail on their own, and the grid raises
        candidate 2's own error although candidate 3 shares its batch;
        without them, every payoff is its single solve's, bit for bit."""
        from gen import random_ads
        from test_extended import mixed_scale_draw

        net = mixed_scale_draw(4)
        mass = float((net.arc_demand * net.arc_time).sum())
        ads = random_ads(np.random.default_rng(0), net, hi=3.0)
        incoming = {}
        for i, k in net.arcs:
            incoming.setdefault(k, {})[i] = float(ads[i, k])
        labels = sorted(incoming)[2:]
        params = ExtendedParams(eta=0.8, psi=0.5 * mass,
                                demand=DemandModel.exponential(2.0))
        singles = []
        for k in labels:
            try:
                singles.append(solve_extended(
                    net, location_candidate(net, k, incoming[k]),
                    params).payoff)
            except (Infeasible, NoConvergence) as exc:
                singles.append(exc)
        assert [r for r, out in enumerate(singles)
                if isinstance(out, Exception)] == [2, 4]
        assert str(singles[2]) != str(singles[4])
        width = len(net.arcs) + len(net.pair_array) + 1
        monkeypatch.setattr(selection_mod, "BATCH_BUDGET", 2 * width)

        def compare(rows):
            catalog = AdvertiserCatalog(arc_based={}, location_based={
                labels[r]: incoming[labels[r]] for r in rows})
            return selection_mod._compare_grid(
                net, catalog, "location", [params],
                [np.random.SeedSequence(0)], 10)

        with pytest.raises(type(singles[2])) as caught:
            compare(range(len(labels)))
        assert str(caught.value) == str(singles[2])
        kept = [0, 1, 3]
        assert np.array(compare(kept)[0].payoffs).tobytes() \
            == np.array([singles[r] for r in kept]).tobytes()

    def test_one_score_and_one_batch_per_chunk(self, monkeypatch):
        """One Delta scoring (one potentials solve) per grid, and one
        interior-point loop per batch of the row budget: ceil(rows /
        size) loops at size = BATCH_BUDGET // (arcs + pairs + 1), at
        least 1."""
        import resistive_pricing.extended as extended_mod

        net, catalog, mass = bench_sweep_instance()
        calls = {"_deltas": 0, "potentials": 0, "_interior_point": 0}

        def counting(module, name):
            true = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return true(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(selection_mod, "_deltas")
        counting(selection_mod, "potentials")
        counting(extended_mod, "_interior_point")
        grid = [ExtendedParams(eta=0.8, psi=f * mass,
                               demand=DemandModel.uniform())
                for f in (0.2, 0.4, 0.6, 0.8, 1.0)]
        seeds = [np.random.SeedSequence(3, spawn_key=(q,)) for q in range(5)]
        k = len(catalog.location_based)
        rows, width = len(grid) * k, len(net.arcs) + len(net.pair_array) + 1
        default = selection_mod.BATCH_BUDGET
        for budget, size in [(default, default // width),
                             ((2 * k + 1) * width + width - 1, 2 * k + 1),
                             (3 * width, 3), (width, 1), (1, 1)]:
            monkeypatch.setattr(selection_mod, "BATCH_BUDGET", budget)
            calls.update(dict.fromkeys(calls, 0))
            selection_mod._compare_grid(net, catalog, "location", grid,
                                        seeds, 10)
            assert calls == {"_deltas": 1, "potentials": 1,
                             "_interior_point": -(-rows // size)}
        assert default // width >= rows  # the default: one batch

    def test_arc_comparison_memory_bounded(self):
        """A one-point arc-mode extended comparison at N = 30 peaks below
        40 MiB of traced memory: its candidates stay per-arc ad rows and
        one batch holds at most BATCH_BUDGET entries (dense (N, N) ads in
        whole-point batches peaked at 63 MiB)."""
        import tracemalloc

        net, catalog = synth_instance(30, 0.3, seed=1, profile="commuter")
        mass = float((net.arc_demand * net.arc_time).sum())
        params = ExtendedParams(eta=0.8, psi=0.5 * mass,
                                demand=DemandModel.uniform())
        tracemalloc.start()
        try:
            strategy_compare(net, catalog, mode="arc", params=params, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2 ** 20


@pytest.mark.parametrize("mode", ["arc", "location"])
def test_basic_payoffs_equal_candidate_solves(mode):
    """Basic strategy_compare hands its per-arc rows to solve_general; each
    payoff equals the solve of that candidate's AdRevenueVector bit for
    bit."""
    net, catalog = synth_instance(15, 0.3, seed=0, profile="commuter")
    comparison = strategy_compare(net, catalog, mode=mode, seed=0)
    if mode == "arc":
        ads = [arc_candidate(net, arc, catalog.arc_based[arc])
               for arc in sorted(catalog.arc_based)]
    else:
        ads = location_candidates(net, catalog)
    assert comparison.payoffs == tuple(solve_general(net, a).payoff
                                       for a in ads)
