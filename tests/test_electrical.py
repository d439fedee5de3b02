import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resistive_pricing import (
    NotApplicable,
    build_electrical,
    delta,
    select_arc_advertiser,
    select_location_advertiser,
    solve_closed_form,
    solve_general,
    synth_instance,
    validate_network,
    value_vector,
)

from resistive_pricing.electrical import component_border, potentials
from resistive_pricing.network import projection_weights

from gen import random_ads, random_connected_network
from oracles import injection_resistance, plain_deltas


def bidirectional(edges, n, theta=1.0, xi=1.0, cost=0.6):
    demand = np.zeros((n, n))
    travel = np.full((n, n), float(xi))
    for i, j in edges:
        demand[i, j] = demand[j, i] = theta
    return validate_network(demand, travel, cost)


def ring_with_chord():
    """Six-node ring 1-2-3-4-5-6 plus chord between 2 and 5 (one-based)."""
    return bidirectional([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                          (1, 4)], 6)


class TestEffectiveResistance:
    def test_symmetric_bit_for_bit(self):
        """R equals its transpose bit for bit, with no symmetrizing step:
        the pseudoinverse is symmetric and d_i + d_j commutes."""
        rng = np.random.default_rng(31)
        for _ in range(500):
            net = random_connected_network(rng, n_min=2, n_max=30)
            eff = build_electrical(net).effective_resistance
            assert eff.tobytes() == eff.T.tobytes()

    def test_series_path(self):
        # r_ab = 1 (theta 1, xi 1, one direction), r_bc = 2 (theta 0.5)
        demand = np.zeros((3, 3))
        demand[0, 1] = 1.0
        demand[1, 2] = 0.5
        net = validate_network(demand, np.ones((3, 3)), 0.6)
        model = build_electrical(net)
        assert model.effective_resistance[0, 2] == pytest.approx(3.0, abs=1e-12)

    def test_triangle_parallel(self):
        net = bidirectional([(0, 1), (1, 2), (2, 0)], 3, theta=0.5)
        model = build_electrical(net)
        # r = 1 per edge: direct 1 parallel with 1 + 1
        assert model.effective_resistance[0, 1] == pytest.approx(2.0 / 3.0)

    def test_two_path_parallel_formula(self):
        # arcs (1,2),(2,1),(1,3),(3,2): R_12 = r12 (r13 + r32) / (r12 + r13 + r32)
        demand = np.zeros((3, 3))
        demand[0, 1] = 2.0
        demand[1, 0] = 1.0
        demand[0, 2] = 0.5
        demand[2, 1] = 0.25
        travel = np.ones((3, 3))
        net = validate_network(demand, travel, 0.6)
        model = build_electrical(net)
        r12, r13, r32 = 1.0 / 3.0, 2.0, 4.0
        expected = r12 * (r13 + r32) / (r12 + r13 + r32)
        assert model.effective_resistance[0, 1] == pytest.approx(expected)

    def test_ring_with_chord_golden(self):
        model = build_electrical(ring_with_chord())
        eff = model.effective_resistance
        assert eff[1, 4] == pytest.approx(0.3, abs=1e-9)
        for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]:
            assert eff[i, j] == pytest.approx(11.0 / 30.0, abs=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_current_injection_oracle(self, seed):
        """R from the pseudoinverse equals the injected-current voltage."""
        net = random_connected_network(np.random.default_rng(seed),
                                       n_min=3, n_max=8)
        model = build_electrical(net)
        w = net.projection
        rng = np.random.default_rng(seed + 1)
        n = net.n_locations
        for _ in range(4):
            i, j = rng.choice(n, size=2, replace=False)
            assert model.effective_resistance[i, j] == pytest.approx(
                injection_resistance(w, i, j), abs=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_bounds_and_symmetry(self, seed):
        net = random_connected_network(np.random.default_rng(seed),
                                       n_min=3, n_max=8)
        model = build_electrical(net)
        eff, res = model.effective_resistance, model.resistances
        assert np.allclose(eff, eff.T)
        assert np.allclose(np.diag(eff), 0.0)
        # Rayleigh bound on every edge
        edges = np.isfinite(res)
        assert np.all(eff[edges] <= res[edges] + 1e-10)
        # triangle inequality
        n = net.n_locations
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert eff[i, k] <= eff[i, j] + eff[j, k] + 1e-10


class TestLaplacian:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_laplacian_and_pseudoinverse_identities(self, seed):
        net = random_connected_network(np.random.default_rng(seed),
                                       n_min=2, n_max=8)
        model = build_electrical(net)
        n = net.n_locations
        lap, pinv = model.laplacian, model.pseudoinverse
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        eigs = np.linalg.eigvalsh(lap)
        assert eigs[0] > -1e-10
        assert np.sum(np.abs(eigs) < 1e-9 * max(1.0, eigs[-1])) == 1
        # L L+ = I - J/n on the zero-sum subspace: L L+ v = v
        rng = np.random.default_rng(seed + 7)
        v = rng.normal(size=n)
        v -= v.mean()
        assert np.allclose(lap @ (pinv @ v), v, atol=1e-9)
        ones = np.full((n, n), 1.0 / n)
        assert np.allclose(lap @ pinv, np.eye(n) - ones, atol=1e-9)

    def test_pseudoinverse_bits_of_direct_bordered_solve(self):
        """L+ from potentials has the same bits as the direct solve of
        (L + J/N) X = I, minus J/N and symmetrized."""
        rng = np.random.default_rng(12)
        nets = [random_connected_network(rng, n_min=2, n_max=12)
                for _ in range(200)]
        nets += [synth_instance(n, 0.3, seed=1, profile=profile)[0]
                 for n in (10, 30, 60, 120)
                 for profile in ("symmetric", "commuter")]
        for net in nets:
            n = net.n_locations
            w = net.projection
            ones = np.full((n, n), 1.0 / n)
            pinv = np.linalg.solve(np.diag(w.sum(axis=1)) - w + ones,
                                   np.eye(n)) - ones
            assert np.array_equal(build_electrical(net).pseudoinverse,
                                  0.5 * (pinv + pinv.T))

    def test_local_sum_rule_small(self):
        net = ring_with_chord()
        model = build_electrical(net)
        w = net.projection
        eff = model.effective_resistance
        n = net.n_locations
        for i in range(n):
            for k in range(n):
                if i == k:
                    continue
                total = sum((eff[i, j] + eff[i, k] - eff[j, k]) * w[i, j]
                            for j in range(n) if w[i, j] > 0)
                assert total == pytest.approx(2.0, abs=1e-10)


def test_model_read_only_after_unpickling(model_builds):
    """Every array of the model stays read-only through a pickle round
    trip, of the model or of the network that keeps it and takes it
    along."""
    net = ring_with_chord()
    models = [pickle.loads(pickle.dumps(build_electrical(net))),
              build_electrical(pickle.loads(pickle.dumps(net)))]
    assert len(model_builds) == 1
    for model in models:
        for name in ("laplacian", "pseudoinverse", "resistances",
                     "effective_resistance", "zero_potentials"):
            with pytest.raises(ValueError):
                getattr(model, name)[0] = 0


class TestModelPerNetwork:
    """Each network builds its electrical model once, on first use, and
    keeps it."""

    def test_same_model_every_call(self):
        net = ring_with_chord()
        assert build_electrical(net) is build_electrical(net)

    def test_equal_network_builds_its_own(self, model_builds):
        net, twin = ring_with_chord(), ring_with_chord()
        assert np.array_equal(net.projection, twin.projection)
        assert build_electrical(twin) is not build_electrical(net)
        assert build_electrical(twin) is build_electrical(twin)
        assert [id(built) for built in model_builds] == [id(twin), id(net)]

    @pytest.mark.parametrize("profile", ["symmetric", "commuter"])
    def test_one_build_across_solves_and_scores(self, model_builds,
                                                profile):
        net, catalog = synth_instance(10, 0.3, seed=7, profile=profile)
        a = random_ads(np.random.default_rng(7), net)
        delta(net, a)
        try:
            solve_closed_form(net, a)
        except NotApplicable:
            assert profile == "commuter"
        solve_general(net, a)
        select_arc_advertiser(net, catalog)
        select_location_advertiser(net, catalog)
        assert len(model_builds) == 1 and model_builds[0] is net

    @pytest.mark.parametrize("profile", ["symmetric", "commuter"])
    def test_zero_ad_record(self, profile):
        """lambda_0 = L+ v_0 and Delta(0) as the plain bordered solve gives
        them, and delta without ads reads Delta(0) exactly."""
        net, _ = synth_instance(15, 0.3, seed=2, profile=profile)
        model = build_electrical(net)
        v0 = value_vector(net)
        lam0 = potentials(net.projection, v0,
                          component_border(np.zeros(15, dtype=int)))
        scale = max(1.0, np.abs(lam0).max())
        assert np.abs(model.zero_potentials - lam0).max() <= 1e-12 * scale
        plain, terms = plain_deltas(net, np.zeros((1, len(net.arcs))))
        assert abs(model.zero_delta - plain[0]) <= 1e-12 * terms[0]
        assert delta(net, None) == model.zero_delta


class TestPotentials:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_equal_pseudoinverse_times_v(self, seed):
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng, n_min=2, n_max=8)
        v = value_vector(net, random_ads(rng, net, hi=1.0))
        n = net.n_locations
        lam = potentials(net.projection, v,
                         component_border(np.zeros(n, dtype=int)))
        pinv = build_electrical(net).pseudoinverse
        assert np.allclose(lam, pinv @ v, rtol=0.0,
                           atol=1e-12 * max(1.0, np.abs(v).max()))

    def test_masked_components_and_isolated_node(self):
        # masking the arcs at node 3 leaves components {0, 1, 2}, {3}, {4, 5}
        net = bidirectional([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 6)
        a = np.zeros((6, 6))
        a[0, 1], a[4, 5] = 0.5, 0.2
        keep = net.demand > 0
        keep[2, 3] = keep[3, 2] = keep[3, 4] = keep[4, 3] = False
        masked = np.where(keep, net.demand, 0.0)
        weights = projection_weights(masked, net.travel_time)
        labels = np.array([0, 0, 0, 1, 2, 2])
        border = component_border(labels)
        assert border[0, 2] == pytest.approx(1.0 / 3.0)
        assert border[3, 3] == 1.0 and border[2, 3] == 0.0
        gain = masked * (1.0 + a - net.unit_cost)
        v = gain.sum(axis=1) - gain.sum(axis=0)
        lam = potentials(weights, v, border)
        assert lam[3] == 0.0
        for nodes in ([0, 1, 2], [3], [4, 5]):
            block = weights[np.ix_(nodes, nodes)]
            lap = np.diag(block.sum(axis=1)) - block
            assert np.allclose(lam[nodes], np.linalg.pinv(lap) @ v[nodes],
                               rtol=0.0, atol=1e-12)


class TestValueVector:
    def test_symmetric_network_zero(self):
        net = bidirectional([(0, 1), (1, 2), (2, 0)], 3, theta=1.3)
        assert np.allclose(value_vector(net), 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetric_demand_exactly_zero(self, seed):
        """Symmetric demand, without ads or with symmetric ones: every
        value is exactly 0, the paper's v = 0, with no rounding noise."""
        net, _ = synth_instance(15, 0.3, seed=seed, profile="symmetric")
        assert np.array_equal(net.demand, net.demand.T)
        a = random_ads(np.random.default_rng(seed), net)
        for ads in (None, (a + a.T) / 2.0):
            assert not np.any(value_vector(net, ads))

    def test_uniform_ring_zero(self):
        demand = np.zeros((4, 4))
        for i in range(4):
            demand[i, (i + 1) % 4] = 2.0
        net = validate_network(demand, np.ones((4, 4)), 0.3)
        assert np.allclose(value_vector(net), 0.0)

    def test_two_node_asymmetric(self):
        demand = np.array([[0, 1.0], [2.0, 0]])
        net = validate_network(demand, np.ones((2, 2)), 0.6)
        v = value_vector(net)
        # 1*(1 - 0.6) - 2*(1 - 0.6) = -0.4 at node 0
        assert v[0] == pytest.approx(-0.4)
        assert v[1] == pytest.approx(0.4)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_sums_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng)
        a = random_ads(rng, net, hi=1.0)
        v = value_vector(net, a)
        assert abs(v.sum()) < 1e-10 * max(1.0, np.abs(v).max())
