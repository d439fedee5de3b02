import dataclasses
import inspect
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resistive_pricing import (
    AdRevenueVector,
    CostOutOfRange,
    DemandModel,
    Disconnected,
    ExtendedParams,
    NegativeDemand,
    NetworkValidationError,
    NonPositiveTravelTimeOnArc,
    SelfLoopDemand,
    TrafficNetwork,
    check_mu_zero_sufficient,
    delta,
    find_cut_vertices,
    payoff_and_surplus,
    payoff_extended,
    price_sensitivity,
    solve_closed_form,
    solve_extended,
    solve_general,
    synth_instance,
    validate_network,
    value_vector,
)
from resistive_pricing.network import (
    arc_ads,
    connected_components,
    projection_weights,
)

from gen import quiet_instance, random_connected_network


def three_cycle(cost=0.6, empty_pairs=()):
    demand = np.array([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
    return validate_network(demand, np.ones((3, 3)), cost, empty_pairs)


class TestValidation:
    def test_minimal_cycle_is_valid(self):
        net = three_cycle()
        assert net.arcs == ((0, 1), (1, 2), (2, 0))

    def test_two_disjoint_cycles_rejected(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = demand[1, 0] = 1.0
        demand[2, 3] = demand[3, 2] = 1.0
        with pytest.raises(Disconnected):
            validate_network(demand, np.ones((4, 4)), 0.6)

    def test_self_loop_rejected(self):
        demand = np.array([[0.5, 1.0], [1.0, 0]])
        with pytest.raises(SelfLoopDemand):
            validate_network(demand, np.ones((2, 2)), 0.6)

    def test_negative_demand_rejected(self):
        demand = np.array([[0, -1.0], [1.0, 0]])
        with pytest.raises(NegativeDemand):
            validate_network(demand, np.ones((2, 2)), 0.6)

    def test_bad_travel_time_on_arc_rejected(self):
        demand = np.array([[0, 1.0], [1.0, 0]])
        travel = np.array([[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(NonPositiveTravelTimeOnArc):
            validate_network(demand, travel, 0.6)

    def test_bad_travel_time_names_arc_with_plain_ints(self):
        demand = np.array([[0, 1.0, 1.0], [1.0, 0, 0], [1.0, 0, 0]])
        travel = np.ones((3, 3))
        travel[2, 0] = 0.0
        with pytest.raises(NonPositiveTravelTimeOnArc) as err:
            validate_network(demand, travel, 0.6)
        assert str(err.value) == ("travel_time[2, 0] must be positive and "
                                  "finite on arc (2, 0)")

    def test_travel_time_off_arc_ignored(self):
        demand = np.array([[0, 1.0], [0, 0]])
        travel = np.array([[1.0, 2.0], [-5.0, np.nan]])
        net = validate_network(demand, travel, 0.6)
        assert net.arcs == ((0, 1),)

    @pytest.mark.parametrize("cost", [-0.1, 1.0, 1.5])
    def test_cost_out_of_range(self, cost):
        demand = np.array([[0, 1.0], [1.0, 0]])
        with pytest.raises(CostOutOfRange):
            validate_network(demand, np.ones((2, 2)), cost)

    def test_immutable(self):
        net = three_cycle()
        with pytest.raises(ValueError):
            net.demand[0, 1] = 5.0

    def test_arc_array_read_only(self):
        net = three_cycle()
        assert net.arc_array.tolist() == [list(arc) for arc in net.arcs]
        with pytest.raises(ValueError):
            net.arc_array[0, 0] = 2

    @pytest.mark.parametrize("name", ["demand", "travel_time", "arc_array"])
    def test_read_only_after_unpickling(self, name):
        net = pickle.loads(pickle.dumps(three_cycle()))
        assert net.arcs == three_cycle().arcs
        with pytest.raises(ValueError):
            getattr(net, name)[0, 1] = 2


    @pytest.mark.parametrize("name", ["projection", "arc_demand", "arc_time",
                                      "pair_array", "pair_time",
                                      "reverse_arc"])
    def test_cached_arrays_read_only(self, name):
        """The cached per-arc and per-pair vectors and the projection are
        read-only, and stay so after a pickle round trip."""
        net = three_cycle(empty_pairs=[(1, 0, 2.5)])
        for copy in (net, pickle.loads(pickle.dumps(net))):
            arr = getattr(copy, name)
            assert np.array_equal(arr, getattr(net, name))
            with pytest.raises(ValueError):
                arr[...] = 2.0

    def test_arc_vectors_follow_arc_order(self):
        net = random_connected_network(np.random.default_rng(4), n_max=9)
        assert np.array_equal(net.arc_demand, net.on_arcs(net.demand))
        assert np.array_equal(net.arc_time, net.on_arcs(net.travel_time))


class TestEmptyPairs:
    """The network owns its empty-routing pairs: the arcs, then the
    off-arc pairs it was given, each checked once, at construction."""

    def test_arcs_first_then_off_arc_pairs_in_order_given(self):
        """A pair that is an arc is ignored; a repeated pair keeps its
        first time."""
        given = ((1, 0, 2.5), (0, 1, 9.0), (2, 1, 0.5), (1, 0, 7.0))
        net = three_cycle(empty_pairs=given)
        assert net.empty_pairs == given
        assert net.pair_array.tolist() == [[0, 1], [1, 2], [2, 0], [1, 0],
                                           [2, 1]]
        assert net.pair_time.tolist() == [1.0, 1.0, 1.0, 2.5, 0.5]

    def test_no_pairs_means_the_arcs(self):
        net = three_cycle()
        assert net.empty_pairs == ()
        for pairs, arcs in ((net.pair_array, net.arc_array),
                            (net.pair_time, net.arc_time)):
            assert pairs.dtype == arcs.dtype and np.array_equal(pairs, arcs)

    def test_pairs_normalised_to_int_int_float(self):
        net = three_cycle(empty_pairs=np.array([[1.0, 0.0, 2.5]]))
        demand = three_cycle().demand
        keyword = TrafficNetwork(
            demand, np.ones((3, 3)), 0.6,
            empty_pairs=[(np.int64(1), 0, np.float32(2.5))])
        for copy in (net, keyword):
            assert copy.empty_pairs == ((1, 0, 2.5),)
            assert [type(v) for v in copy.empty_pairs[0]] == [int, int, float]

    @pytest.mark.parametrize("pair", [
        (-1, 2, 1.0), (0, 99, 1.0), (0, 3, 1.0), (0.5, 2, 1.0),
        (np.nan, 2, 1.0), (1, 1, 1.0), (0, 2, 0.0), (0, 2, -1.0),
        (0, 2, np.nan), (0, 2, np.inf), (0, 1, np.nan), ("0", 2, 1.0),
        (0, 2, "x"), (0, 2), (0, 2, 1.0, 1.0), None],
        ids=["from-negative", "to-out-of-range", "to-is-n", "from-fractional",
             "from-nan", "self-loop", "time-zero", "time-negative",
             "time-nan", "time-inf", "arc-time-nan", "from-string",
             "time-string", "two-fields", "four-fields", "not-a-triple"])
    def test_bad_pair_rejected_naming_it(self, pair):
        """Each is rejected by name at construction, not truncated, wrapped
        around or left to fail inside a solve."""
        with pytest.raises(NetworkValidationError, match=re.escape(repr(pair))):
            three_cycle(empty_pairs=[(1, 0, 2.5), pair])


class TestArcLayout:
    """The network owns the arc layout: N read off the demand, one gather
    (on_arcs) and one scatter (arc_matrix)."""

    def test_n_locations_is_derived(self):
        assert "n_locations" not in inspect.signature(TrafficNetwork).parameters
        demand = np.array([[0, 1.0, 0], [0, 0, 1.0], [1.0, 0, 0]])
        with pytest.raises(TypeError):
            TrafficNetwork(n_locations=3, demand=demand,
                           travel_time=np.ones((3, 3)), unit_cost=0.6)
        net = TrafficNetwork(demand, np.ones((3, 3)), 0.6)
        for copy in (net, pickle.loads(pickle.dumps(net))):
            assert copy.n_locations == 3 and type(copy.n_locations) is int
            assert np.array_equal(copy.on_arcs(copy.demand), [1.0, 1.0, 1.0])
            assert np.array_equal(copy.arc_matrix([1.0, 1.0, 1.0]), demand)

    @pytest.mark.parametrize("demand, travel", [
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.ones(3), np.ones(3)),
        (np.ones((2, 2, 2)), np.ones((2, 2, 2))),
        (np.array([[0, 1.0], [1.0, 0]]), np.ones((3, 3))),
        (np.array([[0, 1.0], [1.0, 0]]), np.ones((2, 3))),
        (np.array([[0, 1.0], [1.0, 0]]), np.ones(4)),
    ], ids=["non-square", "vector", "3-d", "time-larger", "time-non-square",
            "time-vector"])
    def test_shape_mismatch_rejected(self, demand, travel):
        for build in (validate_network, TrafficNetwork):
            with pytest.raises(NetworkValidationError):
                build(demand, travel, 0.6)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 4), (3,), (9,),
                                       ()])
    def test_on_arcs_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=r"must be \(3, 3\)"):
            three_cycle().on_arcs(np.ones(shape))

    def test_payoff_rejects_a_larger_price_matrix(self):
        # a plain fancy-index gather would read its top-left 6 x 6 block
        net = random_connected_network(np.random.default_rng(0), n_min=6,
                                       n_max=6)
        with pytest.raises(ValueError, match=r"must be \(6, 6\)"):
            payoff_and_surplus(net, None, np.full((7, 7), 0.8))

    @pytest.mark.parametrize("seed", range(20))
    def test_scatter_and_gather_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng, n_max=9)
        values = rng.normal(size=len(net.arcs))
        off = net.demand == 0
        for fill in (0.0, np.nan, -1.5):
            mat = net.arc_matrix(values, fill=fill)
            assert mat.shape == (net.n_locations,) * 2
            assert np.array_equal(net.on_arcs(mat), values)
            assert [mat[i, j] for i, j in net.arcs] == values.tolist()
            assert np.array_equal(mat[off], np.full(off.sum(), fill),
                                  equal_nan=True)
        full = rng.normal(size=off.shape)
        assert np.array_equal(net.arc_matrix(net.on_arcs(full))[~off],
                              full[~off])
        index = net.arc_matrix(np.arange(len(net.arcs)), fill=-1)
        assert index.dtype.kind == "i"
        assert np.array_equal(net.on_arcs(index), np.arange(len(net.arcs)))
        assert net.reverse_arc.tolist() == [
            net.arcs.index((j, i)) if (j, i) in net.arcs else -1
            for i, j in net.arcs]


class TestNetOutflow:
    """One netting of per-pair values into per-node outflow minus inflow."""

    @staticmethod
    def by_loop(net, values):
        """Outflow minus inflow, each summed in pair order by a loop."""
        out, into = np.zeros(net.n_locations), np.zeros(net.n_locations)
        for (i, j), value in zip(net.pair_array.tolist(), values):
            out[i] += value
            into[j] += value
        return out - into

    def test_matches_a_loop_over_pairs(self):
        """Random networks with extra empty pairs; per-arc and per-pair
        values; one row and a stack of three, each row bit-equal to its
        one-row call."""
        rng = np.random.default_rng(33)
        with_off_arc = 0
        for _ in range(40):
            base = random_connected_network(rng, n_max=9)
            n = base.n_locations
            extra = [(i, j, 1.5) for i, j in rng.integers(n, size=(4, 2))
                     if i != j]
            net = validate_network(base.demand, base.travel_time,
                                   base.unit_cost, extra)
            with_off_arc += len(net.pair_array) > len(net.arcs)
            for m in (len(net.arcs), len(net.pair_array)):
                for k in (1, 3):
                    values = rng.normal(size=(k, m))
                    got = net.net_outflow(values)
                    assert got.shape == (k, n)
                    for row, value in zip(got, values):
                        assert np.array_equal(row, self.by_loop(net, value))
                        assert np.array_equal(net.net_outflow(value), row)
        assert with_off_arc > 10

    def test_peak_memory_one_index_buffer(self):
        """A stack of rows costs one row-shifted index beside its values:
        the arc candidates' rows at N = 60 (8.6 MiB of values) peak within
        1.3 times their size, and each row equals its one-row call."""
        net, _ = synth_instance(60, 0.3, seed=1, profile="commuter")
        values = net.arc_demand * np.eye(len(net.arcs))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            got = net.net_outflow(values)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 1.3 * values.nbytes
        for r in range(0, len(values), 97):
            assert np.array_equal(got[r], net.net_outflow(values[r]))

    def test_read_only_input_and_integer_values(self):
        net = three_cycle()
        values = np.array([3, 1, 2])
        values.setflags(write=False)
        assert net.net_outflow(values).tolist() == [1.0, -2.0, 1.0]


class TestProjection:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_cached_projection_bit_equal(self, seed):
        """The network's cached projection is read-only and bit-equal to
        a fresh projection_weights."""
        net = random_connected_network(np.random.default_rng(seed), n_max=9)
        w = net.projection
        assert not w.flags.writeable
        assert w.tobytes() == projection_weights(
            net.demand, net.travel_time).tobytes()

    def test_figure_style_projection(self):
        # arcs (1,2),(2,1),(1,3),(3,2) in one-based labels
        demand = np.zeros((3, 3))
        demand[0, 1] = 2.0
        demand[1, 0] = 3.0
        demand[0, 2] = 1.5
        demand[2, 1] = 0.5
        travel = np.ones((3, 3))
        travel[0, 1] = 2.0
        travel[1, 0] = 1.0
        travel[0, 2] = 3.0
        travel[2, 1] = 4.0
        net = validate_network(demand, travel, 0.6)
        w = net.projection
        assert w[0, 1] == pytest.approx(2.0 / 2.0 + 3.0 / 1.0)
        assert w[0, 2] == pytest.approx(1.5 / 3.0)
        assert w[1, 2] == pytest.approx(0.5 / 4.0)
        assert np.allclose(w, w.T)

    def test_one_directional_arc_weight(self):
        demand = np.array([[0, 2.0], [0, 0]])
        travel = np.array([[1.0, 4.0], [1.0, 1.0]])
        net = validate_network(demand, travel, 0.6)
        assert net.projection[0, 1] == pytest.approx(0.5)

    def test_symmetric_pair_weight(self):
        demand = np.array([[0, 1.0], [1.0, 0]])
        net = validate_network(demand, np.ones((2, 2)), 0.6)
        assert net.projection[0, 1] == pytest.approx(2.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_projection_symmetric_positive(self, seed):
        net = random_connected_network(np.random.default_rng(seed))
        w = net.projection
        assert np.allclose(w, w.T)
        for i, j in net.arcs:
            assert w[i, j] > 0

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_swap_invariance_with_equal_times(self, seed):
        """Swapping opposing demands leaves the projection unchanged when
        the two travel times agree."""
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng)
        demand = net.demand.copy()
        travel = net.travel_time.copy()
        swapped = False
        for i, j in net.arcs:
            if j > i and demand[j, i] > 0:
                travel[j, i] = travel[i, j]
                demand[i, j], demand[j, i] = demand[j, i], demand[i, j]
                swapped = True
        if not swapped:
            return
        base = validate_network(net.demand, travel, net.unit_cost)
        flipped = validate_network(demand, travel, net.unit_cost)
        assert np.allclose(base.projection,
                           flipped.projection)


def weights_from_edges(n, edges):
    w = np.zeros((n, n))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0
    return w


class TestConnectedComponents:
    def test_isolated_vertices(self):
        labels = connected_components(weights_from_edges(4, [(1, 2)]))
        assert labels.tolist() == [0, 1, 1, 2]

    def test_three_components_sorted_by_smallest_node(self):
        # components {0, 3, 6}, {1, 4, 7}, {2, 5}, reached out of order
        edges = [(6, 0), (3, 6), (7, 4), (4, 1), (5, 2)]
        labels = connected_components(weights_from_edges(8, edges))
        assert labels.tolist() == [0, 1, 2, 0, 1, 2, 0, 1]
        assert labels.dtype.kind == "i"

    def test_path_needs_several_passes(self):
        order = [4, 0, 5, 2, 3, 1]
        w = weights_from_edges(6, list(zip(order, order[1:])))
        labels = connected_components(w)
        assert labels.tolist() == [0] * 6

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_partition_matches_reachability(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        w = np.triu(rng.random((n, n)) < 0.25, 1).astype(float)
        w = w + w.T
        labels = connected_components(w)
        # labels 0, 1, ... with no gaps, first met in that order
        _, first = np.unique(labels, return_index=True)
        assert np.array_equal(np.unique(labels), np.arange(len(first)))
        assert np.all(np.diff(first) > 0)
        reach = np.eye(n, dtype=bool) | (w > 0)
        for _ in range(n):
            reach = (reach.astype(int) @ reach.astype(int)) > 0
        # same label exactly when reachable
        assert np.array_equal(reach, labels[:, None] == labels[None, :])


class TestCutVertices:
    def test_two_triangles_sharing_a_vertex(self):
        demand = np.zeros((5, 5))
        for i, j in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]:
            demand[i, j] = demand[j, i] = 1.0
        net = validate_network(demand, np.ones((5, 5)), 0.6)
        assert find_cut_vertices(net) == {2}

    def test_complete_graph_has_none(self):
        demand = np.ones((4, 4)) - np.eye(4)
        net = validate_network(demand, np.ones((4, 4)), 0.6)
        assert find_cut_vertices(net) == set()

    def test_path_interior(self):
        demand = np.zeros((3, 3))
        demand[0, 1] = demand[1, 0] = 1.0
        demand[1, 2] = demand[2, 1] = 1.0
        net = validate_network(demand, np.ones((3, 3)), 0.6)
        assert find_cut_vertices(net) == {1}

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def test_matches_removal_definition(self, seed):
        rng = np.random.default_rng(seed)
        # few extra arcs leave cut vertices at every size
        net = random_connected_network(rng, n_min=2, n_max=12,
                                       extra=float(rng.uniform(0, 0.5)))
        w = net.projection
        n = net.n_locations
        expected = set()
        for v in range(n):
            keep = [u for u in range(n) if u != v]
            sub = w[np.ix_(keep, keep)]
            seen = np.zeros(n - 1, dtype=bool)
            stack = [0]
            seen[0] = True
            while stack:
                u = stack.pop()
                for t in np.flatnonzero(sub[u] > 0):
                    if not seen[t]:
                        seen[t] = True
                        stack.append(int(t))
            if not seen.all():
                expected.add(v)
        assert find_cut_vertices(net) == expected


class TestAdRevenueVector:
    def test_rejects_off_arc_entries(self):
        net = three_cycle()
        values = np.zeros((3, 3))
        values[1, 0] = 0.2  # not an arc
        with pytest.raises(ValueError):
            AdRevenueVector(net, values)

    def test_rejects_negative(self):
        net = three_cycle()
        values = np.zeros((3, 3))
        values[0, 1] = -0.2
        with pytest.raises(ValueError):
            AdRevenueVector(net, values)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_first_entry(self, value):
        """The error names the first non-finite entry in row-major order,
        on an arc or off the arc set, and its value."""
        net = three_cycle()
        values = np.zeros((3, 3))
        values[2, 0] = values[1, 2] = value
        with pytest.raises(ValueError, match=re.escape(
                f"ad revenue on arc (1, 2) must be finite, not {value}")):
            AdRevenueVector(net, values)
        values[1, 0] = value  # not an arc
        with pytest.raises(ValueError, match=re.escape(
                f"ad revenue off the arc set at (1, 0) must be finite, "
                f"not {value}")):
            AdRevenueVector(net, values)

    def test_read_only_after_unpickling(self):
        a = AdRevenueVector.from_arcs(three_cycle(), {(0, 1): 0.2})
        copy = pickle.loads(pickle.dumps(a))
        assert copy.values[0, 1] == 0.2
        with pytest.raises(ValueError):
            copy.values[0, 1] = 0.5
        with pytest.raises(ValueError):
            copy.network.demand[0, 1] = 5.0

    def test_from_arcs(self):
        net = three_cycle()
        a = AdRevenueVector.from_arcs(net, {(0, 1): 0.2})
        assert a.values[0, 1] == 0.2
        with pytest.raises(ValueError):
            AdRevenueVector.from_arcs(net, {(1, 0): 0.2})


def result_bits(value):
    """Every field of a solver result, arrays and floats as their bytes,
    so that equal results are equal bit for bit."""
    if dataclasses.is_dataclass(value):
        return tuple(result_bits(getattr(value, f.name))
                     for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, dict):
        return tuple((key, result_bits(value[key])) for key in sorted(value))
    return value


def ad_entry_instance():
    """A cap-free instance (so the closed form applies and the
    sensitivity is away from a regime boundary), its (N, N) ads, uniform
    extended parameters and a feasible extended point."""
    net, a = quiet_instance(np.random.default_rng(21), n_min=4, n_max=6)
    mass = float((net.arc_demand * net.arc_time).sum())
    params = ExtendedParams(eta=0.8, psi=0.5 * mass,
                            demand=DemandModel.uniform())
    point = solve_extended(net, None, params)
    return net, a, params, point


# every public entry that takes ads, called with the ads ``a``
AD_ENTRIES = {
    "solve_general": lambda net, a, params, point: solve_general(net, a),
    "solve_closed_form":
        lambda net, a, params, point: solve_closed_form(net, a),
    "payoff_and_surplus": lambda net, a, params, point: payoff_and_surplus(
        net, a, np.where(net.demand > 0, 0.5, np.nan)),
    "check_mu_zero_sufficient":
        lambda net, a, params, point: check_mu_zero_sufficient(net, a),
    "price_sensitivity": lambda net, a, params, point: price_sensitivity(
        net, a, net.arcs[-1]),
    "value_vector": lambda net, a, params, point: value_vector(net, a),
    "delta": lambda net, a, params, point: delta(net, a),
    "solve_extended":
        lambda net, a, params, point: solve_extended(net, a, params),
    "payoff_extended": lambda net, a, params, point: payoff_extended(
        net, a, params, point.prices, point.empty_flows),
}


class TestArcAds:
    """arc_ads is the one conversion of a public ad argument."""

    @pytest.mark.parametrize("entry", sorted(AD_ENTRIES))
    def test_three_forms_agree_bit_for_bit(self, entry):
        """An AdRevenueVector, its (N, N) matrix and its (M,) per-arc
        values give the same result; None gives that of zeros."""
        call = AD_ENTRIES[entry]
        net, a, params, point = ad_entry_instance()
        forms = [AdRevenueVector(net, a), a, net.on_arcs(a)]
        results = [result_bits(call(net, form, params, point))
                   for form in forms]
        assert results[1:] == results[:1] * 2
        zeros = [None, np.zeros((net.n_locations,) * 2),
                 np.zeros(len(net.arcs))]
        results = [result_bits(call(net, form, params, point))
                   for form in zeros]
        assert results[1:] == results[:1] * 2

    @pytest.mark.parametrize("entry", sorted(AD_ENTRIES))
    def test_wrong_shape_names_both_shapes(self, entry):
        call = AD_ENTRIES[entry]
        net, _, params, point = ad_entry_instance()
        n, m = net.n_locations, len(net.arcs)
        for shape in ((m + 1,), (n, n + 1), (n * n,), (1, m)):
            with pytest.raises(ValueError, match=re.escape(
                    f"ad revenues must be ({n}, {n}) or ({m},), got {shape}")):
                call(net, np.zeros(shape), params, point)

    def test_per_arc_values_taken_as_given(self):
        net = three_cycle()
        values = np.array([0.5, 0.0, 0.25])
        assert arc_ads(net, values) is values
        assert np.array_equal(arc_ads(net, [1, 2, 3]), [1.0, 2.0, 3.0])
        assert arc_ads(net, [1, 2, 3]).dtype == float
