import pickle

import numpy as np
import pytest

from resistive_pricing import (
    EmptyAfterAggregation,
    Rides,
    TooFewPoints,
    aggregate_network,
    cluster_endpoints,
    synth_instance,
)
from resistive_pricing.ingest import (
    RIDE_FIELDS,
    ClusteringResult,
    filter_rides,
    read_rides_csv,
)

from gen import assert_same_rides, projected, rides_of

BBOX = (30.65, 30.69, 104.03, 104.08)


def ride(olat, olon, dlat, dlon, t0=0.0, dur=600.0):
    """One ride as a row of the six Rides columns."""
    return (olat, olon, dlat, dlon, t0, t0 + dur)


def grid_rides(rng, count=300):
    """Rides between a handful of well-separated sites inside BBOX."""
    lat0, lat1, lon0, lon1 = BBOX
    sites = [(lat0 + fx * (lat1 - lat0), lon0 + fy * (lon1 - lon0))
             for fx, fy in [(0.15, 0.2), (0.2, 0.8), (0.8, 0.25),
                            (0.85, 0.8), (0.5, 0.5)]]
    rides = []
    for _ in range(count):
        a, b = rng.choice(len(sites), size=2, replace=False)
        (alat, alon), (blat, blon) = sites[a], sites[b]
        jitter = 1e-4
        rides.append(ride(alat + rng.normal(0, jitter),
                          alon + rng.normal(0, jitter),
                          blat + rng.normal(0, jitter),
                          blon + rng.normal(0, jitter),
                          t0=float(rng.uniform(0, 3600)),
                          dur=float(rng.uniform(300, 1800))))
    return rides_of(rides)


def four_rides():
    """Columns of four valid rides, as writable float arrays."""
    rows = [ride(30.66 + 0.001 * r, 104.04, 30.67, 104.05 + 0.001 * r,
                 t0=100.0 * r) for r in range(4)]
    return [np.array(col) for col in zip(*rows)]


class TestRides:
    def test_rejects_bad_times(self):
        with pytest.raises(ValueError, match="^ride 0: dropoff_time"):
            rides_of([ride(30.66, 104.04, 30.67, 104.05, t0=10.0, dur=-5.0)])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="^ride 0: non-finite"):
            rides_of([ride(np.nan, 104.04, 30.67, 104.05)])

    @pytest.mark.parametrize("column", range(4))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coordinate_names_ride(self, column, value):
        columns = four_rides()
        columns[column][2] = value
        with pytest.raises(ValueError, match="^ride 2: non-finite coordinate"):
            Rides(*columns)

    @pytest.mark.parametrize("dropoff", [300.0, 299.0, np.nan])
    def test_dropoff_not_after_pickup_names_ride(self, dropoff):
        columns = four_rides()
        columns[4][3], columns[5][3] = 300.0, dropoff
        with pytest.raises(ValueError,
                           match="^ride 3: dropoff_time <= pickup_time"):
            Rides(*columns)

    def test_first_bad_ride_is_named(self):
        columns = four_rides()
        columns[0][3] = np.nan
        columns[5][1] = columns[4][1]
        with pytest.raises(ValueError, match="^ride 1: "):
            Rides(*columns)

    @pytest.mark.parametrize("column", range(6))
    def test_unequal_lengths_name_first_missing_ride(self, column):
        columns = four_rides()
        columns[column] = columns[column][:2]
        with pytest.raises(ValueError, match="^ride 2: columns must be 1-D"):
            Rides(*columns)

    def test_rejects_2d_column(self):
        columns = four_rides()
        columns[1] = np.tile(columns[1], (2, 1))
        with pytest.raises(ValueError, match="1-D"):
            Rides(*columns)

    def test_read_only_columns_and_length(self):
        columns = four_rides()
        rides = Rides(*columns)
        assert len(rides) == 4
        columns[0][0] = 0.0   # the record holds its own copy
        assert rides.pickup_lat[0] == pytest.approx(30.66)
        for held in (rides, pickle.loads(pickle.dumps(rides))):
            with pytest.raises(ValueError):
                held.pickup_time[0] = 5.0
        assert len(rides_of([])) == 0

    def test_record_keeps_its_own_copy(self):
        columns = four_rides()
        rides = Rides(*columns)
        want = [col.copy() for col in columns]
        for col in columns:
            assert not np.shares_memory(col, rides._table)
            col[:] = -1.0
        for name, col in zip(RIDE_FIELDS, want):
            assert np.array_equal(getattr(rides, name), col)


def assert_own_read_only_table(rides, *inputs):
    """The table, its base and every column are read-only, and no input
    array shares memory with the table."""
    table = rides._table
    assert table.shape == (6, len(rides))
    for arr in (table, table.base if table.base is not None else table,
                *(getattr(rides, name) for name in RIDE_FIELDS)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[..., :1] = 0.0
    for arr in inputs:
        assert not np.shares_memory(arr, table)


class TestClustering:
    def test_exact_sites_zero_inertia(self):
        rides = []
        lat0, lat1, lon0, lon1 = BBOX
        sites = [(lat0 + f * (lat1 - lat0), lon0 + f * (lon1 - lon0))
                 for f in (0.2, 0.5, 0.8)]
        for _ in range(7):
            for a in range(3):
                b = (a + 1) % 3
                rides.append(ride(sites[a][0], sites[a][1],
                                  sites[b][0], sites[b][1]))
        result = cluster_endpoints(rides_of(rides), 3, BBOX, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-6)
        lat0, lat1, lon0, lon1 = BBOX
        for lat, lon in result.centroids:
            assert lat0 <= lat <= lat1 and lon0 <= lon <= lon1

    def test_deterministic_given_seed(self):
        rides = grid_rides(np.random.default_rng(1))
        first = cluster_endpoints(rides, 5, BBOX, seed=9)
        second = cluster_endpoints(rides, 5, BBOX, seed=9)
        assert np.array_equal(first.origin_labels, second.origin_labels)
        assert np.array_equal(first.dest_labels, second.dest_labels)
        assert first.inertia == second.inertia

    def test_centroids_inside_bbox_k15(self):
        rng = np.random.default_rng(3)
        lat0, lat1, lon0, lon1 = BBOX
        rides = rides_of([ride(float(rng.uniform(lat0, lat1)),
                               float(rng.uniform(lon0, lon1)),
                               float(rng.uniform(lat0, lat1)),
                               float(rng.uniform(lon0, lon1)))
                          for _ in range(400)])
        result = cluster_endpoints(rides, 15, BBOX, seed=4)
        assert len(result.centroids) == 15
        for lat, lon in result.centroids:
            assert lat0 <= lat <= lat1 and lon0 <= lon <= lon1

    def test_read_only_arrays_also_after_unpickling(self):
        rides = grid_rides(np.random.default_rng(7), count=60)
        result = cluster_endpoints(rides, 4, BBOX, seed=1)
        for held in (result, pickle.loads(pickle.dumps(result))):
            for name in ("centroids", "origin_labels", "dest_labels"):
                with pytest.raises(ValueError):
                    getattr(held, name)[0] = 0

    def test_too_few_points(self):
        rides = rides_of([ride(30.66, 104.04, 30.67, 104.05)] * 5)
        with pytest.raises(TooFewPoints):
            cluster_endpoints(rides, 4, BBOX, seed=0)

    def test_no_rides(self):
        with pytest.raises(TooFewPoints, match="no rides"):
            cluster_endpoints(rides_of([]), 2, BBOX, seed=0)

    def test_inertia_consistent_with_labels(self):
        rides = grid_rides(np.random.default_rng(5), count=150)
        result = cluster_endpoints(rides, 5, BBOX, seed=2)
        lats = np.concatenate([rides.pickup_lat, rides.dropoff_lat])
        lons = np.concatenate([rides.pickup_lon, rides.dropoff_lon])
        pts = projected(lats, lons, BBOX)
        cent = projected(result.centroids[:, 0], result.centroids[:, 1], BBOX)
        labels = np.concatenate([result.origin_labels, result.dest_labels])
        manual = float(((pts - cent[labels]) ** 2).sum())
        assert result.inertia == pytest.approx(manual, rel=1e-9)


class TestAggregation:
    def test_mean_travel_time(self):
        lat0, lat1, lon0, lon1 = BBOX
        a = (lat0 + 0.2 * (lat1 - lat0), lon0 + 0.2 * (lon1 - lon0))
        b = (lat0 + 0.8 * (lat1 - lat0), lon0 + 0.8 * (lon1 - lon0))
        rides = [ride(a[0], a[1], b[0], b[1], dur=d)
                 for d in (600.0, 1200.0, 1800.0)]
        rides = rides_of(rides + [ride(b[0], b[1], a[0], a[1], dur=600.0)])
        clustering = cluster_endpoints(rides, 2, BBOX, seed=0)
        result = aggregate_network(rides, clustering, 600.0, 0.6)
        net = result.network
        i = clustering.origin_labels[0]
        j = clustering.dest_labels[0]
        ki = result.kept_clusters.index(i)
        kj = result.kept_clusters.index(j)
        assert net.demand[ki, kj] == 3
        assert net.travel_time[ki, kj] == pytest.approx(2.0)
        assert net.demand[kj, ki] == 1
        assert result.dropped_rides == 0

    def test_total_demand_counts_intercluster_rides(self):
        rng = np.random.default_rng(8)
        rides = grid_rides(rng, count=200)
        clustering = cluster_endpoints(rides, 5, BBOX, seed=1)
        result = aggregate_network(rides, clustering, 600.0, 0.6)
        inter = sum(1 for o, d in zip(clustering.origin_labels,
                                      clustering.dest_labels) if o != d)
        assert not result.dropped_clusters
        assert result.network.demand.sum() == inter

    def test_all_intra_cluster_raises(self):
        lat0, lat1, lon0, lon1 = BBOX
        a = (lat0 + 0.2 * (lat1 - lat0), lon0 + 0.2 * (lon1 - lon0))
        b = (lat0 + 0.8 * (lat1 - lat0), lon0 + 0.8 * (lon1 - lon0))
        rides = rides_of([ride(a[0], a[1], a[0] + 1e-5, a[1] + 1e-5),
                          ride(b[0], b[1], b[0] + 1e-5, b[1] + 1e-5)] * 4)
        clustering = cluster_endpoints(rides, 2, BBOX, seed=0)
        with pytest.raises(EmptyAfterAggregation):
            aggregate_network(rides, clustering, 600.0, 0.6)

    def test_keeps_largest_component(self):
        lat0, lat1, lon0, lon1 = BBOX
        def site(fx, fy):
            return (lat0 + fx * (lat1 - lat0), lon0 + fy * (lon1 - lon0))
        p = [site(0.1, 0.1), site(0.1, 0.9), site(0.9, 0.1), site(0.9, 0.9)]
        rides = []
        # component {0,1,2}: triangle of rides; component {3}: none
        for _ in range(5):
            rides.append(ride(*p[0], *p[1]))
            rides.append(ride(*p[1], *p[2]))
            rides.append(ride(*p[2], *p[0]))
        # a lone intra-cluster ride keeps cluster 3 populated but isolated
        rides.append(ride(p[3][0], p[3][1], p[3][0] + 1e-5, p[3][1] + 1e-5))
        rides = rides_of(rides)
        clustering = cluster_endpoints(rides, 4, BBOX, seed=3)
        result = aggregate_network(rides, clustering, 600.0, 0.6)
        assert result.network.n_locations == 3
        assert len(result.dropped_clusters) == 1

    def test_drops_smaller_component_and_unused_clusters(self):
        # clusters {0, 1} and {2, 3, 4} carry rides; 5 is never an endpoint
        pairs = [(1, 0), (0, 1), (4, 3), (2, 3), (3, 2)]
        clustering = ClusteringResult(
            centroids=np.zeros((6, 2)),
            origin_labels=np.array([o for o, _ in pairs]),
            dest_labels=np.array([d for _, d in pairs]),
            inertia=0.0)
        rides = rides_of([ride(*BBOX[::2], *BBOX[1::2])] * len(pairs))
        result = aggregate_network(rides, clustering, 600.0, 0.6)
        assert result.kept_clusters == (2, 3, 4)
        assert result.dropped_clusters == (0, 1, 5)
        assert result.network.demand[2, 1] == 1.0


class TestFilterAndCsv:
    def test_filter_bbox_and_window(self):
        inside = ride(30.66, 104.04, 30.67, 104.05, t0=100.0)
        outside_box = ride(30.60, 104.04, 30.67, 104.05, t0=100.0)
        outside_time = ride(30.66, 104.04, 30.67, 104.05, t0=5000.0)
        kept = filter_rides(rides_of([inside, outside_box, outside_time]),
                            BBOX, (0.0, 2000.0))
        assert_same_rides(kept, rides_of([inside]))

    def test_read_rides_csv(self, tmp_path):
        path = tmp_path / "rides.csv"
        path.write_text(
            "pickup_time,dropoff_time,pickup_lon,pickup_lat,"
            "dropoff_lon,dropoff_lat\n"
            "0,600,104.04,30.66,104.05,30.67\n")
        rides = read_rides_csv(path)
        assert len(rides) == 1
        assert rides.dropoff_time[0] == 600.0
        assert rides.pickup_lat[0] == 30.66

    def test_read_and_filtered_tables_are_read_only_and_unaliased(
            self, tmp_path):
        # the reader and the filter hand a fresh (n, 6) table to Rides,
        # which adopts it without a copy and makes it read-only
        path = tmp_path / "rides.csv"
        path.write_text(
            "pickup_time,dropoff_time,pickup_lon,pickup_lat,"
            "dropoff_lon,dropoff_lat\n"
            "0,600,104.04,30.66,104.05,30.67\n"
            "100,900,104.04,30.60,104.05,30.67\n"
            "200,700,104.06,30.68,104.04,30.66\n")
        read = read_rides_csv(path)
        assert_own_read_only_table(read)
        built = Rides(*(getattr(read, name).copy() for name in RIDE_FIELDS))
        assert_same_rides(built, read)
        for rides in (read, built):
            kept = filter_rides(rides, BBOX, (0.0, 2000.0))
            assert_own_read_only_table(kept, rides._table)
            assert_same_rides(kept, rides_of([
                ride(30.66, 104.04, 30.67, 104.05, t0=0.0),
                ride(30.68, 104.06, 30.66, 104.04, t0=200.0, dur=500.0)]))
            assert_own_read_only_table(pickle.loads(pickle.dumps(kept)))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "rides.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_rides_csv(path)


class TestSynth:
    def test_symmetric_profile(self):
        net, catalog = synth_instance(15, 0.3, seed=3, profile="symmetric")
        assert net.n_locations == 15
        assert np.array_equal(net.demand, net.demand.T)
        assert catalog.budget == 1

    def test_deterministic(self):
        a1, c1 = synth_instance(10, 0.4, seed=5, profile="commuter")
        a2, c2 = synth_instance(10, 0.4, seed=5, profile="commuter")
        assert np.array_equal(a1.demand, a2.demand)
        assert c1.arc_based == c2.arc_based

    def test_commuter_inflow_exceeds_outflow(self):
        for seed in range(5):
            net, _ = synth_instance(12, 0.35, seed=seed, profile="commuter")
            # recover the commercial subset: nodes with net positive inflow
            inflow = net.demand.sum(axis=0)
            outflow = net.demand.sum(axis=1)
            commercial = inflow > outflow
            assert commercial.any()
            cross_in = net.demand[np.ix_(~commercial, commercial)].sum()
            cross_out = net.demand[np.ix_(commercial, ~commercial)].sum()
            assert cross_in > cross_out

    def test_catalog_on_incoming_arcs(self):
        net, catalog = synth_instance(8, 0.5, seed=7, profile="commuter")
        catalog.validate_for(net)
        for arc, b in catalog.arc_based.items():
            assert b >= 0
            assert net.has_arc(*arc)
