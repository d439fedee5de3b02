"""The array forms of ride ingest against their plain per-ride forms.

k-means and the aggregation must agree bit for bit with the loop forms
in ``oracles``, and k-means++ seeding must find too few distinct points;
the CSV reader must accept any column order and reject bad rows.
"""

import csv
import itertools
import logging
import tracemalloc

import numpy as np
import pytest

from resistive_pricing import (Rides, aggregate_network, cluster_endpoints,
                               ingest)
from resistive_pricing.cli import main
from resistive_pricing.ingest import (
    TooFewPoints,
    _draw,
    _kmeans,
    filter_rides,
    read_rides_csv,
)

from gen import assert_same_rides, projected, rides_of
from oracles import aggregate_reference, kmeans_reference

BBOX = (30.65, 30.69, 104.03, 104.08)
HEADER = ["pickup_time", "dropoff_time", "pickup_lon", "pickup_lat",
          "dropoff_lon", "dropoff_lat"]


class ScriptedSeeds:
    """Stands in for a Generator in k-means++ seeding: each draw returns
    the next scripted point index.  ``_kmeans`` draws its centres with
    ``ingest._draw``, which ``scripted_draws`` routes to ``choice``."""

    def __init__(self, picks):
        self.picks = list(picks)

    def integers(self, n):
        return self.picks.pop(0)

    def choice(self, n, p=None):
        return self.picks.pop(0)


@pytest.fixture(autouse=True)
def scripted_draws(monkeypatch):
    """Let ``_kmeans`` draw a ScriptedSeeds' next index; a Generator
    still draws through ``ingest._draw`` itself."""
    draw = ingest._draw

    def hook(weights, total, rng, out):
        if isinstance(rng, ScriptedSeeds):
            return rng.choice(len(weights), p=weights / total)
        return draw(weights, total, rng, out)

    monkeypatch.setattr(ingest, "_draw", hook)


def random_rides(rng, count, grid=None):
    """Rides inside BBOX; with ``grid``, coordinates snap to that many
    steps per axis, so endpoints repeat."""
    lat0, lat1, lon0, lon1 = BBOX
    u = rng.uniform(size=(count, 4))
    if grid:
        u = np.round(u * grid) / grid
    start = rng.uniform(0, 3600, count)
    return rides_of([(lat0 + a * (lat1 - lat0), lon0 + b * (lon1 - lon0),
                      lat0 + c * (lat1 - lat0), lon0 + d * (lon1 - lon0),
                      t, t + rng.uniform(60, 1800))
                     for (a, b, c, d), t in zip(u, start)])


def collinear_lattice(draw, diagonal=False):
    """Integer points with repeats on a line: the x axis, mirrored about
    0 when ``draw % 3 == 1`` and along (3, 4) when ``draw % 3 == 2``;
    with ``diagonal``, turned onto (1, 1) and scaled.  Returns (points,
    k)."""
    rng = np.random.default_rng(draw)
    k = int(rng.integers(2, 7))
    xs = np.arange(int(rng.integers(4, 40))).astype(float)
    mult = rng.integers(1, 5, size=len(xs)) * (rng.uniform(size=len(xs)) < 0.7)
    xs = np.repeat(xs, mult)
    points = np.column_stack([xs, np.zeros_like(xs)])
    if draw % 3 == 1:
        points = np.concatenate([points, -points])
    elif draw % 3 == 2:
        points = points @ np.array([[3.0, 4.0], [0.0, 0.0]])
    if diagonal:
        points = (points @ np.array([[1.0, 1.0], [0.0, 0.0]])
                  * rng.choice([1.0, 0.1, 3.0, 1e6]))
    return points, k


def assert_same_kmeans(points, k, new_rng, want=None):
    """_kmeans against kmeans_reference at the same iteration cap, bit for
    bit; ``want`` is the reference's result when already computed."""
    if want is None:
        want = kmeans_reference(points, k, new_rng(),
                                max_iter=ingest.KMEANS_MAX_ITER)
    got = _kmeans(*points.T, k, new_rng())
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


# k-means draws: each builder returns (points, k, new_rng)

def normal_draw(draw):
    rng = np.random.default_rng(draw)
    n = int(rng.integers(20, 400))
    k = int(rng.integers(2, 16))
    spread = 10.0 ** rng.uniform(0, 4)
    points = rng.normal(0.0, spread, size=(n, 2))
    if draw % 4 == 0:
        # blobs: well-separated clusters
        points += rng.uniform(-1e4, 1e4, size=(k, 2))[rng.integers(k, size=n)]
    return points, k, lambda: np.random.default_rng(draw)


def duplicates_draw(draw):
    rng = np.random.default_rng(100 + draw)
    points = np.round(rng.uniform(0, 4, size=(300, 2))) * 250.0
    return (points, int(rng.integers(3, 12)),
            lambda: np.random.default_rng(draw))


def scripted_draw(seeds):
    points = np.random.default_rng(7).normal(0.0, 100.0, size=(40, 2))
    return points, len(seeds), lambda: ScriptedSeeds(seeds)


def reseed_draw(case):
    points, seeds = case
    return (np.array(points, dtype=float), len(seeds),
            lambda: ScriptedSeeds(seeds))


def woken_draw(case):
    """A (points, seeds) case like ``reseed_draw``'s, named apart from
    the reseed cases."""
    return reseed_draw(case)


def hotspots_draw(draw):
    rng = np.random.default_rng(draw)
    lat0, lat1, lon0, lon1 = BBOX
    grid = np.stack(np.meshgrid(np.linspace(lat0 + 0.007, lat1 - 0.007, 3),
                                np.linspace(lon0 + 0.006, lon1 - 0.006, 5),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    centre = grid + rng.uniform(-0.001, 0.001, size=grid.shape)
    rate = rng.uniform(0.3, 1.0, len(centre))
    hotspot = rng.choice(len(centre), size=40_000, p=rate / rate.sum())
    ends = centre[hotspot] + rng.normal(0.0, 0.0009, size=(40_000, 2))
    ends = np.clip(ends, [lat0, lon0], [lat1, lon1])
    points = projected(ends[:, 0], ends[:, 1], BBOX)
    return points, 15, lambda: np.random.default_rng(draw)


def bench_rides_draw(draw):
    """The ride model of the pipeline benchmark: 15 hotspots on a jittered
    grid, joined by a random spanning tree plus random pairs up to 30% of
    all pairs, each direction with its own rate; 20 000 rides drawn with
    seed ``draw``, endpoints scattered about 100 m around their hotspot
    and written with 6 decimals.  Draw 0 is the benchmark's ride file,
    clustered with its k = 15 and seed 0."""
    model = np.random.default_rng(7)
    lat0, lat1, lon0, lon1 = BBOX
    grid = np.stack(np.meshgrid(np.linspace(lat0 + 0.007, lat1 - 0.007, 3),
                                np.linspace(lon0 + 0.006, lon1 - 0.006, 5),
                                indexing="ij"), axis=-1).reshape(-1, 2)
    centre = grid + model.uniform(-0.001, 0.001, size=grid.shape)
    order = model.permutation(15)
    pairs = {tuple(sorted((int(order[i]), int(order[model.integers(i)]))))
             for i in range(1, 15)}
    every = list(itertools.combinations(range(15), 2))
    for at in model.permutation(len(every)):
        if len(pairs) >= round(0.3 * len(every)):
            break
        pairs.add(every[at])
    routes = np.array([p for i, j in sorted(pairs) for p in ((i, j), (j, i))])
    rate = model.uniform(0.3, 1.0, len(routes))
    rng = np.random.default_rng(draw)
    chosen = routes[rng.choice(len(routes), size=20_000, p=rate / rate.sum())]
    ends = [np.clip(centre[chosen[:, side]]
                    + rng.normal(0.0, 0.0009, size=(20_000, 2)),
                    [lat0, lon0], [lat1, lon1]) for side in (0, 1)]
    ends = np.array([[float(f"{v:.6f}") for v in row]
                     for row in np.concatenate(ends)])
    points = projected(ends[:, 0], ends[:, 1], BBOX)
    return points, 15, lambda: np.random.default_rng(draw)


def collinear_draw(draw, diagonal=False):
    return (*collinear_lattice(draw, diagonal),
            lambda: np.random.default_rng(draw))


def diagonal_draw(draw):
    return collinear_draw(draw, diagonal=True)


def integer_lattice_draw(draw):
    rng = np.random.default_rng(draw)
    side = int(rng.integers(3, 12))
    k = int(rng.integers(2, 10))
    grid = np.stack(np.meshgrid(np.arange(side),
                                np.arange(int(rng.integers(2, 12)))),
                    axis=-1).reshape(-1, 2).astype(float)
    points = np.repeat(grid, rng.integers(1, 4, size=len(grid)), axis=0)
    return points, k, lambda: np.random.default_rng(draw)


def far_draw(draw):
    rng = np.random.default_rng(draw)
    n = int(rng.integers(50, 600))
    k = int(rng.integers(2, 12))
    offset = 10 ** rng.uniform(5, 9) * rng.choice([-1, 1], size=2)
    points = offset + rng.normal(0, 10 ** rng.uniform(-7, 1), size=(n, 2))
    return points, k, lambda: np.random.default_rng(draw)


SCRIPTED_SEEDS = [[0, 5, 5, 9], [3, 3, 3, 7, 1], [8, 2, 8, 2, 8, 2],
                  [18, 35, 31, 28, 35, 30, 2]]
# a few integer points with seeds that repeat one, so clusters empty and
# are reseeded.  In the first three the second reseed gives back the
# labels of the first, so the plain loop stops there although the
# centroids moved; in the fourth an assignment after a reseed moves no
# point, but the reseeded centroids are no means of their clusters, so
# the plain loop goes on.  In the last, two pairs far off settle and
# freeze, and a cluster among the other points empties in the fourth
# update, which wakes them
RESEEDS = [([[0, 0], [3, 0], [2, 0]], [1, 2, 2]),
           ([[2, 0], [0, 2], [2, 1]], [0, 2, 2]),
           ([[1, 2], [1, 0], [3, 0], [2, 2]], [3, 0, 3, 2]),
           ([[2, 0], [1, 0], [1, 0], [0, 0], [3, 0], [1, 0]], [5, 1, 5]),
           ([[1000, 0], [1001, 0], [1010, 0], [1011, 0], [7, 2], [7, 3],
             [9, 2], [0, 3], [2, 0], [11, 0], [0, 0], [10, 0], [8, 0]],
            [0, 2, 4, 6, 5])]
BENCH_RIDE_DRAWS = [0, 1, 2]
# points on a line whose cluster at 3-6 settles and freezes while the
# centroid at 20-31 moves toward it over several updates, then wakes it:
# its members' lower bounds missed those moves, and one of them would
# skip a point that must change label
WOKEN = ([[6, 0], [31, 0], [6, 0], [52, 0], [46, 0], [56, 0], [50, 0],
          [55, 0], [20, 0], [3, 0]], [6, 5, 9])
COLLINEAR_DRAWS = [5, 12, 22, 204, 436, 655]
DIAGONAL_DRAWS = [841, 2941, 4385, 4830]
INTEGER_LATTICE_DRAWS = [125, 259, 268]
FAR_DRAWS = [0, 1, 2, 3, 18, 52]
KMEANS_DRAWS = [
    (normal_draw, range(40)),
    (duplicates_draw, range(10)),
    (scripted_draw, SCRIPTED_SEEDS),
    (reseed_draw, RESEEDS),
    (woken_draw, [WOKEN]),
    (hotspots_draw, [11]),
    (bench_rides_draw, BENCH_RIDE_DRAWS),
    (collinear_draw, COLLINEAR_DRAWS),
    (diagonal_draw, DIAGONAL_DRAWS),
    (integer_lattice_draw, INTEGER_LATTICE_DRAWS),
    (far_draw, FAR_DRAWS),
]


def every_kmeans_draw():
    for build, draws in KMEANS_DRAWS:
        for draw in draws:
            yield build(draw)


class TestKMeans:
    @pytest.mark.parametrize("draw", range(40))
    def test_matches_reference(self, draw):
        assert_same_kmeans(*normal_draw(draw))

    @pytest.mark.parametrize("draw", range(10))
    def test_matches_reference_with_duplicates(self, draw):
        assert_same_kmeans(*duplicates_draw(draw))

    @pytest.mark.parametrize("seeds", SCRIPTED_SEEDS)
    def test_matches_reference_through_empty_cluster_reseed(self, seeds):
        # seeding that repeats a point leaves a cluster empty after the
        # first assignment (ties go to the lower index), so it is reseeded
        assert_same_kmeans(*scripted_draw(seeds))

    @pytest.mark.parametrize("case", RESEEDS)
    def test_matches_reference_around_empty_cluster_reseeds(self, case):
        assert_same_kmeans(*reseed_draw(case))

    def test_matches_reference_on_hotspots_at_bench_scale(self):
        # 40 000 endpoints scattered about 100 m around 15 hotspots about
        # 1 km apart, projected to metres (~1e7): after the first passes
        # the bounds skip almost every point
        assert_same_kmeans(*hotspots_draw(11))

    @pytest.mark.parametrize("draw", BENCH_RIDE_DRAWS)
    def test_matches_reference_on_bench_rides(self, draw):
        # most clusters settle within a few iterations and freeze, while
        # a few go on moving for up to 43
        assert_same_kmeans(*bench_rides_draw(draw))

    @pytest.mark.parametrize("build, draw, woken", [
        (woken_draw, WOKEN, 0), (normal_draw, 28, 0), (collinear_draw, 204, 1),
        (reseed_draw, RESEEDS[-1], 2)],
        ids=["by-moved-centroid", "by-moved-centroid-normal",
             "by-joining-point", "by-reseed"])
    def test_matches_reference_after_frozen_clusters_wake(self, caplog, build,
                                                          draw, woken):
        # each way a frozen cluster wakes, counted in the debug record:
        # a moved centroid within its reach, a point that joins it, a
        # reseed of an empty cluster
        with caplog.at_level(logging.DEBUG, logger="resistive_pricing.ingest"):
            assert_same_kmeans(*build(draw))
        *_, frozen, reached, joined, thawed = caplog.records[-1].args
        assert frozen > 0
        assert (reached, joined, thawed)[woken] > 0

    @pytest.mark.parametrize("draw", COLLINEAR_DRAWS)
    def test_matches_reference_on_collinear_lattices(self, draw):
        # centroids move along the line, so a shifted bound can equal the
        # distance it bounds exactly, and a point ties between two
        # centroids; these draws all hit such ties
        assert_same_kmeans(*collinear_draw(draw))

    @pytest.mark.parametrize("draw", DIAGONAL_DRAWS)
    def test_matches_reference_on_diagonal_lattices(self, draw):
        # the same along (1, 1): distances are irrational, so bounds that
        # tie exactly can come out an ulp apart either way; these draws
        # need the margin even with a strict skip test
        assert_same_kmeans(*diagonal_draw(draw))

    @pytest.mark.parametrize("draw", INTEGER_LATTICE_DRAWS)
    def test_matches_reference_on_integer_lattices(self, draw):
        # a rectangle of integer points, each repeated 1-3 times; these
        # draws hit upper bound == lower bound exactly
        assert_same_kmeans(*integer_lattice_draw(draw))

    @pytest.mark.parametrize("draw", FAR_DRAWS)
    def test_matches_reference_far_from_origin(self, draw):
        # offsets 1e5-1e9 with spreads 1e-7-1e1: the spread is down to the
        # coordinates' ulp, so the bounds' margin is all that separates them
        assert_same_kmeans(*far_draw(draw))

    @pytest.mark.parametrize("build, draws", KMEANS_DRAWS,
                             ids=[build.__name__ for build, _ in KMEANS_DRAWS])
    def test_matches_reference_in_any_block_size(self, monkeypatch, build,
                                                 draws):
        # the draws above with distance blocks of one column (from a block
        # of one entry), of 7 columns, and of a column count that does not
        # divide n, so the last block is short.  Far from the origin every
        # point is stale in every iteration, so one-column blocks would
        # take n x iterations steps there (seconds); that family skips them
        for draw in draws:
            points, k, new_rng = build(draw)
            want = kmeans_reference(points, k, new_rng())
            n = len(points)
            ragged = next(c for c in itertools.count(n // 4 + 1) if n % c)
            blocks = [7 * k, ragged * k] + ([1] if build is not far_draw else [])
            for block in blocks:
                monkeypatch.setattr(ingest, "KMEANS_BLOCK", block)
                assert_same_kmeans(points, k, new_rng, want)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_matches_reference_at_the_iteration_cap(self, monkeypatch, cap):
        # the loop stops after the cap-th centroid update and one more
        # assignment; the plain loop's labels there are those of its final
        # pass
        monkeypatch.setattr(ingest, "KMEANS_MAX_ITER", cap)
        for points, k, new_rng in every_kmeans_draw():
            assert_same_kmeans(points, k, new_rng)

    def test_peak_memory_below_one_k_by_n_array(self):
        # distances come in fixed-size blocks: the peak of a clustering
        # grows with n alone, well below one (k, n) float64 array
        rng = np.random.default_rng(0)
        n, k = 200_000, 30
        points = (rng.normal(0.0, 1000.0, size=(n, 2))
                  + rng.uniform(-1e4, 1e4, size=(k, 2))[rng.integers(k, size=n)])
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _kmeans(*points.T, k, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < k * n * 8

    def test_logs_one_debug_record(self, caplog):
        points = np.random.default_rng(0).normal(0.0, 100.0, size=(500, 2))
        points[250:] += 1e4
        with caplog.at_level(logging.DEBUG, logger="resistive_pricing.ingest"):
            _kmeans(*points.T, 4, np.random.default_rng(0))
        [record] = caplog.records
        iterations, columns, full, tests, *woken = record.args
        assert full == 500 * iterations
        assert 500 <= columns < full
        assert 500 <= tests <= full
        assert woken[1:] == [0, 0, 0]

    def test_logs_the_columns_on_hotspots(self, caplog):
        # the seeding's first assignment comes with its bounds, so after
        # it only 7 763 columns are computed where 27 full passes would
        # take 1 080 000; 11 clusters freeze and none wakes
        points, k, new_rng = hotspots_draw(11)
        with caplog.at_level(logging.DEBUG, logger="resistive_pricing.ingest"):
            _kmeans(*points.T, k, new_rng())
        [record] = caplog.records
        assert record.args == (28, 47_763, 1_120_000, 404_572, 11, 0, 0, 0)

    def test_active_set_shrinks_on_hotspots(self, caplog):
        # frozen clusters leave the per-point work: after the seeding's
        # 40 000, the 27 assignments test fewer than 40% of their
        # 1 080 000 point bounds
        points, k, new_rng = hotspots_draw(11)
        with caplog.at_level(logging.DEBUG, logger="resistive_pricing.ingest"):
            _kmeans(*points.T, k, new_rng())
        iterations, _, _, tests, frozen, *_ = caplog.records[-1].args
        assert frozen > 0
        assert tests - 40_000 < 0.4 * (iterations - 1) * 40_000

    def test_logs_the_empty_cluster_fallback(self, caplog):
        points = np.random.default_rng(7).normal(0.0, 100.0, size=(40, 2))
        with caplog.at_level(logging.DEBUG, logger="resistive_pricing.ingest"):
            _kmeans(*points.T, 4, ScriptedSeeds([0, 5, 5, 9]))
        assert len(caplog.records) == 2
        assert "empty" in caplog.records[0].getMessage()

    def test_matches_reference_on_rides(self):
        rides = random_rides(np.random.default_rng(3), 2000)
        for seed, k in [(0, 15), (1, 12)]:
            clustering = cluster_endpoints(rides, k, BBOX, seed)
            lat = np.concatenate([rides.pickup_lat, rides.dropoff_lat])
            lon = np.concatenate([rides.pickup_lon, rides.dropoff_lon])
            points = projected(lat, lon, BBOX)
            _, labels, inertia = kmeans_reference(
                points, k, np.random.default_rng(seed))
            assert np.array_equal(clustering.origin_labels, labels[:2000])
            assert np.array_equal(clustering.dest_labels, labels[2000:])
            assert clustering.inertia == inertia


def draw_weights(draw, n):
    """Seeded non-negative weights of length n, with a positive sum: zeros,
    one nonzero entry, ties, and magnitudes from 1e-300 to 1e300."""
    rng = np.random.default_rng(draw)
    kind = draw % 6
    if kind == 0:
        w = rng.uniform(size=n) * (rng.uniform(size=n) < 0.3)
    elif kind == 1:
        w = np.zeros(n)
    elif kind == 2:
        w = rng.integers(1, 4, size=n).astype(float)
    elif kind == 3:
        w = 10.0 ** rng.uniform(-300, 300, size=n)
    elif kind == 4:
        w = 1e-300 * rng.uniform(size=n)
    else:
        w = 1e300 * rng.uniform(size=n)
    if not w.any():
        w[rng.integers(n)] = rng.uniform(1e-300, 1e300)
    return w


class TestDraw:
    """``_draw`` picks the index of ``Generator.choice(n, p=w / w.sum())``
    and leaves the generator in the same state; the seeding of
    ``_kmeans`` rests on it, while ``kmeans_reference`` keeps ``choice``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 40_000, 1 << 17])
    def test_same_index_and_state_as_choice(self, n):
        out = np.empty(n)
        for draw in range(6 if n > 1000 else 60):
            w = draw_weights(draw, n)
            total = w.sum()
            assert 0 < total < np.inf
            want, got = (np.random.default_rng([n, draw]) for _ in range(2))
            for _ in range(3):
                # three draws in a row from one generator
                assert _draw(w, total, got, out) \
                    == want.choice(n, p=w / total)
                assert got.bit_generator.state == want.bit_generator.state

    def test_single_nonzero_entry_is_always_drawn(self):
        w = np.zeros(9)
        w[4] = 1e-300
        rng = np.random.default_rng(0)
        assert {_draw(w, w.sum(), rng, np.empty(9)) for _ in range(50)} == {4}

    def test_a_draw_on_a_cumulative_sum_goes_right(self):
        # the uniform draw equals the first cumulative sum exactly, so the
        # search from the right passes index 0, as choice's does
        u = np.random.default_rng(3).random()
        w = np.array([u, 1.0 - u, 0.0])
        assert w.sum() == 1.0
        assert np.random.default_rng(3).choice(3, p=w) == 1
        assert _draw(w, 1.0, np.random.default_rng(3), np.empty(3)) == 1

    def test_weights_are_left_as_they_were(self):
        w = draw_weights(0, 500)
        before = w.copy()
        _draw(w, w.sum(), np.random.default_rng(0), np.empty(500))
        assert np.array_equal(w, before)


class TestDistinctPoints:
    """k-means++ seeding finds when fewer than k distinct points exist:
    k = the number of distinct points clusters, one more raises
    TooFewPoints."""

    def test_more_clusters_than_points_raise_before_any_draw(self):
        points = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(TooFewPoints, match="need at least 6 distinct"):
            _kmeans(*points.T, 6, ScriptedSeeds([]))

    @staticmethod
    def assert_threshold(points, distinct):
        if distinct >= 2:
            _kmeans(*points.T, distinct, np.random.default_rng(0))
        with pytest.raises(TooFewPoints,
                           match=f"need at least {distinct + 1} distinct"):
            _kmeans(*points.T, distinct + 1, np.random.default_rng(0))

    @pytest.mark.parametrize("draw", range(10))
    def test_matches_unique_rows(self, draw):
        rng = np.random.default_rng(draw)
        points = np.round(rng.uniform(0, 3, size=(int(rng.integers(1, 60)), 2)))
        self.assert_threshold(points, len(np.unique(points, axis=0)))

    def test_signed_zero_is_one_point(self):
        points = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0]])
        assert len(np.unique(points, axis=0)) == 2
        self.assert_threshold(points, 2)

    def test_too_few_distinct_endpoints(self):
        rides = random_rides(np.random.default_rng(4), 50, grid=1)
        distinct = len(set(zip(rides.pickup_lat, rides.pickup_lon))
                       | set(zip(rides.dropoff_lat, rides.dropoff_lon)))
        cluster_endpoints(rides, distinct, BBOX, seed=0)
        with pytest.raises(TooFewPoints):
            cluster_endpoints(rides, distinct + 1, BBOX, seed=0)


class TestAggregation:
    @pytest.mark.parametrize("draw", range(6))
    def test_matches_loop_reference(self, draw):
        rng = np.random.default_rng(draw)
        rides = random_rides(rng, 600, grid=8 if draw % 2 else None)
        k = int(rng.integers(3, 10))
        clustering = cluster_endpoints(rides, k, BBOX, seed=draw)
        result = aggregate_network(rides, clustering, 600.0, 0.6)
        counts, durations, intra = aggregate_reference(
            rides, clustering.origin_labels, clustering.dest_labels, k, 600.0)
        kept = np.array(result.kept_clusters)
        sub = np.ix_(kept, kept)
        with np.errstate(invalid="ignore"):
            mean = np.where(counts > 0, durations / np.maximum(counts, 1), 1.0)
        net = result.network
        assert np.array_equal(net.demand, counts[sub])
        assert np.array_equal(net.travel_time.view(np.int64),
                              mean[sub].view(np.int64))
        assert result.dropped_rides == intra
        assert sorted(result.kept_clusters + result.dropped_clusters) \
            == list(range(k))


class TestFilter:
    def test_matches_loop_form(self):
        rng = np.random.default_rng(6)
        lat0, lat1, lon0, lon1 = BBOX
        rows = [(*rng.uniform(
            [lat0 - 0.01, lon0 - 0.01, lat0 - 0.01, lon0 - 0.01],
            [lat1 + 0.01, lon1 + 0.01, lat1 + 0.01, lon1 + 0.01]),
            t, t + 300) for t in rng.uniform(0, 4000, 500)]
        window = (500.0, 3000.0)
        want = [(olat, olon, dlat, dlon, t0, t1)
                for olat, olon, dlat, dlon, t0, t1 in rows
                if lat0 <= olat <= lat1 and lat0 <= dlat <= lat1
                and lon0 <= olon <= lon1 and lon0 <= dlon <= lon1
                and window[0] <= t0 and t1 <= window[1]]
        assert 0 < len(want) < len(rows)
        assert_same_rides(filter_rides(rides_of(rows), BBOX, window),
                          rides_of(want))

    def test_empty(self):
        assert len(filter_rides(rides_of([]), BBOX, (0.0, 1.0))) == 0


class TestReadRidesCsv:
    def write(self, tmp_path, rows):
        path = tmp_path / "rides.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADER)
            writer.writerows(rows)
        return path

    def test_matches_dictreader_form(self, tmp_path):
        rng = np.random.default_rng(0)
        rides = random_rides(rng, 200)
        columns = [getattr(rides, col).tolist() for col in HEADER]
        path = self.write(tmp_path, [[repr(v) for v in row]
                                     for row in zip(*columns)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = Rides(**{col: [float(row[col]) for row in rows]
                        for col in HEADER})
        got = read_rides_csv(path)
        assert len(got) == 200
        assert_same_rides(got, want)
        assert_same_rides(got, rides)

    def test_reordered_columns_extra_text_and_quotes(self, tmp_path):
        path = tmp_path / "rides.csv"
        path.write_text(
            'note,dropoff_lat,pickup_time,"dropoff_lon",pickup_lat,'
            'dropoff_time,pickup_lon\n'
            '"a, quoted ""note""",30.67,0,104.05,30.66,"600",104.04\n'
            'plain,30.68,100.5,104.06,30.655,700.25,104.045\n')
        assert_same_rides(read_rides_csv(path), rides_of([
            (30.66, 104.04, 30.67, 104.05, 0.0, 600.0),
            (30.655, 104.045, 30.68, 104.06, 100.5, 700.25)]))

    def test_header_only(self, tmp_path):
        assert len(read_rides_csv(self.write(tmp_path, []))) == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "rides.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="columns"):
            read_rides_csv(path)

    @pytest.mark.parametrize("row", [
        ["0", "600", "104.04", "nan", "104.05", "30.67"],
        ["0", "600", "104.04", "30.66", "inf", "30.67"],
        ["600", "600", "104.04", "30.66", "104.05", "30.67"],
        ["700", "600", "104.04", "30.66", "104.05", "30.67"],
        ["0", "nan", "104.04", "30.66", "104.05", "30.67"],
        ["0", "600", "104.04", "30.66", "", "30.67"],
        ["0", "600", "104.04", "x", "104.05", "30.67"],
        ["0", "600", "104.04", "30.66", "104.05"],
    ])
    def test_bad_row_raises(self, tmp_path, row):
        good = ["0", "600", "104.04", "30.66", "104.05", "30.67"]
        path = self.write(tmp_path, [good, row])
        with pytest.raises(ValueError):
            read_rides_csv(path)

    def test_rejected_ride_named_by_data_row(self, tmp_path):
        good = ["0", "600", "104.04", "30.66", "104.05", "30.67"]
        late = ["700", "600", "104.04", "30.66", "104.05", "30.67"]
        path = self.write(tmp_path, [good, good, late, good])
        with pytest.raises(ValueError,
                           match="^ride 2: dropoff_time <= pickup_time"):
            read_rides_csv(path)

    @pytest.mark.parametrize("rows", [
        [["0", "600", "104.04", "x", "104.05", "30.67"]],
        [["0", "600", "104.04", "30.66", "104.05"]],
        [[], ["0", "600", "104.04", "x", "104.05", "30.67"]],
    ], ids=["non-numeric", "short", "after-blank-line"])
    def test_unparseable_row_named_by_data_row(self, tmp_path, rows):
        good = ["0", "600", "104.04", "30.66", "104.05", "30.67"]
        path = self.write(tmp_path, [good] + rows)
        with pytest.raises(ValueError, match="^ride 1: "):
            read_rides_csv(path)

    def test_bad_row_is_usage_error_in_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        self.write(tmp_path, [["0", "600", "104.04", "nan", "104.05", "30.67"]])
        code = main(["ingest", "--rides", "rides.csv", "--bbox",
                     "30.65,30.69,104.03,104.08", "--window", "0,4200",
                     "--k", "3", "--slot-seconds", "600", "--cost", "0.6",
                     "--seed", "3", "--out", "net.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
