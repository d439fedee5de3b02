"""Build traffic networks from ride records, plus a synthetic generator.

Ride endpoints (origins and destinations pooled into one point cloud) are
clustered into locations with k-means; demand is the ride count between
cluster pairs and travel time the average ride duration in slots.  The
synthetic generator stands in for non-redistributable ride datasets and
mimics a morning-commute demand pattern.
"""

import csv
import math
import warnings
from dataclasses import dataclass, fields
from itertools import compress
from operator import attrgetter

import numpy as np

from .network import TrafficNetwork, connected_components, validate_network
from .selection import AdvertiserCatalog

EARTH_RADIUS_M = 6_371_000.0


class TooFewPoints(ValueError):
    pass


class EmptyAfterAggregation(ValueError):
    pass


@dataclass(frozen=True)
class RideRecord:
    pickup_lat: float
    pickup_lon: float
    dropoff_lat: float
    dropoff_lon: float
    pickup_time: float
    dropoff_time: float

    def __post_init__(self):
        if not (math.isfinite(self.pickup_lat) and math.isfinite(self.pickup_lon)
                and math.isfinite(self.dropoff_lat)
                and math.isfinite(self.dropoff_lon)):
            raise ValueError("ride coordinates must be finite")
        if not self.dropoff_time > self.pickup_time:
            raise ValueError("dropoff_time must exceed pickup_time")


RIDE_FIELDS = tuple(f.name for f in fields(RideRecord))


def _columns(records, *names):
    """One float array per named RideRecord field, in record order."""
    m = len(records)
    return [np.fromiter(map(attrgetter(name), records), float, count=m)
            for name in names]


@dataclass(frozen=True)
class ClusteringResult:
    """k-means clustering of pooled ride endpoints.

    ``origin_labels`` / ``dest_labels`` give each record's endpoint
    clusters; ``inertia`` is the within-cluster squared distance in
    metres squared (equirectangular projection).
    """

    centroids: np.ndarray       # (k, 2) lat, lon
    origin_labels: np.ndarray
    dest_labels: np.ndarray
    inertia: float


def read_rides_csv(path) -> list[RideRecord]:
    """Load rides from an RFC-4180 CSV whose header names the six
    RideRecord fields.

    Columns may come in any order and extra columns are ignored.  A row
    that does not parse, or that RideRecord rejects, raises ValueError.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or any(col not in header for col in RIDE_FIELDS):
            raise ValueError(f"rides CSV must carry columns {list(RIDE_FIELDS)}")
        with warnings.catch_warnings():
            # a header-only file is an empty ride list
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(
                fh, dtype=float, delimiter=",", quotechar='"', comments=None,
                usecols=[header.index(col) for col in RIDE_FIELDS], ndmin=2)
    return [RideRecord(*row) for row in table.tolist()]


def filter_rides(records, bbox, window) -> list[RideRecord]:
    """Keep rides whose both endpoints sit in bbox and both times in window.

    bbox is (lat_min, lat_max, lon_min, lon_max); window is (t0, t1).
    """
    lat0, lat1, lon0, lon1 = bbox
    t0, t1 = window
    olat, olon, dlat, dlon, start, end = _columns(records, *RIDE_FIELDS)
    keep = ((lat0 <= olat) & (olat <= lat1) & (lat0 <= dlat) & (dlat <= lat1)
            & (lon0 <= olon) & (olon <= lon1) & (lon0 <= dlon) & (dlon <= lon1)
            & (t0 <= start) & (end <= t1))
    return list(compress(records, keep))


def _project_metres(lat, lon, bbox):
    lat_mid = np.deg2rad(0.5 * (bbox[0] + bbox[1]))
    x = EARTH_RADIUS_M * np.cos(lat_mid) * np.deg2rad(lon)
    y = EARTH_RADIUS_M * np.deg2rad(lat)
    return np.column_stack([x, y])


def _kmeans(points, k, rng, max_iter=300):
    """k-means++ seeding, then Lloyd iterations on an (n, 2) point array.

    Squared distances are ``dx*dx + dy*dy`` from 1-D coordinate arrays,
    kept as a (k, n) array; each point takes the first nearest centroid.
    A centroid is its members' coordinate sums (``np.bincount``, in index
    order) over their count.  In an iteration that leaves some cluster
    empty, clusters are visited in order instead: an empty one is
    reseeded at the point farthest from every centroid, which then joins
    it.  Returns (centers, labels, inertia).
    """
    n = len(points)
    x = np.ascontiguousarray(points[:, 0])
    y = np.ascontiguousarray(points[:, 1])

    # k-means++ seeding
    centers = np.empty((k, 2))
    centers[0] = points[rng.integers(n)]
    d2 = (x - centers[0, 0]) ** 2 + (y - centers[0, 1]) ** 2
    for ci in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[ci] = points[rng.integers(n)]
        else:
            centers[ci] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, (x - centers[ci, 0]) ** 2 + (y - centers[ci, 1]) ** 2)

    dists = np.empty((k, n))
    dy = np.empty((k, n))

    def squared_distances():
        np.subtract.outer(centers[:, 0], x, out=dists)
        np.subtract.outer(centers[:, 1], y, out=dy)
        np.multiply(dists, dists, out=dists)
        np.multiply(dy, dy, out=dy)
        return np.add(dists, dy, out=dists)

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        new_labels = squared_distances().argmin(axis=0)
        counts = np.bincount(new_labels, minlength=k)
        if counts.all():
            centers = np.column_stack([
                np.bincount(new_labels, weights=x, minlength=k) / counts,
                np.bincount(new_labels, weights=y, minlength=k) / counts])
        else:
            for ci in range(k):
                sel = new_labels == ci
                if sel.any():
                    centers[ci] = points[sel].mean(axis=0)
                else:
                    far = int(dists.min(axis=0).argmax())
                    centers[ci] = points[far]
                    new_labels[far] = ci
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    labels = squared_distances().argmin(axis=0)
    inertia = float(dists[labels, np.arange(n)].sum())
    return centers, labels, inertia


def _distinct_points(points) -> int:
    """Number of distinct rows of an (n, 2) array."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    rows = points[order]
    return 1 + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))


def cluster_endpoints(records, k: int, bbox, seed) -> ClusteringResult:
    """Cluster pooled origin and destination points into k locations.

    Records must already be filtered to bbox and the time window.  The
    origins, then the destinations, are projected to metres; fewer than k
    distinct points raise TooFewPoints.  k-means++ initialization from
    ``seed``; Lloyd iterations capped at 300; deterministic given the seed.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not records:
        raise TooFewPoints("no ride records supplied")
    olat, olon, dlat, dlon = _columns(records, "pickup_lat", "pickup_lon",
                                      "dropoff_lat", "dropoff_lon")
    points = _project_metres(np.concatenate([olat, dlat]),
                             np.concatenate([olon, dlon]), bbox)
    if _distinct_points(points) < k:
        raise TooFewPoints(f"need at least {k} distinct endpoints")
    rng = np.random.default_rng(seed)
    centers_m, labels, inertia = _kmeans(points, k, rng)

    lat_mid = np.deg2rad(0.5 * (bbox[0] + bbox[1]))
    cent_lat = np.rad2deg(centers_m[:, 1] / EARTH_RADIUS_M)
    cent_lon = np.rad2deg(centers_m[:, 0] / (EARTH_RADIUS_M * np.cos(lat_mid)))
    m = len(records)
    return ClusteringResult(
        centroids=np.column_stack([cent_lat, cent_lon]),
        origin_labels=labels[:m],
        dest_labels=labels[m:],
        inertia=inertia,
    )


@dataclass(frozen=True)
class AggregationResult:
    network: TrafficNetwork
    kept_clusters: tuple      # cluster id per network location
    dropped_clusters: tuple   # cluster ids outside the largest component
    dropped_rides: int        # intra-cluster rides


def aggregate_network(records, clustering: ClusteringResult,
                      slot_seconds: float, cost: float) -> AggregationResult:
    """Aggregate labelled rides into a validated TrafficNetwork.

    demand[i, j] counts rides from cluster i to cluster j (intra-cluster
    rides dropped); travel_time[i, j] is the mean ride duration in slots,
    fractional values kept.  Only the largest weakly connected component
    is returned, with the dropped cluster ids reported.
    """
    if slot_seconds <= 0:
        raise ValueError("slot_seconds must be positive")
    k = len(clustering.centroids)
    origin = np.asarray(clustering.origin_labels)
    dest = np.asarray(clustering.dest_labels)
    start, end = _columns(records, "pickup_time", "dropoff_time")
    inter = origin != dest
    dropped_rides = len(inter) - int(np.count_nonzero(inter))
    # bincount sums in record order, as a per-record loop would
    pair = origin[inter] * k + dest[inter]
    counts = np.bincount(pair, minlength=k * k).reshape(k, k).astype(float)
    durations = np.bincount(pair, weights=((end - start) / slot_seconds)[inter],
                            minlength=k * k).reshape(k, k)
    if counts.sum() == 0:
        raise EmptyAfterAggregation("every ride is intra-cluster")

    with np.errstate(invalid="ignore"):
        mean_time = np.where(counts > 0, durations / np.maximum(counts, 1), 1.0)

    # largest weakly connected component; a cluster without inter-cluster
    # rides is a singleton, so it never beats a pair that has some
    kept = max(connected_components(counts + counts.T), key=len)
    dropped = tuple(int(i) for i in np.setdiff1d(np.arange(k), kept))

    net = validate_network(counts[np.ix_(kept, kept)],
                           mean_time[np.ix_(kept, kept)], cost)
    return AggregationResult(
        network=net,
        kept_clusters=tuple(int(i) for i in kept),
        dropped_clusters=dropped,
        dropped_rides=dropped_rides,
    )


def synth_instance(n: int, density: float, seed, profile: str = "symmetric",
                   cost: float = 0.6):
    """Generate a random connected instance and advertiser catalog.

    ``profile`` is 'symmetric' (demand equal in both directions) or
    'commuter' (demand skewed toward a designated commercial subset, so
    its inflow strictly exceeds its outflow).  Willingness-to-pay values
    are exponential with mean 0.4.  Deterministic given seed.

    Returns (TrafficNetwork, AdvertiserCatalog).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    if profile not in ("symmetric", "commuter"):
        raise ValueError("profile must be 'symmetric' or 'commuter'")
    rng = np.random.default_rng(seed)

    # random spanning tree, then extra undirected pairs up to the density
    edges = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        u = int(order[idx])
        v = int(order[rng.integers(idx)])
        edges.add((min(u, v), max(u, v)))
    target = max(n - 1, int(round(density * n * (n - 1) / 2)))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(all_pairs)
    for pair in all_pairs:
        if len(edges) >= target:
            break
        edges.add(pair)

    demand = np.zeros((n, n))
    travel = np.ones((n, n))
    commercial = set(int(i) for i in rng.choice(n, size=max(1, n // 5),
                                                replace=False))
    for i, j in sorted(edges):
        t = rng.uniform(0.8, 3.0)
        travel[i, j] = travel[j, i] = t
        base = rng.uniform(0.5, 2.0)
        if profile == "symmetric":
            demand[i, j] = demand[j, i] = base
        else:
            into = (j in commercial) and (i not in commercial)
            outof = (i in commercial) and (j not in commercial)
            if into:
                demand[i, j] = base * rng.uniform(2.0, 4.0)
                demand[j, i] = base * rng.uniform(0.2, 0.6)
            elif outof:
                demand[i, j] = base * rng.uniform(0.2, 0.6)
                demand[j, i] = base * rng.uniform(2.0, 4.0)
            else:
                demand[i, j] = base * rng.uniform(0.8, 1.2)
                demand[j, i] = base * rng.uniform(0.8, 1.2)
    net = validate_network(demand, travel, cost)

    arc_based = {arc: float(rng.exponential(0.4)) for arc in net.arcs}
    location_based = {}
    for k in range(n):
        incoming = {int(i) for i, j in net.arcs if j == k}
        if incoming:
            location_based[k] = {i: float(rng.exponential(0.4))
                                 for i in sorted(incoming)}
    catalog = AdvertiserCatalog(arc_based=arc_based,
                                location_based=location_based, budget=1)
    return net, catalog
