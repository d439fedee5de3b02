"""Build traffic networks from ride records, plus a synthetic generator.

Ride endpoints (origins and destinations pooled into one point cloud) are
clustered into locations with k-means; demand is the ride count between
cluster pairs and travel time the average ride duration in slots.  The
synthetic generator stands in for non-redistributable ride datasets and
mimics a morning-commute demand pattern.
"""

import csv
from dataclasses import dataclass

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
        coords = (self.pickup_lat, self.pickup_lon,
                  self.dropoff_lat, self.dropoff_lon)
        if not all(np.isfinite(coords)):
            raise ValueError("ride coordinates must be finite")
        if not self.dropoff_time > self.pickup_time:
            raise ValueError("dropoff_time must exceed pickup_time")


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
    """Load rides from CSV with the documented header (RFC-4180)."""
    required = ["pickup_time", "dropoff_time", "pickup_lon", "pickup_lat",
                "dropoff_lon", "dropoff_lat"]
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or any(
                col not in reader.fieldnames for col in required):
            raise ValueError(f"rides CSV must carry columns {required}")
        for row in reader:
            records.append(RideRecord(
                pickup_lat=float(row["pickup_lat"]),
                pickup_lon=float(row["pickup_lon"]),
                dropoff_lat=float(row["dropoff_lat"]),
                dropoff_lon=float(row["dropoff_lon"]),
                pickup_time=float(row["pickup_time"]),
                dropoff_time=float(row["dropoff_time"]),
            ))
    return records


def filter_rides(records, bbox, window) -> list[RideRecord]:
    """Keep rides whose both endpoints sit in bbox and both times in window.

    bbox is (lat_min, lat_max, lon_min, lon_max); window is (t0, t1).
    """
    lat0, lat1, lon0, lon1 = bbox
    t0, t1 = window
    kept = []
    for r in records:
        if not (lat0 <= r.pickup_lat <= lat1 and lat0 <= r.dropoff_lat <= lat1):
            continue
        if not (lon0 <= r.pickup_lon <= lon1 and lon0 <= r.dropoff_lon <= lon1):
            continue
        if not (t0 <= r.pickup_time and r.dropoff_time <= t1):
            continue
        kept.append(r)
    return kept


def _project_metres(lat, lon, bbox):
    lat_mid = np.deg2rad(0.5 * (bbox[0] + bbox[1]))
    x = EARTH_RADIUS_M * np.cos(lat_mid) * np.deg2rad(lon)
    y = EARTH_RADIUS_M * np.deg2rad(lat)
    return np.column_stack([x, y])


def _kmeans(points, k, rng, max_iter=300):
    n = len(points)
    # k-means++ seeding
    centers = np.empty((k, 2))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for ci in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[ci] = points[rng.integers(n)]
        else:
            centers[ci] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((points - centers[ci]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = dists.argmin(axis=1)
        for ci in range(k):
            sel = new_labels == ci
            if sel.any():
                centers[ci] = points[sel].mean(axis=0)
            else:
                # reseed an empty cluster at the farthest point
                far = int(dists.min(axis=1).argmax())
                centers[ci] = points[far]
                new_labels[far] = ci
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    return centers, labels, inertia


def cluster_endpoints(records, k: int, bbox, seed) -> ClusteringResult:
    """Cluster pooled origin and destination points into k locations.

    Records must already be filtered to bbox and the time window.
    k-means++ initialization from ``seed``; Lloyd iterations capped at
    300; deterministic given the seed.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if not records:
        raise TooFewPoints("no ride records supplied")
    lats = np.array([r.pickup_lat for r in records]
                    + [r.dropoff_lat for r in records])
    lons = np.array([r.pickup_lon for r in records]
                    + [r.dropoff_lon for r in records])
    points = _project_metres(lats, lons, bbox)
    if len(np.unique(points, axis=0)) < k:
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
    counts = np.zeros((k, k))
    durations = np.zeros((k, k))
    dropped_rides = 0
    for rec, oi, di in zip(records, clustering.origin_labels,
                           clustering.dest_labels):
        if oi == di:
            dropped_rides += 1
            continue
        counts[oi, di] += 1
        durations[oi, di] += (rec.dropoff_time - rec.pickup_time) / slot_seconds
    if counts.sum() == 0:
        raise EmptyAfterAggregation("every ride is intra-cluster")

    with np.errstate(invalid="ignore"):
        mean_time = np.where(counts > 0, durations / np.maximum(counts, 1), 1.0)

    # largest weakly connected component over clusters with any traffic
    sym = counts + counts.T
    comps = connected_components(sym)
    isolated = (sym.sum(axis=1) == 0)
    # traffic-free clusters never qualify
    sizes = [0 if isolated[members].all() else len(members)
             for members in comps]
    kept = comps[int(np.argmax(sizes))]
    if len(kept) < 2:
        raise EmptyAfterAggregation("largest component has fewer than 2 locations")
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
