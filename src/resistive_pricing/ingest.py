"""Traffic networks from columnar ride records, plus a synthetic generator.

Ride endpoints (origins and destinations pooled into one point cloud) are
clustered into locations with k-means; demand is the ride count between
cluster pairs and travel time the average ride duration in slots.  The
synthetic generator stands in for non-redistributable ride datasets and
mimics a morning-commute demand pattern.
"""

import csv
import logging
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .network import (FrozenArrays, TrafficNetwork, connected_components,
                      validate_network)
from .selection import AdvertiserCatalog

EARTH_RADIUS_M = 6_371_000.0
KMEANS_MAX_ITER = 300
# most squared distances _kmeans holds at once: its column blocks
KMEANS_BLOCK = 1 << 16
# relative skip margin of the bound-accelerated k-means (see _kmeans)
KMEANS_MARGIN = 1e-9

log = logging.getLogger(__name__)


class TooFewPoints(ValueError):
    pass


class EmptyAfterAggregation(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Rides(FrozenArrays):
    """Rides as six equal-length, read-only float64 columns.  A ride with
    a non-finite coordinate or ``dropoff_time <= pickup_time`` is named.

    >>> Rides([1, 2], [1, 2], [1, 2], [1, 2], [0, 60], [600, 30])
    Traceback (most recent call last):
    ValueError: ride 1: dropoff_time <= pickup_time
    """

    pickup_lat: np.ndarray
    pickup_lon: np.ndarray
    dropoff_lat: np.ndarray
    dropoff_lon: np.ndarray
    pickup_time: np.ndarray
    dropoff_time: np.ndarray

    def __post_init__(self):
        columns = [np.array(getattr(self, name), dtype=float)
                   for name in RIDE_FIELDS]
        m = min(col.size for col in columns)
        if any(col.shape != (m,) for col in columns):
            raise ValueError(f"ride {m}: columns must be 1-D of equal length")
        late = ~(columns[5] > columns[4])
        bad = late | ~np.isfinite(np.stack(columns[:4])).all(axis=0)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"ride {i}: dropoff_time <= pickup_time" if late[i]
                             else f"ride {i}: non-finite coordinate")
        for name, col in zip(RIDE_FIELDS, columns):
            object.__setattr__(self, name, col)
        super().__post_init__()

    def __len__(self) -> int:
        return len(self.pickup_time)


RIDE_FIELDS = tuple(f.name for f in fields(Rides))


@dataclass(frozen=True)
class ClusteringResult(FrozenArrays):
    """k-means clustering of pooled ride endpoints.

    ``origin_labels`` / ``dest_labels`` give each ride's endpoint
    clusters; ``inertia`` is the within-cluster squared distance in
    metres squared (equirectangular projection).  Arrays are read-only.
    """

    centroids: np.ndarray       # (k, 2) lat, lon
    origin_labels: np.ndarray
    dest_labels: np.ndarray
    inertia: float


def read_rides_csv(path) -> Rides:
    """Load rides from an RFC-4180 CSV whose header names the Rides columns.

    Columns may come in any order and extra columns are ignored.  A row
    that does not parse, or a ride that Rides rejects, raises ValueError
    naming the ride by its zero-based index among the non-blank data rows.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or any(col not in header for col in RIDE_FIELDS):
            raise ValueError(f"rides CSV must carry columns {list(RIDE_FIELDS)}")
        usecols = [header.index(col) for col in RIDE_FIELDS]
        try:
            with warnings.catch_warnings():
                # a header-only file holds no rides
                warnings.filterwarnings("ignore",
                                        "loadtxt: input contained no data")
                table = np.loadtxt(fh, delimiter=",", quotechar='"',
                                   comments=None, ndmin=2, usecols=usecols)
        except ValueError:
            fh.seek(0)
            _name_bad_row(fh, usecols)
            raise
    return Rides(*table.T)


def _name_bad_row(fh, usecols):
    """Raise ValueError naming the first data row of a ride CSV that does
    not parse.  Blank lines are skipped and not counted, as np.loadtxt
    skips them."""
    rows = csv.reader(fh)
    next(rows)
    for i, row in enumerate(row for row in rows if row):
        if len(row) <= max(usecols):
            raise ValueError(f"ride {i}: {len(row)} fields, "
                             f"{max(usecols) + 1} needed")
        try:
            for col in usecols:
                float(row[col])
        except ValueError as exc:
            raise ValueError(f"ride {i}: {exc}") from None


def filter_rides(rides: Rides, bbox, window) -> Rides:
    """Keep rides whose both endpoints sit in bbox and both times in window.

    bbox is (lat_min, lat_max, lon_min, lon_max); window is (t0, t1).
    """
    lat0, lat1, lon0, lon1 = bbox
    t0, t1 = window
    columns = [getattr(rides, name) for name in RIDE_FIELDS]
    olat, olon, dlat, dlon, start, end = columns
    keep = ((lat0 <= olat) & (olat <= lat1) & (lat0 <= dlat) & (dlat <= lat1)
            & (lon0 <= olon) & (olon <= lon1) & (lon0 <= dlon) & (dlon <= lon1)
            & (t0 <= start) & (end <= t1))
    return Rides(*(col[keep] for col in columns))


def _project_metres(lat, lon, bbox):
    lat_mid = np.deg2rad(0.5 * (bbox[0] + bbox[1]))
    x = EARTH_RADIUS_M * np.cos(lat_mid) * np.deg2rad(lon)
    y = EARTH_RADIUS_M * np.deg2rad(lat)
    return np.column_stack([x, y])


def _kmeans(points, k, rng):
    """k-means++ seeding, then Lloyd iterations on an (n, 2) point array.

    Squared distances are ``dx*dx + dy*dy`` from 1-D coordinate arrays;
    each point takes the first nearest centroid.  A centroid is its
    members' coordinate sums (``np.bincount``, in index order) over their
    count.  Returns (centers, labels, inertia), where the inertia sums
    each point's squared distance to its own centroid.  Raises
    TooFewPoints when k exceeds n, before any draw, or when the seeding
    finds fewer than k distinct points.

    The seeding computes every point's distance to every centre, so it
    also gives the first assignment: each point's first nearest centre
    (a strictly smaller distance moves it, so ties keep the lower index)
    with its smallest and second-smallest squared distances.  Then each
    of at most ``KMEANS_MAX_ITER`` iterations updates the centroids and
    assigns every point again, and the loop ends on an assignment: when
    no label changed, or at the cap.  The labels are therefore those of
    the final centroids, with no further pass.

    Most points stop moving after a few iterations, so the loop keeps,
    per point, an upper bound ``u`` on the distance to its own centroid
    and a lower bound ``l`` on the distance to every other one (Hamerly,
    "Making k-means even faster", SDM 2010).  A point is skipped, keeping
    its label, when ``u`` plus a margin is below the larger of ``l`` and
    half the distance from its centroid to the nearest other centroid;
    by the triangle inequality its label cannot change then.  The rest
    get a full column of distances, and ``u`` and ``l`` are reset to its
    smallest and second-smallest entries.  After each centroid update,
    ``u`` grows by the distance its own centroid moved and ``l`` shrinks
    by the largest move among the other centroids.  Columns come in
    blocks of at most ``KMEANS_BLOCK`` distances (and at least one
    column), and only per-point results are kept, so memory grows with n,
    not with k times n.

    The margin covers rounding, so that a skipped point's computed
    distances would also have given it its label, ties included: a
    relative ``KMEANS_MARGIN`` on ``u`` covers the few roundings in each
    distance and in the sums that grow ``u``, and an absolute floor of
    ``KMEANS_MAX_ITER + 8`` ulps of four times the largest coordinate
    magnitude covers the cancellation in ``l``, which loses at most one
    rounding of the point cloud's diameter per iteration.  Labels,
    centroids and inertia are therefore bit-identical to full Lloyd
    passes that start from all-zero labels and stop after the first
    iteration that leaves the labels as they were.

    In an iteration that leaves some cluster empty, clusters are visited
    in order instead, after one full pass: an empty one is reseeded at
    the point farthest from every centroid, which then joins it, and the
    next assignment gives every point a full column.  One debug record
    per call gives the assignments and the distance columns computed.
    """
    n = len(points)
    if k > n:
        raise TooFewPoints(f"need at least {k} distinct endpoints")
    x = np.ascontiguousarray(points[:, 0])
    y = np.ascontiguousarray(points[:, 1])

    # k-means++ seeding, which also makes the first assignment
    centers = np.empty((k, 2))
    centers[0] = points[rng.integers(n)]
    labels = np.zeros(n, dtype=int)
    d2 = (x - centers[0, 0]) ** 2 + (y - centers[0, 1]) ** 2
    second = np.full(n, np.inf)
    for ci in range(1, k):
        # d2 sums to 0 exactly when the ci centres hold every distinct point
        total = d2.sum()
        if total == 0:
            raise TooFewPoints(f"need at least {k} distinct endpoints")
        centers[ci] = points[rng.choice(n, p=d2 / total)]
        dc = (x - centers[ci, 0]) ** 2 + (y - centers[ci, 1]) ** 2
        labels[dc < d2] = ci
        np.minimum(second, np.maximum(d2, dc), out=second)
        np.minimum(d2, dc, out=d2)
    upper = np.sqrt(d2, out=d2)
    lower = np.sqrt(second, out=second)

    cols = max(1, KMEANS_BLOCK // k)
    buffers = np.empty((2, k * min(cols, n)))

    def blocks(idx=None):
        """Yield (index, (k, m) squared distances) for the points idx, all
        points when None, at most ``cols`` points at a time."""
        size = n if idx is None else len(idx)
        for lo in range(0, size, cols):
            at = slice(lo, lo + cols) if idx is None else idx[lo:lo + cols]
            px, py = x[at], y[at]
            out = buffers[0, :k * len(px)].reshape(k, -1)
            tmp = buffers[1, :k * len(px)].reshape(k, -1)
            np.subtract.outer(centers[:, 0], px, out=out)
            np.subtract.outer(centers[:, 1], py, out=tmp)
            np.multiply(out, out, out=out)
            np.multiply(tmp, tmp, out=tmp)
            yield at, np.add(out, tmp, out=out)

    floor = (KMEANS_MAX_ITER + 8) * np.spacing(4.0 * np.abs(points).max())
    # whether the last assignment changed a label, and the points it moved
    # with their labels before (None: the plain loop's all-zero start)
    changed = bool(labels.any())
    moved = was = None
    assignments, columns = 1, n
    for it in range(KMEANS_MAX_ITER):
        old = centers.copy()
        counts = np.bincount(labels, minlength=k)
        reseeded = not counts.all()
        if not reseeded:
            centers = np.column_stack([
                np.bincount(labels, weights=x, minlength=k) / counts,
                np.bincount(labels, weights=y, minlength=k) / counts])
        else:
            log.debug("k-means iteration %d left %d cluster(s) empty: full "
                      "pass and reseed", it + 1, k - np.count_nonzero(counts))
            if moved is None:
                before = np.zeros_like(labels)
            else:
                before = labels.copy()
                before[moved] = was
            nearest = np.empty(n)
            for at, block in blocks():
                block.min(axis=0, out=nearest[at])
            columns += n
            for ci in range(k):
                sel = labels == ci
                if sel.any():
                    centers[ci] = points[sel].mean(axis=0)
                else:
                    far = int(nearest.argmax())
                    centers[ci] = points[far]
                    labels[far] = ci
            upper[:] = np.inf
            changed = not np.array_equal(labels, before)
        drift = np.sqrt(((centers - old) ** 2).sum(axis=1))
        top = int(drift.argmax())
        others = np.full(k, drift[top])
        others[top] = np.partition(drift, k - 2)[k - 2]
        upper += drift[labels]
        lower -= others[labels]

        gaps = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(axis=2))
        np.fill_diagonal(gaps, np.inf)
        half = 0.5 * gaps.min(axis=1)
        stale = np.flatnonzero(upper * (1.0 + KMEANS_MARGIN) + floor
                               >= np.maximum(lower, half[labels]))
        assignments += 1
        columns += len(stale)
        moved, was = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
        for at, block in blocks(stale):
            near = block.argmin(axis=0)
            j = np.arange(len(near))
            upper[at] = np.sqrt(block[near, j])
            block[near, j] = np.inf
            lower[at] = np.sqrt(block.min(axis=0))
            prev = labels[at]
            move = near != prev
            moved.append(at[move])
            was.append(prev[move])
            labels[at] = near
        moved, was = np.concatenate(moved), np.concatenate(was)
        # the plain loop stops after an update that leaves the labels as
        # they were, and this assignment is its final pass; after a bincount
        # update, an assignment that moves no point means the next update
        # would give the same centroids and stop it
        if not changed or not (reseeded or len(moved)):
            break
        changed = len(moved) > 0
    log.debug("k-means: %d assignments, %d distance columns, n x assignments "
              "= %d", assignments, columns, n * assignments)
    dist = (centers[labels, 0] - x) ** 2
    dist += (centers[labels, 1] - y) ** 2
    return centers, labels, float(dist.sum())


def cluster_endpoints(rides: Rides, k: int, bbox, seed) -> ClusteringResult:
    """Cluster pooled origin and destination points into k locations.

    Rides must already be filtered to bbox and the time window.  The
    origins, then the destinations, are projected to metres; fewer than k
    distinct points raise TooFewPoints.  k-means++ initialization from
    ``seed`` also gives the first assignment; Lloyd iterations, capped at
    ``KMEANS_MAX_ITER``, end on an assignment, and distances come in
    blocks of at most ``KMEANS_BLOCK`` entries (see ``_kmeans``).
    Deterministic given the seed.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(rides) == 0:
        raise TooFewPoints("no rides supplied")
    lat = np.concatenate([rides.pickup_lat, rides.dropoff_lat])
    lon = np.concatenate([rides.pickup_lon, rides.dropoff_lon])
    points = _project_metres(lat, lon, bbox)
    rng = np.random.default_rng(seed)
    centers_m, labels, inertia = _kmeans(points, k, rng)

    lat_mid = np.deg2rad(0.5 * (bbox[0] + bbox[1]))
    cent_lat = np.rad2deg(centers_m[:, 1] / EARTH_RADIUS_M)
    cent_lon = np.rad2deg(centers_m[:, 0] / (EARTH_RADIUS_M * np.cos(lat_mid)))
    return ClusteringResult(
        centroids=np.column_stack([cent_lat, cent_lon]),
        origin_labels=labels[:len(rides)],
        dest_labels=labels[len(rides):],
        inertia=inertia,
    )


@dataclass(frozen=True)
class AggregationResult:
    network: TrafficNetwork
    kept_clusters: tuple      # cluster id per network location
    dropped_clusters: tuple   # cluster ids outside the largest component
    dropped_rides: int        # intra-cluster rides


def aggregate_network(rides: Rides, clustering: ClusteringResult,
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
    origin, dest = clustering.origin_labels, clustering.dest_labels
    inter = origin != dest
    dropped_rides = len(inter) - int(np.count_nonzero(inter))
    # bincount sums in ride order, as a per-ride loop would
    pair = origin[inter] * k + dest[inter]
    counts = np.bincount(pair, minlength=k * k).reshape(k, k).astype(float)
    slots = (rides.dropoff_time - rides.pickup_time) / slot_seconds
    durations = np.bincount(pair, weights=slots[inter],
                            minlength=k * k).reshape(k, k)
    if counts.sum() == 0:
        raise EmptyAfterAggregation("every ride is intra-cluster")

    mean_time = np.where(counts > 0, durations / np.maximum(counts, 1), 1.0)

    # largest weakly connected component, the first of equal ones; a
    # cluster without inter-cluster rides is a singleton, so it never beats
    # a pair that has some
    labels = connected_components(counts + counts.T)
    largest = labels == np.bincount(labels).argmax()
    kept = np.flatnonzero(largest)
    dropped = tuple(int(i) for i in np.flatnonzero(~largest))

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
