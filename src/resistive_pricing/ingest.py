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

    The columns are the rows of one read-only (6, n) table, ``_table``,
    in ``RIDE_FIELDS`` order.  The constructor stacks a copy of its
    input; the reader and the filter build a fresh (n, 6) array, one row
    per ride, and hand it to ``_of_rows``, which adopts its transpose
    without a copy.

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
        columns = [np.asarray(getattr(self, name), dtype=float)
                   for name in RIDE_FIELDS]
        m = min(col.size for col in columns)
        if any(col.shape != (m,) for col in columns):
            raise ValueError(f"ride {m}: columns must be 1-D of equal length")
        self._adopt(np.stack(columns))

    @classmethod
    def _of_rows(cls, rows):
        """Rides over ``rows``, a fresh float64 (n, 6) array that nothing
        else holds, one ride per row in ``RIDE_FIELDS`` order; it becomes
        read-only and the columns are views of it."""
        rides = object.__new__(cls)
        rows.setflags(write=False)
        rides._adopt(rows.T)
        return rides

    def _adopt(self, table):
        """Check the rides of a (6, n) table, then make its rows the
        columns."""
        late = ~(table[5] > table[4])
        finite = np.isfinite(table[0])
        for col in table[1:4]:
            finite &= np.isfinite(col)
        bad = late | ~finite
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"ride {i}: dropoff_time <= pickup_time" if late[i]
                             else f"ride {i}: non-finite coordinate")
        object.__setattr__(self, "_table", table)
        for name, col in zip(RIDE_FIELDS, table):
            object.__setattr__(self, name, col)
        FrozenArrays.__post_init__(self)

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
    # np.loadtxt parses a binary handle faster than a text one
    with open(path, "rb") as fh:
        header = next(csv.reader([fh.readline().decode()]), None)
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
            with open(path, newline="") as text:
                _name_bad_row(text, usecols)
            raise
    return Rides._of_rows(table)


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
    The kept rides are one gather of whole rows of the table's (n, 6)
    transpose, which the result adopts.
    """
    lat0, lat1, lon0, lon1 = bbox
    t0, t1 = window
    olat, olon, dlat, dlon, start, end = rides._table
    keep = ((lat0 <= olat) & (olat <= lat1) & (lat0 <= dlat) & (dlat <= lat1)
            & (lon0 <= olon) & (olon <= lon1) & (lon0 <= dlon) & (dlon <= lon1)
            & (t0 <= start) & (end <= t1))
    return Rides._of_rows(np.compress(keep, rides._table.T, axis=0))


def _project_metres(lat, lon, bbox):
    """Equirectangular x and y in metres, in place: ``lon`` becomes x and
    ``lat`` becomes y.  Returns (x, y)."""
    lat_mid = np.deg2rad(0.5 * (bbox[0] + bbox[1]))
    np.multiply(np.deg2rad(lon, out=lon), EARTH_RADIUS_M * np.cos(lat_mid),
                out=lon)
    np.multiply(np.deg2rad(lat, out=lat), EARTH_RADIUS_M, out=lat)
    return lon, lat


def _draw(weights, total, rng, out):
    """The index ``rng.choice(len(weights), p=weights / total)`` draws,
    leaving ``rng`` in the same state, without that call's checks of p:
    the cumulative sum of ``weights / total``, divided by its last entry,
    searched for one ``rng.random()`` from the right.  ``out`` is a
    float64 vector as long as ``weights`` that takes the sum."""
    np.divide(weights, total, out=out)
    np.cumsum(out, out=out)
    out /= out[-1]
    return int(out.searchsorted(rng.random(), side="right"))


def _kmeans(x, y, k, rng):
    """k-means++ seeding, then Lloyd iterations on points with coordinates
    ``x`` and ``y``, two 1-D float64 arrays of one length n.

    Squared distances are ``dx*dx + dy*dy``; each point takes the first
    nearest centroid.  A centroid is its members' coordinate sums
    (``np.bincount``, in index order) over their count.  Returns
    (centers, labels, inertia), where the (k, 2) centers hold x, y and
    the inertia sums each point's squared distance to its own centroid.
    Raises TooFewPoints when k exceeds n, before any draw, or when the
    seeding finds fewer than k distinct points.

    Each k-means++ centre is the draw of ``rng.choice(n, p=d2 / d2.sum())``
    over the squared distances ``d2`` to the nearest centre so far, bit
    for bit and with the generator left in the same state, made by
    ``_draw`` in a reused n-vector.  The seeding computes every point's
    distance to every centre, in place in that vector and one more, so it
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

    Most clusters also stop changing after a few iterations, so the
    per-point work (bound shifts, skip test, centroid sums) covers only
    the members of clusters that are not *frozen*, kept in index order: a
    skip at the cluster level, the "global filter" of Yinyang k-means
    (Ding et al., ICML 2015).  A cluster that no point joined or left in
    an assignment after a bincount update keeps its centroid, bit for bit,
    at the next update; one left so by the last two such assignments is
    *quiet*.  A quiet cluster may freeze, and a frozen one stays frozen,
    while its reach (its members' largest upper bound, times
    ``1 + KMEANS_MARGIN`` plus the floor below) is under half its distance
    to every centroid that moved.  That is the half test above, applied to
    the whole cluster and to each moved centroid; a centroid that did not
    move gives every member the same distances as at its last assignment.
    So no member of a frozen cluster can change label and its centroid
    stays exact, while bincount sums over the other clusters' members, in
    index order, give their centroids the bits of sums over all points.
    Taking members out of the per-point arrays, and putting them back,
    costs about one pass over all points, so a cluster left as it was once
    does not freeze yet, and quiet clusters freeze only when they hold a
    quarter of the points still tested, or when a frozen cluster wakes
    anyway.  A frozen cluster wakes when a moved centroid comes within
    reach or a point joins it; its members missed the lower-bound shifts,
    so they come back with ``l = -inf`` and the half test or a distance
    column decides each of them.  Cluster counts follow the moves, and an
    empty-cluster reseed wakes every cluster.

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
    per call gives the assignments, the distance columns computed and the
    points tested (the seeding's assignment tests and computes all n), and
    counts the clusters frozen and those woken by a moved centroid, by a
    joining point and by a reseed.
    """
    n = len(x)
    if k > n:
        raise TooFewPoints(f"need at least {k} distinct endpoints")

    # k-means++ seeding, which also makes the first assignment; each
    # centre's distances go to ``dc``, and ``buf`` is scratch for the
    # draw's cumulative sum and the terms of each distance pass
    dc, buf = np.empty(n), np.empty(n)
    closer = np.empty(n, dtype=bool)

    def distances(cx, cy, out):
        np.subtract(x, cx, out=out)
        np.multiply(out, out, out=out)
        np.subtract(y, cy, out=buf)
        np.multiply(buf, buf, out=buf)
        return np.add(out, buf, out=out)

    centers = np.empty((k, 2))
    first = rng.integers(n)
    centers[0] = x[first], y[first]
    labels = np.zeros(n, dtype=int)
    d2 = distances(*centers[0], np.empty(n))
    second = np.full(n, np.inf)
    for ci in range(1, k):
        # d2 sums to 0 exactly when the ci centres hold every distinct point
        total = d2.sum()
        if total == 0:
            raise TooFewPoints(f"need at least {k} distinct endpoints")
        pick = _draw(d2, total, rng, buf)
        centers[ci] = x[pick], y[pick]
        distances(*centers[ci], dc)
        labels[np.less(dc, d2, out=closer)] = ci
        np.minimum(second, np.maximum(d2, dc, out=buf), out=second)
        np.minimum(d2, dc, out=d2)
    floor = (KMEANS_MAX_ITER + 8) * np.spacing(
        4.0 * max(np.abs(x, out=dc).max(), np.abs(y, out=buf).max()))
    del dc, buf, closer
    upper = np.sqrt(d2, out=d2)
    lower = np.sqrt(second, out=second)

    cols = max(1, KMEANS_BLOCK // k)
    buffers = np.empty((2, k * min(cols, n)))

    def blocks(px, py):
        """Yield (slice, (k, m) squared distances) for the points (px, py),
        at most ``cols`` points at a time."""
        for lo in range(0, len(px), cols):
            at = slice(lo, lo + cols)
            m = len(px[at])
            out = buffers[0, :k * m].reshape(k, m)
            tmp = buffers[1, :k * m].reshape(k, m)
            np.subtract.outer(centers[:, 0], px[at], out=out)
            np.subtract.outer(centers[:, 1], py[at], out=tmp)
            np.multiply(out, out, out=out)
            np.multiply(tmp, tmp, out=tmp)
            yield at, np.add(out, tmp, out=out)

    # whether the last assignment changed a label, and the points it moved
    # with their labels before (None: the plain loop's all-zero start)
    changed = bool(labels.any())
    moved = was = None
    counts = np.bincount(labels, minlength=k)
    # clusters that the last assignment, after a bincount update, left as
    # they were (calm), and that the last two left so (quiet); frozen
    # clusters; and the reach of each frozen cluster and of each quiet one
    # where ``known``: its members' largest upper bound with the skip
    # margin, which holds while it stays quiet or frozen
    frozen = np.zeros(k, dtype=bool)
    calm = np.zeros(k, dtype=bool)
    quiet = np.zeros(k, dtype=bool)
    known = np.zeros(k, dtype=bool)
    reach = np.zeros(k)
    # the per-point state of the members of clusters not frozen: their
    # ids in index order, coordinates, labels and bounds
    act, ax, ay, al, au, ab = np.arange(n), x, y, labels, upper, lower

    def regather(woken):
        """Store the per-point state, then gather that of the members of
        the clusters not frozen; the members of ``woken`` clusters get
        lower bounds of -inf."""
        nonlocal act, ax, ay, al, au, ab
        labels[act], upper[act], lower[act] = al, au, ab
        # the old state goes before the new one is gathered
        act = ax = ay = al = au = ab = None
        act = np.flatnonzero(~frozen[labels])
        ax, ay = x[act], y[act]
        al, au, ab = labels[act], upper[act], lower[act]
        ab[woken[al]] = -np.inf

    # assignments, distance columns and points whose bounds were tested
    assignments, columns, tests = 1, n, n
    # clusters frozen, and woken by a moved centroid, a point or a reseed
    freezes = reached = joins = thawed = 0
    for it in range(KMEANS_MAX_ITER):
        old = centers.copy()
        reseeded = not counts.all()
        if not reseeded:
            live = ~frozen
            centers[live] = np.column_stack([
                np.bincount(al, weights=ax, minlength=k),
                np.bincount(al, weights=ay, minlength=k)])[live] \
                / counts[live, None]
        else:
            log.debug("k-means iteration %d left %d cluster(s) empty: full "
                      "pass and reseed", it + 1, k - np.count_nonzero(counts))
            thawed += np.count_nonzero(frozen)
            frozen[:] = calm[:] = quiet[:] = False
            # every point gets a column next, so no lower bound is read
            regather(frozen)
            if moved is None:
                before = np.zeros_like(labels)
            else:
                before = al.copy()
                before[moved] = was
            nearest = np.empty(n)
            for at, block in blocks(x, y):
                block.min(axis=0, out=nearest[at])
            columns += n
            for ci in range(k):
                sel = al == ci
                if sel.any():
                    # the axis-0 mean of stacked (m, 2) rows sums each
                    # coordinate in index order, as the plain form's mean
                    # does; a 1-D mean would sum pairwise
                    centers[ci] = np.column_stack([x[sel], y[sel]]).mean(axis=0)
                else:
                    far = int(nearest.argmax())
                    centers[ci] = x[far], y[far]
                    al[far] = ci
            counts = np.bincount(al, minlength=k)
            au[:] = np.inf
            changed = not np.array_equal(al, before)
        drift = np.sqrt(((centers - old) ** 2).sum(axis=1))
        top = int(drift.argmax())
        others = np.full(k, drift[top])
        others[top] = np.partition(drift, k - 2)[k - 2]

        gaps = np.sqrt(((centers[:, None] - centers[None]) ** 2).sum(axis=2))
        np.fill_diagonal(gaps, np.inf)
        half = 0.5 * gaps.min(axis=1)
        # a quiet or frozen cluster may be frozen unless a centroid that
        # moved is within twice its reach.  Moving the members of quiet ones
        # out costs about a pass over all points, so they freeze when they
        # hold a quarter of the active points, or when clusters wake anyway
        limit = 0.5 * np.where(drift > 0, gaps, np.inf).min(axis=1)
        woken = frozen & ~(reach < limit)
        fresh = quiet & ~known
        if fresh.any() and (woken.any()
                            or 4 * counts[quiet].sum() >= len(act)):
            most = np.zeros(k)
            np.maximum.at(most, al, au)
            reach[fresh] = most[fresh] * (1.0 + KMEANS_MARGIN) + floor
            known |= fresh
        keep = (frozen | quiet & known) & (reach < limit)
        if woken.any() or 4 * counts[keep & ~frozen].sum() >= len(act):
            freezes += np.count_nonzero(keep & ~frozen)
            reached += np.count_nonzero(woken)
            frozen = keep
            regather(woken)
        au += drift[al]
        ab -= others[al]
        # the skip test, with two temporaries of the active size
        reach_u = au * (1.0 + KMEANS_MARGIN)
        reach_u += floor
        bound = half[al]
        stale = np.flatnonzero(reach_u >= np.maximum(bound, ab, out=bound))
        del reach_u, bound
        assignments += 1
        columns += len(stale)
        tests += len(act)
        moved, was, now = ([np.empty(0, dtype=int)] for _ in range(3))
        for at, block in blocks(ax[stale], ay[stale]):
            near = block.argmin(axis=0)
            j = np.arange(len(near))
            at = stale[at]
            au[at] = np.sqrt(block[near, j])
            block[near, j] = np.inf
            ab[at] = np.sqrt(block.min(axis=0))
            prev = al[at]
            move = near != prev
            moved.append(act[at[move]])
            was.append(prev[move])
            now.append(near[move])
            al[at] = near
        moved, was, now = (np.concatenate(v) for v in (moved, was, now))
        # the plain loop stops after an update that leaves the labels as
        # they were, and this assignment is its final pass; after a bincount
        # update, an assignment that moves no point means the next update
        # would give the same centroids and stop it
        if not changed or not (reseeded or len(moved)):
            break
        changed = len(moved) > 0
        counts += (np.bincount(now, minlength=k)
                   - np.bincount(was, minlength=k))
        # a frozen cluster that a point joined wakes; after bincount
        # updates, an active cluster that no point joined or left in two
        # assignments may freeze
        touched = np.zeros(k, dtype=bool)
        touched[was] = touched[now] = True
        was_calm = calm
        calm = ~(frozen | touched | reseeded)
        quiet = calm & was_calm
        known &= quiet
        joined = frozen & touched
        if joined.any():
            joins += np.count_nonzero(joined)
            frozen &= ~joined
            regather(joined)
    labels[act] = al
    log.debug("k-means: %d assignments, %d distance columns, n x assignments "
              "= %d, %d point tests; %d clusters frozen, woken by a moved "
              "centroid %d, by a point %d, by a reseed %d", assignments,
              columns, n * assignments, tests, freezes, reached, joins,
              thawed)
    # the bounds are spent: their vectors take the squared distances
    dist = np.take(centers[:, 0], labels, out=upper)
    dist -= x
    dist *= dist
    dy = np.take(centers[:, 1], labels, out=lower)
    dy -= y
    dy *= dy
    dist += dy
    return centers, labels, float(dist.sum())


def cluster_endpoints(rides: Rides, k: int, bbox, seed) -> ClusteringResult:
    """Cluster pooled origin and destination points into k locations.

    Rides must already be filtered to bbox and the time window.  The
    origins, then the destinations, are pooled into one x and one y
    vector, projected to metres in place, and clustered as those two
    vectors; fewer than k distinct points raise TooFewPoints.  k-means++
    initialization from ``seed``, each centre the draw of
    ``Generator.choice`` bit for bit, also gives the first assignment;
    Lloyd iterations, capped at ``KMEANS_MAX_ITER``, end on an
    assignment, and distances come in blocks of at most ``KMEANS_BLOCK``
    entries.  A cluster that stopped changing is frozen, left out of the
    per-point work, while no moved centroid is near enough to take one of
    its points; its centroid and labels are then those a full pass would
    give, bit for bit (see ``_kmeans``).  Deterministic given the seed.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if len(rides) == 0:
        raise TooFewPoints("no rides supplied")
    # the pooled coordinates are projected in place: x and y, origins first
    x, y = _project_metres(
        np.concatenate([rides.pickup_lat, rides.dropoff_lat]),
        np.concatenate([rides.pickup_lon, rides.dropoff_lon]), bbox)
    rng = np.random.default_rng(seed)
    centers_m, labels, inertia = _kmeans(x, y, k, rng)

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
