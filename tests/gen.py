"""Seeded random instance generators shared across the test suite, and
helpers that build and compare ride records."""

import numpy as np

from resistive_pricing import Rides, validate_network
from resistive_pricing.ingest import RIDE_FIELDS, _project_metres


def random_connected_network(rng, n_min=2, n_max=6, cost=None,
                             both_dirs=0.6, extra=0.5,
                             theta_lo=0.2, theta_hi=3.0):
    """Random weakly connected network: spanning tree plus extra arcs."""
    n = int(rng.integers(n_min, n_max + 1))
    pairs = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        u = int(order[idx])
        v = int(order[rng.integers(idx)])
        pairs.add((min(u, v), max(u, v)))
    others = [(i, j) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in pairs]
    rng.shuffle(others)
    pairs.update(others[:int(extra * len(others))])

    demand = np.zeros((n, n))
    travel = np.ones((n, n))
    for i, j in sorted(pairs):
        t_ij, t_ji = rng.uniform(0.5, 3.0, size=2)
        if rng.random() < both_dirs:
            demand[i, j] = rng.uniform(theta_lo, theta_hi)
            demand[j, i] = rng.uniform(theta_lo, theta_hi)
            travel[i, j], travel[j, i] = t_ij, t_ji
        elif rng.random() < 0.5:
            demand[i, j] = rng.uniform(theta_lo, theta_hi)
            travel[i, j] = t_ij
        else:
            demand[j, i] = rng.uniform(theta_lo, theta_hi)
            travel[j, i] = t_ji
    c = float(rng.uniform(0.05, 0.85)) if cost is None else cost
    return validate_network(demand, travel, c)


def random_ads(rng, net, lo=0.0, hi=0.3):
    """Random non-negative ad revenues on the arc set."""
    n = net.n_locations
    a = np.zeros((n, n))
    for i, j in net.arcs:
        a[i, j] = rng.uniform(lo, hi)
    return a


def random_instance(rng, aggressive=False, **kw):
    """Network plus ad vector; aggressive draws often bind price caps."""
    if aggressive:
        kw.setdefault("theta_lo", 0.05)
        kw.setdefault("theta_hi", 4.0)
        kw.setdefault("both_dirs", 0.4)
    net = random_connected_network(rng, **kw)
    hi = 3.0 if aggressive else 0.3
    return net, random_ads(rng, net, hi=hi)


def quiet_instance(rng, margin=1e-3, ad_floor=0.0, tries=120, **kw):
    """Instance whose optimum keeps every price at least ``margin`` below
    the cap (so the closed form applies with room for perturbations).
    ``ad_floor`` raises every ad revenue to that floor before the check,
    for callers that will perturb revenues downward."""
    from resistive_pricing import NotApplicable, solve_closed_form

    for _ in range(tries):
        net, a = random_instance(rng, **kw)
        if ad_floor > 0:
            a = np.where(net.demand > 0, np.maximum(a, ad_floor), 0.0)
        try:
            sol = solve_closed_form(net, a)
        except NotApplicable:
            continue
        worst = max(sol.prices[i, j] for i, j in net.arcs)
        if worst <= 1.0 - margin:
            return net, a
    raise RuntimeError("could not generate a cap-free instance")


def rides_of(rows):
    """Rides from rows of (pickup_lat, pickup_lon, dropoff_lat,
    dropoff_lon, pickup_time, dropoff_time); no rows give no rides."""
    return Rides(*np.array(rows, dtype=float).reshape(-1, 6).T)


def assert_same_rides(got, want):
    """Every column of two Rides equal bit for bit."""
    for name in RIDE_FIELDS:
        assert np.array_equal(getattr(got, name).view(np.int64),
                              getattr(want, name).view(np.int64)), name


def projected(lat, lon, bbox):
    """(n, 2) x, y points in metres of latitudes and longitudes, as
    clustering projects them; the inputs are left as they were."""
    return np.column_stack(_project_metres(np.array(lat, dtype=float),
                                           np.array(lon, dtype=float), bbox))
