"""Traffic network representation: validated demand/travel-time matrices.

A network is a directed graph over ``N`` locations.  An arc (i, j) exists
exactly where the demand matrix is positive.  Travel times are read only on
arcs; entries elsewhere are ignored.  Empty vehicles route over the arcs
plus any off-arc pairs given empty travel times.  All objects here are
immutable after construction; :func:`keep` sets a derived record, such as
the electrical model, beside a network's fields once.
"""

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np


class NetworkValidationError(ValueError):
    """Base class for structured rejections of raw network input."""


class NegativeDemand(NetworkValidationError):
    pass


class NonPositiveTravelTimeOnArc(NetworkValidationError):
    pass


class SelfLoopDemand(NetworkValidationError):
    pass


class Disconnected(NetworkValidationError):
    pass


class CostOutOfRange(NetworkValidationError):
    pass


class FrozenArrays:
    """Base of the frozen records.  The one rule: every ndarray attribute
    is read-only.

    ``__post_init__`` marks the arrays read-only in place, without a copy;
    a subclass that defines its own ``__post_init__`` calls it last.
    Unpickling restores the instance dict directly, with writable arrays,
    so ``__setstate__`` applies the same rule again.
    """

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __setstate__(self, state):
        self.__dict__.update(state)
        # the rule alone: a subclass's __post_init__ would validate again
        FrozenArrays.__post_init__(self)


@dataclass(frozen=True)
class TrafficNetwork(FrozenArrays):
    """Directed traffic network over ``n_locations`` locations.

    It owns the arc layout: per-arc vectors list the arcs in
    lexicographic order, :meth:`on_arcs` gathers them from an (N, N)
    matrix and :meth:`arc_matrix` scatters them into one.

    Attributes:
        demand: (N, N) non-negative user mass per time slot; zero diagonal.
            Positive entries define the arc set.
        travel_time: (N, N) travel time in slots; must be positive and finite
            on arcs, ignored elsewhere.
        unit_cost: per-user per-slot service cost, in [0, 1).
        empty_pairs: the given (i, j, t) empty travel times, i != j.
        n_locations: number of locations N (>= 2), read off ``demand``.
        arcs, arc_array: the M arcs (i, j) in lexicographic order, as
            tuples and as an (M, 2) int array.
        arc_demand, arc_time: (M,) demand and travel time per arc.
        reverse_arc: (M,) index of the reverse arc (j, i), -1 where none.
        pair_array, pair_time: the P empty-routing pairs, (P, 2), and
            their (P,) times: the arcs in arc order, then each off-arc
            pair of ``empty_pairs`` in the order given, first time kept.
        projection: (N, N) weights of the undirected projection, see
            :func:`projection_weights`.

    Array attributes are computed once, at construction, and read-only.
    """

    demand: np.ndarray
    travel_time: np.ndarray
    unit_cost: float
    empty_pairs: tuple[tuple[int, int, float], ...] = ()
    n_locations: int = field(init=False)
    arcs: tuple[tuple[int, int], ...] = field(init=False)
    arc_array: np.ndarray = field(init=False, repr=False, compare=False)
    arc_demand: np.ndarray = field(init=False, repr=False, compare=False)
    arc_time: np.ndarray = field(init=False, repr=False, compare=False)
    reverse_arc: np.ndarray = field(init=False, repr=False, compare=False)
    pair_array: np.ndarray = field(init=False, repr=False, compare=False)
    pair_time: np.ndarray = field(init=False, repr=False, compare=False)
    projection: np.ndarray = field(init=False, repr=False, compare=False)
    # flat (row-major) index of each arc in an N x N matrix
    _flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        demand = np.array(self.demand, dtype=float)
        travel_time = np.array(self.travel_time, dtype=float)
        if demand.ndim != 2 or demand.shape[0] != demand.shape[1]:
            raise NetworkValidationError(
                f"demand must be a square matrix, got {demand.shape}")
        n = len(demand)
        if travel_time.shape != (n, n):
            raise NetworkValidationError(
                f"travel_time must be ({n}, {n}), got {travel_time.shape}")
        if n < 2:
            raise NetworkValidationError("need at least 2 locations")
        if not np.all(np.isfinite(demand)):
            raise NetworkValidationError("demand entries must be finite")
        if np.any(demand < 0):
            bad = np.argwhere(demand < 0)[0]
            raise NegativeDemand(
                f"demand[{bad[0]}, {bad[1]}] = {demand[bad[0], bad[1]]} < 0")
        if np.any(np.diag(demand) != 0):
            i = int(np.argmax(np.diag(demand) != 0))
            raise SelfLoopDemand(f"demand[{i}, {i}] must be 0")
        cost = float(self.unit_cost)
        if not np.isfinite(cost) or cost < 0 or cost >= 1:
            raise CostOutOfRange(f"unit_cost must lie in [0, 1), got {cost}")

        arc_mask = demand > 0
        if not arc_mask.any():
            raise Disconnected("network has no arcs")
        bad = arc_mask & ~(np.isfinite(travel_time) & (travel_time > 0))
        if bad.any():
            i, j = (int(v) for v in np.argwhere(bad)[0])
            raise NonPositiveTravelTimeOnArc(
                f"travel_time[{i}, {j}] must be positive and finite on arc "
                f"({i}, {j})")

        weights = projection_weights(demand, travel_time)
        if connected_components(weights).any():
            raise Disconnected(
                "induced graph is not weakly connected; "
                "split into components and solve each separately")

        empty_pairs = tuple(_empty_pair(e, n) for e in self.empty_pairs)
        off_arc = {}
        for i, j, t in empty_pairs:
            if not arc_mask[i, j]:
                off_arc.setdefault((i, j), t)
        off_pairs = np.array(list(off_arc), dtype=int).reshape(-1, 2)

        arc_array = np.argwhere(arc_mask)
        # column-major: net_outflow bincounts contiguous tails and heads
        pairs = np.asfortranarray(np.concatenate([arc_array, off_pairs]))
        ai, aj = arc_array.T
        arc_time = travel_time[ai, aj]
        rank = arc_mask.cumsum().reshape(n, n) - 1  # arc order, on the arcs
        for name, value in (
                ("demand", demand), ("travel_time", travel_time),
                ("unit_cost", cost), ("empty_pairs", empty_pairs),
                ("n_locations", n), ("projection", weights),
                ("arc_array", arc_array), ("arc_demand", demand[ai, aj]),
                ("arc_time", arc_time),
                ("reverse_arc", np.where(arc_mask[aj, ai], rank[aj, ai], -1)),
                ("arcs", tuple(map(tuple, arc_array.tolist()))),
                ("pair_array", pairs),
                ("pair_time", np.concatenate([arc_time, [*off_arc.values()]])),
                ("_flat", ai * n + aj)):
            object.__setattr__(self, name, value)
        super().__post_init__()

    def has_arc(self, i: int, j: int) -> bool:
        n = self.n_locations
        return 0 <= i < n and 0 <= j < n and bool(self.demand[i, j] > 0)

    def on_arcs(self, matrix) -> np.ndarray:
        """Per-arc values of an (N, N) matrix, in arc order."""
        matrix = np.asarray(matrix)
        n = self.n_locations
        if matrix.shape != (n, n):
            raise ValueError(f"matrix must be ({n}, {n}), got {matrix.shape}")
        return matrix.take(self._flat)

    def arc_matrix(self, values, fill=0.0) -> np.ndarray:
        """(N, N) matrix of per-arc ``values`` (arc order), ``fill``
        off the arc set."""
        values = np.asarray(values)
        n = self.n_locations
        out = np.full((n, n), fill, dtype=np.result_type(values, fill))
        out.reshape(-1)[self._flat] = values
        return out

    def net_outflow(self, values) -> np.ndarray:
        """Per-node outflow minus inflow of (..., m) ``values`` on the first
        m rows of ``pair_array`` (arcs first: per-arc values use the arcs
        alone); a (K, m) stack gives (K, N).  Outflow and inflow are each
        summed in pair order, so equal flows in and out net to exactly 0.

        >>> net = TrafficNetwork(np.roll(np.eye(3), 1, 1), np.ones((3, 3)), 0)
        >>> net.net_outflow([3.0, 1.0, 2.0])
        array([ 1., -2.,  1.])
        """
        return np.subtract(*self._node_sums(values))

    def _node_sums(self, values):
        """(..., N) outflow and inflow of :meth:`net_outflow`'s ``values``,
        one bincount per pair end; row r of a stack sums in bins r N + i."""
        values = np.asarray(values, dtype=float)
        n, m = self.n_locations, values.shape[-1]
        rows = values.reshape(-1, m)
        k = len(rows)
        ends = self.pair_array[:m].T
        if k > 1:  # row 0 needs no shift
            # one end's row-shifted index at a time, in one buffer
            shift = n * np.arange(k)[:, None]
            index = np.empty((k, m), dtype=np.intp)
            ends = (np.add(end, shift, out=index) for end in ends)
        return [np.bincount(end.ravel(), rows.ravel(), k * n)
                .reshape(values.shape[:-1] + (n,)) for end in ends]


def keep(net: TrafficNetwork, name: str, build):
    """``build(net)``, computed on the first call and kept on the
    immutable ``net`` under ``name`` for its lifetime, beside its fields:
    every later call returns the same object, a second, equal network
    builds its own, and the value goes with the network through pickling.
    ``build`` returns a read-only record (a :class:`FrozenArrays`)."""
    value = vars(net).get(name)
    if value is None:
        value = build(net)
        # the network is frozen: the value goes beside its fields
        object.__setattr__(net, name, value)
    return value


def _empty_pair(entry, n: int) -> tuple[int, int, float]:
    """An empty travel time (i, j, t) as (int, int, float)."""
    try:
        i, j, t = entry
        pair = int(i), int(j), float(t)
        if pair[:2] == (i, j) and i != j and 0 <= min(i, j) \
                and max(i, j) < n and 0 < pair[2] < np.inf:
            return pair
    except (TypeError, ValueError, OverflowError):
        pass  # not three numbers: rejected below
    raise NetworkValidationError(
        f"empty pair {entry!r} is not (i, j, t) with locations i != j in "
        f"0..{n - 1} and a positive, finite time t")


def validate_network(demand, travel_time, unit_cost: float,
                     empty_pairs=()) -> TrafficNetwork:
    """Validate raw input and build a TrafficNetwork.

    Raises a :class:`NetworkValidationError` subclass naming the violated
    invariant (NegativeDemand, NonPositiveTravelTimeOnArc, SelfLoopDemand,
    Disconnected, CostOutOfRange), or the base class for a bad empty pair.
    """
    return TrafficNetwork(demand, travel_time, unit_cost, empty_pairs)


def projection_weights(demand: np.ndarray,
                       travel_time: np.ndarray) -> np.ndarray:
    """Symmetric edge-weight matrix of the undirected projection.

    Weight(i, j) = demand[i, j] / time[i, j] + demand[j, i] / time[j, i],
    with absent arcs contributing zero.
    """
    demand = np.asarray(demand, dtype=float)
    ratio = np.zeros_like(demand)
    live = demand > 0
    ratio[live] = demand[live] / np.asarray(travel_time, dtype=float)[live]
    return ratio + ratio.T


def _spread(adj: np.ndarray, frontier: np.ndarray,
            member: np.ndarray) -> np.ndarray:
    """Grow the boolean (k, N) ``member`` in place, row by row, by every
    node its ``frontier`` row reaches along the boolean (N, N) ``adj``.

    A node already in ``member`` is never entered, so marking a node in
    advance removes it from the graph for that row.  Breadth-first, all
    rows at once, one float32 product per step: it sums non-negative 0/1
    terms, so its ``> 0`` test is exact at any N.  Returns ``member``.
    """
    step = adj.astype(np.float32)
    while frontier.any():
        frontier = ((frontier.astype(np.float32) @ step) > 0) & ~member
        member |= frontier
    return member


def strong_classes(nodes: int, pairs: np.ndarray) -> np.ndarray:
    """(nodes, nodes) mask of the node pairs in one strong class of the
    directed graph of the (P, 2) ``pairs``: each reaches the other."""
    adj = np.zeros((nodes, nodes), dtype=bool)
    adj[pairs[:, 0], pairs[:, 1]] = True
    reach = _spread(adj, np.eye(nodes, dtype=bool), np.eye(nodes, dtype=bool))
    return reach & reach.T


def connected_components(weights: np.ndarray) -> np.ndarray:
    """Per-node component labels of a symmetric weight matrix.

    Nodes i and j are adjacent when weights[i, j] > 0.  Components are
    numbered 0, 1, ... in order of each one's smallest node, so a graph is
    connected exactly when every label is 0.
    """
    adj = np.asarray(weights) > 0
    labels = np.full(len(adj), -1)
    count = 0
    while (unseen := labels < 0).any():
        member = np.zeros((1, len(adj)), dtype=bool)
        member[0, unseen.argmax()] = True
        labels[_spread(adj, member.copy(), member)[0]] = count
        count += 1
    return labels


def find_cut_vertices(net: TrafficNetwork) -> set[int]:
    """Articulation points of the undirected projection.

    A vertex is returned exactly when its removal disconnects the
    projection: row v spreads from node v + 1 (mod N) with v marked in
    advance, and v is a cut vertex when that row misses some node.
    """
    frontier = np.roll(np.eye(net.n_locations, dtype=bool), 1, axis=1)
    member = frontier | np.eye(net.n_locations, dtype=bool)
    _spread(net.projection > 0, frontier, member)
    return {int(v) for v in np.flatnonzero(~member.all(axis=1))}


@dataclass(frozen=True)
class AdRevenueVector(FrozenArrays):
    """Per-arc unit ad revenue (dollars per user per slot).

    Values live in an (N, N) matrix that must be zero off the arc set of
    ``network`` and non-negative on it.
    """

    network: TrafficNetwork
    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        n = self.network.n_locations
        if values.shape != (n, n):
            raise ValueError(f"ad revenue matrix must be ({n}, {n})")
        arc_mask = self.network.demand > 0
        finite = np.isfinite(values)
        if not finite.all():
            i, j = np.argwhere(~finite)[0].tolist()
            where = "on arc" if arc_mask[i, j] else "off the arc set at"
            raise ValueError(f"ad revenue {where} ({i}, {j}) must be "
                             f"finite, not {values[i, j]}")
        if np.any(values[~arc_mask] != 0):
            raise ValueError("ad revenue defined off the arc set")
        if np.any(values[arc_mask] < 0):
            raise ValueError("ad revenues must be non-negative")
        object.__setattr__(self, "values", values)
        super().__post_init__()

    @classmethod
    def from_arcs(cls, net: TrafficNetwork,
                  entries: Mapping[tuple[int, int], float]) -> "AdRevenueVector":
        values = np.zeros((net.n_locations, net.n_locations))
        for (i, j), val in entries.items():
            if not net.has_arc(i, j):
                raise ValueError(f"({i}, {j}) is not an arc")
            values[i, j] = val
        return cls(net, values)


def arc_ads(net: TrafficNetwork, a) -> np.ndarray:
    """The M per-arc ad revenues, in arc order, of an AdRevenueVector, an
    (N, N) array, an (M,) array or None (zeros).  Only the shape is checked
    here: AdRevenueVector construction validates signs and the arc set.

    >>> net = TrafficNetwork(np.roll(np.eye(3), 1, 1), np.ones((3, 3)), 0)
    >>> arc_ads(net, np.arange(9.0).reshape(3, 3))
    array([1., 5., 6.])
    >>> arc_ads(net, [0.5, 0.0, 0.25])
    array([0.5 , 0.  , 0.25])
    >>> arc_ads(net, None)
    array([0., 0., 0.])
    """
    n, m = net.n_locations, len(net.arcs)
    arr = np.zeros(m) if a is None else np.asarray(
        a.values if isinstance(a, AdRevenueVector) else a, dtype=float)
    if arr.shape == (n, n):
        return net.on_arcs(arr)
    if arr.shape != (m,):
        raise ValueError(f"ad revenues must be ({n}, {n}) or ({m},), "
                         f"got {arr.shape}")
    return arr
