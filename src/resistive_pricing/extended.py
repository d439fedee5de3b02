"""Extended spatial pricing: demand curves, empty vehicles, fleet capacity.

The extended problem prices each arc under a general demand curve, routes
empty vehicles at cost eta*c per slot, and caps the total vehicle mass at
psi.  In demand coordinates z = theta * (1 - F(p)) the problem is concave
for both the uniform and the exponential curve, with the same balance and
capacity rows; one primal-dual interior-point solve finds its optimum, and
each Newton step is a weighted graph Laplacian solve on the locations.
Both curves share one set-up; :class:`DemandModel` holds the per-arc
formulas that differ.

Empty vehicles route over the network's pairs, ``net.pair_array``: the
arcs, then the off-arc pairs given empty travel times.

What the solve reads of the network alone (the strong classes and which
edges lie on a directed cycle, the grounding, the incidence pattern of
the Newton systems, the scales) is a :class:`Routing`, built on the first
extended solve or batch on a network and kept on it, as the electrical
model is (:func:`routing`).

A set of problems on one network is solved as one batch: one
interior-point loop over the stack of their problems.  The rows share the
network (so its routing pairs and its :class:`Routing`) and the demand
curve; they differ in the ad vector, which sets the linear term
of f' and the start, and in psi and eta, which set the bounds, the
capacity row and the cost of empty routing.  Each row stops on its own
test and leaves the stack, and every reduction is row-wise, so a row's
answer equals its single solve bit for bit.  When rows fail, the error
raised is that of the lowest-index failing row, the one a loop of single
solves in row order raises first.  :func:`solve_extended` is the one-row
batch.
"""

from dataclasses import dataclass

import numpy as np

from .network import (FrozenArrays, TrafficNetwork, arc_ads, keep,
                      strong_classes)
from .pricing import NoConvergence
from .qp import solve_convex_qp  # noqa: F401  (bench/spans.py wraps this name)

CAPACITY_TOL = 1e-8
# payoff_extended's feasibility tolerance
POINT_TOL = 1e-6
# interior-point iteration cap, relative KKT and complementarity tolerances
IPM_MAX_ITER = 100
IPM_TOL = 1e-10
IPM_GAP_TOL = 1e-12
# the fraction of the mean complementarity product each Newton step aims at
CENTRING = 0.02
# the largest exponential-demand gamma whose e^gamma is finite
GAMMA_MAX = float(np.log(np.finfo(float).max))


class Infeasible(RuntimeError):
    """No point satisfies flow balance, capacity, and the price box."""


class InfeasiblePoint(ValueError):
    """A supplied (prices, empty_flows) point violates a named constraint."""


@dataclass(frozen=True)
class DemandModel:
    """Reservation-price model: fraction F(p) of users priced out at p.

    Per arc the solver minimizes a convex f(z) in z = theta (1 - F(p)):
    uniform f(z) = xi z^2/theta - xi z (1 + a - c) for z in [0, psi/xi];
    exponential f(z) = xi z (c - a) + (xi/gamma) z log(z/theta) for z in
    [theta e^-10, theta e^gamma] (p in [-1, 10/gamma]); gamma > 0 must
    have a finite e^gamma.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "exponential"):
            raise ValueError("demand kind must be 'uniform' or 'exponential'")
        if self.kind == "exponential":
            if self.gamma is None or not 0 < self.gamma <= GAMMA_MAX:
                raise ValueError("exponential demand requires 0 < gamma <= "
                                 f"{GAMMA_MAX:.6g} (got {self.gamma})")

    @classmethod
    def uniform(cls) -> "DemandModel":
        return cls("uniform")

    @classmethod
    def exponential(cls, gamma: float) -> "DemandModel":
        return cls("exponential", float(gamma))

    def remaining(self, p):
        """1 - F(p): fraction of base demand still buying at price p."""
        p = np.asarray(p, dtype=float)
        if self.kind == "uniform":
            return 1.0 - np.minimum(p, 1.0)
        return np.exp(-self.gamma * p)

    def box(self, th, xi, psi):
        """Per-arc bounds (z_lo, z_hi) on z; a (K, 1) ``psi`` gives a
        (K, arcs) z_hi where it depends on psi."""
        if self.kind == "uniform":
            return np.zeros(len(th)), psi / xi
        return th * np.exp(-10.0), th * np.exp(self.gamma)

    def start(self, th, xi, a, c, psi):
        """Per-arc optimum scaled to use at most half the capacity; one row
        per row of the ad revenues ``a``, with a scalar or (K, 1) ``psi``."""
        if self.kind == "uniform":
            z0 = th * np.maximum(0.5 * (1.0 + a - c), 0.05)
            mass = np.add.reduce(xi * z0, axis=-1, keepdims=True)
            return z0 * np.minimum(1.0, 0.5 * psi / mass)
        gamma = self.gamma
        log_rem = np.minimum(gamma * (a - c) - 1.0, 0.9 * gamma - 1.0)
        mass = np.add.reduce(xi * (th * np.exp(log_rem)), axis=-1,
                             keepdims=True)
        log_rem -= np.maximum(0.0, np.log(mass / (0.5 * psi)))
        return th * np.exp(np.maximum(log_rem, 0.1 * gamma - 9.0))

    def derivatives(self, th, xi, a, c):
        """f' = lin + bend(z)[0] and f'' = bend(z)[1] per arc: lin holds
        the ad revenues ``a`` (one row per row of ``a``), bend does not."""
        if self.kind == "uniform":
            hess = 2.0 * xi / th
            return -xi * (1.0 + a - c), lambda z: (hess * z, hess)
        curv = xi / self.gamma
        return xi * (c - a + 1.0 / self.gamma), \
            lambda z: (curv * np.log(z / th), curv / z)

    def price(self, z, th):
        """The price p at which arc demand theta falls to z."""
        if self.kind == "uniform":
            return 1.0 - z / th
        return -np.log(z / th) / self.gamma


@dataclass(frozen=True)
class ExtendedParams:
    eta: float
    psi: float
    demand: DemandModel

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ValueError(f"eta must be finite and positive, not {self.eta}")
        if not 0 < self.psi < np.inf:
            raise ValueError(f"psi must be finite and positive, not {self.psi}")


@dataclass(frozen=True)
class ExtendedSolution(FrozenArrays):
    """Feasible stationary point of the extended problem.

    prices is (N, N) with NaN off the arc set; empty_flows is (N, N),
    zero off the network's routing pairs; both are read-only.
    ``kkt_residual`` is the solve's largest balance, capacity, stationarity
    or complementarity residual, each relative to its scale.  ``local_only``
    is False for uniform demand and True for exponential demand; both
    optima are reached to within ``kkt_residual``.
    """

    prices: np.ndarray
    empty_flows: np.ndarray
    payoff: float
    kkt_residual: float
    feasibility_slacks: dict
    local_only: bool


def payoff_extended(net: TrafficNetwork, a, params: ExtendedParams,
                    prices: np.ndarray, empty_flows: np.ndarray) -> float:
    """Objective value at a feasible (prices, empty_flows) point.

    Raises InfeasiblePoint naming the violated constraint when the point
    is infeasible beyond tolerance: ``POINT_TOL`` absolute for prices and
    empty flows, relative to max(1, largest node throughput) for flow balance
    and to max(1, psi) for fleet capacity.  ``a`` is an AdRevenueVector, an
    (N, N) or (M,) array, or None.
    """
    a_vec = arc_ads(net, a)
    pairs, n = net.pair_array, net.n_locations
    p, w = (np.asarray(x, dtype=float) for x in (prices, empty_flows))
    if w.shape != (n, n) or p.shape != (n, n):
        raise ValueError("prices and empty_flows must be (N, N)")

    pair_mask = np.zeros((n, n), dtype=bool)
    pair_mask[pairs[:, 0], pairs[:, 1]] = True
    if np.any(np.abs(w[~pair_mask]) > POINT_TOL):
        raise InfeasiblePoint("empty flow outside the empty-routing pair set")
    if np.any(w[pair_mask] < -POINT_TOL):
        raise InfeasiblePoint("negative empty flow")
    p_on = net.on_arcs(p)
    if np.any(np.isnan(p_on)):
        raise InfeasiblePoint("price undefined on an arc")
    if params.demand.kind == "uniform" and np.any(p_on > 1.0 + POINT_TOL):
        raise InfeasiblePoint("price above the cap")

    flow, used, value = _evaluate(net, a_vec, params, p_on, w[tuple(pairs.T)])
    # net_outflow's balance, out - in, from the one pair of node sums
    out, into = net._node_sums(flow)
    scale = max(1.0, float(np.abs(out).max()), float(np.abs(into).max()))
    if np.abs(out - into).max() > POINT_TOL * scale:
        raise InfeasiblePoint("vehicle flow balance")
    if used > params.psi + CAPACITY_TOL + POINT_TOL * max(1.0, params.psi):
        raise InfeasiblePoint("fleet capacity")
    return value


def _evaluate(net, a_vec, params, p_vec, w_vec):
    """Per-pair vehicle flows (arc flow plus empty flow), the vehicle mass
    and the payoff at per-arc ads and prices and per-pair empty flows."""
    rem = params.demand.remaining(p_vec)
    carried = net.arc_time * net.arc_demand * rem  # vehicle mass per arc
    empty = float((net.pair_time * w_vec).sum())
    used = float(carried.sum() + empty)
    payoff = float((carried * (p_vec + a_vec - net.unit_cost)).sum())
    flow = w_vec.copy()
    flow[:len(rem)] += net.arc_demand * rem
    return flow, used, payoff - empty * params.eta * net.unit_cost


def _solution(net, a_vec, params, p_vec, w_vec, residual):
    """The record of per-arc ads and prices and per-pair empty flows >= 0."""
    flow, used, payoff = _evaluate(net, a_vec, params, p_vec, w_vec)
    flows = np.zeros((net.n_locations, net.n_locations))
    flows[net.pair_array[:, 0], net.pair_array[:, 1]] = w_vec
    return ExtendedSolution(
        prices=net.arc_matrix(p_vec, fill=np.nan),
        empty_flows=flows,
        payoff=payoff,
        kkt_residual=residual,
        feasibility_slacks={
            "capacity": params.psi - used,
            "flow_balance": float(np.abs(net.net_outflow(flow)).max()),
            "empty_flow_min": float(w_vec.min()),
        },
        local_only=params.demand.kind == "exponential",
    )


@dataclass(frozen=True)
class Routing(FrozenArrays):
    """What the interior point reads of a network, whatever the ads, the
    demand curve, psi and eta; :func:`routing` keeps one per network.

    An edge lies on a directed cycle of the routing graph (the arcs plus
    the empty pairs) when its ends share a strong class.  ``live`` marks
    those pairs of ``net.pair_array``, ``on`` those arcs, and ``off_cycle``
    is the first arc on none, as (u, v), or None.  The solve runs over the
    live edges, the arcs ``on`` and then the ``live`` pairs, with ``th``
    and ``xi`` per live arc and ``pair_time`` per live pair.  Its iterate
    x = (z, w, s) is n = live arcs + live pairs + 1 wide; column j of B
    is e_tail - e_head + g_j e_capacity, with no term for a grounded end
    (one node per strong class) and none but g e_capacity for s, g = (xi,
    pair_time, 1).  ``b_slot`` and ``b_val``, (3, n), hold each column's
    rows among the
    ``nodes`` rows of B (the capacity row last) and its values; M = B D^-1
    B' sums ``m_val`` / D_j into the ``m_slot`` entries of a flat
    (nodes, nodes) matrix, both (3, 3, n).  ``flow_scale`` and
    ``payoff_scale`` scale the balance residual and the gap.
    """

    live: np.ndarray
    on: np.ndarray
    off_cycle: tuple | None
    th: np.ndarray
    xi: np.ndarray
    pair_time: np.ndarray
    nodes: int
    b_slot: np.ndarray
    b_val: np.ndarray
    m_slot: np.ndarray
    m_val: np.ndarray
    flow_scale: float
    payoff_scale: float


def routing(net: TrafficNetwork) -> Routing:
    """The interior point's :class:`Routing` of ``net``, built on the first
    extended solve or batch and kept, read-only, on the network for its
    lifetime (the rule of :func:`~resistive_pricing.network.keep`)."""
    return keep(net, "_routing", _build_routing)


def _build_routing(net):
    """Compute :func:`routing`'s structure of ``net``."""
    pairs, arc = net.pair_array, net.arc_array
    classes = strong_classes(net.n_locations, pairs)
    live = classes[pairs[:, 0], pairs[:, 1]]  # pairs start with the arcs
    on = live[:len(arc)]
    off = arc[~on]
    th, xi, pair_time = net.arc_demand[on], net.arc_time[on], \
        net.pair_time[live]
    # each weak component left is a strong class: ground its last node
    grounded = ~np.triu(classes, 1).any(axis=1)
    m = int(np.count_nonzero(~grounded))
    slot = np.full(len(grounded), m)
    slot[~grounded] = np.arange(m)
    edges = np.concatenate([arc[on], pairs[live]])
    ne = len(edges)
    b_slot = np.full((3, ne + 1), m)
    b_slot[:2, :ne] = slot[edges.T]
    b_val = np.ones((3, ne + 1))
    b_val[1] = -1.0
    b_val[:2][b_slot[:2] == m] = 0.0
    b_val[2] = np.concatenate([xi, pair_time, [1.0]])
    nodes = m + 1
    return Routing(
        live=live, on=on,
        off_cycle=tuple(off[0].tolist()) if len(off) else None,
        th=th, xi=xi, pair_time=pair_time, nodes=nodes,
        b_slot=b_slot, b_val=b_val, m_slot=b_slot[:, None] * nodes + b_slot,
        m_val=b_val[:, None] * b_val, flow_scale=float(th.max(initial=0.0)),
        payoff_scale=float((xi * th).sum()))


def _interior_point(route, psi, eta, c, lin, bend, z_lo, z_hi, z0):
    """Primal-dual path-following solve of K concave extended problems.

    In demand coordinates z (vehicles per slot on each arc) each row is

        min  sum f(z) + sum eta c t w
        s.t. A (z, w) = 0,   xi'z + t'w + s = psi,   lo <= (z, w, s) <= hi,

    with A the node-edge incidence of the live edges of the network's
    :class:`Routing` ``route`` (the arcs, then the empty pairs), f' =
    ``lin`` + bend(z)[0] and f'' = bend(z)[1] per arc, z in [z_lo, z_hi],
    w in [0, psi/t] and the capacity slack s in [0, psi].
    The rows share the network (``route``: the strong classes, the
    grounding and B) and the demand curve (``bend``, ``z_lo``).  They differ
    in ``lin``, the (K, arcs) linear term of f', in ``z0``, their (K, arcs)
    starts, in ``psi`` and ``eta``, (K, 1) each, and in ``z_hi`` where it
    depends on psi: (arcs,) or (K, arcs).
    The long-step path-following method (Nocedal & Wright, Algorithm 14.2
    and ch. 19) carries the lower and upper slacks as iterates and takes
    one Newton step per iteration toward complementarity products of
    ``CENTRING`` times their mean, 0.995 of the way to the first slack or
    multiplier that reaches 0.  The step solves B D^-1 B': D is the
    Hessian plus barrier terms plus a floor of 1e-10 times the largest
    f''(theta), B the balance rows of the nodes not grounded plus the
    capacity row, so B D^-1 B' is the graph Laplacian with conductance 1/D
    per edge, with one node grounded per weakly connected component,
    bordered by the capacity row.  A row stops once balance, capacity and
    stationarity are within ``IPM_TOL`` and the complementarity gap within
    ``IPM_GAP_TOL``, each relative to its scale; the largest of these is
    its residual.  A row stalls where an infeasible instance ends: a slack
    lost in rounding on its bound before the row is primal feasible, or a
    singular Newton system once its bound multipliers exceed 1/eps times
    its gradient; it also stalls at a non-finite residual or the iteration
    cap, and fails with Infeasible unless primal feasible (else
    NoConvergence, as for any other singular Newton system).  A row that
    stops leaves the stack.  Each pass computes the balance residual, the
    largest stationarity residual and the gap of every row; the scaled
    residuals and the stop test are formed only on a pass where a row can
    stop: a gap within ``IPM_GAP_TOL``, a non-finite value, a slack lost
    before primal feasibility, a singular row or the cap.  Every reduction
    is row-wise, so a row's iterates do not depend on the other rows.
    Returns per row its (z, w, residual), or the error it fails with, with
    its own iteration count.
    """
    th, xi, pair_time = route.th, route.xi, route.pair_time
    b_slot, b_val, nodes = route.b_slot, route.b_val, route.nodes
    payoff_scale = route.payoff_scale
    # x = (z, w, s): the first ne entries are edge flows
    na, n = len(th), b_slot.shape[1]
    ne = n - 1
    k = len(z0)
    # per row the lower, then the upper bounds of x
    bounds = np.zeros((k, 2 * n))
    bounds[:, :na] = z_lo
    bounds[:, n:n + na] = z_hi
    bounds[:, n + na:-1] = psi / pair_time
    bounds[:, -1:] = psi
    lo, hi = bounds[:, :n], bounds[:, n:]
    # the gradient of each row; a unit of w costs eta c t, one of s nothing
    grad = np.zeros((k, n))
    grad[:, na:ne] = pair_time * eta * c
    floor = 1e-10 * float(bend(th)[1].max())
    # a slack this small is lost in rounding on its bound
    tiny = np.finfo(float).eps * np.abs(bounds)
    # B x's target and its residual's scale per row
    capacity = np.zeros((k, nodes))
    capacity[:, -1:] = psi
    p_scale = np.full((k, nodes), route.flow_scale)
    p_scale[:, -1:] = psi

    # B v and M = B D^-1 B' = sum_j b_j b_j' / D_j are bincounts and B'
    # dual a gather over the rows of each column; row r of a stack of k
    # reads and writes its own bins
    stack = np.arange(k)[:, None, None]
    b_idx = (stack * nodes + b_slot).ravel()
    m_idx = (stack[..., None] * (nodes * nodes) + route.m_slot).ravel()
    m_val = route.m_val

    def times_b(v):  # B v per row
        return np.bincount(b_idx, (b_val * v[:, None]).ravel(),
                           len(v) * nodes).reshape(-1, nodes)

    def times_bt(dual):  # B' dual per row
        return np.add.reduce(b_val * dual.ravel()[b_idx].reshape(-1, 3, n),
                             axis=1)

    def scaled(r):
        """The gradient scale and the scaled KKT residual, (len(r), 1)
        each, of the rows ``r`` of the stack (a slice or a list)."""
        grad_scale = 1.0 + np.maximum.reduce(np.abs(grad[r]), axis=1,
                                             keepdims=True)
        return grad_scale, np.maximum(
            np.maximum(primal[r], gap[r] / payoff_scale),
            r_max[r] / grad_scale)

    def stall(r, residual):
        """The error of row r of the stack stopping at iteration ``it``."""
        error = Infeasible if primal[r, 0] > IPM_TOL else NoConvergence
        return error(f"after {it} interior-point iterations the primal "
                     f"residual is {float(primal[r, 0]):.3e} and the scaled "
                     f"KKT residual {float(residual):.3e}")

    def solve(M, rhs):
        """M^-1 rhs per row; a singular row takes a zero step and fails at
        the next stop test."""
        try:
            return np.linalg.solve(M, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            out = np.zeros_like(rhs)
            for r in range(len(rhs)):
                try:
                    out[r] = np.linalg.solve(M[r:r + 1],
                                             rhs[r:r + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError as exc:
                    grad_scale, residual = scaled([r])
                    if primal[r, 0] > IPM_TOL and float(kap[r].max()) \
                            * np.finfo(float).eps > grad_scale[0, 0]:
                        error = stall(r, residual[0, 0])
                    else:
                        error = NoConvergence("singular interior-point "
                                              f"Newton system at iteration {it}")
                    error.__cause__ = exc
                    results[rows[r]] = error
            return out

    # bound multipliers (lower, upper) zero stationarity at the start
    w0 = np.minimum(0.1 * (np.add.reduce(z0, axis=1, keepdims=True) / na),
                    0.5 * psi / pair_time)
    s0 = psi - np.add.reduce(xi * z0, axis=1, keepdims=True) \
        - np.add.reduce(pair_time * w0, axis=1, keepdims=True)
    x = np.concatenate((z0, w0, np.minimum(np.maximum(s0, 0.1 * psi),
                                           0.9 * psi)), axis=1)
    np.add(lin, bend(z0)[0], out=grad[:, :na])
    margin = 0.1 * (1.0 + np.abs(grad))
    # one row of state: x, the lower then upper slacks, their multipliers,
    # then the balance and capacity duals
    state = np.concatenate((
        x, x - lo, hi - x, np.maximum(grad, 0.0) + margin,
        np.maximum(-grad, 0.0) + margin, np.zeros((k, nodes))), axis=1)
    rows = list(range(k))  # the stack's rows among the K
    results = [None] * k  # a singular Newton system writes its error here

    for it in range(IPM_MAX_ITER + 1):
        x, slack = state[:, :n], state[:, n:3 * n]
        kap, dual = state[:, 3 * n:5 * n], state[:, 5 * n:]
        rest, hess = bend(x[:, :na])
        np.add(lin, rest, out=grad[:, :na])
        ks = kap * slack
        gap = np.add.reduce(ks, axis=1, keepdims=True)
        r_d = grad - times_bt(dual) - kap[:, :n] + kap[:, n:]
        short = capacity - times_b(x)  # the primal residual, negated
        primal = np.maximum.reduce(np.abs(short) / p_scale, axis=1,
                                   keepdims=True)
        r_max = np.maximum.reduce(np.abs(r_d), axis=1, keepdims=True)
        # most passes can stop no row, which this first test shows
        if (it == IPM_MAX_ITER
                or any(results[row] is not None for row in rows)
                or np.minimum.reduce(gap, axis=None)
                <= IPM_GAP_TOL * payoff_scale
                or not np.add.reduce(primal + gap + r_max, axis=None)
                < np.inf
                or np.maximum.reduce(primal, axis=None) > IPM_TOL
                and np.logical_or.reduce(slack <= tiny, axis=None)):
            residual = scaled(slice(None))[1]
            failed = np.array([results[row] is not None for row in rows])
            done = (residual <= IPM_TOL) & (gap <= IPM_GAP_TOL * payoff_scale)
            stalled = ~(residual < np.inf) | (primal > IPM_TOL) \
                & np.logical_or.reduce(slack <= tiny, axis=1, keepdims=True)
            stop = (done | stalled)[:, 0] | failed | (it == IPM_MAX_ITER)
            for r in np.flatnonzero(stop & ~failed):
                results[rows[r]] = stall(r, residual[r, 0]) \
                    if not done[r, 0] else (x[r, :na], x[r, na:ne],
                                            float(residual[r, 0]))
            if stop.all():
                break
            kept = np.flatnonzero(~stop)
            rows = [rows[r] for r in kept]
            (state, lin, grad, tiny, capacity, p_scale, hess, r_d, short,
             ks, gap, primal, r_max) = (
                v[kept] if np.ndim(v) == 2 else v
                for v in (state, lin, grad, tiny, capacity, p_scale, hess,
                          r_d, short, ks, gap, primal, r_max))
            x, slack = state[:, :n], state[:, n:3 * n]
            kap = state[:, 3 * n:5 * n]
            k = len(rows)
            b_idx, m_idx = b_idx[:k * 3 * n], m_idx[:k * 9 * n]

        ratio = kap / slack
        D = ratio[:, :n] + ratio[:, n:] + floor
        D[:, :na] += hess
        cond = 1.0 / D
        M = np.bincount(m_idx, (m_val * cond[:, None, None]).ravel(),
                        k * nodes * nodes).reshape(k, nodes, nodes)
        # the Newton step to complementarity products CENTRING * gap / (2n)
        q = (CENTRING * gap / (2 * n) - ks) / slack
        u = (q[:, :n] - q[:, n:] - r_d) * cond
        d_dual = solve(M, short - times_b(u))
        # the direction of the whole state: dx, the slacks' (dx, -dx), the
        # multipliers', then d_dual
        move = np.empty_like(state)
        dx = np.add(u, times_bt(d_dual) * cond, out=move[:, :n])
        ds = move[:, n:3 * n]
        ds[:, :n] = dx
        np.negative(dx, out=ds[:, n:])
        np.subtract(q, ratio * ds, out=move[:, 3 * n:5 * n])
        move[:, 5 * n:] = d_dual
        # 0.995 of the way to the first slack or multiplier to reach 0
        block = np.minimum.reduce(move[:, n:5 * n] / state[:, n:5 * n],
                                  axis=1, keepdims=True)
        step = -1.0 / np.minimum(-1.0, block / 0.995)
        state = state + step * move
    return results


def _solve_rows(net: TrafficNetwork, ad_rows, params) -> list:
    """The solve of :func:`solve_extended` for each of the K per-arc ad
    rows ``ad_rows`` with its own ``ExtendedParams`` of ``params``, as one
    interior-point loop over the stack of their problems; the rows share
    one demand curve and the network's kept :func:`routing`, and their
    state is K (arcs + pairs + 1) wide, which callers bound by a row
    budget.  Each row is ``(p_vec, w_vec, residual)``, from which
    :func:`_solution` builds the record.  A row equals its single solve
    bit for bit; the error raised is the one a loop of single solves in
    row order raises first."""
    demand, c = params[0].demand, net.unit_cost
    if any(p.demand != demand for p in params):
        raise ValueError("the rows of a batch must share one demand curve")
    psi = np.array([[p.psi] for p in params])
    eta = np.array([[p.eta] for p in params])
    route = routing(net)
    if demand.kind == "exponential" and route.off_cycle is not None:
        u, v = route.off_cycle
        raise Infeasible(f"arc ({u}, {v}) lies on no directed cycle of the "
                         "routing graph (arcs plus empty pairs)")
    th, xi, on = route.th, route.xi, route.on
    # a row whose capacity is below the least vehicle mass fails at once
    least = float((xi * demand.box(th, xi, psi)[0]).sum())
    results = [Infeasible(f"capacity {p.psi:.6g} is below the vehicle mass "
                          "with every price at its upper end")
               if least > p.psi else None for p in params]
    kept = [r for r, out in enumerate(results) if out is None]
    if len(th) and kept:
        # C order: the row-wise reductions then keep their bits
        a_vec = np.ascontiguousarray(np.asarray(ad_rows)[kept][:, on])
        lin, bend = demand.derivatives(th, xi, a_vec, c)
        solved = _interior_point(
            route, psi[kept], eta[kept], c, lin, bend,
            *demand.box(th, xi, psi[kept]),
            demand.start(th, xi, a_vec, c, psi[kept]))
        for r, out in zip(kept, solved):
            results[r] = out
    rows = []
    for out in results:
        if isinstance(out, Exception):
            raise out
        # an arc on no directed cycle keeps price 1 and no flow
        p_vec, w_vec, residual = np.ones(len(on)), \
            np.zeros(len(route.live)), 0.0
        if out is not None:
            z, w, residual = out
            p_vec[on] = demand.price(z, th)
            w_vec[route.live] = w
        rows.append((p_vec, w_vec, residual))
    return rows


def solve_extended(net: TrafficNetwork, a, params: ExtendedParams,
                   seed=None) -> ExtendedSolution:
    """Solve the extended pricing problem.

    One deterministic primal-dual interior-point solve in demand
    coordinates, where the problem is concave, so its stationary point is
    the global optimum.  An arc on no directed cycle of the routing graph
    (``net.pair_array``) gets price exactly 1 and no flow under uniform
    demand; under exponential demand it, or a capacity no balanced flow
    fits, raises :class:`Infeasible`.  Raises :class:`NoConvergence` when
    the iteration stops short of the optimum at a primal-feasible point.
    ``seed`` does not affect the result; ``local_only`` is set for
    exponential demand.  This is the one-row batch of the loop that
    :func:`~resistive_pricing.selection.strategy_compare` and the sweeps
    run over candidate sets and grid points, which share ``net`` and the
    demand curve; each of its rows equals this solve of its ad vector and
    parameters bit for bit.  ``a`` is an AdRevenueVector, an (N, N) or
    (M,) array, or None.
    """
    a_vec = arc_ads(net, a)
    return _solution(net, a_vec, params,
                     *_solve_rows(net, a_vec[None], [params])[0])
