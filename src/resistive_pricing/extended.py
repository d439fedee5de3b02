"""Extended spatial pricing: demand curves, empty vehicles, fleet capacity.

The extended problem prices each arc under a general demand curve, routes
empty vehicles at cost eta*c per slot, and caps the total vehicle mass at
psi.  In demand coordinates z = theta * (1 - F(p)) the problem is concave
for both the uniform and the exponential curve, with the same balance and
capacity rows; one primal-dual interior-point solve finds its optimum, and
each Newton step is a weighted graph Laplacian solve on the locations.
Both curves share one set-up; :class:`DemandModel` holds the per-arc
formulas that differ.

Empty flows live on the arc set by default.  Off-arc pairs participate
only when explicit empty travel times are supplied for them.
"""

from dataclasses import dataclass

import numpy as np

from .network import FrozenArrays, TrafficNetwork, _spread, ad_matrix
from .pricing import NoConvergence
from .qp import solve_convex_qp  # noqa: F401  (bench/spans.py wraps this name)

CAPACITY_TOL = 1e-8
# payoff_extended's feasibility tolerance
POINT_TOL = 1e-6
# interior-point iteration cap, relative KKT and complementarity tolerances
IPM_MAX_ITER = 100
IPM_TOL = 1e-10
IPM_GAP_TOL = 1e-12
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
        """Per-arc bounds (z_lo, z_hi) on z."""
        if self.kind == "uniform":
            return np.zeros(len(th)), psi / xi
        return th * np.exp(-10.0), th * np.exp(self.gamma)

    def start(self, th, xi, a, c, psi):
        """Per-arc optimum scaled to use at most half the capacity."""
        if self.kind == "uniform":
            z0 = th * np.maximum(0.5 * (1.0 + a - c), 0.05)
            return z0 * min(1.0, 0.5 * psi / float(xi @ z0))
        gamma = self.gamma
        log_rem = np.minimum(gamma * (a - c) - 1.0, 0.9 * gamma - 1.0)
        log_rem -= max(0.0, np.log(xi @ (th * np.exp(log_rem)) / (0.5 * psi)))
        return th * np.exp(np.maximum(log_rem, 0.1 * gamma - 9.0))

    def derivatives(self, th, xi, a, c):
        """f' and f'' per arc, each a function of z."""
        if self.kind == "uniform":
            lin, hess = -xi * (1.0 + a - c), 2.0 * xi / th
            return (lambda z: lin + hess * z), (lambda z: hess)
        lin, curv = xi * (c - a + 1.0 / self.gamma), xi / self.gamma
        return (lambda z: lin + curv * np.log(z / th)), (lambda z: curv / z)

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
    zero off the empty-routing pair set; both are read-only.
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


def _pair_set(net: TrafficNetwork, empty_pairs):
    pairs = list(net.arcs)
    times = list(net.arc_time)
    if empty_pairs:
        known = set(net.arcs)
        for i, j, t in empty_pairs:
            i, j, t = int(i), int(j), float(t)
            if i == j:
                raise ValueError("empty travel time on a self loop")
            if t <= 0:
                raise ValueError(f"empty travel time on ({i}, {j}) must be positive")
            if (i, j) in known:
                continue
            pairs.append((i, j))
            times.append(t)
            known.add((i, j))
    return np.array(pairs, dtype=int), np.asarray(times, dtype=float)


def payoff_extended(net: TrafficNetwork, a, params: ExtendedParams,
                    prices: np.ndarray, empty_flows: np.ndarray,
                    empty_pairs=None) -> float:
    """Objective value at a feasible (prices, empty_flows) point.

    Raises InfeasiblePoint naming the violated constraint when the point
    is infeasible beyond tolerance: ``POINT_TOL`` absolute for prices and
    empty flows, relative to max(1, largest node throughput) for flow balance
    and to max(1, psi) for fleet capacity.
    """
    a_mat = ad_matrix(net, a)
    pairs, pair_time = _pair_set(net, empty_pairs)
    n = net.n_locations
    p = np.asarray(prices, dtype=float)
    w = np.asarray(empty_flows, dtype=float)
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

    flow = net.arc_demand * params.demand.remaining(p_on)
    total = net.arc_matrix(flow) + np.where(pair_mask, w, 0.0)
    outflow, inflow = total.sum(axis=1), total.sum(axis=0)
    scale = max(1.0, float(np.abs(outflow).max()), float(np.abs(inflow).max()))
    if np.abs(outflow - inflow).max() > POINT_TOL * scale:
        raise InfeasiblePoint("vehicle flow balance")

    w_on = w[pairs[:, 0], pairs[:, 1]]
    carried = net.arc_time * flow  # vehicle mass per arc
    used = float(carried.sum() + (pair_time * w_on).sum())
    if used > params.psi + CAPACITY_TOL + POINT_TOL * max(1.0, params.psi):
        raise InfeasiblePoint("fleet capacity")

    value = float((carried * (p_on + net.on_arcs(a_mat)
                              - net.unit_cost)).sum())
    return value - float((pair_time * w_on).sum()) * params.eta * net.unit_cost


def _solution(net, a_mat, params, pairs, pair_time, p_vec, w_vec, residual,
              local_only):
    """The solution record of per-arc prices and per-pair empty flows >= 0."""
    n = net.n_locations
    flows = np.zeros((n, n))
    flows[pairs[:, 0], pairs[:, 1]] = w_vec
    rem = params.demand.remaining(p_vec)
    total = flows + net.arc_matrix(net.arc_demand * rem)
    carried = net.arc_time * net.arc_demand * rem  # vehicle mass per arc
    used = float(carried.sum() + (pair_time * w_vec).sum())
    payoff = float((carried * (p_vec + net.on_arcs(a_mat)
                               - net.unit_cost)).sum())
    payoff -= float((pair_time * w_vec).sum()) * params.eta * net.unit_cost
    return ExtendedSolution(
        prices=net.arc_matrix(p_vec, fill=np.nan),
        empty_flows=flows,
        payoff=payoff,
        kkt_residual=residual,
        feasibility_slacks={
            "capacity": params.psi - used,
            "flow_balance": float(np.abs(total.sum(axis=1)
                                         - total.sum(axis=0)).max()),
            "empty_flow_min": float(w_vec.min()),
        },
        local_only=local_only,
    )


def _mutual_reach(nodes, pairs):
    """Mask of the node pairs in one strong class of the graph of ``pairs``."""
    adj = np.zeros((nodes, nodes), dtype=bool)
    adj[pairs[:, 0], pairs[:, 1]] = True
    reach = _spread(adj, np.eye(nodes, dtype=bool), np.eye(nodes, dtype=bool))
    return reach & reach.T


def _blocking(slack, kap, ds, dk):
    """1 / the largest t keeping slack + t ds, kap + t dk >= 0 (<= 0: none)."""
    return max(float((-ds / slack).max()), float((-dk / kap).max()))


def _interior_point(params, c, edges, th, xi, pair_time, arc_grad, arc_hess,
                    z_lo, z_hi, z0, grounded):
    """Primal-dual path-following solve of a concave extended problem.

    In demand coordinates z (vehicles per slot on each arc) the problem is

        min  sum f(z) + sum eta c t w
        s.t. A (z, w) = 0,   xi'z + t'w + s = psi,   lo <= (z, w, s) <= hi,

    with A the node-edge incidence of ``edges`` (the arcs, then the empty
    pairs), f' = ``arc_grad`` and f'' = ``arc_hess`` per arc, z in
    [z_lo, z_hi], w in [0, psi/t] and the capacity slack s in [0, psi].
    Mehrotra's predictor-corrector (Nocedal & Wright, ch. 14 and 19) starts
    from z0 and solves each Newton step with B D^-1 B': D is the Hessian
    plus barrier terms plus a floor of 1e-10 times the largest f''(theta),
    B the balance rows of the nodes not ``grounded`` plus the capacity row,
    so B D^-1 B' is the graph Laplacian with conductance 1/D per edge, with
    one node grounded per weakly connected component, bordered by the
    capacity row.  It stops once balance, capacity and stationarity are
    within ``IPM_TOL`` and the complementarity gap within ``IPM_GAP_TOL``,
    each relative to its scale; the largest of these is the returned
    residual.  Returns (z, w, residual).
    """
    psi = params.psi
    # grounded nodes share the last slot, so B keeps the leading rows
    m = int(np.count_nonzero(~grounded))
    slot = np.full(len(grounded), m)
    slot[~grounded] = np.arange(m)
    tail, head = slot[edges.T]
    nodes = m + 1

    # x = (z, w, s): the first ne entries are edge flows
    na, ne = len(th), len(tail)
    n = ne + 1
    g = np.concatenate([xi, pair_time, [1.0]])
    lo = np.concatenate([z_lo, np.zeros(len(pair_time)), [0.0]])
    hi = np.concatenate([z_hi, psi / pair_time, [psi]])
    w_cost = np.append(pair_time * params.eta * c, 0.0)  # then s, at no cost
    floor = 1e-10 * float(arc_hess(th).max())
    flow_scale, payoff_scale = float(th.max()), float((xi * th).sum())

    def gradient(x):
        return np.concatenate([arc_grad(x[:na]), w_cost])

    def node_sum(edge_values):
        return np.bincount(tail, edge_values, nodes) \
            - np.bincount(head, edge_values, nodes)

    def times_b(x):  # B x; the grounded slot holds the capacity row
        out = node_sum(x[:ne])
        out[-1] = g @ x
        return out

    def times_bt(dual):  # B' dual
        y = np.append(dual[:-1], 0.0)
        out = g * dual[-1]
        out[:ne] += y[tail] - y[head]
        return out

    # bound multipliers (lower, upper) zero stationarity at the start
    w0 = np.minimum(0.1 * z0.mean(), 0.5 * psi / pair_time)
    s0 = np.clip(psi - xi @ z0 - pair_time @ w0, 0.1 * psi, 0.9 * psi)
    x = np.concatenate([z0, w0, [s0]])
    grad = gradient(x)
    kap = np.concatenate([np.maximum(grad, 0.0), np.maximum(-grad, 0.0)]) \
        + np.tile(0.1 * (1.0 + np.abs(grad)), 2)
    dual = np.zeros(nodes)  # balance duals, then the capacity dual

    for it in range(IPM_MAX_ITER + 1):
        grad = gradient(x)
        slack = np.concatenate([x - lo, hi - x])
        r_d = grad - times_bt(dual) - kap[:n] + kap[n:]
        r_p = times_b(x)
        r_p[-1] -= psi
        gap = float(kap @ slack)
        primal = max(float(np.abs(r_p[:-1]).max()) / flow_scale,
                     abs(r_p[-1]) / psi)
        residual = max(primal, gap / payoff_scale, float(np.abs(r_d).max())
                       / (1.0 + float(np.abs(grad).max())))
        if residual <= IPM_TOL and gap <= IPM_GAP_TOL * payoff_scale:
            break
        # on an infeasible instance the multipliers diverge until rounding
        # puts an iterate on its bound; stop there or at the cap, and raise
        # Infeasible if still not primal feasible
        stalled = not (slack.min() > 0.0 and np.isfinite(residual))
        if stalled or it == IPM_MAX_ITER:
            error = Infeasible if primal > IPM_TOL else NoConvergence
            raise error(f"after {it} interior-point iterations the "
                        f"primal residual is {primal:.3e} and the scaled "
                        f"KKT residual {residual:.3e}")

        ratio = kap / slack
        D = ratio[:n] + ratio[n:] + floor
        D[:na] += arc_hess(x[:na])
        cond = 1.0 / D
        M = np.bincount(tail * nodes + head, cond[:ne], nodes * nodes)
        M = M.reshape(nodes, nodes)
        M = np.diag(M.sum(axis=1) + M.sum(axis=0)) - M - M.T
        M[-1] = M[:, -1] = node_sum(g[:ne] * cond[:ne])
        M[-1, -1] = float(g * g @ cond)

        def newton(r_comp):
            """Step to complementarity products kap * slack + r_comp."""
            q = r_comp / slack
            u = (q[:n] - q[n:] - r_d) * cond
            d_dual = np.linalg.solve(M, -(r_p + times_b(u)))
            dx = u + times_bt(d_dual) * cond
            ds = np.concatenate([dx, -dx])
            return dx, d_dual, ds, (r_comp - kap * ds) / slack

        try:
            # predictor: the affine-scaling step sets the centring target
            dx, d_dual, ds, dk = newton(-kap * slack)
            a_aff = 1.0 / max(1.0, _blocking(slack, kap, ds, dk))
            gap_aff = float((kap + a_aff * dk) @ (slack + a_aff * ds))
            target = (gap_aff / gap) ** 3 * gap / (2 * n)
            # corrector, with the predictor's second-order term
            dx, d_dual, ds, dk = newton(target - kap * slack - dk * ds)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence("singular interior-point Newton system "
                                f"at iteration {it}") from exc
        step = 1.0 / max(1.0, _blocking(slack, kap, ds, dk) / 0.995)
        x = x + step * dx
        dual = dual + step * d_dual
        kap = kap + step * dk

    return x[:na], x[na:ne], residual


def solve_extended(net: TrafficNetwork, a, params: ExtendedParams,
                   seed=None, empty_pairs=None) -> ExtendedSolution:
    """Solve the extended pricing problem.

    One deterministic primal-dual interior-point solve in demand
    coordinates, where the problem is concave, so its stationary point is
    the global optimum.  An arc on no directed cycle of arcs plus empty
    pairs gets price exactly 1 and no flow under uniform demand; under
    exponential demand it, or a capacity no balanced flow fits, raises
    :class:`Infeasible`.  Raises :class:`NoConvergence` when the iteration
    stops short of the optimum at a primal-feasible point.  ``seed`` does
    not affect the result; ``local_only`` is set for exponential demand.
    """
    a_mat = ad_matrix(net, a)
    pairs, pair_time = _pair_set(net, empty_pairs)
    demand, psi, c = params.demand, params.psi, net.unit_cost
    arc = net.arc_array
    # an edge is on a directed cycle when its ends share a strong class
    classes = _mutual_reach(net.n_locations, pairs)
    live = classes[pairs[:, 0], pairs[:, 1]]  # pairs start with the arcs
    on = live[:len(arc)]
    exponential = demand.kind == "exponential"
    if exponential and not on.all():
        u, v = arc[np.flatnonzero(~on)[0]]
        raise Infeasible(f"arc ({u}, {v}) lies on no directed cycle of the "
                         "routing graph (arcs plus empty pairs)")
    th, xi = net.arc_demand[on], net.arc_time[on]
    a_vec = net.on_arcs(a_mat)[on]
    z_lo, z_hi = demand.box(th, xi, psi)
    if float((xi * z_lo).sum()) > psi:
        raise Infeasible(f"capacity {psi:.6g} is below the vehicle mass "
                         "with every price at its upper end")
    p_vec, w_vec, residual = np.ones(len(arc)), np.zeros(len(pairs)), 0.0
    if on.any():
        arc_grad, arc_hess = demand.derivatives(th, xi, a_vec, c)
        # each weak component left is a strong class: ground its last node
        grounded = ~np.triu(classes, 1).any(axis=1)
        z, w, residual = _interior_point(
            params, c, np.concatenate([arc[on], pairs[live]]), th, xi,
            pair_time[live], arc_grad, arc_hess, z_lo, z_hi,
            demand.start(th, xi, a_vec, c, psi), grounded)
        p_vec[on] = demand.price(z, th)
        w_vec[live] = w
    return _solution(net, a_mat, params, pairs, pair_time, p_vec, w_vec,
                     residual, local_only=exponential)
