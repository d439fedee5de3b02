"""Optimal spatial pricing under per-arc ad revenues.

Solves the provider's price-cap quadratic program: maximize
sum theta*xi*(1-p)*(p+a-c) over arc prices p <= 1 subject to vehicle flow
balance at every location.  When no price cap binds the optimum is closed
form in the effective resistances of the electrical analogue; the general
case runs an active-set loop in which capped arcs are removed from the
electrical network (their demand masked to zero) and re-enter pricing only
through their cap multiplier.
"""

from dataclasses import dataclass

import numpy as np

from .electrical import build_electrical, component_of, value_vector
from .network import TrafficNetwork, ad_matrix

FEAS_TOL = 1e-9
KKT_TOL = 1e-8


class NotApplicable(Exception):
    """Closed form does not apply: some unconstrained price exceeds the cap.

    This is a routing signal, not a failure; callers should run
    :func:`solve_general` instead.
    """


class NoConvergence(RuntimeError):
    """Iterative solver exhausted its iteration budget."""


class RegimeBoundary(Exception):
    """Sensitivity requested exactly at an active-set change."""


@dataclass(frozen=True)
class PricingSolution:
    """KKT point of the pricing problem.

    Matrices are (N, N): prices are NaN off the arc set, flows and cap
    multipliers are zero there.  ``duals_lambda`` is the flow-balance dual
    pinned so its last entry is zero (prices depend only on differences).
    """

    prices: np.ndarray
    flows: np.ndarray
    duals_lambda: np.ndarray
    duals_mu: np.ndarray
    active_set: frozenset
    payoff: float
    consumer_surplus: float
    kkt_residual: float

    def __post_init__(self):
        for name in ("prices", "flows", "duals_lambda", "duals_mu"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PayoffBreakdown:
    """Payoff and consumer surplus of a feasible price vector."""

    payoff: float
    consumer_surplus: float
    payoff_by_arc: np.ndarray
    surplus_by_arc: np.ndarray


def payoff_and_surplus(net: TrafficNetwork, a, prices: np.ndarray) -> PayoffBreakdown:
    """Evaluate payoff and consumer surplus for arbitrary feasible prices.

    Per arc: payoff theta*xi*(1-p)*(p+a-c), surplus 0.5*theta*xi*(1-p)^2.
    Prices above the cap (beyond tolerance) are rejected.
    """
    a_mat = ad_matrix(net, a)
    n = net.n_locations
    p = np.asarray(prices, dtype=float)
    arc_mask = net.demand > 0
    p_on = p[arc_mask]
    if np.any(np.isnan(p_on)) or np.any(p_on > 1.0 + 1e-9):
        raise ValueError("prices must be defined and <= 1 on every arc")
    payoff_by_arc = np.zeros((n, n))
    surplus_by_arc = np.zeros((n, n))
    th, xi = net.demand[arc_mask], net.travel_time[arc_mask]
    rest = 1.0 - p_on
    payoff_by_arc[arc_mask] = th * xi * rest * (p_on + a_mat[arc_mask] - net.unit_cost)
    surplus_by_arc[arc_mask] = 0.5 * th * xi * rest ** 2
    return PayoffBreakdown(
        payoff=float(payoff_by_arc.sum()),
        consumer_surplus=float(surplus_by_arc.sum()),
        payoff_by_arc=payoff_by_arc,
        surplus_by_arc=surplus_by_arc,
    )


def check_mu_zero_sufficient(net: TrafficNetwork, a) -> bool:
    """Sufficient condition for the closed form to apply.

    True iff sum_k |v_k| <= min over arcs (x, y) of
    2 (theta_xy + theta_yx * xi_xy / xi_yx) (1 + a_xy - c).
    The implication is one-directional: False does not mean the closed
    form fails.
    """
    a_mat = ad_matrix(net, a)
    v = value_vector(net, a_mat)
    lhs = float(np.abs(v).sum())
    ratio = np.zeros_like(net.demand)
    live = net.demand > 0
    ratio[live] = net.demand[live] / net.travel_time[live]
    ai, aj = net.arc_array.T
    bounds = 2.0 * (net.arc_demand + ratio[aj, ai] * net.arc_time) \
        * (1.0 + a_mat[ai, aj] - net.unit_cost)
    return bool(lhs <= bounds.min() + 1e-12)


def _kkt_candidate(net, a_mat, active):
    """Closed-form KKT candidate for a fixed active set.

    Returns (prices, lam, mu, models).  Capped arcs are masked out of the
    electrical network; prices on the rest follow the per-component
    resistance formula.  Lambda is assembled per component; when capped
    arcs bridge components, per-component shifts are chosen (difference
    constraints, Bellman-Ford) so bridging multipliers come out
    non-negative whenever that is possible.
    """
    n = net.n_locations
    arc_mask = net.demand > 0
    keep = arc_mask & ~active
    models = build_electrical(net, keep)
    v = value_vector(net, a_mat, keep)
    comp = component_of(models, n)

    # s_node[i] = sum_k R_ik v_k within i's component
    s_node = np.zeros(n)
    lam = np.zeros(n)
    for model in models:
        if model.size == 1:
            continue
        v_loc = v[model.nodes]
        s_node[model.nodes] = model.effective_resistance @ v_loc
        lam[model.nodes] = model.pseudoinverse @ v_loc

    ai, aj = net.arc_array.T
    capped = active[ai, aj]
    xi = net.arc_time
    a_arc = a_mat[ai, aj]
    c = net.unit_cost
    prices = np.full((n, n), np.nan)
    prices[ai, aj] = np.where(
        capped, 1.0,
        (1.0 - a_arc + c) / 2.0 + (s_node[aj] - s_node[ai]) / (4.0 * xi))

    if len(models) > 1:
        crossing = np.flatnonzero(capped & (comp[ai] != comp[aj]))
        if crossing.size:
            ci, cj = ai[crossing], aj[crossing]
            # need lam_i - lam_j >= xi (1 + a - c) for mu >= 0
            ub = lam[ci] - lam[cj] - xi[crossing] * (1.0 + a_arc[crossing] - c)
            constraints = list(zip(comp[ci], comp[cj], ub))
            shifts, feasible = _resolve_shifts(len(models), constraints)
            if feasible:
                lam = lam + shifts[comp]

    mu = np.zeros((n, n))
    mu[ai, aj] = np.where(
        capped,
        net.arc_demand * ((lam[ai] - lam[aj]) - xi * (1.0 + a_arc - c)),
        0.0)
    return prices, lam, mu, models


def _resolve_shifts(n_comp, constraints):
    """Solve s[cv] - s[cu] <= ub difference constraints by relaxation."""
    s = np.zeros(n_comp)
    for _ in range(n_comp + 1):
        changed = False
        for cu, cv, ub in constraints:
            if s[cv] > s[cu] + ub + 1e-12:
                s[cv] = s[cu] + ub
                changed = True
        if not changed:
            return s, True
    return np.zeros(n_comp), False


def _kkt_residual(net, a_mat, prices, lam, mu):
    ai, aj = net.arc_array.T
    th, xi = net.arc_demand, net.arc_time
    p, m = prices[ai, aj], mu[ai, aj]
    flows = np.zeros_like(net.demand)
    flows[ai, aj] = th * np.maximum(1.0 - p, 0.0)
    stat = th * xi * (2.0 * p - 1.0 - net.unit_cost + a_mat[ai, aj]) \
        - th * (lam[ai] - lam[aj]) + m
    imbalance = flows.sum(axis=1) - flows.sum(axis=0)
    res = max(0.0, np.abs(stat).max(), (p - 1.0).max(), (-m).max(),
              np.abs(m * (p - 1.0)).max(), np.abs(imbalance).max())
    return float(res), flows


def _assemble(net, a_mat, prices, lam, mu, active):
    lam = lam - lam[-1]
    residual, flows = _kkt_residual(net, a_mat, prices, lam, mu)
    active_set = frozenset(map(tuple, np.argwhere(active).tolist()))
    breakdown = payoff_and_surplus(net, a_mat, np.where(net.demand > 0, prices, 0.0))
    return PricingSolution(
        prices=prices,
        flows=flows,
        duals_lambda=lam,
        duals_mu=mu,
        active_set=active_set,
        payoff=breakdown.payoff,
        consumer_surplus=breakdown.consumer_surplus,
        kkt_residual=residual,
    )


def solve_closed_form(net: TrafficNetwork, a=None) -> PricingSolution:
    """Closed-form optimum when no price cap binds.

    p_ij = (1 - a_ij + c)/2 + (1/(4 xi_ij)) sum_k (R_jk - R_ik) v_k.
    Raises :class:`NotApplicable` when any computed price exceeds 1, in
    which case the cap-multiplier assumption fails and
    :func:`solve_general` must be used.
    """
    a_mat = ad_matrix(net, a)
    n = net.n_locations
    active = np.zeros((n, n), dtype=bool)
    prices, lam, mu, _ = _kkt_candidate(net, a_mat, active)
    worst = net.on_arcs(prices).max()
    if worst > 1.0 + FEAS_TOL:
        raise NotApplicable(
            f"unconstrained price {worst:.6g} exceeds the cap; "
            "run solve_general")
    return _assemble(net, a_mat, prices, lam, mu, active)


def solve_general(net: TrafficNetwork, a=None,
                  max_iter: int | None = None) -> PricingSolution:
    """Active-set solve of the pricing problem, any regime.

    Starts from an empty active set; per iteration the most violated cap
    enters (price pinned to 1, demand masked) or the most negative cap
    multiplier leaves.  Ties go to the lower arc index, i.e. the
    lexicographically smaller arc.  An arc that just left may not
    immediately re-enter, and vice versa.  Terminates at a KKT point with
    residual below 1e-8 or raises :class:`NoConvergence` after 4*|arcs|
    iterations.
    """
    a_mat = ad_matrix(net, a)
    n = net.n_locations
    ai, aj = net.arc_array.T
    cap = max_iter if max_iter is not None else max(8, 4 * len(ai))
    active = np.zeros((n, n), dtype=bool)
    barred_entry = None
    barred_exit = None

    for _ in range(cap):
        prices, lam, mu, _ = _kkt_candidate(net, a_mat, active)
        capped = active[ai, aj]
        p_arc, mu_arc = prices[ai, aj], mu[ai, aj]
        violations = np.flatnonzero(~capped & (p_arc > 1.0 + FEAS_TOL))
        negatives = np.flatnonzero(capped & (mu_arc < -FEAS_TOL))
        if not violations.size and not negatives.size:
            sol = _assemble(net, a_mat, prices, lam, mu, active)
            if sol.kkt_residual >= KKT_TOL:
                raise NoConvergence(
                    f"KKT residual {sol.kkt_residual:.3e} above tolerance")
            return sol
        # candidates in order: largest violation (most negative multiplier)
        # first, ties to the lower arc index
        if violations.size:
            order = violations[
                np.lexsort((violations, 1.0 - p_arc[violations]))]
            k = next((k for k in order if k != barred_entry), order[0])
            active[ai[k], aj[k]] = True
            barred_exit, barred_entry = k, None
        else:
            order = negatives[np.lexsort((negatives, mu_arc[negatives]))]
            k = next((k for k in order if k != barred_exit), order[0])
            active[ai[k], aj[k]] = False
            barred_entry, barred_exit = k, None
    raise NoConvergence(f"no KKT point after {cap} active-set iterations")


def price_sensitivity(net: TrafficNetwork, a, arc: tuple[int, int],
                      boundary_eps: float = 1e-6) -> np.ndarray:
    """Derivative of every optimal price with respect to a_xy.

    d p_ij / d a_xy = -1/2 [ (i,j)=(x,y) ]
                      + theta_xy / (4 xi_ij) (R_jx - R_ix - R_jy + R_iy).

    With a nonempty active set the masked-network variant applies: capped
    arcs (and arcs in other masked components) have zero derivative, and
    the resistances are those of the masked network.  Raises
    :class:`RegimeBoundary` when the active set changes under a +-eps
    perturbation of a_xy, where the derivative is undefined.
    """
    x, y = arc
    if not net.has_arc(x, y):
        raise ValueError(f"({x}, {y}) is not an arc")
    a_mat = ad_matrix(net, a)
    base = solve_general(net, a_mat)

    seen = {base.active_set}
    bumped = a_mat.copy()
    bumped[x, y] += boundary_eps
    seen.add(solve_general(net, bumped).active_set)
    down = min(boundary_eps, a_mat[x, y])
    if down > 0:
        dipped = a_mat.copy()
        dipped[x, y] -= down
        seen.add(solve_general(net, dipped).active_set)
    if len(seen) > 1:
        raise RegimeBoundary(
            f"active set changes across a_{x}{y} +- {boundary_eps:g}")

    n = net.n_locations
    ai, aj = net.arc_array.T
    deriv = np.full((n, n), np.nan)
    deriv[ai, aj] = 0.0
    if (x, y) in base.active_set:
        return deriv

    capped = np.array(sorted(base.active_set), dtype=int).reshape(-1, 2)
    active = np.zeros((n, n), dtype=bool)
    active[capped[:, 0], capped[:, 1]] = True
    models = build_electrical(net, (net.demand > 0) & ~active)
    comp = component_of(models, n)
    model = models[comp[x]]
    loc = np.zeros(n, dtype=int)
    loc[model.nodes] = np.arange(model.size)
    eff = model.effective_resistance
    lx, ly = loc[x], loc[y]
    live = ~active[ai, aj] & (comp[ai] == comp[x])
    i, j = ai[live], aj[live]
    li, lj = loc[i], loc[j]
    deriv[i, j] = net.demand[x, y] / (4.0 * net.travel_time[i, j]) * (
        eff[lj, lx] - eff[li, lx] - eff[lj, ly] + eff[li, ly])
    deriv[x, y] -= 0.5
    return deriv
