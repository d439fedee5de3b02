"""Optimal spatial pricing under per-arc ad revenues.

Solves the provider's price-cap quadratic program: maximize
sum theta*xi*(1-p)*(p+a-c) over arc prices p <= 1 subject to vehicle flow
balance at every location.  When no price cap binds the optimum is closed
form in the effective resistances of the electrical analogue; the general
case runs an active-set loop in which capped arcs are removed from the
electrical network (their demand masked to zero) and re-enter pricing only
through their cap multiplier.

Prices need the resistances only through s = R v, and within a component,
where v sums to zero, s_j - s_i = 2 (lambda_i - lambda_j) for the node
potentials lambda = L+ v.  While no arc is capped (the closed form, and the
first round of the loop) they come from the pseudoinverse the network's
electrical model keeps (:func:`electrical.build_electrical`); every round
with capped arcs costs one bordered linear solve of the masked projection
(:func:`electrical.potentials`).  The loop starts from the connected
network's projection as one component and recomputes the components at
most once per round of moves, only when the round kills or revives a pair.
"""

from dataclasses import dataclass

import numpy as np

from .electrical import (
    build_electrical,
    component_border,
    potentials,
    value_vector,
)
from .network import (
    FrozenArrays,
    TrafficNetwork,
    arc_ads,
    connected_components,
)

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
class PricingSolution(FrozenArrays):
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


@dataclass(frozen=True)
class PayoffBreakdown(FrozenArrays):
    """Payoff and consumer surplus of a feasible price vector."""

    payoff: float
    consumer_surplus: float
    payoff_by_arc: np.ndarray
    surplus_by_arc: np.ndarray


def payoff_and_surplus(net: TrafficNetwork, a, prices: np.ndarray) -> PayoffBreakdown:
    """Evaluate payoff and consumer surplus for arbitrary feasible prices.

    Per arc: payoff theta*xi*(1-p)*(p+a-c), surplus 0.5*theta*xi*(1-p)^2.
    Prices above the cap (beyond tolerance) are rejected.  ``a`` is an
    AdRevenueVector, an (N, N) or (M,) array, or None.
    """
    p_on = net.on_arcs(np.asarray(prices, dtype=float))
    if np.any(np.isnan(p_on)) or np.any(p_on > 1.0 + FEAS_TOL):
        raise ValueError("prices must be defined and <= 1 on every arc")
    payoff, surplus = _arc_payoff_surplus(net, arc_ads(net, a), p_on)
    return PayoffBreakdown(
        payoff=float(payoff.sum()),
        consumer_surplus=float(surplus.sum()),
        payoff_by_arc=net.arc_matrix(payoff),
        surplus_by_arc=net.arc_matrix(surplus),
    )


def _arc_payoff_surplus(net, a_arc, p_on):
    """Per-arc payoff and consumer surplus at per-arc prices ``p_on``; the
    totals are their sums, in arc order, wherever they are reported."""
    th, xi, rest = net.arc_demand, net.arc_time, 1.0 - p_on
    return (th * xi * rest * (p_on + a_arc - net.unit_cost),
            0.5 * th * xi * rest ** 2)


def check_mu_zero_sufficient(net: TrafficNetwork, a) -> bool:
    """Sufficient condition for the closed form to apply.

    True iff sum_k |v_k| <= min over arcs (x, y) of
    2 (theta_xy + theta_yx * xi_xy / xi_yx) (1 + a_xy - c).
    The implication is one-directional: False does not mean the closed
    form fails.  ``a`` is an AdRevenueVector, (N, N) or (M,) array, or None.
    """
    a_arc = arc_ads(net, a)
    lhs = float(np.abs(value_vector(net, a_arc)).sum())
    # theta_yx / xi_yx of the reverse arc, 0 where there is none
    back = net.reverse_arc
    reverse = np.where(back >= 0, (net.arc_demand / net.arc_time)[back], 0.0)
    bounds = 2.0 * (net.arc_demand + reverse * net.arc_time) \
        * (1.0 + a_arc - net.unit_cost)
    return bool(lhs <= bounds.min() + 1e-12)


class _LoopState:
    """Electrical state of the active-set loop, kept across iterations.

    Besides the per-arc constants of the problem it holds the ``capped``
    mask (arcs pinned at the cap), the pair weights of the masked
    projection, and the components of that projection as per-node
    ``labels`` with their border matrix.  It starts uncapped, as one
    component with border J/N, which assumes a connected network.  Each
    round of moves (:meth:`move`) recomputes the components at most once,
    only when a touched pair weight goes to or from zero.
    """

    def __init__(self, net, a_arc):
        self.net, self.n = net, net.n_locations
        self.ai, self.aj = net.arc_array.T
        th, xi, c = net.arc_demand, net.arc_time, net.unit_cost
        self.ratio = th / xi
        self.two_xi = 2.0 * xi
        self.base = (1.0 - a_arc + c) / 2.0
        self.gain = th * (1.0 + a_arc - c)
        self.margin = xi * (1.0 + a_arc - c)
        self.capped = np.zeros(len(th), dtype=bool)
        self.weights = net.projection.copy()
        self.labels = np.zeros(self.n, dtype=int)
        self.border = np.full(net.projection.shape, 1.0 / self.n)

    def move(self, enter, leave):
        """Pin the arcs ``enter`` at the cap and release the arcs ``leave``
        (index arrays), as one round."""
        capped, ratio = self.capped, self.ratio
        capped[enter] = True
        capped[leave] = False
        k = np.concatenate((enter, leave))
        x, y, r = self.ai[k], self.aj[k], self.net.reverse_arc[k]
        # rebuilt from both final live flags, never by subtraction, so a
        # dead pair reads exactly 0
        weight = np.where(capped[k], 0.0, ratio[k]) \
            + np.where((r >= 0) & ~capped[r], ratio[r], 0.0)
        was_live = self.weights[x, y] > 0
        self.weights[x, y] = self.weights[y, x] = weight
        if np.any((weight > 0) != was_live):
            self.labels = connected_components(self.weights)
            self.border = component_border(self.labels)


def _kkt_candidate(state):
    """Closed-form KKT candidate for the loop's current capped set.

    Returns per-arc (prices, lam, mu).  Capped arcs are masked out of the
    electrical network and priced at the cap.  The rest follow the paper's
    resistance formula p_ij = (1-a+c)/2 + sum_k (R_jk - R_ik) v_k / (4 xi),
    where within a component sum_k v_k = 0 gives (R v)_i = const - 2
    lambda_i with lambda = L+ v, so s_j - s_i = 2 (lambda_i - lambda_j) and
    the potentials suffice: L+ v from the network's electrical model while
    no arc is capped, else one bordered solve of the masked projection.
    When capped arcs bridge components, per-component shifts of lambda are
    chosen (difference constraints, Bellman-Ford) so bridging multipliers
    come out non-negative whenever that is possible.
    """
    ai, aj, capped = state.ai, state.aj, state.capped
    v = state.net.net_outflow(np.where(capped, 0.0, state.gain))
    if capped.any():
        lam = potentials(state.weights, v, state.border)
    else:
        lam = build_electrical(state.net).pseudoinverse @ v
    prices = np.where(capped, 1.0,
                      state.base + (lam[ai] - lam[aj]) / state.two_xi)

    comp = state.labels
    if comp.any():
        crossing = np.flatnonzero(capped & (comp[ai] != comp[aj]))
        if crossing.size:
            ci, cj = ai[crossing], aj[crossing]
            # need lam_i - lam_j >= xi (1 + a - c) for mu >= 0
            ub = lam[ci] - lam[cj] - state.margin[crossing]
            constraints = list(zip(comp[ci], comp[cj], ub))
            shifts, feasible = _resolve_shifts(comp.max() + 1, constraints)
            if feasible:
                lam = lam + shifts[comp]

    mu = np.where(capped, state.net.arc_demand
                  * ((lam[ai] - lam[aj]) - state.margin), 0.0)
    return prices, lam, mu


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


def _assemble(net, a_arc, prices, lam, mu, capped):
    """Solution record of the per-arc candidate of the final capped set
    (prices at most 1 + ``FEAS_TOL``), with the totals
    :func:`payoff_and_surplus` reports for its prices."""
    lam = lam - lam[-1]
    ai, aj = net.arc_array.T
    th, xi, c = net.arc_demand, net.arc_time, net.unit_cost
    arc_flow = th * np.maximum(1.0 - prices, 0.0)
    payoff, surplus = _arc_payoff_surplus(net, a_arc, prices)
    stat = th * xi * (2.0 * prices - 1.0 - c + a_arc) \
        - th * (lam[ai] - lam[aj]) + mu
    residual = max(0.0, np.abs(stat).max(), (prices - 1.0).max(),
                   (-mu).max(), np.abs(mu * (prices - 1.0)).max(),
                   np.abs(net.net_outflow(arc_flow)).max())
    return PricingSolution(
        prices=net.arc_matrix(prices, fill=np.nan),
        flows=net.arc_matrix(arc_flow),
        duals_lambda=lam,
        duals_mu=net.arc_matrix(mu),
        active_set=frozenset(map(tuple, net.arc_array[capped].tolist())),
        payoff=float(payoff.sum()),
        consumer_surplus=float(surplus.sum()),
        kkt_residual=float(residual),
    )


def solve_closed_form(net: TrafficNetwork, a=None) -> PricingSolution:
    """Closed-form optimum when no price cap binds.

    p_ij = (1 - a_ij + c)/2 + (1/(4 xi_ij)) sum_k (R_jk - R_ik) v_k,
    evaluated as (1 - a_ij + c)/2 + (lambda_i - lambda_j)/(2 xi_ij) from
    the node potentials lambda = L+ v, with the L+ of the network's
    electrical model.  Raises :class:`NotApplicable` when any computed
    price exceeds 1, in which case the cap-multiplier assumption fails and
    :func:`solve_general` must be used.  ``a`` is an AdRevenueVector, an
    (N, N) or (M,) array, or None.
    """
    a_arc = arc_ads(net, a)
    state = _LoopState(net, a_arc)
    prices, lam, mu = _kkt_candidate(state)
    worst = prices.max()
    if worst > 1.0 + FEAS_TOL:
        raise NotApplicable(
            f"unconstrained price {worst:.6g} exceeds the cap; "
            "run solve_general")
    return _assemble(net, a_arc, prices, lam, mu, state.capped)


def solve_general(net: TrafficNetwork, a=None) -> PricingSolution:
    """Active-set solve of the pricing problem, any regime.

    Starts from an empty active set.  Every iteration is one round of
    block moves (the primal-dual active-set rule of Hintermueller, Ito
    and Kunisch): every violated cap enters (price pinned to 1, demand
    masked) and every negative cap multiplier leaves, in the same round.
    An iteration with no arc capped, as the first one is, takes the node
    potentials from the network's electrical model, and every other one
    from one bordered solve of the masked network (see
    :func:`_kkt_candidate`).  The loop assumes a connected start, as
    validation guarantees; the pair weights and components carry over
    between iterations, and each one recomputes the components at most
    once, only when its moves kill or revive a pair.
    Terminates at a KKT point with residual below 1e-8 or raises
    :class:`NoConvergence` after ``max(8, 4 |arcs|)`` iterations.

    The prices are unique, but on an arc priced exactly 1 with zero flow
    the cap multiplier is not: capping that arc or not can both be KKT
    points.  The reported active set is then one valid choice, and which
    one depends on the path the moves took.  ``a`` is an AdRevenueVector,
    an (N, N) or (M,) array, or None.
    """
    a_arc = arc_ads(net, a)
    state = _LoopState(net, a_arc)
    cap = max(8, 4 * len(state.ai))
    for _ in range(cap):
        prices, lam, mu = _kkt_candidate(state)
        capped = state.capped
        enter = np.flatnonzero(~capped & (prices > 1.0 + FEAS_TOL))
        leave = np.flatnonzero(capped & (mu < -FEAS_TOL))
        if not (enter.size or leave.size):
            sol = _assemble(net, a_arc, prices, lam, mu, capped)
            if sol.kkt_residual >= KKT_TOL:
                raise NoConvergence(
                    f"KKT residual {sol.kkt_residual:.3e} above tolerance")
            return sol
        state.move(enter, leave)
    raise NoConvergence(f"no KKT point after {cap} active-set iterations")


def price_sensitivity(net: TrafficNetwork, a, arc: tuple[int, int],
                      boundary_eps: float = 1e-6) -> np.ndarray:
    """Derivative of every optimal price with respect to a_xy.

    d p_ij / d a_xy = -1/2 [ (i,j)=(x,y) ]
                      + theta_xy / (4 xi_ij) (R_jx - R_ix - R_jy + R_iy).

    With a nonempty active set the masked-network variant applies: capped
    arcs (and arcs in other masked components) have zero derivative, and
    the resistances are those of the masked network.  They come from the
    node potentials lambda = L+ (e_x - e_y) of that network, one bordered
    solve, since R_jx - R_ix - R_jy + R_iy = 2 (lambda_i - lambda_j)
    within the component of (x, y) and lambda = 0 on the others.  Raises
    :class:`RegimeBoundary` when the active set changes under a +-eps
    perturbation of a_xy, where the derivative is undefined.  ``a`` is an
    AdRevenueVector, an (N, N) or (M,) array, or None.
    """
    x, y = arc
    if not net.has_arc(x, y):
        raise ValueError(f"({x}, {y}) is not an arc")
    a_arc = arc_ads(net, a)
    base = solve_general(net, a_arc)

    seen = {base.active_set}
    at = np.arange(len(a_arc)) == net.arcs.index((x, y))
    down = min(boundary_eps, a_arc[at][0])
    for step in (boundary_eps, -down) if down > 0 else (boundary_eps,):
        seen.add(solve_general(net, a_arc + step * at).active_set)
    if len(seen) > 1:
        raise RegimeBoundary(
            f"active set changes across a_{x}{y} +- {boundary_eps:g}")

    if (x, y) in base.active_set:
        return net.arc_matrix(0.0, fill=np.nan)

    state = _LoopState(net, a_arc)
    capped = np.flatnonzero([ij in base.active_set for ij in net.arcs])
    state.move(capped, capped[:0])
    # e_x - e_y: the net outflow of a unit on arc (x, y)
    lam = potentials(state.weights, net.net_outflow(at), state.border)
    ai, aj = state.ai, state.aj
    deriv = np.where(state.capped, 0.0, net.demand[x, y]
                     * (lam[ai] - lam[aj]) / state.two_xi) - 0.5 * at
    return net.arc_matrix(deriv, fill=np.nan)
