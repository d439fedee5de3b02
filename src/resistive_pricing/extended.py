"""Extended spatial pricing: demand curves, empty vehicles, fleet capacity.

The extended problem prices each arc under a general demand curve, routes
empty vehicles at cost eta*c per slot, and caps the total vehicle mass at
psi.  With the uniform demand curve the problem is a convex QP in (p, w)
and is solved exactly by a dense active-set method.  With the exponential
curve the solver works in demand coordinates z = theta * (1 - F(p)), where
flow balance and the capacity bound are affine, and runs multi-start
spectral projected gradient ascent; the result is a stationary point
flagged ``local_only``.

Empty flows live on the arc set by default.  Off-arc pairs participate
only when explicit empty travel times are supplied for them.
"""

from dataclasses import dataclass

import numpy as np

from .network import TrafficNetwork, ad_matrix
from .pricing import NoConvergence, NotApplicable, solve_closed_form, solve_general
from .qp import QPNoConvergence, solve_convex_qp

CAPACITY_TOL = 1e-8


class Infeasible(RuntimeError):
    """No point satisfies flow balance, capacity, and the price box."""


class InfeasiblePoint(ValueError):
    """A supplied (prices, empty_flows) point violates a named constraint."""


@dataclass(frozen=True)
class DemandModel:
    """Reservation-price model: fraction F(p) of users priced out at p."""

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "exponential"):
            raise ValueError("demand kind must be 'uniform' or 'exponential'")
        if self.kind == "exponential":
            if self.gamma is None or self.gamma <= 0:
                raise ValueError("exponential demand requires gamma > 0")

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


@dataclass(frozen=True)
class ExtendedParams:
    eta: float
    psi: float
    demand: DemandModel

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.psi <= 0:
            raise ValueError("psi must be positive")


@dataclass(frozen=True)
class ExtendedSolution:
    """Feasible stationary point of the extended problem.

    prices is (N, N) with NaN off the arc set; empty_flows is (N, N),
    zero off the empty-routing pair set.  ``local_only`` is False exactly
    when the point is certified globally optimal (uniform demand).
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
    return pairs, np.asarray(times, dtype=float)


def payoff_extended(net: TrafficNetwork, a, params: ExtendedParams,
                    prices: np.ndarray, empty_flows: np.ndarray,
                    empty_pairs=None, tol: float = 1e-6) -> float:
    """Objective value at a feasible (prices, empty_flows) point.

    Raises InfeasiblePoint naming the violated constraint when the point
    is infeasible beyond tolerance.
    """
    a_mat = ad_matrix(net, a)
    pairs, pair_time = _pair_set(net, empty_pairs)
    n = net.n_locations
    p = np.asarray(prices, dtype=float)
    w = np.asarray(empty_flows, dtype=float)
    if w.shape != (n, n) or p.shape != (n, n):
        raise ValueError("prices and empty_flows must be (N, N)")

    pair_mask = np.zeros((n, n), dtype=bool)
    for i, j in pairs:
        pair_mask[i, j] = True
    if np.any(np.abs(w[~pair_mask]) > tol):
        raise InfeasiblePoint("empty flow outside the empty-routing pair set")
    if np.any(w[pair_mask] < -tol):
        raise InfeasiblePoint("negative empty flow")
    arc_mask = net.demand > 0
    p_on = p[arc_mask]
    if np.any(np.isnan(p_on)):
        raise InfeasiblePoint("price undefined on an arc")
    if params.demand.kind == "uniform" and np.any(p_on > 1.0 + tol):
        raise InfeasiblePoint("price above the cap")

    flow = np.zeros((n, n))
    flow[arc_mask] = net.demand[arc_mask] * params.demand.remaining(p_on)
    total = flow + np.where(pair_mask, w, 0.0)
    imbalance = total.sum(axis=1) - total.sum(axis=0)
    if np.abs(imbalance).max() > tol:
        raise InfeasiblePoint("vehicle flow balance")

    used = float((net.travel_time[arc_mask] * flow[arc_mask]).sum())
    for (i, j), t in zip(pairs, pair_time):
        used += t * w[i, j]
    if used > params.psi + CAPACITY_TOL + tol:
        raise InfeasiblePoint("fleet capacity")

    value = float((net.travel_time[arc_mask] * flow[arc_mask]
                   * (p_on + a_mat[arc_mask] - net.unit_cost)).sum())
    for (i, j), t in zip(pairs, pair_time):
        value -= t * w[i, j] * params.eta * net.unit_cost
    return value


def _slacks(net, params, pairs, pair_time, p_vec, w_vec, demand):
    n = net.n_locations
    arc = net.arc_array
    flow = np.zeros((n, n))
    flow[arc[:, 0], arc[:, 1]] = net.demand[arc[:, 0], arc[:, 1]] \
        * demand.remaining(p_vec)
    total = flow.copy()
    for (i, j), w in zip(pairs, w_vec):
        total[i, j] += w
    imbalance = total.sum(axis=1) - total.sum(axis=0)
    used = float((net.arc_time * net.arc_demand * demand.remaining(p_vec)).sum()
                 + (pair_time * w_vec).sum())
    return {
        "capacity": params.psi - used,
        "flow_balance": float(np.abs(imbalance).max()),
        "empty_flow_min": float(w_vec.min()) if len(w_vec) else 0.0,
    }


def _matrices(net, pairs, p_vec, w_vec):
    n = net.n_locations
    prices = np.full((n, n), np.nan)
    arc = net.arc_array
    prices[arc[:, 0], arc[:, 1]] = p_vec
    flows = np.zeros((n, n))
    for (i, j), w in zip(pairs, w_vec):
        flows[i, j] = max(w, 0.0)
    return prices, flows


def _solve_uniform(net, a_mat, params, pairs, pair_time):
    arcs = net.arcs
    na, nw = len(arcs), len(pairs)
    n = na + nw
    th, xi = net.arc_demand, net.arc_time
    a_vec = net.on_arcs(a_mat)
    c = net.unit_cost

    quad = np.zeros((n, n))
    quad[np.arange(na), np.arange(na)] = 2.0 * th * xi
    lin = np.concatenate([-th * xi * (1.0 - a_vec + c),
                          pair_time * params.eta * c])

    nodes = net.n_locations
    A_full = np.zeros((nodes, n))
    for k, (u, v) in enumerate(arcs):
        A_full[u, k] -= th[k]
        A_full[v, k] += th[k]
    for k, (u, v) in enumerate(pairs):
        A_full[u, na + k] += 1.0
        A_full[v, na + k] -= 1.0
    b_full = net.demand.sum(axis=0) - net.demand.sum(axis=1)
    A, b = A_full[:-1], b_full[:-1]  # rows sum to zero; drop one

    m_ineq = na + nw + 1
    G = np.zeros((m_ineq, n))
    h = np.zeros(m_ineq)
    G[np.arange(na), np.arange(na)] = 1.0
    h[:na] = 1.0
    G[na + np.arange(nw), na + np.arange(nw)] = -1.0
    G[-1, :na] = -th * xi
    G[-1, na:] = pair_time
    h[-1] = params.psi - float((th * xi).sum())

    x0 = np.concatenate([np.ones(na), np.zeros(nw)])
    try:
        result = solve_convex_qp(quad, lin, A, b, G, h, x0)
    except QPNoConvergence as exc:
        raise NoConvergence(str(exc)) from exc

    x = result.x
    grad = quad @ x + lin + A.T @ result.eq_duals + G.T @ result.ineq_duals
    residual = float(np.abs(grad).max())
    residual = max(residual, float(np.abs(A @ x - b).max()))
    viol = G @ x - h
    residual = max(residual, float(np.maximum(viol, 0.0).max()))
    residual = max(residual, float(np.abs(result.ineq_duals * viol).max()))

    p_vec, w_vec = x[:na], np.maximum(x[na:], 0.0)
    prices, flows = _matrices(net, pairs, p_vec, w_vec)
    payoff = _payoff_vec(net, a_mat, params, pairs, pair_time, p_vec, w_vec)
    return ExtendedSolution(
        prices=prices,
        empty_flows=flows,
        payoff=payoff,
        kkt_residual=residual,
        feasibility_slacks=_slacks(net, params, pairs, pair_time,
                                   p_vec, w_vec, params.demand),
        local_only=False,
    )


def _payoff_vec(net, a_mat, params, pairs, pair_time, p_vec, w_vec):
    th, xi = net.arc_demand, net.arc_time
    a_vec = net.on_arcs(a_mat)
    rem = params.demand.remaining(p_vec)
    value = float((xi * th * rem * (p_vec + a_vec - net.unit_cost)).sum())
    value -= float((pair_time * w_vec).sum()) * params.eta * net.unit_cost
    return value


class _PolytopeProjector:
    """Exact Euclidean projection onto {A u = 0, g'u <= psi, lo <= u <= hi}.

    The capacity bound becomes an equality through a slack coordinate, so
    the set is {box} ∩ {affine}.  The projection's concave dual in the
    affine multipliers (dimension N + 1) is maximized by semismooth
    Newton, batched over columns, with Armijo steps on the dual value and
    warm-started multipliers between nearby calls.
    """

    def __init__(self, A, g, psi, lo, hi):
        m, n = A.shape
        self.At = np.zeros((m + 1, n + 1))
        self.At[:m, :n] = A
        self.At[m, :n] = g
        self.At[m, n] = 1.0
        self.b = np.zeros(m + 1)
        self.b[m] = psi
        self.lo = np.concatenate([lo, [0.0]])[:, None]
        self.hi = np.concatenate([hi, [psi]])[:, None]
        self.n = n
        self.m1 = m + 1

    def _dual_value(self, V, NU):
        X = np.clip(V - self.At.T @ NU, self.lo, self.hi)
        diff = X - V
        return 0.5 * (diff * diff).sum(axis=0) \
            + (NU * (self.At @ X - self.b[:, None])).sum(axis=0), X

    def project_lifted(self, V, nu0=None, tol=1e-10, max_iter=100):
        """Project lifted columns; returns (X, NU) with NU reusable."""
        m1, cols = self.m1, V.shape[1]
        NU = np.zeros((m1, cols)) if nu0 is None else nu0.copy()
        scale = self.scale(V)
        eye = np.eye(m1)
        for _ in range(max_iter):
            raw = V - self.At.T @ NU
            X = np.clip(raw, self.lo, self.hi)
            F = self.At @ X - self.b[:, None]
            live = np.abs(F).max(axis=0) > tol * scale
            if not live.any():
                break
            idx = np.flatnonzero(live)
            free = ((raw[:, idx] > self.lo) & (raw[:, idx] < self.hi)).astype(float)
            jac = np.einsum("in,nc,jn->cij", self.At, free, self.At)
            jac += (1e-10 * scale) * eye[None, :, :]
            step = np.linalg.solve(jac, F[:, idx].T[:, :, None])[:, :, 0].T
            g_now, _ = self._dual_value(V[:, idx], NU[:, idx])
            slope = (F[:, idx] * step).sum(axis=0)  # ascent: slope > 0
            t = np.ones(len(idx))
            best_nu = NU[:, idx] + step
            best_val, _ = self._dual_value(V[:, idx], best_nu)
            for _ in range(25):
                lacking = best_val < g_now + 1e-4 * t * slope
                if not lacking.any():
                    break
                t = np.where(lacking, 0.5 * t, t)
                trial = NU[:, idx] + step * t[None, :]
                val, _ = self._dual_value(V[:, idx], trial)
                improve = val > best_val
                best_val = np.where(improve, val, best_val)
                best_nu = np.where(improve[None, :], trial, best_nu)
            NU[:, idx] = best_nu
        X = np.clip(V - self.At.T @ NU, self.lo, self.hi)
        return X, NU

    def scale(self, V):
        """Magnitude that the projection tolerances of ``V`` are relative to."""
        return 1.0 + float(np.abs(self.b).max()) + float(np.abs(V).max())

    def lift(self, U):
        slack = self.b[-1] - self.At[-1, :self.n] @ U
        return np.vstack([U, slack])


def _spg_ascent(value, gradient, projector, X0, nu0, max_iter,
                history=10, res_tol=1e-7, probe=None):
    """Batched spectral projected gradient ascent, one start per column.

    Phase one takes nonmonotone Barzilai-Borwein steps along the
    projection arc; once the objective stalls (or the unit-step fixed
    point residual is small) a monotone polish phase with adaptive steps
    contracts the iterates onto the stationary point.  The projector's
    dual multipliers are warm-started throughout.
    """
    X, nu = X0, nu0
    n_cols = X.shape[1]
    alpha = np.ones(n_cols)
    F = value(X)
    hist = np.tile(F, (history, 1))
    grad = gradient(X)
    best_f = F.max()
    stalled = 0
    for it in range(max_iter):
        V, nu = projector.project_lifted(X + grad * alpha[None, :], nu)
        D = V - X
        if np.abs(D).max() <= 1e-11 * (1.0 + np.abs(X).max()):
            break
        slope = (grad * D).sum(axis=0)
        ref = hist.min(axis=0)
        lam = np.ones(n_cols)
        trial = X + D
        f_trial = value(trial)
        for _ in range(30):
            need = f_trial < ref + 1e-4 * lam * slope - 1e-12 * (1.0 + np.abs(ref))
            if not need.any():
                break
            lam = np.where(need, 0.5 * lam, lam)
            trial = X + D * lam[None, :]
            f_trial = value(trial)
        new_grad = gradient(trial)
        s = trial - X
        y = grad - new_grad
        sty = (s * y).sum(axis=0)
        ss = (s * s).sum(axis=0)
        alpha = np.where(sty > 1e-16, np.clip(ss / np.maximum(sty, 1e-300),
                                              1e-8, 1e8), 1e4)
        X, grad, F = trial, new_grad, f_trial
        hist[it % history] = F
        if it % 25 == 24:
            if probe is not None:
                early = probe(X, F)
                if early is not None:
                    return early, value(early), gradient(early)
            fixed, nu = projector.project_lifted(X + grad, nu)
            if np.abs(fixed - X).max() < res_tol:
                return X, value(X), gradient(X)
            top = F.max()
            if top <= best_f + 1e-10 * (1.0 + abs(best_f)):
                stalled += 1
                if stalled >= 2:
                    break
            else:
                best_f, stalled = top, 0

    # short monotone tail: only strictly improving steps
    step = np.minimum(alpha, 1.0)
    for it in range(200):
        V, nu = projector.project_lifted(X + grad * step[None, :], nu)
        f_trial = value(V)
        improved = f_trial >= F
        X = np.where(improved[None, :], V, X)
        F = np.where(improved, f_trial, F)
        step = np.where(improved, np.minimum(step * 1.3, 1e6), step * 0.3)
        grad = gradient(X)
        if it % 20 == 19:
            fixed, nu = projector.project_lifted(X + grad, nu)
            if np.abs(fixed - X).max() < res_tol or step.max() < 1e-13:
                break
    return X, value(X), gradient(X)


def _face_newton_polish(x, projector, na, th, xi, a_vec, c, gamma,
                        log_th, w_cost, margin=1e-6, max_rounds=10,
                        max_iter=40):
    """Sharpen a near-stationary lifted point to an exact KKT point.

    Works like a small active-set Newton method seeded by the iterate:
    bound-active coordinates are pinned, interior demand coordinates have
    closed-form stationarity z(nu) in the balance duals, and interior
    linear coordinates (empty flows, capacity slack) join the unknowns
    with their own stationarity rows.  After each face solve, coordinates
    pushed through a bound are pinned and pinned coordinates whose bound
    multiplier has the wrong sign are released.  Returns the polished
    lifted point, or None when the rounds do not settle.
    """
    At, b = projector.At, projector.b
    lo, hi = projector.lo[:, 0], projector.hi[:, 0]
    band = margin * np.maximum(hi - lo, 1.0)
    at_lo = x <= lo + band
    at_hi = x >= hi - band
    lin_grad = np.concatenate([-w_cost, [0.0]])  # slope on w then slack
    m1 = At.shape[0]
    scale = 1.0 + float(np.abs(b).max())

    def objective_grad(full):
        gz = xi * (a_vec - c - (np.log(full[:na]) - log_th + 1.0) / gamma)
        return np.concatenate([gz, lin_grad])

    for _ in range(max_rounds):
        pinned = at_lo | at_hi
        x_pin = np.where(at_lo, lo, np.where(at_hi, hi, x))
        free_z = np.flatnonzero(~pinned[:na])
        free_lin = na + np.flatnonzero(~pinned[na:])

        def assemble(nu_v, w_v, clip=True):
            full = x_pin.copy()
            if len(free_z):
                t = At[:, free_z].T @ nu_v
                val = th[free_z] * np.exp(
                    gamma * (a_vec[free_z] - c - t / xi[free_z]) - 1.0)
                full[free_z] = np.minimum(val, 1e12) if clip else val
            full[free_lin] = w_v
            return full

        def residual(nu_v, w_v):
            full = assemble(nu_v, w_v)
            r1 = At @ full - b
            r2 = At[:, free_lin].T @ nu_v - lin_grad[free_lin - na]
            return np.concatenate([r1, r2])

        cols = list(free_z) + list(free_lin)
        if not cols:
            return None
        grad_free = [xi[k] * (a_vec[k] - c
                              - (np.log(max(x[k], 1e-300)) - log_th[k] + 1.0)
                              / gamma)
                     for k in free_z]
        grad_free += [lin_grad[k - na] for k in free_lin]
        nu, *_ = np.linalg.lstsq(At[:, cols].T, np.array(grad_free),
                                 rcond=None)
        w_free = np.clip(x[free_lin], lo[free_lin], hi[free_lin])

        r = residual(nu, w_free)
        for _ in range(max_iter):
            if np.abs(r).max() < 1e-12 * scale:
                break
            full = assemble(nu, w_free)
            dz = full[free_z] * gamma / xi[free_z] if len(free_z) \
                else np.zeros(0)
            j11 = -(At[:, free_z] * dz[None, :]) @ At[:, free_z].T
            j12 = At[:, free_lin]
            q = len(free_lin)
            jac = np.zeros((m1 + q, m1 + q))
            jac[:m1, :m1] = j11
            jac[:m1, m1:] = j12
            jac[m1:, :m1] = j12.T
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
            best_r, best_nu, best_w = r, nu, w_free
            t = 1.0
            for _ in range(25):
                nu_t = nu + t * step[:m1]
                w_t = w_free + t * step[m1:]
                r_t = residual(nu_t, w_t)
                if np.abs(r_t).max() < np.abs(best_r).max():
                    best_r, best_nu, best_w = r_t, nu_t, w_t
                if np.abs(r_t).max() < (1.0 - 1e-4 * t) * np.abs(r).max():
                    break
                t *= 0.5
            if np.abs(best_r).max() >= np.abs(r).max():
                break
            r, nu, w_free = best_r, best_nu, best_w

        if np.abs(r).max() > 1e-9 * scale:
            return None
        full = assemble(nu, w_free, clip=False)

        # pin coordinates pushed through a bound
        tol = 1e-11 * np.maximum(hi - lo, 1.0)
        new_lo = full < lo - tol
        new_hi = full > hi + tol
        # release pinned coordinates whose bound multiplier has wrong sign
        kappa = objective_grad(np.clip(full, lo, hi)) - At.T @ nu
        rel_lo = at_lo & ~new_lo & (kappa > 1e-9)
        rel_hi = at_hi & ~new_hi & (kappa < -1e-9)
        if not (new_lo.any() or new_hi.any() or rel_lo.any() or rel_hi.any()):
            return np.clip(full, lo, hi)
        at_lo = (at_lo | new_lo) & ~rel_lo
        at_hi = (at_hi | new_hi) & ~rel_hi
        x = np.clip(full, lo, hi)
    return None


def _solve_exponential(net, a_mat, params, seed, pairs, pair_time,
                       n_starts=8, max_iter=10000):
    if seed is None:
        raise ValueError("exponential demand solve requires a seed")
    gamma = params.demand.gamma
    arcs = net.arcs
    na, nw = len(arcs), len(pairs)
    n = na + nw
    th, xi = net.arc_demand, net.arc_time
    a_vec = net.on_arcs(a_mat)
    c, eta, psi = net.unit_cost, params.eta, params.psi

    z_lo = th * np.exp(-10.0)           # price box upper end p = 10/gamma
    z_hi = th * np.exp(gamma)           # price box lower end p = -1
    lo = np.concatenate([z_lo, np.zeros(nw)])
    hi = np.concatenate([z_hi, psi / pair_time])

    nodes = net.n_locations
    A = np.zeros((nodes, n))
    for k, (u, v) in enumerate(arcs):
        A[u, k] += 1.0
        A[v, k] -= 1.0
    for k, (u, v) in enumerate(pairs):
        A[u, na + k] += 1.0
        A[v, na + k] -= 1.0
    g = np.concatenate([xi, pair_time])
    project = _PolytopeProjector(A, g, psi, lo, hi)

    log_th = np.log(th)
    w_cost = pair_time * eta * c

    def value(X):
        Z, W = X[:na], X[na:na + nw]
        term = xi[:, None] * Z * (a_vec[:, None] - c
                                  - (np.log(Z) - log_th[:, None]) / gamma)
        return term.sum(axis=0) - (w_cost[:, None] * W).sum(axis=0)

    def gradient(X):
        Z = X[:na]
        gz = xi[:, None] * (a_vec[:, None] - c
                            - (np.log(Z) - log_th[:, None] + 1.0) / gamma)
        parts = [gz]
        if nw:
            parts.append(np.broadcast_to(-w_cost[:, None], (nw, X.shape[1])))
        parts.append(np.zeros((1, X.shape[1])))  # capacity slack, costless
        return np.vstack(parts)

    # warm start from the basic-model optimum, clipped into the price box
    try:
        base = solve_closed_form(net, a_mat)
    except NotApplicable:
        try:
            base = solve_general(net, a_mat)
        except NoConvergence:
            base = None
    if base is None:
        p_base = np.full(na, (1.0 + c) / 2.0)
    else:
        p_base = np.clip(net.on_arcs(base.prices), -1.0, 10.0 / gamma)
    z_base = th * np.exp(-gamma * p_base)
    u_base = np.concatenate([z_base, np.zeros(nw)])

    rng = np.random.default_rng(seed)
    U0 = np.tile(u_base[:, None], (1, n_starts)).astype(float)
    for s in range(1, n_starts):
        scale = np.exp(rng.uniform(-0.7, 0.7, size=na))
        U0[:na, s] = np.clip(z_base * scale, z_lo, z_hi)
        if nw:
            U0[na:, s] = rng.uniform(0.0, psi / (4.0 * nw), size=nw) / pair_time
    V0 = project.lift(U0)
    X0, nu0 = project.project_lifted(V0)

    feas_err = max(float(np.abs(A @ X0[:n]).max()),
                   float(np.maximum(g @ X0[:n] - psi, 0.0).max()),
                   float(np.maximum(lo[:, None] - X0[:n], 0.0).max()),
                   float(np.maximum(X0[:n] - hi[:, None], 0.0).max()))
    # the projector converges to a tolerance relative to its scale, which
    # grows with psi and the demand; an absolute threshold rejects good points
    if feas_err > 1e-6 * project.scale(V0):
        raise Infeasible(
            "no balanced flow exists within the price box; residual "
            f"{feas_err:.3e} (network not strongly connected for empty routing?)")

    def lifted_residual(point):
        fixed, _ = project.project_lifted(
            (point + gradient(point[:, None])[:, 0])[:, None])
        return float(np.abs(point - fixed[:, 0]).max())

    def probe(X_now, F_now):
        lead = X_now[:, int(np.argmax(F_now))]
        for margin in (1e-6, 1e-4, 1e-2):
            cand = _face_newton_polish(lead, project, na, th, xi, a_vec, c,
                                       gamma, log_th, w_cost, margin=margin)
            if cand is None or lifted_residual(cand) > 1e-8:
                continue
            if value(cand[:, None])[0] < F_now.max() - 1e-9:
                continue
            return np.tile(cand[:, None], (1, X_now.shape[1]))
        return None

    early = probe(X0, value(X0))
    if early is not None:
        X, F = early, value(early)
        grad = gradient(X)
    else:
        X, F, grad = _spg_ascent(value, gradient, project, X0, nu0, max_iter,
                                 probe=probe)
    best = int(np.argmax(F))
    x = X[:, best]

    base_residual = lifted_residual(x)
    for margin in (1e-6, 1e-5, 1e-4):
        polished = _face_newton_polish(x, project, na, th, xi, a_vec, c,
                                       gamma, log_th, w_cost, margin=margin)
        if polished is not None \
                and value(polished[:, None])[0] >= F[best] - 1e-9 \
                and lifted_residual(polished) < base_residual:
            x = polished
            break
    residual = lifted_residual(x)

    z_vec, w_vec = x[:na], x[na:na + nw]
    p_vec = -(np.log(z_vec) - log_th) / gamma
    prices, flows = _matrices(net, pairs, p_vec, w_vec)
    return ExtendedSolution(
        prices=prices,
        empty_flows=flows,
        payoff=float(F[best]),
        kkt_residual=residual,
        feasibility_slacks=_slacks(net, params, pairs, pair_time,
                                   p_vec, w_vec, params.demand),
        local_only=True,
    )


def solve_extended(net: TrafficNetwork, a, params: ExtendedParams,
                   seed=None, empty_pairs=None) -> ExtendedSolution:
    """Solve the extended pricing problem.

    Uniform demand: exact, globally optimal active-set QP solve (the
    problem is concave quadratic with affine constraints).  Exponential
    demand: multi-start projected gradient ascent in demand coordinates;
    deterministic given ``seed``; the best stationary point is returned
    with ``local_only`` set.
    """
    a_mat = ad_matrix(net, a)
    pairs, pair_time = _pair_set(net, empty_pairs)
    if params.demand.kind == "uniform":
        return _solve_uniform(net, a_mat, params, pairs, pair_time)
    return _solve_exponential(net, a_mat, params, seed, pairs, pair_time)
