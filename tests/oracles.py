"""Independent oracles the solvers are checked against.

Everything here deliberately avoids the library's electrical/active-set
code paths: pricing optima come from enumerating cap-pinned subsets and
solving dense equality-KKT systems with lstsq; the active-set loop's
candidates come from the paper's resistance form with an SVD
pseudoinverse; resistances come from current injection into the raw
Laplacian; sensitivities from central finite differences; selection
scores under symmetric demand from the paper's closed forms; extended-model
optima from face enumeration and a Lagrangian-dual certificate; the payoff
functional Delta in its plain form, from a bordered solve of the raw
Laplacian.  Ride ingest is checked against the plain forms of k-means and
of the per-record aggregation loop.
"""

import itertools

import numpy as np


def pinned_equality_prices(net, a_mat, pinned):
    """Optimal prices with the pinned arcs fixed at the cap.

    Solves the equality-constrained concave QP (flow balance only) via a
    dense KKT system.  Returns an (N, N) price matrix (NaN off arcs) or
    None when the system is inconsistent.
    """
    free = [arc for arc in net.arcs if arc not in pinned]
    nf = len(free)
    n = net.n_locations
    Q = np.zeros((nf, nf))
    q = np.zeros(nf)
    A = np.zeros((n, nf))
    b = np.zeros(n)
    for k, (i, j) in enumerate(free):
        th, xi = net.demand[i, j], net.travel_time[i, j]
        Q[k, k] = 2.0 * th * xi
        q[k] = -th * xi * (1.0 - a_mat[i, j] + net.unit_cost)
        A[i, k] -= th
        A[j, k] += th
        b[i] -= th
        b[j] += th
    kkt = np.block([[Q, A.T], [A, np.zeros((n, n))]])
    rhs = np.concatenate([-q, b])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    if np.linalg.norm(kkt @ sol - rhs) > 1e-7 * (1.0 + np.linalg.norm(rhs)):
        return None
    prices = np.full((n, n), np.nan)
    for k, (i, j) in enumerate(free):
        prices[i, j] = sol[k]
    for i, j in pinned:
        prices[i, j] = 1.0
    return prices


def pricing_objective(net, a_mat, prices):
    total = 0.0
    for i, j in net.arcs:
        th, xi = net.demand[i, j], net.travel_time[i, j]
        p = prices[i, j]
        total += th * xi * (1.0 - p) * (p + a_mat[i, j] - net.unit_cost)
    return total


def enumerate_optimal_prices(net, a_mat, tol=1e-9):
    """Global optimum of the pricing problem by active-set enumeration.

    Tries every subset of arcs pinned to the cap; keeps candidates whose
    free prices respect the cap; returns the best (prices, payoff).
    Intended for |arcs| <= 10.
    """
    arcs = net.arcs
    best_prices, best_val = None, -np.inf
    for r in range(len(arcs) + 1):
        for pinned in itertools.combinations(arcs, r):
            prices = pinned_equality_prices(net, a_mat, set(pinned))
            if prices is None:
                continue
            on = [prices[i, j] for i, j in arcs]
            if max(on) > 1.0 + tol:
                continue
            val = pricing_objective(net, a_mat, prices)
            if val > best_val:
                best_val, best_prices = val, prices
    return best_prices, best_val


def _components(weights):
    """Connected components of weights > 0 by depth-first search, as
    sorted node lists in order of their smallest node."""
    n = weights.shape[0]
    seen = [False] * n
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack, comp = [root], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in range(n):
                if weights[u, w] > 0 and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def resistance_candidate(net, a_mat, active):
    """The active-set loop's KKT candidate in the paper's resistance form.

    Arcs where the (N, N) boolean ``active`` is True are pinned at the cap
    and masked out of the projection.  Per component of the masked
    projection: L+ by an SVD pseudoinverse, R_ij = L+_ii + L+_jj - 2 L+_ij,
    s = R v, and p_ij = (1 - a + c)/2 + (s_j - s_i)/(4 xi) on live arcs;
    lambda = L+ v.  Capped arcs that bridge components get per-component
    shifts of lambda by Bellman-Ford relaxation of lambda_i - lambda_j >=
    xi (1 + a - c), applied only when those constraints are consistent.
    Returns (N, N) prices, lambda, and (N, N) cap multipliers.
    """
    n, c = net.n_locations, net.unit_cost
    weights = np.zeros((n, n))
    v = np.zeros(n)
    for i, j in net.arcs:
        if active[i, j]:
            continue
        th = net.demand[i, j]
        weights[i, j] += th / net.travel_time[i, j]
        weights[j, i] += th / net.travel_time[i, j]
        v[i] += th * (1.0 + a_mat[i, j] - c)
        v[j] -= th * (1.0 + a_mat[i, j] - c)
    comps = _components(weights)
    comp = np.zeros(n, dtype=int)
    s = np.zeros(n)
    lam = np.zeros(n)
    for ci, nodes in enumerate(comps):
        comp[nodes] = ci
        w = weights[np.ix_(nodes, nodes)]
        pinv = np.linalg.pinv(np.diag(w.sum(axis=1)) - w)
        d = np.diag(pinv)
        eff = d[:, None] + d[None, :] - 2.0 * pinv
        s[nodes] = eff @ v[nodes]
        lam[nodes] = pinv @ v[nodes]

    constraints = [(comp[i], comp[j], lam[i] - lam[j] - net.travel_time[i, j]
                    * (1.0 + a_mat[i, j] - c))
                   for i, j in net.arcs
                   if active[i, j] and comp[i] != comp[j]]
    shift = np.zeros(len(comps))
    for _ in range(len(comps) + 1):
        changed = False
        for cu, cv, ub in constraints:
            if shift[cv] > shift[cu] + ub + 1e-12:
                shift[cv] = shift[cu] + ub
                changed = True
        if not changed:
            lam = lam + shift[comp]
            break

    prices = np.full((n, n), np.nan)
    mu = np.zeros((n, n))
    for i, j in net.arcs:
        xi = net.travel_time[i, j]
        if active[i, j]:
            prices[i, j] = 1.0
            mu[i, j] = net.demand[i, j] * (
                lam[i] - lam[j] - xi * (1.0 + a_mat[i, j] - c))
        else:
            prices[i, j] = (1.0 - a_mat[i, j] + c) / 2.0 \
                + (s[j] - s[i]) / (4.0 * xi)
    return prices, lam, mu


def next_active(net, active, prices, mu, feas_tol=1e-9):
    """Per-arc loop form of the active-set rule, block moves: every
    violated cap enters and every negative cap multiplier leaves at once.
    Returns the next (N, N) active set, or None at a KKT point."""
    violations = [(i, j) for i, j in net.arcs
                  if not active[i, j] and prices[i, j] > 1.0 + feas_tol]
    negatives = [(i, j) for i, j in net.arcs
                 if active[i, j] and mu[i, j] < -feas_tol]
    if not (violations or negatives):
        return None
    nxt = active.copy()
    for arc in violations:
        nxt[arc] = True
    for arc in negatives:
        nxt[arc] = False
    return nxt


def resistance_pricing_path(net, a_mat):
    """Run the active-set loop on :func:`resistance_candidate` for at most
    max(8, 4 |arcs|) rounds of block moves.

    Returns the capped sets visited (as frozensets of arcs) and the final
    candidate (prices, lambda, mu).
    """
    active = np.zeros((net.n_locations,) * 2, dtype=bool)
    path = []
    for _ in range(max(8, 4 * len(net.arcs))):
        candidate = resistance_candidate(net, a_mat, active)
        path.append(frozenset(arc for arc in net.arcs if active[arc]))
        active = next_active(net, active, candidate[0], candidate[2])
        if active is None:
            return path, candidate
    raise RuntimeError("reference loop did not reach a KKT point")


def injection_resistance(weights, i, j):
    """Effective resistance from a unit current injected at i, drawn at j.

    Grounds the last node and solves the reduced Laplacian system
    directly; no pseudoinverse involved.
    """
    n = weights.shape[0]
    lap = np.diag(weights.sum(axis=1)) - weights
    rhs = np.zeros(n)
    rhs[i] += 1.0
    rhs[j] -= 1.0
    phi = np.zeros(n)
    phi[:-1] = np.linalg.solve(lap[:-1, :-1], rhs[:-1])
    return phi[i] - phi[j]


def plain_deltas(net, ad_rows):
    """The payoff functional Delta of each of the (K, arcs) per-arc ad
    rows in its plain form, sum theta xi ((1+a-c)/2)^2 - lambda' v / 4
    with the potentials lambda of each value vector v from one bordered
    solve (L + J/N) lambda = v of the connected network.  Returns the K
    values of Delta and the K term scales sum theta xi ((1+a-c)/2)^2 +
    |lambda' v| / 4 that bound their rounding."""
    gains = 1.0 + ad_rows - net.unit_cost
    values = net.net_outflow(net.arc_demand * gains).T
    w = net.projection
    system = np.diag(w.sum(axis=1)) - w + 1.0 / net.n_locations
    lam = np.linalg.solve(system, values)
    own = np.sum(net.arc_demand * net.arc_time * (gains / 2.0) ** 2, axis=1)
    cross = np.sum(lam * values, axis=0) / 4.0
    return own - cross, own + np.abs(cross)


def symmetric_arc_score(net, arc, b, eff):
    """The paper's closed-form score of the arc-based advertiser paying b
    on ``arc`` under symmetric demand, from the effective resistances
    ``eff``: theta xi (b^2 + 2(1-c) b) - theta^2 b^2 R_ij.  It equals
    4 (Delta(a) - Delta(0)) for the advertiser's ad vector a."""
    th, xi = net.demand[arc], net.travel_time[arc]
    return th * xi * (b * b + 2.0 * (1.0 - net.unit_cost) * b) \
        - th * th * b * b * eff[arc]


def symmetric_location_score(net, k, incoming, eff):
    """The paper's closed-form score of the location-based advertiser of
    k, paying d_sk on each incoming arc (s, k), under symmetric demand:
    sum_s theta_sk xi_sk (d^2 + 2(1-c) d)
    + sum_s sum_t 0.5 theta_sk theta_tk d_sk d_tk (R_st - R_sk - R_tk).
    It equals 4 (Delta(a) - Delta(0)) for the advertiser's ad vector a."""
    c = net.unit_cost
    incoming = sorted(incoming.items())
    total = 0.0
    for s, d_sk in incoming:
        th_s, xi_s = net.demand[s, k], net.travel_time[s, k]
        total += th_s * xi_s * (d_sk * d_sk + 2.0 * (1.0 - c) * d_sk)
        for t, d_tk in incoming:
            th_t = net.demand[t, k]
            total += 0.5 * th_s * th_t * d_sk * d_tk * (
                eff[s, t] - eff[s, k] - eff[t, k])
    return total


def central_difference_sensitivity(solver, net, a_mat, arc, eps=1e-5):
    """(p(a + eps) - p(a - eps)) / (2 eps) per arc, via the given solver."""
    x, y = arc
    up = a_mat.copy()
    up[x, y] += eps
    down = a_mat.copy()
    down[x, y] -= eps
    p_up = solver(net, up).prices
    p_down = solver(net, down).prices
    return (p_up - p_down) / (2.0 * eps)


def _extended_dimensions(net, params):
    arcs = net.arcs
    th, xi = net.arc_demand, net.arc_time
    na = len(arcs)
    n = 2 * na  # w lives on the arc set
    quad = np.zeros((n, n))
    quad[np.arange(na), np.arange(na)] = 2.0 * th * xi
    A = np.zeros((net.n_locations, n))
    for k, (u, v) in enumerate(arcs):
        A[u, k] -= th[k]
        A[v, k] += th[k]
        A[u, na + k] += 1.0
        A[v, na + k] -= 1.0
    b = net.demand.sum(axis=0) - net.demand.sum(axis=1)
    gcap = np.concatenate([-th * xi, xi])
    hcap = params.psi - float((th * xi).sum())
    return arcs, th, xi, na, n, quad, A, b, gcap, hcap


def extended_uniform_qp(net, a_mat, params):
    """The uniform-demand extended problem in (p, w) as a dense QP for
    ``qp.solve_convex_qp``: min 0.5 x'Qx + lin'x s.t. A x = b, G x <= h,
    started at x0 with every price at the cap and every empty flow at 0,
    so every bound starts in the working set.  Returns (Q, lin, A, b, G,
    h, x0) and the offset that turns the minimum into the payoff."""
    _, th, xi, na, n, Q, A, b, gcap, hcap = _extended_dimensions(net, params)
    c = net.unit_cost
    a_vec = net.on_arcs(a_mat)
    lin = np.concatenate([-th * xi * (1.0 - a_vec + c),
                          xi * params.eta * c])
    G = np.zeros((n + 1, n))
    G[np.arange(na), np.arange(na)] = 1.0  # p <= 1
    G[na + np.arange(na), na + np.arange(na)] = -1.0  # w >= 0
    G[-1] = gcap
    h = np.concatenate([np.ones(na), np.zeros(na), [hcap]])
    x0 = np.concatenate([np.ones(na), np.zeros(na)])
    offset = float((th * xi * (a_vec - c)).sum())
    # balance rows sum to zero; drop one
    return (Q, lin, A[:-1], b[:-1], G, h, x0), offset


def extended_uniform_objective(net, a_mat, params, p_vec, w_vec):
    th, xi = net.arc_demand, net.arc_time
    a_vec = net.on_arcs(a_mat)
    value = float((xi * th * (1.0 - p_vec)
                   * (p_vec + a_vec - net.unit_cost)).sum())
    value -= float((xi * w_vec).sum()) * params.eta * net.unit_cost
    return value


def enumerate_extended_uniform(net, a_mat, params, tol=1e-7):
    """Global optimum of the uniform-demand extended problem.

    Enumerates faces: subsets of prices pinned to the cap, empty flows
    pinned to zero, capacity active or not.  On each face the stationarity
    plus constraint equations are solved by lstsq; consistent feasible
    candidates are compared by objective.  Feasible for |arcs| <= 5.
    """
    arcs, th, xi, na, n, quad, A, b, gcap, hcap = _extended_dimensions(net, params)
    a_vec = net.on_arcs(a_mat)
    lin = np.concatenate([-th * xi * (1.0 - a_vec + net.unit_cost),
                          xi * params.eta * net.unit_cost])
    best_val, best_point = -np.inf, None
    nodes = net.n_locations
    idx = np.arange(n)
    for p_pin in itertools.chain.from_iterable(
            itertools.combinations(range(na), r) for r in range(na + 1)):
        for w_pin in itertools.chain.from_iterable(
                itertools.combinations(range(na), r) for r in range(na + 1)):
            fixed = {k: 1.0 for k in p_pin}
            fixed.update({na + k: 0.0 for k in w_pin})
            free = np.array([k for k in idx if k not in fixed], dtype=int)
            x_fix = np.zeros(n)
            for k, val in fixed.items():
                x_fix[k] = val
            nf = len(free)
            for cap_active in (False, True):
                # unknowns: the free coordinates, the node duals, the
                # capacity dual; rows: stationarity on the free
                # coordinates, flow balance, then the capacity if active
                M = np.zeros((nf + nodes + cap_active, nf + nodes + 1))
                M[np.arange(nf), np.arange(nf)] = quad[free, free]
                M[:nf, nf:nf + nodes] = A[:, free].T
                M[nf:nf + nodes, :nf] = A[:, free]
                r = np.concatenate([-lin[free], b - A @ x_fix])
                if cap_active:
                    M[:nf, -1] = gcap[free]
                    M[-1, :nf] = gcap[free]
                    r = np.append(r, hcap - gcap @ x_fix)
                sol, *_ = np.linalg.lstsq(M, r, rcond=None)
                if np.linalg.norm(M @ sol - r) > 1e-6 * (1.0 + np.linalg.norm(r)):
                    continue
                x = x_fix.copy()
                x[free] = sol[:nf]
                p_vec, w_vec = x[:na], x[na:]
                if p_vec.max() > 1.0 + tol or w_vec.min() < -tol:
                    continue
                if gcap @ x > hcap + tol:
                    continue
                val = extended_uniform_objective(net, a_mat, params, p_vec, w_vec)
                if val > best_val:
                    best_val, best_point = val, (p_vec.copy(), w_vec.copy())
    return best_point, best_val


def arcs_off_cycles(net, pairs):
    """Arcs on no directed cycle of the graph of arcs plus ``pairs``.

    Arc (u, v) is on a cycle exactly when v reaches u; reachability is a
    depth-first search from every node.
    """
    n = net.n_locations
    succ = [set() for _ in range(n)]
    for u, v in list(net.arcs) + list(pairs):
        succ[u].add(v)
    reach = []
    for root in range(n):
        seen, stack = {root}, [root]
        while stack:
            for nxt in succ[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        reach.append(seen)
    return [(u, v) for u, v in net.arcs if u not in reach[v]]


def duality_gap(net, a, params, sol, margin=1e-6):
    """Lagrangian-dual bound minus the payoff of an extended solution,
    relative to |payoff| plus the total vehicle mass.

    In demand coordinates z = theta (1 - F(p)) the problem maximizes
    sum f(z) - sum eta c t w over flow balance, the capacity bound and
    the boxes w in [0, psi/t] and, per arc,

    - uniform: f(z) = xi z (1 + a - c) - xi z^2 / theta, z in [0, psi/xi],
      so p in [1 - psi/(xi theta), 1];
    - exponential: f(z) = xi z (a - c) - (xi/gamma) z log(z/theta),
      z in [theta e^-10, theta e^gamma], so p in [-1, 10/gamma].

    The balance duals y and the capacity price mu are fitted by least
    squares to the stationarity rows f'(z) = y_u - y_v + mu xi of the arcs
    priced strictly inside their box: xi (a - c + 2p - 1) uniform,
    xi (a - c + p - 1/gamma) exponential (gauge y_{N-1} = 0, plus the row
    mu = 0 when capacity is slack); mu is clipped at 0.  The dual function
    is then evaluated in closed form: each z maximizes a concave function
    of one variable, clipped to its box (uniform: theta (xi (1 + a - c) -
    r) / (2 xi); exponential: theta e^(gamma (a - c - r/xi) - 1), for r =
    y_u - y_v + mu xi), and each w sits at 0 or psi/t.  By weak duality the
    result is an upper bound on the optimum, so a small non-negative gap
    certifies the payoff.  The bound is tight only when the interior arcs
    determine the duals; with most prices at the box ends, or nodes joined
    only by empty flows, the fit is loose and the gap overstates.  The
    empty pairs are merged with the arcs here, from ``net.empty_pairs``,
    not read off ``net.pair_array``.
    """
    from resistive_pricing.network import arc_ads

    ads = dict(zip(net.arcs, arc_ads(net, a).tolist()))
    n = net.n_locations
    uniform = params.demand.kind == "uniform"
    gamma, psi, eta, c = (params.demand.gamma, params.psi, params.eta,
                          net.unit_cost)
    pairs = [(i, j, net.travel_time[i, j]) for i, j in net.arcs]
    known = set(net.arcs)
    for i, j, t in net.empty_pairs:
        if (i, j) not in known:
            pairs.append((i, j, float(t)))
            known.add((i, j))

    rows, rhs = [], []
    used = 0.0
    for i, j in net.arcs:
        th, xi, a = net.demand[i, j], net.travel_time[i, j], ads[i, j]
        p = float(sol.prices[i, j])
        if uniform:
            used += xi * th * (1.0 - p)
            lo, hi, slope = 1.0 - psi / (xi * th), 1.0, a - c + 2.0 * p - 1.0
        else:
            used += xi * th * np.exp(-gamma * p)
            lo, hi, slope = -1.0, 10.0 / gamma, a - c + p - 1.0 / gamma
        if lo + margin < p < hi - margin:
            row = np.zeros(n)  # y_0 .. y_{N-2}, then mu
            if i < n - 1:
                row[i] += 1.0
            if j < n - 1:
                row[j] -= 1.0
            row[-1] = xi
            rows.append(row)
            rhs.append(xi * slope)
    for i, j, t in pairs:
        used += t * sol.empty_flows[i, j]
    if psi - used > margin * psi:
        row = np.zeros(n)
        row[-1] = 1.0
        rows.append(row)
        rhs.append(0.0)
    fit, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    y = np.append(fit[:-1], 0.0)
    mu = max(float(fit[-1]), 0.0)

    dual = mu * psi
    for i, j in net.arcs:
        th, xi, a = net.demand[i, j], net.travel_time[i, j], ads[i, j]
        r = y[i] - y[j] + mu * xi
        if uniform:
            z = th * (xi * (1.0 + a - c) - r) / (2.0 * xi)
            z = min(max(z, 0.0), psi / xi)
            dual += xi * z * (1.0 + a - c) - xi * z * z / th - r * z
        else:
            z = th * np.exp(gamma * (a - c - r / xi) - 1.0)
            z = min(max(z, th * np.exp(-10.0)), th * np.exp(gamma))
            dual += xi * (a - c) * z - (xi / gamma) * z * np.log(z / th) \
                - r * z
    for i, j, t in pairs:
        slope = -(eta * c * t + y[i] - y[j] + mu * t)
        dual += max(slope, 0.0) * psi / t
    mass = float((net.arc_demand * net.arc_time).sum())
    return (dual - sol.payoff) / (abs(sol.payoff) + mass)


def kmeans_reference(points, k, rng, max_iter=300):
    """k-means++ seeding and Lloyd iterations on an (n, 2) point array.

    The plain form: distances from an (n, k, 2) temporary, each centroid
    the mean of its members, an empty cluster reseeded at the point
    farthest from every centroid.  ``ingest._kmeans`` must match it bit
    for bit.  Returns (centers, labels, inertia).
    """
    n = len(points)
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


def aggregate_reference(rides, origin_labels, dest_labels, k, slot_seconds):
    """Ride counts and summed durations (slots) per cluster pair, one
    ride at a time; intra-cluster rides are counted apart.

    Returns (counts, durations, intra) with (k, k) float matrices.
    """
    counts = np.zeros((k, k))
    durations = np.zeros((k, k))
    intra = 0
    for start, end, oi, di in zip(rides.pickup_time.tolist(),
                                  rides.dropoff_time.tolist(),
                                  origin_labels, dest_labels):
        if oi == di:
            intra += 1
            continue
        counts[oi, di] += 1
        durations[oi, di] += (end - start) / slot_seconds
    return counts, durations, intra
