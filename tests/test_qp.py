"""Direct tests of the dense active-set QP, certified by KKT residuals."""

import numpy as np
import pytest

from resistive_pricing import (
    DemandModel,
    ExtendedParams,
    solve_extended,
    synth_instance,
)
from resistive_pricing.qp import QPNoConvergence, solve_convex_qp

from oracles import extended_uniform_qp


def kkt_residual(Q, c, A, b, G, h, result):
    """Largest violation of stationarity, feasibility and complementarity."""
    x = result.x
    grad = Q @ x + c + A.T @ result.eq_duals + G.T @ result.ineq_duals
    viol = G @ x - h
    parts = [np.abs(grad).max(), np.maximum(viol, 0.0).max(),
             np.abs(result.ineq_duals * viol).max()]
    if A.shape[0]:
        parts.append(np.abs(A @ x - b).max())
    return float(max(parts))


def assert_kkt(Q, c, A, b, G, h, result, tol=1e-8):
    assert kkt_residual(Q, c, A, b, G, h, result) < tol
    working = list(result.working_set)
    assert np.all(result.ineq_duals[working] >= 0.0)
    idle = np.setdiff1d(np.arange(G.shape[0]), working)
    assert np.all(result.ineq_duals[idle] == 0.0)


def box(lo, hi):
    n = len(lo)
    G = np.vstack([np.eye(n), -np.eye(n)])
    h = np.concatenate([hi, -np.asarray(lo)])
    return G, h


def test_bounds_only_matches_clipping():
    rng = np.random.default_rng(0)
    n = 12
    q = rng.uniform(0.5, 3.0, n)
    c = rng.normal(0.0, 2.0, n)
    lo, hi = np.full(n, -0.5), np.full(n, 0.5)
    G, h = box(lo, hi)
    A, b = np.zeros((0, n)), np.zeros(0)
    result = solve_convex_qp(np.diag(q), c, A, b, G, h, np.zeros(n))
    assert np.allclose(result.x, np.clip(-c / q, lo, hi), atol=1e-12)
    assert_kkt(np.diag(q), c, A, b, G, h, result)
    assert not any(arr.flags.writeable for arr in
                   (result.x, result.eq_duals, result.ineq_duals))
    clipped = np.flatnonzero(np.abs(-c / q) > 0.5)
    assert len(clipped) and len(result.working_set) == len(clipped)


def test_pinned_variable_with_both_bounds_active():
    Q = np.eye(3)
    c = np.array([1.0, -1.0, 0.5])
    lo, hi = np.array([-1.0, 0.2, -1.0]), np.array([1.0, 0.2, 1.0])
    G, h = box(lo, hi)
    A, b = np.zeros((0, 3)), np.zeros(0)
    result = solve_convex_qp(Q, c, A, b, G, h, np.array([0.0, 0.2, 0.0]))
    assert result.x == pytest.approx([-1.0, 0.2, -0.5], abs=1e-12)
    assert_kkt(Q, c, A, b, G, h, result)


def test_bounds_mixed_with_general_rows():
    rng = np.random.default_rng(1)
    n = 8
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.1 * np.eye(n)
    c = np.full(n, -30.0)
    c[3] = 30.0
    x0 = rng.uniform(-0.2, 0.2, n)
    A = rng.normal(size=(2, n))
    b = A @ x0
    G_box, h_box = box(np.full(n, -1.0), np.full(n, 1.0))
    scaled = np.zeros(n)
    scaled[3] = -2.0  # x_3 >= -0.8 written with a non-unit coefficient
    G = np.vstack([G_box, np.ones(n), scaled])
    h = np.concatenate([h_box, [2.0], [1.6]])
    result = solve_convex_qp(Q, c, A, b, G, h, x0)
    assert_kkt(Q, c, A, b, G, h, result)
    working = set(result.working_set)
    assert {2 * n, 2 * n + 1} <= working  # sum(x) <= 2 and x_3 >= -0.8
    assert working & set(range(2 * n))


def test_zero_curvature_ray_stops_at_bound():
    # min 0.5 x1^2 - x1 - x2: no curvature along x2, so x2 rides a ray
    Q = np.diag([1.0, 0.0])
    c = np.array([-1.0, -1.0])
    G, h = box(np.array([-5.0, 0.0]), np.array([5.0, 3.0]))
    A, b = np.zeros((0, 2)), np.zeros(0)
    result = solve_convex_qp(Q, c, A, b, G, h, np.zeros(2))
    assert result.x == pytest.approx([1.0, 3.0], abs=1e-12)
    assert result.working_set == (1,)
    assert result.ineq_duals[1] == pytest.approx(1.0, abs=1e-12)
    assert_kkt(Q, c, A, b, G, h, result)


def test_degenerate_uniform_start():
    net, _ = synth_instance(6, 0.5, seed=4, profile="commuter")
    total = float((net.arc_demand * net.arc_time).sum())
    params = ExtendedParams(eta=0.8, psi=0.5 * total,
                            demand=DemandModel.uniform())
    (Q, c, A, b, G, h, x0), offset = extended_uniform_qp(
        net, np.zeros_like(net.demand), params)
    bounds = np.count_nonzero(G, axis=1) == 1
    assert np.all((h - G @ x0)[bounds] == 0.0)  # every bound starts active
    # restore the flow-balance row the caller drops: rows now sum to zero
    A_dep = np.vstack([A, -A.sum(axis=0)])
    b_dep = np.append(b, -b.sum())
    values = []
    for A_k, b_k in ((A, b), (A_dep, b_dep)):
        result = solve_convex_qp(Q, c, A_k, b_k, G, h, x0)
        assert_kkt(Q, c, A_k, b_k, G, h, result)
        values.append(0.5 * result.x @ Q @ result.x + c @ result.x)
    assert values[1] == pytest.approx(values[0], rel=1e-12, abs=1e-12)
    sol = solve_extended(net, None, params)
    assert sol.kkt_residual < 1e-8
    # the dense QP is an independent reference for the interior-point engine
    assert offset - values[0] == pytest.approx(sol.payoff, rel=1e-9)


def test_infeasible_start_raises():
    G, h = box(np.zeros(2), np.ones(2))
    A, b = np.array([[1.0, 1.0]]), np.array([1.0])
    with pytest.raises(ValueError, match="inequality"):
        solve_convex_qp(np.eye(2), np.zeros(2), A, b, G, h,
                        np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="equality"):
        solve_convex_qp(np.eye(2), np.zeros(2), A, b, G, h,
                        np.array([0.2, 0.2]))


def test_iteration_cap_raises():
    G, h = box(np.full(3, -1.0), np.full(3, 1.0))
    with pytest.raises(QPNoConvergence):
        solve_convex_qp(np.eye(3), np.array([3.0, -3.0, 0.5]),
                        np.zeros((0, 3)), np.zeros(0), G, h, np.zeros(3),
                        max_iter=1)
