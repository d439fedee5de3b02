"""Dense primal active-set solver for convex quadratic programs.

Solves min 0.5 x'Qx + c'x subject to Ax = b and Gx <= h, with Q positive
semidefinite (curvature may vanish along some directions, e.g. variables
entering the objective linearly).  The caller must supply a feasible start.

A row of G with exactly one nonzero is a simple bound.  A bound in the
working set fixes its variable rather than adding a row to the working
matrix (Gill, Murray & Wright, *Practical Optimization*, §5.5), so steps
are computed in the null space, over the free columns only, of the
general working rows: the equalities plus any working inequality that is
not a bound.  When the reduced Hessian is singular along the reduced
gradient the subproblem is a descent ray, followed until a constraint
blocks.  At a stationary point the multipliers of the general rows are a
least-squares solve on the free columns, and each working bound's
multiplier is read off its fixed column.
"""

from dataclasses import dataclass

import numpy as np

from .network import FrozenArrays


class QPNoConvergence(RuntimeError):
    pass


@dataclass(frozen=True)
class QPResult(FrozenArrays):
    x: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    working_set: tuple
    iterations: int


def _null_space(C: np.ndarray, n: int) -> np.ndarray:
    if C.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(C, full_matrices=True)
    tol = max(C.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
    rank = int(np.sum(s > tol))
    return vt[rank:].T


def solve_convex_qp(Q, c, A, b, G, h, x0, max_iter=None,
                    feas_tol=1e-9, mult_tol=1e-9) -> QPResult:
    Q = np.asarray(Q, dtype=float)
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(-1, len(c))
    G = np.asarray(G, dtype=float).reshape(-1, len(c))
    b = np.asarray(b, dtype=float).reshape(-1)
    h = np.asarray(h, dtype=float).reshape(-1)
    n, m_eq, m = len(c), A.shape[0], G.shape[0]
    x = np.array(x0, dtype=float)
    if m_eq and np.max(np.abs(A @ x - b)) > feas_tol:
        raise ValueError("x0 violates equality constraints")
    slack = h - G @ x
    if m and slack.min() < -feas_tol:
        raise ValueError("x0 violates inequality constraints")

    is_bound = np.count_nonzero(G, axis=1) == 1
    bound_var = np.argmax(G != 0, axis=1)
    bound_coef = G[np.arange(m), bound_var]
    general = np.flatnonzero(~is_bound)

    # a variable is fixed by at most one working bound at a time
    working = slack <= feas_tol
    fixed = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(working & is_bound):
        if fixed[bound_var[i]]:
            working[i] = False
        fixed[bound_var[i]] = True
    cap = max_iter if max_iter is not None else 60 * (n + m + 1)

    for it in range(1, cap + 1):
        g = Q @ x + c
        gen_work = general[working[general]]
        C = np.vstack([A, G[gen_work]])
        free = np.flatnonzero(~fixed)
        Cf = C[:, free]
        Z = _null_space(Cf, len(free))
        ray = False
        d = np.zeros(n)
        if Z.shape[1]:
            Hr = Z.T @ Q[np.ix_(free, free)] @ Z
            Hr = 0.5 * (Hr + Hr.T)
            gr = Z.T @ g[free]
            w, V = np.linalg.eigh(Hr)
            wmax = max(float(w[-1]), 0.0)
            thresh = max(wmax, 1.0) * 1e-12
            pos = w > thresh
            coeff = V.T @ (-gr)
            y = V[:, pos] @ (coeff[pos] / w[pos]) if pos.any() else np.zeros(Z.shape[1])
            u = (-gr) - (V[:, pos] @ coeff[pos] if pos.any() else 0.0)
            if np.linalg.norm(u) > 1e-9 * (1.0 + np.linalg.norm(gr)):
                d[free] = Z @ u
                ray = True
            else:
                d[free] = Z @ y

        step_scale = 1.0 + float(np.abs(x).max())
        if not ray and np.abs(d).max() <= 1e-11 * step_scale:
            nu, *_ = np.linalg.lstsq(Cf.T, -g[free], rcond=None)
            mu = np.zeros(m)
            mu[gen_work] = nu[m_eq:]
            bound_work = np.flatnonzero(working & is_bound)
            cols = bound_var[bound_work]
            mu[bound_work] = -(g[cols] + C[:, cols].T @ nu) / bound_coef[bound_work]
            work_idx = np.flatnonzero(working)
            if len(work_idx) == 0 or mu[work_idx].min() >= -mult_tol:
                return QPResult(x, nu[:m_eq], np.maximum(mu, 0.0),
                                tuple(work_idx.tolist()), it)
            drop = work_idx[int(np.argmin(mu[work_idx]))]
            working[drop] = False
            if is_bound[drop]:
                fixed[bound_var[drop]] = False
            continue

        Gd = G @ d
        blocked = np.flatnonzero(~working & (Gd > 1e-12 * step_scale))
        if len(blocked):
            ratios = np.maximum((h[blocked] - G[blocked] @ x) / Gd[blocked], 0.0)
            kmin = int(np.argmin(ratios))
            alpha_block, iblock = float(ratios[kmin]), int(blocked[kmin])
        else:
            alpha_block, iblock = np.inf, None
        alpha = alpha_block if ray else min(1.0, alpha_block)
        if not np.isfinite(alpha):
            raise QPNoConvergence("unbounded descent ray; problem malformed")
        x = x + alpha * d
        if iblock is not None and alpha_block <= alpha:
            working[iblock] = True
            if is_bound[iblock]:
                fixed[bound_var[iblock]] = True

    raise QPNoConvergence(f"active-set QP exceeded {cap} iterations")
