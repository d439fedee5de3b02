"""Electrical analogue of a traffic network.

The undirected projection of the network maps to a resistor network: each
edge (i, j) becomes a resistor of value r_ij = 1 / (theta_ij/xi_ij +
theta_ji/xi_ji).  Effective resistances between locations come from the
Moore-Penrose pseudoinverse of the graph Laplacian:

    R_ij = l+_ii + l+_jj - 2 l+_ij

A validated network is connected, so the pseudoinverse comes from the
bordered system (L + J/N) X = I of :func:`potentials` by subtracting J/N,
which is exact for a connected graph and avoids an eigendecomposition.
:func:`build_electrical` forms L+ once per network and keeps it, with the
potentials of the network without ads, for every later price and score.

Pricing needs only the node potentials lambda = L+ v of a value vector v
that sums to zero on every component.  On the connected network they are
L+ v; on a masked projection with capped arcs removed, :func:`potentials`
gets them from one bordered solve of that projection.
"""

from dataclasses import dataclass

import numpy as np

from .network import FrozenArrays, TrafficNetwork, arc_ads, keep


@dataclass(frozen=True)
class ElectricalModel(FrozenArrays):
    """Electrical network of the (connected) undirected projection.

    Attributes:
        laplacian: (N, N) graph Laplacian.
        pseudoinverse: (N, N) Moore-Penrose pseudoinverse of it.
        resistances: (N, N) direct resistor values; +inf where the two
            locations share no edge.
        effective_resistance: (N, N) effective resistances.
        zero_potentials: (N,) potentials lambda_0 = L+ v_0 of the value
            vector v_0 of the network without ads.
        zero_delta: the payoff functional without ads, Delta(0) =
            sum theta xi ((1 - c)/2)^2 - lambda_0' v_0 / 4 over the arcs.
    """

    laplacian: np.ndarray
    pseudoinverse: np.ndarray
    resistances: np.ndarray
    effective_resistance: np.ndarray
    zero_potentials: np.ndarray
    zero_delta: float


def build_electrical(net: TrafficNetwork) -> ElectricalModel:
    """The electrical network of a validated (connected) network.

    The model is built on the first call and kept, read-only, on the
    immutable network for its lifetime: every later call returns the same
    object.  It holds 4 N^2 floats (7.4 MB at N = 480).
    """
    return keep(net, "_electrical", _build)


def _build(net):
    """Compute :func:`build_electrical`'s model of ``net``."""
    w = net.projection
    n = net.n_locations
    lap = np.diag(w.sum(axis=1)) - w
    ones = np.full((n, n), 1.0 / n)
    pinv = potentials(w, np.eye(n), ones) - ones
    pinv = 0.5 * (pinv + pinv.T)
    diag = np.diag(pinv)
    # symmetric bit for bit: pinv is, and d_i + d_j commutes
    eff = diag[:, None] + diag[None, :] - 2.0 * pinv
    np.fill_diagonal(eff, 0.0)
    with np.errstate(divide="ignore"):
        res = np.where(w > 0, 1.0 / np.where(w > 0, w, 1.0), np.inf)
    v0 = value_vector(net)
    lam0 = pinv @ v0
    delta0 = np.sum(net.arc_demand * net.arc_time
                    * ((1.0 - net.unit_cost) / 2.0) ** 2) - lam0 @ v0 / 4.0
    return ElectricalModel(lap, pinv, res, eff, lam0, float(delta0))


def component_border(labels: np.ndarray) -> np.ndarray:
    """Border P = sum_c 1_c 1_c^T / m_c from per-node component labels.

    Entry (i, j) is 1/m when i and j share a component of m nodes, else 0.
    """
    labels = np.asarray(labels)
    sizes = np.bincount(labels)
    return np.equal.outer(labels, labels) / sizes[labels]


def potentials(weights: np.ndarray, v: np.ndarray,
               border: np.ndarray) -> np.ndarray:
    """Node potentials lambda = L+ v by one bordered solve (L + P) lambda = v.

    ``weights`` is a symmetric (N, N) projection, ``border`` the matrix
    :func:`component_border` builds from its components.  (L + P) is
    nonsingular and maps 1_c to 1_c, so when v sums to zero on every
    component the solve returns L+ v exactly; an isolated node gets
    lambda_i = v_i = 0.  Within a component, (R v)_i = const - 2 lambda_i.
    """
    system = border - weights
    system.flat[::len(system) + 1] += weights.sum(axis=1)
    return np.linalg.solve(system, v)


def value_vector(net: TrafficNetwork, a=None) -> np.ndarray:
    """Per-location value of having available vehicles, the net outflow
    v_i = sum over arcs leaving i of theta_im (1 + a_im - c)
        - sum over arcs entering i of theta_mi (1 + a_mi - c).
    Entries sum to zero; symmetric demand and ad revenues give exactly 0.
    ``a`` is an AdRevenueVector, an (N, N) or (M,) array, or None.
    """
    gain = 1.0 + arc_ads(net, a) - net.unit_cost
    return net.net_outflow(net.arc_demand * gain)
