"""Electrical analogue of a traffic network.

The undirected projection of the network maps to a resistor network: each
edge (i, j) becomes a resistor of value r_ij = 1 / (theta_ij/xi_ij +
theta_ji/xi_ji).  Effective resistances between locations come from the
Moore-Penrose pseudoinverse of the graph Laplacian:

    R_ij = l+_ii + l+_jj - 2 l+_ij

A validated network is connected, so the pseudoinverse comes from the
bordered system (L + J/N) X = I of :func:`potentials` by subtracting J/N,
which is exact for a connected graph and avoids an eigendecomposition.

Pricing needs only the node potentials lambda = L+ v of a value vector v
that sums to zero on every component, possibly of a masked projection, and
:func:`potentials` gets them from one bordered solve without forming L+ at
all.
"""

from dataclasses import dataclass

import numpy as np

from .network import FrozenArrays, TrafficNetwork, arc_ads


@dataclass(frozen=True)
class ElectricalModel(FrozenArrays):
    """Electrical network of the (connected) undirected projection.

    Attributes:
        laplacian: (N, N) graph Laplacian.
        pseudoinverse: (N, N) Moore-Penrose pseudoinverse of it.
        resistances: (N, N) direct resistor values; +inf where the two
            locations share no edge.
        effective_resistance: (N, N) effective resistances.
    """

    laplacian: np.ndarray
    pseudoinverse: np.ndarray
    resistances: np.ndarray
    effective_resistance: np.ndarray


def build_electrical(net: TrafficNetwork) -> ElectricalModel:
    """Build the electrical network of a validated (connected) network."""
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
    return ElectricalModel(lap, pinv, res, eff)


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
