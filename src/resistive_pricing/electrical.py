"""Electrical analogue of a traffic network.

The undirected projection of the network maps to a resistor network: each
edge (i, j) becomes a resistor of value r_ij = 1 / (theta_ij/xi_ij +
theta_ji/xi_ji).  Effective resistances between locations come from the
Moore-Penrose pseudoinverse of the graph Laplacian:

    R_ij = l+_ii + l+_jj - 2 l+_ij

The pseudoinverse is computed per connected component by solving the
bordered system (L + J/m) X = I and subtracting J/m, which is exact for a
connected component and avoids an eigendecomposition.

Pricing needs only the node potentials lambda = L+ v of a value vector v
that sums to zero on every component, and :func:`potentials` gets them
from one bordered solve without forming L+ at all.
"""

from dataclasses import dataclass, field

import numpy as np

from .network import (
    FrozenArrays,
    TrafficNetwork,
    ad_matrix,
    connected_components,
    projection_weights,
)


class DifferentComponents(ValueError):
    """Raised when an effective resistance is requested across components."""


@dataclass(frozen=True)
class ElectricalModel(FrozenArrays):
    """Electrical network of one connected component of the projection.

    Attributes:
        nodes: sorted global location ids covered by this component.
        laplacian: (m, m) component Laplacian.
        pseudoinverse: (m, m) Moore-Penrose pseudoinverse of it.
        resistances: (m, m) direct resistor values; +inf where the two
            nodes share no edge.
        effective_resistance: (m, m) effective resistances, local indices.
    """

    nodes: np.ndarray
    laplacian: np.ndarray
    pseudoinverse: np.ndarray
    resistances: np.ndarray
    effective_resistance: np.ndarray
    local_index: dict = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("nodes", "laplacian", "pseudoinverse",
                     "resistances", "effective_resistance"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(
            self, "local_index",
            {int(g): l for l, g in enumerate(self.nodes)})

    @property
    def size(self) -> int:
        return len(self.nodes)


def _component_model(weights: np.ndarray, nodes: np.ndarray) -> ElectricalModel:
    m = len(nodes)
    if m == 1:
        zero = np.zeros((1, 1))
        return ElectricalModel(nodes, zero, zero,
                               np.full((1, 1), np.inf), zero)
    w = weights[np.ix_(nodes, nodes)]
    lap = np.diag(w.sum(axis=1)) - w
    ones = np.full((m, m), 1.0 / m)
    pinv = np.linalg.solve(lap + ones, np.eye(m)) - ones
    pinv = 0.5 * (pinv + pinv.T)
    diag = np.diag(pinv)
    eff = diag[:, None] + diag[None, :] - 2.0 * pinv
    eff = 0.5 * (eff + eff.T)
    np.fill_diagonal(eff, 0.0)
    with np.errstate(divide="ignore"):
        res = np.where(w > 0, 1.0 / np.where(w > 0, w, 1.0), np.inf)
    return ElectricalModel(nodes, lap, pinv, res, eff)


def build_electrical(net: TrafficNetwork,
                     mask: np.ndarray | None = None) -> list[ElectricalModel]:
    """Build the electrical network, one model per connected component.

    ``mask`` is an optional (N, N) boolean matrix over arcs; False entries
    zero out the corresponding demand before projection (the masked arcs
    are exactly those priced at the cap in the general pricing solver).
    Without a mask the validated network yields a single component.
    Isolated vertices of the masked projection yield one-node models with
    an empty resistor set.
    """
    weights = projection_weights(net.demand, net.travel_time, mask)
    return [_component_model(weights, comp)
            for comp in connected_components(weights)]


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


def component_of(models: list[ElectricalModel], n_locations: int) -> np.ndarray:
    """Map each global location id to its component index in ``models``."""
    comp = np.full(n_locations, -1, dtype=int)
    for ci, model in enumerate(models):
        comp[model.nodes] = ci
    return comp


def effective_resistance(models, i: int, j: int) -> float:
    """Effective resistance between locations i and j.

    ``models`` is a list from :func:`build_electrical` (a single model is
    also accepted).  Raises DifferentComponents when i and j are not
    connected under the mask the models were built with.
    """
    if isinstance(models, ElectricalModel):
        models = [models]
    if i == j:
        return 0.0
    for model in models:
        li = model.local_index.get(int(i))
        if li is None:
            continue
        lj = model.local_index.get(int(j))
        if lj is None:
            raise DifferentComponents(
                f"locations {i} and {j} lie in different components")
        return float(model.effective_resistance[li, lj])
    raise ValueError(f"location {i} not covered by any model")


def value_vector(net: TrafficNetwork, a=None,
                 mask: np.ndarray | None = None) -> np.ndarray:
    """Per-location value of having available vehicles.

    v_i = sum over arcs leaving i of theta_im (1 + a_im - c)
        - sum over arcs entering i of theta_mi (1 + a_mi - c),
    with masked arcs contributing nothing.  Entries sum to zero, both
    globally and within every component of the masked projection.
    """
    a_mat = ad_matrix(net, a)
    demand = net.demand
    if mask is not None:
        demand = np.where(mask, demand, 0.0)
    gain = demand * (1.0 + a_mat - net.unit_cost)
    return gain.sum(axis=1) - gain.sum(axis=0)
