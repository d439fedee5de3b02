"""Spatial pricing and advertiser selection via electrical effective resistances.

A vehicle service provider prices origin-destination arcs under per-arc ad
revenues subject to vehicle flow balance.  The traffic network maps to a
resistor network whose effective resistances give closed-form optimal
prices, price sensitivities, and advertiser-collaboration scores; an
extended model adds general demand curves, empty-vehicle routing, and a
fleet capacity bound.
"""

# the one version string: fileio records it in manifests, and
# pyproject.toml reads it for the package metadata
__version__ = "0.1.0"

from .electrical import ElectricalModel, build_electrical, value_vector
from .extended import (
    DemandModel,
    ExtendedParams,
    ExtendedSolution,
    Infeasible,
    InfeasiblePoint,
    payoff_extended,
    solve_extended,
)
from .ingest import (
    ClusteringResult,
    EmptyAfterAggregation,
    Rides,
    TooFewPoints,
    aggregate_network,
    cluster_endpoints,
    synth_instance,
)
from .network import (
    AdRevenueVector,
    CostOutOfRange,
    Disconnected,
    NegativeDemand,
    NetworkValidationError,
    NonPositiveTravelTimeOnArc,
    SelfLoopDemand,
    TrafficNetwork,
    find_cut_vertices,
    validate_network,
)
from .pricing import (
    NoConvergence,
    NotApplicable,
    PayoffBreakdown,
    PricingSolution,
    RegimeBoundary,
    check_mu_zero_sufficient,
    payoff_and_surplus,
    price_sensitivity,
    solve_closed_form,
    solve_general,
)
from .selection import (
    AdvertiserCatalog,
    SelectionResult,
    StrategyComparison,
    arc_candidate,
    delta,
    location_candidate,
    reduced_search,
    select_arc_advertiser,
    select_location_advertiser,
    strategy_compare,
)

__all__ = [name for name in dir() if not name.startswith("_")]
