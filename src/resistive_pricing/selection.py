"""Advertiser collaboration scoring and selection.

The payoff functional Delta(a) equals the optimal payoff whenever no price
cap binds and upper-bounds it otherwise, which makes it both a fast exact
score in the benign regime and the sorting key of the reduced search for
the general regime.  Each selector scores its whole candidate set by
Delta in the paper's resistance form, from the one electrical model of
the network (:func:`electrical.build_electrical`).  Under symmetric demand
4 (Delta(a) - Delta(0)) is the paper's closed-form score of an arc-based
or location-based advertiser.  With a budget above one collaboration,
callers rank their own candidate ad vectors with :func:`reduced_search`.

Without any limit on simultaneous collaborations, no optimization is
needed: each arc simply takes its highest bidder.  Two advertisers, one
bidding 0.2 on arcs (0, 1) and (1, 2) and one bidding 0.1 on (1, 2) and
(2, 0), resolve per arc to

>>> bids = [{(0, 1): 0.2, (1, 2): 0.2}, {(1, 2): 0.1, (2, 0): 0.1}]
>>> arcs = [(0, 1), (0, 2), (1, 2), (2, 0)]
>>> [max(b.get(arc, 0.0) for b in bids) for arc in arcs]
[0.2, 0.0, 0.2, 0.1]

The selectors below handle the interesting case of a limited number of
collaborations, where choices couple through the flow balance.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .electrical import build_electrical
from .extended import _evaluate, _solve_rows
from .network import AdRevenueVector, TrafficNetwork, arc_ads
from .pricing import solve_general

# the most entries, rows x (arcs + pairs + 1), one extended batch stacks
BATCH_BUDGET = 1 << 16


@dataclass(frozen=True)
class AdvertiserCatalog:
    """Available advertisers and their willingness to pay.

    arc_based maps a target arc to its advertiser's willingness b;
    location_based maps a target location k to {origin i: d_ik} over the
    incoming arcs of k.  ``budget`` is the number of simultaneous
    collaborations; the selectors score one collaboration per candidate
    and support budget == 1.  Willingness to pay is finite and >= 0.
    """

    arc_based: Mapping[tuple[int, int], float]
    location_based: Mapping[int, Mapping[int, float]]
    budget: int = 1

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        for (i, j), b in self.arc_based.items():
            _check_willingness(b, f"on arc ({i}, {j})")
        for k, incoming in self.location_based.items():
            for i, d in incoming.items():
                _check_willingness(d, f"for ({i}, {k})")

    def validate_for(self, net: TrafficNetwork):
        for (i, j) in self.arc_based:
            if not net.has_arc(i, j):
                raise ValueError(f"arc-based target ({i}, {j}) is not an arc")
        for k, incoming in self.location_based.items():
            for i in incoming:
                if not net.has_arc(i, k):
                    raise ValueError(
                        f"location-based entry ({i}, {k}) is not an incoming arc")


def _check_willingness(value, where: str):
    if not np.isfinite(value):
        raise ValueError(f"non-finite willingness to pay {where}: {value}")
    if value < 0:
        raise ValueError(f"negative willingness to pay {where}")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a collaboration selection.

    ``chosen`` is an arc tuple, a location index, or a candidate index
    depending on the selector.  ``scores`` is the per-candidate table the
    decision was made from.
    """

    chosen: object
    ad_revenue: AdRevenueVector
    payoff: float
    scores: tuple


def arc_candidate(net: TrafficNetwork, arc: tuple[int, int],
                  b: float) -> AdRevenueVector:
    """Ad vector induced by collaborating with the advertiser of one arc."""
    return AdRevenueVector.from_arcs(net, {arc: b})


def location_candidate(net: TrafficNetwork, location: int,
                       incoming: Mapping[int, float]) -> AdRevenueVector:
    """Ad vector induced by one location-based advertiser.

    Revenue d_ik applies on every incoming arc (i, k) of the target
    location, zero elsewhere.
    """
    return AdRevenueVector.from_arcs(
        net, {(i, location): d for i, d in incoming.items()})


def delta(net: TrafficNetwork, a) -> float:
    """Payoff functional: exact optimal payoff when no cap binds.

    Delta(a) = sum theta xi ((1+a-c)/2)^2 - lambda' v / 4, summed over
    the arcs, for the value vector v and its node potentials lambda = L+ v
    on the unmasked electrical network; lambda' v is the paper's
    sum (1/2) theta (1+a-c) sum_k (R_jk - R_ik) v_k.  It is evaluated
    about the network without ads, see :func:`_deltas`.  Always an upper
    bound on the optimal payoff, with equality when every cap multiplier
    is 0.  ``a`` is an AdRevenueVector, an (N, N) or (M,) array, or None.
    """
    return float(_deltas(net, arc_ads(net, a)[None])[0])


def _deltas(net: TrafficNetwork, ad_rows) -> np.ndarray:
    """Delta of each candidate, given as the (K, arcs) per-arc ad revenues
    of the K candidates, in the paper's resistance form about the network
    without ads.  Ads a change the value vector only by u_a, the net
    outflow of theta a, so with lambda_0 and Delta(0) of the electrical
    model

        Delta(a) = Delta(0) + sum theta xi a (2 (1-c) + a) / 4
                   - u_a' lambda_0 / 2 - u_a' L+ u_a / 4.
    """
    model = build_electrical(net)
    own = (ad_rows * (2.0 * (1.0 - net.unit_cost) + ad_rows)) \
        @ (net.arc_demand * net.arc_time)
    u = net.net_outflow(net.arc_demand * ad_rows)
    return (model.zero_delta + own / 4.0 - u @ model.zero_potentials / 2.0
            - np.sum((u @ model.pseudoinverse) * u, axis=1) / 4.0)


def _candidates(net, catalog, mode):
    """Labels of the catalog's ``mode``-based advertisers in sorted order,
    and the (K, arcs) per-arc ad revenues each induces, the ad vector of
    :func:`arc_candidate` or :func:`location_candidate` in arc order.
    Each candidate is one collaboration, so a catalog whose budget is not
    1 is rejected."""
    if catalog.budget != 1:
        raise ValueError("single-advertiser selection supports budget == 1; "
                         "rank caller-built candidates with reduced_search() "
                         "instead")
    if mode == "arc":
        bids = catalog.arc_based
        entries = [{label: bids[label]} for label in sorted(bids)]
    elif mode == "location":
        bids = catalog.location_based
        entries = [{(i, k): d for i, d in bids[k].items()}
                   for k in sorted(bids)]
    else:
        raise ValueError("mode must be 'arc' or 'location'")
    if not bids:
        raise ValueError(f"catalog has no {mode}-based advertisers")
    index = {arc: k for k, arc in enumerate(net.arcs)}
    rows = np.zeros((len(entries), len(net.arcs)))
    for row, entry in zip(rows, entries):
        row[[index[arc] for arc in entry]] = list(entry.values())
    return sorted(bids), rows


def _select_single(net, catalog, mode):
    """Budget-one selection shared by the arc and location selectors:
    the first Delta maximum in sorted label order wins."""
    catalog.validate_for(net)
    labels, rows = _candidates(net, catalog, mode)
    scores = _deltas(net, rows)
    best = int(np.argmax(scores))
    return SelectionResult(
        chosen=labels[best],
        ad_revenue=AdRevenueVector(net, net.arc_matrix(rows[best])),
        payoff=solve_general(net, rows[best]).payoff,
        scores=tuple(zip(labels, scores.tolist())),
    )


def select_arc_advertiser(net: TrafficNetwork,
                          catalog: AdvertiserCatalog) -> SelectionResult:
    """Pick the single arc-based advertiser maximizing provider payoff.

    Each candidate is scored by Delta of its induced ad vector; under
    symmetric demand 4 (Delta(a) - Delta(0)) is the paper's closed form
    theta xi (b^2 + 2(1-c) b) - theta^2 b^2 R_ij.  Ties break to the
    lexicographically smallest arc.
    """
    return _select_single(net, catalog, "arc")


def select_location_advertiser(net: TrafficNetwork,
                               catalog: AdvertiserCatalog) -> SelectionResult:
    """Pick the single location-based advertiser maximizing payoff.

    Each candidate is scored by Delta of its induced ad vector; under
    symmetric demand 4 (Delta(a) - Delta(0)) is the paper's closed form
    over the incoming arcs of k, sum_s theta_sk xi_sk (d^2 + 2(1-c) d)
    + sum_s sum_t 0.5 theta_sk theta_tk d_sk d_tk (R_st - R_sk - R_tk).
    Ties break to the smallest location index.
    """
    return _select_single(net, catalog, "location")


def reduced_search(net: TrafficNetwork, candidates: Sequence) -> SelectionResult:
    """Exact selection over candidate ad vectors with few general solves.

    Candidates are sorted by Delta descending and scanned; the scan stops
    at the first candidate whose solve has an empty active set (position
    h), and only the first h are compared by true payoff.  Because Delta
    bounds the payoff from above and matches it at that h-th candidate, the
    winner equals the exhaustive payoff argmax.  ``chosen`` is the index
    into ``candidates``; payoff ties break to the smallest index.  Each
    candidate is an AdRevenueVector, an (N, N) or (M,) array, or None.
    """
    if not candidates:
        raise ValueError("no candidates supplied")
    rows = np.array([arc_ads(net, cand) for cand in candidates])
    deltas = _deltas(net, rows).tolist()
    order = sorted(range(len(candidates)), key=lambda k: (-deltas[k], k))
    solutions = {}
    h = len(order)
    for pos, idx in enumerate(order):
        solutions[idx] = solve_general(net, rows[idx])
        if not solutions[idx].active_set:
            h = pos + 1
            break
    best = max(order[:h], key=lambda idx: (solutions[idx].payoff, -idx))
    return SelectionResult(
        chosen=best,
        ad_revenue=AdRevenueVector(net, net.arc_matrix(rows[best])),
        payoff=solutions[best].payoff,
        scores=tuple(enumerate(deltas)),
    )


@dataclass(frozen=True)
class StrategyOutcome:
    strategy: str
    chosen: object
    payoff: float
    gap_to_optimal: float


@dataclass(frozen=True)
class StrategyComparison:
    """Per-strategy payoffs plus the per-candidate evaluation table."""

    outcomes: tuple
    candidates: tuple
    deltas: tuple
    payoffs: tuple

    def outcome(self, strategy: str) -> StrategyOutcome:
        for row in self.outcomes:
            if row.strategy == strategy:
                return row
        raise KeyError(strategy)


def strategy_compare(net: TrafficNetwork, catalog: AdvertiserCatalog,
                     mode: str = "location", params=None,
                     seed: int | None = None,
                     trials: int = 100) -> StrategyComparison:
    """Compare resistance-based, optimal, and randomized selection.

    Resistance-based picks the Delta argmax; optimal exhaustively
    maximizes the model payoff (basic pricing when ``params`` is None,
    else the extended solver with those parameters); randomized averages
    the payoff of ``trials`` (at least 1) uniform candidate draws.  All
    randomness derives from ``seed``.

    With ``params`` the candidates are priced as one batch: one
    interior-point loop over the stack of their extended problems, which
    share the network, with its empty-routing pairs, and ``params`` and
    differ only in the ad vector.  Each payoff equals that candidate's
    own ``solve_extended`` bit for bit, and a failing batch raises the
    error of its first failing candidate, as a loop of single solves in
    candidate order would.  This is the one-point call of the comparison
    that the ``sweep-psi`` and ``sweep-eta`` commands run over a whole
    grid: there the scores are computed once, and the rows of every point
    and candidate are cut in order into batches of ``BATCH_BUDGET``
    entries, a row being arcs + pairs + 1 wide (at least one row each).
    """
    return _compare_grid(net, catalog, mode, [params], [seed], trials)[0]


def _compare_grid(net, catalog, mode, params_per_point, seeds, trials):
    """:func:`strategy_compare` at each grid point, with that point's
    parameters (all None, or all ``ExtendedParams`` of one demand curve)
    and seed, as one list.  The candidates and their Delta scores are
    computed once; the per-arc ad rows of every point, then candidate, are
    solved in batches of the row budget, so the error raised is the one a
    loop of single solves in that order raises first.  Each payoff comes
    from the solved prices and empty flows, with no solution record."""
    catalog.validate_for(net)
    labels, rows = _candidates(net, catalog, mode)
    if any(seed is None for seed in seeds):
        raise ValueError("a seed is required (randomized strategy)")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")

    k = len(rows)
    if params_per_point[0] is None:
        table = [[solve_general(net, row).payoff for row in rows]] \
            * len(params_per_point)
    else:
        flat = range(len(params_per_point) * k)  # point, then candidate
        size = max(1, BATCH_BUDGET
                   // (len(net.arcs) + len(net.pair_array) + 1))
        payoffs = []
        for batch in (flat[first:first + size]
                      for first in range(0, len(flat), size)):
            params = [params_per_point[i // k] for i in batch]
            ads = rows[[i % k for i in batch]]
            payoffs += [_evaluate(net, a, p, *out[:2])[2] for a, p, out
                        in zip(ads, params, _solve_rows(net, ads, params))]
        table = [payoffs[q:q + k] for q in range(0, len(payoffs), k)]

    deltas = _deltas(net, rows)
    # argmax takes the first maximum: ties go to the smallest label
    res_idx = int(np.argmax(deltas))
    return [_comparison(labels, deltas, payoffs, res_idx, seed, trials)
            for payoffs, seed in zip(table, seeds)]


def _comparison(labels, deltas, payoffs, res_idx, seed, trials):
    """One grid point's comparison from its candidates' payoffs and the
    seed of its random strategy."""
    root = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    # the random strategy draws from the last of len(labels) + 1 children,
    # as it always has, so that its draws keep their bits
    rng = np.random.default_rng(root.spawn(len(labels) + 1)[-1])
    draws = rng.integers(0, len(labels), size=trials)
    opt_idx = int(np.argmax(payoffs))
    random_payoff = float(np.mean([payoffs[d] for d in draws]))
    opt = payoffs[opt_idx]

    def gap(value):
        return float((opt - value) / abs(opt)) if opt != 0 else 0.0

    outcomes = (
        StrategyOutcome("resistance", labels[res_idx],
                        float(payoffs[res_idx]), gap(payoffs[res_idx])),
        StrategyOutcome("optimal", labels[opt_idx], float(opt), 0.0),
        StrategyOutcome("random", None, random_payoff, gap(random_payoff)),
    )
    return StrategyComparison(
        outcomes=outcomes,
        candidates=tuple(labels),
        deltas=tuple(deltas.tolist()),
        payoffs=tuple(float(p) for p in payoffs),
    )
