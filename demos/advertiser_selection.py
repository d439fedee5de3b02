"""Walkthrough: choosing which advertiser to collaborate with.

On a six-location ring with a chord, the chord has the smallest effective
resistance, so with homogeneous demand and willingness to pay it is the
best arc to sell ads on.  A star network then shows why hub locations win
the location-based comparison: each location's Delta, and the paper's
closed-form score 4 (Delta(a) - Delta(0)) it gives under symmetric
demand.  A reduced search reproduces the exhaustive payoff argmax with
fewer full solves.

Run:  python demos/advertiser_selection.py
"""

import numpy as np

from resistive_pricing import (
    AdvertiserCatalog,
    arc_candidate,
    build_electrical,
    delta,
    reduced_search,
    select_arc_advertiser,
    select_location_advertiser,
    solve_general,
    validate_network,
)


def bidirectional(edges, n, theta=1.0):
    demand = np.zeros((n, n))
    for i, j in edges:
        demand[i, j] = demand[j, i] = theta
    return validate_network(demand, np.ones((n, n)), 0.6)


ring = bidirectional([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                      (1, 4)], 6)
eff = build_electrical(ring).effective_resistance
print("ring + chord effective resistances on edges:")
for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]:
    print(f"  R[{i},{j}] = {eff[i, j]:.6f}")

catalog = AdvertiserCatalog(arc_based={arc: 0.4 for arc in ring.arcs},
                            location_based={}, budget=1)
result = select_arc_advertiser(ring, catalog)
print("\nchosen arc advertiser:", result.chosen,
      f"(payoff {result.payoff:.6f})")
print("the chord wins: smallest effective resistance at equal demand")

star = bidirectional([(0, k) for k in range(1, 6)], 6)
catalog = AdvertiserCatalog(
    arc_based={},
    location_based={k: {i: 0.4 for i, j in star.arcs if j == k}
                    for k in range(6)},
    budget=1)
result = select_location_advertiser(star, catalog)
print("\nstar network: chosen location advertiser:", result.chosen,
      "(the hub)")
# demand is symmetric, so 4 (Delta(a) - Delta(0)) is the closed-form score
base = delta(star, None)
for loc, score in result.scores:
    print(f"  location {loc}: Delta {score:.6f}, "
          f"closed form {4.0 * (score - base):.6f}")

print("\nreduced search over arc candidates on a random network:")
rng = np.random.default_rng(5)
demand = np.where(np.eye(5) == 0, rng.uniform(0.3, 2.0, (5, 5)), 0.0)
net = validate_network(demand, np.ones((5, 5)), 0.6)
candidates = [arc_candidate(net, arc, float(rng.uniform(0.2, 1.5)))
              for arc in net.arcs]
picked = reduced_search(net, candidates)
exhaustive = max(range(len(candidates)),
                 key=lambda k: solve_general(net, candidates[k]).payoff)
print(f"  winner {picked.chosen} payoff {picked.payoff:.6f}; "
      f"exhaustive argmax {exhaustive}")
print(f"  upper bound check: max Delta = "
      f"{max(delta(net, c) for c in candidates):.6f} >= winner payoff")
