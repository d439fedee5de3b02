"""Walkthrough: from a small traffic network to optimal prices.

Builds a three-location network with two routes between locations 1 and 2,
maps it to its electrical analogue, and prices it in closed form.  Then an
oversized ad revenue pushes one arc against the price cap and the general
active-set solve takes over.

Run:  python demos/pricing_walkthrough.py
"""

import numpy as np

from resistive_pricing import (
    NotApplicable,
    build_electrical,
    solve_closed_form,
    solve_general,
    validate_network,
    value_vector,
)

demand = np.array([
    [0.0, 2.0, 1.0],
    [1.0, 0.0, 0.0],
    [0.0, 0.5, 0.0],
])
travel = np.array([
    [1.0, 2.0, 1.0],
    [1.0, 1.0, 1.0],
    [1.0, 4.0, 1.0],
])
net = validate_network(demand, travel, unit_cost=0.6)
print("arcs:", net.arcs)

weights = net.projection
print("\nundirected projection weights (theta/xi summed over directions):")
print(np.round(weights, 4))

model = build_electrical(net)
print("\nresistor values (1/weight):")
print(np.round(model.resistances, 4))
print("\neffective resistances:")
print(np.round(model.effective_resistance, 4))

v = value_vector(net)
print("\nlocation values v (sum {:.1e}):".format(v.sum()), np.round(v, 4))

sol = solve_closed_form(net)
print("\nclosed-form prices:")
for i, j in net.arcs:
    print(f"  p[{i}->{j}] = {sol.prices[i, j]:+.6f}   flow {sol.flows[i, j]:.4f}")
print(f"payoff {sol.payoff:.6f}  consumer surplus {sol.consumer_surplus:.6f}"
      f"  ratio {sol.payoff / sol.consumer_surplus:.6f}")

print("\nnow give arc (0, 1) a huge ad revenue...")
ads = np.zeros((3, 3))
ads[0, 1] = 2.5
try:
    solve_closed_form(net, ads)
except NotApplicable as exc:
    print("closed form steps aside:", exc)
capped = solve_general(net, ads)
print("active set:", sorted(capped.active_set))
for i, j in net.arcs:
    marker = "  <- capped" if (i, j) in capped.active_set else ""
    print(f"  p[{i}->{j}] = {capped.prices[i, j]:+.6f}{marker}")
print(f"payoff {capped.payoff:.6f}  ratio "
      f"{capped.payoff / capped.consumer_surplus:.6f} (still 2)")
