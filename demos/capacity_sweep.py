"""Walkthrough: fleet capacity and empty-vehicle routing trade-offs.

On a synthetic morning-commute instance, payoff grows with the fleet cap
until capacity stops binding, and shrinks as empty-vehicle routing gets
more expensive.  With uniform demand every solve is the global optimum to
within its KKT residual.

Run:  python demos/capacity_sweep.py
"""

from resistive_pricing import (
    DemandModel,
    ExtendedParams,
    solve_extended,
    synth_instance,
    validate_network,
)

base, _ = synth_instance(15, 0.3, seed=1, profile="commuter")
net = validate_network(base.demand * 6.0, base.travel_time, base.unit_cost)
total = float((net.arc_demand * net.arc_time).sum())
print(f"commuter instance: {len(net.arcs)} arcs, "
      f"total vehicle-mass demand {total:.1f}")

print("\ncapacity sweep (eta = 0.8):")
print(f"{'psi':>6} {'payoff':>10} {'cap slack':>10} {'empty mass':>10}")
for psi in range(40, 281, 40):
    params = ExtendedParams(eta=0.8, psi=float(psi),
                            demand=DemandModel.uniform())
    sol = solve_extended(net, None, params)
    print(f"{psi:>6} {sol.payoff:>10.4f} "
          f"{sol.feasibility_slacks['capacity']:>10.3f} "
          f"{sol.empty_flows.sum():>10.4f}")

print("\nempty-routing cost sweep (psi = 300):")
print(f"{'eta':>6} {'payoff':>10} {'empty mass':>10}")
for eta10 in range(1, 11):
    params = ExtendedParams(eta=eta10 / 10.0, psi=300.0,
                            demand=DemandModel.uniform())
    sol = solve_extended(net, None, params)
    print(f"{eta10 / 10.0:>6.1f} {sol.payoff:>10.4f} "
          f"{sol.empty_flows.sum():>10.4f}")

print("\nexponential demand (gamma = 2), psi = 120, interior-point solve:")
params = ExtendedParams(eta=0.8, psi=120.0,
                        demand=DemandModel.exponential(2.0))
sol = solve_extended(net, None, params, seed=0)
print(f"payoff {sol.payoff:.4f}  scaled KKT residual "
      f"{sol.kkt_residual:.2e}  local_only={sol.local_only}")
