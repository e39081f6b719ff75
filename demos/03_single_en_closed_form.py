"""The single-EN market has a closed form; check it against the MILP.

With one EN, a service's best response is a continuous knapsack: each
AP's workload sent to the EN lies in a box set by its demand,
eligibility and delay cap, and their sum is bounded by the EN's
capacity and the service's budget. Filling from the APs with the best
delay saving per price premium is optimal, so the follower's optimal
cost is attained on an interval of total EN workload. The platform then
enumerates every grid price and every set of services to place, takes
the most (or least) workload each interval allows, as its per-unit
margin is positive (or not), and keeps the most profitable set that fits
the EN. Two regimes appear: pricing at or below the cloud price (case
1) and above it (case 2).

The closed form stays exact where delay caps and budgets bind: the demo
ends on a copy of its instance in which service 0's delay cap falls
below the cloud delay, so every AP must move workload to the EN and
the service's optimum splits some APs' workload between EN and cloud.
"""

import dataclasses

import numpy as np

from edgemarket import (MilpConfig, ScenarioConfig, sample_instance,
                        solve_p2, solve_single_en)

inst = sample_instance(ScenarioConfig(
    seed=4, num_aps=3, num_ens=1, num_services=2,
    price_levels=(0.01, 0.03, 0.05), delay_cap_range=(70.0, 100.0)))
inst = dataclasses.replace(
    inst, storage_cap=np.full(1, inst.service_size.sum() + 1))

res = solve_single_en(inst)
milp = solve_p2(inst, MilpConfig(backend="highs"))

print("price scan (best placed set at each price):")
for price in sorted(res.per_price):
    outcome = res.per_price[price]
    mark = " <-- chosen" if price == res.price else ""
    if isinstance(outcome, str):
        print(f"  p1={price:.3f}  {outcome}{mark}")
    else:
        print(f"  p1={price:.3f}  profit {outcome:.6f}{mark}")
print(f"\nclosed form: case {res.case}, price {res.price}, "
      f"placed {res.placed.tolist()}, profit {res.profit:.9f}")
print(f"duality MILP:              profit {milp.objective:.9f}")
assert abs(res.profit - milp.objective) <= 1e-6 * (1 + abs(milp.objective))
print("closed form and MILP agree to 1e-6 relative")

cap = inst.delay_cap.copy()
cap[0] = 0.9 * inst.delay_cloud.min()
tight = dataclasses.replace(inst, delay_cap=cap)
res = solve_single_en(tight)
milp = solve_p2(tight, MilpConfig(backend="highs"))
print(f"\nservice 0's delay cap at {cap[0]:.1f} ms, below the cloud delay:")
print(f"  service 0 sends {res.followers[0].x_edge.ravel().round(3).tolist()} "
      f"of {tight.demand[:, 0].round(3).tolist()} to the EN")
print(f"closed form: case {res.case}, price {res.price}, "
      f"placed {res.placed.tolist()}, profit {res.profit:.9f}")
print(f"duality MILP:              profit {milp.objective:.9f}")
assert abs(res.profit - milp.objective) <= 1e-6 * (1 + abs(milp.objective))
print("closed form and MILP agree to 1e-6 relative")
