"""The single-EN market has a closed form; check it against the MILP.

With one EN, a service's best response is a continuous knapsack: offload
the APs whose per-unit delay saving beats the price premium, in saving
order, until capacity or budget runs out. The platform then enumerates
every grid price and every set of services to place, and keeps the most
profitable set that fits the EN. Two regimes appear: pricing at or below
the cloud price captures all eligible workload (case 1); pricing above
it keeps only the delay-sensitive APs (case 2).

The greedy response is exact only where no delay cap or budget can bind
against it. Outside that scope the closed form refuses with ValueError
rather than answer: the demo shows this on a copy of its instance whose
delay caps fall below the cloud delay.
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

tight = dataclasses.replace(
    inst, delay_cap=np.full(inst.num_services, 0.9 * inst.delay_cloud.min()))
try:
    solve_single_en(tight)
except ValueError as exc:
    print(f"\ndelay caps below the cloud delay: refused ({exc})")
else:
    raise AssertionError("the closed form answered outside its scope")
