"""Export the MILP to MPS for an external solver, and import a solution.

The solver core is self-contained (an embedded branch-and-bound plus a
scipy/HiGHS backend), but any MILP here can be written as a fixed-format
MPS file, solved elsewhere (Gurobi, CPLEX, standalone HiGHS, ...), and
the external variable assignment imported back and re-verified against
the model.
"""

import tempfile
from pathlib import Path

from edgemarket import (MilpConfig, ScenarioConfig, build_p2, export_mps,
                        import_solution, sample_instance, solve_milp)
from edgemarket.lp_core import mps_names

inst = sample_instance(ScenarioConfig(
    seed=3, num_aps=3, num_ens=2, num_services=2,
    price_levels=(0.01, 0.03, 0.05)))
model, _ = build_p2(inst)

mps = export_mps(model)
path = Path(tempfile.mkdtemp()) / "p2.mps"
path.write_text(mps)
print(f"wrote {path} ({model.num_vars} vars, {model.num_binaries} binary, "
      f"{model.num_constrs} rows, {len(mps)} bytes)")
print("header:")
for line in mps.splitlines()[:6]:
    print(f"  {line}")

# stand in for the external solver with the embedded one, then round trip
sol = solve_milp(model, MilpConfig(backend="highs"))
var_names, _ = mps_names(model)
sol_text = "\n".join(f"{var_names[vid]} {val!r}"
                     for vid, val in enumerate(sol.x.tolist()))
imported = import_solution(model, sol_text)
print(f"\nembedded objective  {sol.objective:.9f}")
print(f"imported objective  {imported.objective:.9f}  "
      f"(status {imported.status})")
assert abs(imported.objective - sol.objective) <= 1e-6 * (1 + abs(sol.objective))
print("import re-verified the external solution against the model")
