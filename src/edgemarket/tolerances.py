"""Numerical tolerances shared across the package.

All monetary and workload quantities are 64-bit floats. This record
holds the tolerances of the cross-checks on integrality, duality, profit
and agreement between methods. It is not every tolerance in the
library: ``lp_core._RESIDUAL_TOL``, ``analytic._TOL`` and the ``1e-6``
literals in ``lp_core.import_solution`` and
``_milp_base.extract_solution`` live beside the code that reads them.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    binary_integrality: float = 1e-6   # max |v - round(v)| accepted on binaries
    strong_duality_rel: float = 1e-6   # primal/dual objective agreement (reports)
    profit_recompute_rel: float = 1e-5 # MILP objective vs first-principles profit
    objective_match_rel: float = 1e-6  # cross-method objective agreement


TOL = Tolerances()
