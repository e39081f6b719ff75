"""KKT-based single-level reformulation (P1).

Each follower LP is replaced by its optimality system: primal
feasibility, stationarity, and complementarity. Complementarity is one
pair per ``<=`` row of the follower and per allocation column, each
linearized by ``_add_pair`` with one binary switch and two big-M rows
(Fortuny-Amat & McCarl 1981). A pair's slack side is read from the
primal row ``follower.add_follower_rows`` wrote, so each primal row is
written once. Where the data prove a side 0 at every follower optimum,
its constant is 0: the slack of a coverage row whose price is positive,
and the multipliers ``_milp_base.zero_multipliers`` proves 0 (budget,
eligibility, and the delay cap where every option of the AP meets it),
whose entries of the ``multiplier_bounds`` table are 0. The pair and
its switch are still written, and HiGHS's presolve removes what the 0
settles. Each pair is recorded on the model itself, in
``LinearModel.pairs``, as (switch, multiplier): ``validate_bigM`` reads
there whether a model is P1, and ``lp_core.solve_milp``'s ``highs``
backend reads the switches there: it solves P1 with only the switches
relaxed, then with that run's leader decision fixed, and searches only
where the two runs' values differ by more than the gap. The bilinear
price-times-budget-multiplier and placement-times-capacity-multiplier
products are expanded over the one-hot price selection.

P1 also carries P2's dual rows and strong-duality equality: the
``revdef`` row of ``build_base`` and the price-times-procurement rows of
``add_revenue_hull``. Every follower-optimal response meets them, so
they cut off no leader decision, and they tighten the LP relaxation to
P2's. Wherever the price and placement binaries are integral, these
rows alone make each follower's response optimal, so the pairs certify
nothing P2's rows do not, and P1 == P2 is no independent check: a
fault in the shared rows would show in both. The oracle and the
benchmark's checker, which write their own rows, are the independent
references.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ._milp_base import (M_LIN, MilpLayout, ReformResult, add_dual_rows,
                         add_revenue_hull, build_base, extract_solution,
                         solve_reformulation, validate_bigM)
from .lp_core import LE, EQ, LinearModel, MilpConfig, MilpSolution
from .model import (DualSolution, FollowerSolution, Instance, LeaderDecision)


def _add_pair(m: LinearModel, family: str, index: str,
              slack: Tuple[Dict[int, float], float], slack_ub: float,
              mult: int, mult_ub: float) -> None:
    """Write ``slack * mult = 0`` with one binary switch ``s``: the rows
    ``rhs - coeffs @ x <= slack_ub * s`` (``{family}s_{index}``) and
    ``mult <= mult_ub * (1 - s)`` (``{family}m_{index}``), where
    ``slack`` is a ``<=`` row's ``(coeffs, rhs)``, and record the pair
    ``(s, mult)`` in ``m.pairs``."""
    coeffs, rhs = slack
    s = m.add_var(f"{family}_{index}", binary=True)
    row = {vid: -c for vid, c in coeffs.items()}
    row[s] = -slack_ub
    m.add_constr(row, LE, -rhs, name=f"{family}s_{index}")
    m.add_constr({mult: 1.0, s: mult_ub}, LE, mult_ub,
                 name=f"{family}m_{index}")
    m.pairs.append((s, mult))


def build_p1(inst: Instance, m_lin: float = M_LIN, scheme: str = "dyn",
             ) -> Tuple[LinearModel, MilpLayout]:
    """Single MILP whose feasible points are exactly the leader decisions
    paired with follower-optimal responses (certified by KKT).

    Each pair's slack side is a primal row of ``build_base``, looked up
    by name, or an allocation column; its slack-side constant is an
    exact data bound, so none can cut off a follower-optimal point: the
    delay-cap slack is at most the delay cap; the EN capacity slacks by
    the EN capacity; the eligibility slack and the allocations by the
    per-AP demand; the budget slack by the budget. The coverage pairs
    (``cc2``, ``cc3``) take 0 where the price is positive: buying
    capacity that no workload uses only adds cost, so the row is tight
    at every follower optimum. That holds for the cloud row always, as
    every ``Instance`` has a positive cloud price, and for an EN's row
    when its lowest grid price is; an EN with a free price level keeps
    the capacity bound. A bound of zero, as with no demand at all, is
    exact too: its slack is zero at every follower optimum. On the
    multiplier side, each pair's constant is its multiplier's entry of
    the ``multiplier_bounds`` table at ``m_lin``, ``ids.bounds``. That is 0
    for the delay-cap (``cc1``), eligibility (``cc5``) and budget
    (``cc6``) pairs wherever ``zero_multipliers`` proves it from the
    data: its masks hold for one optimal dual at once, and any optimal
    dual is complementary to any optimal primal point. Every other entry
    is a heuristic bound. The coverage and delay-cap bounds are meant
    together: the coverage bounds alone made HiGHS's search on desk-size
    P1 larger. The pairs are written either way, so the binary count
    stays ``2K(M+1)(N+1)`` and HiGHS's presolve removes the pairs a
    bound of 0 settles. P2 leaves tau unbounded: its models are
    unchanged by the delay-cap proof. ``scheme`` is the pricing scheme
    whose rows ``build_base`` writes: ``dyn``, ``flat`` or ``avg``.
    """
    M, N, K = inst.num_aps, inst.num_ens, inst.num_services
    m, lay, ids = build_base(inst, m_lin, "p1", scheme)
    bounds = ids.bounds
    delay_max = float(inst.delay_cap.max(initial=0.0))
    ap_demand = float(inst.demand.max(initial=0.0))
    capacity = float(inst.compute_cap.max(initial=0.0))
    # A coverage row is tight at every follower optimum where its price
    # is positive: the cloud's always, an EN's at every grid level when
    # its lowest is.
    edge_cov = np.where(inst.price_grid.min(axis=1) > 0, 0.0,
                        capacity).tolist()
    budget = float(inst.budget.max(initial=0.0))
    rows = {row.name: (row.coeffs, row.rhs) for row in m.constraints}

    for k in range(K):
        # Stationarity: the follower's dual rows as equalities.
        add_dual_rows(m, inst, ids, k, EQ)
        add_revenue_hull(m, inst, lay, ids, k)

        # Complementarity, one pair per <= row of the follower and per
        # allocation column. The budget row's slack reads the revenue
        # variable, which ``revsum`` pins to the true edge spend.
        for i in range(M):
            _add_pair(m, "cc1", f"{i}_{k}", rows[f"dcap_{i}_{k}"],
                      delay_max, ids.tau[k][i], bounds["tau"][i, k])
        _add_pair(m, "cc2", str(k), rows[f"cov0_{k}"],
                  0.0, ids.mu1[k], bounds["mu1"][k])
        for j in range(N):
            _add_pair(m, "cc3", f"{j}_{k}", rows[f"cov_{j}_{k}"],
                      edge_cov[j], ids.lam[k][j], bounds["lam"][j, k])
        for j in range(N):
            _add_pair(m, "cc4", f"{j}_{k}", rows[f"cap_{j}_{k}"],
                      capacity, ids.gamma[k][j], bounds["gamma"][j, k])
        for i in range(M):
            for j in range(N):
                _add_pair(m, "cc5", f"{i}_{j}_{k}",
                          rows[f"elig_{i}_{j}_{k}"], ap_demand,
                          ids.eta[k][i][j], bounds["eta"][i, j, k])
        _add_pair(m, "cc6", str(k), rows[f"budget_{k}"], budget,
                  ids.mu2[k], bounds["mu2"][k])
        for i in range(M):
            _add_pair(m, "cc7", f"{i}_{k}",
                      ({ids.x_cloud[k][i]: -1.0}, 0.0),
                      ap_demand, ids.zeta[k][i], bounds["zeta"][i, k])
        for i in range(M):
            for j in range(N):
                _add_pair(m, "cc8", f"{i}_{j}_{k}",
                          ({ids.x_edge[k][i][j]: -1.0}, 0.0),
                          ap_demand, ids.eps[k][i][j], bounds["eps"][i, j, k])
    return m, lay


def extract_solution_p1(inst: Instance, lay: MilpLayout, sol: MilpSolution,
                        ) -> Tuple[LeaderDecision, List[FollowerSolution],
                                   List[DualSolution]]:
    return extract_solution(inst, lay, sol)


def solve_p1(inst: Instance, config: Optional[MilpConfig] = None,
             scheme: str = "dyn") -> ReformResult:
    """Solve P1 under the pricing ``scheme`` of ``build_base`` through
    solve_reformulation. ``config.time_limit`` bounds the whole call,
    escalations included."""
    return solve_reformulation(
        lambda m_lin: build_p1(inst, m_lin, scheme),
        lambda lay, sol: extract_solution_p1(inst, lay, sol),
        lambda model, lay, sol, m_lin: validate_bigM(inst, model, lay, sol,
                                                     m_lin),
        config)
