"""KKT-based single-level reformulation (P1).

Each follower LP is replaced by its optimality system: primal
feasibility, stationarity, and the eight complementarity families
linearized with binary switches and big-M constants. The bilinear
price-times-budget-multiplier and placement-times-capacity-multiplier
products are expanded over the one-hot price selection.

P1 also carries P2's strong-duality equality: the ``revdef`` row of
``build_base`` and the price-times-procurement rows of
``add_revenue_hull``. Every follower-optimal response meets it, by
strong duality, so it cuts off no leader decision; it tightens the LP
relaxation to P2's, whose root bound is far below the one ``revdef``
alone gives. The price
is that a fault in those shared rows would show in P1 and P2 alike, so
the oracle and the benchmark's checker, which write their own rows,
remain the independent references.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ._milp_base import (M_LIN, MilpLayout, ReformResult, add_dual_rows,
                         add_revenue_hull, build_base, extract_solution,
                         multiplier_bounds, solve_reformulation,
                         validate_bigM)
from .lp_core import LE, EQ, LinearModel, MilpConfig, MilpSolution
from .model import (DualSolution, FollowerSolution, Instance, LeaderDecision)


def build_p1(inst: Instance, m_lin: float = M_LIN, flat: bool = False,
             fix_price_level: Optional[int] = None,
             ) -> Tuple[LinearModel, MilpLayout]:
    """Single MILP whose feasible points are exactly the leader decisions
    paired with follower-optimal responses (certified by KKT).

    Each complementarity family has a slack-side and a multiplier-side
    big-M row. The slack-side constants are exact data bounds, so none
    can cut off a follower-optimal point: the delay-cap slack is at most
    the delay cap; a cloud-coverage slack is zero at any follower optimum
    (the cloud price is positive) and is bounded by the per-service
    demand; the EN coverage and capacity slacks by the EN capacity; the
    eligibility slack and the allocations by the per-AP demand; the
    budget slack by the budget. A bound of zero, as with no demand at
    all, is exact too: its slack is zero at every follower optimum. The
    multiplier-side constants are the heuristic bounds
    ``multiplier_bounds`` gives for ``m_lin``.
    """
    M, N, K = inst.num_aps, inst.num_ens, inst.num_services
    m, lay = build_base(inst, m_lin, "p1", flat=flat,
                        fix_price_level=fix_price_level)
    mu2_max, unit_max, tau_max = multiplier_bounds(inst, m_lin)
    delay_max = float(inst.delay_cap.max(initial=0.0))
    service_demand = float(inst.demand.sum(axis=0).max(initial=0.0))
    ap_demand = float(inst.demand.max(initial=0.0))
    capacity = float(inst.compute_cap.max(initial=0.0))
    budget = float(inst.budget.max(initial=0.0))

    for k in range(K):
        # Stationarity: the follower's dual rows as equalities.
        add_dual_rows(m, inst, lay, k, EQ)
        add_revenue_hull(m, inst, lay, k)

        # Complementarity switches: switch = 1 frees the slack side and
        # zeroes the multiplier side.
        for i in range(M):
            lay.psi[i, k] = m.add_var(f"psi_{i}_{k}", binary=True)
        lay.v1[k] = m.add_var(f"v1_{k}", binary=True)
        for j in range(N):
            lay.kappa[j, k] = m.add_var(f"kappa_{j}_{k}", binary=True)
        for j in range(N):
            lay.theta[j, k] = m.add_var(f"theta_{j}_{k}", binary=True)
        for i in range(M):
            for j in range(N):
                lay.rho[i, j, k] = m.add_var(f"rho_{i}_{j}_{k}", binary=True)
        lay.v2[k] = m.add_var(f"v2_{k}", binary=True)
        for i in range(M):
            lay.phi_sw[i, k] = m.add_var(f"phi_{i}_{k}", binary=True)
        for i in range(M):
            for j in range(N):
                lay.omega[i, j, k] = m.add_var(f"omega_{i}_{j}_{k}",
                                               binary=True)

        for i in range(M):
            m.add_constr({lay.avg_delay[i, k]: -1.0,
                          lay.psi[i, k]: -delay_max},
                         LE, -inst.delay_cap[k], name=f"cc1s_{i}_{k}")
            m.add_constr({lay.tau[i, k]: 1.0, lay.psi[i, k]: tau_max},
                         LE, tau_max, name=f"cc1m_{i}_{k}")
        coeffs = {lay.y_cloud[k]: 1.0, lay.v1[k]: -service_demand}
        for i in range(M):
            coeffs[lay.x_cloud[i, k]] = -1.0
        m.add_constr(coeffs, LE, 0.0, name=f"cc2s_{k}")
        m.add_constr({lay.mu1[k]: 1.0, lay.v1[k]: unit_max}, LE, unit_max,
                     name=f"cc2m_{k}")
        for j in range(N):
            coeffs = {lay.y_edge[j, k]: 1.0, lay.kappa[j, k]: -capacity}
            for i in range(M):
                coeffs[lay.x_edge[i, j, k]] = -1.0
            m.add_constr(coeffs, LE, 0.0, name=f"cc3s_{j}_{k}")
            m.add_constr({lay.lam[j, k]: 1.0, lay.kappa[j, k]: unit_max},
                         LE, unit_max, name=f"cc3m_{j}_{k}")
        for j in range(N):
            m.add_constr({lay.t[j, k]: inst.compute_cap[j],
                          lay.y_edge[j, k]: -1.0,
                          lay.theta[j, k]: -capacity}, LE, 0.0,
                         name=f"cc4s_{j}_{k}")
            m.add_constr({lay.gamma[j, k]: 1.0, lay.theta[j, k]: unit_max},
                         LE, unit_max, name=f"cc4m_{j}_{k}")
        for i in range(M):
            for j in range(N):
                m.add_constr({lay.x_edge[i, j, k]: -1.0,
                              lay.rho[i, j, k]: -ap_demand}, LE,
                             -inst.eligible[i, j, k] * inst.demand[i, k],
                             name=f"cc5s_{i}_{j}_{k}")
                m.add_constr({lay.eta[i, j, k]: 1.0,
                              lay.rho[i, j, k]: unit_max}, LE, unit_max,
                             name=f"cc5m_{i}_{j}_{k}")
        # Budget slack via the revenue variable, which ``revsum`` pins
        # to the true edge spend.
        m.add_constr({lay.rev[k]: -1.0, lay.y_cloud[k]: -inst.cloud_price,
                      lay.v2[k]: -budget}, LE, -inst.budget[k],
                     name=f"cc6s_{k}")
        m.add_constr({lay.mu2[k]: 1.0, lay.v2[k]: mu2_max}, LE, mu2_max,
                     name=f"cc6m_{k}")
        for i in range(M):
            m.add_constr({lay.x_cloud[i, k]: 1.0,
                          lay.phi_sw[i, k]: -ap_demand},
                         LE, 0.0, name=f"cc7s_{i}_{k}")
            m.add_constr({lay.zeta[i, k]: 1.0, lay.phi_sw[i, k]: unit_max},
                         LE, unit_max, name=f"cc7m_{i}_{k}")
        for i in range(M):
            for j in range(N):
                m.add_constr({lay.x_edge[i, j, k]: 1.0,
                              lay.omega[i, j, k]: -ap_demand}, LE, 0.0,
                             name=f"cc8s_{i}_{j}_{k}")
                m.add_constr({lay.eps[i, j, k]: 1.0,
                              lay.omega[i, j, k]: unit_max}, LE, unit_max,
                             name=f"cc8m_{i}_{j}_{k}")
    return m, lay


def extract_solution_p1(inst: Instance, lay: MilpLayout, sol: MilpSolution,
                        ) -> Tuple[LeaderDecision, List[FollowerSolution],
                                   List[DualSolution]]:
    return extract_solution(inst, lay, sol)


def solve_p1(inst: Instance, config: Optional[MilpConfig] = None,
             flat: bool = False,
             fix_price_level: Optional[int] = None) -> ReformResult:
    """Solve P1 through solve_reformulation. ``config.time_limit`` bounds
    the whole call, escalations included."""
    return solve_reformulation(
        lambda m_lin: build_p1(inst, m_lin, flat=flat,
                               fix_price_level=fix_price_level),
        lambda lay, sol: extract_solution_p1(inst, lay, sol),
        lambda lay, sol, m_lin: validate_bigM(inst, lay, sol, m_lin),
        config)
