"""KKT-based single-level reformulation (P1).

Each follower LP is replaced by its optimality system: primal
feasibility, stationarity, and the eight complementarity families
linearized with binary switches and big-M constants. The bilinear
price-times-budget-multiplier and placement-times-capacity-multiplier
products are expanded over the one-hot price selection.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from ._milp_base import (MilpLayout, ReformResult, add_dual_rows,
                         build_base, extract_solution, multiplier_bounds,
                         solve_reformulation)
from .lp_core import LE, EQ, LinearModel, MilpConfig, MilpSolution
from .model import (DualSolution, FollowerSolution, Instance, LeaderDecision)


@dataclass(frozen=True)
class BigMSet:
    """One slack-side constant per complementarity family plus the
    dimensionless scale of every multiplier-side constant."""

    m1: float   # delay-cap slack
    m2: float   # cloud coverage slack
    m3: float   # EN coverage slack
    m4: float   # EN capacity slack
    m5: float   # eligibility slack
    m6: float   # budget slack
    m7: float   # x_cloud
    m8: float   # x_edge
    m_lin: float  # multiplier scale, see multiplier_bounds

    def scaled(self, factor: float) -> "BigMSet":
        return BigMSet(**{f.name: getattr(self, f.name) * factor
                          for f in fields(self)})

    def check(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"big-M constant {f.name} must be positive "
                                 f"and finite, got {val}")


def derive_bigM(inst: Instance) -> BigMSet:
    """Data-driven big-M constants, each in the units of what it bounds.

    Slack side (m1..m8): exact data bounds, so none can cut off a
    follower-optimal point. The delay-cap slack is at most the delay cap;
    a cloud-coverage slack is zero at any follower optimum (the cloud
    price is positive) and is bounded by the per-service demand; the EN
    coverage and capacity slacks by the EN capacity; the eligibility
    slack and the allocations by the per-AP demand; the budget slack by
    the budget.

    Multiplier side: ``m_lin = 10``, ten times each multiplier's unit.
    ``multiplier_bounds`` turns it into mu2 <= 10, the per-unit
    multipliers <= 10 times the highest price plus delay penalty per unit
    of workload, and tau <= that times the largest per-AP demand over the
    longest delay. The same bounds linearize the ``r * mu2`` and
    ``t * Gamma`` products of P1 and P2. These are not proven bounds: a
    follower multiplier has no a-priori bound, and a constant that is too
    small can cut off a better leader decision. The solve wrappers rely
    on validate_bigM, which sees only the returned point, and escalate
    the constants tenfold when it flags one.
    """
    per_ap_demand = float(inst.demand.max(initial=0.0))
    capacity = float(inst.compute_cap.max(initial=0.0))
    return BigMSet(
        m1=float(inst.delay_cap.max(initial=0.0)),
        m2=float(inst.demand.sum(axis=0).max(initial=0.0)),
        m3=capacity,
        m4=capacity,
        m5=per_ap_demand,
        m6=float(inst.budget.max(initial=0.0)),
        m7=per_ap_demand,
        m8=per_ap_demand,
        m_lin=10.0,
    )


def build_p1(inst: Instance, bigm: BigMSet, flat: bool = False,
             fix_price_level: Optional[int] = None,
             ) -> Tuple[LinearModel, MilpLayout]:
    """Single MILP whose feasible points are exactly the leader decisions
    paired with follower-optimal responses (certified by KKT)."""
    bigm.check()
    M, N, K = inst.num_aps, inst.num_ens, inst.num_services
    m, lay = build_base(inst, bigm.m_lin, "p1", flat=flat,
                        fix_price_level=fix_price_level)
    mu2_max, unit_max, tau_max = multiplier_bounds(inst, bigm.m_lin)

    for k in range(K):
        # Stationarity: the follower's dual rows as equalities.
        add_dual_rows(m, inst, lay, k, EQ)

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
            m.add_constr({lay.avg_delay[i, k]: -1.0, lay.psi[i, k]: -bigm.m1},
                         LE, -inst.delay_cap[k], name=f"cc1s_{i}_{k}")
            m.add_constr({lay.tau[i, k]: 1.0, lay.psi[i, k]: tau_max},
                         LE, tau_max, name=f"cc1m_{i}_{k}")
        coeffs = {lay.y_cloud[k]: 1.0, lay.v1[k]: -bigm.m2}
        for i in range(M):
            coeffs[lay.x_cloud[i, k]] = -1.0
        m.add_constr(coeffs, LE, 0.0, name=f"cc2s_{k}")
        m.add_constr({lay.mu1[k]: 1.0, lay.v1[k]: unit_max}, LE, unit_max,
                     name=f"cc2m_{k}")
        for j in range(N):
            coeffs = {lay.y_edge[j, k]: 1.0, lay.kappa[j, k]: -bigm.m3}
            for i in range(M):
                coeffs[lay.x_edge[i, j, k]] = -1.0
            m.add_constr(coeffs, LE, 0.0, name=f"cc3s_{j}_{k}")
            m.add_constr({lay.lam[j, k]: 1.0, lay.kappa[j, k]: unit_max},
                         LE, unit_max, name=f"cc3m_{j}_{k}")
        for j in range(N):
            m.add_constr({lay.t[j, k]: inst.compute_cap[j],
                          lay.y_edge[j, k]: -1.0,
                          lay.theta[j, k]: -bigm.m4}, LE, 0.0,
                         name=f"cc4s_{j}_{k}")
            m.add_constr({lay.gamma[j, k]: 1.0, lay.theta[j, k]: unit_max},
                         LE, unit_max, name=f"cc4m_{j}_{k}")
        for i in range(M):
            for j in range(N):
                m.add_constr({lay.x_edge[i, j, k]: -1.0,
                              lay.rho[i, j, k]: -bigm.m5}, LE,
                             -inst.eligible[i, j, k] * inst.demand[i, k],
                             name=f"cc5s_{i}_{j}_{k}")
                m.add_constr({lay.eta[i, j, k]: 1.0,
                              lay.rho[i, j, k]: unit_max}, LE, unit_max,
                             name=f"cc5m_{i}_{j}_{k}")
        # Budget slack via the revenue variable, which the strong-duality
        # row pins to the true edge spend at any KKT-consistent point.
        m.add_constr({lay.rev[k]: -1.0, lay.y_cloud[k]: -inst.cloud_price,
                      lay.v2[k]: -bigm.m6}, LE, -inst.budget[k],
                     name=f"cc6s_{k}")
        m.add_constr({lay.mu2[k]: 1.0, lay.v2[k]: mu2_max}, LE, mu2_max,
                     name=f"cc6m_{k}")
        for i in range(M):
            m.add_constr({lay.x_cloud[i, k]: 1.0, lay.phi_sw[i, k]: -bigm.m7},
                         LE, 0.0, name=f"cc7s_{i}_{k}")
            m.add_constr({lay.zeta[i, k]: 1.0, lay.phi_sw[i, k]: unit_max},
                         LE, unit_max, name=f"cc7m_{i}_{k}")
        for i in range(M):
            for j in range(N):
                m.add_constr({lay.x_edge[i, j, k]: 1.0,
                              lay.omega[i, j, k]: -bigm.m8}, LE, 0.0,
                             name=f"cc8s_{i}_{j}_{k}")
                m.add_constr({lay.eps[i, j, k]: 1.0,
                              lay.omega[i, j, k]: unit_max}, LE, unit_max,
                             name=f"cc8m_{i}_{j}_{k}")
    return m, lay


def extract_solution_p1(inst: Instance, lay: MilpLayout, sol: MilpSolution,
                        ) -> Tuple[LeaderDecision, List[FollowerSolution],
                                   List[DualSolution]]:
    return extract_solution(inst, lay, sol)


def validate_bigM(inst: Instance, lay: MilpLayout, sol: MilpSolution,
                  bigm: BigMSet) -> List[str]:
    """Flag any multiplier within 1% of its big-M constant.

    Only the multiplier side is checked. The slack-side constants are
    exact data bounds (see derive_bigM), so a slack that reaches one has
    cut nothing off. A multiplier at its bound may be truncated by it, so
    callers must re-solve with larger constants when this returns a
    non-empty list. The check sees only the returned point: a constant
    that cuts off a better leader decision leaves no trace here. Works for
    both builders; the switch families are only checked when present.

    Multipliers of vacuous rows (capacity of an unplaced EN, eligibility
    of a barred pair, rows with zero demand) are costless degenerate rays
    that the solver may legitimately park at the bound; those are skipped
    because any value of theirs supports the same optimum.
    """
    M, N, K = inst.num_aps, inst.num_ens, inst.num_services
    mu2_max, unit_max, tau_max = multiplier_bounds(inst, bigm.m_lin)
    val = sol.values
    flags: List[str] = []

    def check(value, limit, label):
        if value >= 0.99 * limit:
            flags.append(f"{label}: value {value:.6g} within 1% of M "
                         f"{limit:.6g}")

    for k in range(K):
        check(val[lay.mu2[k]], mu2_max, f"mu2[{k}]")
        placed = [val[lay.t[j, k]] > 0.5 for j in range(N)]
        for j in range(N):
            if placed[j]:
                check(val[lay.gamma[j, k]], unit_max, f"Gamma[{j},{k}]")
        if not lay.psi:
            continue
        for i in range(M):
            if inst.demand[i, k] > 0:
                check(val[lay.tau[i, k]], tau_max, f"tau[{i},{k}]")
                check(val[lay.zeta[i, k]], unit_max, f"zeta[{i},{k}]")
        check(val[lay.mu1[k]], unit_max, f"mu1[{k}]")
        for j in range(N):
            if placed[j]:
                check(val[lay.lam[j, k]], unit_max, f"lambda[{j},{k}]")
        for i in range(M):
            for j in range(N):
                if (placed[j] and inst.eligible[i, j, k]
                        and inst.demand[i, k] > 0):
                    check(val[lay.eta[i, j, k]], unit_max,
                          f"eta[{i},{j},{k}]")
                    check(val[lay.eps[i, j, k]], unit_max,
                          f"eps[{i},{j},{k}]")
    return flags


def solve_p1(inst: Instance, config: Optional[MilpConfig] = None,
             bigm: Optional[BigMSet] = None, flat: bool = False,
             fix_price_level: Optional[int] = None) -> ReformResult:
    """Derive big-M constants and solve P1 through solve_reformulation.
    ``config.time_limit`` bounds the whole call, escalations included."""
    return solve_reformulation(
        lambda b: build_p1(inst, b, flat=flat,
                           fix_price_level=fix_price_level),
        lambda lay, sol: extract_solution_p1(inst, lay, sol),
        lambda lay, sol, b: validate_bigM(inst, lay, sol, b),
        bigm or derive_bigM(inst), config)
