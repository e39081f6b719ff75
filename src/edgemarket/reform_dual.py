"""Duality-based single-level reformulation (P2).

Follower optimality is certified by carrying both a feasible primal
allocation and a feasible dual point per service, tied together by a
strong-duality equality. This needs no complementarity switches, so the
binary count stays at the leader's own N(K+V+1).

The per-service revenue variable is pinned from both sides: the
strong-duality row equates it with the dual objective minus the
non-revenue part of the follower cost, and a product expansion over the
one-hot price selection equates it with the actual edge spend. Together
they force the embedded primal and dual points to be optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import lp_core
from ._milp_base import MilpLayout, build_base, extract_solution
from .follower import FollowerContext, FollowerInfeasibleError, solve_follower
from .lp_core import LE, EQ, LinearModel, MilpConfig, MilpSolution
from .model import (DualSolution, FollowerSolution, Instance, LeaderDecision)
from .reform_kkt import (MAX_ESCALATIONS, BigMSet, ReformResult, derive_bigM,
                         validate_bigM)
from .tolerances import TOL

P2Layout = MilpLayout


def build_p2(inst: Instance, m_lin: Optional[float] = None,
             flat: bool = False, fix_price_level: Optional[int] = None,
             ) -> Tuple[LinearModel, P2Layout]:
    """Leader block plus, per service: primal feasibility, dual
    feasibility, strong duality, and the revenue product expansion."""
    if m_lin is None:
        m_lin = derive_bigM(inst).m_lin
    M, N, K, V = (inst.num_aps, inst.num_ens, inst.num_services,
                  inst.num_price_levels)
    m, lay = build_base(inst, m_lin, "p2", flat=flat,
                        fix_price_level=fix_price_level)

    for k in range(K):
        w = inst.delay_weight[k]
        # Dual feasibility; p(1+mu2) expanded over the one-hot selection.
        for j in range(N):
            coeffs = {lay.lam[j, k]: 1.0, lay.gamma[j, k]: -1.0}
            for v in range(V):
                pg = inst.price_grid[j, v]
                coeffs[lay.pi[j, v, k]] = -pg
                coeffs[lay.r[j, v]] = -pg
            m.add_constr(coeffs, LE, 0.0, name=f"d2y_{j}_{k}")
        m.add_constr({lay.mu1[k]: 1.0, lay.mu2[k]: -inst.cloud_price},
                     LE, inst.cloud_price, name=f"d2y0_{k}")
        for i in range(M):
            m.add_constr({lay.sigma[i, k]: -inst.demand[i, k],
                          lay.tau[i, k]: -1.0}, LE, 0.0,
                         name=f"d2da_{i}_{k}")
        for i in range(M):
            for j in range(N):
                m.add_constr({lay.xi[i, k]: 1.0,
                              lay.sigma[i, k]: inst.delay_edge[i, j],
                              lay.lam[j, k]: -1.0, lay.eta[i, j, k]: -1.0,
                              lay.eps[i, j, k]: 1.0}, LE,
                             w * inst.delay_edge[i, j],
                             name=f"d2x_{i}_{j}_{k}")
        for i in range(M):
            m.add_constr({lay.xi[i, k]: 1.0,
                          lay.sigma[i, k]: inst.delay_cloud[i],
                          lay.mu1[k]: -1.0, lay.zeta[i, k]: 1.0}, LE,
                         w * inst.delay_cloud[i], name=f"d2x0_{i}_{k}")

        # h[j,v,k] = r[j,v] * y[j,k]; y <= C makes C an exact box.
        for j in range(N):
            cap = inst.compute_cap[j]
            for v in range(V):
                h_id = m.add_var(f"h_{j}_{v}_{k}")
                lay.h[j, v, k] = h_id
                m.add_constr({h_id: 1.0, lay.r[j, v]: -cap}, LE, 0.0,
                             name=f"hub1_{j}_{v}_{k}")
                m.add_constr({h_id: 1.0, lay.y_edge[j, k]: -1.0}, LE, 0.0,
                             name=f"hub2_{j}_{v}_{k}")
                m.add_constr({lay.y_edge[j, k]: 1.0, h_id: -1.0,
                              lay.r[j, v]: cap}, LE, cap,
                             name=f"hlb_{j}_{v}_{k}")
        coeffs = {lay.rev[k]: 1.0}
        for j in range(N):
            for v in range(V):
                coeffs[lay.h[j, v, k]] = -inst.price_grid[j, v]
        m.add_constr(coeffs, EQ, 0.0, name=f"revsum_{k}")
    return m, lay


def extract_solution_p2(inst: Instance, lay: P2Layout, sol: MilpSolution,
                        ) -> Tuple[LeaderDecision, List[FollowerSolution],
                                   List[DualSolution]]:
    ld, followers, duals = extract_solution(inst, lay, sol)
    for k in range(inst.num_services):
        direct = float(ld.price @ followers[k].y_edge)
        if abs(sol.values[lay.rev[k]] - direct) > 1e-6 * (1.0 + abs(direct)):
            from ._milp_base import IntegrityError
            raise IntegrityError(
                f"revenue variable for service {k} is {sol.values[lay.rev[k]]}"
                f" but price @ y gives {direct}")
    return ld, followers, duals


@dataclass
class BilevelOptimalityReport:
    """Per-service certification that the extracted allocation solves the
    follower problem at the extracted prices and placement."""

    cost_claimed: List[float]
    cost_resolved: List[float]
    rel_diffs: List[float]
    passed: bool
    notes: List[str]


def verify_bilevel_optimality(inst: Instance, ld: LeaderDecision,
                              followers: List[FollowerSolution],
                              ) -> BilevelOptimalityReport:
    """Re-solve every follower LP at the extracted leader decision and
    compare costs; certifies the argmin coupling numerically."""
    claimed, resolved, diffs, notes = [], [], [], []
    passed = True
    for k in range(inst.num_services):
        ctx = FollowerContext(inst, k, ld.price, ld.placed[:, k])
        claimed.append(followers[k].cost)
        try:
            fs, _ = solve_follower(ctx)
        except FollowerInfeasibleError as exc:
            resolved.append(float("nan"))
            diffs.append(float("inf"))
            notes.append(str(exc))
            passed = False
            continue
        resolved.append(fs.cost)
        rel = abs(followers[k].cost - fs.cost) / (1.0 + abs(fs.cost))
        diffs.append(rel)
        if rel > TOL.objective_match_rel:
            notes.append(f"service {k}: claimed {followers[k].cost}, "
                         f"LP optimum {fs.cost}")
            passed = False
    return BilevelOptimalityReport(claimed, resolved, diffs, passed, notes)


def solve_p2(inst: Instance, config: Optional[MilpConfig] = None,
             bigm: Optional[BigMSet] = None, flat: bool = False,
             fix_price_level: Optional[int] = None) -> ReformResult:
    """Solve P2 with the derived linearization constant, escalating it
    tenfold (at most three times) if it turns out binding.
    ``config.time_limit`` bounds the whole call, escalations included."""
    bigm = bigm or derive_bigM(inst)
    config = config or MilpConfig()
    until = lp_core.deadline(config)
    for escalation in range(MAX_ESCALATIONS + 1):
        model, lay = build_p2(inst, bigm.m_lin, flat=flat,
                              fix_price_level=fix_price_level)
        sol = lp_core.solve_milp(model, lp_core.time_left(config, until))
        if sol.status not in (lp_core.OPTIMAL, lp_core.GAP_LIMIT):
            return ReformResult(sol.status, None, None, None, None, sol,
                                bigm, escalation, [])
        leader, followers, duals = extract_solution_p2(inst, lay, sol)
        flags = validate_bigM(inst, lay, sol, bigm)
        if not flags:
            return ReformResult(sol.status, sol.objective, leader, followers,
                                duals, sol, bigm, escalation, [])
        bigm = bigm.scaled(10.0)
    raise RuntimeError("reformulation unsound: linearization constant still "
                       f"binding after {MAX_ESCALATIONS} escalations: {flags}")
