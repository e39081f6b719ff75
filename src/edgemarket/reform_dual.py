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

from ._milp_base import (M_LIN, IntegrityError, MilpLayout, ReformResult,
                         add_dual_rows, build_base, extract_solution,
                         solve_reformulation, validate_bigM)
from .follower import FollowerContext, FollowerInfeasibleError, solve_follower
from .lp_core import LE, EQ, LinearModel, MilpConfig, MilpSolution
from .model import (DualSolution, FollowerSolution, Instance, LeaderDecision)
from .tolerances import TOL


def build_p2(inst: Instance, m_lin: float = M_LIN,
             flat: bool = False, fix_price_level: Optional[int] = None,
             ) -> Tuple[LinearModel, MilpLayout]:
    """Leader block plus, per service: primal feasibility, dual
    feasibility, strong duality, and the revenue product expansion.

    ``m_lin`` is the multiplier scale of ``multiplier_bounds``; it sizes
    only the ``r * mu2`` and ``t * Gamma`` product rows of
    ``build_base``."""
    N, K, V = inst.num_ens, inst.num_services, inst.num_price_levels
    m, lay = build_base(inst, m_lin, "p2", flat=flat,
                        fix_price_level=fix_price_level)

    for k in range(K):
        # Dual feasibility; p(1+mu2) expanded over the one-hot selection.
        add_dual_rows(m, inst, lay, k, LE)

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


def extract_solution_p2(inst: Instance, lay: MilpLayout, sol: MilpSolution,
                        ) -> Tuple[LeaderDecision, List[FollowerSolution],
                                   List[DualSolution]]:
    ld, followers, duals = extract_solution(inst, lay, sol)
    for k in range(inst.num_services):
        direct = float(ld.price @ followers[k].y_edge)
        if abs(sol.values[lay.rev[k]] - direct) > 1e-6 * (1.0 + abs(direct)):
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
             flat: bool = False,
             fix_price_level: Optional[int] = None) -> ReformResult:
    """Solve P2 through solve_reformulation, which raises only the
    multiplier scale of the product rows when ``validate_bigM`` flags a
    bound. ``config.time_limit`` bounds the whole call, escalations
    included."""
    return solve_reformulation(
        lambda m_lin: build_p2(inst, m_lin, flat=flat,
                               fix_price_level=fix_price_level),
        lambda lay, sol: extract_solution_p2(inst, lay, sol),
        lambda lay, sol, m_lin: validate_bigM(inst, lay, sol, m_lin),
        config)
