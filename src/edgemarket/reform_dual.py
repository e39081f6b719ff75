"""Duality-based single-level reformulation (P2).

Follower optimality is certified by carrying both a feasible primal
allocation and a feasible dual point per service, tied together by a
strong-duality equality. This needs no complementarity switches, so the
binary count stays at the leader's own N(K+V+1).

The per-service revenue variable is pinned from both sides: the
``revdef`` row of ``build_base`` equates it with the dual objective
minus the non-revenue part of the follower cost, and the
``add_revenue_hull`` rows equate it with the actual edge spend, price
times procurement over the exact hull of the one-hot price choice.
Together they force the embedded primal and dual points to be optimal.
P1 carries the same two revenue rows, but there they only tighten the
LP relaxation: its switches certify optimality on their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ._milp_base import (M_LIN, MilpLayout, ReformResult, add_dual_rows,
                         add_revenue_hull, build_base, extract_solution,
                         solve_reformulation, validate_bigM)
from .follower import FollowerContext, FollowerInfeasibleError, solve_follower
from .lp_core import LE, LinearModel, MilpConfig, MilpSolution
from .model import (DualSolution, FollowerSolution, Instance, LeaderDecision)
from .tolerances import TOL


def build_p2(inst: Instance, m_lin: float = M_LIN, scheme: str = "dyn",
             ) -> Tuple[LinearModel, MilpLayout]:
    """Leader block plus, per service: primal feasibility, dual
    feasibility and strong duality, the ``revdef`` row of ``build_base``
    equated with the price-times-procurement rows of
    ``add_revenue_hull``.

    ``m_lin`` is the scale of the ``multiplier_bounds`` table, whose
    entries are the constants of ``build_base``'s ``r * mu2`` and
    ``t * Gamma`` product rows and the 0 bounds of its mu2 and eta
    columns; P2 has no other big-M. ``scheme`` is the pricing scheme
    whose rows ``build_base`` writes: ``dyn``, ``flat`` or ``avg``."""
    m, lay, ids = build_base(inst, m_lin, "p2", scheme)
    for k in range(inst.num_services):
        # Dual feasibility; p(1+mu2) expanded over the one-hot selection.
        add_dual_rows(m, inst, ids, k, LE)
        add_revenue_hull(m, inst, lay, ids, k)
    return m, lay


def extract_solution_p2(inst: Instance, lay: MilpLayout, sol: MilpSolution,
                        ) -> Tuple[LeaderDecision, List[FollowerSolution],
                                   List[DualSolution]]:
    return extract_solution(inst, lay, sol)


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
             scheme: str = "dyn") -> ReformResult:
    """Solve P2 under the pricing ``scheme`` of ``build_base`` through
    solve_reformulation, which raises only the multiplier scale of the
    product rows when ``validate_bigM`` flags a bound.
    ``config.time_limit`` bounds the whole call, escalations included."""
    return solve_reformulation(
        lambda m_lin: build_p2(inst, m_lin, scheme),
        lambda lay, sol: extract_solution_p2(inst, lay, sol),
        lambda model, lay, sol, m_lin: validate_bigM(inst, model, lay, sol,
                                                     m_lin),
        config)
