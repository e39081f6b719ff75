"""Shared machinery for the two single-level MILP reformulations.

P1 (KKT-based) and P2 (duality-based) embed the same follower LP and
differ only in how they certify its optimality: complementarity
switches or a strong-duality equality. Each row family is written once:

- ``build_base``: the leader rows, the ``r * mu2`` and ``t * Gamma``
  product linearizations and the strong-duality revenue rows, with each
  service's primal rows from ``follower.add_follower_rows``. Each EN's
  price choice ``r[j, :]`` is one-hot, so ``r * mu2`` is written as its
  exact hull: ``mu2`` splits into shares ``pi[j, v]``, one per price
  level, each boxed by its binary;
- ``add_dual_rows``: each service's dual rows, as equalities in P1
  (stationarity) and as ``<=`` rows in P2 (dual feasibility);
- ``solve_reformulation``: the build, solve, extract, validate and
  big-M escalation loop behind ``solve_p1`` and ``solve_p2``.

This module owns the big-M constants, whose only inputs are the
instance and the multiplier scale ``m_lin``: ``M_LIN`` is the starting
scale, ``multiplier_bounds`` turns a scale into bounds per multiplier
family, ``validate_bigM`` checks the returned point against them, and
``solve_reformulation`` raises only ``m_lin`` when a bound binds. P1's
slack-side constants are exact data bounds, written by
``reform_kkt.build_p1``.

The reference code the reformulations are tested against writes its
rows separately on purpose, so that no fault in these shared writers
can hide from the tests: ``follower.build_follower_dual``, the oracle's
``_SecondStage``, ``analytic.solve_single_en`` and the benchmark's
``perfbench/checker.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import lp_core
from .follower import FollowerColumns, add_follower_rows
from .lp_core import LE, EQ, LinearModel, MilpConfig, MilpSolution
from .model import (DualSolution, FollowerSolution, Instance, LeaderDecision,
                    leader_profit, follower_cost)
from .tolerances import TOL


class IntegrityError(Exception):
    """A solved MILP violates a structural expectation (fractional binary,
    profit mismatch)."""


@dataclass
class MilpLayout:
    """Maps every model symbol (with its indices) to a variable id."""

    r: Dict[Tuple[int, int], int] = field(default_factory=dict)        # (j, v)
    z: Dict[int, int] = field(default_factory=dict)                    # j
    t: Dict[Tuple[int, int], int] = field(default_factory=dict)        # (j, k)
    x_cloud: Dict[Tuple[int, int], int] = field(default_factory=dict)  # (i, k)
    x_edge: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    y_cloud: Dict[int, int] = field(default_factory=dict)              # k
    y_edge: Dict[Tuple[int, int], int] = field(default_factory=dict)   # (j, k)
    avg_delay: Dict[Tuple[int, int], int] = field(default_factory=dict)
    xi: Dict[Tuple[int, int], int] = field(default_factory=dict)
    sigma: Dict[Tuple[int, int], int] = field(default_factory=dict)
    tau: Dict[Tuple[int, int], int] = field(default_factory=dict)
    mu1: Dict[int, int] = field(default_factory=dict)
    mu2: Dict[int, int] = field(default_factory=dict)
    lam: Dict[Tuple[int, int], int] = field(default_factory=dict)
    gamma: Dict[Tuple[int, int], int] = field(default_factory=dict)
    eta: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    zeta: Dict[Tuple[int, int], int] = field(default_factory=dict)
    eps: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    pi: Dict[Tuple[int, int, int], int] = field(default_factory=dict)  # (j, v, k)
    h: Dict[Tuple[int, int, int], int] = field(default_factory=dict)   # (j, v, k)
    g: Dict[Tuple[int, int], int] = field(default_factory=dict)        # (j, k)
    rev: Dict[int, int] = field(default_factory=dict)                  # k
    # KKT-only complementarity switches
    psi: Dict[Tuple[int, int], int] = field(default_factory=dict)      # (i, k)
    v1: Dict[int, int] = field(default_factory=dict)
    kappa: Dict[Tuple[int, int], int] = field(default_factory=dict)
    theta: Dict[Tuple[int, int], int] = field(default_factory=dict)
    rho: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    v2: Dict[int, int] = field(default_factory=dict)
    phi_sw: Dict[Tuple[int, int], int] = field(default_factory=dict)
    omega: Dict[Tuple[int, int, int], int] = field(default_factory=dict)


M_LIN = 10.0   # starting multiplier scale: ten times each multiplier's unit


def multiplier_bounds(inst: Instance, m_lin: float,
                      ) -> Tuple[float, float, float]:
    """Multiplier-side big-M constants for the scale ``m_lin``, each in
    its multiplier's own units: ``(budget, unit, delay)``.

    - ``budget`` bounds the budget multiplier mu2, which is dimensionless
      (cost per unit of budget): ``m_lin`` itself.
    - ``unit`` bounds the multipliers priced in money per unit of
      workload (mu1, lambda, Gamma, eta, zeta, eps): ``m_lin`` times the
      most one unit of workload can cost a service, the highest price
      plus the highest delay weight times the longest delay.
    - ``delay`` bounds the delay-cap multiplier tau, in money per ms of
      average delay: ``unit`` times the largest per-AP demand over the
      longest delay, the rate at which moving an AP's whole demand
      across the delay range trades money for average delay.

    These are not proven bounds: a follower multiplier has no a-priori
    bound, and a constant that is too small can cut off a better leader
    decision. ``solve_reformulation`` relies on ``validate_bigM``, which
    sees only the returned point, and raises ``m_lin`` tenfold when it
    flags one.
    """
    max_delay = max(float(inst.delay_edge.max(initial=0.0)),
                    float(inst.delay_cloud.max(initial=0.0)), 1.0)
    per_unit = (max(float(inst.price_grid.max(initial=0.0)), inst.cloud_price)
                + float(inst.delay_weight.max(initial=0.0)) * max_delay)
    unit = m_lin * per_unit
    return m_lin, unit, unit * float(inst.demand.max(initial=0.0)) / max_delay


def build_base(inst: Instance, m_lin: float, name: str,
               flat: bool = False,
               fix_price_level: Optional[int] = None,
               ) -> Tuple[LinearModel, MilpLayout]:
    """Leader block, follower primal feasibility, product linearizations
    and per-service revenue definitions common to P1 and P2.

    ``m_lin`` is the multiplier scale of ``multiplier_bounds``; the
    products ``r * mu2`` and ``t * Gamma`` are linearized with the mu2
    and per-unit bounds it gives. ``t * Gamma`` takes the three McCormick
    rows. ``r * mu2`` takes the hull over EN j's one-hot price choice
    (Balas' disjunctive hull, or RLT with the ``onehot_j`` row):
    ``pisum``, ``sum_v pi[j,v,k] = mu2[k]``, and ``piub1``,
    ``pi[j,v,k] <= mu2_max r[j,v]``. It is exact at every integer point
    and implies the McCormick rows ``pi <= mu2`` and
    ``mu2 - pi <= mu2_max (1 - r)``, which are not written.

    ``flat`` links the price-selection rows across ENs;
    ``fix_price_level`` pins every EN to one grid level. Both are used by
    the pricing-scheme harness, not by the plain builders.
    """
    M, N, K, V = inst.num_aps, inst.num_ens, inst.num_services, inst.num_price_levels
    mu2_max, gamma_max, _ = multiplier_bounds(inst, m_lin)
    m = LinearModel(name=name, sense="max")
    lay = MilpLayout()

    for j in range(N):
        lay.z[j] = m.add_var(f"z_{j}", binary=True)
    for j in range(N):
        for k in range(K):
            lay.t[j, k] = m.add_var(f"t_{j}_{k}", binary=True)
    for j in range(N):
        for v in range(V):
            lay.r[j, v] = m.add_var(f"r_{j}_{v}", binary=True)

    for k in range(K):
        for i in range(M):
            lay.x_cloud[i, k] = m.add_var(f"x0_{i}_{k}")
        for i in range(M):
            for j in range(N):
                lay.x_edge[i, j, k] = m.add_var(f"x_{i}_{j}_{k}")
        lay.y_cloud[k] = m.add_var(f"y0_{k}")
        for j in range(N):
            lay.y_edge[j, k] = m.add_var(f"y_{j}_{k}")
        for i in range(M):
            lay.avg_delay[i, k] = m.add_var(f"da_{i}_{k}")
        for i in range(M):
            lay.xi[i, k] = m.add_var(f"xi_{i}_{k}", lb=-math.inf)
        for i in range(M):
            lay.sigma[i, k] = m.add_var(f"sigma_{i}_{k}", lb=-math.inf)
        for i in range(M):
            lay.tau[i, k] = m.add_var(f"tau_{i}_{k}")
        lay.mu1[k] = m.add_var(f"mu1_{k}")
        lay.mu2[k] = m.add_var(f"mu2_{k}")
        for j in range(N):
            lay.lam[j, k] = m.add_var(f"lam_{j}_{k}")
        for j in range(N):
            lay.gamma[j, k] = m.add_var(f"gamma_{j}_{k}")
        for i in range(M):
            for j in range(N):
                lay.eta[i, j, k] = m.add_var(f"eta_{i}_{j}_{k}")
        for i in range(M):
            lay.zeta[i, k] = m.add_var(f"zeta_{i}_{k}")
        for i in range(M):
            for j in range(N):
                lay.eps[i, j, k] = m.add_var(f"eps_{i}_{j}_{k}")
        for j in range(N):
            for v in range(V):
                lay.pi[j, v, k] = m.add_var(f"pi_{j}_{v}_{k}")
        for j in range(N):
            lay.g[j, k] = m.add_var(f"g_{j}_{k}")
        lay.rev[k] = m.add_var(f"rev_{k}", lb=-math.inf)

    # Leader constraints: placement only on active ENs, shared capacity,
    # storage, one grid price per EN.
    for j in range(N):
        for k in range(K):
            m.add_constr({lay.t[j, k]: 1.0, lay.z[j]: -1.0}, LE, 0.0,
                         name=f"place_{j}_{k}")
    for j in range(N):
        coeffs = {lay.y_edge[j, k]: 1.0 for k in range(K)}
        coeffs[lay.z[j]] = -inst.compute_cap[j]
        m.add_constr(coeffs, LE, 0.0, name=f"encap_{j}")
    for j in range(N):
        coeffs = {lay.t[j, k]: inst.service_size[k] for k in range(K)}
        coeffs[lay.z[j]] = -inst.storage_cap[j]
        m.add_constr(coeffs, LE, 0.0, name=f"storage_{j}")
    for j in range(N):
        m.add_constr({lay.r[j, v]: 1.0 for v in range(V)}, EQ, 1.0,
                     name=f"onehot_{j}")
    if flat:
        if not np.allclose(inst.price_grid, inst.price_grid[0][None, :]):
            raise ValueError("flat pricing requires identical grids on all ENs")
        for j in range(1, N):
            for v in range(V):
                m.add_constr({lay.r[j, v]: 1.0, lay.r[0, v]: -1.0}, EQ, 0.0,
                             name=f"flat_{j}_{v}")
    if fix_price_level is not None:
        for j in range(N):
            m.add_constr({lay.r[j, fix_price_level]: 1.0}, EQ, 1.0,
                         name=f"fixlvl_{j}")

    # Per-service primal feasibility; the budget row uses the revenue
    # variable in place of the bilinear price*procurement term.
    for k in range(K):
        w = inst.delay_weight[k]
        cols = FollowerColumns(
            x0=[lay.x_cloud[i, k] for i in range(M)],
            x=[[lay.x_edge[i, j, k] for j in range(N)] for i in range(M)],
            y0=lay.y_cloud[k], y=[lay.y_edge[j, k] for j in range(N)],
            da=[lay.avg_delay[i, k] for i in range(M)],
            rev=lay.rev[k], t=[lay.t[j, k] for j in range(N)])
        add_follower_rows(m, inst, k, cols, prices=None, placed=None)

        # pi[j,v,k] = r[j,v] * mu2[k], as the hull over EN j's one-hot
        # price choice: mu2 splits across the levels, each share boxed
        # by its binary.
        for j in range(N):
            for v in range(V):
                m.add_constr({lay.pi[j, v, k]: 1.0, lay.r[j, v]: -mu2_max},
                             LE, 0.0, name=f"piub1_{j}_{v}_{k}")
            coeffs = {lay.pi[j, v, k]: 1.0 for v in range(V)}
            coeffs[lay.mu2[k]] = -1.0
            m.add_constr(coeffs, EQ, 0.0, name=f"pisum_{j}_{k}")
        # g[j,k] = t[j,k] * gamma[j,k]
        for j in range(N):
            g_id, t_id = lay.g[j, k], lay.t[j, k]
            m.add_constr({g_id: 1.0, t_id: -gamma_max}, LE, 0.0,
                         name=f"gub1_{j}_{k}")
            m.add_constr({g_id: 1.0, lay.gamma[j, k]: -1.0}, LE, 0.0,
                         name=f"gub2_{j}_{k}")
            m.add_constr({lay.gamma[j, k]: 1.0, g_id: -1.0, t_id: gamma_max},
                         LE, gamma_max, name=f"glb_{j}_{k}")

        # Strong-duality revenue: edge revenue written in dual terms.
        coeffs = {lay.rev[k]: 1.0, lay.y_cloud[k]: inst.cloud_price,
                  lay.mu2[k]: inst.budget[k]}
        for i in range(M):
            coeffs[lay.x_cloud[i, k]] = w * inst.delay_cloud[i]
            coeffs[lay.xi[i, k]] = -inst.demand[i, k]
            coeffs[lay.tau[i, k]] = float(inst.delay_cap[k])
            for j in range(N):
                coeffs[lay.x_edge[i, j, k]] = w * inst.delay_edge[i, j]
                coeffs[lay.eta[i, j, k]] = (inst.demand[i, k]
                                            * inst.eligible[i, j, k])
        for j in range(N):
            coeffs[lay.g[j, k]] = inst.compute_cap[j]
        m.add_constr(coeffs, EQ, 0.0, name=f"revdef_{k}")

    obj: Dict[int, float] = {}
    for k in range(K):
        obj[lay.rev[k]] = 1.0
        for j in range(N):
            obj[lay.y_edge[j, k]] = -inst.variable_cost[j] / inst.compute_cap[j]
            obj[lay.t[j, k]] = -inst.placement_cost[j, k]
    for j in range(N):
        obj[lay.z[j]] = -inst.fixed_cost[j]
    m.set_objective(obj)
    return m, lay


def add_dual_rows(m: LinearModel, inst: Instance, lay: MilpLayout, k: int,
                  sense: str) -> None:
    """Write service ``k``'s dual rows into ``m``, one per primal column
    in the order ``y0, y_j, da_i, x0_i, x_ij``, in the ``<=`` form of
    ``build_follower_dual``. ``sense`` is EQ for P1's stationarity and LE
    for P2's dual feasibility. EN j's price enters its ``y_j`` row as
    ``p_j (1 + mu2) = sum_v pg[j,v] (r[j,v] + pi[j,v,k])``, exact over the
    one-hot price selection."""
    M, N, V = inst.num_aps, inst.num_ens, inst.num_price_levels
    w = inst.delay_weight[k]
    m.add_constr({lay.mu1[k]: 1.0, lay.mu2[k]: -inst.cloud_price},
                 sense, inst.cloud_price, name=f"dy0_{k}")
    for j in range(N):
        coeffs = {lay.lam[j, k]: 1.0, lay.gamma[j, k]: -1.0}
        for v in range(V):
            pg = inst.price_grid[j, v]
            coeffs[lay.pi[j, v, k]] = -pg
            coeffs[lay.r[j, v]] = -pg
        m.add_constr(coeffs, sense, 0.0, name=f"dy_{j}_{k}")
    for i in range(M):
        m.add_constr({lay.sigma[i, k]: -inst.demand[i, k],
                      lay.tau[i, k]: -1.0}, sense, 0.0, name=f"dda_{i}_{k}")
    for i in range(M):
        m.add_constr({lay.xi[i, k]: 1.0,
                      lay.sigma[i, k]: inst.delay_cloud[i],
                      lay.mu1[k]: -1.0, lay.zeta[i, k]: 1.0},
                     sense, w * inst.delay_cloud[i], name=f"dx0_{i}_{k}")
    for i in range(M):
        for j in range(N):
            m.add_constr({lay.xi[i, k]: 1.0,
                          lay.sigma[i, k]: inst.delay_edge[i, j],
                          lay.lam[j, k]: -1.0, lay.eta[i, j, k]: -1.0,
                          lay.eps[i, j, k]: 1.0},
                         sense, w * inst.delay_edge[i, j],
                         name=f"dx_{i}_{j}_{k}")


def _rounded_binary(sol: MilpSolution, vid: int, name: str) -> int:
    val = sol.values[vid]
    if abs(val - round(val)) > TOL.binary_integrality:
        raise IntegrityError(f"binary {name} not integral: {val}")
    return int(round(val))


def extract_solution(inst: Instance, lay: MilpLayout, sol: MilpSolution,
                     ) -> Tuple[LeaderDecision, List[FollowerSolution],
                                List[DualSolution]]:
    """Map MILP values back to decision objects and cross-check the profit.

    Both builders write their multiplier rows in the explicit-dual sign
    convention, so the extracted multipliers are directly comparable with
    the ones ``solve_follower`` returns.
    """
    if sol.status not in ("optimal", "gap-limit"):
        raise ValueError(f"cannot extract from solution with status {sol.status}")
    M, N, K, V = inst.num_aps, inst.num_ens, inst.num_services, inst.num_price_levels
    level = np.zeros(N, dtype=int)
    for j in range(N):
        picks = [v for v in range(V)
                 if _rounded_binary(sol, lay.r[j, v], f"r[{j},{v}]")]
        if len(picks) != 1:
            raise IntegrityError(f"EN {j} selects {len(picks)} price levels")
        level[j] = picks[0]
    ld = LeaderDecision(
        price_level=level,
        price=np.array([inst.price_grid[j, level[j]] for j in range(N)]),
        active=np.array([_rounded_binary(sol, lay.z[j], f"z[{j}]")
                         for j in range(N)]),
        placed=np.array([[_rounded_binary(sol, lay.t[j, k], f"t[{j},{k}]")
                          for k in range(K)] for j in range(N)]),
    )
    followers, duals = [], []
    for k in range(K):
        fs = FollowerSolution(
            x_cloud=np.array([sol.values[lay.x_cloud[i, k]] for i in range(M)]),
            x_edge=np.array([[sol.values[lay.x_edge[i, j, k]] for j in range(N)]
                             for i in range(M)]),
            y_cloud=sol.values[lay.y_cloud[k]],
            y_edge=np.array([sol.values[lay.y_edge[j, k]] for j in range(N)]),
            avg_delay=np.array([sol.values[lay.avg_delay[i, k]]
                                for i in range(M)]),
            cost=0.0,
        )
        fs.cost = follower_cost(inst, ld.price, k, fs)
        followers.append(fs)
        duals.append(DualSolution(
            xi=np.array([sol.values[lay.xi[i, k]] for i in range(M)]),
            sigma=np.array([sol.values[lay.sigma[i, k]] for i in range(M)]),
            tau=np.array([sol.values[lay.tau[i, k]] for i in range(M)]),
            mu1=sol.values[lay.mu1[k]],
            mu2=sol.values[lay.mu2[k]],
            lam=np.array([sol.values[lay.lam[j, k]] for j in range(N)]),
            gamma=np.array([sol.values[lay.gamma[j, k]] for j in range(N)]),
            eta=np.array([[sol.values[lay.eta[i, j, k]] for j in range(N)]
                          for i in range(M)]),
            zeta=np.array([sol.values[lay.zeta[i, k]] for i in range(M)]),
            eps=np.array([[sol.values[lay.eps[i, j, k]] for j in range(N)]
                          for i in range(M)]),
        ))
    profit = leader_profit(inst, ld, followers)
    if sol.status == "optimal":
        rel = abs(profit - sol.objective) / max(1.0, abs(sol.objective))
        if rel > TOL.profit_recompute_rel:
            raise IntegrityError(
                f"profit recomputation mismatch: model {sol.objective}, "
                f"first-principles {profit}")
    return ld, followers, duals


def validate_bigM(inst: Instance, lay: MilpLayout, sol: MilpSolution,
                  m_lin: float) -> List[str]:
    """Flag any multiplier within 1% of its big-M constant.

    Only the multiplier side is checked. The slack-side constants are
    exact data bounds (see ``reform_kkt.build_p1``), so a slack that
    reaches one has cut nothing off. A multiplier at its bound may be
    truncated by it, so callers must re-solve with a larger ``m_lin``
    when this returns a non-empty list. The check sees only the returned
    point: a constant that cuts off a better leader decision leaves no
    trace here. Works for both builders; the switch families are only
    checked when present.

    Multipliers of vacuous rows (capacity of an unplaced EN, eligibility
    of a barred pair, rows with zero demand) are costless degenerate rays
    that the solver may legitimately park at the bound; those are skipped
    because any value of theirs supports the same optimum.
    """
    M, N, K = inst.num_aps, inst.num_ens, inst.num_services
    mu2_max, unit_max, tau_max = multiplier_bounds(inst, m_lin)
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


@dataclass
class ReformResult:
    """Outcome of a full build/solve/extract/validate cycle. ``m_lin`` is
    the multiplier scale of the last build; ``flags`` holds the big-M
    flags that caused each escalation, in order."""

    status: str
    objective: Optional[float]
    leader: Optional[LeaderDecision]
    followers: Optional[List[FollowerSolution]]
    duals: Optional[List[DualSolution]]
    milp: MilpSolution
    m_lin: float
    escalations: int
    flags: List[str]


MAX_ESCALATIONS = 3


def solve_reformulation(build: Callable, extract: Callable,
                        validate: Callable,
                        config: Optional[MilpConfig]) -> ReformResult:
    """Build, solve, extract and validate one reformulation, starting at
    the multiplier scale ``M_LIN`` and raising it tenfold (at most
    ``MAX_ESCALATIONS`` times) while ``validate`` flags a constant.
    ``build(m_lin)`` returns ``(model, layout)``, ``extract(layout, sol)``
    the decision objects and ``validate(layout, sol, m_lin)`` the flags.
    ``config.time_limit`` bounds the whole call, escalations included."""
    config = config or MilpConfig()
    until = lp_core.deadline(config)
    m_lin = M_LIN
    flags: List[str] = []
    for escalation in range(MAX_ESCALATIONS + 1):
        model, lay = build(m_lin)
        sol = lp_core.solve_milp(model, lp_core.time_left(config, until))
        if sol.status not in (lp_core.OPTIMAL, lp_core.GAP_LIMIT):
            return ReformResult(sol.status, None, None, None, None, sol,
                                m_lin, escalation, flags)
        leader, followers, duals = extract(lay, sol)
        binding = validate(lay, sol, m_lin)
        if not binding:
            return ReformResult(sol.status, sol.objective, leader, followers,
                                duals, sol, m_lin, escalation, flags)
        flags += binding
        m_lin *= 10.0
    raise RuntimeError("reformulation unsound: big-M constants still binding "
                       f"after {MAX_ESCALATIONS} escalations: {binding}")
