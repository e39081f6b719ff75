"""Brute-force bilevel optimum for tiny instances.

Enumerates every discrete leader decision, solves the follower LPs
exactly, resolves follower degeneracy in the leader's favour, and
evaluates the profit. Ground truth for both MILP reformulations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import lp_core
from .follower import FollowerContext, FollowerInfeasibleError, solve_follower
from .lp_core import LE, EQ, LinearModel
from .model import FollowerSolution, Instance, LeaderDecision, leader_profit
from .tolerances import TOL

# Slack allowed on the follower-cost pin in the second stage, only when
# LP round-off makes the exact pin infeasible.
_COST_PIN_SLACK = 1e-9


@dataclass
class OracleResult:
    profit: Optional[float]
    decision: Optional[LeaderDecision]
    followers: Optional[List[FollowerSolution]]
    candidates_examined: int
    log: List[dict] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.profit is not None


def _candidate_count(inst: Instance) -> int:
    N, K, V = inst.num_ens, inst.num_services, inst.num_price_levels
    return V ** N * 2 ** N * 2 ** (N * K)


def _second_stage(inst: Instance, prices: np.ndarray, active, placed,
                  opt_costs: List[float]) -> Optional[Tuple[float, List[FollowerSolution]]]:
    """Among follower-optimal responses, pick the profile that maximizes
    the leader's revenue minus utilization cost, subject to the shared
    EN capacity. Returns None when no optimal profile fits."""
    M, N, K = inst.num_aps, inst.num_ens, inst.num_services
    m = LinearModel(name="second_stage", sense="max")
    x0 = {(i, k): m.add_var(f"x0_{i}_{k}") for k in range(K) for i in range(M)}
    x = {(i, j, k): m.add_var(f"x_{i}_{j}_{k}")
         for k in range(K) for i in range(M) for j in range(N)}
    y0 = {k: m.add_var(f"y0_{k}") for k in range(K)}
    y = {(j, k): m.add_var(f"y_{j}_{k}") for k in range(K) for j in range(N)}
    pin_slack: Dict[int, float] = {}   # variable id -> slack it may take

    for k in range(K):
        w = inst.delay_weight[k]
        for i in range(M):
            coeffs = {x0[i, k]: 1.0}
            for j in range(N):
                coeffs[x[i, j, k]] = 1.0
            m.add_constr(coeffs, EQ, inst.demand[i, k], name=f"bal_{i}_{k}")
        coeffs = {x0[i, k]: 1.0 for i in range(M)}
        coeffs[y0[k]] = -1.0
        m.add_constr(coeffs, LE, 0.0, name=f"cov0_{k}")
        for j in range(N):
            coeffs = {x[i, j, k]: 1.0 for i in range(M)}
            coeffs[y[j, k]] = -1.0
            m.add_constr(coeffs, LE, 0.0, name=f"cov_{j}_{k}")
            m.add_constr({y[j, k]: 1.0}, LE,
                         inst.compute_cap[j] * placed[j][k],
                         name=f"cap_{j}_{k}")
        for i in range(M):
            for j in range(N):
                m.add_constr({x[i, j, k]: 1.0}, LE,
                             inst.eligible[i, j, k] * inst.demand[i, k],
                             name=f"elig_{i}_{j}_{k}")
        budget = {y0[k]: inst.cloud_price}
        for j in range(N):
            budget[y[j, k]] = prices[j]
        m.add_constr(budget, LE, inst.budget[k], name=f"budget_{k}")
        for i in range(M):
            if inst.demand[i, k] <= 0:
                continue
            coeffs = {x0[i, k]: inst.delay_cloud[i]}
            for j in range(N):
                coeffs[x[i, j, k]] = inst.delay_edge[i, j]
            m.add_constr(coeffs, LE,
                         inst.delay_cap[k] * inst.demand[i, k],
                         name=f"dcap_{i}_{k}")
        # Pin each service to its own optimum: optimistic resolution may
        # not cost the follower anything. The pin is exact; its slack is
        # fixed at 0 and freed only if round-off makes the exact pin
        # infeasible.
        slack = m.add_var(f"pin_slack_{k}", ub=0.0)
        pin_slack[slack] = _COST_PIN_SLACK * (1 + abs(opt_costs[k]))
        cost = {y0[k]: inst.cloud_price, slack: -1.0}
        for j in range(N):
            cost[y[j, k]] = prices[j]
        for i in range(M):
            cost[x0[i, k]] = w * inst.delay_cloud[i]
            for j in range(N):
                cost[x[i, j, k]] = w * inst.delay_edge[i, j]
        m.add_constr(cost, LE, opt_costs[k], name=f"pin_{k}")
    for j in range(N):
        coeffs = {y[j, k]: 1.0 for k in range(K)}
        m.add_constr(coeffs, LE, inst.compute_cap[j] * active[j],
                     name=f"encap_{j}")

    obj: Dict[int, float] = {}
    for k in range(K):
        for j in range(N):
            obj[y[j, k]] = prices[j]
        for i in range(M):
            for j in range(N):
                obj[x[i, j, k]] = obj.get(x[i, j, k], 0.0) \
                    - inst.variable_cost[j] / inst.compute_cap[j]
    m.set_objective(obj)
    sol = lp_core.solve_lp(m)
    if sol.status == lp_core.INFEASIBLE:
        sol = lp_core.solve_lp(m, {vid: (0.0, slack)
                                   for vid, slack in pin_slack.items()})
    if sol.status != lp_core.OPTIMAL:
        return None
    followers = []
    for k in range(K):
        fs = FollowerSolution(
            x_cloud=np.array([sol.values[x0[i, k]] for i in range(M)]),
            x_edge=np.array([[sol.values[x[i, j, k]] for j in range(N)]
                             for i in range(M)]),
            y_cloud=sol.values[y0[k]],
            y_edge=np.array([sol.values[y[j, k]] for j in range(N)]),
            avg_delay=np.zeros(M),
            cost=opt_costs[k],
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            tot = (fs.x_cloud * inst.delay_cloud
                   + (fs.x_edge * inst.delay_edge).sum(axis=1))
            fs.avg_delay = np.where(inst.demand[:, k] > 0,
                                    tot / np.maximum(inst.demand[:, k], 1e-300),
                                    0.0)
        followers.append(fs)
    return sol.objective, followers


def brute_force_bilevel(inst: Instance, max_candidates: int = 200_000,
                        keep_log: bool = True) -> OracleResult:
    """Exhaustive search over (price level vector, activation, placement)
    with exact follower resolution; refuses oversized instances."""
    count = _candidate_count(inst)
    if count > max_candidates:
        raise ValueError(f"instance requires {count} candidates, "
                         f"budget is {max_candidates}")
    M, N, K, V = (inst.num_aps, inst.num_ens, inst.num_services,
                  inst.num_price_levels)
    follower_cache: Dict[tuple, Optional[float]] = {}   # None: infeasible
    log: List[dict] = []
    best = None  # (profit, sort_key, LeaderDecision, followers)
    examined = 0
    for z in itertools.product((0, 1), repeat=N):
        for t_flat in itertools.product((0, 1), repeat=N * K):
            placed = np.array(t_flat, int).reshape(N, K)
            if any(placed[j, k] > z[j] for j in range(N) for k in range(K)):
                continue
            if any((placed[j] * inst.service_size).sum()
                   > inst.storage_cap[j] * z[j] + 1e-12 for j in range(N)):
                continue
            for levels in itertools.product(range(V), repeat=N):
                examined += 1
                prices = np.array([inst.price_grid[j, levels[j]]
                                   for j in range(N)])
                entry = {"levels": levels, "z": z, "t": t_flat}
                opt_costs = []
                infeasible = None
                for k in range(K):
                    key = (k, tuple(prices), tuple(placed[:, k]))
                    if key not in follower_cache:
                        ctx = FollowerContext(inst, k, prices, placed[:, k])
                        try:
                            fs, _ = solve_follower(ctx)
                            follower_cache[key] = fs.cost
                        except FollowerInfeasibleError:
                            # Keeping the exception would keep its
                            # traceback's frames and their LP models alive.
                            follower_cache[key] = None
                    cached = follower_cache[key]
                    if cached is None:
                        infeasible = f"follower {k} infeasible"
                        break
                    opt_costs.append(cached)
                if infeasible is None:
                    stage2 = _second_stage(inst, prices, z, placed, opt_costs)
                    if stage2 is None:
                        infeasible = "no follower-optimal profile fits capacity"
                if infeasible is not None:
                    entry["infeasible"] = infeasible
                    if keep_log:
                        log.append(entry)
                    continue
                net_revenue, followers = stage2
                profit = net_revenue \
                    - float(np.asarray(z, float) @ inst.fixed_cost) \
                    - float((inst.placement_cost * placed).sum())
                entry["profit"] = profit
                if keep_log:
                    log.append(entry)
                sort_key = (levels, z, t_flat)
                if best is None or profit > best[0] + 1e-9 or (
                        abs(profit - best[0]) <= 1e-9 and sort_key < best[1]):
                    ld = LeaderDecision(price_level=np.array(levels),
                                        price=prices,
                                        active=np.array(z),
                                        placed=placed)
                    best = (profit, sort_key, ld, followers)
    if best is None:
        return OracleResult(None, None, None, examined, log)
    return OracleResult(best[0], best[2], best[3], examined, log)


@dataclass
class ComparisonReport:
    oracle_profit: Optional[float]
    milp_profit: Optional[float]
    difference: Optional[float]
    passed: bool
    inconclusive: bool
    detail: str = ""


def compare(oracle_res: OracleResult, milp_profit: Optional[float],
            milp_status: str = lp_core.OPTIMAL) -> ComparisonReport:
    """Status-aware agreement check between oracle and MILP profits."""
    if milp_status == lp_core.GAP_LIMIT:
        return ComparisonReport(oracle_res.profit, milp_profit, None,
                                passed=False, inconclusive=True,
                                detail="MILP stopped at gap limit")
    if not oracle_res.feasible:
        passed = milp_status == lp_core.INFEASIBLE
        return ComparisonReport(None, milp_profit, None, passed, False,
                                detail="oracle found no feasible candidate")
    diff = abs(oracle_res.profit - milp_profit)
    passed = diff <= TOL.objective_match_rel * (1.0 + abs(oracle_res.profit))
    detail = "" if passed else (
        f"oracle decision: {oracle_res.decision}; profits differ by {diff}")
    return ComparisonReport(oracle_res.profit, milp_profit, diff, passed,
                            False, detail)
