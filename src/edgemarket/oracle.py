"""Brute-force bilevel optimum for tiny instances.

Enumerates every discrete leader decision, solves the follower LPs
exactly, resolves follower degeneracy in the leader's favour, and
evaluates the profit. Ground truth for both MILP reformulations.

Price vectors are enumerated outermost. Under one price vector each LP
is built once with every EN open: one follower LP per service and one
second-stage LP. A leader candidate (activation and placement) then
changes only column bounds, so every LP after the first is a hot
re-solve of the HiGHS instance its model keeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import lp_core
from .follower import FollowerContext, FollowerLayout, build_follower_lp
# Unused here, but perfbench/spans.py wraps ``oracle.solve_follower``.
from .follower import solve_follower  # noqa: F401
from .lp_core import LE, EQ, LinearModel
from .model import FollowerSolution, Instance, LeaderDecision
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


class _FollowerCosts:
    """Optimal follower costs under one price vector. Each service's LP
    is built once with every EN placed; an unplaced EN is closed by
    fixing the service's purchase from it to 0, which is the LP with
    that EN's capacity row at right-hand side 0."""

    def __init__(self, inst: Instance, prices: np.ndarray):
        N = inst.num_ens
        open_all = np.ones(N, dtype=int)
        self.lps = [build_follower_lp(FollowerContext(inst, k, prices, open_all))
                    for k in range(inst.num_services)]
        lay = FollowerLayout(inst.num_aps, N)
        self.y_edge = [lay.y_edge(j) for j in range(N)]
        self.cache: Dict[Tuple[int, tuple], Optional[float]] = {}

    def cost(self, k: int, placed_k: tuple) -> Optional[float]:
        """Service ``k``'s optimal cost, or None when it is infeasible."""
        key = (k, placed_k)
        if key not in self.cache:
            closed = {vid: (0.0, 0.0)
                      for vid, on in zip(self.y_edge, placed_k) if not on}
            sol = lp_core.solve_lp(self.lps[k], closed)
            self.cache[key] = (sol.objective if sol.status == lp_core.OPTIMAL
                               else None)
        return self.cache[key]


class _SecondStage:
    """Among follower-optimal responses, the profile that maximizes the
    leader's revenue minus utilization cost, subject to the shared EN
    capacity, as one LP per price vector.

    A candidate enters only through column bounds: ``y[j,k]`` is capped
    at ``compute_cap[j] * placed[j,k]``, and each service's cost column
    (the pin row reads cost <= that column) at its optimal cost, so
    optimistic resolution may not cost a follower anything. The shared
    capacity row has the constant right-hand side ``compute_cap[j]``,
    which is exact because a service is placed only on an active EN.
    """

    def __init__(self, inst: Instance, prices: np.ndarray):
        M, N, K = inst.num_aps, inst.num_ens, inst.num_services
        self.inst = inst
        m = self.lp = LinearModel(name="second_stage", sense="max")
        x0 = {(i, k): m.add_var(f"x0_{i}_{k}") for k in range(K) for i in range(M)}
        x = {(i, j, k): m.add_var(f"x_{i}_{j}_{k}")
             for k in range(K) for i in range(M) for j in range(N)}
        y0 = {k: m.add_var(f"y0_{k}") for k in range(K)}
        y = {(j, k): m.add_var(f"y_{j}_{k}", ub=inst.compute_cap[j])
             for k in range(K) for j in range(N)}
        cost_col = [m.add_var(f"cost_{k}", lb=-math.inf) for k in range(K)]

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
            cost = {y0[k]: inst.cloud_price, cost_col[k]: -1.0}
            for j in range(N):
                cost[y[j, k]] = prices[j]
            for i in range(M):
                cost[x0[i, k]] = w * inst.delay_cloud[i]
                for j in range(N):
                    cost[x[i, j, k]] = w * inst.delay_edge[i, j]
            m.add_constr(cost, LE, 0.0, name=f"pin_{k}")
        for j in range(N):
            coeffs = {y[j, k]: 1.0 for k in range(K)}
            m.add_constr(coeffs, LE, inst.compute_cap[j], name=f"encap_{j}")

        obj: Dict[int, float] = {}
        for k in range(K):
            for j in range(N):
                obj[y[j, k]] = prices[j]
            for i in range(M):
                for j in range(N):
                    obj[x[i, j, k]] = obj.get(x[i, j, k], 0.0) \
                        - inst.variable_cost[j] / inst.compute_cap[j]
        m.set_objective(obj)
        self.x0 = np.array([[x0[i, k] for k in range(K)] for i in range(M)])
        self.x = np.array([[[x[i, j, k] for k in range(K)] for j in range(N)]
                           for i in range(M)])
        self.y0 = np.array([y0[k] for k in range(K)])
        self.y = np.array([[y[j, k] for k in range(K)] for j in range(N)])
        self.cost_col = cost_col

    def solve(self, placed: np.ndarray, opt_costs: List[float]
              ) -> Optional[Tuple[float, np.ndarray]]:
        """(leader's net revenue, LP point) for one placement, or None
        when no follower-optimal profile fits."""
        cap = self.inst.compute_cap
        bounds = {int(vid): (0.0, cap[j] * placed[j, k])
                  for (j, k), vid in np.ndenumerate(self.y)}
        bounds.update({vid: (-math.inf, c)
                       for vid, c in zip(self.cost_col, opt_costs)})
        sol = lp_core.solve_lp(self.lp, bounds)
        if sol.status == lp_core.INFEASIBLE:
            # The exact pin can be infeasible by LP round-off alone.
            bounds.update({vid: (-math.inf, c + _COST_PIN_SLACK * (1 + abs(c)))
                           for vid, c in zip(self.cost_col, opt_costs)})
            sol = lp_core.solve_lp(self.lp, bounds)
        if sol.status != lp_core.OPTIMAL:
            return None
        return sol.objective, sol.x

    def followers(self, x: np.ndarray, opt_costs: List[float]
                  ) -> List[FollowerSolution]:
        """Each service's allocation at the LP point ``x``."""
        inst = self.inst
        out = []
        for k, cost in enumerate(opt_costs):
            fs = FollowerSolution(x_cloud=x[self.x0[:, k]],
                                  x_edge=x[self.x[:, :, k]],
                                  y_cloud=float(x[self.y0[k]]),
                                  y_edge=x[self.y[:, k]],
                                  avg_delay=np.zeros(inst.num_aps), cost=cost)
            with np.errstate(divide="ignore", invalid="ignore"):
                tot = (fs.x_cloud * inst.delay_cloud
                       + (fs.x_edge * inst.delay_edge).sum(axis=1))
                fs.avg_delay = np.where(inst.demand[:, k] > 0,
                                        tot / np.maximum(inst.demand[:, k], 1e-300),
                                        0.0)
            out.append(fs)
        return out


def _placements(inst: Instance):
    """Every admissible (activation, placement) pair: services only on
    active ENs, within each EN's storage."""
    N, K = inst.num_ens, inst.num_services
    for z in itertools.product((0, 1), repeat=N):
        for t_flat in itertools.product((0, 1), repeat=N * K):
            placed = np.array(t_flat, int).reshape(N, K)
            if any(placed[j, k] > z[j] for j in range(N) for k in range(K)):
                continue
            if any((placed[j] * inst.service_size).sum()
                   > inst.storage_cap[j] * z[j] + 1e-12 for j in range(N)):
                continue
            yield z, t_flat, placed


def brute_force_bilevel(inst: Instance, max_candidates: int = 200_000,
                        keep_log: bool = True) -> OracleResult:
    """Exhaustive search over (price level vector, activation, placement)
    with exact follower resolution; refuses oversized instances."""
    count = _candidate_count(inst)
    if count > max_candidates:
        raise ValueError(f"instance requires {count} candidates, "
                         f"budget is {max_candidates}")
    N, K, V = inst.num_ens, inst.num_services, inst.num_price_levels
    placements = list(_placements(inst))
    log: List[dict] = []
    best = None  # (profit, sort_key, LeaderDecision, followers)
    examined = 0
    for levels in itertools.product(range(V), repeat=N):
        prices = np.array([inst.price_grid[j, levels[j]] for j in range(N)])
        # Only this price vector's K + 1 models are alive at a time.
        follower = _FollowerCosts(inst, prices)
        stage = _SecondStage(inst, prices)
        for z, t_flat, placed in placements:
            examined += 1
            entry = {"levels": levels, "z": z, "t": t_flat}
            opt_costs = []
            infeasible = None
            for k in range(K):
                cost = follower.cost(k, tuple(placed[:, k]))
                if cost is None:
                    infeasible = f"follower {k} infeasible"
                    break
                opt_costs.append(cost)
            if infeasible is None:
                stage2 = stage.solve(placed, opt_costs)
                if stage2 is None:
                    infeasible = "no follower-optimal profile fits capacity"
            if infeasible is not None:
                entry["infeasible"] = infeasible
                if keep_log:
                    log.append(entry)
                continue
            net_revenue, x = stage2
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
                best = (profit, sort_key, ld, stage.followers(x, opt_costs))
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
