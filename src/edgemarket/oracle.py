"""Brute-force bilevel optimum for tiny instances.

Enumerates every discrete leader decision, solves the follower LPs
exactly, resolves follower degeneracy in the leader's favour, and
evaluates the profit. Ground truth for both MILP reformulations.

Each LP is built once per instance, with every EN open and every price
level present: one follower LP per service and one second-stage LP.
Each EN's purchase is split into one column per price level,
``y[j] = sum_v yv[j, v]``, and the spend is
``sum_v price_grid[j, v] * yv[j, v]``. A price vector fixes the columns
of the levels it does not pick at 0, and a placement fixes an unplaced
EN's purchase at 0, so a leader decision reaches HiGHS only as column
bounds, and every solve after an LP's first is a hot re-solve of the
HiGHS instance its model keeps.

Exact repeats are solved once per call. A follower's cost depends only
on its placement row and the prices of the ENs it is placed on, and the
second stage only on the placement and the prices of the ENs that host
any service; activation does not enter it. Both are memoized on exactly
those inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import lp_core
from .follower import FollowerColumns, add_follower_rows
# Unused here, but perfbench/spans.py wraps ``oracle.solve_follower``.
from .follower import solve_follower  # noqa: F401
from .lp_core import LE, EQ, LinearModel
from .model import FollowerSolution, Instance, LeaderDecision
from .tolerances import TOL


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


def _levels_on(levels: tuple, on) -> tuple:
    """``levels`` with the ENs not in ``on`` masked out: the price levels
    an LP can see when only the ENs in ``on`` may carry workload."""
    return tuple(lvl if o else -1 for lvl, o in zip(levels, on))


def _unpicked(yv: np.ndarray, levels: tuple) -> Dict[int, Tuple[float, float]]:
    """Bounds fixing at 0 the per-level columns ``yv[j, v, ...]`` of every
    level ``v`` that is not EN j's pick in ``levels``."""
    unpicked = np.arange(yv.shape[1]) != np.array(levels)[:, None]
    return dict.fromkeys(yv[unpicked].ravel().tolist(), (0.0, 0.0))


class _FollowerCosts:
    """Optimal follower costs, from one LP per service built on its first
    use: the follower LP of ``follower.add_follower_rows`` with every EN
    placed, whose purchase ``y[j]`` is split over the per-level columns
    ``yv[j, v]`` (rows ``split_j``) and whose spend is the revenue column
    (row ``revenue``). A price vector fixes the unpicked levels' columns
    at 0, and an unplaced EN is closed by fixing the service's purchase
    from it at 0, which is the LP with that EN's capacity row at
    right-hand side 0. So the cost sees only the prices of the placed
    ENs, and ``cache`` is keyed on those levels."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.lps: Dict[int, Tuple[LinearModel, np.ndarray, np.ndarray]] = {}
        self.cache: Dict[tuple, Optional[float]] = {}

    def _build(self, k: int) -> Tuple[LinearModel, np.ndarray, np.ndarray]:
        """Service ``k``'s LP, its purchase ids ``y`` (N,) and per-level
        ids ``yv`` (N, V)."""
        inst = self.inst
        M, N, V = inst.num_aps, inst.num_ens, inst.num_price_levels
        m = LinearModel(name=f"follower{k}", sense="min")
        x0, x = m.add_vars("x0", (M,)), m.add_vars("x", (M, N))
        y0, y = m.add_var("y0"), m.add_vars("y", (N,))
        da = m.add_vars("da", (M,))
        yv, rev = m.add_vars("yv", (N, V)), m.add_var("rev")
        cols = FollowerColumns(x0=x0.tolist(), x=x.tolist(), y0=y0,
                               y=y.tolist(), da=da.tolist(), rev=rev)
        add_follower_rows(m, inst, k, cols, prices=None,
                          placed=np.ones(N, dtype=int))
        for j in range(N):
            coeffs = dict.fromkeys(yv[j].tolist(), -1.0)
            coeffs[cols.y[j]] = 1.0
            m.add_constr(coeffs, EQ, 0.0, name=f"split_{j}")
        spend = dict(zip(yv.ravel().tolist(), inst.price_grid.ravel().tolist()))
        m.add_constr({rev: 1.0, **{vid: -p for vid, p in spend.items()}},
                     EQ, 0.0, name="revenue")

        w = inst.delay_weight[k]
        obj = {y0: inst.cloud_price, **spend}
        obj.update(zip(cols.x0, (w * inst.delay_cloud).tolist()))
        obj.update(zip(x.ravel().tolist(),
                       (w * inst.delay_edge).ravel().tolist()))
        m.set_objective(obj)
        return m, y, yv

    def cost(self, k: int, levels: tuple, placed_k: tuple) -> Optional[float]:
        """Service ``k``'s optimal cost under the price levels ``levels``,
        or None when it is infeasible."""
        key = (k, placed_k, _levels_on(levels, placed_k))
        if key not in self.cache:
            if k not in self.lps:
                self.lps[k] = self._build(k)
            lp, y, yv = self.lps[k]
            bounds = _unpicked(yv, levels)
            bounds.update({vid: (0.0, 0.0)
                           for vid, on in zip(y.tolist(), placed_k) if not on})
            sol = lp_core.solve_lp(lp, bounds)
            self.cache[key] = (sol.objective if sol.status == lp_core.OPTIMAL
                               else None)
        return self.cache[key]


class _SecondStage:
    """Among follower-optimal responses, the profile that maximizes the
    leader's revenue minus utilization cost, subject to the shared EN
    capacity, as one LP per instance. Each purchase ``y[j,k]`` is split
    over the per-level columns ``yv[j,v,k]`` (rows ``split_j_k``), which
    carry the prices in the budget and pin rows and in the objective.
    The columns are ``add_vars`` blocks, symbol by symbol and within a
    symbol service by service; ``x0``, ``x``, ``y0``, ``y``, ``yv`` and
    ``cost`` hold their ids, one array per symbol with the service index
    last, as ``_milp_base.MilpLayout`` does.

    A leader decision enters only through column bounds: the price
    vector fixes the unpicked levels' columns at 0; ``y[j,k]`` is capped
    at ``compute_cap[j] * placed[j,k]``; and each service's cost column
    (the pin row reads cost <= that column) at its optimal cost, so
    optimistic resolution may not cost a follower anything. The shared
    capacity row has the constant right-hand side ``compute_cap[j]``,
    which is exact because a service is placed only on an active EN.
    """

    def __init__(self, inst: Instance):
        M, N, K = inst.num_aps, inst.num_ens, inst.num_services
        V = inst.num_price_levels
        self.inst = inst
        m = self.lp = LinearModel(name="second_stage", sense="max")

        def block(prefix: str, shape: tuple, lb: float = 0.0) -> np.ndarray:
            """One ``add_vars`` block per service, in service order; their
            ids with the service index last."""
            return np.stack([m.add_vars(prefix, shape, f"_{k}", lb)
                             for k in range(K)], axis=-1)

        self.x0, self.x = block("x0", (M,)), block("x", (M, N))
        self.y0, self.y = block("y0", ()), block("y", (N,))
        self.yv, self.cost = block("yv", (N, V)), block("cost", (), -math.inf)

        grid = inst.price_grid.ravel().tolist()
        minus_util = (-inst.variable_cost / inst.compute_cap).tolist()
        obj: Dict[int, float] = {}
        for k in range(K):
            x0, x = self.x0[:, k].tolist(), self.x[..., k].tolist()
            y0, y, yv = int(self.y0[k]), self.y[:, k].tolist(), self.yv[..., k]
            spend = dict(zip(yv.ravel().tolist(), grid))
            for j in range(N):
                m.add_constr({**dict.fromkeys(yv[j].tolist(), -1.0),
                              y[j]: 1.0}, EQ, 0.0, name=f"split_{j}_{k}")
            for i in range(M):
                m.add_constr({x0[i]: 1.0, **dict.fromkeys(x[i], 1.0)}, EQ,
                             inst.demand[i, k], name=f"bal_{i}_{k}")
            m.add_constr({**dict.fromkeys(x0, 1.0), y0: -1.0}, LE, 0.0,
                         name=f"cov0_{k}")
            for j in range(N):
                m.add_constr({**dict.fromkeys([row[j] for row in x], 1.0),
                              y[j]: -1.0}, LE, 0.0, name=f"cov_{j}_{k}")
            for i in range(M):
                for j in range(N):
                    m.add_constr({x[i][j]: 1.0}, LE,
                                 inst.eligible[i, j, k] * inst.demand[i, k],
                                 name=f"elig_{i}_{j}_{k}")
            m.add_constr({y0: inst.cloud_price, **spend}, LE, inst.budget[k],
                         name=f"budget_{k}")
            for i in np.flatnonzero(inst.demand[:, k] > 0).tolist():
                m.add_constr({x0[i]: inst.delay_cloud[i],
                              **dict(zip(x[i], inst.delay_edge[i]))}, LE,
                             inst.delay_cap[k] * inst.demand[i, k],
                             name=f"dcap_{i}_{k}")
            w = inst.delay_weight[k]
            pin = {y0: inst.cloud_price, **spend, int(self.cost[k]): -1.0}
            for i in range(M):
                pin[x0[i]] = w * inst.delay_cloud[i]
                pin.update(zip(x[i], w * inst.delay_edge[i]))
            m.add_constr(pin, LE, 0.0, name=f"pin_{k}")
            obj.update(spend)
            obj.update((vid, minus_util[j])
                       for row in x for j, vid in enumerate(row))
        for j in range(N):
            m.add_constr(dict.fromkeys(self.y[j].tolist(), 1.0), LE,
                         inst.compute_cap[j], name=f"encap_{j}")
        m.set_objective(obj)

    def solve(self, levels: tuple, placed: np.ndarray, opt_costs: List[float]
              ) -> Optional[Tuple[float, np.ndarray]]:
        """(leader's net revenue, LP point) for one price vector and
        placement, or None when no follower-optimal profile fits."""
        cap = self.inst.compute_cap
        bounds = _unpicked(self.yv, levels)
        bounds.update({int(vid): (0.0, cap[j] * placed[j, k])
                       for (j, k), vid in np.ndenumerate(self.y)})
        bounds.update({vid: (-math.inf, c)
                       for vid, c in zip(self.cost.tolist(), opt_costs)})
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
    # What every price vector reuses of a placement: each service's
    # placement row, the ENs hosting any service, and the leader's
    # activation and placement costs.
    placements = [(z, t_flat, placed, [tuple(row) for row in placed.T.tolist()],
                   placed.any(axis=1).tolist(),
                   float(np.asarray(z, float) @ inst.fixed_cost),
                   float((inst.placement_cost * placed).sum()))
                  for z, t_flat, placed in _placements(inst)]
    log: List[dict] = []
    best = None  # (profit, LeaderDecision, followers)
    examined = 0
    follower, stage = _FollowerCosts(inst), _SecondStage(inst)
    # Second-stage result by (placement, levels of the hosting ENs).
    responses: Dict[tuple, Optional[Tuple[float, np.ndarray]]] = {}
    for levels in itertools.product(range(V), repeat=N):
        for z, t_flat, placed, rows, hosts, z_cost, t_cost in placements:
            examined += 1
            opt_costs, outcome = [], None
            for k in range(K):
                cost = follower.cost(k, levels, rows[k])
                if cost is None:
                    outcome = {"infeasible": f"follower {k} infeasible"}
                    break
                opt_costs.append(cost)
            if outcome is None:
                key = (t_flat, _levels_on(levels, hosts))
                if key not in responses:
                    responses[key] = stage.solve(levels, placed, opt_costs)
                if responses[key] is None:
                    outcome = {"infeasible":
                               "no follower-optimal profile fits capacity"}
                else:
                    net_revenue, x = responses[key]
                    outcome = {"profit": net_revenue - z_cost - t_cost}
            if keep_log:
                log.append({"levels": levels, "z": z, "t": t_flat, **outcome})
            # Candidates arrive in ascending (levels, z, t) order, so the
            # first of a tie wins: a later candidate replaces the best only
            # by beating its profit by more than 1e-9.
            profit = outcome.get("profit")
            if profit is not None and (best is None
                                       or profit > best[0] + 1e-9):
                ld = LeaderDecision(price_level=np.array(levels),
                                    price=inst.price_grid[range(N), levels],
                                    active=np.array(z), placed=placed)
                best = (profit, ld, stage.followers(x, opt_costs))
    return OracleResult(*(best or (None, None, None)), examined, log)


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
    if milp_profit is None:
        return ComparisonReport(oracle_res.profit, None, None, False, False,
                                detail=f"MILP {milp_status} with no profit; "
                                f"oracle profit {oracle_res.profit}")
    diff = abs(oracle_res.profit - milp_profit)
    passed = diff <= TOL.objective_match_rel * (1.0 + abs(oracle_res.profit))
    detail = "" if passed else (
        f"oracle decision: {oracle_res.decision}; profits differ by {diff}")
    return ComparisonReport(oracle_res.profit, milp_profit, diff, passed,
                            False, detail)
