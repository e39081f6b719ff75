"""Independent check of a returned bilevel optimum.

Written from the problem statement and the instance arrays alone: it
imports nothing from ``edgemarket`` (in particular not ``follower``,
``model.leader_profit`` or ``model.follower_cost``), and writes each
follower LP directly for ``scipy.optimize.linprog``.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

import numpy as np
from scipy.linalg import block_diag
from scipy.optimize import linprog

FEAS_TOL = 1e-6      # absolute, scaled by 1 + |right-hand side|
MATCH_TOL = 1e-6     # relative, scaled by 1 + |value|


def _le(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + FEAS_TOL * (1.0 + abs(rhs))


def _match(a: float, b: float) -> bool:
    return abs(a - b) <= MATCH_TOL * (1.0 + abs(b))


def _follower_block(inst, k: int, prices, placed_k):
    """Service ``k``'s LP at fixed prices and placement, as linprog arrays
    (c, A_ub, b_ub, A_eq, b_eq, bounds).

    Variables: x_cloud (M), x_edge (M*N row-major), y_cloud, y_edge (N).
    The average-delay cap is written as total delay <= cap * demand.
    """
    M, N = inst.num_aps, inst.num_ens
    demand = inst.demand[:, k]
    w = inst.delay_weight[k]
    nx = M + M * N
    n = nx + 1 + N
    c = np.concatenate([w * inst.delay_cloud, w * inst.delay_edge.ravel(),
                        [inst.cloud_price], prices])
    a_eq = np.zeros((M, n))
    a_ub = np.zeros((N + 2 + M, n))
    b_ub = np.zeros(N + 2 + M)
    for i in range(M):
        a_eq[i, i] = 1.0
        a_eq[i, M + i * N:M + (i + 1) * N] = 1.0
    a_ub[0, :M] = 1.0                      # cloud purchase covers workload
    a_ub[0, nx] = -1.0
    for j in range(N):                     # EN purchase covers workload
        a_ub[1 + j, M + j:nx:N] = 1.0
        a_ub[1 + j, nx + 1 + j] = -1.0
    a_ub[N + 1, nx] = inst.cloud_price     # budget
    a_ub[N + 1, nx + 1:] = prices
    b_ub[N + 1] = inst.budget[k]
    for i in range(M):                     # delay cap
        a_ub[N + 2 + i, i] = inst.delay_cloud[i]
        a_ub[N + 2 + i, M + i * N:M + (i + 1) * N] = inst.delay_edge[i]
        b_ub[N + 2 + i] = inst.delay_cap[k] * demand[i]
    bounds = ([(0.0, None)] * M
              + [(0.0, inst.eligible[i, j, k] * demand[i])
                 for i in range(M) for j in range(N)]
              + [(0.0, None)]
              + [(0.0, inst.compute_cap[j] * placed_k[j]) for j in range(N)])
    return c, a_ub, b_ub, a_eq, demand, bounds


def _linprog(c, a_ub, b_ub, a_eq, b_eq, bounds, what):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"checker LP ({what}) failed: {res.message}")
    return res


def follower_lp_cost(inst, k: int, prices, placed_k) -> Optional[float]:
    """Optimal cost of service ``k``'s LP, or None when infeasible."""
    res = _linprog(*_follower_block(inst, k, prices, placed_k),
                   what=f"service {k}")
    return None if res is None else float(res.fun)


def _best_response_profit(inst, prices, active, placed, costs):
    """Leader's best profit over follower-optimal responses that fit the
    shared EN capacity (optimistic tie-breaking), or None."""
    M, N, K = inst.num_aps, inst.num_ens, inst.num_services
    blocks = [_follower_block(inst, k, prices, placed[:, k]) for k in range(K)]
    n_k = blocks[0][0].size
    util = inst.variable_cost / inst.compute_cap
    c = np.tile(np.concatenate([np.zeros(M), np.tile(util, M), [0.0],
                                -prices]), K)
    # Each service's rows plus its cost pinned to its own optimum, then
    # the shared EN capacity rows.
    a_ub = np.vstack([
        block_diag(*[np.vstack([a, ck]) for ck, a, *_ in blocks]),
        np.tile(np.hstack([np.zeros((N, n_k - N)), np.eye(N)]), K)])
    a_eq = block_diag(*[blk[3] for blk in blocks])
    b_eq = np.concatenate([blk[4] for blk in blocks])
    bounds = [bound for blk in blocks for bound in blk[5]]
    # An exact pin keeps the profit exact (a slack lets the leader gain
    # slack times the pin's multiplier); a pin that round-off makes
    # infeasible is retried with a slack of 1e-9 of the cost.
    for slack in (0.0, 1e-9):
        b_ub = np.concatenate(
            [np.append(b, cost + slack * (1.0 + abs(cost)))
             for (_, _, b, *_), cost in zip(blocks, costs)]
            + [inst.compute_cap * active])
        res = _linprog(c, a_ub, b_ub, a_eq, b_eq, bounds,
                       what="best response")
        if res is not None:
            break
    else:
        return None
    return (-float(res.fun) - float(inst.fixed_cost @ active)
            - float((inst.placement_cost * placed).sum()))


def enumerate_optimum(inst) -> Optional[float]:
    """Bilevel optimum of a tiny instance by exhaustive enumeration of the
    leader's price levels, activation and placement; None if no leader
    decision admits a follower response. Independent of the package's
    oracle: every LP is written here."""
    N, K, V = inst.num_ens, inst.num_services, inst.num_price_levels
    best = None
    cost_cache = {}
    for z in itertools.product((0, 1), repeat=N):
        active = np.array(z)
        for t in itertools.product((0, 1), repeat=N * K):
            placed = np.array(t).reshape(N, K)
            if np.any(placed > active[:, None]) or np.any(
                    placed @ inst.service_size > inst.storage_cap * active):
                continue
            for levels in itertools.product(range(V), repeat=N):
                prices = inst.price_grid[np.arange(N), list(levels)]
                costs = []
                for k in range(K):
                    key = (k, levels, tuple(placed[:, k]))
                    if key not in cost_cache:
                        cost_cache[key] = follower_lp_cost(inst, k, prices,
                                                           placed[:, k])
                    costs.append(cost_cache[key])
                if any(cost is None for cost in costs):
                    continue
                profit = _best_response_profit(inst, prices, active, placed,
                                               costs)
                if profit is not None and (best is None or profit > best):
                    best = profit
    return best


def _follower_problems(inst, k: int, prices, placed_k, fs) -> List[str]:
    """Feasibility of one returned allocation for service ``k``'s LP."""
    M, N = inst.num_aps, inst.num_ens
    d = inst.demand[:, k]
    x0, x = np.asarray(fs.x_cloud, float), np.asarray(fs.x_edge, float)
    y0, y = float(fs.y_cloud), np.asarray(fs.y_edge, float)
    if x0.shape != (M,) or x.shape != (M, N) or y.shape != (N,):
        return [f"service {k}: allocation has the wrong shape"]
    bad = []
    if min(x0.min(initial=0.0), x.min(initial=0.0), y0,
           y.min(initial=0.0)) < -FEAS_TOL:
        bad.append(f"service {k}: negative allocation")
    for i in range(M):
        if not _match(x0[i] + x[i].sum(), d[i]):
            bad.append(f"service {k}: AP {i} demand not met")
        if not _le(inst.delay_cloud[i] * x0[i] + inst.delay_edge[i] @ x[i],
                   inst.delay_cap[k] * d[i]):
            bad.append(f"service {k}: AP {i} over its delay cap")
        for j in range(N):
            if not _le(x[i, j], inst.eligible[i, j, k] * d[i]):
                bad.append(f"service {k}: AP {i} uses ineligible EN {j}")
    if not _le(x0.sum(), y0):
        bad.append(f"service {k}: cloud workload exceeds cloud purchase")
    for j in range(N):
        if not _le(x[:, j].sum(), y[j]):
            bad.append(f"service {k}: EN {j} workload exceeds purchase")
        if not _le(y[j], inst.compute_cap[j] * placed_k[j]):
            bad.append(f"service {k}: EN {j} purchase without placement "
                       "or over capacity")
    if not _le(inst.cloud_price * y0 + prices @ y, inst.budget[k]):
        bad.append(f"service {k}: over budget")
    return bad


def check_optimum(inst, leader, followers, profit: float,
                  scheme: str = "dyn") -> List[str]:
    """Problems found in a returned optimum; empty when it checks out.

    Checks that the leader decision is feasible (one grid price per EN,
    the scheme's price rule, placement only on active ENs, storage,
    shared EN capacity), that each allocation is feasible for its
    service, that each service's cost equals its LP optimum, and that the
    profit recomputed from the instance arrays equals ``profit``.
    """
    N, K, V = inst.num_ens, inst.num_services, inst.num_price_levels
    level = np.asarray(leader.price_level)
    prices = np.asarray(leader.price, float)
    active = np.asarray(leader.active)
    placed = np.asarray(leader.placed)
    if (level.shape != (N,) or prices.shape != (N,) or active.shape != (N,)
            or placed.shape != (N, K) or len(followers) != K):
        return ["decision has the wrong shape"]
    bad = []
    if not np.all((0 <= level) & (level < V)):
        return [f"price level out of range: {level.tolist()}"]
    if not np.array_equal(prices, inst.price_grid[np.arange(N), level]):
        bad.append("prices are not the grid points of the chosen levels")
    if scheme == "flat" and np.ptp(prices) != 0.0:
        bad.append(f"flat scheme charges several prices: {prices.tolist()}")
    if scheme == "avg" and not np.allclose(prices, inst.price_grid.mean(axis=1),
                                           rtol=0.0, atol=1e-12):
        bad.append(f"avg scheme does not charge the grid mean: "
                   f"{prices.tolist()}")
    if not np.isin(active, (0, 1)).all() or not np.isin(placed, (0, 1)).all():
        bad.append("activation or placement is not binary")
    if np.any(placed > active[:, None]):
        bad.append("service placed on an inactive EN")
    if np.any(placed @ inst.service_size > inst.storage_cap * active + 1e-9):
        bad.append("EN storage exceeded")
    for k, fs in enumerate(followers):
        bad += _follower_problems(inst, k, prices, placed[:, k], fs)
    if bad:
        return bad

    y_edge = np.array([fs.y_edge for fs in followers])           # (K, N)
    x_edge = np.array([fs.x_edge for fs in followers])           # (K, M, N)
    for j in range(N):
        if not _le(y_edge[:, j].sum(), inst.compute_cap[j] * active[j]):
            bad.append(f"EN {j}: shared capacity exceeded")
    load = x_edge.sum(axis=(0, 1))
    recomputed = (float((y_edge @ prices).sum())
                  - float(inst.fixed_cost @ active)
                  - float(inst.variable_cost @ (load / inst.compute_cap))
                  - float((inst.placement_cost * placed).sum()))
    if not _match(profit, recomputed):
        bad.append(f"profit {float(profit)!r} != {recomputed!r} recomputed "
                   "from the instance")

    for k, fs in enumerate(followers):
        w = inst.delay_weight[k]
        cost = float(inst.cloud_price * fs.y_cloud + prices @ fs.y_edge
                     + w * (inst.delay_cloud @ fs.x_cloud
                            + (inst.delay_edge * fs.x_edge).sum()))
        best = follower_lp_cost(inst, k, prices, placed[:, k])
        if best is None:
            bad.append(f"service {k}: its LP is infeasible at this decision")
            continue
        if not _match(cost, best):
            bad.append(f"service {k}: allocation costs {cost!r}, "
                       f"its LP optimum is {best!r}")
        if not _match(float(fs.cost), best):
            bad.append(f"service {k}: reported cost {float(fs.cost)!r}, "
                       f"its LP optimum is {best!r}")
    return bad
