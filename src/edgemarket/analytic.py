"""Closed-form solver for the single-EN special case.

With one EN, a service's best response has a greedy closed form, so the
platform enumerates every grid price and every set of services to place
(2^K sets). A placed service answers greedily, an unplaced one with the
all-cloud response; a set is playable when every response exists and
the placed services fit within the EN's storage and capacity. Ties go to
the first candidate in (grid price, set) order, sets in
``itertools.product`` order as the oracle's placements: a later one wins
only by more than ``_TOL``. A chosen price at or below the cloud price
attracts all eligible workload (Case 1); a higher one only APs whose
delay saving beats the premium, capped by the budget (Case 2).

The greedy response is exact only where no delay cap or budget can bind
against it; ``solve_single_en`` checks that scope on entry, from the
data alone, and raises ``ValueError`` outside it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .model import FollowerSolution, Instance

_TOL = 1e-9


@dataclass
class SingleEnResult:
    status: str                      # "optimal" or "infeasible"
    price: Optional[float]
    profit: Optional[float]
    case: str                        # case1 | case2 | inactive | infeasible
    followers: Optional[List[FollowerSolution]]
    placed: Optional[np.ndarray]     # (K,)
    per_price: Dict[float, object] = field(default_factory=dict)


def _require_single_en(inst: Instance):
    if inst.num_ens != 1:
        raise ValueError(f"analytic solver requires N=1, got {inst.num_ens}")


def _require_greedy_scope(inst: Instance):
    """Raise ValueError where a greedy response may not be the follower's
    optimum: an AP with demand whose cloud or eligible EN delay misses
    the service's delay cap, so that the cap may force a split; or a grid
    price below the cloud price while some service cannot afford the
    all-cloud response, so that the budget may force an offload."""
    _require_single_en(inst)
    misses = (inst.delay_cloud[:, None] > inst.delay_cap + _TOL) | (
        (inst.eligible[:, 0, :] > 0)
        & (inst.delay_edge[:, [0]] > inst.delay_cap + _TOL))
    bad = np.argwhere((inst.demand > 0) & misses)
    if bad.size:
        i, k = bad[0]
        raise ValueError(f"closed form out of scope: AP {i} misses the delay "
                         f"cap of service {k} on the cloud or its EN")
    broke = np.flatnonzero(inst.cloud_price * inst.demand.sum(axis=0)
                           > inst.budget + _TOL)
    if broke.size and np.any(inst.price_grid[0] < inst.cloud_price):
        raise ValueError(f"closed form out of scope: service {broke[0]} "
                         "cannot afford the cloud and a grid price is below it")


def _cloud_solution(inst: Instance, k: int) -> Optional[FollowerSolution]:
    """All-cloud response; None when it exceeds the budget. The scope
    check has already refused a cloud delay above a delay cap."""
    R = inst.demand[:, k]
    total = float(R.sum())
    if inst.cloud_price * total > inst.budget[k] + _TOL:
        return None
    fs = FollowerSolution(
        x_cloud=R.copy(), x_edge=np.zeros((inst.num_aps, 1)),
        y_cloud=total, y_edge=np.zeros(1),
        avg_delay=np.where(R > 0, inst.delay_cloud, 0.0), cost=0.0)
    fs.cost = (inst.cloud_price * total
               + inst.delay_weight[k] * float(R @ inst.delay_cloud))
    return fs


def follower_best_response_single_en(inst: Instance, k: int, p1: float,
                                     ) -> Optional[FollowerSolution]:
    """Greedy best response of service k when the single EN charges p1
    and hosts the service; None when the response is infeasible.

    The per-unit saving of moving AP i's workload to the EN is
    w*(d0_i - d1_i) - (p1 - p0); offloading strictly-positive savers in
    descending order, capped by the EN capacity and (when p1 > p0) by
    the budget headroom, is the exact continuous-knapsack optimum within
    the scope ``solve_single_en`` checks.
    """
    _require_single_en(inst)
    p0, w = inst.cloud_price, inst.delay_weight[k]
    R = inst.demand[:, k]
    d1 = inst.delay_edge[:, 0]
    elig = inst.eligible[:, 0, k]
    total = float(R.sum())
    M = inst.num_aps
    premium = p1 - p0

    remaining = float(inst.compute_cap[0])
    if premium > _TOL:
        if p0 * total > inst.budget[k] + _TOL:
            # Offloading only raises spend: the cloud fallback is the
            # cheapest allocation, and even it is unaffordable.
            return None
        remaining = min(remaining, (inst.budget[k] - p0 * total) / premium)
    saving = w * (inst.delay_cloud - d1) - premium
    x_edge = np.zeros(M)
    for i in sorted(range(M), key=lambda i: (-saving[i], i)):
        if remaining <= _TOL:
            break
        if not elig[i] or R[i] <= 0 or saving[i] <= _TOL:
            continue
        x_edge[i] = min(R[i], remaining)
        remaining -= x_edge[i]
    x_cloud = R - x_edge
    spend = p0 * float(x_cloud.sum()) + p1 * float(x_edge.sum())
    if spend > inst.budget[k] + _TOL:
        return None
    with np.errstate(invalid="ignore"):
        da = np.where(R > 0,
                      (x_cloud * inst.delay_cloud + x_edge * d1)
                      / np.maximum(R, 1e-300), 0.0)
    if np.any(da > inst.delay_cap[k] + _TOL):
        return None
    fs = FollowerSolution(
        x_cloud=x_cloud, x_edge=x_edge.reshape(M, 1),
        y_cloud=float(x_cloud.sum()), y_edge=np.array([float(x_edge.sum())]),
        avg_delay=da, cost=0.0)
    fs.cost = spend + w * float(x_cloud @ inst.delay_cloud + x_edge @ d1)
    return fs


def solve_single_en(inst: Instance) -> SingleEnResult:
    """Enumerate every (grid price, set of placed services) candidate in
    that order and return the first of the most profitable playable ones.
    ``per_price`` maps each grid price to the best profit of a playable
    non-empty set there, or to why none is playable. Raises ValueError
    outside the scope in which the greedy response is exact."""
    _require_greedy_scope(inst)
    K = inst.num_services
    cloud = [_cloud_solution(inst, k) for k in range(K)]
    per_price: Dict[float, object] = {}
    best = None   # (profit, price, followers, placed)
    for p1 in inst.price_grid[0].tolist():
        edge = [follower_best_response_single_en(inst, k, p1)
                for k in range(K)]
        for t in itertools.product((0, 1), repeat=K):
            placed = np.array(t)
            followers = [e if on else c for e, c, on in zip(edge, cloud, t)]
            if any(fs is None for fs in followers):
                continue
            load = sum(fs.y_edge[0] for fs in followers)
            if (float(inst.service_size @ placed) > inst.storage_cap[0] + _TOL
                    or load > inst.compute_cap[0] + _TOL):
                continue
            profit = (p1 * load
                      - inst.variable_cost[0] * load / inst.compute_cap[0]
                      - float(inst.placement_cost[0] @ placed)
                      - inst.fixed_cost[0] * any(t))
            if any(t):
                per_price[p1] = max(per_price.get(p1, -np.inf), profit)
            if best is None or profit > best[0] + _TOL:
                best = (profit, p1, followers, placed)
        per_price.setdefault(p1, "no playable placement")

    if best is None:
        return SingleEnResult("infeasible", None, None, "infeasible",
                              None, None, per_price)
    profit, price, followers, placed = best
    if not placed.any():
        return SingleEnResult("optimal", None, 0.0, "inactive", followers,
                              placed, per_price)
    case = "case1" if price <= inst.cloud_price else "case2"
    return SingleEnResult("optimal", price, profit, case, followers, placed,
                          per_price)
