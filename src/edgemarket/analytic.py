"""Closed-form solver for the single-EN special case.

With one EN, service k's follower problem at EN price p is a continuous
knapsack in x_i, AP i's workload sent to the EN, and X, their sum. Its
cost is a constant plus ``sum_i a_i x_i`` with
``a_i = p - c0 + w (d1_i - d0_i)``; the delay cap, eligibility and
demand bound each x_i in a box, and the EN capacity ``C t`` and the
budget bound X. Filling from the lowest ``a_i`` up is optimal, so the
optimal cost is attained exactly on an interval ``[X_lo, X_hi]`` of X,
whatever binds. An unplaced service is the same knapsack with capacity 0.

The platform enumerates every grid price and every set of services to
place (2^K sets). A set is playable when every service has a response,
the set fits the EN's storage, and ``sum_k X_lo,k <= C``. Every unit
earns the same margin ``p - vc/C``, so the optimistic leader takes
``sum_k X_lo,k`` where that margin is at most 0 and
``min(C, sum_k X_hi,k)`` otherwise, split across services in index
order. Ties go to the first candidate in (grid price, set) order, sets
in ``itertools.product`` order as the oracle's placements: a later one
wins only by more than ``_TOL``. A chosen price at or below the cloud
price is Case 1, where offloading saves money and the budget can only
force workload onto the EN; a higher one is Case 2, where the services
pay a premium for the EN's delay and the budget caps what they offload.

The module reads only ``model``: it writes no LP and shares no rows
with the reformulations, so it stays an independent reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from .model import FollowerSolution, Instance

_TOL = 1e-9


class _Face(NamedTuple):
    """A service's follower-optimal face: ``respond(X)`` is an optimal
    allocation sending X in [lo, hi] to the EN, and its ``cost`` is the
    optimal cost."""
    lo: float
    hi: float
    respond: Callable[[float], FollowerSolution]


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


def _fill(width: np.ndarray, amount: float) -> np.ndarray:
    """``amount`` split over slots of ``width`` in order, each slot
    filled before the next."""
    return np.clip(amount - (np.cumsum(width) - width), 0.0, width)


def _knapsack(inst: Instance, k: int, p: float, cap: float) -> Optional[_Face]:
    """Service k's optimal face at EN price ``p`` and EN capacity ``cap``;
    None when no allocation is feasible."""
    c0, w = inst.cloud_price, inst.delay_weight[k]
    R, d0, d1 = inst.demand[:, k], inst.delay_cloud, inst.delay_edge[:, 0]
    # Delay cap: d0 R + (d1 - d0) x <= cap R, a bound on x on the side
    # of the slower option; with equal delays it is met or infeasible.
    slope, room = d1 - d0, (inst.delay_cap[k] - d0) * R
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = room / slope
    lo = np.where(slope < 0, np.maximum(bound, 0.0), 0.0)
    hi = np.minimum(np.where(slope > 0, bound, R), R * inst.eligible[:, 0, k])
    if np.any(lo > hi + _TOL) or np.any((slope == 0) & (room < -_TOL)):
        return None
    lo = np.minimum(lo, hi)
    # Budget: (p - c0) X <= B - c0 R_total.
    head = inst.budget[k] - c0 * R.sum()
    X_min, X_max = lo.sum(), min(hi.sum(), cap)
    if p > c0:
        X_max = min(X_max, head / (p - c0))
    elif p < c0:
        X_min = max(X_min, head / (p - c0))
    elif head < -_TOL:
        return None
    if X_min > X_max + _TOL:
        return None
    X_max = max(X_max, X_min)

    a = p - c0 + w * slope
    order = np.argsort(a, kind="stable")
    a, width = a[order], (hi - lo)[order]

    def respond(X: float) -> FollowerSolution:
        x = lo.copy()
        x[order] += _fill(width, X - lo.sum())
        x0 = R - x
        da = np.divide(x0 * d0 + x * d1, R, out=np.zeros_like(R), where=R > 0)
        return FollowerSolution(
            x_cloud=x0, x_edge=x[:, None], y_cloud=float(x0.sum()),
            y_edge=np.array([float(x.sum())]), avg_delay=da,
            cost=c0 * float(x0.sum()) + p * float(x.sum())
            + w * float(x0 @ d0 + x @ d1))

    # The cost falls while a_i < 0 and is flat where a_i ties 0.
    return _Face(
        float(np.clip(lo.sum() + width[a < -_TOL].sum(), X_min, X_max)),
        float(np.clip(lo.sum() + width[a <= _TOL].sum(), X_min, X_max)),
        respond)


def follower_best_response_single_en(inst: Instance, k: int, p1: float,
                                     ) -> Optional[FollowerSolution]:
    """Best response of service k when the single EN charges p1 and
    hosts the service, at the least EN workload among the follower's
    optima; None when the response is infeasible."""
    _require_single_en(inst)
    face = _knapsack(inst, k, p1, float(inst.compute_cap[0]))
    return None if face is None else face.respond(face.lo)


def solve_single_en(inst: Instance) -> SingleEnResult:
    """Enumerate every (grid price, set of placed services) candidate in
    that order and return the first of the most profitable playable ones.
    ``per_price`` maps each grid price to the best profit of a playable
    non-empty set there, or to why none is playable. Raises ValueError
    only where N != 1."""
    _require_single_en(inst)
    K, C = inst.num_services, float(inst.compute_cap[0])
    per_price: Dict[float, object] = {}
    best = None   # (profit, price, faces, X, placed)
    for p1 in inst.price_grid[0].tolist():
        margin = p1 - inst.variable_cost[0] / C
        options = {(k, on): _knapsack(inst, k, p1, C * on)
                   for k in range(K) for on in (0, 1)}
        for t in itertools.product((0, 1), repeat=K):
            placed = np.array(t)
            faces = [options[k, on] for k, on in enumerate(t)]
            if (any(f is None for f in faces) or float(
                    inst.service_size @ placed) > inst.storage_cap[0] + _TOL):
                continue
            lo, hi = np.array([(f.lo, f.hi) for f in faces]).T
            if lo.sum() > C + _TOL:
                continue
            X = lo + _fill(hi - lo, 0.0 if margin <= 0
                           else min(C, hi.sum()) - lo.sum())
            profit = (margin * X.sum() - float(inst.placement_cost[0] @ placed)
                      - inst.fixed_cost[0] * any(t))
            if any(t):
                per_price[p1] = max(per_price.get(p1, -np.inf), profit)
            if best is None or profit > best[0] + _TOL:
                best = (profit, p1, faces, X, placed)
        per_price.setdefault(p1, "no playable placement")

    if best is None:
        return SingleEnResult("infeasible", None, None, "infeasible",
                              None, None, per_price)
    profit, price, faces, X, placed = best
    followers = [f.respond(x) for f, x in zip(faces, X)]
    if not placed.any():
        return SingleEnResult("optimal", None, 0.0, "inactive", followers,
                              placed, per_price)
    case = "case1" if price <= inst.cloud_price else "case2"
    return SingleEnResult("optimal", price, profit, case, followers, placed,
                          per_price)
