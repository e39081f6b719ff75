"""Per-service follower problem: LP builder, explicit dual, and the
strong-duality / complementarity checks both reformulations rest on.

Given fixed prices and placement, each service solves a small LP that
splits its workload between the cloud and the ENs hosting it. Its
primal rows are written by ``add_follower_rows`` alone, for the follower
LP here (constant prices and placement) and for both MILPs (prices
through the revenue column, placement through the binaries ``t``).
``build_follower_dual`` writes the dual on its own, apart from the
MILPs' ``_milp_base.add_dual_rows``, because it is the reference the
multipliers are tested against. Both builders create their columns with
``LinearModel.add_vars`` and return the ids with the model, as
``build_p1`` and ``build_p2`` return their layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import lp_core
from .lp_core import LE, EQ, LinearModel
from .model import DualSolution, FollowerSolution, Instance
from .tolerances import TOL


class FollowerInfeasibleError(Exception):
    """Raised when a follower LP has no feasible allocation."""

    def __init__(self, k: int, family: str, detail: str = ""):
        self.k = k
        self.family = family
        super().__init__(f"follower {k} infeasible (cause: {family})"
                         + (f": {detail}" if detail else ""))


@dataclass(frozen=True)
class FollowerContext:
    """Fixed leader data seen by one service: prices and its placement row."""

    inst: Instance
    k: int
    prices: np.ndarray   # (N,)
    placed: np.ndarray   # (N,) binary

    def __post_init__(self):
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        object.__setattr__(self, "placed", np.asarray(self.placed, dtype=int))
        N = self.inst.num_ens
        if self.prices.shape != (N,) or self.placed.shape != (N,):
            raise ValueError("prices/placed must have one entry per EN")


@dataclass(frozen=True)
class FollowerColumns:
    """Column ids of one service's primal variables in a model. In the
    MILP the service also has its revenue column ``rev`` and its
    placement binaries ``t``; the follower LP has neither."""

    x0: Sequence[int]              # (M,) cloud allocation per AP
    x: Sequence[Sequence[int]]     # (M, N) edge allocation
    y0: int                        # cloud procurement
    y: Sequence[int]               # (N,) edge procurement
    da: Sequence[int]              # (M,) average delay per AP
    rev: Optional[int] = None
    t: Optional[Sequence[int]] = None


def add_follower_rows(m: LinearModel, inst: Instance, k: int,
                      cols: FollowerColumns,
                      prices: Optional[np.ndarray],
                      placed: Optional[np.ndarray]) -> None:
    """Write service ``k``'s primal feasibility rows into ``m``, in the
    order ``bal, cov0, cov, cap, elig, ddef, dcap, budget``.

    ``prices`` are constant edge prices, which put ``prices @ y`` into the
    budget row; without them the revenue column ``cols.rev`` stands for
    that spend. ``placed`` is a constant 0/1 placement, which gives the
    capacity row the right-hand side ``cap * placed``; without it the
    placement binaries enter the row as ``-cap * t``.
    """
    M, N = inst.num_aps, inst.num_ens
    for i in range(M):
        coeffs = {cols.x0[i]: 1.0}
        for j in range(N):
            coeffs[cols.x[i][j]] = 1.0
        m.add_constr(coeffs, EQ, inst.demand[i, k], name=f"bal_{i}_{k}")
    coeffs = {cols.x0[i]: 1.0 for i in range(M)}
    coeffs[cols.y0] = -1.0
    m.add_constr(coeffs, LE, 0.0, name=f"cov0_{k}")
    for j in range(N):
        coeffs = {cols.x[i][j]: 1.0 for i in range(M)}
        coeffs[cols.y[j]] = -1.0
        m.add_constr(coeffs, LE, 0.0, name=f"cov_{j}_{k}")
    for j in range(N):
        cap = inst.compute_cap[j]
        if placed is None:
            m.add_constr({cols.y[j]: 1.0, cols.t[j]: -cap}, LE, 0.0,
                         name=f"cap_{j}_{k}")
        else:
            m.add_constr({cols.y[j]: 1.0}, LE, cap * placed[j],
                         name=f"cap_{j}_{k}")
    for i in range(M):
        for j in range(N):
            m.add_constr({cols.x[i][j]: 1.0}, LE,
                         inst.eligible[i, j, k] * inst.demand[i, k],
                         name=f"elig_{i}_{j}_{k}")
    for i in range(M):
        coeffs = {cols.x0[i]: inst.delay_cloud[i]}
        for j in range(N):
            coeffs[cols.x[i][j]] = inst.delay_edge[i, j]
        coeffs[cols.da[i]] = -inst.demand[i, k]
        m.add_constr(coeffs, EQ, 0.0, name=f"ddef_{i}_{k}")
    for i in range(M):
        m.add_constr({cols.da[i]: 1.0}, LE, inst.delay_cap[k],
                     name=f"dcap_{i}_{k}")
    spend = ({cols.rev: 1.0} if prices is None
             else {cols.y[j]: prices[j] for j in range(N)})
    m.add_constr({cols.y0: inst.cloud_price, **spend}, LE, inst.budget[k],
                 name=f"budget_{k}")


def build_follower_lp(ctx: FollowerContext) -> Tuple[LinearModel,
                                                      FollowerColumns]:
    """Cost-minimization LP of one service for fixed prices/placement,
    and the ids of its columns ``x0, x, y0, y, da``."""
    inst, k = ctx.inst, ctx.k
    M, N = inst.num_aps, inst.num_ens
    m = LinearModel(name=f"follower{k}", sense="min")
    x0, x = m.add_vars("x0", (M,)), m.add_vars("x", (M, N))
    y0, y = m.add_var("y0"), m.add_vars("y", (N,))
    da = m.add_vars("da", (M,))
    cols = FollowerColumns(x0=x0.tolist(), x=x.tolist(), y0=y0, y=y.tolist(),
                           da=da.tolist())
    add_follower_rows(m, inst, k, cols, prices=ctx.prices, placed=ctx.placed)

    w = inst.delay_weight[k]
    obj = {y0: inst.cloud_price, **dict(zip(cols.y, ctx.prices))}
    obj.update(zip(cols.x0, w * inst.delay_cloud))
    obj.update(zip(x.ravel().tolist(), (w * inst.delay_edge).ravel()))
    m.set_objective(obj)
    return m, cols


def build_follower_dual(ctx: FollowerContext) -> Tuple[LinearModel, dict]:
    """Explicit dual of the follower LP, written constraint-for-constraint
    in the same form both MILP reformulations embed, and the ids of its
    columns: one index array (an int for ``mu1`` and ``mu2``) per field of
    ``DualSolution``. A solved point ``x`` reads as
    ``DualSolution(**{n: x[ids[n]] for n in ids})``."""
    inst, k = ctx.inst, ctx.k
    M, N = inst.num_aps, inst.num_ens
    m = LinearModel(name=f"follower{k}_dual", sense="max")
    free = -math.inf
    xi = m.add_vars("xi", (M,), lb=free)
    sigma = m.add_vars("sigma", (M,), lb=free)
    tau, mu1, mu2 = m.add_vars("tau", (M,)), m.add_var("mu1"), m.add_var("mu2")
    lam, gamma = m.add_vars("lam", (N,)), m.add_vars("gamma", (N,))
    eta, zeta = m.add_vars("eta", (M, N)), m.add_vars("zeta", (M,))
    eps = m.add_vars("eps", (M, N))
    ids = dict(xi=xi, sigma=sigma, tau=tau, mu1=mu1, mu2=mu2, lam=lam,
               gamma=gamma, eta=eta, zeta=zeta, eps=eps)

    w = inst.delay_weight[k]
    for j in range(N):
        m.add_constr({lam[j]: 1.0, gamma[j]: -1.0, mu2: -ctx.prices[j]},
                     LE, ctx.prices[j], name=f"dy_{j}")
    m.add_constr({mu1: 1.0, mu2: -inst.cloud_price}, LE, inst.cloud_price,
                 name="dy0")
    for i in range(M):
        m.add_constr({sigma[i]: -inst.demand[i, k], tau[i]: -1.0}, LE, 0.0,
                     name=f"dda_{i}")
    for i in range(M):
        for j in range(N):
            m.add_constr({xi[i]: 1.0, sigma[i]: inst.delay_edge[i, j],
                          lam[j]: -1.0, eta[i, j]: -1.0, eps[i, j]: 1.0}, LE,
                         w * inst.delay_edge[i, j], name=f"dx_{i}_{j}")
    for i in range(M):
        m.add_constr({xi[i]: 1.0, sigma[i]: inst.delay_cloud[i], mu1: -1.0,
                      zeta[i]: 1.0}, LE, w * inst.delay_cloud[i],
                     name=f"dx0_{i}")

    obj: Dict[int, float] = {}
    for i in range(M):
        obj[xi[i]] = inst.demand[i, k]
        obj[tau[i]] = -float(inst.delay_cap[k])
        for j in range(N):
            obj[eta[i, j]] = -inst.demand[i, k] * inst.eligible[i, j, k]
    for j in range(N):
        obj[gamma[j]] = -inst.compute_cap[j] * ctx.placed[j]
    obj[mu2] = -float(inst.budget[k])
    m.set_objective(obj)
    return m, ids


_FAMILIES = ("delay cap", "budget", "capacity", "eligibility",
             "procurement coverage", "delay definition", "demand balance")
# The service's own limits, lifted one at a time to find what made the
# LP infeasible. The other families are structural: without the demand
# balance, say, an empty allocation meets every row, so lifting one
# would always restore feasibility and name nothing.
_LIMITS = _FAMILIES[:4]
_FAMILY_OF_PREFIX = {"bal": "demand balance", "cov": "procurement coverage",
                     "cov0": "procurement coverage", "cap": "capacity",
                     "elig": "eligibility", "budget": "budget",
                     "ddef": "delay definition", "dcap": "delay cap"}


def _infeasible_family(primal: LinearModel) -> str:
    """The row family that makes the follower LP ``primal`` infeasible:
    the first of ``_LIMITS`` whose rows, lifted alone, make it feasible.
    Where no one limit does, the family that carries the most of the
    least total row violation (HiGHS's feasibility relaxation), a tie
    going to the first in ``_FAMILIES``, or "unknown" if HiGHS fails.
    The relaxation alone weighs a unit of workload, a ms of delay and a
    unit of money alike, so it named the demand balance where a delay
    cap was the cause."""
    family_of = [_FAMILY_OF_PREFIX[row.name.split("_")[0]]
                 for row in primal.constraints]
    first = lp_core.first_feasible_lift(
        primal, [[row for row, f in enumerate(family_of) if f == family]
                 for family in _LIMITS])
    if first is not None:
        return _LIMITS[first]
    gaps = lp_core.row_violations(primal)
    if gaps is None:
        return "unknown"
    totals = dict.fromkeys(_FAMILIES, 0.0)
    for family, gap in zip(family_of, gaps.tolist()):
        totals[family] += gap
    return max(totals, key=totals.get)


def solve_follower(ctx: FollowerContext) -> Tuple[FollowerSolution, DualSolution]:
    """Solve one follower LP and recover a full set of multipliers.

    The multipliers are the primal solve's row duals. HiGHS gives a
    ``<=`` row of this minimisation a non-positive dual, so the one-sided
    multipliers are their negations, clipped at 0 against round-off;
    ``xi`` and ``sigma`` are the equality rows' duals as they stand. The
    multipliers without a row of their own (tau, zeta, eps) are then
    computed as the exact slacks of the corresponding dual rows, so the
    stationarity identities hold to machine precision. An infeasible LP
    raises FollowerInfeasibleError naming ``_infeasible_family``.
    """
    inst, k = ctx.inst, ctx.k
    M, N = inst.num_aps, inst.num_ens
    primal, cols = build_follower_lp(ctx)
    psol = lp_core.solve_lp(primal)
    if psol.status != lp_core.OPTIMAL:
        raise FollowerInfeasibleError(k, _infeasible_family(primal))
    x = psol.x
    fs = FollowerSolution(
        x_cloud=x[cols.x0],
        x_edge=x[cols.x],
        y_cloud=float(x[cols.y0]),
        y_edge=x[cols.y],
        avg_delay=x[cols.da],
        cost=psol.objective,
    )
    dual = dict(zip((c.name for c in primal.constraints),
                    psol.constraint_duals.tolist()))
    xi = np.array([dual[f"bal_{i}_{k}"] for i in range(M)])
    sigma = np.array([dual[f"ddef_{i}_{k}"] for i in range(M)])
    mu1 = max(0.0, -dual[f"cov0_{k}"])
    mu2 = max(0.0, -dual[f"budget_{k}"])
    lam = np.maximum(0.0, [-dual[f"cov_{j}_{k}"] for j in range(N)])
    gamma = np.maximum(0.0, [-dual[f"cap_{j}_{k}"] for j in range(N)])
    eta = np.maximum(0.0, [[-dual[f"elig_{i}_{j}_{k}"] for j in range(N)]
                           for i in range(M)])
    w = inst.delay_weight[k]
    tau = np.maximum(0.0, -inst.demand[:, k] * sigma)
    zeta = np.maximum(0.0, w * inst.delay_cloud - xi - sigma * inst.delay_cloud + mu1)
    eps = np.maximum(0.0, w * inst.delay_edge - xi[:, None]
                     - sigma[:, None] * inst.delay_edge + lam[None, :] + eta)
    ds = DualSolution(xi=xi, sigma=sigma, tau=tau, mu1=mu1, mu2=mu2,
                      lam=lam, gamma=gamma, eta=eta, zeta=zeta, eps=eps)
    return fs, ds


@dataclass
class StrongDualityReport:
    primal_value: float
    dual_value: float
    residual: float
    passed: bool


def dual_objective(ctx: FollowerContext, ds: DualSolution) -> float:
    inst, k = ctx.inst, ctx.k
    elig = inst.eligible[:, :, k]
    return (float(inst.demand[:, k] @ ds.xi)
            - inst.budget[k] * ds.mu2
            - float((inst.demand[:, k][:, None] * elig * ds.eta).sum())
            - float((inst.compute_cap * ctx.placed) @ ds.gamma)
            - inst.delay_cap[k] * float(ds.tau.sum()))


def check_strong_duality(fs: FollowerSolution, ds: DualSolution,
                         ctx: FollowerContext) -> StrongDualityReport:
    """Compare follower cost with the dual objective at the given pair."""
    from .model import follower_cost
    lhs = follower_cost(ctx.inst, ctx.prices, ctx.k, fs)
    rhs = dual_objective(ctx, ds)
    residual = abs(lhs - rhs)
    return StrongDualityReport(lhs, rhs, residual,
                               residual <= TOL.strong_duality_rel * (1 + abs(lhs)))


def complementarity_residuals(fs: FollowerSolution, ds: DualSolution,
                              ctx: FollowerContext) -> Dict[str, float]:
    """Max |multiplier * slack| per complementarity family at a solution."""
    inst, k = ctx.inst, ctx.k
    slack_delay = inst.delay_cap[k] - fs.avg_delay
    slack_cov0 = fs.y_cloud - fs.x_cloud.sum()
    slack_cov = fs.y_edge - fs.x_edge.sum(axis=0)
    slack_cap = inst.compute_cap * ctx.placed - fs.y_edge
    slack_elig = inst.eligible[:, :, k] * inst.demand[:, k][:, None] - fs.x_edge
    slack_budget = (inst.budget[k] - inst.cloud_price * fs.y_cloud
                    - float(ctx.prices @ fs.y_edge))
    return {
        "delay_cap": float(np.abs(ds.tau * slack_delay).max(initial=0.0)),
        "cloud_coverage": abs(ds.mu1 * slack_cov0),
        "edge_coverage": float(np.abs(ds.lam * slack_cov).max(initial=0.0)),
        "capacity": float(np.abs(ds.gamma * slack_cap).max(initial=0.0)),
        "eligibility": float(np.abs(ds.eta * slack_elig).max(initial=0.0)),
        "budget": abs(ds.mu2 * slack_budget),
        "x_cloud_sign": float(np.abs(ds.zeta * fs.x_cloud).max(initial=0.0)),
        "x_edge_sign": float(np.abs(ds.eps * fs.x_edge).max(initial=0.0)),
    }
