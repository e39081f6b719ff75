"""Per-service follower problem: LP builder, explicit dual, and the
strong-duality / complementarity checks both reformulations rest on.

Given fixed prices and placement, each service solves a small LP that
splits its workload between the cloud and the ENs hosting it. Its
primal rows are written by ``add_follower_rows`` alone, for the follower
LP here (constant prices and placement) and for both MILPs (prices
through the revenue column, placement through the binaries ``t``).
``build_follower_dual`` writes the dual on its own, apart from the
MILPs' ``_milp_base.add_dual_rows``, because it is the reference the
multipliers are tested against.
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
        super().__init__(f"follower {k} infeasible (dominant violation: {family})"
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

    @classmethod
    def follower_lp(cls, M: int, N: int) -> "FollowerColumns":
        """The follower LP's ids: x0, x, y0, y, da in that order."""
        y0 = M + M * N
        return cls(x0=list(range(M)),
                   x=[list(range(M + i * N, M + (i + 1) * N))
                      for i in range(M)],
                   y0=y0, y=list(range(y0 + 1, y0 + 1 + N)),
                   da=list(range(y0 + 1 + N, y0 + 1 + N + M)))


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


def build_follower_lp(ctx: FollowerContext) -> LinearModel:
    """Cost-minimization LP of one service for fixed prices/placement."""
    inst, k = ctx.inst, ctx.k
    M, N = inst.num_aps, inst.num_ens
    cols = FollowerColumns.follower_lp(M, N)
    m = LinearModel(name=f"follower{k}", sense="min")
    for i in range(M):
        m.add_var(f"x0_{i}")
    for i in range(M):
        for j in range(N):
            m.add_var(f"x_{i}_{j}")
    m.add_var("y0")
    for j in range(N):
        m.add_var(f"y_{j}")
    for i in range(M):
        m.add_var(f"da_{i}")
    add_follower_rows(m, inst, k, cols, prices=ctx.prices, placed=ctx.placed)

    w = inst.delay_weight[k]
    obj = {cols.y0: inst.cloud_price}
    for j in range(N):
        obj[cols.y[j]] = ctx.prices[j]
    for i in range(M):
        obj[cols.x0[i]] = w * inst.delay_cloud[i]
        for j in range(N):
            obj[cols.x[i][j]] = w * inst.delay_edge[i, j]
    m.set_objective(obj)
    return m


class DualLayout:
    """Deterministic variable ids of the explicit follower dual LP."""

    def __init__(self, M: int, N: int):
        self.M, self.N = M, N

    def xi(self, i): return i
    def sigma(self, i): return self.M + i
    def tau(self, i): return 2 * self.M + i
    def mu1(self): return 3 * self.M
    def mu2(self): return 3 * self.M + 1
    def lam(self, j): return 3 * self.M + 2 + j
    def gamma(self, j): return 3 * self.M + 2 + self.N + j
    def eta(self, i, j): return 3 * self.M + 2 + 2 * self.N + i * self.N + j
    def zeta(self, i): return 3 * self.M + 2 + 2 * self.N + self.M * self.N + i
    def eps(self, i, j):
        return 4 * self.M + 2 + 2 * self.N + self.M * self.N + i * self.N + j


def build_follower_dual(ctx: FollowerContext) -> LinearModel:
    """Explicit dual of the follower LP, written constraint-for-constraint
    in the same form both MILP reformulations embed."""
    inst, k = ctx.inst, ctx.k
    M, N = inst.num_aps, inst.num_ens
    lay = DualLayout(M, N)
    m = LinearModel(name=f"follower{k}_dual", sense="max")
    for i in range(M):
        m.add_var(f"xi_{i}", lb=-math.inf)
    for i in range(M):
        m.add_var(f"sigma_{i}", lb=-math.inf)
    for i in range(M):
        m.add_var(f"tau_{i}")
    m.add_var("mu1")
    m.add_var("mu2")
    for j in range(N):
        m.add_var(f"lam_{j}")
    for j in range(N):
        m.add_var(f"gamma_{j}")
    for i in range(M):
        for j in range(N):
            m.add_var(f"eta_{i}_{j}")
    for i in range(M):
        m.add_var(f"zeta_{i}")
    for i in range(M):
        for j in range(N):
            m.add_var(f"eps_{i}_{j}")

    w = inst.delay_weight[k]
    for j in range(N):
        m.add_constr({lay.lam(j): 1.0, lay.gamma(j): -1.0,
                      lay.mu2(): -ctx.prices[j]}, LE, ctx.prices[j],
                     name=f"dy_{j}")
    m.add_constr({lay.mu1(): 1.0, lay.mu2(): -inst.cloud_price}, LE,
                 inst.cloud_price, name="dy0")
    for i in range(M):
        m.add_constr({lay.sigma(i): -inst.demand[i, k], lay.tau(i): -1.0},
                     LE, 0.0, name=f"dda_{i}")
    for i in range(M):
        for j in range(N):
            m.add_constr({lay.xi(i): 1.0, lay.sigma(i): inst.delay_edge[i, j],
                          lay.lam(j): -1.0, lay.eta(i, j): -1.0,
                          lay.eps(i, j): 1.0}, LE,
                         w * inst.delay_edge[i, j], name=f"dx_{i}_{j}")
    for i in range(M):
        m.add_constr({lay.xi(i): 1.0, lay.sigma(i): inst.delay_cloud[i],
                      lay.mu1(): -1.0, lay.zeta(i): 1.0}, LE,
                     w * inst.delay_cloud[i], name=f"dx0_{i}")

    obj: Dict[int, float] = {}
    for i in range(M):
        obj[lay.xi(i)] = inst.demand[i, k]
        obj[lay.tau(i)] = -float(inst.delay_cap[k])
        for j in range(N):
            obj[lay.eta(i, j)] = -inst.demand[i, k] * inst.eligible[i, j, k]
    for j in range(N):
        obj[lay.gamma(j)] = -inst.compute_cap[j] * ctx.placed[j]
    obj[lay.mu2()] = -float(inst.budget[k])
    m.set_objective(obj)
    return m


_FAMILIES = ("demand balance", "procurement coverage", "capacity",
             "eligibility", "budget", "delay definition", "delay cap")
_FAMILY_OF_PREFIX = {"bal": "demand balance", "cov": "procurement coverage",
                     "cov0": "procurement coverage", "cap": "capacity",
                     "elig": "eligibility", "budget": "budget",
                     "ddef": "delay definition", "dcap": "delay cap"}


def _diagnose_infeasibility(ctx: FollowerContext) -> str:
    """Minimize total elastic violation and name the worst family."""
    base = build_follower_lp(ctx)
    m = LinearModel(name=f"follower{ctx.k}_elastic", sense="min")
    for v in base.variables:
        m.add_var(v.name, v.lb, v.ub)
    slacks = []
    for ridx, c in enumerate(base.constraints):
        family = _FAMILY_OF_PREFIX[c.name.split("_")[0]]
        coeffs = dict(c.coeffs)
        sid = m.add_var(f"slack_{ridx}")
        coeffs[sid] = -1.0 if c.sense in (LE, EQ) else 1.0
        if c.sense == EQ:
            sid2 = m.add_var(f"slack2_{ridx}")
            coeffs[sid2] = 1.0
            slacks.append((sid2, family))
        slacks.append((sid, family))
        m.add_constr(coeffs, c.sense, c.rhs, name=c.name)
    m.set_objective({sid: 1.0 for sid, _ in slacks})
    sol = lp_core.solve_lp(m)
    if sol.status != lp_core.OPTIMAL:
        return "unknown"
    totals = {fam: 0.0 for fam in _FAMILIES}
    for sid, fam in slacks:
        totals[fam] += sol.x[sid]
    return max(totals, key=totals.get)


def solve_follower(ctx: FollowerContext) -> Tuple[FollowerSolution, DualSolution]:
    """Solve one follower LP and recover a full set of multipliers.

    The multipliers are the primal solve's row duals. HiGHS gives a
    ``<=`` row of this minimisation a non-positive dual, so the one-sided
    multipliers are their negations, clipped at 0 against round-off;
    ``xi`` and ``sigma`` are the equality rows' duals as they stand. The
    multipliers without a row of their own (tau, zeta, eps) are then
    computed as the exact slacks of the corresponding dual rows, so the
    stationarity identities hold to machine precision.
    """
    inst, k = ctx.inst, ctx.k
    M, N = inst.num_aps, inst.num_ens
    primal = build_follower_lp(ctx)
    psol = lp_core.solve_lp(primal)
    if psol.status != lp_core.OPTIMAL:
        raise FollowerInfeasibleError(k, _diagnose_infeasibility(ctx))
    cols = FollowerColumns.follower_lp(M, N)
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
