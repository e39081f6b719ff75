"""Per-service follower problem: LP builder, explicit dual, and the
strong-duality / complementarity checks both reformulations rest on.

Given fixed prices and placement, each service solves a small LP that
splits its workload between the cloud and the ENs hosting it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import lp_core
from .lp_core import LE, EQ, GE, LinearModel
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


class FollowerLayout:
    """Deterministic variable ids of the follower primal LP."""

    def __init__(self, M: int, N: int):
        self.M, self.N = M, N

    def x_cloud(self, i): return i
    def x_edge(self, i, j): return self.M + i * self.N + j
    def y_cloud(self): return self.M + self.M * self.N
    def y_edge(self, j): return self.M + self.M * self.N + 1 + j
    def avg_delay(self, i): return self.M + self.M * self.N + 1 + self.N + i


def build_follower_lp(ctx: FollowerContext) -> LinearModel:
    """Cost-minimization LP of one service for fixed prices/placement.

    The delay cap is folded into the upper bound of the average-delay
    variables; everything else is an explicit row.
    """
    inst, k = ctx.inst, ctx.k
    M, N = inst.num_aps, inst.num_ens
    lay = FollowerLayout(M, N)
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
        m.add_var(f"da_{i}", ub=float(inst.delay_cap[k]))

    for i in range(M):
        coeffs = {lay.x_cloud(i): 1.0}
        for j in range(N):
            coeffs[lay.x_edge(i, j)] = 1.0
        m.add_constr(coeffs, EQ, inst.demand[i, k], name=f"bal_{i}")
    m.add_constr({**{lay.x_cloud(i): 1.0 for i in range(M)},
                  lay.y_cloud(): -1.0}, LE, 0.0, name="cov0")
    for j in range(N):
        coeffs = {lay.x_edge(i, j): 1.0 for i in range(M)}
        coeffs[lay.y_edge(j)] = -1.0
        m.add_constr(coeffs, LE, 0.0, name=f"cov_{j}")
    for j in range(N):
        m.add_constr({lay.y_edge(j): 1.0}, LE,
                     inst.compute_cap[j] * ctx.placed[j], name=f"cap_{j}")
    for i in range(M):
        for j in range(N):
            m.add_constr({lay.x_edge(i, j): 1.0}, LE,
                         inst.eligible[i, j, k] * inst.demand[i, k],
                         name=f"elig_{i}_{j}")
    budget = {lay.y_cloud(): inst.cloud_price}
    for j in range(N):
        budget[lay.y_edge(j)] = ctx.prices[j]
    m.add_constr(budget, LE, inst.budget[k], name="budget")
    for i in range(M):
        coeffs = {lay.x_cloud(i): inst.delay_cloud[i]}
        for j in range(N):
            coeffs[lay.x_edge(i, j)] = inst.delay_edge[i, j]
        coeffs[lay.avg_delay(i)] = -inst.demand[i, k]
        m.add_constr(coeffs, EQ, 0.0, name=f"ddef_{i}")

    w = inst.delay_weight[k]
    obj = {lay.y_cloud(): inst.cloud_price}
    for j in range(N):
        obj[lay.y_edge(j)] = ctx.prices[j]
    for i in range(M):
        obj[lay.x_cloud(i)] = w * inst.delay_cloud[i]
        for j in range(N):
            obj[lay.x_edge(i, j)] = w * inst.delay_edge[i, j]
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
    inst, k = ctx.inst, ctx.k
    M, N = inst.num_aps, inst.num_ens
    base = build_follower_lp(ctx)
    lay = FollowerLayout(M, N)
    delay_ids = {lay.avg_delay(i) for i in range(M)}
    m = LinearModel(name=f"follower{k}_elastic", sense="min")
    for v in base.variables:
        # The delay-cap bound is lifted into an elastic row below.
        m.add_var(v.name, v.lb, math.inf if v.vid in delay_ids else v.ub)
    rows = [(c.coeffs, c.sense, c.rhs, c.name) for c in base.constraints]
    rows += [({lay.avg_delay(i): 1.0}, LE, inst.delay_cap[k], f"dcap_{i}")
             for i in range(M)]
    slacks = []
    for ridx, (coeffs, sense, rhs, name) in enumerate(rows):
        family = _FAMILY_OF_PREFIX[name.split("_")[0]]
        coeffs = dict(coeffs)
        sid = m.add_var(f"slack_{ridx}")
        coeffs[sid] = -1.0 if sense in (LE, EQ) else 1.0
        if sense == EQ:
            sid2 = m.add_var(f"slack2_{ridx}")
            coeffs[sid2] = 1.0
            slacks.append((sid2, family))
        slacks.append((sid, family))
        m.add_constr(coeffs, sense, rhs, name=name)
    m.set_objective({sid: 1.0 for sid, _ in slacks})
    sol = lp_core.solve_lp(m)
    if sol.status != lp_core.OPTIMAL:
        return "unknown"
    totals = {fam: 0.0 for fam in _FAMILIES}
    for sid, fam in slacks:
        totals[fam] += sol.values.get(sid, 0.0)
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
    lay = FollowerLayout(M, N)
    x = psol.x
    fs = FollowerSolution(
        x_cloud=x[[lay.x_cloud(i) for i in range(M)]],
        x_edge=x[[[lay.x_edge(i, j) for j in range(N)] for i in range(M)]],
        y_cloud=float(x[lay.y_cloud()]),
        y_edge=x[[lay.y_edge(j) for j in range(N)]],
        avg_delay=x[[lay.avg_delay(i) for i in range(M)]],
        cost=psol.objective,
    )
    dual = dict(zip((c.name for c in primal.constraints),
                    psol.constraint_duals.tolist()))
    xi = np.array([dual[f"bal_{i}"] for i in range(M)])
    sigma = np.array([dual[f"ddef_{i}"] for i in range(M)])
    mu1 = max(0.0, -dual["cov0"])
    mu2 = max(0.0, -dual["budget"])
    lam = np.maximum(0.0, [-dual[f"cov_{j}"] for j in range(N)])
    gamma = np.maximum(0.0, [-dual[f"cap_{j}"] for j in range(N)])
    eta = np.maximum(0.0, [[-dual[f"elig_{i}_{j}"] for j in range(N)]
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
