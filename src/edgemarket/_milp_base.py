"""Shared machinery for the two single-level MILP reformulations.

P1 (KKT-based) and P2 (duality-based) embed the same follower LP, dual
rows and strong-duality equality. P1 writes the dual rows as equalities
and adds complementarity pairs over the follower's primal rows
(``reform_kkt``). Each row family is written once:

- ``build_base``: the leader rows, the ``r * mu2`` and ``t * Gamma``
  product linearizations and the dual-side revenue row ``revdef``, with
  each service's primal rows from ``follower.add_follower_rows``. Each
  EN's price choice ``r[j, :]`` is one-hot, so ``r * mu2`` is written as
  its exact hull: ``mu2`` splits into shares ``pi[j, v]``, one per price
  level, each boxed by its binary;
- ``add_dual_rows``: each service's dual rows, as equalities in P1
  (stationarity) and as ``<=`` rows in P2 (dual feasibility);
- ``add_revenue_hull``: each service's primal-side revenue, price times
  procurement, over the same kind of one-hot hull, each level's share
  boxed by the ``purchase_caps`` the data prove. With ``revdef`` it is
  the strong-duality equality. Both methods carry it: P2 needs it to
  certify follower optimality, and in P1, whose complementarity pairs
  already certify it, it tightens the LP relaxation to P2's. So a fault
  in these rows would show in both methods alike, and P1 == P2 is no
  independent check; the references below stay independent of them;
- ``solve_reformulation``: the build, solve, extract, validate and
  big-M escalation loop behind ``solve_p1`` and ``solve_p2``.

This module owns the big-M constants, whose only inputs are the
instance and the multiplier scale ``m_lin``, which starts at ``M_LIN``.
``multiplier_bounds`` is their one table: an array per multiplier
family, 0 where ``zero_multipliers`` proves a multiplier 0 from the
data and a heuristic bound scaled by ``m_lin`` elsewhere. Every builder
row and ``validate_bigM`` read their constant from it, and
``solve_reformulation`` raises only ``m_lin`` when one binds. A 0 entry
of mu2 or eta is also a column upper bound in both methods; one of tau
reaches P1's delay-cap pairs only. HiGHS's presolve removes what a 0
kills, while every row is still written. The slack-side constants of
P1's pairs are exact data bounds, chosen by ``reform_kkt.build_p1``.

It also owns the primal-side purchase caps: ``purchase_caps`` bounds
what each service can buy from each EN at each price level at any
follower optimum, which is 0 at a level where the cloud is cheaper per
unit for every AP whose delay cap every option meets. They are exact,
so ``validate_bigM`` and the escalation loop never see them; both
methods take them through the one writer, ``add_revenue_hull``.

The reference code the reformulations are tested against writes its
rows separately on purpose, so that no fault in these shared writers
can hide from the tests: ``follower.build_follower_dual``, the oracle's
``_SecondStage``, ``analytic.solve_single_en`` and the benchmark's
``perfbench/checker.py``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace
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
    """The column ids of every model symbol, one int array per symbol,
    shaped like the symbol with the service index last: ``t[j, k]``,
    ``x_edge[i, j, k]``, ``pi[j, v, k]``. A solved point ``sol.x`` is read
    by indexing it with them, ``sol.x[lay.t]``. The multiplier fields are
    named as ``DualSolution``'s."""

    r: np.ndarray           # (N, V) price level picks
    z: np.ndarray           # (N,) open ENs
    t: np.ndarray           # (N, K) placements
    x_cloud: np.ndarray     # (M, K)
    x_edge: np.ndarray      # (M, N, K)
    y_cloud: np.ndarray     # (K,)
    y_edge: np.ndarray      # (N, K)
    avg_delay: np.ndarray   # (M, K)
    xi: np.ndarray          # (M, K)
    sigma: np.ndarray       # (M, K)
    tau: np.ndarray         # (M, K)
    mu1: np.ndarray         # (K,)
    mu2: np.ndarray         # (K,)
    lam: np.ndarray         # (N, K)
    gamma: np.ndarray       # (N, K)
    eta: np.ndarray         # (M, N, K)
    zeta: np.ndarray        # (M, K)
    eps: np.ndarray         # (M, N, K)
    pi: np.ndarray          # (N, V, K) shares of mu2 in r * mu2
    g: np.ndarray           # (N, K) t * gamma
    rev: np.ndarray         # (K,) edge revenue
    h: np.ndarray           # (N, V, K) shares of y, from add_revenue_hull

M_LIN = 10.0   # starting multiplier scale: ten times each multiplier's unit


def multiplier_bounds(inst: Instance, m_lin: float) -> Dict[str, np.ndarray]:
    """The big-M constant of each bounded follower multiplier at the
    scale ``m_lin``, one array per family, keyed and shaped like its
    ``MilpLayout`` field with the service index last: ``mu1``, ``mu2``,
    ``lam``, ``gamma``, ``eta``, ``zeta``, ``eps`` and ``tau``. An entry
    is 0 where ``zero_multipliers`` proves its multiplier 0, and
    elsewhere a heuristic bound in the family's own units:

    - mu2, the budget multiplier, is dimensionless (cost per unit of
      budget): ``m_lin`` itself.
    - mu1, lambda, Gamma, eta, zeta and eps are in money per unit of
      workload: ``m_lin`` times the most one unit of workload can cost a
      service, the highest price plus the highest delay weight times the
      longest delay.
    - tau, the delay-cap multiplier, is in money per ms of average delay:
      the per-unit bound times the largest per-AP demand over the longest
      delay, the rate at which moving an AP's whole demand across the
      delay range trades money for average delay.

    The heuristic entries are not proven: a follower multiplier has no
    a-priori bound, and one that is too small can cut off a better leader
    decision. ``solve_reformulation`` relies on ``validate_bigM``, which
    sees only the returned point, and raises ``m_lin`` tenfold when it
    flags one. No escalation changes a proven 0.
    """
    M, N, K = inst.num_aps, inst.num_ens, inst.num_services
    max_delay = max(float(inst.delay_edge.max(initial=0.0)),
                    float(inst.delay_cloud.max(initial=0.0)), 1.0)
    per_unit = (max(float(inst.price_grid.max(initial=0.0)), inst.cloud_price)
                + float(inst.delay_weight.max(initial=0.0)) * max_delay)
    unit = m_lin * per_unit
    delay = unit * float(inst.demand.max(initial=0.0)) / max_delay
    mu2_zero, eta_zero, tau_zero = zero_multipliers(inst)
    return {"mu1": np.full(K, unit), "mu2": np.where(mu2_zero, 0.0, m_lin),
            "lam": np.full((N, K), unit), "gamma": np.full((N, K), unit),
            "eta": np.where(eta_zero, 0.0, unit),
            "zeta": np.full((M, K), unit), "eps": np.full((M, N, K), unit),
            "tau": np.where(tau_zero, 0.0, delay)}


def zero_multipliers(inst: Instance,
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The follower multipliers proven 0 by the data alone, as masks
    ``(mu2, eta, tau)`` of shapes (K,), (M, N, K) and (M, K): at every
    price and placement the leader can choose, service k's LP has an
    optimal dual with every masked multiplier at 0 at once.

    - ``mu2[k]``, budget: at a follower optimum each unit of workload is
      bought once (``cov0`` and ``cov`` are tight where the price is
      positive, and the cloud price is), so the spend is at most the
      highest price, cloud or grid, times the service's total demand. If
      that is below the budget, the budget row is slack at every optimum,
      and complementary slackness puts mu2 at 0 in every optimal dual.
    - ``eta[i,j,k]``, eligibility of an eligible pair: the row
      ``x_ij <= demand_i`` is implied by ``bal_i`` and ``x >= 0``.
    - ``tau[i,k]``, delay cap, where every option of AP i meets service
      k's cap: the cloud and each EN eligible for (i, k). The row
      ``dcap_i`` is implied by ``bal_i``, ``ddef_i``, the ``elig`` rows of
      the barred pairs, which stay, and ``x >= 0``: they make AP i's
      average delay a convex combination of those options' delays. With
      no demand at AP i, ``da_i`` enters no other row and no cost, so it
      can be set to 0.

    Drop the masked rows together: the implied ones, the slack budget
    rows and the met delay caps. Take an optimum of the reduced LP, with
    ``da_i`` at 0 where AP i has no demand. It is feasible in the full
    LP, since the spend bound and the implications above hold without
    the dropped rows, so the two optimal values agree. The reduced LP's
    optimal dual, padded with zeros, is then dual feasible for the full
    LP at the same value, so optimal, with every masked multiplier at 0.
    The budget must exceed the spend bound by a relative 1e-9, so that
    rounding in the product cannot turn a tie into a proof; the delay
    test compares data values only, so a tie is a proof.
    """
    top = max(inst.cloud_price, float(inst.price_grid.max(initial=0.0)))
    spend = top * inst.demand.sum(axis=0)
    cap = inst.delay_cap[None, None, :]
    edge_ok = (inst.eligible == 0) | (inst.delay_edge[:, :, None] <= cap)
    tau = (inst.delay_cloud[:, None] <= cap[0]) & edge_ok.all(axis=1)
    return spend * (1.0 + 1e-9) < inst.budget, inst.eligible == 1, tau


def purchase_caps(inst: Instance) -> np.ndarray:
    """The most service k can buy from EN j at price level v at any
    follower optimum, as an (N, V, K) array: the box of ``h[j,v,k]`` in
    ``add_revenue_hull``.

    AP i sends nothing to EN j at level v at any follower optimum when
    all three hold:

    - every option of AP i meets service k's delay cap (the ``tau`` mask
      of ``zero_multipliers``);
    - the cloud is strictly cheaper per unit for AP i,
      ``pg[j,v] + w_k d[i,j] > c0 + w_k d0[i]``, by a relative 1e-9, so
      that rounding in the products cannot turn a tie into a proof;
    - ``c0 <= pg[j,v]``, so moving workload to the cloud cannot raise
      the spend.

    Moving that AP's workload from EN j to the cloud, with ``y[j]`` and
    ``y0`` following it, keeps ``bal``, ``cov``, ``cap`` and ``elig``;
    ``dcap`` holds by the first condition, since AP i's average delay
    stays a mix of delays within the cap, and ``budget`` by the third.
    The move strictly lowers the cost, so no optimum sends AP i's
    workload to EN j. Where ``pg[j,v] > 0`` the coverage row of EN j is
    tight at every optimum, so ``y[j,k]`` is at most the demand of the
    eligible APs left, and the cap is ``min(C_j, that sum)``; where
    ``pg[j,v] <= 0`` it is ``C_j``. No budget condition is needed, and
    the cap holds under optimistic selection, since every optimal
    response obeys it.
    """
    pg = inst.price_grid[:, :, None]                                # (N, V, 1)
    w, c0 = inst.delay_weight, inst.cloud_price
    cloud = c0 + w * inst.delay_cloud[:, None]                      # (M, K)
    edge = pg + w * inst.delay_edge[:, :, None, None]               # (M, N, V, K)
    gone = (zero_multipliers(inst)[2][:, None, None, :] & (c0 <= pg)
            & (cloud[:, None, None, :] * (1.0 + 1e-9) < edge))
    eligible = inst.demand[:, None, None, :] * inst.eligible[:, :, None, :]
    left = (eligible * ~gone).sum(axis=0)                           # (N, V, K)
    cap = inst.compute_cap[:, None, None]
    return np.where(pg > 0, np.minimum(cap, left), cap)


SCHEMES = ("dyn", "flat", "avg")


def _avg_price_level(inst: Instance) -> int:
    """Grid level whose price equals the column mean on every EN."""
    levels = []
    for j in range(inst.num_ens):
        col = inst.price_grid[j]
        mean = float(col.mean())
        hits = np.nonzero(np.isclose(col, mean, rtol=0.0, atol=1e-9))[0]
        if len(hits) != 1:
            raise ValueError("avg scheme requires the grid mean to be a "
                             f"unique grid point; EN {j} mean {mean} is not")
        levels.append(int(hits[0]))
    if len(set(levels)) != 1:
        raise ValueError("avg scheme requires identical grids on all ENs")
    return levels[0]


def build_base(inst: Instance, m_lin: float, name: str, scheme: str = "dyn",
               ) -> Tuple[LinearModel, MilpLayout, SimpleNamespace]:
    """Leader block, follower primal feasibility, product linearizations
    and the dual-side revenue row ``revdef`` common to P1 and P2. The
    builders add each service's dual rows and its ``add_revenue_hull``
    rows after this.

    Returns the model, its layout, and the layout's ids as nested lists
    of ints with the service index first: ``ids.x_edge[k][i][j]``,
    ``ids.t[k][j]``, and ``ids.r[j][v]``. The row writers read these,
    since each read of an array element is a numpy call and a build
    reads thousands. ``ids`` also carries the constants the build used,
    so that a build computes each once: ``ids.bounds``, the
    ``multiplier_bounds`` table at ``m_lin``, and the ``purchase_caps``
    array ``ids.caps`` that ``add_revenue_hull`` boxes each price
    level's purchase with.

    The products take their constants from the table: ``t * Gamma``
    takes the three McCormick rows with Gamma's entry ``gamma_ub``, and
    ``r * mu2`` the hull over EN j's one-hot price choice (Balas'
    disjunctive hull, or RLT with the ``onehot_j`` row): ``pisum``,
    ``sum_v pi[j,v,k] = mu2[k]``, and ``piub1``, ``pi[j,v,k] <=
    mu2_ub r[j,v]`` with mu2's entry ``mu2_ub``. It is exact at every
    integer point and implies the McCormick rows ``pi <= mu2`` and
    ``mu2 - pi <= mu2_ub (1 - r)``, which are not written. A mu2 or eta
    column whose entry is 0 is bounded by 0. The tau columns stay
    unbounded: only P1's delay-cap pairs take tau's 0 entries, since a
    column bound of 0 on tau made P2 slower.

    ``scheme``, one of ``SCHEMES``, is the leader's pricing: ``dyn`` adds
    no row; ``flat`` the ``flat_*`` rows, giving every EN the level of EN
    0 on identical grids; ``avg`` the ``fixlvl_*`` rows, pinning every EN
    to the level of the grid mean. Any other name raises ``ValueError``.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    M, N, K, V = inst.num_aps, inst.num_ens, inst.num_services, inst.num_price_levels
    bounds = multiplier_bounds(inst, m_lin)
    m = LinearModel(name=name, sense="max")
    z = m.add_vars("z", (N,), binary=True)
    t = m.add_vars("t", (N, K), binary=True)
    r = m.add_vars("r", (N, V), binary=True)
    # Each service's columns in creation order: layout field, name
    # prefix, shape and lower bound.
    free = -math.inf
    service_columns = (
        ("x_cloud", "x0", (M,), 0.0), ("x_edge", "x", (M, N), 0.0),
        ("y_cloud", "y0", (), 0.0), ("y_edge", "y", (N,), 0.0),
        ("avg_delay", "da", (M,), 0.0), ("xi", "xi", (M,), free),
        ("sigma", "sigma", (M,), free), ("tau", "tau", (M,), 0.0),
        ("mu1", "mu1", (), 0.0), ("mu2", "mu2", (), 0.0),
        ("lam", "lam", (N,), 0.0), ("gamma", "gamma", (N,), 0.0),
        ("eta", "eta", (M, N), 0.0), ("zeta", "zeta", (M,), 0.0),
        ("eps", "eps", (M, N), 0.0), ("pi", "pi", (N, V), 0.0),
        ("g", "g", (N,), 0.0), ("rev", "rev", (), free))
    lay = MilpLayout(r=r, z=z, t=t, h=np.full((N, V, K), -1), **{
        sym: np.empty(shape + (K,), np.int64)
        for sym, _, shape, _ in service_columns})
    ids = SimpleNamespace(r=r.tolist(), z=z.tolist(), t=t.T.tolist(),
                          bounds=bounds, caps=purchase_caps(inst),
                          **{sym: [] for sym, *_ in service_columns})
    # A mu2 or eta column is bounded by 0 where its table entry is 0.
    ub = {sym: np.where(bounds[sym] > 0, math.inf, 0.0)
          for sym in ("mu2", "eta")}
    for k in range(K):
        suffix = f"_{k}"
        for sym, prefix, shape, lb in service_columns:
            block = m.add_vars(prefix, shape, suffix, lb,
                               ub[sym][..., k] if sym in ub else math.inf)
            getattr(lay, sym)[..., k] = block
            getattr(ids, sym).append(block.tolist())

    # Leader constraints: placement only on active ENs, shared capacity,
    # storage, one grid price per EN.
    z, t, r, y = ids.z, ids.t, ids.r, ids.y_edge
    for j in range(N):
        for k in range(K):
            m.add_constr({t[k][j]: 1.0, z[j]: -1.0}, LE, 0.0,
                         name=f"place_{j}_{k}")
    for j in range(N):
        coeffs = {y[k][j]: 1.0 for k in range(K)}
        coeffs[z[j]] = -inst.compute_cap[j]
        m.add_constr(coeffs, LE, 0.0, name=f"encap_{j}")
    for j in range(N):
        coeffs = {t[k][j]: inst.service_size[k] for k in range(K)}
        coeffs[z[j]] = -inst.storage_cap[j]
        m.add_constr(coeffs, LE, 0.0, name=f"storage_{j}")
    for j in range(N):
        m.add_constr(dict.fromkeys(r[j], 1.0), EQ, 1.0, name=f"onehot_{j}")
    if scheme == "flat":
        if not np.allclose(inst.price_grid, inst.price_grid[0][None, :]):
            raise ValueError("flat pricing requires identical grids on all ENs")
        for j in range(1, N):
            for v in range(V):
                m.add_constr({r[j][v]: 1.0, r[0][v]: -1.0}, EQ, 0.0,
                             name=f"flat_{j}_{v}")
    elif scheme == "avg":
        level = _avg_price_level(inst)
        for j in range(N):
            m.add_constr({r[j][level]: 1.0}, EQ, 1.0, name=f"fixlvl_{j}")

    # Per-service primal feasibility; the budget row uses the revenue
    # variable in place of the bilinear price*procurement term.
    for k in range(K):
        w = inst.delay_weight[k]
        x0, x, y0, rev = (ids.x_cloud[k], ids.x_edge[k], ids.y_cloud[k],
                          ids.rev[k])
        cols = FollowerColumns(x0=x0, x=x, y0=y0, y=y[k],
                               da=ids.avg_delay[k], rev=rev, t=t[k])
        add_follower_rows(m, inst, k, cols, prices=None, placed=None)

        # pi[j,v,k] = r[j,v] * mu2[k], as the hull over EN j's one-hot
        # price choice: mu2 splits across the levels, each share boxed
        # by its binary.
        mu2, pi, mu2_ub = ids.mu2[k], ids.pi[k], bounds["mu2"][k]
        for j in range(N):
            for v in range(V):
                m.add_constr({pi[j][v]: 1.0, r[j][v]: -mu2_ub},
                             LE, 0.0, name=f"piub1_{j}_{v}_{k}")
            coeffs = dict.fromkeys(pi[j], 1.0)
            coeffs[mu2] = -1.0
            m.add_constr(coeffs, EQ, 0.0, name=f"pisum_{j}_{k}")
        # g[j,k] = t[j,k] * gamma[j,k]
        g, gamma = ids.g[k], ids.gamma[k]
        for j in range(N):
            gamma_ub = bounds["gamma"][j, k]
            m.add_constr({g[j]: 1.0, t[k][j]: -gamma_ub}, LE, 0.0,
                         name=f"gub1_{j}_{k}")
            m.add_constr({g[j]: 1.0, gamma[j]: -1.0}, LE, 0.0,
                         name=f"gub2_{j}_{k}")
            m.add_constr({gamma[j]: 1.0, g[j]: -1.0, t[k][j]: gamma_ub},
                         LE, gamma_ub, name=f"glb_{j}_{k}")

        # revdef: edge revenue written in dual terms. With the rows of
        # add_revenue_hull it is the strong-duality equality.
        xi, tau, eta = ids.xi[k], ids.tau[k], ids.eta[k]
        coeffs = {rev: 1.0, y0: inst.cloud_price, mu2: inst.budget[k]}
        for i in range(M):
            coeffs[x0[i]] = w * inst.delay_cloud[i]
            coeffs[xi[i]] = -inst.demand[i, k]
            coeffs[tau[i]] = float(inst.delay_cap[k])
            for j in range(N):
                coeffs[x[i][j]] = w * inst.delay_edge[i, j]
                coeffs[eta[i][j]] = (inst.demand[i, k]
                                     * inst.eligible[i, j, k])
        for j in range(N):
            coeffs[g[j]] = inst.compute_cap[j]
        m.add_constr(coeffs, EQ, 0.0, name=f"revdef_{k}")

    obj: Dict[int, float] = {}
    for k in range(K):
        obj[ids.rev[k]] = 1.0
        for j in range(N):
            obj[y[k][j]] = -inst.variable_cost[j] / inst.compute_cap[j]
            obj[t[k][j]] = -inst.placement_cost[j, k]
    for j in range(N):
        obj[z[j]] = -inst.fixed_cost[j]
    m.set_objective(obj)
    return m, lay, ids


def add_dual_rows(m: LinearModel, inst: Instance, ids: SimpleNamespace,
                  k: int, sense: str) -> None:
    """Write service ``k``'s dual rows into ``m``, one per primal column
    in the order ``y0, y_j, da_i, x0_i, x_ij``, in the ``<=`` form of
    ``build_follower_dual``. ``sense`` is EQ for P1's stationarity and LE
    for P2's dual feasibility. EN j's price enters its ``y_j`` row as
    ``p_j (1 + mu2) = sum_v pg[j,v] (r[j,v] + pi[j,v,k])``, exact over the
    one-hot price selection."""
    M, N, V = inst.num_aps, inst.num_ens, inst.num_price_levels
    w = inst.delay_weight[k]
    mu1, mu2, lam, gamma, pi, r = (ids.mu1[k], ids.mu2[k], ids.lam[k],
                                   ids.gamma[k], ids.pi[k], ids.r)
    sigma, tau, xi, zeta, eta, eps = (ids.sigma[k], ids.tau[k], ids.xi[k],
                                      ids.zeta[k], ids.eta[k], ids.eps[k])
    m.add_constr({mu1: 1.0, mu2: -inst.cloud_price},
                 sense, inst.cloud_price, name=f"dy0_{k}")
    for j in range(N):
        coeffs = {lam[j]: 1.0, gamma[j]: -1.0}
        for v in range(V):
            pg = inst.price_grid[j, v]
            coeffs[pi[j][v]] = -pg
            coeffs[r[j][v]] = -pg
        m.add_constr(coeffs, sense, 0.0, name=f"dy_{j}_{k}")
    for i in range(M):
        m.add_constr({sigma[i]: -inst.demand[i, k], tau[i]: -1.0}, sense,
                     0.0, name=f"dda_{i}_{k}")
    for i in range(M):
        m.add_constr({xi[i]: 1.0, sigma[i]: inst.delay_cloud[i], mu1: -1.0,
                      zeta[i]: 1.0},
                     sense, w * inst.delay_cloud[i], name=f"dx0_{i}_{k}")
    for i in range(M):
        for j in range(N):
            m.add_constr({xi[i]: 1.0, sigma[i]: inst.delay_edge[i, j],
                          lam[j]: -1.0, eta[i][j]: -1.0, eps[i][j]: 1.0},
                         sense, w * inst.delay_edge[i, j],
                         name=f"dx_{i}_{j}_{k}")


def add_revenue_hull(m: LinearModel, inst: Instance, lay: MilpLayout,
                     ids: SimpleNamespace, k: int) -> None:
    """Write service ``k``'s revenue as price times procurement:
    ``revsum``, ``rev[k] = sum_{j,v} pg[j,v] h[j,v,k]``, over the hull of
    ``h = r * y``: ``hub1``, ``h[j,v,k] <= caps[j,v,k] r[j,v]``, and
    ``hsum``, ``sum_v h[j,v,k] = y[j,k]``. The box ``caps`` is
    ``purchase_caps(inst)``, carried in ``ids.caps``: the most service k
    buys from EN j at level v at any follower optimum. That is 0 where
    the cloud is cheaper per unit for every AP whose delay cap every
    option meets, and otherwise at most ``C_j`` (see ``purchase_caps``
    for the proof). So the box cuts off no follower-optimal response, it
    is exact at integer points, and, as no cap exceeds ``C_j``, the hull
    still implies the McCormick rows ``h <= y`` and
    ``y - h <= C_j (1 - r)``, which are not written. With ``revdef``
    this is the strong-duality equality."""
    N, V = inst.num_ens, inst.num_price_levels
    h = m.add_vars("h", (N, V), f"_{k}")
    lay.h[:, :, k] = h
    h, r, y, rev = h.tolist(), ids.r, ids.y_edge[k], ids.rev[k]
    caps = ids.caps[:, :, k].tolist()
    # y splits across the price levels, each share boxed by its binary
    # and by what the service can buy at that level.
    for j in range(N):
        for v in range(V):
            m.add_constr({h[j][v]: 1.0, r[j][v]: -caps[j][v]}, LE, 0.0,
                         name=f"hub1_{j}_{v}_{k}")
        coeffs = dict.fromkeys(h[j], 1.0)
        coeffs[y[j]] = -1.0
        m.add_constr(coeffs, EQ, 0.0, name=f"hsum_{j}_{k}")
    coeffs = {rev: 1.0}
    for j in range(N):
        for v in range(V):
            coeffs[h[j][v]] = -inst.price_grid[j, v]
    m.add_constr(coeffs, EQ, 0.0, name=f"revsum_{k}")


def _binaries(x: np.ndarray, ids: np.ndarray, name: str) -> np.ndarray:
    """The values of the binaries ``ids`` in ``x``, rounded; raises
    IntegrityError naming the first one that is not integral."""
    val = x[ids]
    bits = np.round(val)
    bad = np.abs(val - bits) > TOL.binary_integrality
    if bad.any():
        index = tuple(np.argwhere(bad)[0])
        raise IntegrityError(f"binary {name}[{','.join(map(str, index))}] "
                             f"not integral: {val[index]}")
    return bits.astype(int)


def extract_solution(inst: Instance, lay: MilpLayout, sol: MilpSolution,
                     ) -> Tuple[LeaderDecision, List[FollowerSolution],
                                List[DualSolution]]:
    """Map MILP values back to decision objects and cross-check the
    revenue variables against price times procurement, and the profit.

    Both builders write their multiplier rows in the explicit-dual sign
    convention, so the extracted multipliers are directly comparable with
    the ones ``solve_follower`` returns.
    """
    if sol.status not in ("optimal", "gap-limit"):
        raise ValueError(f"cannot extract from solution with status {sol.status}")
    x = sol.x
    r = _binaries(x, lay.r, "r")
    picks = r.sum(axis=1)
    if (picks != 1).any():
        j = int(np.argmax(picks != 1))
        raise IntegrityError(f"EN {j} selects {picks[j]} price levels")
    level = r.argmax(axis=1)
    ld = LeaderDecision(
        price_level=level,
        price=inst.price_grid[np.arange(inst.num_ens), level],
        active=_binaries(x, lay.z, "z"),
        placed=_binaries(x, lay.t, "t"),
    )
    followers, duals = [], []
    for k in range(inst.num_services):
        fs = FollowerSolution(
            x_cloud=x[lay.x_cloud[:, k]], x_edge=x[lay.x_edge[:, :, k]],
            y_cloud=float(x[lay.y_cloud[k]]), y_edge=x[lay.y_edge[:, k]],
            avg_delay=x[lay.avg_delay[:, k]], cost=0.0)
        fs.cost = follower_cost(inst, ld.price, k, fs)
        followers.append(fs)
        duals.append(DualSolution(**{
            f.name: x[getattr(lay, f.name)[..., k]]
            for f in dataclasses.fields(DualSolution)}))
        direct = float(ld.price @ fs.y_edge)
        rev = float(x[lay.rev[k]])
        if abs(rev - direct) > 1e-6 * (1.0 + abs(direct)):
            raise IntegrityError(
                f"revenue variable for service {k} is {rev}"
                f" but price @ y gives {direct}")
    profit = leader_profit(inst, ld, followers)
    if sol.status == "optimal":
        rel = abs(profit - sol.objective) / max(1.0, abs(sol.objective))
        if rel > TOL.profit_recompute_rel:
            raise IntegrityError(
                f"profit recomputation mismatch: model {sol.objective}, "
                f"first-principles {profit}")
    return ld, followers, duals


def validate_bigM(inst: Instance, model: LinearModel, lay: MilpLayout,
                  sol: MilpSolution, m_lin: float) -> List[str]:
    """Flag any multiplier within 1% of its entry of the
    ``multiplier_bounds`` table at ``m_lin``.

    Only the multiplier side is checked. The slack-side constants are
    exact data bounds (see ``reform_kkt.build_p1``), so a slack that
    reaches one has cut nothing off. A multiplier at its bound may be
    truncated by it, so callers must re-solve with a larger ``m_lin``
    when this returns a non-empty list. The check sees only the returned
    point: a constant that cuts off a better leader decision leaves no
    trace here. Works for both builders: mu2 and Gamma, which bound
    P2's products too, are checked for both; the multipliers of P1's
    complementarity pairs only when ``model.pairs`` is not empty.

    An entry of 0 is never flagged: it is a proof of
    ``zero_multipliers``, which cuts nothing off and which no escalation
    changes. Multipliers of vacuous rows (capacity of an unplaced EN,
    eligibility of a barred pair, rows with zero demand) are costless
    degenerate rays that the solver may legitimately park at the bound;
    those are skipped too, because any value of theirs supports the same
    optimum. Between the two, eta is never checked: its entry is 0 on
    every eligible pair. Flags come family by family, each in index
    order.
    """
    bounds = multiplier_bounds(inst, m_lin)
    x = sol.x
    placed = x[lay.t] > 0.5
    checks = [("mu2", True, "mu2"), ("gamma", placed, "Gamma")]
    if model.pairs:
        demand = inst.demand > 0
        checks += [("tau", demand, "tau"), ("zeta", demand, "zeta"),
                   ("mu1", True, "mu1"), ("lam", placed, "lambda"),
                   ("eps", placed & (inst.eligible == 1) & demand[:, None],
                    "eps")]
    flags: List[str] = []
    for sym, checked, label in checks:
        value, limit = x[getattr(lay, sym)], bounds[sym]
        near = (value >= 0.99 * limit) & (limit > 0)
        for index in map(tuple, np.argwhere(checked & near)):
            flags.append(f"{label}[{','.join(map(str, index))}]: value "
                          f"{value[index]:.6g} within 1% of M "
                          f"{limit[index]:.6g}")
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
    the decision objects and ``validate(model, layout, sol, m_lin)`` the
    flags.
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
        binding = validate(model, lay, sol, m_lin)
        if not binding:
            return ReformResult(sol.status, sol.objective, leader, followers,
                                duals, sol, m_lin, escalation, flags)
        flags += binding
        m_lin *= 10.0
    raise RuntimeError("reformulation unsound: big-M constants still binding "
                       f"after {MAX_ESCALATIONS} escalations: {binding}")
