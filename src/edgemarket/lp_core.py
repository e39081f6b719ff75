"""Solver-agnostic linear/mixed-integer model IR and solvers.

``LinearModel`` is a plain sparse container. On its first solve it is
compiled once, with vectorised checks, to arrays (cost vector, CSC
matrix, row and column bounds); any change to the model drops that
compiled form. ``solve_lp`` keeps one HiGHS instance per compiled model,
through the bindings bundled with scipy (``scipy.optimize._highspy``):
the first call hands HiGHS the LP that ``linprog(method="highs")`` did,
and every later call changes only column bounds, so HiGHS hot-starts
from the basis it already holds. MILPs are solved with an embedded
best-first branch-and-bound over those relaxations (``solve_milp``),
which starts each node from its parent's basis and branches on one-hot
rows as sets, or with HiGHS' own branch-and-bound through
``scipy.optimize.milp``. An MPS writer and a solution importer bridge to
external solvers.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import heapq
import itertools
import logging
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _highs

from .tolerances import TOL

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
GAP_LIMIT = "gap-limit"
TIME_LIMIT = "time-limit"

_log = logging.getLogger("edgemarket")


@dataclass
class _Var:
    vid: int
    name: str
    lb: float
    ub: float
    binary: bool


@dataclass
class _Constr:
    coeffs: Dict[int, float]
    sense: str
    rhs: float
    name: str


@dataclass
class _Compiled:
    """A model as HiGHS sees it: minimise ``c @ x`` subject to
    ``row_lo <= A @ x <= row_hi`` and ``col_lo <= x <= col_hi``. The
    ``<=`` rows come first (``>=`` rows negated), then the ``=`` rows,
    each block in model order."""

    cost: np.ndarray        # objective coefficients in the model's own sense
    c: np.ndarray
    A: sp.csc_array
    row_lo: np.ndarray
    row_hi: np.ndarray
    col_lo: np.ndarray
    col_hi: np.ndarray
    row_order: np.ndarray   # model row of each HiGHS row
    binary: np.ndarray      # ids of the binary variables
    highs: Optional[_highs._Highs] = None   # made by the first solve_lp
    lo_set: Optional[np.ndarray] = None     # column bounds held by ``highs``
    hi_set: Optional[np.ndarray] = None


def _first_bad(mask: np.ndarray) -> Optional[int]:
    return int(np.argmax(mask)) if mask.any() else None


def _compile(m: "LinearModel") -> _Compiled:
    """Arrays of ``m``; raises ValueError on dangling ids, non-finite
    coefficients or right-hand sides, and binaries outside [0, 1]."""
    n, rows = m.num_vars, m.constraints
    lens = np.fromiter((len(c.coeffs) for c in rows), np.int64, len(rows))
    nnz = int(lens.sum())
    cols = np.fromiter(itertools.chain.from_iterable(
        c.coeffs for c in rows), np.int64, nnz)
    vals = np.fromiter(itertools.chain.from_iterable(
        c.coeffs.values() for c in rows), float, nnz)
    rhs = np.fromiter((c.rhs for c in rows), float, len(rows))
    row_of = np.repeat(np.arange(len(rows)), lens)
    bad = _first_bad((cols < 0) | (cols >= n))
    if bad is not None:
        raise ValueError(f"constraint {rows[row_of[bad]].name} references "
                         f"unknown id {cols[bad]}")
    bad = _first_bad(~np.isfinite(vals))
    if bad is not None:
        raise ValueError(f"non-finite coefficient in {rows[row_of[bad]].name}")
    bad = _first_bad(~np.isfinite(rhs))
    if bad is not None:
        raise ValueError(f"non-finite rhs in {rows[bad].name}")

    obj_ids = np.fromiter(m.objective, np.int64, len(m.objective))
    obj_vals = np.fromiter(m.objective.values(), float, len(m.objective))
    bad = _first_bad((obj_ids < 0) | (obj_ids >= n))
    if bad is not None:
        raise ValueError(f"objective references unknown id {obj_ids[bad]}")
    if not np.isfinite(obj_vals).all():
        raise ValueError("non-finite objective coefficient")
    cost = np.zeros(n)
    cost[obj_ids] = obj_vals

    col_lo = np.fromiter((v.lb for v in m.variables), float, n)
    col_hi = np.fromiter((v.ub for v in m.variables), float, n)
    binary = np.fromiter((v.binary for v in m.variables), bool, n)
    bad = _first_bad(binary & ~((col_lo >= 0.0) & (col_hi <= 1.0)))
    if bad is not None:
        raise ValueError(f"binary variable {m.variables[bad].name} has "
                         "bounds outside [0,1]")

    is_eq = np.fromiter((c.sense == EQ for c in rows), bool, len(rows))
    sign = np.where(np.fromiter((c.sense == GE for c in rows), bool,
                                len(rows)), -1.0, 1.0)
    row_order = np.concatenate([np.flatnonzero(~is_eq), np.flatnonzero(is_eq)])
    position = np.empty(len(rows), np.int64)
    position[row_order] = np.arange(len(rows))
    A = sp.csc_array((vals * sign[row_of], (position[row_of], cols)),
                     shape=(len(rows), n))
    row_hi = (rhs * sign)[row_order]
    row_lo = np.where(is_eq, rhs, -np.inf)[row_order]
    return _Compiled(cost=cost, c=-cost if m.obj_sense == "max" else cost,
                     A=A, row_lo=row_lo, row_hi=row_hi, col_lo=col_lo,
                     col_hi=col_hi, row_order=row_order,
                     binary=np.flatnonzero(binary))


class LinearModel:
    """Sparse LP/MILP container with named variables and constraints.

    Change a model only through its methods: each one drops the compiled
    form that the solvers reuse.
    """

    def __init__(self, name: str = "model", sense: str = "max"):
        if sense not in ("min", "max"):
            raise ValueError(f"bad objective sense: {sense}")
        self.name = name
        self.obj_sense = sense
        self.variables: List[_Var] = []
        self.constraints: List[_Constr] = []
        self.objective: Dict[int, float] = {}
        self._compiled: Optional[_Compiled] = None

    # -- building -----------------------------------------------------

    def add_var(self, name: str, lb: float = 0.0, ub: float = math.inf,
                binary: bool = False) -> int:
        if binary:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
            if lb > ub:
                raise ValueError(f"binary variable {name} has empty bound range")
        vid = len(self.variables)
        self.variables.append(_Var(vid, name, float(lb), float(ub), binary))
        self._compiled = None
        return vid

    def add_constr(self, coeffs: Dict[int, float], sense: str, rhs: float,
                   name: Optional[str] = None) -> int:
        if sense not in (LE, EQ, GE):
            raise ValueError(f"bad constraint sense: {sense}")
        row = len(self.constraints)
        self.constraints.append(
            _Constr(dict(coeffs), sense, float(rhs), name or f"c{row}"))
        self._compiled = None
        return row

    def drop_constraints(self, start: int):
        """Remove every constraint from row ``start`` on."""
        if start < len(self.constraints):
            del self.constraints[start:]
            self._compiled = None

    def set_objective(self, coeffs: Dict[int, float], sense: Optional[str] = None):
        if sense is not None:
            if sense not in ("min", "max"):
                raise ValueError(f"bad objective sense: {sense}")
            self.obj_sense = sense
        self.objective = dict(coeffs)
        self._compiled = None

    # -- introspection ------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constrs(self) -> int:
        return len(self.constraints)

    @property
    def binary_ids(self) -> List[int]:
        return [v.vid for v in self.variables if v.binary]

    @property
    def num_binaries(self) -> int:
        return len(self.binary_ids)

    def _compiled_form(self) -> _Compiled:
        """The solvers' arrays of this model, compiled on first use."""
        if self._compiled is None:
            self._compiled = _compile(self)
        return self._compiled

    def validate(self):
        """Raise ValueError on dangling ids or non-finite coefficients."""
        self._compiled_form()

    def objective_value(self, values: Dict[int, float]) -> float:
        return sum(coef * values[vid] for vid, coef in self.objective.items())

    def max_violation(self, values: Dict[int, float]) -> float:
        """Largest constraint/bound violation of a candidate point."""
        worst = 0.0
        for v in self.variables:
            x = values[v.vid]
            worst = max(worst, v.lb - x, x - v.ub)
        for c in self.constraints:
            lhs = sum(coef * values[vid] for vid, coef in c.coeffs.items())
            if c.sense == LE:
                worst = max(worst, lhs - c.rhs)
            elif c.sense == GE:
                worst = max(worst, c.rhs - lhs)
            else:
                worst = max(worst, abs(lhs - c.rhs))
        return worst


@dataclass
class MilpSolution:
    status: str
    objective: float
    values: Dict[int, float] = field(default_factory=dict)
    relative_gap: float = 0.0
    nodes_explored: int = 0
    wall_time: float = 0.0
    # Duals of the constraint rows and the values as an array by
    # variable id, populated by solve_lp only.
    constraint_duals: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None


# The options linprog(method="highs") gave HiGHS; a retry changes some
# of them for one run and then puts them back.
_HIGHS_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "highs_debug_level": 0,
    "presolve": "on",
    "solver": "choose",
    "simplex_strategy": 1,    # dual simplex
}
# HiGHS occasionally gives up with an unresolved status on
# near-degenerate bases, or after a hot start. Each retry starts cold
# (a cold first solve skips the first entry), then tries other
# algorithms before failing.
_RETRIES = ({}, {"presolve": "off"}, {"solver": "simplex"}, {"solver": "ipm"})
# linprog rejected an optimum whose bound or row residual exceeded this.
_RESIDUAL_TOL = 10.0 * math.sqrt(1e-9)


def _new_highs(cm: _Compiled, lo: np.ndarray, hi: np.ndarray) -> _highs._Highs:
    h = _highs._Highs()
    for name, value in _HIGHS_OPTIONS.items():
        h.setOptionValue(name, value)
    lp = _highs.HighsLp()
    lp.num_row_, lp.num_col_ = cm.A.shape
    lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = cm.A.shape
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = cm.A.indptr
    lp.a_matrix_.index_ = cm.A.indices
    lp.a_matrix_.value_ = cm.A.data
    lp.col_cost_ = cm.c
    lp.col_lower_, lp.col_upper_ = lo, hi
    lp.row_lower_, lp.row_upper_ = cm.row_lo, cm.row_hi
    h.passModel(lp)
    return h


def _run(h: _highs._Highs, cm: _Compiled, lo: np.ndarray, hi: np.ndarray):
    """One HiGHS run: (status, x, row duals), or None if it did not settle."""
    h.run()
    status = h.getModelStatus()
    if status == _highs.HighsModelStatus.kInfeasible:
        return INFEASIBLE, None, None
    if status == _highs.HighsModelStatus.kUnbounded:
        return UNBOUNDED, None, None
    if status != _highs.HighsModelStatus.kOptimal:
        return None
    sol = h.getSolution()
    x, rows = np.array(sol.col_value), np.array(sol.row_value)
    tol = _RESIDUAL_TOL
    if (np.all(x >= lo - tol) and np.all(x <= hi + tol)
            and np.all(rows >= cm.row_lo - tol)
            and np.all(rows <= cm.row_hi + tol)):
        return OPTIMAL, x, sol.row_dual
    return None


def solve_lp(m: LinearModel,
             bound_overrides: Optional[Dict[int, Tuple[float, float]]] = None
             ) -> MilpSolution:
    """Solve the LP relaxation of ``m`` (integrality ignored).

    ``bound_overrides`` maps variable id to a (lb, ub) pair; used by the
    branch-and-bound to fix binaries without copying the model. Only
    those bounds change between calls on an unchanged model, and HiGHS
    starts from the basis of the previous call.
    """
    t0 = time.perf_counter()
    cm = m._compiled_form()
    lo, hi = cm.col_lo, cm.col_hi
    if bound_overrides:
        lo, hi = lo.copy(), hi.copy()
        for vid, (a, b) in bound_overrides.items():
            lo[vid], hi[vid] = a, b
    h, cold = cm.highs, cm.highs is None
    if cold:
        h = cm.highs = _new_highs(cm, lo, hi)
    else:
        changed = np.flatnonzero((lo != cm.lo_set) | (hi != cm.hi_set))
        if changed.size:
            h.changeColsBounds(changed.size, changed, lo[changed], hi[changed])
    cm.lo_set, cm.hi_set = lo, hi
    result = _run(h, cm, lo, hi)
    for retry, options in enumerate(_RETRIES):
        if result is not None:
            break
        if cold and retry == 0:
            continue
        h.clearSolver()
        for name, value in options.items():
            h.setOptionValue(name, value)
        result = _run(h, cm, lo, hi)
        for name in options:
            h.setOptionValue(name, _HIGHS_OPTIONS[name])
    wall = time.perf_counter() - t0
    if result is None:
        raise RuntimeError("LP solve failed: HiGHS model status "
                           f"{h.modelStatusToString(h.getModelStatus())}")
    status, x, row_duals = result
    if status == INFEASIBLE:
        return MilpSolution(INFEASIBLE, math.nan, wall_time=wall)
    if status == UNBOUNDED:
        return MilpSolution(UNBOUNDED, math.inf if m.obj_sense == "max" else -math.inf,
                            wall_time=wall)
    duals = np.empty(m.num_constrs)
    duals[cm.row_order] = row_duals
    return MilpSolution(OPTIMAL, float(cm.cost @ x), dict(enumerate(x.tolist())),
                        relative_gap=0.0, wall_time=wall,
                        constraint_duals=duals, x=x)


@dataclass
class MilpConfig:
    gap_tol: float = 1e-6
    time_limit: Optional[float] = None
    node_limit: Optional[int] = None
    backend: str = "bnb"          # "bnb" (embedded) or "highs"


def deadline(cfg: MilpConfig) -> Optional[float]:
    """The ``time.perf_counter()`` reading at which ``cfg``'s time limit,
    counted from now, runs out."""
    return None if cfg.time_limit is None else time.perf_counter() + cfg.time_limit


def time_left(cfg: MilpConfig, until: Optional[float]) -> MilpConfig:
    """``cfg`` with its time limit cut to what is left before ``until``."""
    if until is None:
        return cfg
    return dataclasses.replace(
        cfg, time_limit=max(0.0, until - time.perf_counter()))


def solve_milp(m: LinearModel, cfg: Optional[MilpConfig] = None) -> MilpSolution:
    """Solve a binary MILP.

    The embedded backend is a deterministic best-first branch-and-bound:
    nodes ordered by their parent's LP-relaxation bound, ties by creation
    order. Each node LP starts from its parent's final basis. A node
    branches on its most fractional binary, ties broken by lowest
    variable id. When that binary lies in a one-hot row (``=`` 1 over
    binaries with coefficient 1, such as a price choice), the node splits
    the row's set where its LP mass crosses one half and each child fixes
    one side to 0; otherwise the children fix the binary to 0 and to 1.
    Incumbents must have every binary within the integrality tolerance.
    A search stopped by ``time_limit`` or ``node_limit`` reports the gap
    to the best bound of the nodes still open.

    Every incumbent is polished: binaries are rounded and the remaining
    LP re-solved with them fixed. A solver may accept binaries that are
    integral only to its tolerance, and a big-M row multiplying such a
    binary then gains big-M-times-tolerance of spurious slack, inflating
    the objective. If the polished value disagrees with the claimed one,
    that binary assignment is excluded with a no-good cut and the solve
    repeats, so a claim that is too high never reaches the result.
    Polishing cannot detect a claim that is too low: solver tolerances
    can also cut off the true optimum, and the polished value is then
    reported as it stands.

    ``cfg.time_limit`` bounds the whole call: each polishing round gets
    only the time left of it. A round after a no-good cut that runs out
    of time returns the best polished candidate so far as ``time-limit``,
    its gap measured to the least bound any round proved.
    """
    cfg = cfg or MilpConfig()
    m.validate()
    if cfg.backend == "highs":
        solver = _solve_milp_highs
    elif cfg.backend == "bnb":
        solver = _solve_milp_bnb
    else:
        raise ValueError(f"unknown backend: {cfg.backend}")
    return _solve_polished(m, cfg, solver)


_POLISH_ROUNDS = 40


def _solve_polished(m: LinearModel, cfg: MilpConfig, solver) -> MilpSolution:
    binaries = m.binary_ids
    base_rows = m.num_constrs
    best: Optional[MilpSolution] = None   # best exactly-polished candidate
    bound = math.inf   # least bound any round proved, times ``sign``
    seen = set()
    t0 = time.perf_counter()
    until = deadline(cfg)
    sign = 1.0 if m.obj_sense == "max" else -1.0
    nodes = 0
    try:
        for _ in range(_POLISH_ROUNDS):
            round_cfg = time_left(cfg, until)
            if round_cfg.time_limit is not None and round_cfg.time_limit <= 0:
                sol = MilpSolution(TIME_LIMIT, math.nan)
            else:
                sol = solver(m, round_cfg)
            nodes += sol.nodes_explored
            if sol.values:
                bound = min(bound, sign * sol.objective + sol.relative_gap
                            * max(1.0, abs(sol.objective)))
            if sol.status not in (OPTIMAL, GAP_LIMIT):
                if best is not None and sol.status == INFEASIBLE:
                    break   # only cut assignments remain; fall back to best
                if best is not None and sol.status == TIME_LIMIT:
                    # Every cut assignment polished to at most ``best``,
                    # so the optimum is below max(best, bound).
                    best.status = TIME_LIMIT
                    best.relative_gap = (max(0.0, bound - sign * best.objective)
                                         / max(1.0, abs(best.objective)))
                    best.nodes_explored = nodes
                    break
                sol.nodes_explored = nodes
                sol.wall_time = time.perf_counter() - t0
                return sol
            assignment = tuple(int(round(sol.values[v])) for v in binaries)
            if assignment in seen:
                raise RuntimeError("solver returned an excluded assignment")
            seen.add(assignment)
            fixed = {v: (float(b), float(b))
                     for v, b in zip(binaries, assignment)}
            lp = solve_lp(m, bound_overrides=fixed)
            polished = None
            if lp.status == OPTIMAL:
                values = dict(lp.values)
                for v, b in zip(binaries, assignment):
                    values[v] = float(b)
                polished = MilpSolution(sol.status, lp.objective, values,
                                        relative_gap=sol.relative_gap,
                                        nodes_explored=nodes)
                if best is None or sign * polished.objective > sign * best.objective:
                    best = polished
            # The claimed bound may exceed the polished value by the
            # requested gap; only a larger excess signals big-M leakage.
            claim_tol = max(cfg.gap_tol, 1e-6)
            claim_ok = (polished is not None and
                        abs(sol.objective - polished.objective)
                        <= claim_tol * max(1.0, abs(polished.objective)))
            if claim_ok or (polished is not None and sol.status == GAP_LIMIT):
                break
            # Inflated or spuriously feasible assignment: exclude it.
            coeffs = {v: (-1.0 if b else 1.0)
                      for v, b in zip(binaries, assignment)}
            m.add_constr(coeffs, GE, 1.0 - sum(assignment), name="nogood")
        else:
            raise RuntimeError("incumbent polishing did not settle within "
                               f"{_POLISH_ROUNDS} rounds")
    finally:
        m.drop_constraints(base_rows)
    if best is None:
        return MilpSolution(INFEASIBLE, math.nan, nodes_explored=nodes,
                            wall_time=time.perf_counter() - t0)
    best.wall_time = time.perf_counter() - t0
    return best


def _most_fractional(x: np.ndarray, binaries: np.ndarray) -> Optional[int]:
    """The binary farthest from integral, lowest id among ties, or None
    when every binary is integral within tolerance."""
    xb = x[binaries]
    frac = np.where(np.abs(xb - np.round(xb)) > TOL.binary_integrality,
                    0.5 - np.abs(xb - 0.5), -1.0)
    best = frac.max(initial=-1.0)
    if best < 0.0:
        return None
    return int(binaries[np.argmax(frac >= best - 1e-12)])


def _onehot_sets(cm: _Compiled) -> Dict[int, np.ndarray]:
    """Map each binary in a one-hot row to that row's columns, in id
    order; a binary in several takes the first. A one-hot row is an
    ``=`` 1 row over two or more binaries, each with coefficient 1. In P1
    and P2 these are the price rows ``onehot_j``."""
    rows = cm.A.tocsr()
    is_binary = np.zeros(cm.A.shape[1], bool)
    is_binary[cm.binary] = True
    sets: Dict[int, np.ndarray] = {}
    for r in np.flatnonzero((cm.row_lo == 1.0) & (cm.row_hi == 1.0)):
        span = slice(rows.indptr[r], rows.indptr[r + 1])
        cols = np.sort(rows.indices[span])
        if (len(cols) >= 2 and is_binary[cols].all()
                and (rows.data[span] == 1.0).all()):
            for vid in cols.tolist():
                sets.setdefault(vid, cols)
    return sets


def _children(x: np.ndarray, vid: int,
              sets: Dict[int, np.ndarray]) -> List[Dict[int, float]]:
    """The fixings that split a node branching on ``vid``. A binary in a
    one-hot set splits the set where its LP mass crosses one half, and
    each child fixes one side to 0 (SOS1 branching, Beale & Tomlin 1970).
    Each side keeps some of the mass, so neither child can re-solve to
    the parent's point. Any other binary, or one whose set has mass on
    fewer than two members, is fixed to 0 and to 1."""
    members = sets.get(vid)
    if members is not None:
        mass = x[members]
        heavy = np.flatnonzero(mass > TOL.binary_integrality)
        if len(heavy) >= 2:
            half = int(np.searchsorted(np.cumsum(mass), 0.5)) + 1
            cut = min(max(half, heavy[0] + 1), heavy[-1])
            return [dict.fromkeys(side.tolist(), 0.0)
                    for side in (members[:cut], members[cut:])]
    return [{vid: 0.0}, {vid: 1.0}]


def _solve_milp_bnb(m: LinearModel, cfg: MilpConfig) -> MilpSolution:
    t0 = time.perf_counter()
    sign = 1.0 if m.obj_sense == "max" else -1.0  # work in max space
    cm = m._compiled_form()
    binaries, sets = cm.binary, _onehot_sets(cm)
    root = solve_lp(m)
    if root.status in (INFEASIBLE, UNBOUNDED):
        root.nodes_explored = 1
        root.wall_time = time.perf_counter() - t0
        return root
    highs = cm.highs    # made or kept by the root solve

    incumbent: Optional[Dict[int, float]] = None
    incumbent_obj = -math.inf
    nodes = 0
    counter = 0
    # heap of (-bound_in_max_space, counter, fixings, parent basis)
    heap = [(-sign * root.objective, counter, {}, None)]
    status = OPTIMAL

    while heap:
        entry = heapq.heappop(heap)
        neg_bound, _, fixings, basis = entry
        bound = -neg_bound
        if incumbent is not None and bound <= incumbent_obj * (1 + 1e-12) + \
                cfg.gap_tol * max(1.0, abs(incumbent_obj)):
            break  # best-first: remaining nodes cannot improve past the gap
        out_of_time = (cfg.time_limit is not None
                       and time.perf_counter() - t0 > cfg.time_limit)
        if out_of_time or (cfg.node_limit is not None
                           and nodes >= cfg.node_limit):
            status = TIME_LIMIT
            heapq.heappush(heap, entry)   # still open, so it bounds the optimum
            break
        nodes += 1
        if nodes == 1 and not fixings:
            sol = root
        else:
            if basis is not None:
                highs.setBasis(basis)
            sol = solve_lp(m, {vid: (val, val) for vid, val in fixings.items()})
        if sol.status != OPTIMAL:
            continue
        node_obj = sign * sol.objective
        if incumbent is not None and node_obj <= incumbent_obj + \
                cfg.gap_tol * max(1.0, abs(incumbent_obj)):
            continue
        vid = _most_fractional(sol.x, binaries)
        if vid is None:
            if node_obj > incumbent_obj:
                incumbent, incumbent_obj = sol.values, node_obj
            continue
        basis = highs.getBasis()
        if not basis.valid:   # an IPM retry may leave no basis
            basis = None
        for split in _children(sol.x, vid, sets):
            counter += 1
            heapq.heappush(heap, (-node_obj, counter, {**fixings, **split},
                                  basis))

    wall = time.perf_counter() - t0
    best_bound = -heap[0][0] if heap else incumbent_obj
    if incumbent is None:
        if status == OPTIMAL:
            return MilpSolution(INFEASIBLE, math.nan, nodes_explored=nodes,
                                wall_time=wall)
        return MilpSolution(status, math.nan, nodes_explored=nodes, wall_time=wall)
    gap = max(0.0, best_bound - incumbent_obj) / max(1.0, abs(incumbent_obj))
    if status == OPTIMAL and gap > cfg.gap_tol:
        status = GAP_LIMIT
    return MilpSolution(status, sign * incumbent_obj, incumbent,
                        relative_gap=gap, nodes_explored=nodes, wall_time=wall)


@functools.cache
def _libc() -> ctypes.CDLL:
    return ctypes.CDLL(None)


@contextlib.contextmanager
def _stdout_to_log():
    """Point file descriptor 1 at a temporary file for the block, then
    log what landed there at DEBUG. HiGHS's MIP solver writes some
    messages to stdout even with its output switched off. C's stdout
    buffer is flushed before fd 1 is restored, so none of it lands on
    the real stdout later."""
    sys.stdout.flush()
    saved = os.dup(1)
    with tempfile.TemporaryFile() as sink:
        os.dup2(sink.fileno(), 1)
        try:
            yield
        finally:
            sys.stdout.flush()
            _libc().fflush(None)
            os.dup2(saved, 1)
            os.close(saved)
        sink.seek(0)
        for line in sink.read().decode(errors="replace").splitlines():
            _log.debug("HiGHS: %s", line)


def _solve_milp_highs(m: LinearModel, cfg: MilpConfig) -> MilpSolution:
    t0 = time.perf_counter()
    cm = m._compiled_form()
    sign = 1.0 if m.obj_sense == "max" else -1.0
    constraints = None
    if m.num_constrs:
        constraints = sopt.LinearConstraint(cm.A, cm.row_lo, cm.row_hi)
    integrality = np.zeros(m.num_vars, int)
    integrality[cm.binary] = 1
    options = {"mip_rel_gap": cfg.gap_tol}
    if cfg.time_limit is not None:
        options["time_limit"] = cfg.time_limit
    if cfg.node_limit is not None:
        options["node_limit"] = cfg.node_limit
    with _stdout_to_log():
        res = sopt.milp(cm.c, constraints=constraints, integrality=integrality,
                        bounds=sopt.Bounds(cm.col_lo, cm.col_hi),
                        options=options)
    wall = time.perf_counter() - t0
    if res.status == 2:
        return MilpSolution(INFEASIBLE, math.nan, wall_time=wall)
    if res.status == 3:
        return MilpSolution(UNBOUNDED, sign * math.inf, wall_time=wall)
    if res.x is None:
        return MilpSolution(TIME_LIMIT, math.nan, wall_time=wall)
    # Relative to max(1, |objective|), as the embedded backend and the
    # polishing check measure it: HiGHS's own mip_gap divides by the
    # objective alone and blows up near an objective of 0.
    bound = getattr(res, "mip_dual_bound", None)
    gap = (0.0 if bound is None
           else abs(res.fun - bound) / max(1.0, abs(res.fun)))
    status = OPTIMAL if res.status == 0 else TIME_LIMIT
    if status == OPTIMAL and gap > cfg.gap_tol * (1 + 1e-9):
        status = GAP_LIMIT
    return MilpSolution(status, float(cm.cost @ res.x),
                        dict(enumerate(res.x.tolist())), relative_gap=gap,
                        nodes_explored=int(getattr(res, "mip_node_count", 0) or 0),
                        wall_time=wall)


# -- MPS bridge -------------------------------------------------------


def _short_names(labels: List[str], prefix: str) -> List[str]:
    """Truncate labels to 8 chars, keeping them unique and deterministic."""
    out, used = [], set()
    for idx, label in enumerate(labels):
        base = "".join(ch if ch.isalnum() else "_" for ch in label)[:8]
        if not base:
            base = f"{prefix}{idx}"
        name = base
        n = 0
        while name in used:
            n += 1
            tag = str(n)
            name = base[:8 - len(tag)] + tag
        used.add(name)
        out.append(name)
    return out


def mps_names(m: LinearModel) -> Tuple[List[str], List[str]]:
    """Deterministic 8-char variable and row names used by the MPS writer."""
    var_names = _short_names([v.name for v in m.variables], "X")
    row_names = _short_names([c.name for c in m.constraints], "R")
    return var_names, row_names


def export_mps(m: LinearModel) -> str:
    """Write ``m`` in fixed-format MPS (binaries inside INTORG/INTEND)."""
    m.validate()
    var_names, row_names = mps_names(m)
    lines = [f"NAME          {m.name[:8].upper() or 'MODEL'}"]
    lines.append("OBJSENSE")
    lines.append(f"    {m.obj_sense.upper()}")
    lines.append("ROWS")
    lines.append(" N  OBJ")
    sense_tag = {LE: "L", EQ: "E", GE: "G"}
    for con, rname in zip(m.constraints, row_names):
        lines.append(f" {sense_tag[con.sense]}  {rname}")
    lines.append("COLUMNS")
    by_var: List[List[Tuple[str, float]]] = [[] for _ in range(m.num_vars)]
    for vid, coef in m.objective.items():
        by_var[vid].append(("OBJ", coef))
    for con, rname in zip(m.constraints, row_names):
        for vid, coef in con.coeffs.items():
            by_var[vid].append((rname, coef))
    in_int = False
    marker = 0
    for v in m.variables:
        if v.binary != in_int:
            tag = "INTORG" if v.binary else "INTEND"
            lines.append(f"    MK{marker:<8}  'MARKER'                 '{tag}'")
            marker += 1
            in_int = v.binary
        for rname, coef in by_var[v.vid]:
            lines.append(f"    {var_names[v.vid]:<10}{rname:<10}{coef:< .12G}")
    if in_int:
        lines.append(f"    MK{marker:<8}  'MARKER'                 'INTEND'")
    lines.append("RHS")
    for con, rname in zip(m.constraints, row_names):
        if con.rhs != 0.0:
            lines.append(f"    RHS       {rname:<10}{con.rhs:< .12G}")
    lines.append("BOUNDS")
    for v in m.variables:
        name = var_names[v.vid]
        if v.binary:
            lines.append(f" BV BND       {name}")
            continue
        if v.lb == -math.inf and v.ub == math.inf:
            lines.append(f" FR BND       {name}")
            continue
        if v.lb == -math.inf:
            lines.append(f" MI BND       {name}")
        elif v.lb != 0.0:
            lines.append(f" LO BND       {name:<10}{v.lb:< .12G}")
        if v.ub != math.inf:
            lines.append(f" UP BND       {name:<10}{v.ub:< .12G}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def import_solution(m: LinearModel, text: str) -> MilpSolution:
    """Read a ``name value`` per-line solution file for ``m``.

    The objective is recomputed from the model; feasibility is verified
    rather than trusted.
    """
    var_names, _ = mps_names(m)
    lookup = {name: vid for vid, name in enumerate(var_names)}
    values: Dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'name value', got {raw!r}")
        name, val = parts
        if name not in lookup:
            raise ValueError(f"line {lineno}: unknown variable {name!r}")
        values[lookup[name]] = float(val)
    missing = [var_names[i] for i in range(m.num_vars) if i not in values]
    if missing:
        raise ValueError(f"solution file missing variables: {missing[:5]}")
    violation = m.max_violation(values)
    frac = max((abs(values[vid] - round(values[vid])) for vid in m.binary_ids),
               default=0.0)
    feasible = violation <= 1e-6 and frac <= TOL.binary_integrality
    status = OPTIMAL if feasible else INFEASIBLE
    return MilpSolution(status, m.objective_value(values), values)
