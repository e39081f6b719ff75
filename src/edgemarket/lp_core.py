"""Solver-agnostic linear/mixed-integer model IR and solvers.

``LinearModel`` is a plain sparse container. ``add_vars`` creates a
block of variables and returns their ids as an int array shaped like
the block, so a model symbol is an index array. A solved point is one
float array, ``MilpSolution.x``, which those arrays index and which
``max_violation`` checks against the compiled rows and bounds. On its
first solve a model is compiled once, with vectorised checks, to arrays
(cost vector, CSC matrix, row and column bounds); any change to the
model drops that compiled form. ``solve_lp`` keeps one HiGHS instance
per compiled model, through the bindings bundled with scipy
(``scipy.optimize._highspy``): the first call hands HiGHS the LP that
``linprog(method="highs")`` did, and every later call changes only
column bounds, so HiGHS hot-starts from the basis it already holds.
MILPs are solved with an embedded best-first branch-and-bound over
those relaxations (``solve_milp``), which starts each node from its
parent's basis and branches on one-hot rows as sets, or with HiGHS' own
branch-and-bound through the same binding, loaded by the same code.
A model with complementarity switches (``LinearModel.pairs``) first
solves its switch relaxation, and closes the search with one run that
fixes the relaxation's leader decision where that run meets the
relaxation's bound.
That MIP search runs with HiGHS's RINS and RENS sub-MIP heuristics off:
on these models they spent most of the search's LP iterations and found
none of its incumbents. Feasibility jump and the root reduced-cost
sub-MIP are off too: on tiny models their fixed start-up work cost as
much as the search, they found the final incumbent on 8 of 40 tiny
solves and none at desk size, and without them every optimum is the
same. An MPS writer and a solution importer bridge to external
solvers.
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
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
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
    coefficients or right-hand sides, a column bound that is NaN, a lower
    bound of +inf or an upper bound of -inf, and binaries outside
    [0, 1]."""
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
    bad = _first_bad(np.isnan(col_lo) | np.isnan(col_hi)
                     | (col_lo == math.inf) | (col_hi == -math.inf))
    if bad is not None:
        raise ValueError(f"invalid bounds [{col_lo[bad]}, {col_hi[bad]}] on "
                         f"variable {m.variables[bad].name}")
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
    form that the solvers reuse. ``pairs`` is the exception: a builder
    appends to it each complementarity pair it linearizes, as (binary
    switch, multiplier column). It is not part of the compiled form;
    ``solve_milp``'s ``highs`` backend reads the switches from it.
    """

    def __init__(self, name: str = "model", sense: str = "max"):
        if sense not in ("min", "max"):
            raise ValueError(f"bad objective sense: {sense}")
        self.name = name
        self.obj_sense = sense
        self.variables: List[_Var] = []
        self.constraints: List[_Constr] = []
        self.objective: Dict[int, float] = {}
        self.pairs: List[Tuple[int, int]] = []
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

    def add_vars(self, prefix: str, shape: Tuple[int, ...], suffix: str = "",
                 lb=0.0, ub=math.inf, binary: bool = False) -> np.ndarray:
        """One variable per index of ``shape``, created in row-major order
        and named ``{prefix}_{i}_{j}...{suffix}``; their ids, as an int
        array of that shape. ``lb`` and ``ub`` are numbers or arrays of
        ``shape``."""
        names = [prefix]
        for size in shape:
            names = [f"{name}_{i}" for name in names for i in range(size)]
        n, start = len(names), len(self.variables)
        lbs = (np.reshape(lb, n).tolist() if isinstance(lb, np.ndarray)
               else itertools.repeat(lb))
        ubs = (np.reshape(ub, n).tolist() if isinstance(ub, np.ndarray)
               else itertools.repeat(ub))
        for name, lo, hi in zip(names, lbs, ubs):
            self.add_var(name + suffix, lo, hi, binary)
        return np.arange(start, start + n).reshape(shape)

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
        """Raise ValueError on dangling ids, non-finite coefficients or
        invalid column bounds."""
        self._compiled_form()

    def max_violation(self, x: np.ndarray) -> float:
        """Largest row or column bound violation of the point ``x``."""
        cm = self._compiled_form()
        rows = cm.A @ x
        gaps = (cm.col_lo - x, x - cm.col_hi, cm.row_lo - rows,
                rows - cm.row_hi)
        return max(0.0, *(float(np.max(g, initial=0.0)) for g in gaps))


@dataclass
class MilpSolution:
    """A solve's outcome. ``x`` is the point, one value per variable id,
    or None when the solve found none; a layout's id arrays index it
    directly. ``relative_gap`` is None without a point, since with no
    incumbent the gap is unknown. ``nodes_explored`` sums the nodes of
    every search the solve ran: each polishing round, and on ``highs``
    each of a round's MIP runs, the switch relaxation and fixed-leader
    run of a model with ``pairs`` and any full search after them.
    ``constraint_duals``, one per row in model order, come from
    ``solve_lp`` only."""

    status: str
    objective: float
    x: Optional[np.ndarray] = None
    relative_gap: Optional[float] = 0.0
    nodes_explored: int = 0
    constraint_duals: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.x is None:
            self.relative_gap = None


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


def _set_options(h: _highs._Highs, options: Dict[str, object]):
    """Set each option, raising RuntimeError on one HiGHS rejects, so an
    option renamed in a later HiGHS fails loudly instead of silently
    keeping its default."""
    for name, value in options.items():
        if h.setOptionValue(name, value) != _highs.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected option {name}={value!r}")


def _new_highs(cm: _Compiled, lo: np.ndarray, hi: np.ndarray,
               integer: bool = False) -> _highs._Highs:
    """A HiGHS instance holding ``cm`` with column bounds ``lo``, ``hi``;
    with ``integer``, its binaries are integer columns."""
    h = _highs._Highs()
    _set_options(h, _HIGHS_OPTIONS)
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
    if integer:
        kinds = [_highs.HighsVarType.kContinuous] * len(cm.c)
        for vid in cm.binary.tolist():
            kinds[vid] = _highs.HighsVarType.kInteger
        lp.integrality_ = kinds
    status = h.passModel(lp)
    if status == _highs.HighsStatus.kError:
        raise RuntimeError(f"HiGHS could not load the model: {status.name}")
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
    worst = np.concatenate((lo - x, x - hi, cm.row_lo - rows,
                            rows - cm.row_hi)).max(initial=-math.inf)
    if worst <= _RESIDUAL_TOL:
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
        _set_options(h, options)
        result = _run(h, cm, lo, hi)
        _set_options(h, {name: _HIGHS_OPTIONS[name] for name in options})
    if result is None:
        raise RuntimeError("LP solve failed: HiGHS model status "
                           f"{h.modelStatusToString(h.getModelStatus())}")
    status, x, row_duals = result
    if status == INFEASIBLE:
        return MilpSolution(INFEASIBLE, math.nan)
    if status == UNBOUNDED:
        return MilpSolution(UNBOUNDED, math.inf if m.obj_sense == "max" else -math.inf)
    duals = np.empty(m.num_constrs)
    duals[cm.row_order] = row_duals
    return MilpSolution(OPTIMAL, float(cm.cost @ x), x, constraint_duals=duals)


def row_violations(m: LinearModel) -> Optional[np.ndarray]:
    """Each row's violation, in model order, at a point that minimises
    the total row violation within the column bounds (HiGHS's feasibility
    relaxation), or None if HiGHS fails. A fresh HiGHS instance solves
    it, so the one ``solve_lp`` keeps for hot starts is untouched."""
    cm = m._compiled_form()
    h = _new_highs(cm, cm.col_lo, cm.col_hi)
    if h.feasibilityRelaxation(-1.0, -1.0, 1.0) != _highs.HighsStatus.kOk:
        return None
    rows = np.array(h.getSolution().row_value)
    gaps = np.empty(m.num_constrs)
    gaps[cm.row_order] = np.maximum(cm.row_lo - rows,
                                    rows - cm.row_hi).clip(0.0)
    return gaps


def first_feasible_lift(m: LinearModel,
                        groups: List[List[int]]) -> Optional[int]:
    """The index of the first of ``groups``, each a list of model rows,
    whose rows made free leave the LP relaxation of ``m`` feasible, or
    None if none does. Each group is lifted alone and put back before
    the next, on a fresh HiGHS instance, so the one ``solve_lp`` keeps
    for hot starts is untouched. A run HiGHS leaves unresolved counts
    as still infeasible."""
    cm = m._compiled_form()
    h = _new_highs(cm, cm.col_lo, cm.col_hi)
    position = np.empty(m.num_constrs, np.int32)
    position[cm.row_order] = np.arange(m.num_constrs)
    feasible = (_highs.HighsModelStatus.kOptimal,
                _highs.HighsModelStatus.kUnbounded)
    for index, rows in enumerate(groups):
        at = position[rows].tolist()
        for row in at:
            h.changeRowBounds(row, -math.inf, math.inf)
        h.run()
        if h.getModelStatus() in feasible:
            return index
        for row in at:
            h.changeRowBounds(row, cm.row_lo[row], cm.row_hi[row])
    return None


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
    A node whose LP HiGHS leaves unresolved after every retry is split
    on its first unfixed binary, both children under the parent's bound;
    only a node with every binary fixed raises. A search stopped by
    ``time_limit`` or ``node_limit`` reports the gap to the best bound of
    the nodes still open.

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

    The ``highs`` backend is HiGHS's own branch-and-bound, driven
    through the same binding and model loader as ``solve_lp``, with its
    RINS and RENS sub-MIP heuristics off (``_MIP_OPTIONS``): on these
    models they spent most of its LP iterations and found none of its
    incumbents. Feasibility jump and the root reduced-cost sub-MIP are
    off as well, as start-up work that tiny models pay for and no
    optimum needs. An option HiGHS rejects raises RuntimeError, so a
    renamed one cannot silently bring them back. HiGHS's unbounded-or-infeasible
    verdict is settled by one re-run without presolve; a load or solve
    error, or any status other than optimal, infeasible, unbounded or a
    time, node or iteration limit, raises RuntimeError naming it. Every
    run goes through ``_run_mip``, which also settles that verdict.

    A model with ``pairs``, such as P1, first solves the same model with
    only the complementarity switches continuous, to the same gap and
    options. That run only relaxes integrality, so its dual bound bounds
    the model's optimum. Its other binaries, rounded, are then fixed by
    their column bounds and the model solved again with the switches
    integer. That point is feasible with every binary integral; if its
    objective lies within ``gap_tol`` of the relaxation's bound, it is
    returned as optimal with that gap and no search follows. On P1 the
    relaxation still holds P2's rows, so its leader decision is nearly
    always optimal and this closes the solve: over HiGHS random_seed
    0-3, P1 on desk seeds 0-4 took 10.4 s in all, against 54.1 s with a
    full search after the relaxation. Otherwise, or where either run
    ends other than optimal, the bounds are put back and the full search
    runs cold, as it does for a model without ``pairs``.
    ``nodes_explored`` counts the nodes of every run.

    ``cfg.time_limit`` bounds the whole call: each polishing round gets
    only the time left of it, and on ``highs`` a round's relaxation and
    fixed-leader runs share that time with its search. A round after a
    no-good cut that runs out of time returns the best polished
    candidate so far as ``time-limit``, its gap measured to the least
    bound any round proved.
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
    binaries = m._compiled_form().binary
    base_rows = m.num_constrs
    best: Optional[MilpSolution] = None   # best exactly-polished candidate
    bound = math.inf   # least bound any round proved, times ``sign``
    seen = set()
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
            if sol.x is not None:
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
                return sol
            bits = np.where(sol.x[binaries] > 0.5, 1.0, 0.0)
            assignment = tuple(bits.astype(int).tolist())
            if assignment in seen:
                raise RuntimeError("solver returned an excluded assignment")
            seen.add(assignment)
            fixed = {v: (b, b)
                     for v, b in zip(binaries.tolist(), bits.tolist())}
            lp = solve_lp(m, bound_overrides=fixed)
            polished = None
            if lp.status == OPTIMAL:
                x = lp.x.copy()
                x[binaries] = bits
                polished = MilpSolution(sol.status, lp.objective, x,
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
                      for v, b in zip(binaries.tolist(), assignment)}
            m.add_constr(coeffs, GE, 1.0 - sum(assignment), name="nogood")
        else:
            raise RuntimeError("incumbent polishing did not settle within "
                               f"{_POLISH_ROUNDS} rounds")
    finally:
        m.drop_constraints(base_rows)
    if best is None:
        return MilpSolution(INFEASIBLE, math.nan, nodes_explored=nodes)
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
        return root
    highs = cm.highs    # made or kept by the root solve

    incumbent: Optional[np.ndarray] = None
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
            try:
                sol = solve_lp(m, {vid: (val, val)
                                   for vid, val in fixings.items()})
            except RuntimeError:
                # HiGHS left this node's LP unresolved. Its subtree may
                # hold the optimum, so keep it open under the parent's
                # bound, split on its first free binary.
                free = next((v for v in binaries.tolist() if v not in fixings),
                            None)
                if free is None:
                    raise
                for val in (0.0, 1.0):
                    counter += 1
                    heapq.heappush(heap, (neg_bound, counter,
                                          {**fixings, free: val}, basis))
                continue
        if sol.status != OPTIMAL:
            continue
        node_obj = sign * sol.objective
        if incumbent is not None and node_obj <= incumbent_obj + \
                cfg.gap_tol * max(1.0, abs(incumbent_obj)):
            continue
        vid = _most_fractional(sol.x, binaries)
        if vid is None:
            if node_obj > incumbent_obj:
                incumbent, incumbent_obj = sol.x, node_obj
            continue
        basis = highs.getBasis()
        if not basis.valid:   # an IPM retry may leave no basis
            basis = None
        for split in _children(sol.x, vid, sets):
            counter += 1
            heapq.heappush(heap, (-node_obj, counter, {**fixings, **split},
                                  basis))

    best_bound = -heap[0][0] if heap else incumbent_obj
    if incumbent is None:
        if status == OPTIMAL:
            return MilpSolution(INFEASIBLE, math.nan, nodes_explored=nodes)
        return MilpSolution(status, math.nan, nodes_explored=nodes)
    gap = max(0.0, best_bound - incumbent_obj) / max(1.0, abs(incumbent_obj))
    if status == OPTIMAL and gap > cfg.gap_tol:
        status = GAP_LIMIT
    return MilpSolution(status, sign * incumbent_obj, incumbent,
                        relative_gap=gap, nodes_explored=nodes)


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


# HiGHS's MIP search runs without its RINS (Danna, Rothberg & Le Pape
# 2005) and RENS (Berthold 2014) heuristics. Each solves a sub-MIP around
# an LP point; on these models they did most of the search and found no
# incumbent: on tiny seed 1 under P2, 1554 of 1920 LP iterations were
# heuristics, and on desk seed 0 under P2, 8432 of 13 499, while every
# incumbent came from node LPs. With both off desk-schemes runs about a
# third faster; with every heuristic off it gains less.
#
# Feasibility jump (Luteberget & Sartor 2023) and the root reduced-cost
# sub-MIP, the only sub-MIP left once RINS and RENS are off, run once
# at the root, and on tiny models that fixed work cost as much as the
# search. Summed over HiGHS random_seed 0-3, the MIP time of tiny seeds
# 0-19 fell from 2.44 to 1.32 s under P2 and from 5.60 to 4.77 s under
# P1 with both off, while the LP iterations hardly moved (random_seed
# 0: P2 3955 to 3505, P1 19534 to 19520). In HiGHS's log feasibility
# jump found the final incumbent on 3 of those 20 P1 and 3 of 20 P2
# solves and on none of the 18 desk-schemes MILPs, and the sub-MIP on 5
# tiny solves and no desk solve; without them, every optimum was the
# same to 6 decimals under each random_seed. At desk size they cost
# about nothing: the desk-schemes MILPs took 48.5 s with them and
# 49.3 s without, over the same four seeds, well inside the spread
# between seeds.
#
# Presolve rule 13, "Parallel rows and columns" in HiGHS's log, is off.
# With it, presolve emptied P1 under avg on tiny seed 21 and returned
# "optimal" at -0.5118 (random_seed 0-3 alike), though the model holds
# the oracle's 0.13. Against the oracle on tiny seeds 0-399, plain and
# tight-budget, all three schemes, P1 and P2 missed 1 of 4800 optima
# with it and none without; the doubleton-equation rule off instead
# moved the miss to dyn P1 on seed 51.
_MIP_OPTIONS = {
    "mip_heuristic_run_rins": False,
    "mip_heuristic_run_rens": False,
    "mip_heuristic_run_feasibility_jump": False,
    "mip_heuristic_run_root_reduced_cost": False,
    "presolve_rule_off": 1 << 13,
}
_M = _highs.HighsModelStatus
_MIP_STATUS = {
    _M.kOptimal: OPTIMAL,
    _M.kInfeasible: INFEASIBLE,
    _M.kUnbounded: UNBOUNDED,
    _M.kTimeLimit: TIME_LIMIT,
    _M.kSolutionLimit: TIME_LIMIT,     # mip_max_nodes reached
    _M.kIterationLimit: TIME_LIMIT,
}
_FEASIBLE = int(_highs.kSolutionStatusFeasible)


def _run_mip(h: _highs._Highs, m: LinearModel, options: Dict[str, object],
             until: Optional[float], gap_tol: float
             ) -> Tuple[Optional[MilpSolution], float]:
    """Run ``h``, which holds ``m``, from a cleared solver with
    ``options``, presolve on, and the time left before ``until``, its
    chatter sent to the log. Presolve reports an unbounded relaxation
    as unbounded-or-infeasible; one re-run without it tells the two
    apart. Returns the outcome, or None on a status this module does not
    map, and the run's dual bound in the model's own sense. Both are
    read here, since changing a bound clears HiGHS's status and
    solution."""
    for presolve in ("on", "off"):
        h.clearSolver()
        run_options = dict(options, presolve=presolve)
        if until is not None:
            run_options["time_limit"] = max(0.0, until - time.perf_counter())
        _set_options(h, run_options)
        with _stdout_to_log():
            run_status = h.run()
        model_status = h.getModelStatus()
        if model_status != _M.kUnboundedOrInfeasible:
            break
    info = h.getInfo()
    sign = -1.0 if m.obj_sense == "max" else 1.0
    bound = sign * info.mip_dual_bound
    status = _MIP_STATUS.get(model_status)
    if status is None or run_status == _highs.HighsStatus.kError:
        return None, bound
    nodes = int(info.mip_node_count)
    if status == UNBOUNDED:
        return MilpSolution(UNBOUNDED, -sign * math.inf,
                            nodes_explored=nodes), bound
    if status == INFEASIBLE or info.primal_solution_status != _FEASIBLE:
        return MilpSolution(status, math.nan, nodes_explored=nodes), bound
    # Relative to max(1, |objective|), as the embedded backend and the
    # polishing check measure it: HiGHS's own mip_gap divides by the
    # objective alone and blows up near an objective of 0.
    fun = info.objective_function_value     # of min c @ x
    gap = abs(fun - info.mip_dual_bound) / max(1.0, abs(fun))
    if status == OPTIMAL and gap > gap_tol * (1 + 1e-9):
        status = GAP_LIMIT
    x = np.array(h.getSolution().col_value)
    return MilpSolution(status, float(m._compiled_form().cost @ x), x,
                        relative_gap=gap, nodes_explored=nodes), bound


def _solve_milp_highs(m: LinearModel, cfg: MilpConfig) -> MilpSolution:
    until = deadline(cfg)
    cm = m._compiled_form()
    h = _new_highs(cm, cm.col_lo, cm.col_hi, integer=True)
    options = dict(_MIP_OPTIONS, mip_rel_gap=cfg.gap_tol)
    if cfg.node_limit is not None:
        options["mip_max_nodes"] = cfg.node_limit
    nodes = 0
    if m.pairs:
        switches = np.array(sorted(s for s, _ in m.pairs), np.int32)

        def kinds(kind):
            return np.full(len(switches), int(kind), np.uint8)

        # Only integrality is relaxed, so ``bound`` bounds the optimum.
        h.changeColsIntegrality(len(switches), switches,
                                kinds(_highs.HighsVarType.kContinuous))
        relaxed, bound = _run_mip(h, m, options, until, cfg.gap_tol)
        h.changeColsIntegrality(len(switches), switches,
                                kinds(_highs.HighsVarType.kInteger))
        nodes += relaxed.nodes_explored if relaxed else 0
        if relaxed and relaxed.status == OPTIMAL and relaxed.x is not None:
            ids = np.setdiff1d(cm.binary, switches).astype(np.int32)
            values = np.round(relaxed.x[ids])
            h.changeColsBounds(len(ids), ids, values, values)
            fixed, _ = _run_mip(h, m, options, until, cfg.gap_tol)
            h.changeColsBounds(len(ids), ids, cm.col_lo[ids], cm.col_hi[ids])
            nodes += fixed.nodes_explored if fixed else 0
            if fixed and fixed.status == OPTIMAL and fixed.x is not None:
                gap = (abs(fixed.objective - bound)
                       / max(1.0, abs(fixed.objective)))
                if gap <= cfg.gap_tol * (1 + 1e-9):
                    fixed.relative_gap, fixed.nodes_explored = gap, nodes
                    return fixed
    sol, _ = _run_mip(h, m, options, until, cfg.gap_tol)
    if sol is None:
        raise RuntimeError("MILP solve failed: HiGHS model status "
                           f"{h.modelStatusToString(h.getModelStatus())}")
    sol.nodes_explored += nodes
    return sol


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
    """Write ``m`` in fixed-format MPS (binaries inside INTORG/INTEND).
    A binary on [0, 1] is written ``BV``; one with tightened bounds, such
    as [1, 1], gets ``LO`` and ``UP`` bounds as a continuous column does,
    so an external solver reads the same model."""
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
        if v.binary and (v.lb, v.ub) == (0.0, 1.0):
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
    rather than trusted. A line naming an unknown or already given
    variable, or holding a value that is not a finite number, raises
    ValueError naming that line.
    """
    var_names, _ = mps_names(m)
    lookup = {name: vid for vid, name in enumerate(var_names)}
    x = np.full(m.num_vars, math.nan)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'name value', got {raw!r}")
        name, val = parts
        vid = lookup.get(name)
        if vid is None:
            raise ValueError(f"line {lineno}: unknown variable {name!r}")
        if not math.isnan(x[vid]):
            raise ValueError(f"line {lineno}: variable {name!r} given twice")
        try:
            value = float(val)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: value of {name!r} is not a "
                             f"finite number: {val!r}")
        x[vid] = value
    missing = [var_names[vid] for vid in np.flatnonzero(np.isnan(x))]
    if missing:
        raise ValueError(f"solution file missing variables: {missing[:5]}")
    cm = m._compiled_form()
    xb = x[cm.binary]
    frac = float(np.max(np.abs(xb - np.round(xb)), initial=0.0))
    feasible = m.max_violation(x) <= 1e-6 and frac <= TOL.binary_integrality
    return MilpSolution(OPTIMAL if feasible else INFEASIBLE,
                        float(cm.cost @ x), x)
