"""LP/MILP core: LP against a vertex-enumeration oracle and against
scipy's linprog, the compile cache and hot starts, MILP against
exhaustive enumeration, the wall-clock budget, MPS round trip, solution
import."""

import functools
import itertools
import math
import time

import numpy as np
import pytest
import scipy.optimize as sopt
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _highs

from edgemarket import lp_core
from edgemarket.lp_core import (GE, LE, EQ, INFEASIBLE, OPTIMAL, TIME_LIMIT,
                                UNBOUNDED, LinearModel, MilpConfig,
                                MilpSolution, export_mps, import_solution,
                                mps_names, solve_lp, solve_milp)


def random_lp(rng, n_vars=4, n_rows=5):
    m = LinearModel(name="rand", sense="max")
    for i in range(n_vars):
        m.add_var(f"v{i}", lb=0.0, ub=float(rng.uniform(0.5, 3.0)))
    for r in range(n_rows):
        coeffs = {i: float(rng.normal()) for i in range(n_vars)
                  if rng.random() < 0.8}
        if not coeffs:
            coeffs = {0: 1.0}
        m.add_constr(coeffs, LE, float(rng.uniform(0.5, 4.0)))
    m.set_objective({i: float(rng.normal()) for i in range(n_vars)})
    return m


def lp_oracle_boxed(m):
    """Dense grid-free oracle for boxed LPs: enumerate candidate vertices
    as intersections of active bounds and rows via scipy, fall back to a
    fine random search; here all our random LPs are bounded boxes with
    <=-rows, so sampling plus local polish via scipy is unnecessary --
    instead enumerate all subsets of tight constraints."""
    n = m.num_vars
    rows = []
    rhs = []
    for con in m.constraints:
        a = np.zeros(n)
        for vid, coef in con.coeffs.items():
            a[vid] = coef
        rows.append(a)
        rhs.append(con.rhs)
    for v in m.variables:   # bounds as rows
        a = np.zeros(n)
        a[v.vid] = -1.0
        rows.append(a)
        rhs.append(-v.lb)
        a = np.zeros(n)
        a[v.vid] = 1.0
        rows.append(a)
        rhs.append(v.ub)
    A, b = np.array(rows), np.array(rhs)
    c = np.zeros(n)
    for vid, coef in m.objective.items():
        c[vid] = coef
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        sub_A, sub_b = A[list(subset)], b[list(subset)]
        if abs(np.linalg.det(sub_A)) < 1e-10:
            continue
        x = np.linalg.solve(sub_A, sub_b)
        if np.all(A @ x <= b + 1e-8):
            val = float(c @ x)
            if best is None or val > best:
                best = val
    return best


@pytest.mark.parametrize("seed", range(10))
def test_solve_lp_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = random_lp(rng, n_vars=3, n_rows=4)
    sol = solve_lp(m)
    oracle = lp_oracle_boxed(m)
    assert sol.status == OPTIMAL
    assert oracle is not None
    assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_solve_lp_reports_infeasible_and_unbounded():
    m = LinearModel(sense="max")
    a = m.add_var("a", ub=1.0)
    m.add_constr({a: 1.0}, GE, 2.0)
    m.set_objective({a: 1.0})
    assert solve_lp(m).status == INFEASIBLE

    m = LinearModel(sense="max")
    a = m.add_var("a")
    m.set_objective({a: 1.0})
    assert solve_lp(m).status == UNBOUNDED


def test_solve_lp_duals_satisfy_strong_duality():
    rng = np.random.default_rng(7)
    m = random_lp(rng, n_vars=4, n_rows=5)
    sol = solve_lp(m)
    assert sol.status == OPTIMAL
    assert sol.constraint_duals is not None
    assert len(sol.constraint_duals) == m.num_constrs


def random_milp(rng, n_bin, n_cont=2):
    m = LinearModel(name="randmilp", sense="max")
    for i in range(n_bin):
        m.add_var(f"b{i}", binary=True)
    for i in range(n_cont):
        m.add_var(f"c{i}", lb=0.0, ub=float(rng.uniform(1.0, 3.0)))
    n = n_bin + n_cont
    for _ in range(n_bin + 2):
        coeffs = {i: float(rng.normal()) for i in range(n)
                  if rng.random() < 0.7}
        if not coeffs:
            continue
        m.add_constr(coeffs, LE, float(rng.uniform(0.5, float(n))))
    m.set_objective({i: float(rng.normal()) for i in range(n)})
    return m


def linprog_arrays(m):
    """``m`` as dense linprog arguments, built here, independent of
    lp_core's solve path."""
    n = m.num_vars
    c = np.zeros(n)
    for vid, coef in m.objective.items():
        c[vid] = coef
    A_ub, b_ub, A_eq, b_eq, ub_rows, eq_rows = [], [], [], [], [], []
    for ridx, con in enumerate(m.constraints):
        a = np.zeros(n)
        for vid, coef in con.coeffs.items():
            a[vid] = coef
        if con.sense == EQ:
            A_eq.append(a)
            b_eq.append(con.rhs)
            eq_rows.append(ridx)
        else:
            flip = -1.0 if con.sense == GE else 1.0
            A_ub.append(flip * a)
            b_ub.append(flip * con.rhs)
            ub_rows.append(ridx)
    return dict(c=c, sign=-1.0 if m.obj_sense == "max" else 1.0,
                A_ub=np.array(A_ub) if A_ub else None,
                b_ub=np.array(b_ub) if b_ub else None,
                A_eq=np.array(A_eq) if A_eq else None,
                b_eq=np.array(b_eq) if b_eq else None,
                bounds=[(v.lb, v.ub) for v in m.variables],
                rows=(ub_rows, eq_rows, m.num_constrs))


def linprog_reference(m, bound_overrides=None, arrays=None):
    """Solve ``m`` with scipy's linprog. Returns (status, objective,
    row duals)."""
    arrays = arrays or linprog_arrays(m)
    bounds = list(arrays["bounds"])
    for vid, pair in (bound_overrides or {}).items():
        bounds[vid] = pair
    kwargs = {key: arrays[key] for key in ("A_ub", "b_ub", "A_eq", "b_eq")}
    c = arrays["sign"] * arrays["c"]
    res = sopt.linprog(c, bounds=bounds, method="highs", **kwargs)
    if res.status == 4:   # unbounded-or-infeasible: ask without presolve
        res = sopt.linprog(c, bounds=bounds, method="highs",
                           options={"presolve": False}, **kwargs)
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[res.status]
    if status != OPTIMAL:
        return status, None, None
    ub_rows, eq_rows, n_rows = arrays["rows"]
    duals = np.zeros(n_rows)
    duals[ub_rows] = res.ineqlin.marginals
    duals[eq_rows] = res.eqlin.marginals
    return status, float(arrays["c"] @ res.x), duals


def breaks_a_binary_row(m, fixed):
    """Whether the 0/1 assignment ``fixed`` breaks by more than 1e-6 a
    row of ``m`` over binaries only, such as a one-hot row: then no
    value of the other columns makes it feasible."""
    for con in m.constraints:
        if not set(con.coeffs) <= fixed.keys():
            continue
        excess = sum(c * fixed[vid]
                     for vid, c in con.coeffs.items()) - con.rhs
        if con.sense == GE:
            excess = -excess
        elif con.sense == EQ:
            excess = abs(excess)
        if excess > 1e-6:
            return True
    return False


class _HotLp:
    """The LP of ``linprog_arrays`` held in one HiGHS instance of its own,
    loaded through scipy's HiGHS binding directly, not through lp_core,
    and re-solved after each change of column bounds."""

    def __init__(self, arrays):
        self.c = arrays["c"]
        n = len(self.c)
        def block(key, shape):
            return arrays[key] if arrays[key] is not None else np.zeros(shape)
        A_ub, A_eq = block("A_ub", (0, n)), block("A_eq", (0, n))
        b_ub, b_eq = block("b_ub", 0), block("b_eq", 0)
        A = sp.csc_array(np.vstack([A_ub, A_eq]))
        lp = _highs.HighsLp()
        lp.num_row_, lp.num_col_ = A.shape
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = A.shape
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_, lp.a_matrix_.index_ = A.indptr, A.indices
        lp.a_matrix_.value_ = A.data
        lp.col_cost_ = arrays["sign"] * self.c
        lp.col_lower_, lp.col_upper_ = map(np.array, zip(*arrays["bounds"]))
        lp.row_lower_ = np.concatenate([np.full(len(b_ub), -np.inf), b_eq])
        lp.row_upper_ = np.concatenate([b_ub, b_eq])
        self.h = _highs._Highs()
        self.h.setOptionValue("output_flag", False)
        self.h.passModel(lp)

    def solve(self, fixed):
        """Status and objective with each column of ``fixed``, a map of
        id to value, fixed there."""
        ids = np.fromiter(fixed, np.int64, len(fixed))
        vals = np.fromiter(fixed.values(), float, len(fixed))
        self.h.changeColsBounds(len(ids), ids, vals, vals)
        status = self.run()
        if status == _highs.HighsModelStatus.kUnboundedOrInfeasible:
            self.h.setOptionValue("presolve", "off")
            status = self.run()
            self.h.setOptionValue("presolve", "on")
        if status == _highs.HighsModelStatus.kInfeasible:
            return INFEASIBLE, None
        assert status == _highs.HighsModelStatus.kOptimal, status
        return OPTIMAL, float(self.c @ np.array(
            self.h.getSolution().col_value))

    def run(self):
        self.h.run()
        return self.h.getModelStatus()


def milp_oracle(m):
    """Exhaustive enumeration over binary assignments. The LP for the
    rest is built once, by ``linprog_arrays`` and ``_HotLp``, not by the
    code under test, and re-solved with each assignment's binaries
    fixed. Assignments that break a row over binaries only are
    infeasible and skipped."""
    binaries = m.binary_ids
    lp = _HotLp(linprog_arrays(m))
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(binaries)):
        fixed = dict(zip(binaries, bits))
        if breaks_a_binary_row(m, fixed):
            continue
        status, objective = lp.solve(fixed)
        if status != OPTIMAL:
            continue
        if best is None or objective > best:
            best = objective
    return best


def add_onehot_rows(rng, m):
    """One or two disjoint ``=`` 1 rows, each over 3 or more of ``m``'s
    binaries with coefficient 1, like the price rows of P1 and P2."""
    free = list(rng.permutation(m.binary_ids))
    while len(free) >= 3:
        size = int(rng.integers(3, len(free) + 1))
        m.add_constr({int(v): 1.0 for v in free[:size]}, EQ, 1.0,
                     name="onehot")
        free = free[size:]


@functools.lru_cache(maxsize=None)
def enumeration_cases():
    """50 random MILPs with their enumerated optima, shared by both
    backends' tests. Every other model gains one-hot rows when it has 3
    or more binaries; the embedded backend branches on them as sets."""
    rng, set_rng = np.random.default_rng(42), np.random.default_rng(43)
    models = [random_milp(rng, int(rng.integers(1, 11))) for _ in range(50)]
    for m in models[1::2]:
        add_onehot_rows(set_rng, m)
    return tuple((m, milp_oracle(m)) for m in models)


@pytest.mark.parametrize("backend", ["bnb", "highs"])
def test_solve_milp_matches_enumeration(backend):
    with_sets = [m for m, _ in enumeration_cases()
                 if lp_core._onehot_sets(m._compiled_form())]
    assert len(with_sets) >= 15
    mismatches = []
    for trial, (m, oracle) in enumerate(enumeration_cases()):
        sol = solve_milp(m, MilpConfig(backend=backend))
        if oracle is None:
            ok = sol.status == INFEASIBLE
        else:
            ok = (sol.status == OPTIMAL
                  and abs(sol.objective - oracle) <= 1e-6 * (1 + abs(oracle)))
        if not ok:
            mismatches.append((trial, sol.status, sol.objective, oracle))
    assert not mismatches, mismatches


def test_solve_milp_minimization_sense():
    m = LinearModel(sense="min")
    b = m.add_var("b", binary=True)
    c = m.add_var("c", ub=2.0)
    m.add_constr({b: 1.0, c: 1.0}, GE, 1.5)
    m.set_objective({b: 1.0, c: 0.4})
    sol = solve_milp(m, MilpConfig(backend="bnb"))
    assert sol.status == OPTIMAL
    # b=0, c=1.5 -> 0.6 beats b=1, c=0.5 -> 1.2
    assert sol.objective == pytest.approx(0.6, abs=1e-8)
    assert sol.x[b] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("backend", ["bnb", "highs"])
def test_backends_label_unbounded_and_infeasible(backend):
    """``max c + b`` s.t. ``b - c <= 0.5`` with ``c`` unbounded above is
    unbounded (HiGHS's presolve calls it unbounded-or-infeasible); a
    binary pair whose sum must lie in [0.5, 0.7] is infeasible though
    its relaxation is not. Each model is solved once more with one
    declared pair, so that on ``highs`` the switch relaxation meets
    both: with ``b`` as the switch it is unbounded too, and with ``x``
    as the switch it is feasible at y = 0, x = 0.7, while the
    fixed-leader run and the search find no point."""
    cfg = MilpConfig(backend=backend)
    for paired in (False, True):
        m = LinearModel(sense="max")
        b = m.add_var("b", binary=True)
        c = m.add_var("c")
        m.add_constr({b: 1.0, c: -1.0}, LE, 0.5)
        m.set_objective({b: 1.0, c: 1.0})
        if paired:
            m.pairs.append((b, c))
        sol = solve_milp(m, cfg)
        assert sol.status == UNBOUNDED
        assert sol.objective == math.inf
        m = LinearModel(sense="max")
        x, y = m.add_var("x", binary=True), m.add_var("y", binary=True)
        m.add_constr({x: 1.0, y: 1.0}, GE, 0.5)
        m.add_constr({x: 1.0, y: 1.0}, LE, 0.7)
        m.set_objective({x: 1.0})
        if paired:
            m.pairs.append((x, m.add_var("u", ub=1.0)))
        assert solve_lp(m).status == OPTIMAL
        sol = solve_milp(m, cfg)
        assert sol.status == INFEASIBLE
        assert sol.x is None


def relaxation_misleads():
    """``max y - s + 0.3 c`` with leader binary ``y``, switch ``s`` and
    its multiplier ``u``: ``2 s >= y``, ``u <= s`` and ``c + y <= 1``.
    With ``s`` continuous the optimum is y = 1, s = 0.5, worth 0.5;
    with ``s`` integral y = 1 is worth 0, and y = 0 wins with 0.3."""
    m = LinearModel(sense="max")
    y, s = m.add_var("y", binary=True), m.add_var("s", binary=True)
    u, c = m.add_var("u", ub=1.0), m.add_var("c", ub=1.0)
    m.add_constr({s: 2.0, y: -1.0}, GE, 0.0)
    m.add_constr({u: 1.0, s: -1.0}, LE, 0.0)
    m.add_constr({c: 1.0, y: 1.0}, LE, 1.0)
    m.set_objective({y: 1.0, s: -1.0, c: 0.3})
    m.pairs.append((s, u))
    return m


def test_highs_searches_where_the_fixed_leader_run_falls_short(monkeypatch):
    """The switch relaxation's leader decision y = 1 is not optimal once
    the switch is integral. The fixed-leader run's 0 then misses the
    relaxation's bound of 0.5, so the solve makes a third MIP run, the
    full search, and returns the enumerated optimum 0.3."""
    m = relaxation_misleads()
    oracle = milp_oracle(m)
    assert oracle == pytest.approx(0.3)
    runs = []
    run_mip = lp_core._run_mip

    def spied(*args):
        out = run_mip(*args)
        runs.append(out)
        return out

    monkeypatch.setattr(lp_core, "_run_mip", spied)
    sol = solve_milp(m, MilpConfig(backend="highs"))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(oracle, abs=1e-9)
    assert sol.relative_gap <= MilpConfig().gap_tol
    assert len(runs) == 3
    (relaxed, bound), (fixed, _), (search, _) = runs
    assert relaxed.status == OPTIMAL and bound == pytest.approx(0.5)
    assert fixed.status == OPTIMAL and fixed.objective == pytest.approx(0.0)
    assert search.objective == pytest.approx(oracle, abs=1e-9)


def test_highs_rejected_option_raises(monkeypatch):
    """An option HiGHS does not know fails the solve instead of being
    ignored, so a renamed option cannot silently keep its default."""
    monkeypatch.setitem(lp_core._MIP_OPTIONS, "no_such_option", False)
    m = LinearModel(sense="max")
    b = m.add_var("b", binary=True)
    m.set_objective({b: 1.0})
    with pytest.raises(RuntimeError, match="no_such_option"):
        solve_milp(m, MilpConfig(backend="highs"))


def node_limited_milp():
    """A MILP whose root relaxation is fractional and whose first
    incumbent, found at node 2, is not optimal."""
    rng = np.random.default_rng(11)
    return [random_milp(rng, int(rng.integers(4, 11))) for _ in range(3)][2]


def test_milp_respects_node_limit_status():
    sol = solve_milp(node_limited_milp(),
                     MilpConfig(backend="bnb", node_limit=1))
    assert sol.status == TIME_LIMIT
    assert sol.nodes_explored == 1


def test_node_limit_gap_covers_the_optimum():
    """The node open when the limit stops the search still bounds the
    optimum, so the reported gap reaches it."""
    m = node_limited_milp()
    sol = solve_milp(m, MilpConfig(backend="bnb", node_limit=2))
    optimum = milp_oracle(m)
    assert sol.status == TIME_LIMIT
    assert sol.nodes_explored == 2
    assert sol.objective < optimum - 1e-3
    bound = sol.objective + sol.relative_gap * max(1.0, abs(sol.objective))
    assert bound >= optimum - 1e-9


def test_unresolved_node_lp_keeps_its_subtree(monkeypatch):
    """A node LP that HiGHS leaves unresolved is not dropped: the node is
    split on its first free binary under its parent's bound. The node
    made to fail here lies on the path to the optimum, so dropping it
    would lose the optimum."""
    m = node_limited_milp()
    optimum = milp_oracle(m)
    best = solve_milp(m, MilpConfig(backend="bnb"))
    assert best.objective == pytest.approx(optimum, abs=1e-6)
    binaries = m.binary_ids
    target = {v: float(round(best.x[v])) for v in binaries}
    real, failed = lp_core.solve_lp, []

    def flaky(model, bound_overrides=None):
        fixings = {v: lo for v, (lo, _) in (bound_overrides or {}).items()}
        if (not failed and 0 < len(fixings) < len(binaries)
                and all(target[v] == b for v, b in fixings.items())):
            failed.append(fixings)
            raise RuntimeError("LP solve failed: HiGHS model status Unknown")
        return real(model, bound_overrides)

    monkeypatch.setattr(lp_core, "solve_lp", flaky)
    sol = solve_milp(m, MilpConfig(backend="bnb"))
    assert failed
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(optimum, abs=1e-6)


def test_unresolved_node_lp_raises_only_when_fully_fixed(monkeypatch):
    """With every node LP unresolved, the search splits down to a node
    with every binary fixed, and only that one raises."""
    m = node_limited_milp()
    real, calls = lp_core.solve_lp, []

    def broken(model, bound_overrides=None):
        if bound_overrides:
            calls.append(len(bound_overrides))
            raise RuntimeError("LP solve failed: HiGHS model status Unknown")
        return real(model, bound_overrides)

    monkeypatch.setattr(lp_core, "solve_lp", broken)
    with pytest.raises(RuntimeError, match="Unknown"):
        solve_milp(m, MilpConfig(backend="bnb"))
    assert calls[-1] == len(m.binary_ids)
    assert all(n < len(m.binary_ids) for n in calls[:-1])


def test_mps_round_trip_through_import():
    rng = np.random.default_rng(5)
    m = random_milp(rng, 4)
    sol = solve_milp(m, MilpConfig(backend="bnb"))
    assert sol.status == OPTIMAL
    var_names, _ = mps_names(m)
    text = "\n".join(f"{var_names[vid]} {val!r}"
                     for vid, val in enumerate(sol.x.tolist()))
    imported = import_solution(m, text)
    assert imported.status == OPTIMAL
    assert imported.objective == pytest.approx(sol.objective, abs=1e-9)


def test_import_solution_flags_infeasible_point():
    m = LinearModel(sense="max")
    a = m.add_var("a", ub=1.0)
    m.add_constr({a: 1.0}, LE, 0.5)
    m.set_objective({a: 1.0})
    var_names, _ = mps_names(m)
    bad = import_solution(m, f"{var_names[0]} 0.9")
    assert bad.status == INFEASIBLE
    with pytest.raises(ValueError, match="unknown variable"):
        import_solution(m, "nope 1.0")
    with pytest.raises(ValueError, match="missing"):
        import_solution(m, "")


def test_import_solution_flags_each_kind_of_violation():
    """A ``>=`` row, an ``=`` row, a column bound and a binary's
    integrality are each checked, not only ``<=`` rows."""
    m = LinearModel(sense="max")
    a, b = m.add_var("a", ub=1.0), m.add_var("b", binary=True)
    c = m.add_var("c")
    m.add_constr({a: 1.0, c: 1.0}, GE, 1.0)
    m.add_constr({a: 1.0, c: -1.0}, EQ, 0.0)
    m.set_objective({a: 1.0, b: 1.0})
    names, _ = mps_names(m)

    def load(va, vb, vc):
        return import_solution(
            m, f"{names[a]} {va}\n{names[b]} {vb}\n{names[c]} {vc}")

    good = load(0.5, 1, 0.5)
    assert good.status == OPTIMAL
    assert good.objective == pytest.approx(1.5)
    assert load(0.4, 1, 0.4).status == INFEASIBLE    # a + c >= 1
    assert load(0.5, 1, 0.6).status == INFEASIBLE    # a = c
    assert load(1.5, 1, 1.5).status == INFEASIBLE    # a <= 1
    assert load(0.5, 0.5, 0.5).status == INFEASIBLE  # b binary


@pytest.mark.parametrize("lines, bad", [
    (["a nan", "b 1"], 1),          # a continuous value that is not finite
    (["a 0.5", "b nan"], 2),        # a binary value that is not finite
    (["a inf", "b 1"], 1),
    (["a 0.5", "b 1", "a 0.7"], 3),  # a name given twice
    (["a half", "b 1"], 1),
])
def test_import_solution_rejects_bad_lines(lines, bad):
    m = LinearModel(sense="max")
    ids = {"a": m.add_var("a", ub=1.0), "b": m.add_var("b", binary=True)}
    m.set_objective({ids["a"]: 1.0, ids["b"]: 1.0})
    names, _ = mps_names(m)
    text = "\n".join(f"{names[ids[name]]} {value}"
                     for name, value in (line.split() for line in lines))
    with pytest.raises(ValueError, match=f"^line {bad}: "):
        import_solution(m, text)


def test_export_mps_structure():
    rng = np.random.default_rng(6)
    m = random_milp(rng, 3)
    text = export_mps(m)
    assert text.startswith("NAME")
    for section in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in text
    assert text.count("INTORG") == text.count("INTEND")
    assert " BV BND" in text


def test_export_mps_bound_markers():
    m = LinearModel(sense="min")
    m.add_var("free", lb=-math.inf)
    m.add_var("low", lb=-math.inf, ub=2.0)
    m.add_var("boxed", lb=0.5, ub=2.0)
    m.set_objective({0: 1.0, 1: 1.0, 2: 1.0})
    m.add_constr({0: 1.0, 1: 1.0, 2: 1.0}, GE, 0.0)
    text = export_mps(m)
    assert " FR BND" in text
    assert " MI BND" in text
    assert " LO BND" in text
    assert " UP BND" in text


def test_export_mps_keeps_tightened_binary_bounds(tmp_path):
    """A binary fixed by its bounds, ``a`` at 1 and ``c`` at 0, stays fixed
    for a separate HiGHS that reads only the MPS file: it finds
    ``solve_milp``'s optimum, and its point imports as optimal."""
    m = LinearModel(sense="max")
    a = m.add_var("a", lb=1.0, binary=True)
    b = m.add_var("b", binary=True)
    c = m.add_var("c", ub=0.0, binary=True)
    m.add_constr({a: 1.0, b: 1.0}, LE, 1.0)
    m.set_objective({b: 1.0, c: 1.0})
    ours = solve_milp(m)
    assert (ours.status, ours.objective) == (OPTIMAL, 0.0)
    path = tmp_path / "fixed.mps"
    path.write_text(export_mps(m))
    h = _highs._Highs()
    h.setOptionValue("output_flag", False)
    assert h.readModel(str(path)) == _highs.HighsStatus.kOk
    h.run()
    assert h.getModelStatus() == _highs.HighsModelStatus.kOptimal
    assert h.getInfo().objective_function_value == 0.0
    text = "\n".join(f"{name} {value!r}" for name, value in
                     zip(h.getLp().col_names_, h.getSolution().col_value))
    theirs = import_solution(m, text)
    assert (theirs.status, theirs.objective) == (OPTIMAL, 0.0)


def mixed_lp(rng, sense, n_vars=5, n_rows=6):
    """Random LP with <=, >= and = rows; some are infeasible or
    unbounded."""
    m = LinearModel(name="mixed", sense=sense)
    for i in range(n_vars):
        ub = float(rng.uniform(0.5, 3.0)) if rng.random() < 0.8 else math.inf
        m.add_var(f"v{i}", lb=0.0, ub=ub)
    for _ in range(n_rows):
        coeffs = {i: float(rng.normal()) for i in range(n_vars)
                  if rng.random() < 0.7} or {0: 1.0}
        row_sense = (LE, LE, GE, EQ)[int(rng.integers(4))]
        m.add_constr(coeffs, row_sense, float(rng.uniform(-1.0, 3.0)))
    m.set_objective({i: float(rng.normal()) for i in range(n_vars)})
    return m


@pytest.mark.parametrize("sense", ["min", "max"])
def test_cold_solve_matches_linprog(sense):
    rng = np.random.default_rng(11)
    statuses = set()
    for _ in range(40):
        m = mixed_lp(rng, sense)
        sol = solve_lp(m)
        status, objective, duals = linprog_reference(m)
        statuses.add(status)
        assert sol.status == status
        if status == OPTIMAL:
            assert sol.objective == pytest.approx(objective, abs=1e-9)
            np.testing.assert_allclose(sol.constraint_duals, duals,
                                       rtol=0, atol=1e-9)
    assert OPTIMAL in statuses and INFEASIBLE in statuses


def test_changing_the_model_after_a_solve_changes_the_next_result():
    m = LinearModel(sense="max")
    a = m.add_var("a", ub=4.0)
    b = m.add_var("b", ub=4.0)
    m.add_constr({a: 1.0, b: 1.0}, LE, 5.0)
    m.set_objective({a: 1.0, b: 2.0})
    assert solve_lp(m).objective == pytest.approx(9.0)
    m.add_constr({b: 1.0}, LE, 1.0)
    assert solve_lp(m).objective == pytest.approx(6.0)
    m.drop_constraints(1)
    assert m.num_constrs == 1
    assert solve_lp(m).objective == pytest.approx(9.0)
    m.set_objective({a: 3.0, b: 1.0})
    assert solve_lp(m).objective == pytest.approx(13.0)
    m.set_objective({a: 3.0, b: 1.0}, sense="min")
    assert solve_lp(m).objective == pytest.approx(0.0)
    c = m.add_var("c", lb=1.0, ub=2.0)
    m.set_objective({c: 1.0})
    assert solve_lp(m).objective == pytest.approx(1.0)


def test_bound_overrides_on_one_model_match_fresh_models():
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(6):
        m = random_milp(rng, 5)
        binaries = m.binary_ids
        m.add_constr({binaries[0]: 1.0, binaries[1]: 1.0}, GE, 1.0)
        rows = list(itertools.product((0.0, 1.0), repeat=len(binaries)))
        rng.shuffle(rows)
        for bits in rows + rows[:5]:
            fixed = {vid: (b, b) for vid, b in zip(binaries, bits)}
            hot = solve_lp(m, fixed)
            fresh = LinearModel(sense=m.obj_sense)
            fresh.variables, fresh.constraints = m.variables, m.constraints
            fresh.objective = m.objective
            cold = solve_lp(fresh, fixed)
            seen.add(hot.status)
            assert hot.status == cold.status
            if cold.status == OPTIMAL:
                assert hot.objective == pytest.approx(
                    cold.objective, abs=1e-9 * (1 + abs(cold.objective)))
    assert seen == {OPTIMAL, INFEASIBLE}


def test_time_limit_bounds_every_polish_round_together():
    m = LinearModel(sense="max")
    binaries = [m.add_var(f"b{i}", binary=True) for i in range(6)]
    m.set_objective({v: 1.0 for v in binaries})
    assignments = itertools.product((0, 1), repeat=len(binaries))
    round_s, limit = 0.08, 0.3
    budgets = []

    def stub(model, cfg):
        # Uses up its budget, a round at most, and claims one more than
        # the assignment is worth, so polishing rejects every claim.
        budgets.append(cfg.time_limit)
        time.sleep(min(cfg.time_limit, round_s))
        bits = next(assignments)
        return MilpSolution(OPTIMAL, sum(bits) + 1.0,
                            np.array(bits, float))

    t0 = time.perf_counter()
    sol = lp_core._solve_polished(m, MilpConfig(time_limit=limit), stub)
    wall = time.perf_counter() - t0
    assert sol.status == TIME_LIMIT
    assert wall <= limit + round_s + 0.1
    assert limit - 0.05 < budgets[0] <= limit
    assert all(b2 < b1 for b1, b2 in zip(budgets, budgets[1:]))
    assert m.num_constrs == 0


def test_time_limit_after_a_cut_keeps_the_polished_candidate():
    """A round cut short after a no-good cut returns the best polished
    candidate, with the gap to the first round's bound of 4.0."""
    m = LinearModel(sense="max")
    binaries = [m.add_var(f"b{i}", binary=True) for i in range(3)]
    m.set_objective({v: 1.0 for v in binaries})
    rounds = iter([MilpSolution(OPTIMAL, 4.0, np.ones(len(binaries))),
                   MilpSolution(TIME_LIMIT, math.nan)])
    sol = lp_core._solve_polished(m, MilpConfig(), lambda *_: next(rounds))
    assert sol.status == TIME_LIMIT
    assert sol.objective == pytest.approx(3.0)
    assert [sol.x[v] for v in binaries] == [1.0, 1.0, 1.0]
    assert sol.relative_gap == pytest.approx(1.0 / 3.0)
    assert m.num_constrs == 0


def test_add_vars_names_ids_and_bounds():
    """A block's ids follow the model's, in row-major order, shaped like
    the block; bounds are numbers or arrays of the block's shape."""
    m = LinearModel()
    a = m.add_var("a")
    z = m.add_vars("z", (), "_1", lb=-math.inf)
    x = m.add_vars("x", (2, 3), "_1", ub=np.arange(6.0).reshape(2, 3))
    b = m.add_vars("b", (2,), binary=True)
    assert (a, z.shape, x.shape, b.shape) == (0, (), (2, 3), (2,))
    assert [int(z)] + x.ravel().tolist() + b.tolist() == list(range(1, 10))
    assert [v.name for v in m.variables[1:]] == [
        "z_1", "x_0_0_1", "x_0_1_1", "x_0_2_1", "x_1_0_1", "x_1_1_1",
        "x_1_2_1", "b_0", "b_1"]
    assert m.variables[int(z)].lb == -math.inf
    assert [m.variables[v].ub for v in x.ravel()] == [0, 1, 2, 3, 4, 5]
    assert [(m.variables[v].lb, m.variables[v].ub, m.variables[v].binary)
            for v in b] == [(0.0, 1.0, True)] * 2


def test_validate_rejects_dangling_ids():
    m = LinearModel()
    m.add_var("a")
    m.add_constr({5: 1.0}, LE, 1.0)
    with pytest.raises(ValueError, match="unknown id"):
        m.validate()


def test_validate_rejects_non_finite_data():
    m = LinearModel()
    a = m.add_var("a")
    m.add_constr({a: math.nan}, LE, 1.0, name="bad")
    with pytest.raises(ValueError, match="non-finite coefficient in bad"):
        m.validate()
    m = LinearModel()
    a = m.add_var("a")
    m.add_constr({a: 1.0}, GE, math.inf, name="bad")
    with pytest.raises(ValueError, match="non-finite rhs in bad"):
        solve_lp(m)
    m = LinearModel()
    a = m.add_var("a")
    m.set_objective({a + 1: 1.0})
    with pytest.raises(ValueError, match="objective references unknown id"):
        solve_milp(m)
    # A column bound that is NaN, a lower bound of +inf or an upper bound
    # of -inf is named before HiGHS or the MPS writer sees it.
    for lb, ub, call in ((math.nan, 1.0, LinearModel.validate),
                         (0.0, math.nan, solve_lp),
                         (math.inf, math.inf, export_mps),
                         (-math.inf, -math.inf, solve_lp),
                         (math.nan, 1.0, export_mps)):
        m = LinearModel()
        m.add_var("b")
        m.add_var("a", lb=lb, ub=ub)
        with pytest.raises(ValueError,
                           match=r"invalid bounds \[.*\] on variable a$"):
            call(m)
