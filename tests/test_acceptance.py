"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints exactly one line `[criterion N] PASS|FAIL: summary` and
asserts the verdict. Expensive solves are shared through module-scope
fixtures so the whole suite stays within the runtime budget.
"""

import dataclasses
import itertools
import statistics
import time

import numpy as np
import pytest
from scipy.optimize._highspy import _core as _highs

from edgemarket.analytic import solve_single_en
from edgemarket.follower import (FollowerContext, complementarity_residuals,
                                 dual_objective, solve_follower)
from edgemarket.lp_core import (LinearModel, MilpConfig, export_mps,
                                import_solution, solve_lp, solve_milp)
from edgemarket.model import follower_cost
from edgemarket.oracle import brute_force_bilevel, compare
from edgemarket.reform_dual import (build_p2, solve_p2,
                                    verify_bilevel_optimality)
from edgemarket.reform_kkt import build_p1, solve_p1, validate_bigM
from edgemarket.scenario import ScenarioConfig, sample_instance

from conftest import TINY_PRICES, tiny_instance

CFG = MilpConfig(backend="highs")
DESK_CFG = MilpConfig(backend="highs", gap_tol=1e-4, time_limit=600.0)

TINY_SEEDS = tuple(range(20))
SINGLE_EN_SEEDS = tuple(range(10))
DESK_SIZE = dict(num_aps=6, num_ens=3, num_services=4)


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {verdict}: {name}" + (f" ({detail})" if detail
                                                    else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def _rel_ok(a, b, tol):
    return abs(a - b) <= tol * (1 + abs(b))


# -- shared solves -----------------------------------------------------


@pytest.fixture(scope="module")
def tiny_runs():
    """seed -> (inst, p1, p2, oracle) over the 20 criterion-1 seeds."""
    runs = {}
    for seed in TINY_SEEDS:
        inst = tiny_instance(seed)
        runs[seed] = (inst, solve_p1(inst, CFG), solve_p2(inst, CFG),
                      brute_force_bilevel(inst, keep_log=False))
    return runs


def _single_en_instance(seed):
    inst = sample_instance(ScenarioConfig(
        seed=seed, num_aps=3, num_ens=1, num_services=2,
        price_levels=TINY_PRICES, delay_cap_range=(70.0, 100.0)))
    return dataclasses.replace(
        inst, storage_cap=np.full(inst.num_ens, inst.service_size.sum() + 1))


@pytest.fixture(scope="module")
def single_en_runs():
    """seed -> (inst, closed-form result, p2) over criterion-2 seeds."""
    return {seed: (lambda i: (i, solve_single_en(i), solve_p2(i, CFG)))
            (_single_en_instance(seed)) for seed in SINGLE_EN_SEEDS}


def _first_feasible_desk_seeds(count):
    seeds, seed = [], 0
    while len(seeds) < count and seed < 50:
        inst = sample_instance(ScenarioConfig(seed=seed, **DESK_SIZE))
        if solve_p2(inst, DESK_CFG).status == "optimal":
            seeds.append(seed)
        seed += 1
    return seeds


@pytest.fixture(scope="module")
def desk_runs():
    """First 5 feasible desk-scale seeds -> (inst, dyn, flat, avg)."""
    runs = {}
    for seed in _first_feasible_desk_seeds(5):
        inst = sample_instance(ScenarioConfig(seed=seed, **DESK_SIZE))
        runs[seed] = (inst,
                      solve_p2(inst, DESK_CFG),
                      solve_p2(inst, DESK_CFG, scheme="flat"),
                      solve_p2(inst, DESK_CFG, scheme="avg"))
    return runs


# -- criteria ----------------------------------------------------------


def test_criterion_01_three_way_agreement(tiny_runs):
    t0 = time.perf_counter()
    failures = []
    for seed, (inst, r1, r2, oracle) in tiny_runs.items():
        for label, res in (("p1", r1), ("p2", r2)):
            rep = compare(oracle, res.objective, res.status)
            if not rep.passed:
                failures.append(f"seed {seed} {label}: {rep.detail}")
    wall = time.perf_counter() - t0
    feasible = sum(o.feasible for (_, _, _, o) in tiny_runs.values())
    report(1, "P1/P2/oracle agree on 20 tiny seeds",
           not failures and wall < 600.0,
           failures[0] if failures
           else f"{feasible}/20 feasible, checked in {wall:.1f}s")


def test_criterion_02_single_en_closed_form(single_en_runs):
    failures = []
    for seed, (inst, closed, milp) in single_en_runs.items():
        if (closed.status == "optimal") != (milp.status == "optimal"):
            failures.append(f"seed {seed}: status "
                            f"{closed.status} vs {milp.status}")
        elif closed.status == "optimal" and not _rel_ok(
                closed.profit, milp.objective, 1e-6):
            failures.append(f"seed {seed}: {closed.profit} vs "
                            f"{milp.objective}")
    report(2, "closed form matches P2 on 10 single-EN seeds", not failures,
           failures[0] if failures else "10/10 within 1e-6 relative")


def test_criterion_03_reformulation_size():
    inst = sample_instance(ScenarioConfig(seed=0))   # M=10, N=4, K=6, V=5
    M, N, K, V = 10, 4, 6, 5
    p2, _ = build_p2(inst)
    p1, _ = build_p1(inst)
    want_p2 = N * (K + V + 1)
    want_p1 = want_p2 + 2 * K * (M + 1) * (N + 1)
    ok = p2.num_binaries == want_p2 == 48 and p1.num_binaries == want_p1 == 708
    # compact published accounting tracks 954 continuous for the duality
    # form; the builder keeps every dual family and the revenue variables
    # explicit, hence the documented surplus.
    compact_p2_cont = K * (3 + 2 * M * (N + 1) + 2 * N * (V + 2))
    p2_cont = p2.num_vars - p2.num_binaries
    p1_cont = p1.num_vars - p1.num_binaries
    report(3, "binary counts exact on base case", ok,
           f"binaries p2={p2.num_binaries} p1={p1.num_binaries}; "
           f"continuous p2={p2_cont} (compact {compact_p2_cont}, "
           f"delta +{p2_cont - compact_p2_cont}) p1={p1_cont}; "
           f"constraints p2={p2.num_constrs} p1={p1.num_constrs}")


def test_criterion_04_incentive_compatibility(tiny_runs, single_en_runs):
    failures = []
    solved = []
    for seed, (inst, r1, r2, _) in tiny_runs.items():
        for label, res in (("p1", r1), ("p2", r2)):
            if res.status == "optimal":
                solved.append((f"tiny {seed} {label}", inst, res))
    for seed, (inst, _, milp) in single_en_runs.items():
        if milp.status == "optimal":
            solved.append((f"single-en {seed}", inst, milp))
    for label, inst, res in solved:
        rep = verify_bilevel_optimality(inst, res.leader, res.followers)
        if not (rep.passed and all(d <= 1e-6 for d in rep.rel_diffs)):
            failures.append(f"{label}: {rep.notes}")
    report(4, "bilevel optimality certified for every solved instance",
           not failures,
           failures[0] if failures else f"{len(solved)} solutions certified")


def test_criterion_05_strong_duality_everywhere(tiny_runs, single_en_runs):
    contexts = []
    for seed, (inst, _, r2, _) in tiny_runs.items():
        if r2.status == "optimal":
            for k in range(inst.num_services):
                contexts.append(FollowerContext(
                    inst, k, r2.leader.price, r2.leader.placed[:, k]))
    for seed, (inst, _, milp) in single_en_runs.items():
        if milp.status != "optimal":
            continue
        for k in range(inst.num_services):
            contexts.append(FollowerContext(
                inst, k, milp.leader.price, milp.leader.placed[:, k]))
            for p in inst.price_grid[0]:   # whole grid, as the closed form sees it
                contexts.append(FollowerContext(inst, k, [float(p)], [1]))
    worst_sd, worst_comp, checked = 0.0, 0.0, 0
    failures = []
    for ctx in contexts:
        try:
            fs, ds = solve_follower(ctx)
        except Exception:
            continue   # infeasible contexts solve nothing
        checked += 1
        cost = follower_cost(ctx.inst, ctx.prices, ctx.k, fs)
        sd = abs(cost - dual_objective(ctx, ds)) / (1 + abs(cost))
        comp = max(complementarity_residuals(fs, ds, ctx).values())
        worst_sd, worst_comp = max(worst_sd, sd), max(worst_comp, comp)
        if sd > 1e-7 or comp > 1e-5:
            failures.append(f"k={ctx.k}: duality {sd:.2e}, compl {comp:.2e}")
    report(5, "strong duality and complementarity on every follower LP",
           checked > 0 and not failures,
           failures[0] if failures
           else f"{checked} LPs, worst duality {worst_sd:.1e}, "
                f"worst complementarity {worst_comp:.1e}")


def test_criterion_06_scheme_dominance(desk_runs):
    failures, strict = [], 0
    for seed, (inst, dyn, flat, avg) in desk_runs.items():
        vals = {"dyn": dyn, "flat": flat, "avg": avg}
        bad = [n for n, r in vals.items() if r.status != "optimal"]
        if bad:
            failures.append(f"seed {seed}: non-optimal {bad}")
            continue
        if not (dyn.objective >= flat.objective - 1e-6
                >= avg.objective - 2e-6):
            failures.append(f"seed {seed}: {dyn.objective} / "
                            f"{flat.objective} / {avg.objective}")
        if dyn.objective > avg.objective + 1e-6:
            strict += 1
    ok = len(desk_runs) == 5 and not failures and strict >= 1
    report(6, "dyn >= flat >= avg on 5 desk-scale seeds", ok,
           failures[0] if failures
           else f"seeds {sorted(desk_runs)}, dyn strictly beats avg "
                f"on {strict}/5")


def test_criterion_07_sensitivity_trends(desk_runs):
    from edgemarket.model import ScalingFactors, scale_instance
    seed = sorted(desk_runs)[0]
    inst = desk_runs[seed][0]
    def profits(field, values):
        out = []
        for v in values:
            scaled = scale_instance(inst, ScalingFactors(**{field: v}))
            res = solve_p2(scaled, DESK_CFG)
            if res.status != "optimal":
                return None
            out.append(round(float(res.objective), 6))
        return out
    rho = profits("cloud_price_scale", [1.0, 1.5, 2.0])
    lam = profits("penalty_scale", [1.0, 2.0])
    ok = (rho is not None and lam is not None
          and all(b >= a - 1e-6 for a, b in zip(rho, rho[1:]))
          and all(b >= a - 1e-6 for a, b in zip(lam, lam[1:])))
    report(7, "dyn profit non-decreasing in cloud-price and penalty scale",
           ok, f"seed {seed}, rho profits {rho}, lambda profits {lam}")


def test_criterion_08_bigm_soundness(tiny_runs):
    failures = []
    for seed, (inst, r1, _, _) in tiny_runs.items():
        if r1.status != "optimal":
            continue
        if r1.escalations > 1:
            failures.append(f"seed {seed}: {r1.escalations} escalations")
            continue
        model, lay = build_p1(inst, r1.m_lin)
        flags = validate_bigM(inst, model, lay, r1.milp, r1.m_lin)
        if flags:
            failures.append(f"seed {seed}: {flags[0]}")
    report(8, "no binding big-M after at most one escalation", not failures,
           failures[0] if failures else "all criterion-1 optima clean")


def _random_small_milp(rng):
    n_bin = int(rng.integers(1, 11))
    n_cont = int(rng.integers(0, 3))
    m = LinearModel(sense="max")
    vids = [m.add_var(f"b{i}", binary=True) for i in range(n_bin)]
    vids += [m.add_var(f"c{i}", 0.0, float(rng.uniform(1, 4)))
             for i in range(n_cont)]
    m.set_objective({v: float(rng.normal()) for v in vids})
    for _ in range(int(rng.integers(1, 5))):
        coeffs = {v: float(rng.normal()) for v in vids
                  if rng.random() < 0.7}
        if coeffs:
            m.add_constr(coeffs, "<=", float(rng.uniform(0.5, 3.0)))
    return m, vids[:n_bin]


def test_criterion_09_embedded_solver_vs_enumeration():
    rng = np.random.default_rng(42)
    failures = []
    for trial in range(50):
        m, bins = _random_small_milp(rng)
        sol = solve_milp(m, CFG)
        best = None
        for bits in itertools.product((0.0, 1.0), repeat=len(bins)):
            lp = solve_lp(m, bound_overrides={v: (b, b)
                                              for v, b in zip(bins, bits)})
            if lp.status == "optimal" and (best is None
                                           or lp.objective > best):
                best = lp.objective
        if best is None:
            if sol.status != "infeasible":
                failures.append(f"trial {trial}: expected infeasible")
        elif sol.status != "optimal" or abs(sol.objective - best) > 1e-7 * (
                1 + abs(best)):
            failures.append(f"trial {trial}: {sol.objective} vs {best}")
    report(9, "solve_milp matches exhaustive enumeration on 50 models",
           not failures, failures[0] if failures else "50/50 exact")


def _external_solve(model, path):
    """Solve ``model`` as an external solver would: HiGHS reads the MPS
    file ``export_mps`` writes, and its column values, under the file's
    column names, come back through ``import_solution``. An infeasible
    verdict has no point to import."""
    path.write_text(export_mps(model))
    h = _highs._Highs()
    h.setOptionValue("output_flag", False)
    assert h.readModel(str(path)) == _highs.HighsStatus.kOk
    h.run()
    if h.getModelStatus() == _highs.HighsModelStatus.kInfeasible:
        return "infeasible", None
    lp = h.getLp()
    text = "\n".join(f"{name} {value!r}" for name, value in
                     zip(lp.col_names_, h.getSolution().col_value))
    sol = import_solution(model, text)
    return sol.status, sol.objective


def test_criterion_09_external_solver_leg(tmp_path, capfd):
    """P1 and P2 on tiny seeds 0-9, exported to MPS and solved by a
    separate HiGHS that knows only the file, agree with ``solve_milp`` in
    status and objective."""
    failures = []
    for seed, (method, build) in itertools.product(
            range(10), (("p1", build_p1), ("p2", build_p2))):
        model, _ = build(tiny_instance(seed))
        ours = solve_milp(model, CFG)
        status, objective = _external_solve(
            model, tmp_path / f"{method}_{seed}.mps")
        if status != ours.status or (status == "optimal" and abs(
                objective - ours.objective) > 1e-6 * max(1.0, abs(objective))):
            failures.append(f"{method} seed {seed}: external {status} "
                            f"{objective} vs {ours.status} {ours.objective}")
    chatter = capfd.readouterr().out
    if chatter:
        failures.append(f"solver output on stdout: {chatter[:80]!r}")
    report(9, "an MPS file read by a separate HiGHS gives solve_milp's "
           "answer for P1 and P2 on 10 tiny seeds", not failures,
           failures[0] if failures else "20/20 agree")


def test_criterion_10_timing_trend():
    from edgemarket.harness import run_timing_benchmark
    grid = [(M, N, K) for M in (2, 4) for N in (2, 4) for K in (2, 4)]
    limit = 120.0
    rows = run_timing_benchmark(grid, methods=("kkt", "dual"),
                                time_limit=limit, seed=1, config=DESK_CFG)
    # a time-limit hit ("NA") counts as the limit, a lower bound on the
    # true wall time; only the slower method ever hits it here
    walls = {"kkt": [], "dual": []}
    for row in rows:
        wall = row["wall_time"]
        walls[row["method"]].append(wall if isinstance(wall, float)
                                    else limit)
    med = {m: statistics.median(w) for m, w in walls.items()}
    # a solve that raised records its short wall time; it must not count
    errors = [f"{r['method']} {(r['M'], r['N'], r['K'])}: {r['status']}"
              for r in rows if str(r["status"]).startswith("error")]
    ok = (len(walls["kkt"]) == len(walls["dual"]) == len(grid)
          and not errors and med["dual"] <= med["kkt"])
    report(10, "median dual wall time <= median kkt wall time", ok,
           errors[0] if errors else
           f"dual {med['dual']:.3f}s vs kkt {med['kkt']:.3f}s "
           f"over {len(grid)} sizes")
