"""Follower LP: structure, duality, complementarity, perturbation
responses and infeasibility diagnosis."""

import dataclasses
import itertools

import numpy as np
import pytest

from edgemarket import lp_core
from edgemarket._milp_base import purchase_caps, zero_multipliers
from edgemarket.follower import (FollowerContext,
                                 FollowerInfeasibleError,
                                 build_follower_dual, build_follower_lp,
                                 check_strong_duality,
                                 complementarity_residuals, dual_objective,
                                 solve_follower)
from edgemarket.model import DualSolution, follower_cost
from edgemarket.scenario import ScenarioConfig, sample_instance

from conftest import tight_budget, tiny_instance


def _ctx(seed=1, k=0, price=0.03, placed=1):
    inst = tiny_instance(seed)
    prices = np.full(inst.num_ens, price)
    placement = np.full(inst.num_ens, placed, dtype=int)
    return FollowerContext(inst, k, prices, placement)


def test_context_refuses_a_placement_outside_0_1():
    """A fractional placement is not truncated to 0, and a placement of 2
    does not double the capacity row's right-hand side."""
    inst = tiny_instance(1, num_ens=2)
    prices = inst.price_grid[:, 0]
    for placed, message in (([0.7, 1], "placed must be 0 or 1, got 0.7"),
                            ([2, 1], "placed must be 0 or 1, got 2.0")):
        with pytest.raises(ValueError, match=message):
            FollowerContext(inst, 0, prices, placed)
    ctx = FollowerContext(inst, 0, prices, np.array([True, False]))
    assert ctx.placed.tolist() == [1, 0]


def test_lp_dimensions_minimal_case():
    inst = tiny_instance(11, num_aps=1, num_ens=1, num_services=1)
    ctx = FollowerContext(inst, 0, [0.03], [1])
    m, _ = build_follower_lp(ctx)
    # x0, x, y0, y, da
    assert m.num_vars == 5
    # bal, cov0, cov, cap, elig, ddef, dcap, budget
    assert m.num_constrs == 8


def test_primal_dual_agreement():
    for seed in range(8):
        ctx = _ctx(seed)
        try:
            fs, ds = solve_follower(ctx)
        except FollowerInfeasibleError:
            continue
        rep = check_strong_duality(fs, ds, ctx)
        assert rep.passed, (seed, rep)
        assert abs(rep.primal_value - rep.dual_value) \
            <= 1e-7 * (1 + abs(rep.primal_value))


def test_complementarity_residuals_small():
    for seed in range(8):
        ctx = _ctx(seed)
        try:
            fs, ds = solve_follower(ctx)
        except FollowerInfeasibleError:
            continue
        res = complementarity_residuals(fs, ds, ctx)
        assert set(res) == {"delay_cap", "cloud_coverage", "edge_coverage",
                            "capacity", "eligibility", "budget",
                            "x_cloud_sign", "x_edge_sign"}
        worst = max(res.values())
        assert worst <= 1e-5, (seed, res)


def test_solution_is_feasible_and_demand_balanced():
    ctx = _ctx(2)
    fs, _ = solve_follower(ctx)
    inst, k = ctx.inst, ctx.k
    assert np.allclose(fs.x_cloud + fs.x_edge.sum(axis=1),
                       inst.demand[:, k], atol=1e-7)
    assert fs.y_cloud >= fs.x_cloud.sum() - 1e-7
    assert np.all(fs.y_edge >= fs.x_edge.sum(axis=0) - 1e-7)
    assert np.all(fs.y_edge <= inst.compute_cap * ctx.placed + 1e-7)
    spend = inst.cloud_price * fs.y_cloud + float(ctx.prices @ fs.y_edge)
    assert spend <= inst.budget[k] + 1e-7
    assert np.all(fs.avg_delay <= inst.delay_cap[k] + 1e-7)


def test_cost_matches_follower_cost_helper():
    ctx = _ctx(2)
    fs, _ = solve_follower(ctx)
    assert fs.cost == pytest.approx(
        follower_cost(ctx.inst, ctx.prices, ctx.k, fs), abs=1e-9)


def test_unplaced_service_stays_on_cloud():
    ctx = _ctx(2, placed=0)
    fs, _ = solve_follower(ctx)
    assert np.allclose(fs.x_edge, 0.0, atol=1e-9)
    assert np.allclose(fs.y_edge, 0.0, atol=1e-9)
    assert fs.y_cloud == pytest.approx(ctx.inst.demand[:, ctx.k].sum(),
                                       abs=1e-7)


def test_price_increase_never_decreases_cost():
    """Follower optimum is monotone in the edge price."""
    inst = tiny_instance(5)
    placed = np.ones(inst.num_ens, dtype=int)
    costs = []
    for price in (0.01, 0.03, 0.05):
        ctx = FollowerContext(inst, 0, np.full(inst.num_ens, price), placed)
        fs, _ = solve_follower(ctx)
        costs.append(fs.cost)
    assert costs[0] <= costs[1] + 1e-9 <= costs[2] + 2e-9


def test_cheap_edge_attracts_all_eligible_load():
    """At an edge price below the cloud price and with full eligibility,
    everything moves to the edge when capacity allows."""
    inst = tiny_instance(12, num_aps=2, num_ens=1, num_services=1,
                         demand_range=(1.0, 2.0))
    if not inst.eligible.all():
        pytest.skip("random delays made an AP ineligible")
    ctx = FollowerContext(inst, 0, [0.005], [1])
    fs, _ = solve_follower(ctx)
    assert fs.y_cloud == pytest.approx(0.0, abs=1e-7)
    assert fs.x_edge.sum() == pytest.approx(inst.demand[:, 0].sum(), abs=1e-6)


def test_infeasibility_diagnosis_names_budget():
    inst = tiny_instance(6)
    tight = dataclasses.replace(inst, budget=np.full(inst.num_services, 1e-6))
    ctx = FollowerContext(tight, 0, np.full(inst.num_ens, 0.03),
                          np.ones(inst.num_ens, dtype=int))
    with pytest.raises(FollowerInfeasibleError, match="budget"):
        solve_follower(ctx)


def test_infeasibility_diagnosis_names_delay_cap():
    # Cap below the cloud delay with no eligible EN; per-AP demand above
    # the cloud delay makes the cap the cheapest row to relax.
    inst = tiny_instance(6, demand_range=(80.0, 90.0))
    strict = dataclasses.replace(
        inst, delay_cap=np.full(inst.num_services, 50.0),
        eligible=np.zeros_like(inst.eligible))
    ctx = FollowerContext(strict, 0, np.full(inst.num_ens, 0.03),
                          np.ones(inst.num_ens, dtype=int))
    with pytest.raises(FollowerInfeasibleError, match="delay cap"):
        solve_follower(ctx)


def test_infeasibility_diagnosis_names_a_delay_cap_the_relaxation_misses():
    """Only the delay cap binds: the cap is below the cloud delay and no
    EN is eligible, while the budget is ample. At the default demand
    (20-35 per AP) HiGHS's feasibility relaxation drops a sixth of the
    demand more cheaply than it stretches the cap by 10 ms, so it alone
    blames the demand balance; lifting the cap alone restores
    feasibility."""
    inst = tiny_instance(6)
    strict = dataclasses.replace(
        inst, delay_cap=np.full(inst.num_services, 50.0),
        eligible=np.zeros_like(inst.eligible))
    ctx = FollowerContext(strict, 0, np.full(inst.num_ens, 0.03),
                          np.ones(inst.num_ens, dtype=int))
    primal, _ = build_follower_lp(ctx)
    gaps = lp_core.row_violations(primal)
    balance = sum(g for row, g in zip(primal.constraints, gaps)
                  if row.name.startswith("bal_"))
    assert balance > 0 and balance == pytest.approx(gaps.sum())
    with pytest.raises(FollowerInfeasibleError,
                       match=r"infeasible \(cause: delay cap\)$"):
        solve_follower(ctx)


def test_dual_objective_matches_explicit_dual_lp():
    from edgemarket import lp_core
    ctx = _ctx(2)
    dual, _ = build_follower_dual(ctx)
    dsol = lp_core.solve_lp(dual)
    fs, ds = solve_follower(ctx)
    assert dsol.status == lp_core.OPTIMAL
    assert dual_objective(ctx, ds) == pytest.approx(dsol.objective, abs=1e-7)
    assert fs.cost == pytest.approx(dsol.objective, abs=1e-6)


@pytest.mark.parametrize("inst", [
    tiny_instance(0), tiny_instance(2), tiny_instance(5),
    sample_instance(ScenarioConfig(seed=0, num_aps=6, num_ens=3,
                                   num_services=4))],
    ids=["tiny0", "tiny2", "tiny5", "desk0"])
def test_follower_ids_name_their_own_symbol_and_index(inst):
    """Each id the follower LP and its explicit dual return names its own
    symbol and index, every column is named once, and the dual's ids read
    a solved point back as a ``DualSolution``."""
    N, k = inst.num_ens, inst.num_services - 1
    ctx = FollowerContext(inst, k, inst.price_grid[:, 1], np.ones(N))
    lp, cols = build_follower_lp(ctx)
    dual, ids = build_follower_dual(ctx)
    assert list(ids) == [f.name for f in dataclasses.fields(DualSolution)]
    lp_ids = {s: getattr(cols, s) for s in ("x0", "x", "y0", "y", "da")}
    for model, by_symbol in ((lp, lp_ids), (dual, ids)):
        seen = set()
        for sym, vids in by_symbol.items():
            for index, vid in np.ndenumerate(vids):
                assert model.variables[vid].name == "_".join(
                    [sym, *map(str, index)])
                seen.add(vid)
        assert seen == set(range(model.num_vars))
    dsol = lp_core.solve_lp(dual)
    assert dsol.status == lp_core.OPTIMAL
    ds = DualSolution(**{n: dsol.x[ids[n]] for n in ids})
    assert dual_objective(ctx, ds) == pytest.approx(dsol.objective, abs=1e-9)


def test_context_rejects_wrong_shapes():
    inst = tiny_instance(3)
    with pytest.raises(ValueError):
        FollowerContext(inst, 0, np.zeros(inst.num_ens + 1),
                        np.ones(inst.num_ens, dtype=int))


def _barred(inst, seed):
    """``inst`` with a random half of its (AP, EN, service) triples
    barred, short paths among them, so that eligibility binds."""
    mask = np.random.default_rng(seed).random(inst.eligible.shape) < 0.5
    return dataclasses.replace(inst, eligible=mask.astype(int))


def _zero_multiplier_cases():
    tiny = [tiny_instance(s) for s in range(40)]
    desk = [sample_instance(ScenarioConfig(seed=s, num_aps=6, num_ens=3,
                                           num_services=4))
            for s in range(5)]
    base = [sample_instance(ScenarioConfig(seed=s)) for s in range(3)]
    # (instance, configurations drawn); the tight budgets and barred
    # pairs check that the proof stays out where those rows can bind.
    return ([(inst, 8) for inst in tiny] + [(inst, 20) for inst in desk]
            + [(inst, 20) for inst in base]
            + [(tight_budget(inst), 8) for inst in tiny[:20]]
            + [(_barred(inst, s), 8) for s, inst in enumerate(tiny[:20])])


def test_zero_multiplier_bounds_are_exact():
    """At random prices and placements, the explicit follower dual with
    every multiplier ``zero_multipliers`` proves 0 fixed at 0 still
    reaches the primal optimum."""
    rng = np.random.default_rng(12)
    checked = fixed_mu2 = fixed_tau = 0
    for inst, draws in _zero_multiplier_cases():
        M, N, K = inst.num_aps, inst.num_ens, inst.num_services
        mu2_zero, eta_zero, tau_zero = zero_multipliers(inst)
        for _ in range(draws):
            level = rng.integers(0, inst.num_price_levels, size=N)
            prices = inst.price_grid[np.arange(N), level]
            for k in range(K):
                ctx = FollowerContext(inst, k, prices,
                                      rng.integers(0, 2, size=N))
                primal = lp_core.solve_lp(build_follower_lp(ctx)[0])
                if primal.status != lp_core.OPTIMAL:
                    continue
                dual, ids = build_follower_dual(ctx)
                fixed = [ids["eta"][i, j] for i in range(M) for j in range(N)
                         if eta_zero[i, j, k]]
                fixed += [ids["tau"][i] for i in range(M) if tau_zero[i, k]]
                fixed_tau += int(tau_zero[:, k].sum())
                if mu2_zero[k]:
                    fixed.append(ids["mu2"])
                    fixed_mu2 += 1
                for vid in fixed:
                    dual.add_constr({vid: 1.0}, lp_core.LE, 0.0)
                dsol = lp_core.solve_lp(dual)
                assert dsol.status == lp_core.OPTIMAL
                assert abs(dsol.objective - primal.objective) <= \
                    1e-9 * max(1.0, abs(primal.objective)), (k, prices)
                checked += 1
    assert checked > 1000 and fixed_mu2 > 0 and fixed_tau > 0


def test_coverage_rows_are_tight_where_priced():
    """At random prices and placements, the follower LP with ``cov0`` and
    each ``cov_j`` of positive price written as equalities reaches the
    same optimum, infeasibility included: those rows are tight at every
    optimum, which is why P1's coverage pairs take a slack-side bound
    of 0."""
    rng = np.random.default_rng(13)
    checked = 0
    for inst, draws in _zero_multiplier_cases():
        N, K = inst.num_ens, inst.num_services
        for _ in range(draws):
            level = rng.integers(0, inst.num_price_levels, size=N)
            prices = inst.price_grid[np.arange(N), level]
            for k in range(K):
                ctx = FollowerContext(inst, k, prices,
                                      rng.integers(0, 2, size=N))
                free, _ = build_follower_lp(ctx)
                tight, _ = build_follower_lp(ctx)
                names = {f"cov0_{k}"} | {f"cov_{j}_{k}" for j in range(N)
                                         if prices[j] > 0}
                for row in free.constraints:
                    if row.name in names:
                        tight.add_constr(row.coeffs, lp_core.GE, row.rhs)
                a, b = lp_core.solve_lp(free), lp_core.solve_lp(tight)
                assert a.status == b.status, (k, prices)
                if a.status == lp_core.OPTIMAL:
                    assert abs(a.objective - b.objective) <= \
                        1e-9 * max(1.0, abs(a.objective)), (k, prices)
                    checked += 1
    assert checked > 1000


def _largest_purchases(ctx):
    """{placed EN j: the most any optimal response at ``ctx`` buys from
    it}: the follower LP, its cost pinned at the optimum plus 1e-12, with
    ``y[j]`` maximized. Empty where the LP has no optimum."""
    lp, cols = build_follower_lp(ctx)
    sol = lp_core.solve_lp(lp)
    if sol.status != lp_core.OPTIMAL:
        return {}
    lp.add_constr(lp.objective, lp_core.LE, sol.objective + 1e-12)
    y = cols.y
    out = {}
    for j in np.flatnonzero(ctx.placed):
        lp.set_objective({y[j]: 1.0}, "max")
        most = lp_core.solve_lp(lp)
        assert most.status == lp_core.OPTIMAL
        out[j] = most.objective
    return out


def test_purchase_caps_bound_every_optimal_response():
    """At every placement row and every price vector of the placed ENs,
    no follower-optimal response buys more from EN j than
    ``purchase_caps`` allows at its price level, budgets tight or not."""
    tiny = [tiny_instance(s) for s in range(40)]
    checked = zero_caps = 0
    for inst in tiny + [tight_budget(inst) for inst in tiny]:
        caps = purchase_caps(inst)
        N, V = inst.num_ens, inst.num_price_levels
        for k in range(inst.num_services):
            for placed in itertools.product((0, 1), repeat=N):
                on = np.flatnonzero(placed)
                for levels in itertools.product(range(V), repeat=on.size):
                    level = np.zeros(N, dtype=int)
                    level[on] = levels
                    ctx = FollowerContext(
                        inst, k, inst.price_grid[np.arange(N), level], placed)
                    for j, most in _largest_purchases(ctx).items():
                        cap = caps[j, level[j], k]
                        assert most <= cap * (1 + 1e-6) + 1e-5, \
                            (k, placed, level, j, most, cap)
                        checked += 1
                        zero_caps += cap == 0.0
    assert checked > 1000 and zero_caps > 0
