"""Single-EN closed form: the interval-knapsack best response against
the follower LP, and the grid enumeration against the duality MILP and
the brute-force oracle, where delay caps and budgets bind."""

import dataclasses

import numpy as np
import pytest

from edgemarket._milp_base import zero_multipliers
from edgemarket.analytic import (follower_best_response_single_en,
                                 solve_single_en)
from edgemarket.follower import (FollowerContext, FollowerInfeasibleError,
                                 solve_follower)
from edgemarket.harness import SchemeSpec, run_scheme
from edgemarket.lp_core import MilpConfig
from edgemarket.model import Instance, leader_profit
from edgemarket.oracle import brute_force_bilevel
from edgemarket.reform_dual import solve_p2, verify_bilevel_optimality
from edgemarket.scenario import ScenarioConfig, sample_instance

from conftest import (TINY_PRICES, drawn_variant, tight_budget, tiny_config,
                      tiny_instance)

CFG = MilpConfig(backend="highs")


def single_en_config(seed, **overrides):
    overrides.setdefault("num_ens", 1)
    overrides.setdefault("num_aps", 3)
    overrides.setdefault("num_services", 2)
    overrides.setdefault("price_levels", TINY_PRICES)
    # lenient caps: no AP misses a delay cap on the cloud or the EN
    overrides.setdefault("delay_cap_range", (70.0, 100.0))
    return ScenarioConfig(seed=seed, **overrides)


def nonbinding_storage(inst):
    return dataclasses.replace(
        inst, storage_cap=np.full(inst.num_ens, inst.service_size.sum() + 1))


def test_requires_single_en():
    inst = sample_instance(ScenarioConfig(seed=0))
    with pytest.raises(ValueError, match="N=1"):
        solve_single_en(inst)


@pytest.mark.parametrize("seed", range(6))
def test_best_response_matches_follower_lp(seed):
    """With lenient caps, with the generator's defaults (delay caps below
    the cloud delay are drawn) and with ``tight_budget``: None exactly
    where the follower LP is infeasible, else its cost."""
    lenient = nonbinding_storage(sample_instance(single_en_config(seed)))
    defaults = sample_instance(single_en_config(
        seed, delay_cap_range=ScenarioConfig.delay_cap_range))
    for inst in (lenient, defaults, tight_budget(defaults)):
        _assert_best_responses_match(inst)


def _assert_best_responses_match(inst):
    for k in range(inst.num_services):
        for p1 in inst.price_grid[0]:
            closed = follower_best_response_single_en(inst, k, float(p1))
            ctx = FollowerContext(inst, k, [float(p1)], [1])
            try:
                fs, _ = solve_follower(ctx)
            except FollowerInfeasibleError:
                assert closed is None
                continue
            assert closed is not None
            assert closed.cost == pytest.approx(fs.cost,
                                                abs=1e-6 * (1 + abs(fs.cost)))


@pytest.mark.parametrize("seed", range(6))
def test_solve_single_en_matches_p2(seed):
    inst = nonbinding_storage(sample_instance(single_en_config(seed)))
    res = solve_single_en(inst)
    milp = solve_p2(inst, CFG)
    assert (res.status == "optimal") == (milp.status == "optimal")
    if res.status == "optimal":
        assert res.profit == pytest.approx(
            milp.objective, abs=1e-6 * (1 + abs(milp.objective)))


def test_case1_when_top_grid_price_below_cloud():
    cfg = single_en_config(2, price_levels=(0.002, 0.005),
                           demand_range=(1.0, 2.0))
    inst = nonbinding_storage(sample_instance(cfg))
    res = solve_single_en(inst)
    if res.status == "optimal" and res.case != "inactive":
        assert res.case == "case1"
        assert res.price <= inst.cloud_price


def test_case2_price_above_cloud():
    inst = nonbinding_storage(sample_instance(single_en_config(0)))
    res = solve_single_en(inst)
    assert res.status == "optimal"
    if res.case == "case2":
        assert res.price > inst.cloud_price


def test_inactive_when_activation_cannot_pay():
    cfg = single_en_config(1, fixed_cost_range=(1e6, 1e6))
    inst = nonbinding_storage(sample_instance(cfg))
    res = solve_single_en(inst)
    assert res.status == "optimal"
    assert res.case == "inactive"
    assert res.profit == 0.0
    assert not res.placed.any()


def test_infeasible_when_budget_prohibitive():
    inst = nonbinding_storage(sample_instance(single_en_config(1)))
    broke = dataclasses.replace(inst,
                                budget=np.full(inst.num_services, 1e-9))
    res = solve_single_en(broke)
    assert res.status == "infeasible"
    assert res.case == "infeasible"


def test_per_price_log_covers_grid():
    inst = nonbinding_storage(sample_instance(single_en_config(3)))
    res = solve_single_en(inst)
    assert set(res.per_price) <= set(inst.price_grid[0].tolist())
    assert res.per_price   # at least one price evaluated


def _one_en_tiny_seeds(stop):
    """Tiny seeds below ``stop`` whose own draw has one EN, picked from
    the config alone, before any instance is generated."""
    return [s for s in range(stop) if tiny_config(s).num_ens == 1]


def _agrees_with_oracle(inst, status, profit):
    oracle = brute_force_bilevel(inst, keep_log=False)
    if status != "optimal" or not oracle.feasible:
        return (status == "optimal") == oracle.feasible
    return abs(profit - oracle.profit) <= 1e-6 * (1 + abs(oracle.profit))


def test_matches_oracle_in_scope():
    """Delay caps of 70-100 and storage that cannot bind: every answer
    equals the oracle's. Seeds 29, 150 and 167 are ones whose optimum
    places one service of two where both together overfill the EN."""
    seeds = _one_en_tiny_seeds(400)
    assert {29, 150, 167} <= set(seeds)
    misses = []
    for seed in seeds:
        cfg = tiny_config(seed, delay_cap_range=(70.0, 100.0))
        inst = nonbinding_storage(sample_instance(cfg))
        res = solve_single_en(inst)
        if not _agrees_with_oracle(inst, res.status, res.profit):
            misses.append((seed, res.status, res.profit))
    assert not misses


@pytest.fixture(scope="module")
def family_runs():
    """(family, seed, inst, run_scheme's output) for every N = 1 tiny
    seed of 0-399 in each of three families: the generator's defaults,
    which draw delay caps below the cloud delay, their ``tight_budget``
    variants and their ``drawn_variant``s."""
    spec = SchemeSpec("dyn", "single-en")
    runs = []
    for seed in _one_en_tiny_seeds(400):
        inst = tiny_instance(seed)
        for family, variant in (("defaults", inst),
                                ("tight_budget", tight_budget(inst)),
                                ("drawn", drawn_variant(inst, seed))):
            runs.append((family, seed, variant, run_scheme(variant, spec)))
    return runs


def test_matches_oracle_on_three_families(family_runs):
    """No refusal, and every status and profit equals the oracle's."""
    misses = [(family, seed, report.status, profit)
              for family, seed, inst, (profit, _, report) in family_runs
              if not _agrees_with_oracle(inst, report.status, profit)]
    assert not misses
    assert len(family_runs) == 3 * 176


def test_answers_are_consistent_bilevel_solutions(family_runs):
    """On every answered instance, each returned follower is optimal at
    the leader decision ``run_scheme`` builds, and the followers earn
    the reported profit, so the split of the shared capacity is sound."""
    answered = 0
    for family, seed, inst, run in family_runs:
        profit, (leader, followers), report = run
        if report.status != "optimal":
            continue
        answered += 1
        check = verify_bilevel_optimality(inst, leader, followers)
        assert check.passed, (family, seed, check.notes)
        assert leader_profit(inst, leader, followers) == pytest.approx(
            profit, abs=1e-9 * (1 + abs(profit))), (family, seed)
    assert answered > 400


def test_matches_p2_at_six_aps_four_services():
    """Above the oracle's size: (M, N, K) = (6, 1, 4) on generator seeds
    0-29, where ``zero_multipliers`` proves every budget multiplier 0,
    so P2 is exact there."""
    feasible = 0
    for seed in range(30):
        inst = sample_instance(ScenarioConfig(seed=seed, num_aps=6,
                                              num_ens=1, num_services=4))
        assert zero_multipliers(inst)[0].all(), seed
        res, milp = solve_single_en(inst), solve_p2(inst, CFG)
        assert res.status == milp.status, seed
        if milp.status == "optimal":
            feasible += 1
            assert res.profit == pytest.approx(
                milp.objective, abs=1e-6 * (1 + abs(milp.objective))), seed
    assert feasible


def _one_ap_instance(**overrides):
    """M = N = K = 1: the EN at 0.01 undercuts the cloud at 0.02 but is
    40 slower, and has room for all of the AP's 10 units."""
    inst = Instance(
        num_aps=1, num_ens=1, num_services=1, num_price_levels=2,
        demand=[[10.0]], delay_edge=[[50.0]], delay_cloud=[10.0],
        cloud_price=0.02, price_grid=[[0.01, 0.03]], compute_cap=[20.0],
        storage_cap=[100.0], fixed_cost=[0.05], variable_cost=[0.105],
        placement_cost=[[0.0]], service_size=[10.0], budget=[0.15],
        delay_weight=[1e-3], delay_cap=[100.0], eligible=[[[1]]])
    return dataclasses.replace(inst, **overrides)


@pytest.mark.parametrize("overrides, optimum, offload", [
    # The all-cloud spend of 0.2 exceeds the budget of 0.15, which is
    # met only if 5 units move to the EN at 0.01, against the service's
    # delay preference.
    ({}, -0.02625, 5.0),
    # At delay weight 1e-4 the EN at 0.01 is worth all 10 units, but
    # the delay cap of 40 lets only 7.5 of them move.
    ({"budget": np.array([1.0]), "delay_weight": np.array([1e-4]),
      "delay_cap": np.array([40.0]), "fixed_cost": np.array([0.0])},
     0.035625, 7.5),
], ids=["budget", "delay-cap"])
def test_solves_where_a_split_is_forced(overrides, optimum, offload):
    """Where a binding budget or delay cap forces the follower to split
    the AP's workload, the closed form answers with that split and the
    oracle's optimum."""
    inst = _one_ap_instance(**overrides)
    assert brute_force_bilevel(inst).profit == pytest.approx(optimum)
    res = solve_single_en(inst)
    assert res.status == "optimal"
    assert res.profit == pytest.approx(optimum)
    assert res.followers[0].x_edge[0, 0] == pytest.approx(offload)
