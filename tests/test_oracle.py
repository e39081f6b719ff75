"""Brute-force oracle: enumeration accounting, optimistic tie-breaking,
candidate log and status-aware comparison."""

import dataclasses
import itertools

import numpy as np
import pytest

from edgemarket.follower import (FollowerContext, FollowerInfeasibleError,
                                 solve_follower)
from edgemarket.lp_core import MilpConfig
from edgemarket.model import leader_profit
from edgemarket.reform_dual import solve_p2
from edgemarket.oracle import (OracleResult, brute_force_bilevel, compare,
                               _candidate_count, _placements, _SecondStage)

from conftest import tiny_instance


def test_candidate_count_and_budget_guard():
    inst = tiny_instance(0)   # M=3, N=2, K=2, V=3
    expected = 3 ** 2 * 2 ** 2 * 2 ** 4
    assert _candidate_count(inst) == expected
    with pytest.raises(ValueError, match="budget"):
        brute_force_bilevel(inst, max_candidates=expected - 1)


def test_oracle_examines_every_admissible_candidate():
    inst = tiny_instance(0)
    res = brute_force_bilevel(inst)
    # placements are pruned to t <= z and the storage budget before
    # price enumeration, so examined <= full count
    assert 0 < res.candidates_examined <= _candidate_count(inst)
    assert len(res.log) == res.candidates_examined


def test_oracle_profit_recomputes_from_decision():
    inst = tiny_instance(0)
    res = brute_force_bilevel(inst, keep_log=False)
    assert res.feasible
    recomputed = leader_profit(inst, res.decision, res.followers)
    assert recomputed == pytest.approx(res.profit, abs=1e-7)


def test_oracle_log_profits_bounded_by_optimum():
    inst = tiny_instance(4)
    res = brute_force_bilevel(inst)
    feasible = [e["profit"] for e in res.log if "profit" in e]
    assert feasible
    assert max(feasible) == pytest.approx(res.profit, abs=1e-9)


def test_oracle_respects_follower_budgets_and_caps():
    inst = tiny_instance(1)
    res = brute_force_bilevel(inst, keep_log=False)
    for k, fs in enumerate(res.followers):
        spend = (inst.cloud_price * fs.y_cloud
                 + float(res.decision.price @ fs.y_edge))
        assert spend <= inst.budget[k] + 1e-6
        assert np.all(fs.avg_delay <= inst.delay_cap[k] + 1e-6)
    # shared EN capacity across services
    load = sum(fs.y_edge for fs in res.followers)
    assert np.all(load <= inst.compute_cap * res.decision.active + 1e-6)


def test_oracle_infeasible_when_no_candidate_works():
    inst = tiny_instance(1)
    hopeless = dataclasses.replace(
        inst, budget=np.full(inst.num_services, 1e-9))
    res = brute_force_bilevel(hopeless, keep_log=False)
    assert not res.feasible
    assert res.profit is None and res.decision is None


def test_oracle_deterministic_tie_break():
    inst = tiny_instance(2)
    a = brute_force_bilevel(inst, keep_log=False)
    b = brute_force_bilevel(inst, keep_log=False)
    assert a.profit == b.profit
    assert np.array_equal(a.decision.price_level, b.decision.price_level)
    assert np.array_equal(a.decision.placed, b.decision.placed)


def test_compare_statuses():
    res = OracleResult(1.0, None, None, 4)
    assert compare(res, 1.0).passed
    assert not compare(res, 2.0).passed
    assert compare(res, 0.9, milp_status="gap-limit").inconclusive
    none = OracleResult(None, None, None, 4)
    assert compare(none, None, milp_status="infeasible").passed
    assert not compare(none, 1.0, milp_status="optimal").passed


def test_oracle_matches_p2_closely_on_tiny_seeds():
    """The oracle pins each follower at its exact optimal cost, so its
    ground truth agrees with P2 far inside the comparison tolerance."""
    mismatches = []
    for seed in range(20):
        inst = tiny_instance(seed)
        p2 = solve_p2(inst, MilpConfig(backend="highs"))
        oracle = brute_force_bilevel(inst, keep_log=False)
        if not oracle.feasible:
            if p2.status != "infeasible":
                mismatches.append((seed, None, p2.status))
        elif p2.status != "optimal" or abs(oracle.profit - p2.objective) > \
                1e-8 * (1 + abs(oracle.profit)):
            mismatches.append((seed, oracle.profit, p2.objective))
    assert not mismatches, mismatches


def _cold_log(inst):
    """Every candidate's profit or infeasibility verdict, solved cold:
    fresh follower LPs with the placement in their capacity rows, and a
    fresh second-stage model per candidate."""
    N, K, V = inst.num_ens, inst.num_services, inst.num_price_levels
    out = {}
    for levels in itertools.product(range(V), repeat=N):
        prices = np.array([inst.price_grid[j, levels[j]] for j in range(N)])
        for z, t, placed in _placements(inst):
            key = (levels, z, t)
            costs = []
            for k in range(K):
                try:
                    fs, _ = solve_follower(
                        FollowerContext(inst, k, prices, placed[:, k]))
                except FollowerInfeasibleError:
                    out[key] = f"follower {k} infeasible"
                    break
                costs.append(fs.cost)
            else:
                stage2 = _SecondStage(inst, prices).solve(placed, costs)
                out[key] = (
                    "no follower-optimal profile fits capacity"
                    if stage2 is None else
                    stage2[0] - float(np.asarray(z, float) @ inst.fixed_cost)
                    - float((inst.placement_cost * placed).sum()))
    return out


@pytest.mark.parametrize("seed", [0, 4, 7, 13])
def test_hot_resolves_match_cold_solves(seed):
    """The oracle re-solves one model per price vector under changed
    column bounds; each candidate must come out as it does solved cold."""
    inst = tiny_instance(seed)
    res = brute_force_bilevel(inst)
    assert len(res.log) == res.candidates_examined
    hot = {(e["levels"], e["z"], e["t"]): e.get("profit", e.get("infeasible"))
           for e in res.log}
    cold = _cold_log(inst)
    assert hot.keys() == cold.keys()
    for key, want in cold.items():
        got = hot[key]
        if isinstance(want, str) or isinstance(got, str):
            assert got == want, key
        else:
            assert abs(got - want) <= 1e-9 * (1 + abs(want)), (key, got, want)
