"""Brute-force oracle: enumeration accounting, optimistic tie-breaking,
candidate log and status-aware comparison."""

import dataclasses

import numpy as np
import pytest

from edgemarket.lp_core import MilpConfig
from edgemarket.model import leader_profit
from edgemarket.reform_dual import solve_p2
from edgemarket.oracle import (OracleResult, brute_force_bilevel, compare,
                               _candidate_count)

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
