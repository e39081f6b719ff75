"""Duality reformulation (P2): structure, oracle and P1 agreement,
revenue integrity and bilevel certification."""

import logging
import time

import numpy as np
import pytest

from edgemarket import lp_core, reform_dual, reform_kkt
from edgemarket.lp_core import MilpConfig
from edgemarket.model import leader_profit
from edgemarket.oracle import brute_force_bilevel, compare
from edgemarket.reform_dual import (build_p2, solve_p2,
                                    verify_bilevel_optimality)
from edgemarket.reform_kkt import solve_p1

from conftest import tiny_instance

CFG = MilpConfig(backend="highs")


def test_binary_count_formula():
    for seed in (0, 1, 4):
        inst = tiny_instance(seed)
        N, K, V = inst.num_ens, inst.num_services, inst.num_price_levels
        model, _ = build_p2(inst)
        assert model.num_binaries == N * (K + V + 1)


def test_p2_has_no_complementarity_switches():
    inst = tiny_instance(0)
    _, lay = build_p2(inst)
    assert not lay.psi and not lay.kappa and not lay.omega


@pytest.mark.parametrize("seed", [0, 1, 2, 4, 5])
def test_p2_matches_oracle(seed):
    inst = tiny_instance(seed)
    res = solve_p2(inst, CFG)
    oracle = brute_force_bilevel(inst, keep_log=False)
    report = compare(oracle, res.objective, res.status)
    assert report.passed, report


def test_p2_matches_p1():
    for seed in (6, 8, 9):
        inst = tiny_instance(seed)
        r1 = solve_p1(inst, CFG)
        r2 = solve_p2(inst, CFG)
        assert r1.status == r2.status
        if r1.status == "optimal":
            assert r2.objective == pytest.approx(
                r1.objective, abs=1e-6 * (1 + abs(r1.objective)))


def test_highs_output_kept_off_stdout(capfd, caplog):
    """HiGHS's MIP solver prints a line to stdout on this solve, even
    with its output switched off; it goes to the log instead."""
    with caplog.at_level(logging.DEBUG, logger="edgemarket"):
        res = solve_p2(tiny_instance(8), CFG)
    assert res.status == "optimal"
    out, _ = capfd.readouterr()
    assert out == ""
    assert any("HighsMipSolverData" in r.getMessage() for r in caplog.records)


def test_p2_detects_infeasible_instance():
    inst = tiny_instance(3)
    res = solve_p2(inst, CFG)
    assert res.status == "infeasible"


def test_revenue_variable_equals_price_times_procurement():
    inst = tiny_instance(0)
    res = solve_p2(inst, CFG)
    model, lay = build_p2(inst)
    for k in range(inst.num_services):
        direct = float(res.leader.price @ res.followers[k].y_edge)
        assert res.milp.values[lay.rev[k]] == pytest.approx(direct, abs=1e-6)


def test_bilevel_certification_passes():
    inst = tiny_instance(0)
    res = solve_p2(inst, CFG)
    rep = verify_bilevel_optimality(inst, res.leader, res.followers)
    assert rep.passed, rep.notes
    assert all(d <= 1e-6 for d in rep.rel_diffs)
    assert len(rep.cost_claimed) == inst.num_services


def test_certification_fails_for_wrong_allocation():
    inst = tiny_instance(0)
    res = solve_p2(inst, CFG)
    tampered = [fs for fs in res.followers]
    bad = tampered[0]
    bad.cost += 1.0   # claim a cost the LP cannot reproduce
    rep = verify_bilevel_optimality(inst, res.leader, tampered)
    assert not rep.passed


def test_extracted_profit_recomputes():
    inst = tiny_instance(4)
    res = solve_p2(inst, CFG)
    profit = leader_profit(inst, res.leader, res.followers)
    assert profit == pytest.approx(res.objective, rel=1e-5, abs=1e-7)


def test_scheme_restrictions_nest():
    inst = tiny_instance(0)
    dyn = solve_p2(inst, CFG)
    flat = solve_p2(inst, CFG, flat=True)
    fixed = solve_p2(inst, CFG, fix_price_level=1)
    assert dyn.objective >= flat.objective - 1e-9
    assert flat.objective >= fixed.objective - 1e-9
    assert np.all(fixed.leader.price_level == 1)
    assert len(set(flat.leader.price_level.tolist())) == 1


def test_p2_embedded_backend_agrees():
    inst = tiny_instance(1)
    highs = solve_p2(inst, MilpConfig(backend="highs"))
    bnb = solve_p2(inst, MilpConfig(backend="bnb"))
    assert bnb.status == highs.status == "optimal"
    assert bnb.objective == pytest.approx(highs.objective, abs=1e-6)


@pytest.mark.parametrize("module, solve", [(reform_kkt, solve_p1),
                                           (reform_dual, solve_p2)])
def test_time_limit_bounds_all_escalations(monkeypatch, module, solve):
    """A solve that uses up its whole budget leaves none for a big-M
    escalation: the call ends within the limit plus one round."""
    real = lp_core._solve_milp_highs
    rounds = []

    def slow(m, cfg):
        t0 = time.perf_counter()
        sol = real(m, cfg)
        rounds.append(cfg.time_limit)
        time.sleep(max(0.0, cfg.time_limit - (time.perf_counter() - t0)))
        return sol

    monkeypatch.setattr(lp_core, "_solve_milp_highs", slow)
    monkeypatch.setattr(module, "validate_bigM", lambda *args: ["forced"])
    limit = 0.5
    t0 = time.perf_counter()
    res = solve(tiny_instance(0), MilpConfig(backend="highs", time_limit=limit))
    wall = time.perf_counter() - t0
    assert res.status == "time-limit"
    assert len(rounds) == 1
    assert wall <= 2 * limit
