"""Duality reformulation (P2): structure, oracle and P1 agreement,
revenue integrity and bilevel certification."""

import ctypes
import dataclasses
import logging
import time

import numpy as np
import pytest

from edgemarket import lp_core, reform_dual, reform_kkt
from edgemarket._milp_base import (MAX_ESCALATIONS, M_LIN, IntegrityError,
                                   extract_solution, purchase_caps)
from edgemarket.lp_core import LE, MilpConfig, MilpSolution, solve_lp
from edgemarket.model import (FollowerSolution, LeaderDecision,
                              leader_profit, validate_instance)
from edgemarket.oracle import brute_force_bilevel, compare
from edgemarket.reform_dual import (build_p2, solve_p2,
                                    verify_bilevel_optimality)
from edgemarket.reform_kkt import build_p1, solve_p1
from edgemarket.scenario import ScenarioConfig, sample_instance

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
    model, _ = build_p2(inst)
    assert model.pairs == []


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
    """What C code prints to stdout inside ``_stdout_to_log`` goes to
    the log instead, and a P2/HiGHS solve prints nothing to stdout.

    C's stdout is made fully buffered for the block, as it is on a pipe
    unless Python runs unbuffered, so the line reaches the log only if
    the block flushes it before restoring fd 1."""
    libc = lp_core._libc()
    c_stdout = ctypes.c_void_p.in_dll(libc, "stdout")
    buf = ctypes.create_string_buffer(8192)
    libc.setvbuf(c_stdout, buf, 0, len(buf))   # _IOFBF
    try:
        with caplog.at_level(logging.DEBUG, logger="edgemarket"):
            with lp_core._stdout_to_log():
                libc.printf(b"chatter from C\n")
    finally:
        libc.setvbuf(c_stdout, None, 2, 0)     # _IONBF
    assert capfd.readouterr().out == ""
    assert [r.getMessage() for r in caplog.records] == [
        "HiGHS: chatter from C"]
    res = solve_p2(tiny_instance(8), CFG)
    assert res.status == "optimal"
    assert capfd.readouterr().out == ""


def _add_mccormick_rows(m, inst, lay):
    """The McCormick rows the hull rows replaced: ``h <= y``,
    ``y - h <= C (1 - r)``, ``pi <= mu2`` and
    ``mu2 - pi <= mu2_max (1 - r)``."""
    mu2_max = M_LIN
    for (j, v, k), p in np.ndenumerate(lay.pi):
        r, mu2 = lay.r[j, v], lay.mu2[k]
        m.add_constr({p: 1.0, mu2: -1.0}, LE, 0.0, name=f"piub2_{j}_{v}_{k}")
        m.add_constr({mu2: 1.0, p: -1.0, r: mu2_max}, LE, mu2_max,
                     name=f"pilb_{j}_{v}_{k}")
    for (j, v, k), h in np.ndenumerate(lay.h):
        r, y, cap = lay.r[j, v], lay.y_edge[j, k], inst.compute_cap[j]
        m.add_constr({h: 1.0, y: -1.0}, LE, 0.0, name=f"hub2_{j}_{v}_{k}")
        m.add_constr({y: 1.0, h: -1.0, r: cap}, LE, cap,
                     name=f"hlb_{j}_{v}_{k}")


@pytest.mark.parametrize("build", [build_p1, build_p2])
def test_hull_rows_imply_the_mccormick_rows(build):
    """Adding back the McCormick rows of the price products leaves the
    LP relaxation's optimum where the hull rows put it."""
    instances = [tiny_instance(s) for s in range(20)]
    instances.append(sample_instance(ScenarioConfig(
        seed=0, num_aps=6, num_ens=3, num_services=4)))
    for inst in instances:
        hull, _ = build(inst)
        assert not {r.name.split("_")[0] for r in hull.constraints} & {
            "hub2", "hlb", "piub2", "pilb"}
        both, lay = build(inst)
        _add_mccormick_rows(both, inst, lay)
        assert both.num_constrs > hull.num_constrs
        a, b = solve_lp(hull), solve_lp(both)
        assert a.status == b.status
        if a.status == "optimal":
            assert b.objective == pytest.approx(
                a.objective, rel=1e-9, abs=1e-9)


def test_p2_detects_infeasible_instance():
    inst = tiny_instance(3)
    res = solve_p2(inst, CFG)
    assert res.status == "infeasible"


@pytest.mark.parametrize("solve, build", [(solve_p1, build_p1),
                                           (solve_p2, build_p2)],
                         ids=["p1", "p2"])
def test_revenue_variable_equals_price_times_procurement(solve, build):
    inst = tiny_instance(0)
    res = solve(inst, CFG)
    model, lay = build(inst)
    for k in range(inst.num_services):
        direct = float(res.leader.price @ res.followers[k].y_edge)
        assert res.milp.x[lay.rev[k]] == pytest.approx(direct, abs=1e-6)


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


def test_certification_reports_an_infeasible_follower():
    # The strict delay-cap instance of
    # test_infeasibility_diagnosis_names_delay_cap: no leader decision
    # leaves its followers a feasible allocation.
    inst = tiny_instance(6, demand_range=(80.0, 90.0))
    strict = dataclasses.replace(
        inst, delay_cap=np.full(inst.num_services, 50.0),
        eligible=np.zeros_like(inst.eligible))
    N, M, K = strict.num_ens, strict.num_aps, strict.num_services
    ld = LeaderDecision(price_level=np.ones(N), price=strict.price_grid[:, 1],
                        active=np.ones(N), placed=np.ones((N, K)))
    claimed = [FollowerSolution(np.zeros(M), np.zeros((M, N)), 0.0,
                                np.zeros(N), np.zeros(M), 0.0)
               for _ in range(K)]
    rep = verify_bilevel_optimality(strict, ld, claimed)
    assert rep.passed is False
    assert np.isnan(rep.cost_resolved[0])
    assert rep.rel_diffs[0] == float("inf")
    assert "delay cap" in rep.notes[0]


def test_unknown_scheme_is_rejected():
    with pytest.raises(ValueError, match="bogus"):
        solve_p2(tiny_instance(0), scheme="bogus")


def test_extracted_profit_recomputes():
    inst = tiny_instance(4)
    res = solve_p2(inst, CFG)
    profit = leader_profit(inst, res.leader, res.followers)
    assert profit == pytest.approx(res.objective, rel=1e-5, abs=1e-7)


def test_scheme_restrictions_nest():
    inst = tiny_instance(0)
    dyn = solve_p2(inst, CFG)
    flat = solve_p2(inst, CFG, scheme="flat")
    fixed = solve_p2(inst, CFG, scheme="avg")
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


def test_p2_embedded_backend_agrees_on_three_ens():
    """Size (4, 3, 2), seed 0: 24 binaries and three one-hot price sets,
    the mid-size instance where set branching changes the tree most."""
    inst = sample_instance(ScenarioConfig(seed=0, num_aps=4, num_ens=3,
                                          num_services=2))
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


@pytest.mark.parametrize("module, solve", [(reform_kkt, solve_p1),
                                           (reform_dual, solve_p2)])
def test_escalation_keeps_its_flags(monkeypatch, module, solve):
    """The flags that caused an escalation are reported with the result."""
    answers = [["forced"]]
    monkeypatch.setattr(module, "validate_bigM",
                        lambda *args: answers.pop() if answers else [])
    res = solve(tiny_instance(0), CFG)
    assert res.status == "optimal"
    assert res.escalations == 1
    assert res.flags == ["forced"]


@pytest.mark.parametrize("module, solve, build", [
    (reform_kkt, solve_p1, "build_p1"), (reform_dual, solve_p2, "build_p2")])
def test_escalation_gives_up_after_max(monkeypatch, module, solve, build):
    """Constants still flagged after the last escalation raise, naming
    the flag, after one build per escalation plus the first."""
    real = getattr(module, build)
    builds = []

    def counting(*args, **kwargs):
        builds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, build, counting)
    monkeypatch.setattr(module, "validate_bigM", lambda *args: ["forced"])
    with pytest.raises(RuntimeError, match=(
            r"^reformulation unsound: big-M constants still binding after "
            rf"{MAX_ESCALATIONS} escalations: \['forced'\]$")):
        solve(tiny_instance(0), CFG)
    assert len(builds) == MAX_ESCALATIONS + 1


# The name prefix of each layout symbol that is not named after it.
_PREFIX = {"x_cloud": "x0", "x_edge": "x", "y_cloud": "y0", "y_edge": "y",
           "avg_delay": "da"}


@pytest.mark.parametrize("build", [build_p1, build_p2])
@pytest.mark.parametrize("inst", [
    tiny_instance(0),
    sample_instance(ScenarioConfig(seed=0, num_aps=6, num_ens=3,
                                   num_services=4))], ids=["tiny0", "desk0"])
def test_layout_ids_name_their_own_symbol_and_index(build, inst):
    model, lay = build(inst)
    seen = set()
    for f in dataclasses.fields(lay):
        for index, vid in np.ndenumerate(getattr(lay, f.name)):
            assert 0 <= vid < model.num_vars
            assert model.variables[vid].name == "_".join(
                [_PREFIX.get(f.name, f.name), *map(str, index)])
            seen.add(vid)
    # Every column but P1's switches is a layout symbol, named once.
    assert len(seen) == model.num_vars - len(model.pairs)


@pytest.mark.parametrize("solve, build", [(solve_p1, build_p1),
                                           (solve_p2, build_p2)],
                         ids=["p1", "p2"])
def test_extract_rejects_a_broken_point(solve, build):
    """A fractional binary, two price levels on one EN and a revenue
    column off price times procurement each raise IntegrityError."""
    inst = tiny_instance(0)
    res = solve(inst, CFG)
    _, lay = build(inst)

    def extract(*edits):
        x = res.milp.x.copy()
        for vid, value in edits:
            x[vid] = value
        return extract_solution(
            inst, lay, MilpSolution(res.milp.status, res.milp.objective, x))

    extract()
    with pytest.raises(IntegrityError, match=r"binary t\[0,0\] not integral"):
        extract((lay.t[0, 0], 0.5))
    with pytest.raises(IntegrityError, match="EN 0 selects 2 price levels"):
        extract((lay.r[0, 0], 1.0), (lay.r[0, 1], 1.0), (lay.r[0, 2], 0.0))
    with pytest.raises(IntegrityError, match="revenue variable for service 0"):
        extract((lay.rev[0], res.milp.x[lay.rev[0]] + 1.0))


def _provable(seed):
    """A two-AP, two-EN tiny instance where every option of every AP
    meets every delay cap, so ``purchase_caps`` drops each AP the cloud
    undercuts per unit."""
    inst = tiny_instance(seed, num_aps=2, num_ens=2)
    return dataclasses.replace(inst, delay_cap=np.full(inst.num_services,
                                                       100.0))


def _none_kept(inst):
    """A mask ``keep[i, j, k, v]`` naming no AP."""
    return np.zeros(inst.eligible.shape + (inst.num_price_levels,), bool)


def _below_cloud_price(inst):
    # The cloud at 0.02 undercuts level 0 (0.01) per unit, since the
    # cloud has no delay, but level 0 spends less: with the budgets
    # below the all-cloud spend, services must buy there.
    inst = dataclasses.replace(
        inst, cloud_price=0.02, delay_cloud=np.zeros(inst.num_aps),
        delay_weight=np.full(inst.num_services, 0.006))
    keep = _none_kept(inst)
    keep[:, :, :, 0] = True
    return (dataclasses.replace(inst,
                                budget=0.015 * inst.demand.sum(axis=0)),
            keep)


def _free_level(inst):
    grid = inst.price_grid.copy()
    grid[0, 0] = 0.0
    keep = _none_kept(inst)
    keep[:, 0, :, 0] = True
    return dataclasses.replace(inst, price_grid=grid), keep


def _slow_cloud_at_one_ap(inst):
    delay = inst.delay_cloud.copy()
    delay[0] = 120.0
    keep = _none_kept(inst)
    keep[0] = True
    return dataclasses.replace(inst, delay_cloud=delay), keep


def _cost_tie(inst):
    # EN 0's delays equal the cloud's, and its level 1 the cloud price:
    # services are indifferent there, and the leader may pick the
    # response that buys from EN 0.
    delay = inst.delay_edge.copy()
    delay[:, 0] = inst.delay_cloud
    keep = _none_kept(inst)
    keep[:, 0, :, 1] = True
    return (dataclasses.replace(inst, delay_edge=delay,
                                cloud_price=inst.price_grid[0, 1]), keep)


@pytest.mark.parametrize("seed", [0, 2, 5, 7])
@pytest.mark.parametrize("edit", [_below_cloud_price, _free_level,
                                  _slow_cloud_at_one_ap, _cost_tie])
def test_purchase_caps_keep_the_aps_the_proof_misses(edit, seed):
    """Each edit breaks one condition of ``purchase_caps``'s proof for
    the APs ``keep[i, j, k, v]`` names: a level below the cloud price, a
    free level, a cloud delay above the delay cap, an exact per-unit cost
    tie; the other conditions hold there. Their demand stays in the
    caps, and a free level keeps ``C_j``. P1, P2 on both backends and
    the oracle agree."""
    inst, keep = edit(_provable(seed))
    assert validate_instance(inst).ok
    cap = inst.compute_cap[:, None, None]
    kept = np.einsum("ik,ijk,ijkv->jvk", inst.demand, inst.eligible, keep)
    floor = np.minimum(cap, kept)
    caps = purchase_caps(inst)
    assert (caps >= floor * (1 - 1e-12)).all()
    assert (floor > 0).any()
    free = inst.price_grid <= 0
    assert (caps[free] == np.broadcast_to(cap, caps.shape)[free]).all()
    oracle = brute_force_bilevel(inst, keep_log=False)
    for solve, backend in ((solve_p1, "highs"), (solve_p2, "highs"),
                           (solve_p2, "bnb")):
        res = solve(inst, MilpConfig(backend=backend))
        report = compare(oracle, res.objective, res.status)
        assert report.passed, (solve.__name__, backend, report)
