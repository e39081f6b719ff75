"""KKT reformulation (P1): structure, big-M machinery, oracle agreement
and solution extraction integrity."""

import numpy as np
import pytest

from edgemarket.lp_core import MilpConfig
from edgemarket.model import leader_profit
from edgemarket.oracle import brute_force_bilevel, compare
from edgemarket.reform_kkt import (BigMSet, build_p1, derive_bigM,
                                   extract_solution_p1, solve_p1,
                                   validate_bigM)

from conftest import tiny_instance

CFG = MilpConfig(backend="highs")


def test_binary_count_formula():
    for seed in (0, 1, 4):
        inst = tiny_instance(seed)
        M, N, K, V = (inst.num_aps, inst.num_ens, inst.num_services,
                      inst.num_price_levels)
        model, _ = build_p1(inst, derive_bigM(inst))
        assert model.num_binaries == N * (K + V + 1) \
            + 2 * K * (M + 1) * (N + 1)


def test_derive_bigm_dominates_data():
    inst = tiny_instance(3)
    bigm = derive_bigM(inst)
    bigm.check()
    assert bigm.m1 >= inst.delay_cap.max()
    assert bigm.m2 >= inst.demand.sum(axis=0).max()
    assert bigm.m3 >= inst.compute_cap.max()
    assert bigm.m6 >= inst.budget.max()
    assert bigm.m_lin == 10.0   # ten times each multiplier's unit


def test_bigm_scaled():
    bigm = derive_bigM(tiny_instance(3))
    bigger = bigm.scaled(10.0)
    assert bigger.m1 == pytest.approx(10 * bigm.m1)
    assert bigger.m_lin == pytest.approx(10 * bigm.m_lin)


def test_bigm_check_rejects_nonpositive():
    with pytest.raises(ValueError):
        BigMSet(m1=0.0, m2=1, m3=1, m4=1, m5=1, m6=1, m7=1, m8=1,
                m_lin=1).check()


# Seed 177's optimum is 0, where HiGHS's own relative gap (divided by
# the objective alone) read 0.23 and the solve was labelled gap-limit.
@pytest.mark.parametrize("seed", [0, 1, 2, 4, 5, 177])
def test_p1_matches_oracle(seed):
    inst = tiny_instance(seed)
    res = solve_p1(inst, CFG)
    oracle = brute_force_bilevel(inst, keep_log=False)
    report = compare(oracle, res.objective, res.status)
    assert report.passed, report


def test_p1_detects_infeasible_instance():
    inst = tiny_instance(3)   # all followers cloud-infeasible by data
    oracle = brute_force_bilevel(inst, keep_log=False)
    res = solve_p1(inst, CFG)
    assert not oracle.feasible
    assert res.status == "infeasible"
    assert res.objective is None


def test_extracted_profit_recomputes():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG)
    assert res.status == "optimal"
    profit = leader_profit(inst, res.leader, res.followers)
    assert profit == pytest.approx(res.objective, rel=1e-5, abs=1e-7)


def test_extracted_duals_satisfy_stationarity():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG)
    for k, du in enumerate(res.duals):
        w = inst.delay_weight[k]
        p = res.leader.price
        # dual rows of the embedded KKT system at the extracted point
        assert du.mu1 == pytest.approx(
            inst.cloud_price * (1 + du.mu2), abs=1e-6)
        assert np.allclose(du.lam - du.gamma - p * (1 + du.mu2), 0.0,
                           atol=1e-6)
        assert np.allclose(inst.demand[:, k] * du.sigma + du.tau, 0.0,
                           atol=1e-6)
        lhs = (du.xi[:, None] + du.sigma[:, None] * inst.delay_edge
               - du.lam[None, :] - du.eta + du.eps - w * inst.delay_edge)
        assert np.allclose(lhs, 0.0, atol=1e-5)


def test_validate_bigm_clean_at_solution():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG)
    assert res.escalations == 0
    model, lay = build_p1(inst, res.bigm)
    assert validate_bigM(inst, lay, res.milp, res.bigm) == []


def test_validate_bigm_flags_small_constants():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG)
    _, lay = build_p1(inst, res.bigm)
    shrunk = res.bigm.scaled(1e-9)
    flags = validate_bigM(inst, lay, res.milp, shrunk)
    assert flags   # everything nonzero is now at/above the tiny constants


def test_flat_scheme_forces_uniform_price():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG, flat=True)
    assert res.status == "optimal"
    assert len(set(res.leader.price_level.tolist())) == 1
    free = solve_p1(inst, CFG)
    assert free.objective >= res.objective - 1e-9


def test_fixed_price_level_is_respected():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG, fix_price_level=1)
    assert res.status == "optimal"
    assert np.all(res.leader.price_level == 1)


def test_extract_rejects_unsolved():
    inst = tiny_instance(0)
    bigm = derive_bigM(inst)
    model, lay = build_p1(inst, bigm)
    from edgemarket.lp_core import MilpSolution
    with pytest.raises(ValueError):
        extract_solution_p1(inst, lay, MilpSolution("infeasible", float("nan")))
