"""KKT reformulation (P1): structure, big-M machinery, oracle agreement
and solution extraction integrity."""

import dataclasses

import numpy as np
import pytest

from edgemarket._milp_base import M_LIN
from edgemarket.lp_core import MilpConfig
from edgemarket.model import leader_profit, validate_instance
from edgemarket.oracle import brute_force_bilevel, compare
from edgemarket.reform_dual import build_p2, solve_p2
from edgemarket.reform_kkt import (build_p1, extract_solution_p1, solve_p1,
                                   validate_bigM)

from conftest import tiny_instance

CFG = MilpConfig(backend="highs")


def test_binary_count_formula():
    for seed in (0, 1, 4):
        inst = tiny_instance(seed)
        M, N, K, V = (inst.num_aps, inst.num_ens, inst.num_services,
                      inst.num_price_levels)
        model, _ = build_p1(inst)
        assert model.num_binaries == N * (K + V + 1) \
            + 2 * K * (M + 1) * (N + 1)


def test_derive_bigm_dominates_data():
    """The switch in each slack-side row has its exact data bound as its
    coefficient."""
    inst = tiny_instance(3)
    model, _ = build_p1(inst)
    bounds = {"cc1s": inst.delay_cap.max(),
              "cc2s": inst.demand.sum(axis=0).max(),
              "cc3s": inst.compute_cap.max(), "cc6s": inst.budget.max()}
    seen = set()
    for row in model.constraints:
        family = row.name.split("_")[0]
        if family in bounds:
            (coef,) = [c for vid, c in row.coeffs.items()
                       if model.variables[vid].binary]
            assert coef == -bounds[family], row.name
            seen.add(family)
    assert seen == bounds.keys()


def test_escalation_changes_only_multiplier_rows():
    """Raising the multiplier scale leaves every slack-side row and every
    hull sum row as is."""
    inst = tiny_instance(0)
    base, scaled = (build_p1(inst, m)[0].constraints
                    for m in (M_LIN, 10 * M_LIN))
    assert [r.name for r in base] == [r.name for r in scaled]
    families = {a.name.split("_")[0] for a, b in zip(base, scaled) if a != b}
    assert "cc2m" in families and "piub1" in families
    # No cc*s (slack-side) row is among them.
    assert families <= {f"cc{n}m" for n in range(1, 9)} | {
        "piub1", "gub1", "glb"}
    p2_base, p2_scaled = (build_p2(inst, m)[0].constraints
                          for m in (M_LIN, 10 * M_LIN))
    sums = [(a, b) for a, b in zip(base + p2_base, scaled + p2_scaled)
            if a.name.split("_")[0] in ("hsum", "pisum")]
    assert {a.name.split("_")[0] for a, _ in sums} == {"hsum", "pisum"}
    assert all(a == b for a, b in sums)


@pytest.mark.parametrize("solve", [solve_p1, solve_p2])
def test_zero_demand_matches_oracle(solve):
    """With no demand at all, several slack-side bounds are zero; the
    reformulations still solve and agree with the oracle."""
    base = tiny_instance(0)
    inst = dataclasses.replace(base, demand=np.zeros_like(base.demand))
    assert validate_instance(inst).ok
    oracle = brute_force_bilevel(inst, keep_log=False)
    res = solve(inst, CFG)
    report = compare(oracle, res.objective, res.status)
    assert report.passed, report


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
    model, lay = build_p1(inst, res.m_lin)
    assert validate_bigM(inst, lay, res.milp, res.m_lin) == []


def test_validate_bigm_flags_small_constants():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG)
    _, lay = build_p1(inst, res.m_lin)
    flags = validate_bigM(inst, lay, res.milp, 1e-9 * res.m_lin)
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
    model, lay = build_p1(inst)
    from edgemarket.lp_core import MilpSolution
    with pytest.raises(ValueError):
        extract_solution_p1(inst, lay, MilpSolution("infeasible", float("nan")))
