"""KKT reformulation (P1): structure, big-M machinery, oracle agreement
and solution extraction integrity."""

import dataclasses
import time

import numpy as np
import pytest

from edgemarket import lp_core
from edgemarket._milp_base import (M_LIN, multiplier_bounds,
                                   zero_multipliers)
from edgemarket.lp_core import LE, MilpConfig, solve_lp
from edgemarket.model import leader_profit, validate_instance
from edgemarket.oracle import brute_force_bilevel, compare
from edgemarket.reform_dual import build_p2, solve_p2
from edgemarket.reform_kkt import (build_p1, extract_solution_p1, solve_p1,
                                   validate_bigM)
from edgemarket.scenario import ScenarioConfig, sample_instance

from conftest import tight_budget, tiny_instance

CFG = MilpConfig(backend="highs")


def test_binary_count_formula():
    for seed in (0, 1, 4):
        inst = tiny_instance(seed)
        M, N, K, V = (inst.num_aps, inst.num_ens, inst.num_services,
                      inst.num_price_levels)
        model, _ = build_p1(inst)
        assert model.num_binaries == N * (K + V + 1) \
            + 2 * K * (M + 1) * (N + 1)


def _slack_side_constants(inst, families):
    """{row name: its switch's coefficient} of P1's rows of ``families``."""
    model, _ = build_p1(inst)
    switches = {s for s, _ in model.pairs}
    out = {}
    for row in model.constraints:
        if row.name.split("_")[0] in families:
            (coef,) = [c for vid, c in row.coeffs.items() if vid in switches]
            out[row.name] = coef
    return out


def test_derive_bigm_dominates_data():
    """The switch in each slack-side row has its exact data bound as its
    coefficient. The coverage rows take 0: each is tight at every
    follower optimum, since the cloud price and every grid price of the
    seed are positive."""
    inst = tiny_instance(3)
    assert inst.price_grid.min() > 0
    bounds = {"cc1s": inst.delay_cap.max(), "cc2s": 0.0, "cc3s": 0.0,
              "cc6s": inst.budget.max()}
    constants = _slack_side_constants(inst, bounds)
    for name, coef in constants.items():
        assert coef == -bounds[name.split("_")[0]], name
    assert {name.split("_")[0] for name in constants} == bounds.keys()


def _free_first_level(seed):
    """Tiny instance ``seed`` with two ENs, EN 0's lowest grid price set
    to 0.0: its coverage row need not be tight where that level is
    picked. The instance stays valid, as only the cloud price must be
    positive."""
    inst = tiny_instance(seed, num_ens=2)
    grid = inst.price_grid.copy()
    grid[0, 0] = 0.0
    inst = dataclasses.replace(inst, price_grid=grid)
    assert validate_instance(inst).ok
    return inst


@pytest.mark.parametrize("seed", [0, 1, 4, 7])
def test_free_price_level_keeps_the_capacity_bound(seed):
    """On an EN whose lowest grid price is 0, the coverage pair keeps the
    capacity bound; the other EN takes 0, and P1, P2 and the oracle
    agree."""
    inst = _free_first_level(seed)
    constants = _slack_side_constants(inst, {"cc3s"})
    assert constants
    for name, coef in constants.items():
        j = int(name.split("_")[1])
        expected = inst.compute_cap.max() if j == 0 else 0.0
        assert coef == -expected, name
    oracle = brute_force_bilevel(inst, keep_log=False)
    for solve in (solve_p1, solve_p2):
        res = solve(inst, CFG)
        report = compare(oracle, res.objective, res.status)
        assert report.passed, (solve.__name__, report)


def _rows_at_two_scales(build, inst):
    base, scaled = (build(inst, m)[0].constraints
                    for m in (M_LIN, 10 * M_LIN))
    assert [r.name for r in base] == [r.name for r in scaled]
    return base, scaled


def test_escalation_changes_only_multiplier_rows():
    """Raising the multiplier scale leaves every slack-side row and every
    hull sum row as is. The budget is lowered below what the services
    can spend, so ``mu2`` keeps a heuristic bound that scales."""
    inst = tight_budget(tiny_instance(0))
    base, scaled = _rows_at_two_scales(build_p1, inst)
    families = {a.name.split("_")[0] for a, b in zip(base, scaled) if a != b}
    assert "cc2m" in families and "piub1" in families
    # No cc*s (slack-side) row is among them.
    assert families <= {f"cc{n}m" for n in range(1, 9)} | {
        "piub1", "gub1", "glb"}
    p2_base, p2_scaled = _rows_at_two_scales(build_p2, inst)
    sums = [(a, b) for a, b in zip(base + p2_base, scaled + p2_scaled)
            if a.name.split("_")[0] in ("hsum", "pisum")]
    assert {a.name.split("_")[0] for a, _ in sums} == {"hsum", "pisum"}
    assert all(a == b for a, b in sums)

    # At the seed's own budget, mu2 and eta are proven 0, and their rows
    # keep that bound at every scale.
    inst = tiny_instance(0)
    mu2_zero, eta_zero, _ = zero_multipliers(inst)
    assert mu2_zero.all() and eta_zero.all()
    base, scaled = _rows_at_two_scales(build_p1, inst)
    families = {a.name.split("_")[0] for a, b in zip(base, scaled) if a != b}
    assert "cc2m" in families
    assert not families & {"piub1", "cc5m", "cc6m"}


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


def _rows_by_name(model, families):
    """The rows of ``families`` as {name: (sense, rhs, {column name:
    coefficient})}, so that models with different column ids compare."""
    names = [v.name for v in model.variables]
    return {r.name: (r.sense, r.rhs,
                     {names[vid]: c for vid, c in r.coeffs.items()})
            for r in model.constraints if r.name.split("_")[0] in families}


DESK = [sample_instance(ScenarioConfig(seed=s, num_aps=6, num_ens=3,
                                       num_services=4)) for s in range(5)]


# Each pair family and the primal row its slack side reads; cc7 and cc8
# read the allocation columns themselves.
PRIMAL_OF_PAIR = {"cc1s": "dcap", "cc2s": "cov0", "cc3s": "cov",
                  "cc4s": "cap", "cc5s": "elig", "cc6s": "budget"}


@pytest.mark.parametrize("inst", [tiny_instance(s) for s in range(4)]
                         + [DESK[0]], ids=["tiny0", "tiny1", "tiny2",
                                           "tiny3", "desk0"])
def test_slack_rows_are_the_primal_rows_negated(inst):
    """Each ``ccNs`` row is its primal ``<=`` row, negated, plus its
    switch; ``cc7s``/``cc8s`` hold one allocation column and the switch."""
    model, _ = build_p1(inst)
    rows = {r.name: r for r in model.constraints}
    switches = {s for s, _ in model.pairs}
    seen = 0
    for name, row in rows.items():
        family, index = name.split("_", 1)
        if not (family.startswith("cc") and family.endswith("s")):
            continue
        seen += 1
        (switch,) = [vid for vid in row.coeffs if vid in switches]
        rest = {vid: c for vid, c in row.coeffs.items() if vid != switch}
        if family in PRIMAL_OF_PAIR:
            primal = rows[f"{PRIMAL_OF_PAIR[family]}_{index}"]
            assert primal.sense == LE
            assert rest == {vid: -c for vid, c in primal.coeffs.items()}
            assert row.rhs == -primal.rhs
        else:
            (vid,) = rest
            prefix = {"cc7s": "x0_", "cc8s": "x_"}[family]
            assert model.variables[vid].name == prefix + index
            assert rest[vid] == 1.0 and row.rhs == 0.0
    assert seen == len(model.pairs) > 0


# The multiplier family each ``ccNm`` row bounds.
TABLE_OF_PAIR = {"cc1m": "tau", "cc2m": "mu1", "cc3m": "lam", "cc4m": "gamma",
                 "cc5m": "eta", "cc6m": "mu2", "cc7m": "zeta", "cc8m": "eps"}
TABLE_CASES = ([tiny_instance(s) for s in range(4)]
               + [tight_budget(tiny_instance(s)) for s in range(4)]
               + [DESK[0]])


@pytest.mark.parametrize("build", [build_p1, build_p2], ids=["p1", "p2"])
@pytest.mark.parametrize("inst", TABLE_CASES,
                         ids=[f"tiny{s}" for s in range(4)]
                         + [f"tight{s}" for s in range(4)] + ["desk0"])
def test_multiplier_constants_are_their_table_entries(build, inst):
    """Each table entry of ``multiplier_bounds`` is 0 exactly where
    ``zero_multipliers`` proves its multiplier 0, and every
    multiplier-side constant is its entry: each ``ccNm`` row's switch
    coefficient and right-hand side, each ``piub1`` coefficient on ``r``,
    each ``gub1``/``glb`` coefficient on ``t``, and the upper bound of a
    ``mu2`` or ``eta`` column, 0 where its entry is 0 and unbounded
    elsewhere. ``tau``'s columns stay unbounded."""
    table = multiplier_bounds(inst, M_LIN)
    proven = dict(zip(("mu2", "eta", "tau"), zero_multipliers(inst)))
    for sym, entries in table.items():
        assert ((entries == 0) == proven.get(sym, False)).all(), sym
    model, lay = build(inst, M_LIN)
    ub = np.array([v.ub for v in model.variables])
    for sym in ("mu2", "eta"):
        assert (ub[getattr(lay, sym)] == np.where(table[sym] > 0, np.inf,
                                                  0.0)).all()
    assert (ub[lay.tau] == np.inf).all()

    entry_of = {int(vid): (sym, table[sym][index]) for sym in table
                for index, vid in np.ndenumerate(getattr(lay, sym))}
    switches = {s for s, _ in model.pairs}
    seen = 0
    for row in model.constraints:
        family, index = row.name.split("_", 1)
        if family in TABLE_OF_PAIR:
            (switch,) = [vid for vid in row.coeffs if vid in switches]
            (mult,) = [vid for vid in row.coeffs if vid != switch]
            assert entry_of[mult] == (TABLE_OF_PAIR[family], row.rhs)
            assert row.coeffs[mult] == 1.0 and row.coeffs[switch] == row.rhs
            seen += 1
        elif family == "piub1":
            j, v, k = map(int, index.split("_"))
            assert row.coeffs[lay.r[j, v]] == -table["mu2"][k]
            seen += 1
        elif family in ("gub1", "glb"):
            j, k = map(int, index.split("_"))
            bound = table["gamma"][j, k]
            assert (row.coeffs[lay.t[j, k]], row.rhs) == (
                (-bound, 0.0) if family == "gub1" else (bound, bound))
            seen += 1
    N, K, V = inst.num_ens, inst.num_services, inst.num_price_levels
    assert seen == len(model.pairs) + N * V * K + 2 * N * K


def test_both_builders_write_the_same_revenue_hull():
    for inst in [tiny_instance(0), tiny_instance(1), DESK[0]]:
        N, K, V = inst.num_ens, inst.num_services, inst.num_price_levels
        families = ("hub1", "hsum", "revsum")
        p1 = _rows_by_name(build_p1(inst)[0], families)
        p2 = _rows_by_name(build_p2(inst)[0], families)
        assert len(p1) == N * V * K + N * K + K
        assert p1 == p2


@pytest.mark.parametrize("inst", [tiny_instance(s) for s in range(40)] + DESK,
                         ids=[f"tiny{s}" for s in range(40)]
                         + [f"desk{s}" for s in range(5)])
def test_p1_relaxation_no_looser_than_p2(inst):
    """P1 carries P2's revenue rows, so its LP relaxation is at least as
    tight as P2's."""
    a, b = solve_lp(build_p1(inst)[0]), solve_lp(build_p2(inst)[0])
    assert a.status == b.status
    if a.status == "optimal":
        assert a.objective <= b.objective + 1e-9 * (1.0 + abs(b.objective))


def test_p1_embedded_backend_splits_unresolved_node_lps():
    """On tiny seed 7 one node LP of P1 stays unresolved through every
    HiGHS retry; the search goes on past it instead of raising."""
    res = solve_p1(tiny_instance(7), MilpConfig(backend="bnb", time_limit=3))
    assert res.status in ("optimal", "time-limit")


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
    assert validate_bigM(inst, model, lay, res.milp, res.m_lin) == []


def test_validate_bigm_flags_small_constants():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG)
    model, lay = build_p1(inst, res.m_lin)
    flags = validate_bigM(inst, model, lay, res.milp, 1e-9 * res.m_lin)
    assert flags   # everything nonzero is now at/above the tiny constants


def test_flat_scheme_forces_uniform_price():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG, scheme="flat")
    assert res.status == "optimal"
    assert len(set(res.leader.price_level.tolist())) == 1
    free = solve_p1(inst, CFG)
    assert free.objective >= res.objective - 1e-9


def test_fixed_price_level_is_respected():
    inst = tiny_instance(0)
    res = solve_p1(inst, CFG, scheme="avg")
    assert res.status == "optimal"
    assert np.all(res.leader.price_level == 1)


def test_extract_rejects_unsolved():
    inst = tiny_instance(0)
    model, lay = build_p1(inst)
    from edgemarket.lp_core import MilpSolution
    with pytest.raises(ValueError):
        extract_solution_p1(inst, lay, MilpSolution("infeasible", float("nan")))


def _spy_rounds(monkeypatch):
    """Record each polishing round of the HiGHS solves that follow, in
    order, as {"runs": its HiGHS MIP runs, "outcomes": what each
    ``_run_mip`` call returned, "closed": whether the round returned
    the fixed-leader run's point, the second outcome after an optimal
    switch relaxation}."""
    rounds = []
    new_highs, solve_highs = lp_core._new_highs, lp_core._solve_milp_highs
    run_mip = lp_core._run_mip

    class Counted:
        def __init__(self, h):
            self._h = h

        def __getattr__(self, name):
            return getattr(self._h, name)

        def run(self):
            rounds[-1]["runs"] += 1
            return self._h.run()

    def counted_highs(*args, integer=False):
        h = new_highs(*args, integer=integer)
        return Counted(h) if integer else h

    def spied_run_mip(*args):
        out = run_mip(*args)
        rounds[-1]["outcomes"].append(out[0])
        return out

    def counted_round(m, cfg):
        rounds.append({"runs": 0, "outcomes": []})
        sol = solve_highs(m, cfg)
        outcomes = rounds[-1]["outcomes"]
        rounds[-1]["closed"] = (len(outcomes) == 2 and sol is outcomes[1]
                                and outcomes[0].status == "optimal")
        return sol

    monkeypatch.setattr(lp_core, "_new_highs", counted_highs)
    monkeypatch.setattr(lp_core, "_solve_milp_highs", counted_round)
    monkeypatch.setattr(lp_core, "_run_mip", spied_run_mip)
    return rounds


@pytest.mark.parametrize("inst", [tiny_instance(s) for s in range(6)]
                         + [DESK[0]], ids=[f"tiny{s}" for s in range(6)]
                         + ["desk0"])
def test_p1_closes_with_the_fixed_leader_run(monkeypatch, inst):
    """P1/HiGHS runs its switch relaxation, then the MIP with the
    relaxation's rounded leader binaries fixed. Where that run's
    objective meets the relaxation's bound, each polishing round makes
    exactly those two HiGHS MIP runs, and the solve reports a gap within
    ``gap_tol``. An infeasible relaxation leaves nothing to fix, so its
    round falls through to the full search."""
    cfg = MilpConfig(backend="highs", gap_tol=1e-4)
    rounds = _spy_rounds(monkeypatch)
    res = solve_p1(inst, cfg)
    assert rounds
    if res.status == "infeasible":
        assert not any(r["closed"] for r in rounds)
        return
    assert res.status == "optimal"
    assert all(r["closed"] and r["runs"] == 2 for r in rounds)
    assert res.milp.relative_gap <= cfg.gap_tol


@pytest.mark.parametrize("limit", [0.2, 0.6])
def test_seeded_solve_keeps_its_time_limit(limit):
    """Desk P1's switch relaxation, its fixed-leader run and any search
    after them share the solve's time limit, each run getting only the
    time left: at 0.2 s the relaxation can run out, and the search after
    it stop at once; at 0.6 s the fixed-leader run can close the solve,
    or the search run out. Either way the call returns within the limit
    plus 0.5 s of slack for HiGHS's checks between iterations and the
    polishing LP."""
    model, _ = build_p1(DESK[0])
    t0 = time.perf_counter()
    sol = lp_core.solve_milp(model, MilpConfig(backend="highs", gap_tol=1e-4,
                                               time_limit=limit))
    assert time.perf_counter() - t0 <= limit + 0.5
    assert sol.status in ("time-limit", "optimal")
