"""Randomized differential test: on random tiny instances P1/HiGHS,
P2/HiGHS and the brute-force oracle find the same optimum, or all three
find the instance infeasible. Under the ``flat`` and ``avg`` pricing
schemes the reference is the best of the oracle's candidates the scheme
allows."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edgemarket._milp_base import zero_multipliers
from edgemarket.lp_core import MilpConfig
from edgemarket.oracle import OracleResult, brute_force_bilevel
from edgemarket.reform_dual import solve_p2
from edgemarket.reform_kkt import solve_p1
from edgemarket.tolerances import TOL

from conftest import tight_budget, tiny_instance

CFG = MilpConfig(backend="highs")


def _assert_matches(res, oracle, label=None):
    if not oracle.feasible:
        assert res.status == "infeasible", (label, res.status)
        return
    assert res.status == "optimal", (label, res.status)
    assert abs(res.objective - oracle.profit) <= \
        TOL.objective_match_rel * (1 + abs(oracle.profit)), \
        (label, res.objective, oracle.profit)


# Seeds 0-19 are the hand-picked suite; these are drawn past them.
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(20, 10**6))
@example(seed=177)   # optimum 0: once misreported as gap-limit by P1
def test_p1_p2_oracle_agree(seed):
    inst = tiny_instance(seed)
    oracle = brute_force_bilevel(inst, keep_log=False)
    for solve in (solve_p1, solve_p2):
        _assert_matches(solve(inst, CFG), oracle, solve.__name__)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(20, 10**6))
def test_p2_bnb_oracle_agree(seed):
    """P2 on the embedded branch-and-bound backend finds the oracle's
    optimum, or finds the instance infeasible with it."""
    inst = tiny_instance(seed)
    oracle = brute_force_bilevel(inst, keep_log=False)
    _assert_matches(solve_p2(inst, MilpConfig(backend="bnb")), oracle)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(20, 10**6))
# Best-first search once ran out of time on these with no incumbent.
@example(seed=4)
@example(seed=7)
@example(seed=13)
def test_p1_bnb_oracle_agree(seed):
    """P1 on the embedded branch-and-bound backend finds the oracle's
    optimum, or finds the instance infeasible with it, well within its
    time limit."""
    inst = tiny_instance(seed)
    oracle = brute_force_bilevel(inst, keep_log=False)
    _assert_matches(solve_p1(inst, MilpConfig(backend="bnb", time_limit=30)),
                    oracle)


@pytest.mark.parametrize("seed", range(20))
def test_unproven_budget_multipliers_match_oracle(seed):
    """Where the budget can bind, ``mu2`` keeps its heuristic bound, and
    P1, P2 and P2 on the embedded backend still find the oracle's
    optimum."""
    inst = tight_budget(tiny_instance(seed))
    assert not zero_multipliers(inst)[0].any()
    oracle = brute_force_bilevel(inst, keep_log=False)
    for solve, config in ((solve_p1, CFG), (solve_p2, CFG),
                          (solve_p2, MilpConfig(backend="bnb"))):
        _assert_matches(solve(inst, config), oracle,
                        (solve.__name__, config.backend))


def _scheme_allows(inst, scheme):
    """Whether ``scheme`` lets the leader pick a price-level vector: one
    shared level under ``flat``, the level of the grid mean on every EN
    under ``avg``."""
    if scheme == "flat":
        return lambda levels: len(set(levels)) == 1
    grid = inst.price_grid[0]
    (mean_level,) = np.flatnonzero(np.isclose(grid, grid.mean()))
    return lambda levels: set(levels) == {mean_level}


@pytest.mark.parametrize("seed", range(40))
def test_restricted_schemes_match_oracle(seed):
    """Under ``flat`` and ``avg``, P1 and P2 on both backends find the
    best profit of the oracle's candidates the scheme allows, or find the
    instance infeasible when it allows no feasible candidate."""
    inst = tiny_instance(seed)
    log = brute_force_bilevel(inst).log
    for scheme in ("flat", "avg"):
        allows = _scheme_allows(inst, scheme)
        profits = [entry["profit"] for entry in log
                   if "profit" in entry and allows(entry["levels"])]
        oracle = OracleResult(max(profits, default=None), None, None, 0)
        for solve in (solve_p1, solve_p2):
            for backend in ("highs", "bnb"):
                res = solve(inst, MilpConfig(backend=backend), scheme=scheme)
                _assert_matches(res, oracle, (scheme, solve.__name__, backend))


@pytest.mark.parametrize("seed", range(40))
def test_seeded_p1_matches_oracle(seed):
    """P1/HiGHS closes each solve with its switch relaxation's bound and
    a run at that relaxation's leader decision, or else runs its full
    search cold, even on tiny models. It still finds the
    oracle's status and profit, plain and with a tight budget, under
    each scheme."""
    for inst in (tiny_instance(seed), tight_budget(tiny_instance(seed))):
        oracle = brute_force_bilevel(inst)
        _assert_matches(solve_p1(inst, CFG), oracle, "dyn")
        for scheme in ("flat", "avg"):
            allows = _scheme_allows(inst, scheme)
            profits = [entry["profit"] for entry in oracle.log
                       if "profit" in entry and allows(entry["levels"])]
            _assert_matches(solve_p1(inst, CFG, scheme=scheme),
                            OracleResult(max(profits, default=None), None,
                                         None, 0), scheme)
