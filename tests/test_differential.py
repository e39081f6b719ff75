"""Randomized differential test: on random tiny instances P1/HiGHS,
P2/HiGHS and the brute-force oracle find the same optimum, or all three
find the instance infeasible."""

from hypothesis import example, given, settings, strategies as st

from edgemarket.lp_core import MilpConfig
from edgemarket.oracle import brute_force_bilevel
from edgemarket.reform_dual import solve_p2
from edgemarket.reform_kkt import solve_p1
from edgemarket.tolerances import TOL

from conftest import tiny_instance

CFG = MilpConfig(backend="highs")


# Seeds 0-19 are the hand-picked suite; these are drawn past them.
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(20, 10**6))
@example(seed=177)   # optimum 0: once misreported as gap-limit by P1
def test_p1_p2_oracle_agree(seed):
    inst = tiny_instance(seed)
    oracle = brute_force_bilevel(inst, keep_log=False)
    for solve in (solve_p1, solve_p2):
        res = solve(inst, CFG)
        if not oracle.feasible:
            assert res.status == "infeasible", (solve.__name__, res.status)
            continue
        assert res.status == "optimal", (solve.__name__, res.status)
        assert abs(res.objective - oracle.profit) <= \
            TOL.objective_match_rel * (1 + abs(oracle.profit)), \
            (solve.__name__, res.objective, oracle.profit)
