"""Exact joint edge-resource pricing, activation, placement, and
workload allocation via single-level MILP reformulations of the
underlying leader/follower game."""

from .analytic import (SingleEnResult, follower_best_response_single_en,
                       solve_single_en)
from .follower import (FollowerContext, FollowerInfeasibleError,
                       build_follower_dual, build_follower_lp,
                       check_strong_duality, complementarity_residuals,
                       solve_follower)
from .harness import (SchemeSpec, SolveReport, SweepResult, run_scheme,
                      run_sensitivity_sweep, run_timing_benchmark)
from .lp_core import (LinearModel, MilpConfig, MilpSolution, export_mps,
                      import_solution, solve_lp, solve_milp)
from .model import (DualSolution, FollowerSolution, Instance, LeaderDecision,
                    ScalingFactors, follower_cost, leader_profit,
                    scale_instance)
from .oracle import OracleResult, brute_force_bilevel, compare
from .reform_dual import (build_p2, extract_solution_p2, solve_p2,
                          verify_bilevel_optimality)
from .reform_kkt import build_p1, extract_solution_p1, solve_p1, validate_bigM
from .scenario import (Graph, ScenarioConfig, generate_topology,
                       sample_instance, shortest_path_delays)
from .tolerances import TOL, Tolerances

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
