"""Experiment engine: pricing-scheme comparison, sensitivity sweeps over
scaling factors, and timing benchmarks, with CSV and JSON artifacts. A
scheme name goes to ``solve_p1`` and ``solve_p2`` as it is;
``_milp_base.build_base`` writes its rows."""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from . import lp_core
from ._milp_base import SCHEMES
from .analytic import solve_single_en
from .lp_core import MilpConfig
from .model import Instance, LeaderDecision, ScalingFactors, scale_instance
from .oracle import brute_force_bilevel
from .reform_dual import solve_p2, verify_bilevel_optimality
from .reform_kkt import solve_p1
from .scenario import ScenarioConfig, sample_instance

METHODS = ("kkt", "dual", "oracle", "single-en")
AXES = ("rho", "lambda", "delta", "gamma0", "m", "k")

# Sweep axis -> scaled quantity.
_FACTOR_FIELDS = {"rho": "cloud_price_scale", "lambda": "penalty_scale",
                  "delta": "demand_scale", "gamma0": "capacity_scale"}


@dataclass(frozen=True)
class SchemeSpec:
    scheme: str = "dyn"
    method: str = "dual"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.scheme != "dyn" and self.method in ("oracle", "single-en"):
            raise ValueError(f"{self.method} supports only the dyn scheme")


@dataclass
class SolveReport:
    """One solve, serializable for the run directory."""

    scheme: str
    method: str
    status: str
    profit: Optional[float]
    wall_time: float
    relative_gap: Optional[float] = None
    nodes_explored: Optional[int] = None
    bigm_escalations: Optional[int] = None
    bilevel_certified: Optional[bool] = None
    detail: str = ""

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(dataclasses.asdict(self), indent=indent)


def run_scheme(inst: Instance, spec: SchemeSpec,
               config: Optional[MilpConfig] = None):
    """Solve one instance under one pricing scheme.

    Returns (profit, decisions, SolveReport) where decisions is the
    (LeaderDecision, followers) pair when available. ``single-en``
    raises ValueError on an instance with more than one EN.
    """
    config = config or MilpConfig(backend="highs")
    t0 = time.perf_counter()
    if spec.method == "oracle":
        res = brute_force_bilevel(inst, keep_log=False)
        wall = time.perf_counter() - t0
        status = lp_core.OPTIMAL if res.feasible else lp_core.INFEASIBLE
        report = SolveReport(spec.scheme, spec.method, status, res.profit,
                             wall, detail=f"{res.candidates_examined} candidates")
        return res.profit, (res.decision, res.followers), report
    if spec.method == "single-en":
        res = solve_single_en(inst)
        wall = time.perf_counter() - t0
        report = SolveReport(spec.scheme, spec.method, res.status, res.profit,
                             wall, detail=f"case {res.case}")
        decision = None
        if res.placed is not None:
            grid = inst.price_grid[0].tolist()
            level = 0 if res.price is None else grid.index(res.price)
            decision = LeaderDecision([level], [grid[level]],
                                      [int(res.placed.any())],
                                      res.placed[None, :])
        return res.profit, (decision, res.followers), report

    solver = solve_p1 if spec.method == "kkt" else solve_p2
    res = solver(inst, config, spec.scheme)
    wall = time.perf_counter() - t0
    certified = None
    if res.leader is not None:
        certified = verify_bilevel_optimality(inst, res.leader,
                                              res.followers).passed
    report = SolveReport(spec.scheme, spec.method, res.status, res.objective,
                         wall, relative_gap=res.milp.relative_gap,
                         nodes_explored=res.milp.nodes_explored,
                         bigm_escalations=res.escalations,
                         bilevel_certified=certified)
    return res.objective, (res.leader, res.followers), report


@dataclass
class SweepRow:
    axis: str
    value: float
    scheme: str
    profit: Optional[float]
    edge_workload: Optional[float]
    cloud_workload: Optional[float]
    solve_time: float
    status: str


@dataclass
class SweepResult:
    rows: List[SweepRow] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["axis", "value", "scheme", "profit",
                             "edge_workload", "cloud_workload",
                             "solve_time", "status"])
            for r in self.rows:
                writer.writerow([r.axis, r.value, r.scheme, r.profit,
                                 r.edge_workload, r.cloud_workload,
                                 r.solve_time, r.status])


def _instance_for(cfg: ScenarioConfig, axis: str, value: float) -> Instance:
    if axis == "m":
        return sample_instance(replace(cfg, num_aps=int(value)))
    if axis == "k":
        return sample_instance(replace(cfg, num_services=int(value)))
    factors = ScalingFactors(**{_FACTOR_FIELDS[axis]: float(value)})
    return scale_instance(sample_instance(cfg), factors)


def run_sensitivity_sweep(cfg: ScenarioConfig, axis: str,
                          values: Sequence[float],
                          schemes: Sequence[str] = SCHEMES,
                          method: str = "dual",
                          config: Optional[MilpConfig] = None,
                          out_dir=None) -> SweepResult:
    """One row per (axis value, scheme); failures are recorded in the row
    and the sweep continues."""
    if axis not in AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    result = SweepResult()
    for value in values:
        try:
            inst = _instance_for(cfg, axis, value)
        except Exception as exc:  # noqa: BLE001 - per-row error capture
            for scheme in schemes:
                result.rows.append(SweepRow(axis, value, scheme, None, None,
                                            None, 0.0, f"error: {exc}"))
            continue
        for scheme in schemes:
            t0 = time.perf_counter()
            try:
                profit, decisions, report = run_scheme(
                    inst, SchemeSpec(scheme, method), config)
                edge = cloud = None
                followers = decisions[1]
                if followers is not None:
                    edge = float(sum(fs.y_edge.sum() for fs in followers))
                    cloud = float(sum(fs.y_cloud for fs in followers))
                result.rows.append(SweepRow(axis, value, scheme, profit,
                                            edge, cloud, report.wall_time,
                                            report.status))
            except Exception as exc:  # noqa: BLE001
                result.rows.append(SweepRow(axis, value, scheme, None, None,
                                            None, time.perf_counter() - t0,
                                            f"error: {exc}"))
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result.to_csv(out_dir / f"sweep_{axis}.csv")
    return result


def run_timing_benchmark(size_grid: Iterable[Tuple[int, int, int]],
                         methods: Sequence[str] = ("kkt", "dual"),
                         time_limit: float = 600.0,
                         seed: int = 0,
                         config: Optional[MilpConfig] = None) -> List[dict]:
    """Wall time per (size, method); 'NA' marks a time-limit hit."""
    rows = []
    base = config or MilpConfig(backend="highs")
    cfg_limits = dataclasses.replace(base, time_limit=time_limit)
    for (M, N, K) in size_grid:
        inst = sample_instance(ScenarioConfig(seed=seed, num_aps=M, num_ens=N,
                                              num_services=K))
        for method in methods:
            solver = solve_p1 if method == "kkt" else solve_p2
            t0 = time.perf_counter()
            try:
                res = solver(inst, cfg_limits)
                status = res.status
            except Exception as exc:  # noqa: BLE001 - timeouts are data
                status = f"error: {exc}"
            wall = time.perf_counter() - t0
            hit_limit = status in (lp_core.TIME_LIMIT, lp_core.GAP_LIMIT)
            rows.append({"M": M, "N": N, "K": K, "method": method,
                         "wall_time": "NA" if hit_limit else wall,
                         "status": status})
    return rows
