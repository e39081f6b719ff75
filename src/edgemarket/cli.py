"""Command-line front end: instance generation, single solves, sweeps,
and timing benchmarks.

Exit codes: 0 success, 2 infeasible, 3 gap/time limit hit, 4 usage
error or an instance the method refuses: an invalid instance, or one
with more than one EN under ``--method single-en``. Code 4 prints
``error: ...`` on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path

from . import lp_core
from ._milp_base import SCHEMES
from .harness import (AXES, SchemeSpec, run_scheme, run_sensitivity_sweep,
                      run_timing_benchmark)
from .lp_core import MilpConfig, export_mps, import_solution
from .model import Instance
from .reform_dual import build_p2
from .reform_kkt import build_p1
from .scenario import ScenarioConfig, sample_instance

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_LIMIT = 3
EXIT_USAGE = 4

BENCH_GRIDS = {"table1": [(M, N, K) for M in (2, 4) for N in (2, 4)
                          for K in (2, 4)]}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _non_negative(text: str) -> float:
    """A ``--gap`` or ``--time-limit``: a finite number, at least 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number >= 0")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="edgemarket",
                description="Exact edge resource pricing and placement")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--m", type=int, default=10, help="number of APs")
    gen.add_argument("--n", type=int, default=4, help="number of ENs")
    gen.add_argument("--k", type=int, default=6, help="number of services")
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--method", choices=("kkt", "dual", "oracle",
                                            "single-en"), default="dual")
    solve.add_argument("--scheme", choices=SCHEMES, default="dyn")
    solve.add_argument("--solver", choices=("embedded", "external"),
                       default="embedded")
    solve.add_argument("--mps-out", help="write the MILP in MPS format")
    solve.add_argument("--import-solution",
                       help="verify an externally produced solution file")
    solve.add_argument("--gap", type=_non_negative, default=1e-6)
    solve.add_argument("--time-limit", type=_non_negative)
    solve.add_argument("--report", help="write the JSON solve report here")

    sweep = sub.add_parser("sweep", help="sensitivity sweep")
    sweep.add_argument("--axis", choices=AXES, required=True)
    sweep.add_argument("--values", type=float, nargs="+", required=True)
    sweep.add_argument("--schemes", nargs="+", choices=SCHEMES,
                       default=list(SCHEMES))
    sweep.add_argument("--seeds", type=int, nargs="+", default=[0])
    sweep.add_argument("--out", required=True)

    bench = sub.add_parser("bench", help="timing benchmark")
    bench.add_argument("--grid", choices=sorted(BENCH_GRIDS), default="table1")
    bench.add_argument("--time-limit", type=_non_negative, default=600.0)
    bench.add_argument("--out")
    return p


def _load_instance(path: str) -> Instance:
    return Instance.from_json(Path(path).read_text(encoding="utf-8"))


def _cmd_gen(args) -> int:
    cfg = ScenarioConfig(seed=args.seed, num_aps=args.m, num_ens=args.n,
                         num_services=args.k)
    inst = sample_instance(cfg)
    Path(args.out).write_text(inst.to_json(indent=2), encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_milp(inst: Instance, method: str):
    if method == "kkt":
        return build_p1(inst)[0]
    if method == "dual":
        return build_p2(inst)[0]
    raise ValueError(f"method {method} has no MILP form")


def _cmd_solve(args) -> int:
    if args.solver == "external" and not args.mps_out:
        raise ValueError("--solver external needs --mps-out: the model is "
                         "written for the external solver, not solved here")
    inst = _load_instance(args.instance)
    if args.mps_out:
        if args.method not in ("kkt", "dual"):
            raise ValueError("--mps-out requires an MILP method")
        Path(args.mps_out).write_text(export_mps(_build_milp(inst,
                                                             args.method)),
                                      encoding="utf-8")
        print(f"wrote {args.mps_out}")
    if args.import_solution:
        model = _build_milp(inst, args.method)
        sol = import_solution(model,
                              Path(args.import_solution).read_text(
                                  encoding="utf-8"))
        print(f"imported solution: status {sol.status}, "
              f"objective {sol.objective:.9g}")
        return EXIT_OK if sol.status == lp_core.OPTIMAL else EXIT_INFEASIBLE
    if args.solver == "external":
        return EXIT_OK   # model exported; solving happens elsewhere
    config = MilpConfig(gap_tol=args.gap, time_limit=args.time_limit,
                        backend="highs")
    profit, _, report = run_scheme(inst, SchemeSpec(args.scheme, args.method),
                                   config)
    text = report.to_json()
    if args.report:
        Path(args.report).write_text(text, encoding="utf-8")
    print(text)
    if report.status == lp_core.INFEASIBLE:
        return EXIT_INFEASIBLE
    if report.status in (lp_core.GAP_LIMIT, lp_core.TIME_LIMIT):
        return EXIT_LIMIT
    return EXIT_OK


def _cmd_sweep(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for seed in args.seeds:
        cfg = ScenarioConfig(seed=seed)
        result = run_sensitivity_sweep(cfg, args.axis, args.values,
                                       schemes=args.schemes)
        result.to_csv(out / f"sweep_{args.axis}_seed{seed}.csv")
        for row in result.rows:
            if row.status == lp_core.INFEASIBLE:
                worst = max(worst, EXIT_INFEASIBLE)
            elif row.status in (lp_core.GAP_LIMIT, lp_core.TIME_LIMIT):
                worst = max(worst, EXIT_LIMIT)
    print(f"wrote {len(args.seeds)} file(s) to {out}")
    return worst


def _cmd_bench(args) -> int:
    rows = run_timing_benchmark(BENCH_GRIDS[args.grid],
                                time_limit=args.time_limit)
    header = ["M", "N", "K", "method", "wall_time", "status"]
    table = [header] + [[row[h] for h in header] for row in rows]
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else contextlib.nullcontext()) as out:
        for sink in (sys.stdout, out) if out else (sys.stdout,):
            csv.writer(sink).writerows(table)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": _cmd_gen, "solve": _cmd_solve, "sweep": _cmd_sweep,
                "bench": _cmd_bench}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
