"""Time solve_p1 and solve_p2 on HiGHS across its random_seed, in a
parent and a change checkout.

HiGHS's branch-and-bound takes a different path under each
``random_seed``, and on desk-size models one seed can take twice as
long as another. So a speed claim on P1 or P2 is measured over several
seeds. For each ``random_seed`` this runs one worker process per
checkout, alternating which goes first (even seeds the parent, odd
seeds the change). The worker loads ``edgemarket`` from that
checkout's ``src``, sets the seed in ``lp_core._MIP_OPTIONS``, and
times each method on each case, one after another:

    python3 scripts/highs_seeds.py --parent /path/to/parent --change . \\
        --desk 0-2 --crit10 4x4x2 --random-seeds 0-3 --out BENCH_example.json

A ``desk`` case is a 6x3x4 instance at the given generator seed, as in
``perfbench``'s ``desk-schemes``; a ``crit10`` case is a row of criterion
10's grid, ``MxNxK`` at generator seed 1. Both solve to a relative gap
of 1e-4 under the ``dyn`` scheme. The file holds every solve's wall
time, status, profit, node count and relative gap, and per case and
method the sums over the seeds, the number of seeds the change ran
faster, whether both checkouts explored the same nodes on every seed
(``nodes_equal``, which a refactor that keeps the search shows), any
seed where P1 and P2 of one checkout disagree by more than twice the
gap, and any ``optimal`` solve whose gap exceeds it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import commit_of, machine, parse_seeds

GAP = 1e-4
DESK_SIZE = (6, 3, 4)
CRIT10_SEED = 1
METHODS = ("p1", "p2")


def cases_of(desk, crit10):
    """[(name, (M, N, K), generator seed)] of the requested cases."""
    cases = [(f"desk{s}", DESK_SIZE, s) for s in desk]
    for row in crit10:
        size = tuple(int(v) for v in row.split("x"))
        cases.append((f"crit10-{row}", size, CRIT10_SEED))
    return cases


def worker(args) -> None:
    """Solve every case with every method under one random_seed; print
    one JSON line of ``{case/method: result}``."""
    sys.path.insert(0, str(Path(args.worker).resolve()))
    from edgemarket import lp_core
    from edgemarket.reform_dual import solve_p2
    from edgemarket.reform_kkt import solve_p1
    from edgemarket.scenario import ScenarioConfig, sample_instance

    lp_core._MIP_OPTIONS["random_seed"] = args.random_seed
    solvers = {"p1": solve_p1, "p2": solve_p2}
    config = lp_core.MilpConfig(backend="highs", gap_tol=GAP,
                                time_limit=args.time_limit)
    out = {}
    for name, (M, N, K), seed in cases_of(args.desk, args.crit10):
        inst = sample_instance(ScenarioConfig(seed=seed, num_aps=M,
                                              num_ens=N, num_services=K))
        for method in args.methods:
            t0 = time.perf_counter()
            res = solvers[method](inst, config)
            out[f"{name}/{method}"] = {
                "wall_s": time.perf_counter() - t0, "status": res.status,
                "profit": res.objective, "nodes": res.milp.nodes_explored,
                "relative_gap": res.milp.relative_gap}
    print(json.dumps(out))


def run_worker(checkout: Path, random_seed: int, args) -> dict:
    cmd = [sys.executable, __file__, "--worker", str(checkout / "src"),
           "--random-seed", str(random_seed),
           "--time-limit", str(args.time_limit),
           "--methods", ",".join(args.methods)]
    if args.desk:
        cmd += ["--desk", ",".join(map(str, args.desk))]
    if args.crit10:
        cmd += ["--crit10", ",".join(args.crit10)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker failed in {checkout} "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def disagreements(result: dict) -> list:
    """Cases where P1's and P2's status or profit differ."""
    out = []
    for key, p1 in result.items():
        name, method = key.rsplit("/", 1)
        p2 = result.get(f"{name}/p2")
        if method != "p1" or p2 is None:
            continue
        if p1["status"] != p2["status"] or (
                p1["profit"] is not None and abs(p1["profit"] - p2["profit"])
                > 2 * GAP * max(1.0, abs(p2["profit"]))):
            out.append(name)
    return out


def gaps_over_tolerance(result: dict) -> list:
    """Solves reported ``optimal`` with a relative gap above ``GAP``."""
    return [key for key, r in result.items()
            if r["status"] == "optimal" and r["relative_gap"] is not None
            and r["relative_gap"] > GAP * (1 + 1e-9)]


def summarize(runs) -> dict:
    out = {}
    for key in runs[0]["parent"]:
        p = [run["parent"][key] for run in runs]
        c = [run["change"][key] for run in runs]
        out[key] = {
            "parent_wall_s_sum": sum(r["wall_s"] for r in p),
            "change_wall_s_sum": sum(r["wall_s"] for r in c),
            "parent_nodes_sum": sum(r["nodes"] for r in p),
            "change_nodes_sum": sum(r["nodes"] for r in c),
            "seeds_change_faster": sum(b["wall_s"] < a["wall_s"]
                                       for a, b in zip(p, c)),
            "nodes_equal": all(a["nodes"] == b["nodes"]
                               for a, b in zip(p, c)),
        }
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--desk", type=parse_seeds, default=[],
                    help="desk generator seeds, e.g. 0-2")
    ap.add_argument("--crit10", type=lambda t: t.split(","), default=[],
                    help="criterion 10 rows, e.g. 4x4x2,2x4x4")
    ap.add_argument("--random-seeds", type=parse_seeds, default=[0, 1, 2, 3])
    ap.add_argument("--methods", type=lambda t: t.split(","),
                    default=list(METHODS))
    ap.add_argument("--time-limit", type=float, default=600.0,
                    help="time limit of each solve, in seconds")
    ap.add_argument("--claim", default="", help="what the runs test")
    ap.add_argument("--notes", default="")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--random-seed", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        worker(args)
        return
    if not (args.parent and args.change and args.out):
        ap.error("--parent, --change and --out are required")
    if not (args.desk or args.crit10):
        ap.error("give --desk or --crit10 cases")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "claim": args.claim,
        "parent_commit": commit_of(sides["parent"]),
        "command": "python3 scripts/highs_seeds.py " + " ".join(
            sys.argv[1:] if argv is None else argv),
        "protocol": "one worker process per checkout and HiGHS random_seed, "
                    "set in lp_core._MIP_OPTIONS; even seeds run the "
                    "parent first, odd seeds the change first; one process "
                    f"at a time; relative gap {GAP}, dyn scheme",
        "machine": machine(),
        "cases": [name for name, _, _ in cases_of(args.desk, args.crit10)],
        "methods": args.methods,
        "notes": args.notes,
    }
    runs = []
    for i, seed in enumerate(args.random_seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"random_seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_worker(sides[side], seed, args)
        run["p1_p2_disagree"] = {side: disagreements(run[side])
                                 for side in sides}
        run["gap_over_tolerance"] = {side: gaps_over_tolerance(run[side])
                                     for side in sides}
        runs.append(run)
        for key in run["parent"]:
            print(f"random_seed {seed} {key}: parent "
                  f"{run['parent'][key]['wall_s']:.2f} s, change "
                  f"{run['change'][key]['wall_s']:.2f} s", file=sys.stderr)
        doc["summary"] = summarize(runs)
        doc["runs"] = runs
        args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
