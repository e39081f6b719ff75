"""Benchmark of edgemarket's solve paths, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload tiny-oracle --seed 1 --seconds 5 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run with timing wrappers installed. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread per workload process: BLAS pools would otherwise start one
# thread per core at import, next to the solver.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Generator seeds of each instance group, per workload. P1 runs on the
# desk seeds where it finishes in seconds; seeds 3 and 4 take 29-136 s.
DEFAULT_SEEDS = {
    "tiny-oracle": {"tiny": tuple(range(20))},
    "desk-schemes": {"desk": tuple(range(5)), "desk-p1": (0, 1, 2)},
    "mid-bnb": {"tiny": tuple(range(20)), "sizes": (0, 1, 2)},
}
SETUP_PROBES = 2   # extra set-ups in fresh processes, for a median of three


def parse_seeds(text: str):
    """'0-4,7' -> (0, 1, 2, 3, 4, 7)"""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return tuple(seeds)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    p.add_argument("--seed", type=int, default=0,
                   help="shuffles the order of the solves in each round")
    p.add_argument("--seconds", type=float, default=5.0,
                   help="repeat whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instances", action="append", default=[],
                   metavar="GROUP=SEEDS",
                   help="replace the generator seeds of an instance group, "
                        "e.g. tiny=0-19 or desk=0,2")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    seeds = dict(DEFAULT_SEEDS[args.workload])
    for item in args.instances:
        group, _, text = item.partition("=")
        if group not in seeds:
            p.error(f"{args.workload} has no instance group {group!r}; "
                    f"groups: {', '.join(seeds)}")
        try:
            seeds[group] = parse_seeds(text)
        except ValueError:
            p.error(f"bad seed list {text!r}; expected e.g. 0-4,7")
    args.seeds = seeds
    return args


def set_up(args):
    """Import the package from this checkout and make the workload's
    instances. Returns the workload and, when tracing, the tracer."""
    sys.path.insert(0, str(SRC))
    import edgemarket as em
    if Path(em.__file__).resolve().parent != SRC / "edgemarket":
        raise ImportError(f"edgemarket imported from {em.__file__}, "
                          f"not from {SRC}")
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(em)
    import workloads
    return workloads.build(args.workload, args.seeds), tracer


def setup_probe_seconds(argv) -> float:
    """Set-up time of a fresh process, read from its probe output."""
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *argv,
                          "--setup-probe"], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


@contextlib.contextmanager
def captured_fd1(path):
    """Send file descriptor 1 to ``path`` for the block. The C library's
    stdout buffer is flushed before fd 1 is restored, so solver output
    cannot land after the metric report."""
    libc = ctypes.CDLL(None)
    sys.stdout.flush()
    saved = os.dup(1)
    with open(path, "wb") as sink:
        os.dup2(sink.fileno(), 1)
        try:
            yield
        finally:
            sys.stdout.flush()
            libc.fflush(None)
            os.dup2(saved, 1)
            os.close(saved)


def count_lines(path) -> int:
    data = Path(path).read_bytes()
    return data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)


def run_rounds(wl, order, seconds, tracer):
    """Repeat whole rounds of the workload's solves until ``seconds``
    have passed. Returns per-round outcomes, wall and CPU times, and the
    wall time of every solve."""
    from workloads import Outcome
    rounds, round_wall, round_cpu, solve_wall = [], [], [], []
    start = time.perf_counter()
    while True:
        outcomes = {}
        w0, c0 = time.perf_counter(), time.process_time()
        for solve in order:
            if tracer is not None:
                tracer.solve_id = f"r{len(rounds)}/{solve.key}"
            t0 = time.perf_counter()
            try:
                outcomes[solve.key] = solve.run(wl.instances[solve.instance])
            except Exception as exc:  # noqa: BLE001 - a failed operation
                outcomes[solve.key] = Outcome(
                    "error", None, error=f"{type(exc).__name__}: {exc}")
            solve_wall.append((solve.key, time.perf_counter() - t0))
        round_wall.append(time.perf_counter() - w0)
        round_cpu.append(time.process_time() - c0)
        rounds.append(outcomes)
        if time.perf_counter() - start >= seconds:
            return rounds, round_wall, round_cpu, solve_wall


def check_round(wl, outcomes, refs):
    """Failed operations of one round: solves whose output fails the
    independent checker, and method properties that do not hold."""
    from checker import check_optimum
    failures = []
    for solve in wl.solves:
        out = outcomes[solve.key]
        if out.error:
            failures.append((solve.key, [out.error]))
            continue
        if out.status not in ("optimal", "infeasible"):
            failures.append((solve.key, [f"status {out.status}"]))
            continue
        if out.status == "optimal":
            try:
                problems = check_optimum(wl.instances[solve.instance],
                                         out.leader, out.followers,
                                         out.profit, solve.scheme)
            except RuntimeError as exc:   # a checker LP that HiGHS gave up on
                problems = [str(exc)]
            if problems:
                failures.append((solve.key, problems))
    merged = {**refs, **outcomes}
    for label, prop in wl.properties:
        problems = prop(merged)
        if problems:
            failures.append((label, problems))
    return failures


def reference_outcomes(wl):
    from workloads import Outcome
    refs = {}
    for key, compute in wl.references.items():
        try:
            refs[key] = compute()
        except Exception as exc:  # noqa: BLE001 - fails the property
            refs[key] = Outcome("error", None,
                                error=f"{type(exc).__name__}: {exc}")
    return refs


def same_results(a, b) -> bool:
    return all(a[k].status == b[k].status and a[k].profit == b[k].profit
               for k in a)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "edgemarket" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'edgemarket'}; run "
              "from the root of an edgemarket checkout", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    wl, tracer = set_up(args)
    setup_here = time.perf_counter() - t0
    if args.setup_probe:
        print(repr(setup_here))
        return 0
    OUT.mkdir(exist_ok=True)
    setups = [setup_here]
    if tracer is None:
        setups += [setup_probe_seconds(argv) for _ in range(SETUP_PROBES)]

    order = list(wl.solves)
    random.Random(args.seed).shuffle(order)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with captured_fd1(stem.with_suffix(".solves.out")):
        rounds, round_wall, round_cpu, solve_wall = run_rounds(
            wl, order, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(stem.with_suffix(".solves.json"), "w", encoding="utf-8") as fh:
        json.dump(solve_wall, fh)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(stem.with_suffix(".spans.jsonl"))

    with captured_fd1(stem.with_suffix(".checks.out")):
        refs = reference_outcomes(wl)
        failures = [f for outcomes in rounds
                    for f in check_round(wl, outcomes, refs)]
    for label, problems in failures:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    threads = len(os.listdir("/proc/self/task"))
    print(f"perfbench: {args.workload} trace={args.trace} rounds={len(rounds)}"
          f" round wall={statistics.median(round_wall):.3f} s"
          f" cpu={statistics.median(round_cpu):.3f} s threads={threads}",
          file=sys.stderr)
    # Every round runs the same solves on the same instances, and the
    # solvers are deterministic, so every round must report the same.
    correct = all(same_results(rounds[0], r) for r in rounds[1:])

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(round_wall), "s"),
            "cpu_s": (statistics.median(round_cpu), "s"),
            "solve_gmean_s": (statistics.geometric_mean(
                t for _, t in solve_wall), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from spans import layer_metrics
        metrics = layer_metrics(tracer.spans, len(rounds),
                                count_lines(stem.with_suffix(".solves.out")))
    ops_per_round = len(wl.solves) + len(wl.properties)
    print(json.dumps({
        "correct": correct,
        "attempted": ops_per_round * len(rounds),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
