"""Time a parent and a change checkout with perfbench, in alternating pairs.

Each pair runs ``python3 perfbench/run.py --workload W --seed S
--seconds 5 --trace 0`` once in each checkout, one process at a time.
Even pairs run the parent first and odd pairs the change first, so a
slow stretch of a shared machine falls on both sides alike. Every pair
uses its own perfbench seed. The result is written as one ``BENCH_*``
JSON file, rewritten after each pair:

    python3 scripts/bench_pairs.py --parent /path/to/parent --change . \\
        --pairs tiny-oracle=9101-9110 --pairs desk-schemes=9201-9203 \\
        --claim "tiny-oracle wall_s falls" --out BENCH_example.json

For each workload the file holds every pair, each side's quartiles of
every end-to-end metric (numpy's linear percentiles), the relative
change of the medians, the number of pairs the change ran lower, and
whether the gap between the medians exceeds the parent's interquartile
range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

PERFBENCH = ["perfbench/run.py", "--seconds", "5", "--trace", "0"]


def parse_seeds(text: str):
    """'9101-9105,9110' -> [9101, ..., 9105, 9110]"""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def commit_of(checkout: Path) -> str:
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> str:
    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30
    return (f"{os.cpu_count()}-core {platform.machine()} "
            f"{platform.system()}, {mem:.0f} GB RAM, "
            f"Python {platform.python_version()}, scipy {scipy.__version__}")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run; its last stdout line, with values unwrapped."""
    proc = subprocess.run(
        [sys.executable, *PERFBENCH, "--workload", workload,
         "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} "
                           f"(exit {proc.returncode}): {proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: m["value"] for name, m in res["metrics"].items()}}


def summarize(pairs) -> dict:
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        p = [pair["parent"]["metrics"][name] for pair in pairs]
        c = [pair["change"]["metrics"][name] for pair in pairs]
        pq, cq = np.percentile(p, [25, 50, 75]), np.percentile(c, [25, 50, 75])
        out[name] = {
            "parent_q1_median_q3": pq.tolist(),
            "change_q1_median_q3": cq.tolist(),
            "median_change_rel":
                float((cq[1] - pq[1]) / pq[1]) if pq[1] else 0.0,
            "pairs_change_lower": sum(b < a for a, b in zip(p, c)),
            "median_gap_exceeds_parent_iqr":
                bool(abs(cq[1] - pq[1]) > pq[2] - pq[0]),
        }
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--pairs", action="append", required=True,
                    metavar="WORKLOAD=SEEDS",
                    help="one pair per perfbench seed, e.g. "
                         "tiny-oracle=9101-9110; repeatable")
    ap.add_argument("--claim", default="", help="what the pairs test")
    ap.add_argument("--notes", default="")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "claim": args.claim,
        "parent_commit": commit_of(sides["parent"]),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds 5 --trace 0",
        "protocol": "alternating pairs: even pairs run the parent commit "
                    "first, odd pairs the change first; one run at a time, "
                    "each from its own checkout; one perfbench seed per "
                    "pair; made by scripts/bench_pairs.py",
        "machine": machine(),
        "workloads": {},
        "notes": args.notes,
    }
    for item in args.pairs:
        workload, _, text = item.partition("=")
        seeds = parse_seeds(text)
        entry = doc["workloads"][workload] = {"perfbench_seeds": seeds}
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed)
            pairs.append(pair)
            p, c = (pair[s]["metrics"]["wall_s"] for s in ("parent", "change"))
            print(f"{workload} seed {seed}: wall_s parent {p:.3f} "
                  f"change {c:.3f}", file=sys.stderr)
            entry["all_correct_no_failed"] = all(
                pr[s]["correct"] and pr[s]["failed"] == 0
                for pr in pairs for s in sides)
            entry["summary"] = summarize(pairs)
            entry["pairs"] = pairs
            args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
