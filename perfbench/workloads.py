"""Instances, solves and method properties of the three workloads.

Every solve goes through ``harness.run_scheme``, the call behind
``edgemarket solve``, so each one includes the program's own bilevel
certification. The instance recipes are written here rather than
imported from the test suite, so the benchmark depends only on the
package's public functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import checker
from edgemarket import harness, scenario
from edgemarket.lp_core import MilpConfig

TINY_PRICES = (0.01, 0.03, 0.05)
DESK_SIZE = (6, 3, 4)
MID_SIZES = ((3, 2, 2), (4, 2, 2), (4, 2, 3), (6, 2, 2), (4, 3, 2))
DESK_GAP = 1e-4


def tiny_config(seed: int) -> "scenario.ScenarioConfig":
    """Tiny instance whose dimensions are drawn from the seed itself
    (M <= 3, N <= 2, K <= 2, three price levels), small enough for the
    brute-force oracle."""
    rng = np.random.default_rng(seed)
    return scenario.ScenarioConfig(
        seed=seed,
        num_aps=int(rng.integers(1, 4)),
        num_ens=int(rng.integers(1, 3)),
        num_services=int(rng.integers(1, 3)),
        price_levels=TINY_PRICES,
    )


def sized_config(seed: int, size: Sequence[int]) -> "scenario.ScenarioConfig":
    M, N, K = size
    return scenario.ScenarioConfig(seed=seed, num_aps=M, num_ens=N,
                                   num_services=K)


@dataclass(frozen=True)
class Solve:
    """One ``run_scheme`` call: an operation of the workload."""

    instance: str
    method: str      # "kkt" (P1), "dual" (P2) or "oracle"
    scheme: str      # "dyn", "flat" or "avg"
    backend: str     # "highs" or "bnb"; ignored by the oracle
    gap: float = 1e-6

    @property
    def key(self) -> str:
        return f"{self.instance}/{self.method}/{self.scheme}/{self.backend}"

    def run(self, inst) -> "Outcome":
        config = MilpConfig(backend=self.backend, gap_tol=self.gap)
        profit, (leader, followers), report = harness.run_scheme(
            inst, harness.SchemeSpec(self.scheme, self.method), config)
        return Outcome(report.status, None if profit is None else float(profit),
                       leader, followers)


@dataclass
class Outcome:
    """What one solve returned, kept for the checks after the timed part."""

    status: str
    profit: Optional[float]
    leader: object = None
    followers: object = None
    error: str = ""


def _enumerated(inst) -> Outcome:
    profit = checker.enumerate_optimum(inst)
    return Outcome("infeasible" if profit is None else "optimal", profit)


# A property check: (label, outcomes by solve key) -> list of problems.
Property = Tuple[str, Callable[[Dict[str, Outcome]], List[str]]]


@dataclass
class Workload:
    instances: Dict[str, object]
    solves: List[Solve]
    # Reference results, computed after the timed rounds and merged into
    # each round's outcomes before the properties are checked.
    references: Dict[str, Callable[[], Outcome]]
    properties: List[Property]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _agree(keys: Sequence[str], rel: float) -> Callable:
    """All solves reach the same status, and the same profit within
    ``rel`` when feasible."""
    def check(out: Dict[str, Outcome]) -> List[str]:
        got = [out[k] for k in keys]
        if any(o.error for o in got):
            return ["a compared solve failed"]
        statuses = {o.status for o in got}
        if statuses - {"optimal", "infeasible"}:
            return [f"unexpected statuses {sorted(statuses)}"]
        if len(statuses) > 1:
            return ["feasibility disagrees: " + ", ".join(
                f"{k}={o.status}" for k, o in zip(keys, got))]
        if statuses == {"infeasible"}:
            return []
        ref = got[0].profit
        return [f"{k} profit {o.profit!r} != {keys[0]} profit {ref!r}"
                for k, o in zip(keys[1:], got[1:])
                if not _close(o.profit, ref, rel)]
    return check


def _dominance(keys: Sequence[str], rel: float) -> Callable:
    """Profits do not increase along ``keys`` (dyn >= flat >= avg)."""
    def check(out: Dict[str, Outcome]) -> List[str]:
        if any(out[k].status != "optimal" for k in keys):
            return ["a compared solve is not optimal"]
        return [f"{a} {out[a].profit!r} < {b} {out[b].profit!r}"
                for a, b in zip(keys, keys[1:])
                if out[a].profit < out[b].profit
                and not _close(out[a].profit, out[b].profit, rel)]
    return check


def _tiny_instances(seeds) -> Dict[str, object]:
    return {f"tiny{s}": scenario.sample_instance(tiny_config(s))
            for s in seeds}


def _tiny_oracle(seeds) -> Workload:
    instances = _tiny_instances(seeds["tiny"])
    solves, props = [], []
    for name in instances:
        trio = [Solve(name, "kkt", "dyn", "highs"),
                Solve(name, "dual", "dyn", "highs"),
                Solve(name, "oracle", "dyn", "highs")]
        solves += trio
        props.append((f"{name}: P1 == P2 == oracle",
                      _agree([s.key for s in trio], 2e-6)))
    return Workload(instances, solves, {}, props)


def _desk_schemes(seeds) -> Workload:
    instances = {f"desk{s}": scenario.sample_instance(sized_config(s, DESK_SIZE))
                 for s in seeds["desk"]}
    rel = 2 * DESK_GAP
    solves, props = [], []
    for s in seeds["desk"]:
        name = f"desk{s}"
        trio = [Solve(name, "dual", scheme, "highs", DESK_GAP)
                for scheme in ("dyn", "flat", "avg")]
        solves += trio
        props.append((f"{name}: dyn >= flat >= avg",
                      _dominance([x.key for x in trio], rel)))
        if s in seeds["desk-p1"]:
            p1 = Solve(name, "kkt", "dyn", "highs", DESK_GAP)
            solves.append(p1)
            props.append((f"{name}: P1 == P2 within the gap",
                          _agree([p1.key, trio[0].key], rel)))
    return Workload(instances, solves, {}, props)


def _mid_bnb(seeds) -> Workload:
    instances = _tiny_instances(seeds["tiny"])
    for size in MID_SIZES:
        for s in seeds["sizes"]:
            label = "x".join(map(str, size))
            instances[f"mid{label}-{s}"] = scenario.sample_instance(
                sized_config(s, size))
    solves, refs, props = [], {}, []
    for name, inst in instances.items():
        bnb = Solve(name, "dual", "dyn", "bnb")
        highs = Solve(name, "dual", "dyn", "highs")
        solves.append(bnb)
        refs[highs.key] = partial(highs.run, inst)
        keys = [bnb.key, highs.key]
        label = f"{name}: P2/bnb == P2/HiGHS"
        if name.startswith("tiny"):
            # The checker's own enumeration stands in for the package's
            # oracle, which takes twice as long on these seeds;
            # tiny-oracle compares the package's oracle.
            keys.append(f"{name}/enumeration")
            refs[keys[-1]] = partial(_enumerated, inst)
            label += " == enumeration"
        props.append((label, _agree(keys, 2e-6)))
    return Workload(instances, solves, refs, props)


WORKLOADS = {"tiny-oracle": _tiny_oracle, "desk-schemes": _desk_schemes,
            "mid-bnb": _mid_bnb}


def build(name: str, seeds: Dict[str, Sequence[int]]) -> Workload:
    return WORKLOADS[name](seeds)
