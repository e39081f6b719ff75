"""Span tracer for the per-layer metrics.

The traced run replaces each public function of a layer with a timing
wrapper at the name its caller looks up (``oracle.solve_follower``, not
``follower.solve_follower``), so the package itself is unchanged. Spans
(name, start, end, parent span, solve id) are kept in memory and written
out when the run ends. The untraced run installs no wrappers.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple


def _model_size(result, args, kwargs) -> Dict[str, int]:
    model = result[0]
    return {"rows": model.num_constrs, "cols": model.num_vars,
            "nnz": sum(len(c.coeffs) for c in model.constraints),
            "binaries": model.num_binaries}


def _milp_counts(result, args, kwargs) -> Dict[str, object]:
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return {"nodes": result.nodes_explored,
            "backend": cfg.backend if cfg is not None else "bnb"}


def _oracle_counts(result, args, kwargs) -> Dict[str, int]:
    inst = kwargs.get("inst", args[0] if args else None)
    return {"candidates": result.candidates_examined,
            "services": inst.num_services}


def _escalations(result, args, kwargs) -> Dict[str, int]:
    return {"escalations": result.escalations}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._installed: list = []
        self.solve_id: Optional[str] = None

    def wrap(self, module, attr: str, name: str,
             counts: Optional[Callable] = None) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "solve": self.solve_id}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(result, args, kwargs))
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, fn))

    def install(self, em) -> None:
        """Wrap every layer boundary of the package ``em``."""
        self.wrap(em.scenario, "sample_instance", "scenario.sample_instance")
        self.wrap(em.harness, "solve_p1", "reform.solve", _escalations)
        self.wrap(em.harness, "solve_p2", "reform.solve", _escalations)
        self.wrap(em.reform_kkt, "build_p1", "reform.build", _model_size)
        self.wrap(em.reform_dual, "build_p2", "reform.build", _model_size)
        self.wrap(em.reform_kkt, "validate_bigM", "reform.validate_bigM")
        self.wrap(em.reform_dual, "validate_bigM", "reform.validate_bigM")
        self.wrap(em.reform_kkt, "extract_solution_p1", "reform.extract")
        self.wrap(em.reform_dual, "extract_solution_p2", "reform.extract")
        self.wrap(em.lp_core, "solve_milp", "lp_core.solve_milp",
                  _milp_counts)
        self.wrap(em.lp_core, "solve_lp", "lp_core.solve_lp")
        self.wrap(em.oracle, "solve_follower", "follower.solve_follower")
        self.wrap(em.reform_dual, "solve_follower", "follower.solve_follower")
        self.wrap(em.harness, "brute_force_bilevel",
                  "oracle.brute_force_bilevel", _oracle_counts)
        self.wrap(em.harness, "verify_bilevel_optimality",
                  "reform_dual.verify_bilevel_optimality")

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[dict], rounds: int,
                  stdout_lines: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer totals of one round of the workload, with their units;
    the ``scenario`` layer runs once, at set-up.

    Counts repeat exactly from round to round, so dividing the run's
    totals by the number of rounds keeps them whole numbers.
    """
    by_name: Dict[str, List[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    children: Dict[int, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def kids(s, name):
        return [c for c in children.get(s["id"], ()) if c["name"] == name]

    lp, milp = "lp_core.solve_lp", "lp_core.solve_milp"
    follower, oracle = "follower.solve_follower", "oracle.brute_force_bilevel"
    builds = by_name.get("reform.build", ())
    milps = by_name.get(milp, ())
    oracles = by_name.get(oracle, ())
    followers = by_name.get(follower, ())
    milp_lps = sum(len(kids(s, lp)) for s in milps)
    bnb_nodes = sum(s["nodes"] for s in milps if s["backend"] == "bnb")
    polish = milp_lps - bnb_nodes
    oracle_followers = sum(len(kids(s, follower)) for s in oracles)
    follower_slots = sum(s["candidates"] * s["services"] for s in oracles)
    raw = {
        "reform.build.calls": calls("reform.build"),
        "reform.build.s": total("reform.build"),
        "reform.rows": sum(s["rows"] for s in builds),
        "reform.cols": sum(s["cols"] for s in builds),
        "reform.nnz": sum(s["nnz"] for s in builds),
        "reform.binaries": sum(s["binaries"] for s in builds),
        "reform.escalations": sum(s["escalations"]
                                  for s in by_name.get("reform.solve", ())),
        "reform.validate_bigM.s": total("reform.validate_bigM"),
        "reform.extract.s": total("reform.extract"),
        "lp_core.solve_milp.calls": len(milps),
        "lp_core.solve_milp.s": total(milp),
        "lp_core.solve_milp.self_s": sum(
            dur(s) - sum(dur(c) for c in kids(s, lp)) for s in milps),
        "lp_core.nodes": sum(s["nodes"] for s in milps),
        "lp_core.polish_rounds": polish,
        "lp_core.solve_lp.calls": calls(lp),
        "lp_core.solve_lp.s": total(lp),
        "follower.solve_follower.calls": len(followers),
        "follower.solve_follower.s": total(follower),
        "oracle.brute_force_bilevel.s": total(oracle),
        "oracle.candidates": sum(s["candidates"] for s in oracles),
        "oracle.second_stage_lps": sum(len(kids(s, lp)) for s in oracles),
        "reform_dual.verify_bilevel_optimality.calls":
            calls("reform_dual.verify_bilevel_optimality"),
        "reform_dual.verify_bilevel_optimality.s":
            total("reform_dual.verify_bilevel_optimality"),
    }
    per_round = {
        # Instances are made once, at set-up.
        "scenario.sample_instance.calls": calls("scenario.sample_instance"),
        "scenario.sample_instance.s": total("scenario.sample_instance"),
    }
    per_round.update({k: v / rounds for k, v in raw.items()})
    per_round.update({
        "lp_core.polish_accept_ratio": _ratio(len(milps), polish),
        "lp_core.solve_lp.ms_per_call": 1e3 * _ratio(total(lp), calls(lp)),
        "lp_core.stdout_lines": stdout_lines / rounds,
        "follower.lps_per_call": _ratio(
            sum(len(kids(s, lp)) for s in followers), len(followers)),
        "oracle.follower_solves_per_candidate": _ratio(oracle_followers,
                                                       follower_slots),
    })
    return {name: (value, unit_of(name)) for name, value in per_round.items()}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last == "ms_per_call":
        return "ms"
    if last.endswith("_ratio") or "_per_" in last:
        return "ratio"
    return "count"
