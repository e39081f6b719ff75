"""Problem data model: instances, decisions, solutions, validation and
objective evaluation.

Index conventions used throughout the package: ``i`` ranges over access
points (APs), ``j`` over edge nodes (ENs), ``k`` over services and ``v``
over price levels. All arrays are 0-based and row-major.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .tolerances import TOL

SCHEMA_VERSION = 1

# JSON field name <-> attribute name, in serialization order.
_JSON_FIELDS = [
    ("numAps", "num_aps"),
    ("numEns", "num_ens"),
    ("numServices", "num_services"),
    ("numPriceLevels", "num_price_levels"),
    ("demand", "demand"),
    ("delayEdge", "delay_edge"),
    ("delayCloud", "delay_cloud"),
    ("cloudPrice", "cloud_price"),
    ("priceGrid", "price_grid"),
    ("computeCap", "compute_cap"),
    ("storageCap", "storage_cap"),
    ("fixedCost", "fixed_cost"),
    ("variableCost", "variable_cost"),
    ("placementCost", "placement_cost"),
    ("serviceSize", "service_size"),
    ("budget", "budget"),
    ("delayWeight", "delay_weight"),
    ("delayCap", "delay_cap"),
    ("eligible", "eligible"),
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Instance:
    """Immutable problem data for one pricing/placement/allocation problem.

    Shapes: demand (M, K); delay_edge (M, N); delay_cloud (M,);
    price_grid (N, V); compute_cap, storage_cap, fixed_cost, variable_cost (N,);
    placement_cost (N, K); service_size, budget, delay_weight, delay_cap (K,);
    eligible (M, N, K) with entries in {0, 1}.
    """

    num_aps: int
    num_ens: int
    num_services: int
    num_price_levels: int
    demand: np.ndarray
    delay_edge: np.ndarray
    delay_cloud: np.ndarray
    cloud_price: float
    price_grid: np.ndarray
    compute_cap: np.ndarray
    storage_cap: np.ndarray
    fixed_cost: np.ndarray
    variable_cost: np.ndarray
    placement_cost: np.ndarray
    service_size: np.ndarray
    budget: np.ndarray
    delay_weight: np.ndarray
    delay_cap: np.ndarray
    eligible: np.ndarray
    provenance: Optional[dict] = None

    def __post_init__(self):
        for _, attr in _JSON_FIELDS:
            val = getattr(self, attr)
            if isinstance(val, (list, tuple, np.ndarray)):
                kind = int if attr == "eligible" else float
                object.__setattr__(self, attr, _freeze(np.asarray(val, dtype=kind)))
            elif attr.startswith("num"):
                object.__setattr__(self, attr, int(val))
            else:
                object.__setattr__(self, attr, float(val))

    def to_json(self, indent: Optional[int] = None) -> str:
        doc = {"schema_version": SCHEMA_VERSION}
        for key, attr in _JSON_FIELDS:
            val = getattr(self, attr)
            doc[key] = val.tolist() if isinstance(val, np.ndarray) else val
        if self.provenance is not None:
            doc["provenance"] = self.provenance
        return json.dumps(doc, indent=indent)

    @staticmethod
    def from_json(text: str) -> "Instance":
        doc = json.loads(text)
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version: {version!r}")
        kwargs = {attr: doc[key] for key, attr in _JSON_FIELDS}
        kwargs["provenance"] = doc.get("provenance")
        return Instance(**kwargs)


@dataclass(frozen=True)
class ScalingFactors:
    """Multiplicative sweep factors: demand, delay penalty, EN capacity,
    cloud price."""

    demand_scale: float = 1.0
    penalty_scale: float = 1.0
    capacity_scale: float = 1.0
    cloud_price_scale: float = 1.0


@dataclass
class LeaderDecision:
    """Platform-side decision: one grid price per EN, activation and
    placement."""

    price_level: np.ndarray   # (N,) index into the price grid
    price: np.ndarray         # (N,) price_grid[j, price_level[j]]
    active: np.ndarray        # (N,) binary
    placed: np.ndarray        # (N, K) binary

    def __post_init__(self):
        self.price_level = np.asarray(self.price_level, dtype=int)
        self.price = np.asarray(self.price, dtype=float)
        self.active = np.asarray(self.active, dtype=int)
        self.placed = np.asarray(self.placed, dtype=int)


@dataclass
class FollowerSolution:
    """Per-service allocation: workload split and purchased resources."""

    x_cloud: np.ndarray       # (M,) workload routed to the cloud
    x_edge: np.ndarray        # (M, N) workload routed to each EN
    y_cloud: float            # resource bought from the cloud
    y_edge: np.ndarray        # (N,) resource bought from each EN
    avg_delay: np.ndarray     # (M,) average delay per AP
    cost: float               # value of the follower objective

    def __post_init__(self):
        self.x_cloud = np.asarray(self.x_cloud, dtype=float)
        self.x_edge = np.asarray(self.x_edge, dtype=float)
        self.y_edge = np.asarray(self.y_edge, dtype=float)
        self.avg_delay = np.asarray(self.avg_delay, dtype=float)


@dataclass
class DualSolution:
    """Multipliers of the follower problem.

    ``sigma`` follows the sign convention of the explicit dual program
    (the delay-definition multiplier); all one-sided multipliers are
    non-negative, ``xi`` and ``sigma`` are free.
    """

    xi: np.ndarray            # (M,) demand balance
    sigma: np.ndarray         # (M,) average-delay definition
    tau: np.ndarray           # (M,) delay cap
    mu1: float                # cloud procurement covers allocation
    mu2: float                # budget
    lam: np.ndarray           # (N,) EN procurement covers allocation
    gamma: np.ndarray         # (N,) EN capacity/placement gate
    eta: np.ndarray           # (M, N) eligibility cap
    zeta: np.ndarray          # (M,) x_cloud >= 0
    eps: np.ndarray           # (M, N) x_edge >= 0

    def __post_init__(self):
        for name in ("xi", "sigma", "tau", "lam", "gamma", "eta", "zeta", "eps"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str):
        self.violations.append(message)


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every instance invariant; returns diagnostics, never raises."""
    rep = ValidationReport()
    for key, attr in _JSON_FIELDS[:4]:   # the dimension counts
        if getattr(inst, attr) < 1:
            rep.add(f"{key} must be at least 1, got {getattr(inst, attr)}")
    M, N, K, V = inst.num_aps, inst.num_ens, inst.num_services, inst.num_price_levels
    expected = {
        "demand": (M, K),
        "delayEdge": (M, N),
        "delayCloud": (M,),
        "priceGrid": (N, V),
        "computeCap": (N,),
        "storageCap": (N,),
        "fixedCost": (N,),
        "variableCost": (N,),
        "placementCost": (N, K),
        "serviceSize": (K,),
        "budget": (K,),
        "delayWeight": (K,),
        "delayCap": (K,),
        "eligible": (M, N, K),
    }
    attr_of = dict((k, a) for k, a in _JSON_FIELDS)
    for key, shape in expected.items():
        arr = getattr(inst, attr_of[key])
        if arr.shape != shape:
            rep.add(f"{key} has shape {arr.shape}, expected {shape}")
    if rep.violations:
        return rep  # index checks below assume declared shapes

    for name in ("demand", "delay_edge", "delay_cloud", "price_grid", "compute_cap",
                 "storage_cap", "fixed_cost", "variable_cost", "placement_cost",
                 "service_size", "budget", "delay_weight", "delay_cap"):
        arr = getattr(inst, name)
        if not np.all(np.isfinite(arr)):
            rep.add(f"{name} contains non-finite entries")

    for i, k in zip(*np.nonzero(inst.demand < 0)):
        rep.add(f"negative demand at ({i},{k})")
    for idx in zip(*np.nonzero(inst.delay_edge < 0)):
        rep.add(f"negative edge delay at {idx}")
    for (i,) in zip(*np.nonzero(inst.delay_cloud < 0)[:1]):
        rep.add(f"negative cloud delay at {i}")
    if not np.isfinite(inst.cloud_price):
        rep.add("cloud_price is non-finite")
    elif not inst.cloud_price > 0:
        rep.add("cloudPrice must be > 0")
    for j in range(N):
        col = inst.price_grid[j]
        if np.any(np.diff(col) <= 0):
            rep.add(f"priceGrid not ascending at j={j}")
    for name, label in (("compute_cap", "computeCap"), ("storage_cap", "storageCap"),
                        ("service_size", "serviceSize"), ("budget", "budget"),
                        ("delay_cap", "delayCap")):
        for (idx,) in zip(*np.nonzero(~(getattr(inst, name) > 0))[:1]):
            rep.add(f"non-positive {label} at {idx}")
    for (k,) in zip(*np.nonzero(inst.delay_weight < 0)[:1]):
        rep.add(f"negative delayWeight at {k}")
    bad = (inst.eligible != 0) & (inst.eligible != 1)
    for idx in zip(*np.nonzero(bad)):
        rep.add(f"eligible entry not binary at {idx}")
    return rep


def scale_instance(inst: Instance, f: ScalingFactors) -> Instance:
    """Return a copy with demand, delay penalty, EN capacity and cloud
    price multiplied by the given factors."""
    factors = (f.demand_scale, f.penalty_scale, f.capacity_scale, f.cloud_price_scale)
    if not all(np.isfinite(x) and x > 0 for x in factors):
        raise ValueError(f"scaling factors must be positive and finite, got {factors}")
    return replace(
        inst,
        demand=inst.demand * f.demand_scale,
        delay_weight=inst.delay_weight * f.penalty_scale,
        compute_cap=inst.compute_cap * f.capacity_scale,
        cloud_price=inst.cloud_price * f.cloud_price_scale,
    )


def leader_profit(inst: Instance, ld: LeaderDecision,
                  followers: Sequence[FollowerSolution]) -> float:
    """Platform profit: edge revenue minus activation, utilization and
    placement costs."""
    if len(followers) != inst.num_services:
        raise ValueError(f"expected {inst.num_services} follower solutions, "
                         f"got {len(followers)}")
    if ld.placed.shape != (inst.num_ens, inst.num_services):
        raise ValueError("placement matrix has wrong shape")
    revenue = 0.0
    edge_load = np.zeros(inst.num_ens)
    for fs in followers:
        if fs.y_edge.shape != (inst.num_ens,):
            raise ValueError("follower y_edge has wrong shape")
        revenue += float(ld.price @ fs.y_edge)
        edge_load += fs.x_edge.sum(axis=0)
    cost = float(inst.fixed_cost @ ld.active)
    cost += float(inst.variable_cost @ (edge_load / inst.compute_cap))
    cost += float((inst.placement_cost * ld.placed).sum())
    return revenue - cost


def follower_cost(inst: Instance, prices: np.ndarray, k: int,
                  fs: FollowerSolution) -> float:
    """Service k's objective: resource payments plus weighted delay cost."""
    prices = np.asarray(prices, dtype=float)
    if prices.shape != (inst.num_ens,):
        raise ValueError("price vector has wrong shape")
    if fs.x_edge.shape != (inst.num_aps, inst.num_ens):
        raise ValueError("follower x_edge has wrong shape")
    pay = inst.cloud_price * fs.y_cloud + float(prices @ fs.y_edge)
    delay = float(fs.x_cloud @ inst.delay_cloud) + float(
        (fs.x_edge * inst.delay_edge).sum())
    return pay + inst.delay_weight[k] * delay
