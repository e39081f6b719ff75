"""Reproducible instance generation.

A preferential-attachment network supplies AP-to-EN delays via shortest
paths; all remaining parameters are sampled from configured ranges with
a seeded generator, and the resulting instance records its provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from .model import Instance, validate_instance

GENERATOR_ID = "numpy.random.PCG64"

# EC2 M5 family vCPU sizes used as the EN capacity menu.
CAPACITY_MENU = (8, 16, 32, 48, 64, 96)
STORAGE_MENU = (256, 512, 1024)


@dataclass(frozen=True)
class ScenarioConfig:
    """Defaults reproduce the base-case simulation setting."""

    seed: int = 0
    topology_nodes: int = 100
    attachment_rate: int = 2
    num_aps: int = 10
    num_ens: int = 4
    num_services: int = 6
    link_delay_range: Tuple[float, float] = (2.0, 5.0)
    cloud_delay: float = 60.0
    demand_range: Tuple[float, float] = (20.0, 35.0)
    delay_cap_range: Tuple[float, float] = (30.0, 100.0)
    cloud_price: float = 0.01
    price_levels: Tuple[float, ...] = (0.01, 0.02, 0.03, 0.04, 0.05)
    fixed_cost_range: Tuple[float, float] = (0.05, 1.8)
    variable_cost_range: Tuple[float, float] = (0.04, 1.44)
    delay_weight_range: Tuple[float, float] = (1e-5, 1e-3)
    placement_cost: float = 0.02
    service_size_range: Tuple[float, float] = (10.0, 100.0)
    budget_range: Tuple[float, float] = (150.0, 300.0)
    capacity_menu: Tuple[float, ...] = CAPACITY_MENU
    storage_menu: Tuple[float, ...] = STORAGE_MENU
    allow_colocation: bool = False
    eligible: Optional[tuple] = None   # explicit (M, N, K) override

    def __post_init__(self):
        for name in ("num_aps", "num_ens", "num_services"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)}")
        if self.num_aps + self.num_ens > self.topology_nodes \
                and not self.allow_colocation:
            raise ValueError("AP + EN count exceeds topology size")
        for name in ("link_delay_range", "demand_range", "delay_cap_range",
                     "fixed_cost_range", "variable_cost_range",
                     "delay_weight_range", "service_size_range",
                     "budget_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"empty range {name}: ({lo}, {hi})")

    def config_hash(self) -> str:
        doc = asdict(self)
        doc.pop("seed")
        payload = json.dumps(doc, sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class Graph:
    """Undirected weighted network: parallel edge and delay lists."""

    num_nodes: int
    edges: List[Tuple[int, int]]
    delays: List[float]

    def delay_matrix(self) -> np.ndarray:
        u = np.array([e[0] for e in self.edges], dtype=int)
        v = np.array([e[1] for e in self.edges], dtype=int)
        w = np.array(self.delays, dtype=float)
        n = self.num_nodes
        adj = coo_matrix((np.concatenate([w, w]),
                          (np.concatenate([u, v]), np.concatenate([v, u]))),
                         shape=(n, n))
        return shortest_path(adj.tocsr(), method="D", directed=False)


def generate_topology(cfg: ScenarioConfig,
                      rng: Optional[np.random.Generator] = None) -> Graph:
    """Preferential attachment: a fully connected core of rate+1 nodes,
    then each new node draws `rate` distinct degree-proportional
    neighbours; link delays drawn uniformly from the configured range."""
    rate, n = cfg.attachment_rate, cfg.topology_nodes
    if n < rate + 1:
        raise ValueError("node count must be at least attachment rate + 1")
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    edges: List[Tuple[int, int]] = []
    degree = np.zeros(n)
    for u in range(rate + 1):
        for v in range(u + 1, rate + 1):
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    for node in range(rate + 1, n):
        weights = degree[:node] / degree[:node].sum()
        targets = rng.choice(node, size=rate, replace=False, p=weights)
        for tgt in np.sort(targets):
            edges.append((int(tgt), node))
            degree[tgt] += 1
            degree[node] += 1
    lo, hi = cfg.link_delay_range
    delays = rng.uniform(lo, hi, size=len(edges)).tolist()
    return Graph(n, edges, delays)


def shortest_path_delays(g: Graph, ap_nodes, en_nodes
                         ) -> Tuple[np.ndarray, Dict[str, object]]:
    """Exact AP-to-EN delay matrix under summed link delays, plus a
    connectivity report."""
    full = g.delay_matrix()
    d = full[np.ix_(np.asarray(ap_nodes, int), np.asarray(en_nodes, int))]
    disconnected = [(int(i), int(j)) for i, j in zip(*np.nonzero(~np.isfinite(d)))]
    if disconnected:
        raise RuntimeError(f"disconnected AP/EN pairs: {disconnected}")
    report = {"connected": True, "num_pairs": int(d.size),
              "max_delay": float(d.max(initial=0.0))}
    return d, report


def _interp(menu_value: float, menu, rng_lo: float, rng_hi: float) -> float:
    lo, hi = min(menu), max(menu)
    frac = 0.0 if hi == lo else (menu_value - lo) / (hi - lo)
    return rng_lo + frac * (rng_hi - rng_lo)


def sample_instance(cfg: ScenarioConfig) -> Instance:
    """Draw one instance; byte-identical JSON for identical (cfg, seed)."""
    rng = np.random.default_rng(cfg.seed)
    g = generate_topology(cfg, rng)
    M, N, K = cfg.num_aps, cfg.num_ens, cfg.num_services
    if cfg.allow_colocation:
        ap_nodes = rng.choice(cfg.topology_nodes, size=M, replace=False)
        en_nodes = rng.choice(cfg.topology_nodes, size=N, replace=False)
    else:
        nodes = rng.choice(cfg.topology_nodes, size=M + N, replace=False)
        ap_nodes, en_nodes = nodes[:M], nodes[M:]
    delay_edge, _ = shortest_path_delays(g, ap_nodes, en_nodes)

    demand = rng.uniform(*cfg.demand_range, size=(M, K))
    delay_cap = rng.uniform(*cfg.delay_cap_range, size=K)
    caps = np.asarray(cfg.capacity_menu, float)[
        rng.integers(0, len(cfg.capacity_menu), size=N)]
    storage = np.asarray(cfg.storage_menu, float)[
        rng.integers(0, len(cfg.storage_menu), size=N)]
    # Operating costs scale with the size of the EN.
    fixed = np.array([_interp(c, cfg.capacity_menu, *cfg.fixed_cost_range)
                      for c in caps])
    variable = np.array([_interp(c, cfg.capacity_menu,
                                 *cfg.variable_cost_range) for c in caps])
    weight = rng.uniform(*cfg.delay_weight_range, size=K)
    size = rng.uniform(*cfg.service_size_range, size=K)
    budget = rng.uniform(*cfg.budget_range, size=K)
    delay_cloud = np.full(M, cfg.cloud_delay)
    if cfg.eligible is not None:
        eligible = np.asarray(cfg.eligible, int)
    else:
        # Reachable iff the edge path beats the service's delay cap.
        eligible = (delay_edge[:, :, None]
                    <= delay_cap[None, None, :]).astype(int)
    inst = Instance(
        num_aps=M, num_ens=N, num_services=K,
        num_price_levels=len(cfg.price_levels),
        demand=demand, delay_edge=delay_edge, delay_cloud=delay_cloud,
        cloud_price=cfg.cloud_price,
        price_grid=np.tile(np.asarray(cfg.price_levels, float), (N, 1)),
        compute_cap=caps, storage_cap=storage, fixed_cost=fixed,
        variable_cost=variable,
        placement_cost=np.full((N, K), cfg.placement_cost),
        service_size=size, budget=budget, delay_weight=weight,
        delay_cap=delay_cap, eligible=eligible,
        provenance={"seed": int(cfg.seed), "config_hash": cfg.config_hash(),
                    "generator": GENERATOR_ID,
                    "ap_nodes": [int(x) for x in ap_nodes],
                    "en_nodes": [int(x) for x in en_nodes]},
    )
    report = validate_instance(inst)
    if not report.ok:
        raise RuntimeError(f"generated instance invalid: {report.violations}")
    return inst
