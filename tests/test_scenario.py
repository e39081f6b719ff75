"""Instance generator: topology shape, shortest paths against a
brute-force oracle, determinism and parameter ranges."""

import itertools

import numpy as np
import pytest

from edgemarket.scenario import (Graph, ScenarioConfig, generate_topology,
                                 sample_instance, shortest_path_delays)


def test_topology_edge_count_base_case():
    g = generate_topology(ScenarioConfig(seed=0))
    # core clique of rate+1 nodes plus rate edges per later node:
    # 3 + 97 * 2 = 197
    assert g.num_nodes == 100
    assert len(g.edges) == 197
    assert len(g.delays) == 197


def test_topology_degree_distribution_is_heavy_tailed():
    g = generate_topology(ScenarioConfig(seed=1, topology_nodes=400))
    degree = np.zeros(g.num_nodes)
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
    assert degree.min() >= 2
    # preferential attachment produces hubs far above the mean
    assert degree.max() >= 4 * degree.mean()


def test_topology_link_delays_within_range():
    cfg = ScenarioConfig(seed=2, link_delay_range=(2.0, 5.0))
    g = generate_topology(cfg)
    assert all(2.0 <= d <= 5.0 for d in g.delays)


def _dijkstra_oracle(g, src):
    """Textbook O(n^2) Dijkstra for the test's 6-node graphs."""
    dist = {v: float("inf") for v in range(g.num_nodes)}
    dist[src] = 0.0
    adj = {v: [] for v in range(g.num_nodes)}
    for (u, v), w in zip(g.edges, g.delays):
        adj[u].append((v, w))
        adj[v].append((u, w))
    todo = set(range(g.num_nodes))
    while todo:
        u = min(todo, key=dist.get)
        todo.remove(u)
        for v, w in adj[u]:
            dist[v] = min(dist[v], dist[u] + w)
    return dist


def test_shortest_paths_match_brute_force_on_small_graph():
    g = Graph(num_nodes=6,
              edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)],
              delays=[1.0, 2.0, 1.5, 2.5, 1.0, 4.0, 0.5])
    d, report = shortest_path_delays(g, ap_nodes=[0, 2], en_nodes=[3, 5])
    assert report["connected"]
    for a, i in zip([0, 2], range(2)):
        oracle = _dijkstra_oracle(g, a)
        for e, j in zip([3, 5], range(2)):
            assert d[i, j] == pytest.approx(oracle[e], abs=1e-12)


def test_shortest_paths_raise_on_disconnection():
    g = Graph(num_nodes=4, edges=[(0, 1), (2, 3)], delays=[1.0, 1.0])
    with pytest.raises(RuntimeError, match="disconnected"):
        shortest_path_delays(g, [0], [2])


def test_same_seed_same_json():
    cfg = ScenarioConfig(seed=123)
    a = sample_instance(cfg).to_json()
    b = sample_instance(cfg).to_json()
    assert a == b


def test_different_seed_different_instance():
    a = sample_instance(ScenarioConfig(seed=1)).to_json()
    b = sample_instance(ScenarioConfig(seed=2)).to_json()
    assert a != b


def test_base_case_ranges_and_shapes():
    cfg = ScenarioConfig(seed=5)
    inst = sample_instance(cfg)
    assert (inst.num_aps, inst.num_ens, inst.num_services,
            inst.num_price_levels) == (10, 4, 6, 5)
    assert np.all((inst.demand >= 20.0) & (inst.demand <= 35.0))
    assert np.all((inst.delay_cap >= 30.0) & (inst.delay_cap <= 100.0))
    assert np.all((inst.delay_weight >= 1e-5) & (inst.delay_weight <= 1e-3))
    assert np.all((inst.budget >= 150.0) & (inst.budget <= 300.0))
    assert np.all((inst.service_size >= 10.0) & (inst.service_size <= 100.0))
    assert np.all(np.isin(inst.compute_cap, cfg.capacity_menu))
    assert np.all(np.isin(inst.storage_cap, cfg.storage_menu))
    assert np.all(inst.delay_cloud == 60.0)
    assert inst.cloud_price == 0.01
    assert np.allclose(inst.price_grid, [0.01, 0.02, 0.03, 0.04, 0.05])
    assert np.all(inst.placement_cost == 0.02)
    # operating costs are interpolated within their configured ranges
    assert np.all((inst.fixed_cost >= 0.05) & (inst.fixed_cost <= 1.8))
    assert np.all((inst.variable_cost >= 0.04) & (inst.variable_cost <= 1.44))


def test_cost_interpolation_scales_with_capacity():
    inst = sample_instance(ScenarioConfig(seed=11))
    order = np.argsort(inst.compute_cap)
    assert np.all(np.diff(inst.fixed_cost[order]) >= -1e-12)
    assert np.all(np.diff(inst.variable_cost[order]) >= -1e-12)


def test_eligibility_follows_delay_cap():
    inst = sample_instance(ScenarioConfig(seed=7))
    expected = (inst.delay_edge[:, :, None]
                <= inst.delay_cap[None, None, :]).astype(int)
    assert np.array_equal(inst.eligible, expected)


def test_eligible_override_is_used():
    ones = tuple(tuple(tuple(1 for _ in range(6)) for _ in range(4))
                 for _ in range(10))
    inst = sample_instance(ScenarioConfig(seed=7, eligible=ones))
    assert inst.eligible.all()


def test_provenance_recorded():
    cfg = ScenarioConfig(seed=9)
    inst = sample_instance(cfg)
    prov = inst.provenance
    assert prov["seed"] == 9
    assert prov["generator"] == "numpy.random.PCG64"
    assert prov["config_hash"] == cfg.config_hash()
    assert len(prov["ap_nodes"]) == 10 and len(prov["en_nodes"]) == 4
    assert not set(prov["ap_nodes"]) & set(prov["en_nodes"])


def test_config_hash_ignores_seed_only():
    a = ScenarioConfig(seed=1)
    b = ScenarioConfig(seed=2)
    c = ScenarioConfig(seed=1, num_aps=5)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_config_counts_must_be_whole():
    """A count that is not a whole number is refused, not truncated; a
    whole float is stored as an int, so the config and its hash equal
    the int-built ones."""
    for name in ("num_aps", "num_ens", "num_services"):
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            ScenarioConfig(**{name: 2.5})
    a = ScenarioConfig(num_aps=3.0, num_ens=2.0, num_services=1.0)
    b = ScenarioConfig(num_aps=3, num_ens=2, num_services=1)
    assert type(a.num_aps) is int and a == b
    assert a.config_hash() == b.config_hash()


def test_config_rejects_oversubscribed_topology():
    with pytest.raises(ValueError, match="topology"):
        ScenarioConfig(topology_nodes=10, num_aps=8, num_ens=4)
    # colocation lifts the restriction
    ScenarioConfig(topology_nodes=10, num_aps=8, num_ens=4,
                   allow_colocation=True)


def test_config_rejects_empty_ranges():
    with pytest.raises(ValueError, match="range"):
        ScenarioConfig(demand_range=(5.0, 1.0))
