"""Data model: serialization round trip, validation, scaling, objectives."""

import dataclasses

import numpy as np
import pytest

from edgemarket.model import (FollowerSolution, Instance, LeaderDecision,
                              ScalingFactors, follower_cost, leader_profit,
                              scale_instance, validate_instance)

from conftest import tiny_instance


def test_json_round_trip_is_exact():
    inst = tiny_instance(1)
    clone = Instance.from_json(inst.to_json())
    for f in dataclasses.fields(Instance):
        a, b = getattr(inst, f.name), getattr(clone, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    assert inst.to_json() == clone.to_json()


def test_json_rejects_unknown_schema_version():
    text = tiny_instance(1).to_json().replace('"schema_version": 1',
                                              '"schema_version": 99')
    with pytest.raises(ValueError, match="schema_version"):
        Instance.from_json(text)


def test_instance_arrays_are_immutable():
    inst = tiny_instance(2)
    with pytest.raises(ValueError):
        inst.demand[0, 0] = 5.0


def test_validate_accepts_generated_instance():
    assert validate_instance(tiny_instance(3)).ok


def test_validate_flags_each_violation_family():
    inst = tiny_instance(3)
    bad_demand = dataclasses.replace(inst, demand=-inst.demand)
    rep = validate_instance(bad_demand)
    assert any("negative demand" in v for v in rep.violations)

    grid = np.array(inst.price_grid)
    grid[0] = grid[0, ::-1]
    rep = validate_instance(dataclasses.replace(inst, price_grid=grid))
    assert any("not ascending" in v for v in rep.violations)

    rep = validate_instance(dataclasses.replace(inst, budget=0 * inst.budget))
    assert any("budget" in v for v in rep.violations)

    wrong = np.ones((inst.num_aps + 1, inst.num_services))
    rep = validate_instance(dataclasses.replace(inst, demand=wrong))
    assert any("demand has shape" in v for v in rep.violations)

    nan_delay = np.array(inst.delay_edge)
    nan_delay[0, 0] = np.nan
    eligible = np.array(inst.eligible)
    eligible[0, 0, 0] = 2
    for change, message in (
            ({"delay_edge": nan_delay}, "delay_edge contains non-finite"),
            ({"delay_edge": -inst.delay_edge}, "negative edge delay"),
            ({"delay_cloud": -inst.delay_cloud}, "negative cloud delay"),
            ({"cloud_price": 0.0}, "cloudPrice must be > 0"),
            ({"cloud_price": np.inf}, "cloud_price is non-finite"),
            ({"cloud_price": np.nan}, "cloud_price is non-finite"),
            ({"num_services": 0}, "numServices must be at least 1"),
            ({"delay_weight": -inst.delay_weight}, "negative delayWeight"),
            ({"eligible": eligible}, "eligible entry not binary")):
        rep = validate_instance(dataclasses.replace(inst, **change))
        assert not rep.ok and any(message in v for v in rep.violations), \
            (message, rep.violations)


def test_scale_instance_applies_all_factors():
    inst = tiny_instance(4)
    f = ScalingFactors(demand_scale=2.0, penalty_scale=3.0,
                       capacity_scale=0.5, cloud_price_scale=1.5)
    out = scale_instance(inst, f)
    assert np.allclose(out.demand, 2.0 * inst.demand)
    assert np.allclose(out.delay_weight, 3.0 * inst.delay_weight)
    assert np.allclose(out.compute_cap, 0.5 * inst.compute_cap)
    assert out.cloud_price == pytest.approx(1.5 * inst.cloud_price)
    # untouched fields stay identical
    assert np.array_equal(out.delay_edge, inst.delay_edge)
    assert np.array_equal(out.budget, inst.budget)


def test_scale_instance_rejects_nonpositive_factors():
    inst = tiny_instance(4)
    with pytest.raises(ValueError):
        scale_instance(inst, ScalingFactors(demand_scale=0.0))
    with pytest.raises(ValueError):
        scale_instance(inst, ScalingFactors(penalty_scale=-1.0))


def _hand_instance():
    """M=1, N=1, K=1 instance small enough to evaluate by hand."""
    return Instance(
        num_aps=1, num_ens=1, num_services=1, num_price_levels=2,
        demand=[[10.0]], delay_edge=[[5.0]], delay_cloud=[60.0],
        cloud_price=0.01, price_grid=[[0.02, 0.04]], compute_cap=[20.0],
        storage_cap=[100.0], fixed_cost=[1.0], variable_cost=[0.5],
        placement_cost=[[0.1]], service_size=[10.0], budget=[100.0],
        delay_weight=[0.001], delay_cap=[80.0], eligible=[[[1]]])


def test_leader_profit_by_hand():
    inst = _hand_instance()
    ld = LeaderDecision(price_level=[0], price=[0.02], active=[1],
                        placed=[[1]])
    fs = FollowerSolution(x_cloud=[4.0], x_edge=[[6.0]], y_cloud=4.0,
                          y_edge=[6.0], avg_delay=[27.0], cost=0.0)
    # revenue 0.02*6, fixed 1, utilization 0.5*6/20, placement 0.1
    expected = 0.12 - 1.0 - 0.15 - 0.1
    assert leader_profit(inst, ld, [fs]) == pytest.approx(expected)


def test_follower_cost_by_hand():
    inst = _hand_instance()
    fs = FollowerSolution(x_cloud=[4.0], x_edge=[[6.0]], y_cloud=4.0,
                          y_edge=[6.0], avg_delay=[27.0], cost=0.0)
    # pay 0.01*4 + 0.02*6; delay 0.001*(4*60 + 6*5)
    expected = 0.04 + 0.12 + 0.001 * 270
    assert follower_cost(inst, [0.02], 0, fs) == pytest.approx(expected)


def test_objective_helpers_reject_bad_shapes():
    inst = _hand_instance()
    ld = LeaderDecision(price_level=[0], price=[0.02], active=[1],
                        placed=[[1]])
    fs = FollowerSolution(x_cloud=[4.0], x_edge=[[6.0]], y_cloud=4.0,
                          y_edge=[6.0, 1.0], avg_delay=[27.0], cost=0.0)
    with pytest.raises(ValueError):
        leader_profit(inst, ld, [fs])
    with pytest.raises(ValueError):
        leader_profit(inst, ld, [])
    with pytest.raises(ValueError):
        follower_cost(inst, [0.02, 0.03], 0, fs)
