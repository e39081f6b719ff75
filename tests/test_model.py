"""Data model: serialization round trip, checks on construction, scaling,
objectives."""

import dataclasses
import re

import numpy as np
import pytest

from edgemarket.model import (FollowerSolution, Instance, LeaderDecision,
                              ScalingFactors, follower_cost, leader_profit,
                              scale_instance)

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
    inst = tiny_instance(3)
    assert dataclasses.replace(inst).to_json() == inst.to_json()
    clone = dataclasses.replace(inst, num_aps=float(inst.num_aps))
    assert type(clone.num_aps) is int and clone.num_aps == inst.num_aps


def test_validate_flags_each_violation_family():
    """Building an instance that breaks the model raises ValueError with
    each violation's message, one case per message."""
    inst = tiny_instance(3)
    grid = np.array(inst.price_grid)
    grid[0] = grid[0, ::-1]
    nan_delay = np.array(inst.delay_edge)
    nan_delay[0, 0] = np.nan
    eligible = np.array(inst.eligible)
    eligible[0, 0, 0] = 2
    cases = [
        ({"num_aps": 0}, "numAps must be at least 1, got 0"),
        ({"num_ens": 0}, "numEns must be at least 1, got 0"),
        ({"num_services": 0}, "numServices must be at least 1, got 0"),
        ({"num_price_levels": 0}, "numPriceLevels must be at least 1, got 0"),
        ({"demand": np.ones((inst.num_aps + 1, inst.num_services))},
         "demand has shape"),
        ({"eligible": eligible[..., :0]}, "eligible has shape"),
        ({"delay_edge": nan_delay}, "delay_edge contains non-finite entries"),
        ({"demand": -inst.demand}, "negative demand at (0,0)"),
        ({"delay_edge": -inst.delay_edge}, "negative edge delay at"),
        ({"delay_cloud": -inst.delay_cloud}, "negative cloud delay at 0"),
        ({"cloud_price": np.inf}, "cloud_price is non-finite"),
        ({"cloud_price": np.nan}, "cloud_price is non-finite"),
        ({"cloud_price": 0.0}, "cloudPrice must be > 0"),
        ({"price_grid": grid}, "priceGrid not ascending at j=0"),
        ({"delay_weight": -inst.delay_weight}, "negative delayWeight at 0"),
        ({"eligible": eligible}, "eligible entry not binary at"),
    ]
    for name, label in (("compute_cap", "computeCap"),
                        ("storage_cap", "storageCap"),
                        ("service_size", "serviceSize"), ("budget", "budget"),
                        ("delay_cap", "delayCap")):
        cases.append(({name: 0 * getattr(inst, name)},
                      f"non-positive {label} at 0"))
    for change, message in cases:
        with pytest.raises(ValueError, match="^invalid instance: .*"
                           + re.escape(message)):
            dataclasses.replace(inst, **change)

    # Index checks assume the declared shapes, so a shape error is
    # reported alone.
    with pytest.raises(ValueError) as err:
        dataclasses.replace(inst, demand=np.ones((1, 1)), cloud_price=0.0)
    assert "demand has shape" in str(err.value)
    assert "cloudPrice" not in str(err.value)


@pytest.mark.parametrize("field, value, message", [
    pytest.param("num_aps", lambda inst: inst.num_aps + 0.5,
                 "numAps must be a whole number, got 3.5", id="count"),
    pytest.param("num_price_levels", lambda inst: np.nan,
                 "numPriceLevels must be a whole number, got nan", id="nan"),
    pytest.param("eligible",
                 lambda inst: np.where(inst.eligible == 1, 0.7, 0.0),
                 "eligible must be a whole number, got 0.7", id="eligible"),
])
def test_instance_refuses_what_a_cast_would_truncate(field, value, message):
    """A count or eligibility entry that is not a whole number is refused,
    not truncated into a smaller or emptier instance."""
    inst = tiny_instance(3)
    assert inst.num_aps == 3
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(inst, **{field: value(inst)})


def test_leader_decision_refuses_non_integral_entries():
    """A fractional price level or a placement or activation outside
    {0, 1} is refused, not truncated."""
    ok = dict(price_level=[0, 1], price=[0.01, 0.03], active=[1, 1],
              placed=[[1], [0]])
    LeaderDecision(**ok)
    for field, value, message in (
            ("price_level", [0.6, 1], "price_level must be a whole number"),
            ("active", [1, 2], "active must be 0 or 1, got 2.0"),
            ("placed", [[0.5], [1]], "placed must be 0 or 1, got 0.5")):
        with pytest.raises(ValueError, match=re.escape(message)):
            LeaderDecision(**{**ok, field: value})


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
