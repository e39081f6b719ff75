"""Shared fixtures and helpers for the test suite."""

import dataclasses

import numpy as np
import pytest

from edgemarket.scenario import ScenarioConfig, sample_instance

TINY_PRICES = (0.01, 0.03, 0.05)


def tiny_config(seed, num_aps=None, num_ens=None, num_services=None,
                **overrides):
    """Small randomized instance dimensions driven by the seed itself,
    kept within the oracle's enumeration budget (M<=3, N<=2, K<=2, V=3)."""
    rng = np.random.default_rng(seed)
    return ScenarioConfig(
        seed=seed,
        num_aps=num_aps if num_aps is not None else int(rng.integers(1, 4)),
        num_ens=num_ens if num_ens is not None else int(rng.integers(1, 3)),
        num_services=(num_services if num_services is not None
                      else int(rng.integers(1, 3))),
        price_levels=overrides.pop("price_levels", TINY_PRICES),
        **overrides,
    )


def tiny_instance(seed, **overrides):
    return sample_instance(tiny_config(seed, **overrides))


def tight_budget(inst):
    """``inst`` with each budget just above 60% of the most its service
    can spend, so the budget row can bind and
    ``_milp_base.zero_multipliers`` proves no budget multiplier 0."""
    top = max(inst.cloud_price, inst.price_grid.max())
    return dataclasses.replace(
        inst, budget=0.6 * top * inst.demand.sum(axis=0) + 0.3)


def drawn_variant(inst, seed):
    """``inst``, meant as ``tiny_instance(seed)``, with its prices, delays
    and budgets redrawn from ``default_rng(10000 + seed)``: the cloud
    price uniform on 0.005-0.05, each delay weight log-uniform on
    1e-4-3e-2, the cloud delays scaled by one uniform factor in 0-1, and
    each budget at 0.2-1.1 times the most its service can spend. Budgets
    and delay caps both bind across this family."""
    rng = np.random.default_rng(10000 + seed)
    cloud_price = rng.uniform(0.005, 0.05)
    weight = np.exp(rng.uniform(np.log(1e-4), np.log(3e-2),
                                inst.num_services))
    delay_cloud = inst.delay_cloud * rng.uniform(0.0, 1.0)
    top = max(cloud_price, inst.price_grid.max())
    budget = (rng.uniform(0.2, 1.1, inst.num_services)
              * top * inst.demand.sum(axis=0))
    return dataclasses.replace(inst, cloud_price=cloud_price,
                               delay_weight=weight, delay_cloud=delay_cloud,
                               budget=budget)


@pytest.fixture(scope="session")
def base_instance():
    """The full-size base case (M=10, N=4, K=6, V=5)."""
    return sample_instance(ScenarioConfig(seed=0))
