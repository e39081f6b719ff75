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


@pytest.fixture(scope="session")
def base_instance():
    """The full-size base case (M=10, N=4, K=6, V=5)."""
    return sample_instance(ScenarioConfig(seed=0))
