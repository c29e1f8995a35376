"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from arcticauction.core import MarketInstance, compute_stats
from arcticauction.randgen import random_instance


def make_instance(budgets, utilities) -> MarketInstance:
    """Shorthand: budgets {buyer: value}, utilities {(buyer, good): value}."""
    buyers = tuple(budgets)
    goods_seen = []
    for _, g in utilities:
        if g not in goods_seen:
            goods_seen.append(g)
    return MarketInstance(
        buyers=buyers,
        goods=tuple(goods_seen),
        budgets={b: Fraction(v) for b, v in budgets.items()},
        utilities={k: Fraction(v) for k, v in utilities.items()},
    )


def wide_instance(seed, n_range=(10, 20), max_exp=14):
    """A random market with budgets in ``2^0 .. 2^max_exp``; such spreads
    drive the strong solver into a compressed restart."""
    rng = random.Random(seed)
    base = random_instance(rng.randint(*n_range), rng)
    budgets = {b: Fraction(2 ** rng.randint(0, max_exp)) for b in base.buyers}
    return MarketInstance(
        buyers=base.buyers, goods=base.goods, budgets=budgets, utilities=base.utilities
    )


def lean_sigma(inst: MarketInstance) -> Fraction:
    """A perturbation magnitude well inside the invariant bound but with a
    small denominator, keeping the halving solver's phase count down."""
    stats = compute_stats(inst)
    return Fraction(1, 4 * stats.n * stats.m) / stats.u_max


@pytest.fixture
def one_buyer_one_good():
    return make_instance({"b1": 1}, {("b1", "g1"): 2})
