"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from arcticauction import strong, weak
from arcticauction.core import MarketInstance, compute_stats
from arcticauction.graph import MarketState, bang_per_buck_view
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


def priced(prices) -> MarketState:
    """A state with the given prices and no spending or refunds; its first
    bang-per-buck view call computes every ratio afresh."""
    return MarketState(prices=dict(prices), spending={}, refunds={})


def alphas_of(inst: MarketInstance, state: MarketState) -> dict:
    """Every buyer's best bang-per-buck, normalized from the pairs of the
    state's bang-per-buck view."""
    view = bang_per_buck_view(inst, state)
    return {b: Fraction(*view.best_pair(b)) for b in inst.buyers}


def alphas_at(inst: MarketInstance, prices) -> dict:
    """Every buyer's bang-per-buck at ``prices``, read off a fresh view."""
    return alphas_of(inst, priced(prices))


def equality_graph_at(inst: MarketInstance, prices) -> set:
    """The equality graph at ``prices``, read off a fresh view."""
    return bang_per_buck_view(inst, priced(prices)).edges


def wide_instance(seed, n_range=(10, 20), max_exp=14):
    """A random market with budgets in ``2^0 .. 2^max_exp``; such spreads
    drive the strong solver into a compressed restart."""
    rng = random.Random(seed)
    base = random_instance(rng.randint(*n_range), rng)
    budgets = {b: Fraction(2 ** rng.randint(0, max_exp)) for b in base.buyers}
    return MarketInstance(
        buyers=base.buyers, goods=base.goods, budgets=budgets, utilities=base.utilities
    )


def kbit_instance(seed, k):
    """The market of ``random_instance(10, Random(seed))`` with its budgets
    and utilities redrawn from ``1 .. 2^k``: the same buyers, goods and
    edges, written with numbers of up to ``k`` bits."""
    base = random_instance(10, random.Random(seed))
    rng = random.Random(seed * 1000 + k)
    top = 2**k
    return MarketInstance(
        buyers=base.buyers,
        goods=base.goods,
        budgets={b: Fraction(rng.randint(1, top)) for b in base.buyers},
        utilities={e: Fraction(rng.randint(1, top)) for e in base.utilities},
    )


def lean_sigma(inst: MarketInstance) -> Fraction:
    """A perturbation magnitude well inside the invariant bound but with a
    small denominator, keeping the halving solver's phase count down."""
    stats = compute_stats(inst)
    return Fraction(1, 4 * stats.n * stats.m) / stats.u_max


def check_nondecreasing(starts) -> None:
    """No price and no refund falls from one phase start to the next."""
    for (prices, refunds), (later_prices, later_refunds) in zip(starts, starts[1:]):
        for g, p in prices.items():
            assert later_prices[g] >= p
        for b, r in refunds.items():
            assert later_refunds.get(b, Fraction(0)) >= r


def check_step_lines(trace) -> None:
    """The step lines of ``trace.to_lines()`` are the trace rows in order:
    ``row.steps`` lines each, chaining from ``row.phi_before`` down to
    ``row.phi_after`` by one per line."""
    lines = iter(line for line in trace.to_lines() if line["event"] == "step")
    for row in trace.rows:
        phi = row.phi_before
        for _ in range(row.steps):
            line = next(lines)
            assert (line["phase"], line["kind"], line["subject"]) == (
                row.phase,
                row.kind,
                row.subject,
            )
            assert (line["phi_before"], line["phi_after"]) == (phi, phi - 1)
            phi -= 1
        assert phi == row.phi_after, (
            f"{row.kind} row {row.phi_before} -> {row.phi_after}"
            f" published as {row.steps} step(s) ending at {phi}"
        )
    assert next(lines, None) is None, "step line without a row"


@pytest.fixture
def phase_starts(monkeypatch):
    """Copies of ``ss.market.prices`` and ``ss.market.refunds`` at each
    phase start of the solver runs in a test, in order, collected by
    wrapping ``start_phase`` where both solvers call it."""
    starts: list[tuple[dict, dict]] = []
    original = weak.start_phase

    def recording(inst, ss, *args):
        mark = original(inst, ss, *args)
        starts.append((dict(ss.market.prices), dict(ss.market.refunds)))
        return mark

    for module in (weak, strong):
        monkeypatch.setattr(module, "start_phase", recording)
    return starts


@pytest.fixture
def one_buyer_one_good():
    return make_instance({"b1": 1}, {("b1", "g1"): 2})
