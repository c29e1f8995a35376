"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import random
from fractions import Fraction

import pytest

from arcticauction import strong, weak
from arcticauction.core import MarketInstance, compute_stats
from arcticauction.graph import MarketState
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


# The solvers run on the instance's index (buyer, good and edge ids as
# ints); these helpers let a test name things by id strings instead.


def state_of(inst: MarketInstance, prices, spending=(), refunds=()) -> MarketState:
    """A state from amounts keyed by id strings: ``prices`` by good (every
    good), ``spending`` by (buyer, good), ``refunds`` by buyer (absent
    ones zero)."""
    spending, refunds = dict(spending), dict(refunds)
    return MarketState(
        inst,
        [Fraction(prices[g]) for g in inst.goods],
        {inst.edge_id[e]: Fraction(v) for e, v in spending.items()},
        [Fraction(refunds.get(b, 0)) for b in inst.buyers],
    )


def scaled_state(
    inst: MarketInstance,
    prices,
    spending=(),
    refunds=(),
    delta=1,
    initial=None,
) -> MarketState:
    """A solver state from amounts keyed by id strings, as :func:`state_of`
    builds it, with the ``initial`` prices by good (``prices`` when None),
    counting in units of ``delta``: every amount it is built from is a
    fixed part, as in a restart's state."""
    market = state_of(inst, prices, spending, refunds)
    if initial is not None:
        market.initial_prices = [Fraction(initial[g]) for g in inst.goods]
    market.rescale(Fraction(delta))
    return market


def priced(inst: MarketInstance, prices) -> MarketState:
    """A state with the given prices and no spending or refunds; its first
    read of the bang-per-buck view computes every ratio afresh."""
    return state_of(inst, prices)


def edge_ids(inst: MarketInstance, edges) -> set:
    """Edges named (buyer, good) as edge ids."""
    return {inst.edge_id[e] for e in edges}


def edge_names(inst: MarketInstance, ids) -> set:
    """Edge ids as (buyer, good) names."""
    return {inst.edge_names[e] for e in ids}


def buyer_node(inst: MarketInstance, buyer: str) -> int:
    return inst.buyer_pos[buyer]


def good_node(inst: MarketInstance, good: str) -> int:
    return len(inst.buyers) + inst.good_pos[good]


def prices_of(inst: MarketInstance, state: MarketState) -> dict:
    """The state's prices by good id."""
    return dict(zip(inst.goods, state.prices))


def spending_of(inst: MarketInstance, state: MarketState) -> dict:
    """The state's non-zero spending by (buyer, good)."""
    return {inst.edge_names[e]: v for e, v in state.spending.items()}


def refunds_of(inst: MarketInstance, state: MarketState) -> dict:
    """The state's non-zero refunds by buyer id."""
    return {b: r for b, r in zip(inst.buyers, state.refunds) if r}


def alphas_of(inst: MarketInstance, state: MarketState) -> dict:
    """Every buyer's best bang-per-buck, normalized from the pairs of the
    state's bang-per-buck view."""
    view = state.bang_per_buck
    return {b: Fraction(*view.best_pair(k)) for k, b in enumerate(inst.buyers)}


def alphas_at(inst: MarketInstance, prices) -> dict:
    """Every buyer's bang-per-buck at ``prices``, read off a fresh view."""
    return alphas_of(inst, priced(inst, prices))


def equality_graph_at(inst: MarketInstance, prices) -> set:
    """The equality graph at ``prices``, as (buyer, good) names, read off a
    fresh view."""
    return edge_names(inst, priced(inst, prices).bang_per_buck.edges)


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
    """Copies of ``market.prices`` and ``market.refunds``, by id
    string, at each phase start of the solver runs in a test, in order,
    collected by wrapping ``start_phase`` where both solvers call it."""
    starts: list[tuple[dict, dict]] = []
    original = weak.start_phase

    def recording(inst, market, *args):
        mark = original(inst, market, *args)
        starts.append((prices_of(inst, market), refunds_of(inst, market)))
        return mark

    for module in (weak, strong):
        monkeypatch.setattr(module, "start_phase", recording)
    return starts


class SpendingSnapshots:
    """Copies of ``market.spending``, by edge id, at each phase start
    and end of the solver runs while it is installed, collected by
    wrapping ``start_phase`` and ``run_inner_loop`` where both solvers call
    them.  The solvers keep no such copies: their drift check counts the
    units each edge moves, and these snapshots let a test replay it."""

    def __init__(self, monkeypatch):
        self._runs: dict[int, tuple[object, list]] = {}
        start, inner = weak.start_phase, weak.run_inner_loop

        def starting(inst, market, stats, trace, *args):
            mark = start(inst, market, stats, trace, *args)
            run = self._runs.setdefault(id(trace), (trace, []))[1]
            run.append([dict(market.spending), None])
            return mark

        def ending(inst, market, trace, phase):
            inner(inst, market, trace, phase)
            self._runs[id(trace)][1][-1][1] = dict(market.spending)

        for module in (weak, strong):
            monkeypatch.setattr(module, "start_phase", starting)
            monkeypatch.setattr(module, "run_inner_loop", ending)

    def of(self, trace) -> list:
        """The (start, end) spending of each phase of ``trace``, in order;
        the end is None for a phase whose inner loop did not finish."""
        return [tuple(pair) for pair in self._runs[id(trace)][1]]

    def clear(self) -> None:
        """Forget every run recorded so far."""
        self._runs.clear()


@contextlib.contextmanager
def recorded_spending():
    """:class:`SpendingSnapshots` installed for the ``with`` block, for
    fixtures wider than one test."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        yield SpendingSnapshots(monkeypatch)


@pytest.fixture
def phase_spending(monkeypatch):
    """:class:`SpendingSnapshots` of the solver runs in a test."""
    return SpendingSnapshots(monkeypatch)


@pytest.fixture
def one_buyer_one_good():
    return make_instance({"b1": 1}, {("b1", "g1"): 2})
