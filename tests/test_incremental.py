"""Incremental views of the market state against direct recomputations.

The rational spending and refunds, the potential, the optimality test,
bang-per-buck with its signs against one, the equality graph, the
returnable edges and the feasibility check each catch up from the items
the state's mutators touched since that view last read them.  These tests
recompute each of them from the raw state (each amount a count of the
scale plus a fixed part) after every solver step, right after every
halving, and after random mutation sequences in which each view is read
at its own moments, and drive bad changes through the mutators and
through halvings (a rescale by a whole factor, which each view follows
instead of starting over) to check that the incremental feasibility check
reports exactly what a full sweep reports.  The genericity check, which
reads the solver's live bang-per-buck view and hands out its last
immutable report while the view's version stands still, must report the
same on a fresh copy of the state.  Every price raise of both
solvers is checked against the multiplier formula written with ``Q``
arithmetic, and every residual search tree a raise keeps against a fresh
search: its cached inflow pairs against the state's, and the terminal the
raise names against a rescan of the tree.  Named cases pin when a
re-priced good rescans a buyer.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from arcticauction import strong, weak
from arcticauction.core import PerturbationConfig, default_magnitude, perturb
from arcticauction.graph import (
    RESCALED,
    MarketState,
    bang_per_buck_view,
    reach,
)
from arcticauction.oracle import check_genericity
from arcticauction.randgen import random_instance
from arcticauction.rational import Q
from arcticauction.weak import (
    ScalingState,
    is_delta_feasible,
    is_delta_optimal,
    potential,
    returnable_edges,
)

import test_weak
from conftest import alphas_of, lean_sigma, make_instance, wide_instance


# --- direct recomputations from the raw state --------------------------------


def amount(market, units, fixed):
    """``units`` of the market's scale plus ``fixed``, as a ``Fraction``."""
    value = Fraction(fixed or 0)
    return value + units * market.unit if units else value


def raw_spending(market):
    """Every edge's spending, from its count and fixed part."""
    edges = {**market.edge_fixed, **market.edge_units}
    return {
        e: amount(market, market.edge_units.get(e, 0), market.edge_fixed.get(e))
        for e in edges
    }


def raw_refunds(market):
    """Every booked refund, from its count and fixed part."""
    buyers = {**market.refund_fixed, **market.refund_units}
    return {
        b: amount(market, market.refund_units.get(b, 0), market.refund_fixed.get(b))
        for b in buyers
    }


def direct_cash(inst, market, buyer):
    spent = sum(
        (v for (b, _), v in raw_spending(market).items() if b == buyer), Fraction(0)
    )
    return inst.budgets[buyer] - raw_refunds(market).get(buyer, Fraction(0)) - spent


def direct_potential(inst, ss):
    return sum(
        (direct_cash(inst, ss.market, b) // ss.delta for b in inst.buyers), 0
    )


def direct_alphas(inst, prices):
    return {
        b: max(u / prices[g] for (b2, g), u in inst.utilities.items() if b2 == b)
        for b in inst.buyers
    }


def direct_equality_graph(inst, prices):
    alphas = direct_alphas(inst, prices)
    return {(b, g) for (b, g), u in inst.utilities.items() if u / prices[g] == alphas[b]}


def direct_returnable(ss):
    return {
        e
        for e, v in raw_spending(ss.market).items()
        if v > 0 and (e not in ss.exempt_edges or v >= ss.delta)
    }


def direct_sign(value):
    return (value > 0) - (value < 0)


def fresh_copy(ss):
    """The same state in new objects, so its first check is a full sweep."""
    market = MarketState(
        prices=dict(ss.market.prices),
        spending=dict(ss.market.spending),
        refunds=dict(ss.market.refunds),
    )
    copy = ScalingState(
        market=market, delta=Fraction(ss.delta), initial_prices=dict(ss.initial_prices)
    )
    copy.exempt_edges = set(ss.exempt_edges)
    copy.allowed_deficit = dict(ss.allowed_deficit)
    return copy


def assert_values_match(inst, ss):
    """The rational views are ``count * delta + fixed`` of every edge and
    buyer, no edge holds zero, and each buyer's and good's count and fixed
    sums are those of its edges, with the rational sums to match."""
    market = ss.market
    spending = raw_spending(market)
    assert market.spending == spending
    assert 0 not in spending.values()
    assert market.refunds == raw_refunds(market)
    for side, units, fixed, rational in (
        (0, market.spent_units, market.spent_fixed, market.spent_by),
        (1, market.inflow_units, market.inflow_fixed, market.inflow),
    ):
        for node in inst.goods if side else inst.buyers:
            edges = [e for e in spending if e[side] == node]
            assert units.get(node, 0) == sum(market.edge_units.get(e, 0) for e in edges)
            assert fixed.get(node, 0) == sum(
                (market.edge_fixed.get(e, Fraction(0)) for e in edges), Fraction(0)
            )
            assert rational(node) == sum((spending[e] for e in edges), Fraction(0))
    for g in inst.goods:
        assert Fraction(*market.inflow_pair(g)) == market.inflow(g)


def assert_cash_terms_match(inst, ss):
    assert potential(inst, ss) == direct_potential(inst, ss)
    assert is_delta_optimal(inst, ss) == all(
        direct_cash(inst, ss.market, b) < ss.delta for b in inst.buyers
    )


def assert_bang_per_buck_matches(inst, ss):
    prices = ss.market.prices
    alphas = direct_alphas(inst, prices)
    view = bang_per_buck_view(inst, ss.market)
    assert view.signs == {b: direct_sign(a - 1) for b, a in alphas.items()}
    assert alphas_of(inst, ss.market) == alphas
    assert view.edges == direct_equality_graph(inst, prices)
    assert check_genericity(inst, ss.market) == check_genericity(inst, fresh_copy(ss).market)


def assert_returnable_matches(inst, ss):
    assert returnable_edges(ss) == direct_returnable(ss)


def assert_feasibility_matches(inst, ss):
    assert is_delta_feasible(inst, ss) == is_delta_feasible(inst, fresh_copy(ss))


# each view of the market state, under the name it keeps its pending items
# in, with the check that reads it and compares it with its reference
VIEW_CHECKS = {
    "values": assert_values_match,
    "cash_terms": assert_cash_terms_match,
    "bang_per_buck": assert_bang_per_buck_matches,
    "returnable": assert_returnable_matches,
    "feasible": assert_feasibility_matches,
}


def assert_views_match(inst, ss):
    for check in VIEW_CHECKS.values():
        check(inst, ss)


# --- differential: both solvers, checked after every step and halving --------


@pytest.fixture
def checked_steps(monkeypatch):
    """Compare every view with its reference after each recorded step of
    either solver; yields the list of step kinds seen."""
    kinds = []
    original = weak.record_step

    def checked(inst, ss, trace, phase, kind, subject, phi_before, steps=1):
        original(inst, ss, trace, phase, kind, subject, phi_before, steps)
        assert_views_match(inst, ss)
        kinds.append(kind)

    monkeypatch.setattr(weak, "record_step", checked)
    monkeypatch.setattr(strong, "record_step", checked)
    return kinds


@pytest.fixture
def checked_halvings(monkeypatch):
    """Compare every view with its reference right after each halving of
    either solver, before the next step; yields the scales halved to."""
    scales = []
    original = weak.halve_and_repair

    def checked(inst, ss):
        original(inst, ss)
        assert_views_match(inst, ss)
        scales.append(ss.delta)

    monkeypatch.setattr(weak, "halve_and_repair", checked)
    monkeypatch.setattr(strong, "halve_and_repair", checked)
    return scales


@pytest.mark.parametrize("seed", range(4))
def test_views_match_after_every_weak_and_strong_step(
    seed, checked_steps, checked_halvings
):
    rng = random.Random(seed)
    inst = random_instance(rng.randint(4, 6), rng)
    inst = perturb(inst, PerturbationConfig(magnitude=lean_sigma(inst), seed=seed))
    weak_eq, _ = weak.run_weak(inst)
    weak_steps, weak_halvings = len(checked_steps), len(checked_halvings)
    strong_eq, _ = strong.run_strong(inst)
    assert weak_steps > 0 and len(checked_steps) > weak_steps
    assert weak_halvings > 0 and len(checked_halvings) > weak_halvings
    assert weak_eq.prices == strong_eq.prices


def test_views_match_through_a_compressed_restart(checked_steps, checked_halvings):
    inst = wide_instance(14)
    inst = perturb(inst, PerturbationConfig(magnitude=default_magnitude(inst), seed=0))
    _, trace = strong.run_strong(inst)
    assert trace.restart_count >= 1
    assert "restart_repair" in checked_steps
    assert any(mark.entry == "restart" and mark.iterations for mark in trace.phases)
    restart = next(mark.index for mark in trace.phases if mark.entry == "restart")
    assert any(mark.entry == "halve" for mark in trace.phases[restart:])


# --- every price raise against the Q multiplier formula -----------------------


def reference_multiplier(inst, ss, active):
    """The smallest event multiplier of a price raise, each candidate a
    ``Q``: a new equality edge, an active good's backorder reaching zero,
    an active buyer's bang-per-buck reaching one."""
    prices = ss.market.prices
    alphas = direct_alphas(inst, prices)
    active_buyers = [name for kind, name in active if kind == "B"]
    active_goods = {name for kind, name in active if kind == "G"}
    inflow = {g: Fraction(0) for g in inst.goods}
    for (_, g), v in raw_spending(ss.market).items():
        inflow[g] += v
    candidates = [
        alphas[b] * prices[g] / inst.utilities[(b, g)]
        for b in active_buyers
        for g in inst.goods_of(b)
        if g not in active_goods
    ]
    candidates += [inflow[g] / prices[g] for g in active_goods]
    candidates += [alphas[b] for b in active_buyers if alphas[b] > 1]
    return min(candidates), active_goods


@pytest.fixture
def checked_price_raises(monkeypatch):
    """After each price raise of either solver, the prices are the old
    prices with the active goods scaled by the reference multiplier;
    yields the list of multipliers seen."""
    seen = []
    original = weak.update_price_star

    def checked(inst, ss, tree):
        before = dict(ss.market.prices)
        q, active_goods = reference_multiplier(inst, ss, tree.parent)
        result = original(inst, ss, tree)
        assert ss.market.prices == {
            g: p * q if g in active_goods else p for g, p in before.items()
        }
        seen.append(q)
        return result

    monkeypatch.setattr(weak, "update_price_star", checked)
    return seen


@pytest.mark.parametrize("seed", range(3))
def test_price_raises_match_reference_in_random_markets(seed, checked_price_raises):
    rng = random.Random(200 + seed)
    inst = random_instance(rng.randint(4, 7), rng)
    inst = perturb(inst, PerturbationConfig(magnitude=lean_sigma(inst), seed=seed))
    weak.run_weak(inst)
    weak_raises = len(checked_price_raises)
    strong.run_strong(inst)
    assert weak_raises > 0 and len(checked_price_raises) > weak_raises


@pytest.mark.parametrize("seed", [14, 33])
def test_price_raises_match_reference_in_wide_markets(seed, checked_price_raises):
    inst = wide_instance(seed)
    inst = perturb(inst, PerturbationConfig(magnitude=default_magnitude(inst), seed=0))
    strong.run_strong(inst)
    assert checked_price_raises


# --- every residual search tree a price raise keeps ---------------------------


def fresh_tree(inst, ss, active):
    """A fresh residual search from the roots of ``active``."""
    roots = [node for node, parent in active.items() if parent is None]
    return reach(
        inst, roots, bang_per_buck_view(inst, ss.market).edges, returnable_edges(ss)
    )


def rescanned_terminal(inst, ss, active):
    """The terminal a full rescan of ``active`` finds, from direct
    recomputations: the first buyer at bang-per-buck one, else the first
    good whose backorder is at most zero, each in canonical order."""
    prices = ss.market.prices
    alphas = direct_alphas(inst, prices)
    critical = sorted(
        (name for kind, name in active if kind == "B" and alphas[name] == 1),
        key=inst.buyer_pos.__getitem__,
    )
    if critical:
        return ("B", critical[0])
    inflow = {g: Fraction(0) for g in inst.goods}
    for (_, g), v in raw_spending(ss.market).items():
        inflow[g] += v
    exhausted = sorted(
        (name for kind, name in active if kind == "G" and inflow[name] <= prices[name]),
        key=inst.good_pos.__getitem__,
    )
    return ("G", exhausted[0]) if exhausted else None


@pytest.fixture
def kept_trees(monkeypatch):
    """Each price raise of either solver gets the residual search tree of
    the current state, summed up in canonical order with the state's
    inflow pairs of its goods and no terminal, and names the terminal a
    rescan of that tree finds after the raise; after a raise that reports
    no edge-event tie a fresh search from the same roots returns the same
    parent map, in the same order.  Yields, per raise, whether it tied."""
    ties = []
    original = weak.update_price_star

    def checked(inst, ss, tree):
        active = tree.parent
        assert list(fresh_tree(inst, ss, active).items()) == list(active.items())
        assert tree.buyers == sorted(
            (name for kind, name in active if kind == "B"), key=inst.buyer_pos.__getitem__
        )
        assert tree.goods == sorted(
            (name for kind, name in active if kind == "G"), key=inst.good_pos.__getitem__
        )
        assert tree.good_set == set(tree.goods)
        assert tree.inflow == {g: ss.market.inflow_pair(g) for g in tree.goods}
        assert rescanned_terminal(inst, ss, active) is None
        tied, terminal = original(inst, ss, tree)
        assert terminal == rescanned_terminal(inst, ss, active)
        if not tied:
            assert list(fresh_tree(inst, ss, active).items()) == list(active.items())
        ties.append(tied)
        return tied, terminal

    monkeypatch.setattr(weak, "update_price_star", checked)
    return ties


@pytest.mark.parametrize("seed", range(3))
def test_kept_trees_match_a_fresh_search_in_random_markets(seed, kept_trees):
    rng = random.Random(300 + seed)
    inst = random_instance(rng.randint(5, 8), rng)
    inst = perturb(inst, PerturbationConfig(magnitude=lean_sigma(inst), seed=seed))
    weak.run_weak(inst)
    strong.run_strong(inst)
    assert False in kept_trees


def test_raises_keep_and_rebuild_trees_in_a_mid_size_market(kept_trees):
    inst = random_instance(40, random.Random(1))
    inst = perturb(inst, PerturbationConfig(magnitude=default_magnitude(inst), seed=0))
    strong.run_strong(inst)
    assert False in kept_trees and True in kept_trees


@pytest.mark.parametrize("seed", [14, 33])
def test_kept_trees_match_a_fresh_search_in_wide_markets(seed, kept_trees):
    inst = wide_instance(seed)
    inst = perturb(inst, PerturbationConfig(magnitude=default_magnitude(inst), seed=0))
    strong.run_strong(inst)
    assert False in kept_trees


@pytest.mark.parametrize(
    "case", [name for name in vars(test_weak.TestPriceRaiseTies) if name.startswith("test_")]
)
def test_raises_name_the_first_tying_terminal(case, kept_trees):
    # perturbed markets are generic, so only these hand-made markets make
    # several events reach the winning multiplier at once
    getattr(test_weak.TestPriceRaiseTies(), case)()
    assert kept_trees


# --- which re-priced goods rescan a buyer --------------------------------------


def rescan_market(price_type):
    """b1's best good is g1 (ratio 2); g2 and g3 sit below it (ratio 1).
    b2 values only g2."""
    inst = make_instance(
        {"b1": 4, "b2": 4},
        {("b1", "g1"): 4, ("b1", "g2"): 2, ("b1", "g3"): 3, ("b2", "g2"): 1},
    )
    market = MarketState(
        prices={"g1": price_type(2), "g2": price_type(2), "g3": price_type(3)},
        spending={},
        refunds={},
    )
    assert bang_per_buck_view(inst, market).rows["b1"] == (("b1", "g1"),)
    return inst, market


def assert_view_is_direct(inst, market):
    assert alphas_of(inst, market) == direct_alphas(inst, market.prices)
    assert bang_per_buck_view(inst, market).edges == direct_equality_graph(
        inst, market.prices
    )


PRICE_TYPES = [int, Fraction, Q]


@pytest.mark.parametrize("price_type", PRICE_TYPES)
def test_raising_a_good_off_the_row_rescans_nothing(price_type):
    inst, market = rescan_market(price_type)
    row = bang_per_buck_view(inst, market).rows["b1"]
    market.scale_prices(["g2"], Fraction(2))
    view = bang_per_buck_view(inst, market)
    assert view.rows["b1"] == (("b1", "g1"),)
    # b1 was not rescanned: a rescan builds a new row, and this is the
    # very tuple built before
    assert view.rows["b1"] is row
    assert_view_is_direct(inst, market)


@pytest.mark.parametrize("price_type", PRICE_TYPES)
def test_lowering_a_good_off_the_row_to_a_tie_grows_the_row(price_type):
    inst, market = rescan_market(price_type)
    market.scale_prices(["g2"], Fraction(1, 2))
    view = bang_per_buck_view(inst, market)
    assert view.rows["b1"] == (("b1", "g1"), ("b1", "g2"))
    assert Fraction(*view.best_pair("b1")) == 2
    assert_view_is_direct(inst, market)


@pytest.mark.parametrize("price_type", PRICE_TYPES)
def test_lowering_a_good_past_the_best_makes_it_the_row(price_type):
    inst, market = rescan_market(price_type)
    market.scale_prices(["g2"], Fraction(1, 2))
    assert_view_is_direct(inst, market)
    market.scale_prices(["g2"], Fraction(1, 2))
    view = bang_per_buck_view(inst, market)
    assert view.rows["b1"] == (("b1", "g2"),)
    assert Fraction(*view.best_pair("b1")) == 4
    assert_view_is_direct(inst, market)


# --- random mutation sequences, views read at random moments ------------------


def pending_items(market, view):
    """The items ``view`` has not seen yet."""
    return market._pending[view][1]


@pytest.mark.parametrize("seed", range(6))
def test_views_catch_up_over_any_number_of_mutations(seed):
    rng = random.Random(100 + seed)
    inst = random_instance(rng.randint(4, 8), rng)
    edges = inst.edges()
    market = MarketState(
        prices={g: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for g in inst.goods},
        spending={},
        refunds={},
    )
    ss = ScalingState(market=market, delta=Fraction(1, 4), initial_prices={})
    ss.initial_prices = dict(market.prices)
    # every item a mutator can touch, and the mark of a halving, once
    distinct = len(inst.buyers) + 2 * len(inst.goods) + len(edges) + 1
    assert_views_match(inst, ss)
    assert set(market._pending) == set(VIEW_CHECKS)
    for step in range(300):
        move = rng.randrange(4)
        if move == 0:
            market.add_spending_units(rng.choice(edges), rng.randint(1, 3))
        elif move == 1 and market.spending:
            # every amount is a count of at least one unit
            market.add_spending_units(rng.choice(sorted(market.spending)), -1)
        elif move == 2:
            market.add_refund(rng.choice(inst.buyers), Fraction(rng.randint(0, 2), 8))
        else:
            goods = rng.sample(inst.goods, rng.randint(1, len(inst.goods)))
            market.scale_prices(goods, Fraction(rng.randint(1, 6), rng.randint(1, 6)))
        if step % 50 == 49:
            ss.delta = ss.delta / 2
        if rng.random() < 0.3:
            # views catch up at different moments: each is read or not
            polled = [view for view in VIEW_CHECKS if rng.random() < 0.5]
            for view in polled:
                VIEW_CHECKS[view](inst, ss)
            for view in polled:
                assert not pending_items(market, view)
        for view in VIEW_CHECKS:
            # a view's pending items never hold an item twice
            assert len(pending_items(market, view)) <= distinct
    assert_views_match(inst, ss)


@pytest.mark.parametrize("seed", range(4))
def test_views_catch_up_over_counts_fixed_parts_and_halvings(seed):
    # counts on edges with and without a fixed part, edges with a fixed
    # part zeroed through their count once a scale divides it, and halvings
    # that double every count; the fixed part of 1/3 no scale divides
    rng = random.Random(400 + seed)
    inst = random_instance(rng.randint(4, 8), rng)
    edges = inst.edges()
    prices = {g: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for g in inst.goods}
    fixed = rng.sample(edges, 3)
    market = MarketState(
        prices=dict(prices),
        spending={
            fixed[0]: Fraction(1, 3),
            **{e: Fraction(rng.randint(1, 3), 8) for e in fixed[1:]},
        },
        refunds={inst.buyers[0]: Fraction(1, 8)},
    )
    ss = ScalingState(market=market, delta=Fraction(1, 2), initial_prices=prices)
    assert_views_match(inst, ss)
    zeroed_fixed = 0
    for step in range(240):
        edge = rng.choice(edges)
        spending = raw_spending(market).get(edge, Fraction(0))
        count = spending / ss.delta
        move = rng.randrange(5)
        if move == 0:
            market.add_spending_units(edge, rng.randint(1, 3))
        elif move == 1 and spending >= ss.delta:
            market.add_spending_units(edge, -1)
        elif move == 2 and spending and count.denominator == 1:
            zeroed_fixed += edge in market.edge_fixed
            market.add_spending_units(edge, -count.numerator)
            assert not market.has_spending(edge)
        elif move == 3:
            buyer = rng.choice(inst.buyers)
            if rng.random() < 0.5:
                market.add_refund_units(buyer, rng.randint(0, 2))
            else:
                market.add_refund(buyer, Fraction(rng.randint(0, 2), 8))
        else:
            goods = rng.sample(inst.goods, rng.randint(1, len(inst.goods)))
            market.scale_prices(goods, Fraction(rng.randint(1, 6), rng.randint(1, 6)))
        if step % 60 == 59:
            before = raw_spending(market), raw_refunds(market)
            ss.delta = ss.delta / 2
            assert (raw_spending(market), raw_refunds(market)) == before
        if rng.random() < 0.3:
            for view in [view for view in VIEW_CHECKS if rng.random() < 0.5]:
                VIEW_CHECKS[view](inst, ss)
    assert market.edge_units and market.edge_fixed and zeroed_fixed
    assert_views_match(inst, ss)


def test_pending_items_are_cleared_once_each_view_caught_up():
    inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
    ss = ScalingState(
        market=MarketState(prices={"g1": Fraction(1)}, spending={}, refunds={}),
        delta=Fraction(1),
        initial_prices={"g1": Fraction(1)},
    )
    assert_views_match(inst, ss)
    ss.market.add_spending_units(("b1", "g1"), 1)
    ss.market.add_refund("b1", Fraction(1))
    for view in VIEW_CHECKS:
        assert list(pending_items(ss.market, view)) == [
            ("edge", ("b1", "g1")),
            ("buyer", "b1"),
            ("good", "g1"),
        ]
    assert_returnable_matches(inst, ss)
    assert not pending_items(ss.market, "returnable")
    for view in VIEW_CHECKS:
        assert bool(pending_items(ss.market, view)) == (view != "returnable")
    assert_views_match(inst, ss)
    assert not any(pending_items(ss.market, view) for view in VIEW_CHECKS)


# --- fault injection through the public mutators ------------------------------


def checked_state(inst, prices, spending, delta, initial=None):
    """A feasible state whose feasibility check has run once, so the next
    check is incremental."""
    market = MarketState(
        prices={g: Fraction(v) for g, v in prices.items()},
        spending={e: Fraction(v) for e, v in spending.items()},
        refunds={},
    )
    ss = ScalingState(
        market=market,
        delta=Fraction(delta),
        initial_prices={g: Fraction(v) for g, v in (initial or prices).items()},
    )
    assert is_delta_feasible(inst, ss) == (True, [])
    return ss


def assert_reported_like_full_sweep(inst, ss, expected):
    ok, violations = is_delta_feasible(inst, ss)
    assert not ok
    assert expected in violations
    assert (ok, violations) == is_delta_feasible(inst, fresh_copy(ss))
    # a second call on the unchanged state reports the same again
    assert is_delta_feasible(inst, ss) == (ok, violations)


def test_non_multiple_spending_on_touched_edge():
    # only a state built from dicts holds a fixed part no count can mend
    inst = make_instance({"b1": 4, "b2": 4}, {("b1", "g1"): 2, ("b2", "g2"): 2})
    ss = ScalingState(
        market=MarketState(
            prices={"g1": Fraction(1), "g2": Fraction(1)},
            spending={("b1", "g1"): Fraction(1, 2)},
            refunds={},
        ),
        delta=Fraction(1),
        initial_prices={"g1": Fraction(1), "g2": Fraction(1)},
    )
    ss.market.add_spending_units(("b1", "g1"), 1)
    assert_reported_like_full_sweep(
        inst, ss, "spending on ('b1', 'g1') not a multiple of delta"
    )


def two_buyer_market():
    # b1 is indifferent between g1 and g2, b2 between g1 and g3
    inst = make_instance(
        {"b1": 4, "b2": 4},
        {("b1", "g1"): 2, ("b1", "g2"): 2, ("b2", "g1"): 1, ("b2", "g3"): 1},
    )
    ss = checked_state(
        inst,
        {"g1": 1, "g2": 1, "g3": 1},
        {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g3"): 1},
        delta=1,
        initial={"g1": 4, "g2": 4, "g3": 4},
    )
    return inst, ss


def test_price_raise_takes_untouched_spending_edge_off_equality_graph():
    inst, ss = two_buyer_market()
    # raising g1 leaves b1's spending on g1 off her best ratio; no mutator
    # touched that edge, only the price of its good
    ss.market.scale_prices(["g1"], Fraction(2))
    assert_reported_like_full_sweep(
        inst, ss, "spending off equality graph on ('b1', 'g1')"
    )


def test_price_change_at_another_good_of_the_buyer():
    inst, ss = two_buyer_market()
    # cheaper g2 lifts b1's best ratio, so her spending on g1, whose price
    # did not move, leaves the equality graph
    ss.market.scale_prices(["g2"], Fraction(1, 2))
    assert_reported_like_full_sweep(
        inst, ss, "spending off equality graph on ('b1', 'g1')"
    )


def test_raised_good_backorder_drops_below_bound_by_spending():
    inst = make_instance({"b1": 4}, {("b1", "g1"): 8})
    ss = checked_state(inst, {"g1": 2}, {("b1", "g1"): 2}, delta=1, initial={"g1": 1})
    ss.market.add_spending_units(("b1", "g1"), -1)
    assert_reported_like_full_sweep(inst, ss, "backorder -1 below bound at good g1")


def test_raised_good_backorder_drops_below_bound_by_price():
    inst = make_instance({"b1": 4}, {("b1", "g1"): 8})
    ss = checked_state(inst, {"g1": 2}, {("b1", "g1"): 2}, delta=1, initial={"g1": 1})
    ss.market.scale_prices(["g1"], Fraction(3, 2))
    assert_reported_like_full_sweep(inst, ss, "backorder -1 below bound at good g1")


def test_halving_leaves_a_raised_good_above_the_new_scale():
    inst = make_instance({"b1": 4}, {("b1", "g1"): 8})
    ss = checked_state(inst, {"g1": 2}, {("b1", "g1"): 3}, delta=1, initial={"g1": 1})
    # a halving with no repair: the backorder of 1 passed at delta 1
    ss.delta = Fraction(1, 2)
    # a rescale by a whole factor is no start-over, just a mark
    assert list(pending_items(ss.market, "feasible")) == [RESCALED]
    assert_reported_like_full_sweep(inst, ss, "backorder 1 above delta at good g1")


def test_halving_makes_an_exempt_edge_returnable():
    # an exempt edge gives back delta only while it holds a whole unit: 3/4
    # does not at delta 1, and does at delta 1/2; no mutator touches it
    inst = make_instance({"b1": 4, "b2": 4}, {("b1", "g1"): 2, ("b2", "g2"): 2})
    prices = {"g1": Fraction(1), "g2": Fraction(1)}
    ss = ScalingState(
        market=MarketState(
            prices=dict(prices),
            spending={("b1", "g1"): Fraction(3), ("b2", "g2"): Fraction(3, 4)},
            refunds={},
        ),
        delta=Fraction(1),
        initial_prices=prices,
    )
    ss.exempt_edges = {("b2", "g2")}
    assert returnable_edges(ss) == {("b1", "g1")}
    ss.delta = Fraction(1, 2)
    assert list(pending_items(ss.market, "returnable")) == [RESCALED]
    assert returnable_edges(ss) == {("b1", "g1"), ("b2", "g2")} == direct_returnable(ss)


def test_sign_change_with_the_same_row_gives_a_fresh_genericity_report():
    # b1 values only g1, so doubling its price keeps her row and only moves
    # her bang-per-buck from 2 to exactly 1: she becomes critical
    inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
    ss = checked_state(inst, {"g1": 1}, {}, delta=1)
    before = check_genericity(inst, ss.market)
    assert before.ok and not before.critical_buyers_per_component
    row = bang_per_buck_view(inst, ss.market).rows["b1"]
    ss.market.scale_prices(["g1"], Fraction(2))
    after = check_genericity(inst, ss.market)
    assert bang_per_buck_view(inst, ss.market).rows["b1"] == row
    assert dict(after.critical_buyers_per_component) == {"B:b1": 1}
    assert after == check_genericity(inst, fresh_copy(ss).market)


def test_genericity_report_is_reused_only_by_its_own_state():
    inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
    above = MarketState(prices={"g1": Fraction(1)}, spending={}, refunds={})
    at_one = MarketState(prices={"g1": Fraction(2)}, spending={}, refunds={})
    report = check_genericity(inst, above)
    # nothing moved: the very same report again
    assert check_genericity(inst, above) is report
    # a new state, whose view has the same version, gets its own report
    assert bang_per_buck_view(inst, at_one).version == bang_per_buck_view(inst, above).version
    assert dict(check_genericity(inst, at_one).critical_buyers_per_component) == {"B:b1": 1}
    assert not check_genericity(inst, above).critical_buyers_per_component


def test_genericity_report_cannot_be_changed():
    inst = make_instance(
        {"b1": 4, "b2": 4},
        {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g1"): 1, ("b2", "g2"): 1},
    )
    state = MarketState(
        prices={"g1": Fraction(1, 2), "g2": Fraction(1, 2)}, spending={}, refunds={}
    )
    report = check_genericity(inst, state)
    assert not report.is_forest and report.offending_cycle
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.is_forest = True
    with pytest.raises(TypeError):
        report.critical_buyers_per_component["B:b1"] = 0
    with pytest.raises(AttributeError):
        report.offending_cycle.clear()
    assert check_genericity(inst, state) is report


def test_change_of_scale_sweeps_everything():
    inst = make_instance({"b1": 4, "b2": 4}, {("b1", "g1"): 2, ("b2", "g2"): 2})
    ss = checked_state(inst, {"g1": 1, "g2": 1}, {("b2", "g2"): 1}, delta=1)
    # nothing is touched, but the untouched spending is no multiple of 3/4
    ss.delta = Fraction(3, 4)
    assert_reported_like_full_sweep(
        inst, ss, "spending on ('b2', 'g2') not a multiple of delta"
    )
