"""Incremental views of the market state against direct recomputations.

The state builds its rational spending on each read, its mutators keep
bang-per-buck with its signs against one, the equality graph, the
potential's terms and the returnable edges current themselves, and the
feasibility check catches up from the state's record of what the mutators
touched since its last pass.  These tests recompute each of them from the
raw state (each amount a count of the scale plus a fixed part) after
every solver step and right after every halving, on small markets and on
one of 20 nodes whose raises mostly keep the active buyers' rows
without comparing them again, and after random mutation
sequences in which each view is read at its own moments, and drive bad
changes through the mutators and through halvings (a rescale, which the
returnable edges and the record follow) to check that the incremental
feasibility check reports exactly what a full sweep reports; each price
raise of a random walk must record exactly the buyers whose row or sign
it changed.  The genericity check, which reads the solver's live
bang-per-buck view and hands out its last immutable report until a raise
changes a row or a sign, must report the same on a fresh copy of the
state.  Every price raise of both solvers is checked against the
multiplier formula written with ``Q`` arithmetic, and every residual
search tree a raise keeps against a fresh search: its kept
inflow-over-price pairs against a fresh computation from the state, each
tree raised once only, and the terminal the raise names against a rescan
of the tree.  Named cases pin when a re-priced good rescans a buyer, how
the view follows one price raise and which buyers it records, how the
kept terms follow fixed parts and rescales, and that the state refuses
the moves the solvers never make: a price cut, a rescale by a factor that
is not whole, and a fixed refund once there is a scale.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from arcticauction import graph, strong, weak
from arcticauction.core import PerturbationConfig, default_magnitude, perturb
from arcticauction.errors import SolverError
from arcticauction.graph import MarketState, reach
from arcticauction.oracle import check_genericity
from arcticauction.randgen import random_instance
from arcticauction.rational import Q
from arcticauction.weak import (
    halve_and_repair,
    is_delta_feasible,
    is_delta_optimal,
    potential,
)

import test_weak
from conftest import (
    alphas_of,
    edge_names,
    lean_sigma,
    make_instance,
    prices_of,
    refunds_of,
    scaled_state,
    spending_of,
    state_of,
    wide_instance,
)


# --- direct recomputations from the raw state, by id strings -----------------


def amount(market, units, fixed):
    """``units`` of the market's scale plus ``fixed``, as a ``Fraction``."""
    value = Fraction(fixed or 0)
    return value + units * market.unit if units else value


def raw_spending(inst, market):
    """Every edge's spending, from its count and fixed part."""
    edges = {**market.edge_fixed, **market.edge_units}
    return {
        inst.edge_names[e]: amount(
            market, market.edge_units.get(e, 0), market.edge_fixed.get(e)
        )
        for e in edges
    }


def raw_refunds(inst, market):
    """Every non-zero refund, from its count and fixed part."""
    refunds = {
        b: amount(market, market.refund_units[k], market.refund_fixed[k])
        for k, b in enumerate(inst.buyers)
    }
    return {b: r for b, r in refunds.items() if r}


def direct_cash(inst, market):
    """Every buyer's cash by id, from one read of the raw amounts."""
    refunds = raw_refunds(inst, market)
    cash = {b: inst.budgets[b] - refunds.get(b, Fraction(0)) for b in inst.buyers}
    for (b, _), v in raw_spending(inst, market).items():
        cash[b] -= v
    return cash


def direct_potential(inst, market):
    return sum((c // market.unit for c in direct_cash(inst, market).values()), 0)


def direct_alphas(inst, prices):
    """Every buyer's best utility-over-price ratio, from one pass over the
    utilities."""
    alphas = {}
    for (b, g), u in inst.utilities.items():
        ratio = u / prices[g]
        if b not in alphas or ratio > alphas[b]:
            alphas[b] = ratio
    return alphas


def direct_equality_graph(inst, prices, alphas=None):
    """The edges at their buyer's best ratio; ``alphas`` are the prices'
    :func:`direct_alphas`, computed here if not given."""
    if alphas is None:
        alphas = direct_alphas(inst, prices)
    return {(b, g) for (b, g), u in inst.utilities.items() if u / prices[g] == alphas[b]}


def direct_returnable(inst, market):
    """The edges with at least one unit of spending."""
    return {e for e, v in raw_spending(inst, market).items() if v >= market.unit}


def direct_sign(value):
    return (value > 0) - (value < 0)


def fresh_copy(inst, market):
    """The same state in new objects, so its returnable edges are found
    afresh and its first check is a full sweep."""
    copy = MarketState(inst, list(market.prices), dict(market.spending), market.refunds)
    copy.initial_prices = list(market.initial_prices)
    copy.allowed_deficit = dict(market.allowed_deficit)
    copy.rescale(market.unit)
    return copy


def assert_values_match(inst, market):
    """The rational views are ``count * delta + fixed`` of every edge and
    buyer, no edge holds zero, and each buyer's and good's count and fixed
    sums are those of its edges, with the rational sums to match."""
    spending = raw_spending(inst, market)
    assert spending_of(inst, market) == spending
    assert 0 not in spending.values()
    assert refunds_of(inst, market) == raw_refunds(inst, market)
    # each node's count, fixed and rational sums over its edges, by side
    # (buyers, goods), from one pass over the spending edges
    sums = [
        [[0, Fraction(0), Fraction(0)] for _ in nodes]
        for nodes in (inst.buyers, inst.goods)
    ]
    for name, value in spending.items():
        e = inst.edge_id[name]
        for side, k in ((0, inst.edge_buyer[e]), (1, inst.edge_good[e])):
            node = sums[side][k]
            node[0] += market.edge_units.get(e, 0)
            node[1] += market.edge_fixed.get(e, Fraction(0))
            node[2] += value
    for side, units, fixed, rational in (
        (0, market.spent_units, market.spent_fixed, market.spent_by),
        (1, market.inflow_units, market.inflow_fixed, market.inflow),
    ):
        for k, (unit_sum, fixed_sum, rational_sum) in enumerate(sums[side]):
            assert units[k] == unit_sum
            assert fixed[k] == fixed_sum
            assert rational(k) == rational_sum
    for g in range(len(inst.goods)):
        assert Fraction(*market.inflow_pair(g)) == market.inflow(g)


def assert_cash_terms_match(inst, market):
    """The market's kept terms are those of each buyer's cash, and the
    potential and optimality test read them."""
    cash = direct_cash(inst, market)
    terms = [cash[b] // market.unit for b in inst.buyers]
    assert market.cash_terms == terms
    assert market.holding == {b for b, term in enumerate(terms) if term > 0}
    assert potential(inst, market) == direct_potential(inst, market) == sum(terms)
    assert is_delta_optimal(inst, market) == all(
        cash[b] < market.unit for b in inst.buyers
    )


def assert_bang_per_buck_matches(inst, market, fresh=None):
    prices = prices_of(inst, market)
    alphas = direct_alphas(inst, prices)
    view = market.bang_per_buck
    assert view.signs == [direct_sign(alphas[b] - 1) for b in inst.buyers]
    assert alphas_of(inst, market) == alphas
    assert edge_names(inst, view.edges) == direct_equality_graph(inst, prices, alphas)
    fresh = fresh_copy(inst, market) if fresh is None else fresh
    assert check_genericity(inst, market) == check_genericity(inst, fresh)


def assert_returnable_matches(inst, market, fresh=None):
    returnable = edge_names(inst, market.returnable)
    assert returnable == direct_returnable(inst, market)
    fresh = fresh_copy(inst, market) if fresh is None else fresh
    assert returnable == edge_names(inst, fresh.returnable)


def assert_feasibility_matches(inst, market, fresh=None):
    fresh = fresh_copy(inst, market) if fresh is None else fresh
    assert is_delta_feasible(inst, market) == is_delta_feasible(inst, fresh)


# each view of the market state, with the check that reads it and compares
# it with its reference; the cash terms, which nearly every mutation moves,
# are compared after each one instead.  A check given a ``fresh`` copy of
# the state reads it instead of building its own: only reads touch the
# copy, and its first feasibility check is a full sweep whenever it runs
VIEW_CHECKS = {
    "values": assert_values_match,
    "bang_per_buck": assert_bang_per_buck_matches,
    "returnable": assert_returnable_matches,
    "feasible": assert_feasibility_matches,
}


def assert_views_match(inst, market):
    assert_cash_terms_match(inst, market)
    assert_values_match(inst, market)
    fresh = fresh_copy(inst, market)
    for check in (
        assert_bang_per_buck_matches,
        assert_returnable_matches,
        assert_feasibility_matches,
    ):
        check(inst, market, fresh)


# --- differential: both solvers, checked after every step and halving --------


@pytest.fixture
def checked_steps(monkeypatch):
    """Compare every view with its reference after each recorded step of
    either solver; yields the list of step kinds seen."""
    kinds = []
    original = weak.record_step

    def checked(inst, market, trace, kind, subject, phi_before, steps=1):
        original(inst, market, trace, kind, subject, phi_before, steps)
        assert_views_match(inst, market)
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

    def checked(inst, market):
        original(inst, market)
        assert_views_match(inst, market)
        scales.append(market.unit)

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


def test_views_match_after_every_step_in_a_mid_size_market(
    checked_steps, checked_halvings, monkeypatch
):
    # most raises here stop short of the edge event, and the view then
    # keeps the active buyers' rows without comparing their edges to the
    # other goods (graph._follow_raise); count those raises per solver
    untied = []
    original = weak.update_price_star

    def counted(inst, market, tree):
        tied, terminal = original(inst, market, tree)
        untied.append(not tied)
        return tied, terminal

    monkeypatch.setattr(weak, "update_price_star", counted)
    inst = random_instance(20, random.Random(9))
    inst = perturb(inst, PerturbationConfig(magnitude=lean_sigma(inst), seed=0))
    weak_eq, _ = weak.run_weak(inst)
    weak_untied = sum(untied)
    strong_eq, _ = strong.run_strong(inst)
    assert weak_untied >= 100 and sum(untied) - weak_untied >= 100
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


def names_of_nodes(inst, nodes):
    """The buyers and goods among the graph nodes ``nodes``, by id
    strings, each in canonical order."""
    n_buyers = len(inst.buyers)
    buyers = [inst.buyers[v] for v in sorted(nodes) if v < n_buyers]
    goods = [inst.goods[v - n_buyers] for v in sorted(nodes) if v >= n_buyers]
    return buyers, goods


def raw_inflow(inst, market):
    """Every good's inflow by id, summed from the raw spending."""
    inflow = {g: Fraction(0) for g in inst.goods}
    for (_, g), v in raw_spending(inst, market).items():
        inflow[g] += v
    return inflow


def reference_multiplier(inst, market, active):
    """The smallest event multiplier of a price raise, each candidate a
    ``Q``: a new equality edge, an active good's backorder reaching zero,
    an active buyer's bang-per-buck reaching one."""
    prices = prices_of(inst, market)
    alphas = direct_alphas(inst, prices)
    active_buyers, active_goods = names_of_nodes(inst, active)
    inflow = raw_inflow(inst, market)
    candidates = [
        alphas[b] * prices[g] / u
        for (b, g), u in inst.utilities.items()
        if b in active_buyers and g not in active_goods
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

    def checked(inst, market, tree):
        before = prices_of(inst, market)
        q, active_goods = reference_multiplier(inst, market, tree.parent)
        result = original(inst, market, tree)
        assert prices_of(inst, market) == {
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


def fresh_tree(inst, market, active):
    """A fresh residual search from the roots of ``active``."""
    roots = [node for node, parent in active.items() if parent is None]
    return reach(inst, roots, market.bang_per_buck.edges, market.returnable)


def rescanned_terminal(inst, market, active):
    """The terminal a full rescan of ``active`` finds, from direct
    recomputations: the first buyer at bang-per-buck one, else the first
    good whose backorder is at most zero, each in canonical order."""
    prices = prices_of(inst, market)
    alphas = direct_alphas(inst, prices)
    buyers, goods = names_of_nodes(inst, active)
    critical = [b for b in buyers if alphas[b] == 1]
    if critical:
        return inst.buyer_pos[critical[0]]
    inflow = raw_inflow(inst, market)
    exhausted = [g for g in goods if inflow[g] <= prices[g]]
    return len(inst.buyers) + inst.good_pos[exhausted[0]] if exhausted else None


def good_pairs(market, goods):
    """Each good's inflow over its price as the unnormalized pair
    ``(inflow_num * price_den, inflow_den * price_num)``, afresh."""
    pairs = []
    for g in goods:
        n, d = market.inflow_pair(g)
        price = market.prices[g]
        pairs.append((n * price.denominator, d * price.numerator))
    return pairs


@pytest.fixture
def kept_trees(monkeypatch):
    """Each price raise of either solver gets a residual search tree of
    the current state that no raise got before, summed up in canonical
    order with its goods' inflow-over-price pairs at the current prices
    and no terminal, and names the terminal a rescan of that tree finds
    after the raise; after a raise that reports no edge-event tie a fresh
    search from the same roots returns the same parent map, in the same
    order.  Yields, per raise, whether it tied."""
    ties = []
    # every tree raised so far, by id; holding them keeps the ids unique
    raised = {}
    original = weak.update_price_star

    def checked(inst, market, tree):
        assert id(tree) not in raised
        raised[id(tree)] = tree
        active = tree.parent
        assert list(fresh_tree(inst, market, active).items()) == list(active.items())
        buyers, goods = names_of_nodes(inst, active)
        assert [inst.buyers[b] for b in tree.buyers] == buyers
        assert [inst.goods[g] for g in tree.goods] == goods
        assert tree.good_set == set(tree.goods)
        assert tree.pairs == good_pairs(market, tree.goods)
        inflow, prices = raw_inflow(inst, market), prices_of(inst, market)
        assert [Fraction(*pair) for pair in tree.pairs] == [
            inflow[g] / prices[g] for g in goods
        ]
        assert rescanned_terminal(inst, market, active) is None
        tied, terminal = original(inst, market, tree)
        assert terminal == rescanned_terminal(inst, market, active)
        if not tied:
            assert list(fresh_tree(inst, market, active).items()) == list(active.items())
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
    market = MarketState(inst, [price_type(2), price_type(2), price_type(3)])
    assert row_of(inst, market, "b1") == (("b1", "g1"),)
    return inst, market


def row_of(inst, market, buyer):
    """A buyer's row in the market's view, by (buyer, good) names."""
    row = market.bang_per_buck.rows[inst.buyer_pos[buyer]]
    return tuple(inst.edge_names[e] for e in row)


def assert_view_is_direct(inst, market):
    prices = prices_of(inst, market)
    assert alphas_of(inst, market) == direct_alphas(inst, prices)
    edges = market.bang_per_buck.edges
    assert edge_names(inst, edges) == direct_equality_graph(inst, prices)


PRICE_TYPES = [int, Fraction, Q]


@pytest.mark.parametrize("price_type", PRICE_TYPES)
def test_raising_a_good_off_the_row_rescans_nothing(price_type):
    inst, market = rescan_market(price_type)
    row = market.bang_per_buck.rows[0]
    market.scale_prices([inst.good_pos["g2"]], Fraction(2))
    assert row_of(inst, market, "b1") == (("b1", "g1"),)
    # b1 was not rescanned: a rescan builds a new row, and this is the
    # very tuple built before
    assert market.bang_per_buck.rows[0] is row
    assert_view_is_direct(inst, market)


@pytest.mark.parametrize("price_type", PRICE_TYPES)
def test_a_price_cut_is_refused(price_type):
    # prices only rise: halving g2's price would tie b1's best, and the
    # cut is refused before any price, ratio or row moves
    inst, market = rescan_market(price_type)
    view = market.bang_per_buck
    prices, ratios, rows, report = (
        list(market.prices),
        list(view.ratios),
        list(view.rows),
        check_genericity(inst, market),
    )
    with pytest.raises(SolverError, match="below one"):
        market.scale_prices([inst.good_pos["g2"]], Fraction(1, 2))
    assert market.prices == prices and view.ratios == ratios
    assert all(new is old for new, old in zip(view.rows, rows))
    assert check_genericity(inst, market) is report
    assert_view_is_direct(inst, market)


def typed_state(inst, number_type):
    """b1 spends on g1 and g2, b2 on g3 and holds a refund: a state built
    from prices, spending and refunds of ``number_type``, counting in
    units of one of that type."""
    spending = {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g3"): 2}
    market = MarketState(
        inst,
        [number_type(p) for p in (1, 1, 2)],
        {inst.edge_id[e]: number_type(v) for e, v in spending.items()},
        [number_type(0), number_type(1)],
    )
    market.rescale(number_type(1))
    return market


def held_rationals(market):
    """Every rational the state holds."""
    return [
        *market.prices,
        *market.initial_prices,
        *market.edge_fixed.values(),
        *market.spent_fixed,
        *market.inflow_fixed,
        *market.refund_fixed,
        market.unit,
    ]


@pytest.mark.parametrize("factor", [2, Fraction(3, 2)], ids=["int", "Fraction"])
@pytest.mark.parametrize("number_type", PRICE_TYPES)
def test_a_state_holds_only_q(number_type, factor):
    # the step path reads a rational's integers from its slots, which an
    # int lacks: the state converts what it is built from, its unit and a
    # price factor, and then reads and checks exactly what a state built
    # from Q does
    inst = make_instance(
        {"b1": 4, "b2": 4},
        {("b1", "g1"): 2, ("b1", "g2"): 2, ("b2", "g1"): 1, ("b2", "g3"): 3},
    )
    market, reference = typed_state(inst, number_type), typed_state(inst, Q)
    for state, f in ((market, factor), (reference, Q(factor))):
        assert is_delta_feasible(inst, state) == (True, [])
        # the raise takes b1's spending on g1 off her row, and sinks g1's
        # backorder below zero
        state.scale_prices([inst.good_pos["g1"]], f)
        assert all(type(value) is Q for value in held_rationals(state))
    view, expected = market.bang_per_buck, reference.bang_per_buck
    assert view.ratios == expected.ratios and view.rows == expected.rows
    assert view.signs == expected.signs and view.edges == expected.edges
    report = is_delta_feasible(inst, market)
    assert not report[0] and report == is_delta_feasible(inst, reference)
    assert market.cash_terms == reference.cash_terms
    assert market.spending == reference.spending
    assert market.refunds == reference.refunds


# --- one price scaling, followed without a full rescan -------------------------


@pytest.fixture
def rescans(monkeypatch):
    """Every call of the view's full rescan, as the list of buyer ids it
    rescanned."""
    calls = []
    original = graph._rescan

    def spy(inst, view, buyers):
        buyers = list(buyers)
        calls.append([inst.buyers[b] for b in buyers])
        return original(inst, view, buyers)

    monkeypatch.setattr(graph, "_rescan", spy)
    return calls


def unread_scaling_market():
    """b1 is indifferent between g1 and g2 (ratio 2) and values g3 less
    (ratio 1); b2's best good is g3 (ratio 2) above g4 (ratio 1); b3
    values only g4 (ratio 2).  The market's view is not read yet."""
    inst = make_instance(
        {"b1": 4, "b2": 4, "b3": 4},
        {
            ("b1", "g1"): 2,
            ("b1", "g2"): 2,
            ("b1", "g3"): 1,
            ("b2", "g3"): 2,
            ("b2", "g4"): 1,
            ("b3", "g4"): 2,
        },
    )
    return inst, state_of(inst, {"g1": 1, "g2": 1, "g3": 1, "g4": 1})


def scaling_market():
    """The market of :func:`unread_scaling_market`, its view read once."""
    inst, market = unread_scaling_market()
    assert row_of(inst, market, "b1") == (("b1", "g1"), ("b1", "g2"))
    return inst, market


def scale(inst, market, goods, factor):
    """Scale the named goods' prices; returns the view's rows before, by
    buyer position, and the genericity report before."""
    rows, report = list(market.bang_per_buck.rows), check_genericity(inst, market)
    market.scale_prices({inst.good_pos[g] for g in goods}, Fraction(factor))
    return rows, report


def assert_fresh_report(inst, market, report):
    """The raise moved a row or a sign: the state dropped ``report``, and
    the check makes a new one."""
    assert market.genericity is None
    assert check_genericity(inst, market) is not report


def test_a_raise_by_one_changes_nothing(rescans):
    inst, market = scaling_market()
    ratios = list(market.bang_per_buck.ratios)
    rows, report = scale(inst, market, ["g1", "g3", "g4"], 1)
    view = market.bang_per_buck
    assert all(new is old for new, old in zip(view.rows, rows))
    assert view.ratios == ratios
    assert check_genericity(inst, market) is report
    assert rescans == [["b1", "b2", "b3"]]  # the first call only
    assert_view_is_direct(inst, market)


def test_a_row_partly_inside_drops_its_scaled_edges(rescans):
    inst, market = scaling_market()
    rows, report = scale(inst, market, ["g1"], 2)
    view = market.bang_per_buck
    assert row_of(inst, market, "b1") == (("b1", "g2"),)
    assert view.signs[0] == 1 and Fraction(*view.best_pair(0)) == 2
    # b2 and b3 have no edge into g1
    assert view.rows[1] is rows[1] and view.rows[2] is rows[2]
    assert_fresh_report(inst, market, report)
    assert rescans == [["b1", "b2", "b3"]]
    assert_view_is_direct(inst, market)


@pytest.mark.parametrize(
    "factor, row, sign, rescanned",
    [
        # g3's ratio 2 falls to 4/3, still above b2's g4 (ratio 1)
        (Fraction(3, 2), (("b2", "g3"),), 1, []),
        # it falls to 1 and ties g4
        (2, (("b2", "g3"), ("b2", "g4")), 0, [["b2"]]),
        # it falls to 1/2, and g4 passes it
        (4, (("b2", "g4"),), 0, [["b2"]]),
    ],
)
def test_a_row_wholly_inside_is_compared_with_the_other_goods(
    rescans, factor, row, sign, rescanned
):
    inst, market = scaling_market()
    rows, report = scale(inst, market, ["g3"], factor)
    view = market.bang_per_buck
    assert row_of(inst, market, "b2") == row
    assert view.signs[1] == sign
    # b1's row does not reach g3, and b3 has no edge into it
    assert view.rows[0] is rows[0] and view.rows[2] is rows[2]
    assert rescans == [["b1", "b2", "b3"], *rescanned]
    # b2's row and sign move exactly when she is rescanned
    if rescanned:
        assert_fresh_report(inst, market, report)
    else:
        assert check_genericity(inst, market) is report
    assert_view_is_direct(inst, market)


def test_a_raise_brings_a_buyer_to_bang_per_buck_one(rescans):
    # b3's only good g4 goes from ratio 2 to 1; b2's row (g3) lies outside
    inst, market = scaling_market()
    rows, report = scale(inst, market, ["g4"], 2)
    view = market.bang_per_buck
    assert view.rows[2] is rows[2] and view.signs[2] == 0
    assert view.rows[1] is rows[1] and view.signs[1] == 1
    assert_fresh_report(inst, market, report)
    assert rescans == [["b1", "b2", "b3"]]
    assert dict(check_genericity(inst, market).critical_buyers_per_component) == {
        "B:b3": 1
    }
    assert_view_is_direct(inst, market)


@pytest.mark.parametrize(
    "scalings",
    [
        # two raises between reads, each followed as it is made
        [(["g1"], 2), (["g4"], 3)],
        [(["g3"], 2), (["g3"], 2)],
    ],
)
def test_no_price_change_rebuilds_the_view_after_its_first_read(rescans, scalings):
    # prices only rise, so no price change rebuilds the view after its
    # first read: any number of raises is followed one at a time, with no
    # rescan of every buyer
    inst, market = scaling_market()
    view = market.bang_per_buck
    report = check_genericity(inst, market)
    for goods, factor in scalings:
        market.scale_prices({inst.good_pos[g] for g in goods}, Fraction(factor))
    assert market.bang_per_buck is view
    assert rescans[0] == ["b1", "b2", "b3"]
    assert ["b1", "b2", "b3"] not in rescans[1:]
    assert_fresh_report(inst, market, report)
    assert_view_is_direct(inst, market)
    # a later single raise is followed again, with no full rescan
    seen = len(rescans)
    market.scale_prices({inst.good_pos["g2"]}, Fraction(2))
    assert ["b1", "b2", "b3"] not in rescans[seen:]
    assert_view_is_direct(inst, market)


@pytest.mark.parametrize(
    "goods, factor, moved",
    [
        # b1's row (g1, g2) is partly inside, and drops g1
        (["g1"], 2, {"b1"}),
        # b2's row (g3) is wholly inside, and stays above g4 at ratio 4/3
        (["g3"], Fraction(3, 2), set()),
        # g3 falls to ratio 1 and ties g4: b2 is rescanned
        (["g3"], 2, {"b2"}),
        # b3 keeps her row (g4), and her bang-per-buck falls to one
        (["g4"], 2, {"b3"}),
    ],
)
def test_a_raise_records_the_buyers_whose_row_or_sign_moved(goods, factor, moved):
    inst, market = scaling_market()
    market.rescale(Fraction(1))
    assert is_delta_feasible(inst, market) == (True, [])
    market.scale_prices({inst.good_pos[g] for g in goods}, Fraction(factor))
    assert record_items(market) == [("good", inst.good_pos[g]) for g in goods] + [
        ("row", inst.buyer_pos[b]) for b in sorted(moved)
    ]


def test_a_raise_before_the_first_read_is_left_to_it(rescans):
    # a state whose view was never read builds it on the first read, from
    # the prices as they are then; a raise before that rescans nothing
    inst, market = unread_scaling_market()
    market.scale_prices({inst.good_pos["g1"]}, Fraction(2))
    assert rescans == []
    assert row_of(inst, market, "b1") == (("b1", "g2"),)
    assert rescans == [["b1", "b2", "b3"]]
    assert_view_is_direct(inst, market)


def assert_terms_direct(inst, market):
    cash = direct_cash(inst, market)
    terms = [cash[b] // market.unit for b in inst.buyers]
    assert market.cash_terms == terms
    assert market.cash_total == sum(terms)
    assert market.holding == {b for b, term in enumerate(terms) if term > 0}
    assert terms == [market.cash_term(b) for b in range(len(inst.buyers))]


def test_cash_terms_follow_fixed_parts_and_rescales():
    inst = make_instance({"b1": 4, "b2": 3}, {("b1", "g1"): 2, ("b2", "g2"): 2})
    edge = inst.edge_id[("b1", "g1")]
    # g2 at price 2 puts b2 at bang-per-buck one, where she may commit
    market = state_of(inst, {"g1": 1, "g2": 2}, {("b1", "g1"): Fraction(1, 2)})
    assert market.cash_terms == [] and market.cash_total == 0
    # a fixed refund before the first unit: b2 keeps 1/3, less than a unit
    market.add_refund(1, Fraction(8, 3))
    market.rescale(Fraction(1, 4))
    assert market.cash_terms == [14, 1]
    assert_terms_direct(inst, market)
    # once there is a scale, a fixed refund is refused and nothing moves
    with pytest.raises(SolverError, match="with a scale"):
        market.add_refund(1, Fraction(1, 3))
    assert market.refund(1) == Fraction(8, 3) and market.cash_terms == [14, 1]
    # the edge empties through its count, which drops its fixed part; the
    # term still moves by the units booked
    market.add_spending_units(edge, -2)
    assert edge not in market.spending_edges
    assert market.cash_terms[0] == 16
    assert_terms_direct(inst, market)
    # whole units move the terms by what they book
    market.add_spending_units(edge, 3)
    market.add_refund_units(1, 1)
    assert market.cash_terms == [13, 0] and market.holding == {0}
    assert_terms_direct(inst, market)
    # a whole rescale doubles the counts, and b2's 1/12 is still no unit
    market.rescale(Fraction(1, 8))
    assert market.cash_terms == [26, 0]
    assert_terms_direct(inst, market)
    # the scale only divides: with no count left, a unit of 1/3 is still
    # refused, and a third of the unit is taken
    market.add_spending_units(edge, -6)
    market.add_refund_units(1, -2)
    assert market.cash_terms == [32, 2]
    with pytest.raises(SolverError, match="cannot recount"):
        market.rescale(Fraction(1, 3))
    assert market.unit == Fraction(1, 8) and market.cash_terms == [32, 2]
    market.rescale(Fraction(1, 24))
    assert market.cash_terms == [96, 8]
    assert_terms_direct(inst, market)


# --- random mutation sequences, views read at random moments ------------------


def record_items(market):
    """The items in the market's record of changes, as (kind, id) pairs,
    kind by kind, and the mark ``rescaled`` of a halving; None when there
    is no record, so that the next feasibility check sweeps everything."""
    record = market.changes
    if record is None:
        return None
    items = [
        (kind, item)
        for kind, items in (
            ("edge", record.edges),
            ("buyer", record.buyers),
            ("good", record.goods),
            ("row", record.rows),
        )
        for item in sorted(items)
    ]
    return items + ["rescaled"] * record.rescaled


def raise_prices(inst, market, goods, factor):
    """Scale ``goods`` by ``factor``: the record of changes must gain in its
    rows exactly the buyers whose row or sign the raise changed.  A state
    with no record (its next check sweeps everything) gets an empty one
    for the raise, and has none again after it."""
    kept = market.changes
    record = market.changes = kept or graph.Changes()
    view = market.bang_per_buck
    before, recorded = list(zip(view.rows, view.signs)), set(record.rows)
    market.scale_prices(goods, factor)
    moved = {b for b, pair in enumerate(zip(view.rows, view.signs)) if pair != before[b]}
    assert record.rows == recorded | moved
    market.changes = kept


def price_factor(rng):
    """A random price factor of at least one: prices only rise."""
    return 1 + Fraction(rng.randint(0, 5), rng.randint(1, 6))


def assert_spending_rule(inst, market, built):
    """Spending is whole units plus the fixed part the state was built
    with: only the ``built`` edges (ids) may hold a fixed part, and the
    returnable edges are those with at least one unit."""
    assert market.edge_fixed.keys() <= built
    assert edge_names(inst, market.returnable) == direct_returnable(inst, market)


@pytest.mark.parametrize("seed", range(6))
def test_views_catch_up_over_any_number_of_mutations(seed):
    rng = random.Random(100 + seed)
    inst = random_instance(rng.randint(4, 8), rng)
    edges = range(len(inst.edge_names))
    market = MarketState(
        inst, [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in inst.goods]
    )
    market.rescale(Fraction(1, 4))
    # every item a mutator can touch, and the mark of a halving, once
    distinct = 2 * len(inst.buyers) + len(inst.goods) + len(edges) + 1
    assert record_items(market) is None
    assert_views_match(inst, market)
    for step in range(300):
        move = rng.randrange(4)
        if move == 0:
            market.add_spending_units(rng.choice(edges), rng.randint(1, 3))
        elif move == 1 and market.spending:
            # every amount is a count of at least one unit
            market.add_spending_units(rng.choice(sorted(market.spending)), -1)
        elif move == 2:
            market.add_refund_units(rng.randrange(len(inst.buyers)), rng.randint(0, 2))
        else:
            goods = rng.sample(range(len(inst.goods)), rng.randint(1, len(inst.goods)))
            raise_prices(inst, market, goods, price_factor(rng))
        if step % 50 == 49:
            market.rescale(market.unit / 2)
        assert_cash_terms_match(inst, market)
        assert_spending_rule(inst, market, set())
        if rng.random() < 0.3:
            # views catch up at different moments: each is read or not
            polled = [view for view in VIEW_CHECKS if rng.random() < 0.5]
            for view in polled:
                VIEW_CHECKS[view](inst, market)
            if "feasible" in polled:
                # a pass leaves an empty record, a violation none
                passed = is_delta_feasible(inst, market)[0]
                assert record_items(market) == ([] if passed else None)
        # the record never holds an item twice
        assert len(record_items(market) or ()) <= distinct
    assert_views_match(inst, market)


@pytest.mark.parametrize("seed", range(4))
def test_views_catch_up_over_counts_fixed_parts_and_halvings(seed):
    # counts on edges with and without a fixed part, edges with a fixed
    # part zeroed through their count once a scale divides it, and halvings
    # that double every count; the fixed part of 1/3 no scale divides; the
    # returnable test of a fixed-part edge reads the scale, and steps move
    # such edges across one unit both ways (once on purpose, then as the
    # random steps fall)
    rng = random.Random(400 + seed)
    inst = random_instance(rng.randint(4, 8), rng)
    edges = range(len(inst.edge_names))
    prices = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in inst.goods]
    fixed = rng.sample(edges, 3)
    market = MarketState(
        inst,
        list(prices),
        {
            fixed[0]: Fraction(1, 3),
            **{e: Fraction(rng.randint(1, 3), 8) for e in fixed[1:]},
        },
        [Fraction(1, 8)] + [Fraction(0)] * (len(inst.buyers) - 1),
    )
    market.rescale(Fraction(1, 2))
    assert_views_match(inst, market)
    # 1/8 to 3/8 is under one unit of 1/2; one more unit takes it over
    for units in (1, -1):
        market.add_spending_units(fixed[1], units)
        assert (fixed[1] in market.returnable) == (units > 0)
        assert_spending_rule(inst, market, set(fixed))
    zeroed_fixed = 0
    for step in range(240):
        edge = rng.choice(edges)
        spending = raw_spending(inst, market).get(inst.edge_names[edge], Fraction(0))
        count = spending / market.unit
        move = rng.randrange(5)
        if move == 0:
            market.add_spending_units(edge, rng.randint(1, 3))
        elif move == 1 and spending >= market.unit:
            market.add_spending_units(edge, -1)
        elif move == 2 and spending and count.denominator == 1:
            zeroed_fixed += edge in market.edge_fixed
            market.add_spending_units(edge, -count.numerator)
            assert edge not in market.spending_edges
        elif move == 3:
            market.add_refund_units(rng.randrange(len(inst.buyers)), rng.randint(0, 2))
        else:
            goods = rng.sample(range(len(inst.goods)), rng.randint(1, len(inst.goods)))
            raise_prices(inst, market, goods, price_factor(rng))
        if step % 60 == 59:
            before = raw_spending(inst, market), raw_refunds(inst, market)
            market.rescale(market.unit / 2)
            assert (raw_spending(inst, market), raw_refunds(inst, market)) == before
        assert_cash_terms_match(inst, market)
        assert_spending_rule(inst, market, set(fixed))
        if rng.random() < 0.3:
            for view in [view for view in VIEW_CHECKS if rng.random() < 0.5]:
                VIEW_CHECKS[view](inst, market)
    assert market.edge_units and market.edge_fixed and zeroed_fixed
    assert_views_match(inst, market)


def test_the_record_holds_each_kind_of_item_until_a_check_passes():
    # the record is handed every kind of item, and only a passing check
    # clears it; the returnable edges are current without being read
    inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
    # g1 is not raised above its initial price even once doubled
    market = scaled_state(inst, {"g1": 1}, initial={"g1": 2})
    # no check has run: the first one sweeps everything
    assert record_items(market) is None
    assert_views_match(inst, market)
    assert record_items(market) == []
    market.add_spending_units(inst.edge_id[("b1", "g1")], 1)
    assert edge_names(inst, market.returnable) == {("b1", "g1")}
    market.add_refund_units(0, 1)
    # doubling g1 takes b1's bang-per-buck from 2 to 1: her sign changes
    market.scale_prices({0}, Fraction(2))
    touched = [("edge", 0), ("buyer", 0), ("good", 0), ("row", 0)]
    assert record_items(market) == touched
    assert_returnable_matches(inst, market)
    assert record_items(market) == touched
    assert_views_match(inst, market)
    assert is_delta_feasible(inst, market) == (True, [])
    assert record_items(market) == []


# --- fault injection through the public mutators ------------------------------


def checked_state(inst, prices, spending, delta, initial=None):
    """A feasible state whose feasibility check has run once, so the next
    check is incremental."""
    market = scaled_state(inst, prices, spending, delta=delta, initial=initial)
    assert is_delta_feasible(inst, market) == (True, [])
    return market


def assert_reported_like_full_sweep(inst, market, expected):
    ok, violations = is_delta_feasible(inst, market)
    assert not ok
    assert expected in violations
    assert (ok, violations) == is_delta_feasible(inst, fresh_copy(inst, market))
    # a second call on the unchanged state reports the same again
    assert is_delta_feasible(inst, market) == (ok, violations)


def two_buyer_market():
    # b1 is indifferent between g1 and g2, b2 between g1 and g3
    inst = make_instance(
        {"b1": 4, "b2": 4},
        {("b1", "g1"): 2, ("b1", "g2"): 2, ("b2", "g1"): 1, ("b2", "g3"): 1},
    )
    market = checked_state(
        inst,
        {"g1": 1, "g2": 1, "g3": 1},
        {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g3"): 1},
        delta=1,
        initial={"g1": 4, "g2": 4, "g3": 4},
    )
    return inst, market


def test_price_raise_takes_untouched_spending_edge_off_equality_graph():
    inst, market = two_buyer_market()
    # raising g1 leaves b1's spending on g1 off her best ratio; no mutator
    # touched that edge, only the price of its good
    market.scale_prices([inst.good_pos["g1"]], Fraction(2))
    assert_reported_like_full_sweep(
        inst, market, "spending off equality graph on ('b1', 'g1')"
    )


def test_price_raise_past_another_good_takes_spending_off_equality_graph():
    # b1's row (g1) is wholly inside the raise, and g2 passes it: the
    # rescan leaves her spending on g1 off her new row (g2)
    inst = make_instance({"b1": 4}, {("b1", "g1"): 2, ("b1", "g2"): 1})
    market = checked_state(
        inst, {"g1": 1, "g2": 1}, {("b1", "g1"): 1}, delta=1, initial={"g1": 4, "g2": 4}
    )
    market.scale_prices([inst.good_pos["g1"]], Fraction(4))
    assert record_items(market) == [("good", 0), ("row", 0)]
    assert_reported_like_full_sweep(
        inst, market, "spending off equality graph on ('b1', 'g1')"
    )


def test_price_change_at_another_good_of_the_buyer():
    inst, market = two_buyer_market()
    # a cheaper g2 would lift b1's best ratio and take her spending on g1,
    # whose price did not move, off the equality graph; prices only rise,
    # so the cut is refused and neither the state nor its record moves
    view = market.bang_per_buck
    prices, rows = list(market.prices), list(view.rows)
    with pytest.raises(SolverError, match="below one"):
        market.scale_prices([inst.good_pos["g2"]], Fraction(1, 2))
    assert market.prices == prices and view.rows == rows
    assert record_items(market) == []
    assert is_delta_feasible(inst, market) == (True, [])


def test_raised_good_backorder_drops_below_bound_by_spending():
    inst = make_instance({"b1": 4}, {("b1", "g1"): 8})
    market = checked_state(inst, {"g1": 2}, {("b1", "g1"): 2}, delta=1, initial={"g1": 1})
    market.add_spending_units(inst.edge_id[("b1", "g1")], -1)
    assert_reported_like_full_sweep(inst, market, "backorder -1 below bound at good g1")


def test_raised_good_backorder_drops_below_bound_by_price():
    inst = make_instance({"b1": 4}, {("b1", "g1"): 8})
    market = checked_state(inst, {"g1": 2}, {("b1", "g1"): 2}, delta=1, initial={"g1": 1})
    market.scale_prices([inst.good_pos["g1"]], Fraction(3, 2))
    assert_reported_like_full_sweep(inst, market, "backorder -1 below bound at good g1")


def test_halving_leaves_a_raised_good_above_the_new_scale():
    inst = make_instance({"b1": 4}, {("b1", "g1"): 8})
    market = checked_state(inst, {"g1": 2}, {("b1", "g1"): 3}, delta=1, initial={"g1": 1})
    # a halving with no repair: the backorder of 1 passed at delta 1
    market.rescale(Fraction(1, 2))
    # a rescale is no start-over, just a mark
    assert record_items(market) == ["rescaled"]
    assert_reported_like_full_sweep(inst, market, "backorder 1 above delta at good g1")


def test_refund_units_beyond_the_cash_are_reported_like_a_full_sweep():
    # b1 holds 2 units of cash; booking 3 refund units drives it negative,
    # and only the mutator's notice of b1 makes the next check look at her
    inst = make_instance({"b1": 4}, {("b1", "g1"): 8})
    market = checked_state(inst, {"g1": 2}, {("b1", "g1"): 2}, delta=1, initial={"g1": 1})
    market.add_refund_units(0, 3)
    assert_reported_like_full_sweep(inst, market, "negative effective cash at buyer b1")


def halving_market():
    """An optimal state at delta 1 whose feasibility check has run: g1
    is raised with backorder 1, which a halving repairs; g2 is raised with
    backorder 0, and g3 is not raised and undersold by 1."""
    inst = make_instance(
        {"b1": 3, "b2": 2, "b3": 1},
        {("b1", "g1"): 4, ("b2", "g2"): 4, ("b3", "g3"): 4},
    )
    market = checked_state(
        inst,
        {"g1": 2, "g2": 2, "g3": 2},
        {("b1", "g1"): 3, ("b2", "g2"): 2, ("b3", "g3"): 1},
        delta=1,
        initial={"g1": 1, "g2": 1, "g3": 2},
    )
    return inst, market


def test_a_clean_halving_leaves_the_next_check_only_the_touched_goods(monkeypatch):
    inst, market = halving_market()
    halve_and_repair(inst, market)
    assert spending_of(inst, market)[("b1", "g1")] == Fraction(5, 2)
    tested = []
    good_faults = weak._good_faults

    def spy(inst, market, g, pair=None):
        tested.append(inst.goods[g])
        return good_faults(inst, market, g, pair)

    monkeypatch.setattr(weak, "_good_faults", spy)
    assert is_delta_feasible(inst, market) == (True, [])
    # the halving tested g2 and g3 itself; g1, which it repaired, is touched
    assert tested == ["g1"]
    assert is_delta_feasible(inst, fresh_copy(inst, market)) == (True, [])


def test_a_halving_that_finds_a_bad_good_leaves_every_good_to_the_check():
    inst, market = halving_market()
    # fault injection: g3 turns raised behind the check's back, with its
    # backorder of -1, and no mutator touches it; the halving's own goods
    # test, not the theory of a feasible state, decides what is skipped
    market.initial_prices[inst.good_pos["g3"]] = Fraction(1)
    halve_and_repair(inst, market)
    assert_reported_like_full_sweep(inst, market, "backorder -1 below bound at good g3")


def test_the_halving_record_ends_with_its_scale():
    inst, market = halving_market()
    halve_and_repair(inst, market)
    # the halving's own goods test passed, and cleared its mark
    assert "rescaled" not in record_items(market)
    assert is_delta_feasible(inst, market) == (True, [])
    # a further halving with no repair leaves g1's backorder of 1/2 above
    # the new scale; the pass of the last halving does not cover it
    market.rescale(Fraction(1, 4))
    assert record_items(market) == ["rescaled"]
    assert_reported_like_full_sweep(inst, market, "backorder 1/2 above delta at good g1")


def test_halving_makes_a_fixed_part_edge_returnable():
    # an edge gives back delta only while it holds a whole unit: the fixed
    # part 3/4 does not at delta 1, and does at delta 1/2; no mutator
    # touches it
    inst = make_instance({"b1": 4, "b2": 4}, {("b1", "g1"): 2, ("b2", "g2"): 2})
    market = scaled_state(
        inst,
        {"g1": 1, "g2": 1},
        {("b1", "g1"): Fraction(3), ("b2", "g2"): Fraction(3, 4)},
    )
    returnable = market.returnable
    assert edge_names(inst, returnable) == {("b1", "g1")}
    market.rescale(Fraction(1, 2))
    # a rescale re-tests the fixed-part edges in place
    assert market.returnable is returnable
    names = edge_names(inst, returnable)
    assert names == {("b1", "g1"), ("b2", "g2")} == direct_returnable(inst, market)


def test_sign_change_with_the_same_row_gives_a_fresh_genericity_report():
    # b1 values only g1, so doubling its price keeps her row and only moves
    # her bang-per-buck from 2 to exactly 1: she becomes critical
    inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
    market = checked_state(inst, {"g1": 1}, {}, delta=1)
    before = check_genericity(inst, market)
    assert before.ok and not before.critical_buyers_per_component
    row = market.bang_per_buck.rows[0]
    market.scale_prices([inst.good_pos["g1"]], Fraction(2))
    after = check_genericity(inst, market)
    assert market.bang_per_buck.rows[0] == row
    assert dict(after.critical_buyers_per_component) == {"B:b1": 1}
    assert after == check_genericity(inst, fresh_copy(inst, market))


def test_genericity_report_is_reused_only_by_its_own_state():
    inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
    above = state_of(inst, {"g1": 1})
    at_one = state_of(inst, {"g1": 2})
    report = check_genericity(inst, above)
    # nothing moved: the very same report again
    assert check_genericity(inst, above) is report
    # a new state has no report, and gets its own
    assert at_one.genericity is None
    assert dict(check_genericity(inst, at_one).critical_buyers_per_component) == {"B:b1": 1}
    assert not check_genericity(inst, above).critical_buyers_per_component


def test_genericity_report_cannot_be_changed():
    inst = make_instance(
        {"b1": 4, "b2": 4},
        {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g1"): 1, ("b2", "g2"): 1},
    )
    state = state_of(inst, {"g1": Fraction(1, 2), "g2": Fraction(1, 2)})
    report = check_genericity(inst, state)
    assert not report.is_forest and report.offending_cycle
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.is_forest = True
    with pytest.raises(TypeError):
        report.critical_buyers_per_component["B:b1"] = 0
    with pytest.raises(AttributeError):
        report.offending_cycle.clear()
    assert check_genericity(inst, state) is report


def raised_backorder_market():
    """A feasible state at delta 1 whose check has run: g2 is raised with a
    backorder of 7/8, within delta 1 but above any scale below it."""
    inst = make_instance({"b1": 4, "b2": 4}, {("b1", "g1"): 2, ("b2", "g2"): 2})
    market = checked_state(
        inst,
        {"g1": 1, "g2": 1},
        {("b2", "g2"): Fraction(15, 8)},
        delta=1,
        initial={"g1": 1, "g2": Fraction(1, 2)},
    )
    return inst, market


def test_a_non_whole_rescale_is_refused():
    # the scale only divides: 1 over 3/4 is no whole number, so the
    # rescale is refused before anything moves, though no count exists
    inst, market = raised_backorder_market()
    assert not market.edge_units and not any(market.refund_units)
    returnable = set(market.returnable)
    with pytest.raises(SolverError, match="cannot recount"):
        market.rescale(Fraction(3, 4))
    assert market.unit == 1 and market.returnable == returnable
    assert record_items(market) == []
    assert is_delta_feasible(inst, market) == (True, [])


def test_change_of_scale_sweeps_everything():
    inst, market = raised_backorder_market()
    # nothing is touched, but the untouched good's backorder is above 1/2
    market.rescale(Fraction(1, 2))
    assert_reported_like_full_sweep(inst, market, "backorder 7/8 above delta at good g2")
