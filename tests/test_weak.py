"""The halving-scale solver: initialization, steps, phases, full runs."""

from fractions import Fraction

import pytest

from arcticauction import weak
from arcticauction.core import PerturbationConfig, ceil_log2, compute_stats, perturb
from arcticauction.errors import SolverError
from arcticauction.oracle import brute_force_equilibrium
from arcticauction.trace import PhaseTrace, TraceRow
from arcticauction.weak import (
    SearchTree,
    check_phase_invariants,
    halve_and_repair,
    initialize,
    inner_step,
    is_delta_feasible,
    is_delta_optimal,
    potential,
    price_and_augment,
    refund_step,
    run_weak,
    start_phase,
    update_price_star,
)

from conftest import (
    alphas_of,
    buyer_node,
    check_nondecreasing,
    check_step_lines,
    edge_ids,
    edge_names,
    good_node,
    lean_sigma,
    make_instance,
    prices_of,
    refunds_of,
    scaled_state,
    spending_of,
    state_of,
)


class TestInitialize:
    def test_single_buyer_two_goods(self):
        # total utility 8, budget 4, n = 3: supports are (1/3, 1), both below
        # the utility caps, and the scale starts at the largest budget
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2, ("b1", "g2"): 6})
        market = initialize(inst)
        assert prices_of(inst, market) == {"g1": Fraction(1, 3), "g2": Fraction(1)}
        assert market.unit == 4
        assert spending_of(inst, market) == {}
        assert refunds_of(inst, market) == {}

    def test_two_buyers_take_max(self):
        inst = make_instance(
            {"b1": 1, "b2": 2}, {("b1", "g1"): 2, ("b2", "g1"): 2}
        )
        market = initialize(inst)
        # supports: b1 gives 2*1/(3*2) = 1/3, b2 gives 2*2/(3*2) = 2/3,
        # both under the utility cap, so the larger one wins
        assert prices_of(inst, market)["g1"] == Fraction(2, 3)

    def test_two_buyers_capped_by_utility(self):
        inst = make_instance(
            {"b1": 4, "b2": 8}, {("b1", "g1"): 2, ("b2", "g1"): 2}
        )
        market = initialize(inst)
        # supports 4/3 and 8/3 both exceed the utility cap u/2 = 1
        assert prices_of(inst, market)["g1"] == Fraction(1)

    def test_initial_state_feasible_with_small_potential(self):
        inst = make_instance(
            {"b1": 4, "b2": 2}, {("b1", "g1"): 2, ("b1", "g2"): 6, ("b2", "g2"): 1}
        )
        market = initialize(inst)
        ok, violations = is_delta_feasible(inst, market)
        assert ok, violations
        assert potential(inst, market) <= len(inst.buyers)

    def test_budget_heavy_buyer_capped_by_utility(self):
        # without the utility cap the support 2*10/(2*2) = 5 would overshoot
        # the equilibrium price 2 and the good could never sell
        inst = make_instance({"b1": 10}, {("b1", "g1"): 2})
        market = initialize(inst)
        assert prices_of(inst, market)["g1"] == Fraction(1)


class TestFeasibility:
    def test_fresh_initialize_feasible(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2, ("b1", "g2"): 6})
        ok, _ = is_delta_feasible(inst, initialize(inst))
        assert ok

    def test_unraised_good_may_have_negative_backorder(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
        market = scaled_state(inst, {"g1": 1}, {}, {}, delta=1)
        ok, violations = is_delta_feasible(inst, market)
        assert ok, violations

    def test_raised_good_needs_nonnegative_backorder(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
        market = scaled_state(
            inst, {"g1": 2}, {}, {}, delta=1, initial={"g1": 1}
        )
        ok, violations = is_delta_feasible(inst, market)
        assert not ok
        assert any("backorder" in v for v in violations)


class TestOptimality:
    def test_all_zero_cash(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
        market = scaled_state(inst, {"g1": 1}, {}, {"b1": 4}, delta=1)
        assert is_delta_optimal(inst, market)

    def test_cash_at_delta_not_optimal(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
        market = scaled_state(inst, {"g1": 1}, {}, {"b1": 3}, delta=1)
        assert not is_delta_optimal(inst, market)

    def test_cash_below_delta_optimal(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
        market = scaled_state(inst, {"g1": 1}, {}, {"b1": Fraction(31, 10)}, delta=1)
        assert is_delta_optimal(inst, market)


class TestPotential:
    def test_floor_sum(self):
        inst = make_instance(
            {"b1": Fraction(5, 2), "b2": Fraction(3, 10)},
            {("b1", "g1"): 2, ("b2", "g1"): 2},
        )
        market = scaled_state(inst, {"g1": 1}, {}, {}, delta=1)
        assert potential(inst, market) == 2  # floor(2.5) + floor(0.3)

    def test_zero_when_optimal(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
        market = scaled_state(inst, {"g1": 1}, {}, {"b1": Fraction(7, 2)}, delta=1)
        assert potential(inst, market) == 0


def active_tree(inst, market, root):
    """The root buyer's residual search tree, as price_and_augment gets it."""
    return SearchTree(inst, market, [buyer_node(inst, root)], market.returnable)


class TestUpdatePriceStar:
    def test_buyer_critical_event(self):
        # active good's backorder event sits at q = 4, the buyer's
        # bang-per-buck of 3 fires first
        inst = make_instance({"b1": 8}, {("b1", "g1"): 3})
        market = scaled_state(
            inst, {"g1": 1}, {("b1", "g1"): 4}, {}, delta=1, initial={"g1": 1}
        )
        assert update_price_star(inst, market, active_tree(inst, market, "b1")) == (
            False,
            buyer_node(inst, "b1"),
        )
        assert prices_of(inst, market)["g1"] == 3
        assert alphas_of(inst, market)["b1"] == 1

    def test_backorder_zero_event(self):
        # inflow twice the price and bang-per-buck far away: q = 2
        inst = make_instance({"b1": 16}, {("b1", "g1"): 12})
        market = scaled_state(inst, {"g1": 1}, {("b1", "g1"): 2}, {}, delta=1)
        assert update_price_star(inst, market, active_tree(inst, market, "b1")) == (
            False,
            good_node(inst, "g1"),
        )
        assert prices_of(inst, market)["g1"] == 2
        assert market.backorder(inst.good_pos["g1"]) == 0

    def test_new_equality_edge_event(self):
        # bang-per-buck 3 on the active good, ratio 2 on the inactive one:
        # the ratios meet at q = 3/2
        inst = make_instance(
            {"b1": 16}, {("b1", "g1"): 3, ("b1", "g2"): 2}
        )
        market = scaled_state(
            inst,
            {"g1": 1, "g2": 1},
            {("b1", "g1"): 2},
            {},
            delta=1,
        )
        # the tie needs a new search; the raised tree has no terminal
        assert update_price_star(inst, market, active_tree(inst, market, "b1")) == (True, None)
        assert prices_of(inst, market) == {"g1": Fraction(3, 2), "g2": Fraction(1)}
        assert inst.edge_id[("b1", "g2")] in market.bang_per_buck.edges


class TestPriceAndAugment:
    def test_good_terminal_backorder_math(self):
        # the terminal good's backorder grows by exactly delta; untouched
        # goods keep theirs, and only the root's cash moves
        inst = make_instance(
            {"b1": 4, "b2": 4}, {("b1", "g1"): 2, ("b2", "g2"): 2}
        )
        market = scaled_state(
            inst, {"g1": 1, "g2": 1}, {}, {"b2": Fraction(7, 2)}, delta=1
        )
        before_g2 = market.backorder(inst.good_pos["g2"])
        phi_before = potential(inst, market)
        kind, subject = price_and_augment(inst, market, inst.buyer_pos["b1"])
        assert (kind, subject) == ("augment_good", "g1")
        assert market.backorder(inst.good_pos["g1"]) == -1 + 1
        assert market.backorder(inst.good_pos["g2"]) == before_g2
        assert potential(inst, market) == phi_before - 1
        assert market.effective_cash(inst.buyer_pos["b2"]) == Fraction(1, 2)

    def test_buyer_terminal_keeps_backorders(self):
        # b2 is critical (bang-per-buck exactly 1) and reachable through
        # g1's spending, so the unit routes to b2 and becomes its refund
        inst = make_instance(
            {"b1": 8, "b2": 8}, {("b1", "g1"): 2, ("b2", "g1"): 1}
        )
        market = scaled_state(
            inst,
            {"g1": 1},
            {("b2", "g1"): 2},
            {"b2": 6},
            delta=1,
        )
        backorders = [market.backorder(g) for g in range(len(inst.goods))]
        phi_before = potential(inst, market)
        kind, subject = price_and_augment(inst, market, inst.buyer_pos["b1"])
        assert (kind, subject) == ("augment_buyer", "b2")
        assert refunds_of(inst, market)["b2"] == 7
        assert [market.backorder(g) for g in range(len(inst.goods))] == backorders
        assert potential(inst, market) == phi_before - 1
        # the unit moved along b1 -> g1 -> b2
        assert spending_of(inst, market)[("b1", "g1")] == 1
        assert spending_of(inst, market)[("b2", "g1")] == 1


class TestPriceRaiseTies:
    """Raises whose winning multiplier several events reach at once: the
    step goes to the first critical buyer in canonical order, else to the
    first exhausted good; a tied edge event searches again first.  A raise
    whose edge event ties names the buyer or good it ties as well.  Each
    case calls the solver through the module, so a wrapper installed on
    ``weak.update_price_star`` sees its raises."""

    def test_critical_buyer_beats_exhausted_good(self):
        # at q = 2, b2's bang-per-buck reaches one and g1's backorder zero
        inst = make_instance({"b1": 4, "b2": 2}, {("b1", "g1"): 4, ("b2", "g1"): 2})
        market = scaled_state(inst, {"g1": 1}, {("b2", "g1"): 2}, {}, delta=1)
        assert inner_step(inst, market) == ("augment_buyer", "b2", 1)
        assert prices_of(inst, market) == {"g1": 2}
        assert spending_of(inst, market) == {("b1", "g1"): 1, ("b2", "g1"): 1}
        assert refunds_of(inst, market) == {"b2": 1}

    def test_two_critical_buyers_go_to_the_first_in_document_order(self):
        # the search reaches b2 before b3, but b3 comes first in the
        # document; both reach bang-per-buck one at q = 2
        inst = make_instance(
            {"b1": 4, "b3": 3, "b2": 3},
            {("b1", "g1"): 4, ("b2", "g1"): 2, ("b2", "g2"): 2, ("b3", "g2"): 2},
        )
        market = scaled_state(
            inst, {"g1": 1, "g2": 1}, {("b2", "g1"): 3, ("b3", "g2"): 3}, {}, delta=1
        )
        assert inner_step(inst, market) == ("augment_buyer", "b3", 1)
        assert prices_of(inst, market) == {"g1": 2, "g2": 2}
        assert spending_of(inst, market) == {
            ("b1", "g1"): 1,
            ("b2", "g1"): 2,
            ("b2", "g2"): 1,
            ("b3", "g2"): 2,
        }
        assert refunds_of(inst, market) == {"b3": 1}

    def test_two_exhausted_goods_go_to_the_first_in_document_order(self):
        # the search reaches g2 before g1, but g1 comes first in the
        # document; both backorders reach zero at q = 2
        inst = make_instance(
            {"b1": 4, "b2": 4}, {("b2", "g1"): 3, ("b1", "g2"): 4, ("b2", "g2"): 3}
        )
        market = scaled_state(
            inst, {"g1": 1, "g2": 1}, {("b2", "g1"): 2, ("b2", "g2"): 2}, {}, delta=1
        )
        assert inner_step(inst, market) == ("augment_good", "g1", 1)
        assert prices_of(inst, market) == {"g1": 2, "g2": 2}
        assert spending_of(inst, market) == {
            ("b1", "g2"): 1,
            ("b2", "g1"): 3,
            ("b2", "g2"): 1,
        }

    def test_edge_event_tie_searches_again(self):
        # at q = 2 g2's backorder reaches zero and b1's edge to g1 joins
        # the equality graph; the new search reaches the unsold g1, which
        # comes first in the document, so the unit goes there, not to g2
        inst = make_instance(
            {"b1": 4, "b2": 2}, {("b1", "g1"): 2, ("b1", "g2"): 4, ("b2", "g2"): 8}
        )
        market = scaled_state(inst, {"g1": 1, "g2": 1}, {("b2", "g2"): 2}, {}, delta=1)
        assert inner_step(inst, market) == ("augment_good", "g1", 1)
        assert prices_of(inst, market) == {"g1": 1, "g2": 2}
        assert spending_of(inst, market) == {("b1", "g1"): 1, ("b2", "g2"): 2}

    def test_edge_event_tying_an_exhausted_good_names_the_good(self):
        # at q = 2 g1's backorder reaches zero and b1's edge to g2 (ratio
        # 2 against her best 4) joins the equality graph
        inst = make_instance({"b1": 16}, {("b1", "g1"): 4, ("b1", "g2"): 2})
        market = scaled_state(inst, {"g1": 1, "g2": 1}, {("b1", "g1"): 2}, {}, delta=1)
        assert weak.update_price_star(inst, market, active_tree(inst, market, "b1")) == (
            True,
            good_node(inst, "g1"),
        )
        assert prices_of(inst, market) == {"g1": 2, "g2": 1}
        assert inst.edge_id[("b1", "g2")] in market.bang_per_buck.edges

    def test_edge_event_tying_a_critical_buyer_names_the_buyer(self):
        # at q = 2 b2's bang-per-buck reaches one and b1's edge to g2 joins
        # the equality graph; g1's backorder and b1's bang-per-buck wait
        # for q = 4
        inst = make_instance(
            {"b1": 16, "b2": 5}, {("b1", "g1"): 4, ("b1", "g2"): 2, ("b2", "g1"): 2}
        )
        market = scaled_state(inst, {"g1": 1, "g2": 1}, {("b2", "g1"): 4}, {}, delta=1)
        assert weak.update_price_star(inst, market, active_tree(inst, market, "b1")) == (
            True,
            buyer_node(inst, "b2"),
        )
        assert prices_of(inst, market) == {"g1": 2, "g2": 1}
        assert alphas_of(inst, market) == {"b1": 2, "b2": 1}
        assert inst.edge_id[("b1", "g2")] in market.bang_per_buck.edges


class TestRefundStep:
    def test_cash_drops_by_delta(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
        market = scaled_state(inst, {"g1": 2}, {}, {"b1": 3}, delta=1)
        assert refund_step(inst, market, inst.buyer_pos["b1"]) == 1
        assert market.effective_cash(inst.buyer_pos["b1"]) == 0
        assert refunds_of(inst, market)["b1"] == 4

    def test_other_buyers_untouched_and_potential_drop(self):
        inst = make_instance(
            {"b1": 4, "b2": 4}, {("b1", "g1"): 2, ("b2", "g1"): 8}
        )
        market = scaled_state(inst, {"g1": 2}, {}, {}, delta=1)
        cash_b2 = market.effective_cash(inst.buyer_pos["b2"])
        phi = potential(inst, market)
        # cash 4 at delta 1: a run of four refund steps, booked at once
        assert refund_step(inst, market, inst.buyer_pos["b1"]) == 4
        assert market.effective_cash(inst.buyer_pos["b2"]) == cash_b2
        assert potential(inst, market) == phi - 4

    def test_books_floor_of_cash_over_delta(self):
        # cash 23/6 at delta 1/2: floor(23/3) = 7 steps, 1/3 left over
        inst = make_instance({"b1": Fraction(23, 6)}, {("b1", "g1"): 2})
        market = scaled_state(inst, {"g1": 2}, {}, {}, delta=Fraction(1, 2))
        assert refund_step(inst, market, inst.buyer_pos["b1"]) == 7
        assert refunds_of(inst, market)["b1"] == Fraction(7, 2)
        assert market.effective_cash(inst.buyer_pos["b1"]) == Fraction(1, 3)
        assert is_delta_optimal(inst, market)

    def test_precondition_enforced(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 8})
        market = scaled_state(inst, {"g1": 2}, {}, {}, delta=1)
        with pytest.raises(SolverError, match="bang-per-buck 4, cash 4"):
            refund_step(inst, market, inst.buyer_pos["b1"])  # bang-per-buck is 4 > 1

    def test_cash_below_delta_rejected(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2})
        market = scaled_state(inst, {"g1": 2}, {}, {"b1": Fraction(7, 2)}, delta=1)
        with pytest.raises(SolverError):
            refund_step(inst, market, inst.buyer_pos["b1"])  # cash 1/2 < delta
        assert refunds_of(inst, market)["b1"] == Fraction(7, 2)

    def test_inner_step_reports_the_run(self):
        inst = make_instance(
            {"b1": 3, "b2": 5}, {("b1", "g1"): 2, ("b2", "g1"): 2}
        )
        market = scaled_state(inst, {"g1": 2}, {}, {}, delta=1)
        # both buyers are at bang-per-buck one; b1 comes first canonically
        assert inner_step(inst, market) == ("refund", "b1", 3)
        assert inner_step(inst, market) == ("refund", "b2", 5)
        assert is_delta_optimal(inst, market)


class TestTraceRuns:
    def trace_with_rows(self):
        trace = PhaseTrace(algorithm="weak", edge_names=())
        trace.begin_phase(0, Fraction(1, 2), "init", 5, set())
        trace.add_row(TraceRow(0, Fraction(1, 2), "augment_good", "g1", 5, 4))
        trace.add_row(TraceRow(0, Fraction(1, 2), "refund", "b2", 4, 1, steps=3))
        return trace

    def test_run_row_expands_to_one_line_per_step(self):
        lines = self.trace_with_rows().to_lines()
        steps = [line for line in lines if line["event"] == "step"]
        assert [
            (s["kind"], s["subject"], s["phi_before"], s["phi_after"]) for s in steps
        ] == [
            ("augment_good", "g1", 5, 4),
            ("refund", "b2", 4, 3),
            ("refund", "b2", 3, 2),
            ("refund", "b2", 2, 1),
        ]
        assert all(s["delta"] == "1/2" and s["phase"] == 0 for s in steps)

    def test_step_lines_expose_a_row_that_dropped_the_wrong_amount(self):
        check_step_lines(self.trace_with_rows())
        trace = self.trace_with_rows()
        trace.add_row(TraceRow(0, Fraction(1, 2), "refund", "b1", 1, -2, steps=2))
        with pytest.raises(AssertionError):
            check_step_lines(trace)

    def test_counts_are_steps_not_rows(self):
        trace = self.trace_with_rows()
        assert trace.phases[0].iterations == 4
        assert trace.stats_doc()["refund_steps"] == 3
        assert trace.stats_doc()["augmentations"] == 1


class TestHalveAndRepair:
    def test_backorder_at_delta_repaired(self):
        inst = make_instance({"b1": 8}, {("b1", "g1"): 2})
        market = scaled_state(
            inst,
            {"g1": 3},
            {("b1", "g1"): 4},
            {"b1": 4},
            delta=1,
            initial={"g1": 1},
        )
        assert market.backorder(inst.good_pos["g1"]) == 1
        halve_and_repair(inst, market)
        assert market.unit == Fraction(1, 2)
        assert market.backorder(inst.good_pos["g1"]) == Fraction(1, 2)
        ok, violations = is_delta_feasible(inst, market)
        assert ok, violations

    def test_backorder_at_half_untouched(self):
        inst = make_instance({"b1": 8}, {("b1", "g1"): 2})
        market = scaled_state(
            inst,
            {"g1": Fraction(7, 2)},
            {("b1", "g1"): 4},
            {"b1": 4},
            delta=1,
            initial={"g1": 1},
        )
        assert market.backorder(inst.good_pos["g1"]) == Fraction(1, 2)
        halve_and_repair(inst, market)
        assert spending_of(inst, market)[("b1", "g1")] == 4

    def test_repaired_variable_stays_positive(self):
        inst = make_instance({"b1": 8}, {("b1", "g1"): 2})
        market = scaled_state(
            inst,
            {"g1": 3},
            {("b1", "g1"): 4},
            {"b1": 4},
            delta=1,
            initial={"g1": 1},
        )
        halve_and_repair(inst, market)
        assert spending_of(inst, market)[("b1", "g1")] == Fraction(7, 2) > 0


    def test_donor_holding_exactly_the_new_scale_gives_it_back(self):
        # b1's spending, left by a restart, is exactly the halved scale: it
        # is the canonically first donor and gives all of it back
        inst = make_instance({"b1": 1, "b2": 5}, {("b1", "g1"): 2, ("b2", "g1"): 2})
        market = scaled_state(
            inst,
            {"g1": 4},
            {("b1", "g1"): Fraction(1, 2), ("b2", "g1"): Fraction(9, 2)},
            {},
            delta=1,
            initial={"g1": 1},
        )
        halve_and_repair(inst, market)
        assert spending_of(inst, market) == {("b2", "g1"): Fraction(9, 2)}

    def test_donor_below_the_new_scale_is_skipped(self):
        # b1's 1/4 is positive but no unit of the halved scale, so it is not
        # returnable and b2, the next buyer, gives the unit back
        inst = make_instance({"b1": 1, "b2": 5}, {("b1", "g1"): 2, ("b2", "g1"): 2})
        market = scaled_state(
            inst,
            {"g1": 4},
            {("b1", "g1"): Fraction(1, 4), ("b2", "g1"): Fraction(19, 4)},
            {},
            delta=1,
            initial={"g1": 1},
        )
        halve_and_repair(inst, market)
        assert spending_of(inst, market) == {
            ("b1", "g1"): Fraction(1, 4),
            ("b2", "g1"): Fraction(17, 4),
        }
        assert is_delta_feasible(inst, market) == (True, [])


class TestReturnableEdges:
    def test_fixed_part_edge_returns_from_exactly_delta(self):
        inst = make_instance({"b1": 4, "b2": 4}, {("b1", "g1"): 2, ("b2", "g1"): 2})
        market = scaled_state(
            inst,
            {"g1": 2},
            {("b1", "g1"): Fraction(1, 2), ("b2", "g1"): 1},
            {},
            delta=1,
        )
        assert edge_names(inst, market.returnable) == {("b2", "g1")}
        # halved, the scale is exactly b1's spending
        market.rescale(Fraction(1, 2))
        assert edge_names(inst, market.returnable) == {("b1", "g1"), ("b2", "g1")}
        market.add_spending_units(inst.edge_id[("b2", "g1")], -2)
        assert edge_names(inst, market.returnable) == {("b1", "g1")}


class TestPhaseInvariants:
    # n = 3 and delta = 1/2, so the drift bound n * delta = 3/2 is 3 units
    inst = make_instance({"b1": 4, "b2": 4}, {("b1", "g1"): 1, ("b2", "g1"): 1})

    def moved(self, start, moves):
        """The market of a phase that starts at ``start`` spending (amounts
        as fixed parts, by edge name) and books ``moves`` (units, by edge
        name, in order)."""
        market = scaled_state(self.inst, {"g1": 1}, start, {}, delta=Fraction(1, 2))
        market.reset_moved()
        for e, units in moves:
            market.add_spending_units(self.inst.edge_id[e], units)
        return market

    def test_drift_up_to_n_delta_passes(self):
        # n * delta = 3/2: one edge rises by exactly that, another vanishes
        market = self.moved(
            {("b1", "g1"): 1, ("b2", "g1"): 1}, [(("b1", "g1"), 3), (("b2", "g1"), -2)]
        )
        assert spending_of(self.inst, market) == {("b1", "g1"): Fraction(5, 2)}
        check_phase_invariants(self.inst, 3, market)

    def test_drift_above_n_delta_raises(self):
        market = self.moved({("b1", "g1"): 1}, [(("b2", "g1"), 4)])
        with pytest.raises(SolverError, match="drifted 2 > 3/2"):
            check_phase_invariants(self.inst, 3, market)

    @pytest.mark.parametrize("units", [4, -4])
    def test_one_edge_moving_n_plus_one_units_raises(self, units):
        market = self.moved({("b1", "g1"): 2}, [(("b1", "g1"), units)])
        with pytest.raises(SolverError, match=r"\('b1', 'g1'\) drifted 2 > 3/2"):
            check_phase_invariants(self.inst, 3, market)

    def test_moves_that_cancel_do_not_drift(self):
        market = self.moved({}, [(("b1", "g1"), 4), (("b1", "g1"), -4)])
        check_phase_invariants(self.inst, 3, market)

    @pytest.mark.parametrize("fixed, drift", [("3/2", None), ("5/2", "5/2")])
    def test_an_emptied_fixed_part_drifts_by_the_units_booked(self, fixed, drift):
        # a fixed part, as a restart's state holds, empties
        # through counts once the scale divides it, and drifts by exactly
        # the units that takes
        count = Fraction(fixed) / Fraction(1, 2)
        market = self.moved(
            {("b1", "g1"): Fraction(fixed)}, [(("b1", "g1"), -int(count))]
        )
        assert spending_of(self.inst, market) == {}
        if drift is None:
            check_phase_invariants(self.inst, 3, market)
        else:
            with pytest.raises(SolverError, match=f"drifted {drift} > 3/2"):
                check_phase_invariants(self.inst, 3, market)

    def test_start_phase_counts_moves_afresh(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        market = scaled_state(inst, {"g1": 1}, {("b1", "g1"): 1}, {}, delta=1)
        market.add_spending_units(0, -1)
        assert market.moved == [-1]
        trace = PhaseTrace(algorithm="weak", edge_names=inst.edge_names)
        start_phase(inst, market, compute_stats(inst), trace, 0, "init")
        assert market.moved == [0]


class TestStartPhase:
    # one buyer holding 5 deltas of cash: potential 5 > n = 2
    inst = make_instance({"b1": 5}, {("b1", "g1"): 2})

    def start(self, entry):
        market = scaled_state(self.inst, {"g1": 1}, {}, {}, delta=1)
        trace = PhaseTrace(algorithm="strong", edge_names=self.inst.edge_names)
        return start_phase(self.inst, market, compute_stats(self.inst), trace, 3, entry)

    @pytest.mark.parametrize("entry", ["init", "halve", "delayed"])
    def test_potential_above_n_raises(self, entry):
        with pytest.raises(SolverError, match="phase 3 starts with potential 5 > n"):
            self.start(entry)

    def test_restart_may_start_above_n(self):
        assert self.start("restart").potential_start == 5


class TestRunWeak:
    def test_forced_spending_equilibrium(self, one_buyer_one_good):
        eq, trace = run_weak(one_buyer_one_good)
        assert eq.prices == {"g1": 1}
        assert eq.spending == {("b1", "g1"): 1}
        assert eq.refunds == {"b1": 0}
        assert eq.certificate.ok

    def test_forced_refund_equilibrium(self):
        inst = make_instance({"b1": 3}, {("b1", "g1"): 2})
        eq, _ = run_weak(inst)
        assert eq.prices == {"g1": 2}
        assert eq.spending == {("b1", "g1"): 2}
        assert eq.refunds == {"b1": 1}

    def test_matches_brute_force_on_perturbed_pair(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 3, ("b2", "g1"): 3}
        )
        pert = perturb(inst, PerturbationConfig(magnitude=lean_sigma(inst), seed=2))
        eq, _ = run_weak(pert)
        oracle = brute_force_equilibrium(pert)
        assert eq.prices == oracle.prices
        assert eq.spending == oracle.spending
        assert eq.refunds == oracle.refunds
        # the unperturbed answer is p=2, x=(1,1), r=0; perturbation moves it
        # only slightly
        assert abs(eq.prices["g1"] - 2) < Fraction(1, 10)

    def test_trace_discipline(self):
        inst = make_instance({"b1": 3}, {("b1", "g1"): 2, ("b1", "g2"): 1})
        pert = perturb(inst, PerturbationConfig(magnitude=lean_sigma(inst), seed=1))
        _, trace = run_weak(pert)
        stats = compute_stats(pert)
        for row in trace.rows:
            assert row.phi_after == row.phi_before - row.steps
            assert row.steps == 1 or row.kind == "refund"
        check_step_lines(trace)
        for mark in trace.phases:
            assert mark.potential_start <= stats.n
            assert mark.iterations <= stats.n
        bound = ceil_log2(stats.e_max * 8 * stats.n * stats.d_bound) + 1
        assert trace.phase_count <= bound

    def test_prices_and_refunds_nondecreasing(self, phase_starts):
        inst = make_instance(
            {"b1": 4, "b2": 2}, {("b1", "g1"): 2, ("b1", "g2"): 6, ("b2", "g2"): 1}
        )
        pert = perturb(inst, PerturbationConfig(magnitude=lean_sigma(inst), seed=3))
        _, trace = run_weak(pert)
        assert len(phase_starts) == trace.phase_count
        check_nondecreasing(phase_starts)
