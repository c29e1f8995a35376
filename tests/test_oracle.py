"""Certification, brute-force enumeration, genericity checking."""

import random
from fractions import Fraction

import pytest

from arcticauction.core import PerturbationConfig, perturb
from arcticauction.errors import GenericityError
from arcticauction.oracle import (
    brute_force_equilibrium,
    check_equilibrium,
    check_genericity,
)
from arcticauction.randgen import random_instance

from conftest import MARKET_LAYOUTS, lean_sigma, make_instance, priced, shaped_market


class TestCheckEquilibrium:
    def test_passes_valid(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        cert = check_equilibrium(
            inst,
            {"g1": Fraction(1)},
            {("b1", "g1"): Fraction(1)},
            {"b1": Fraction(0)},
        )
        assert cert.ok

    def test_fails_spending_below_par(self):
        # price 3 with budget 3 spent: clears, but bang-per-buck is 2/3 < 1,
        # which only the derived buyer-optimality condition catches
        inst = make_instance({"b1": 3}, {("b1", "g1"): 2})
        cert = check_equilibrium(
            inst,
            {"g1": Fraction(3)},
            {("b1", "g1"): Fraction(3)},
            {"b1": Fraction(0)},
        )
        assert not cert.ok
        assert "buyer_optimality" in cert.failed()

    def test_passes_refund_at_critical(self):
        inst = make_instance({"b1": 3}, {("b1", "g1"): 2})
        cert = check_equilibrium(
            inst,
            {"g1": Fraction(2)},
            {("b1", "g1"): Fraction(2)},
            {"b1": Fraction(1)},
        )
        assert cert.ok

    def test_fails_refund_complementarity(self):
        inst = make_instance({"b1": 2}, {("b1", "g1"): 4})
        cert = check_equilibrium(
            inst,
            {"g1": Fraction(1)},
            {("b1", "g1"): Fraction(1)},
            {"b1": Fraction(1)},
        )
        assert "refund_complementarity" in cert.failed()

    def test_fails_clearing(self):
        inst = make_instance({"b1": 2}, {("b1", "g1"): 4})
        cert = check_equilibrium(
            inst,
            {"g1": Fraction(3)},
            {("b1", "g1"): Fraction(2)},
            {"b1": Fraction(0)},
        )
        assert "market_clearing" in cert.failed()

    def test_pins_every_condition_and_violation(self):
        # b1 exhausts her budget but holds a refund at bang-per-buck 4 and
        # spends off her best good; b2 has a negative refund and spends at
        # bang-per-buck 1/2; b3 spends on g1, which she does not value, and
        # a negative amount on g2
        inst = make_instance(
            {"b1": 2, "b2": 2, "b3": 1},
            {("b1", "g1"): 4, ("b1", "g2"): 1, ("b2", "g1"): Fraction(1, 2), ("b3", "g2"): 3},
        )
        cert = check_equilibrium(
            inst,
            {"g1": Fraction(1), "g2": Fraction(2)},
            {
                ("b1", "g2"): Fraction(1),
                ("b2", "g1"): Fraction(1),
                ("b3", "g1"): Fraction(1),
                ("b3", "g2"): Fraction(-1),
            },
            {"b1": Fraction(1), "b2": Fraction(-1)},
        )
        assert [(c.name, c.ok, c.violations) for c in cert.conditions] == [
            ("refunds_nonnegative", False, ["buyer b2: refund -1"]),
            (
                "budgets_exhausted",
                False,
                ["buyer b2: leftover cash 2", "buyer b3: leftover cash 1"],
            ),
            ("market_clearing", False, ["good g1: backorder 1", "good g2: backorder -2"]),
            (
                "spending_on_equality_edges",
                False,
                [
                    "edge ('b1', 'g2'): spending off equality graph",
                    "edge ('b3', 'g1'): spending off equality graph",
                    "edge ('b3', 'g2'): negative spending -1",
                ],
            ),
            (
                "refund_complementarity",
                False,
                ["buyer b1: refund 1 with bang-per-buck 4 > 1"],
            ),
            (
                "buyer_optimality",
                False,
                ["edge ('b2', 'g1'): spending at bang-per-buck below one"],
            ),
        ]
        assert not cert.ok

    def test_rejects_nonpositive_price(self):
        inst = make_instance({"b1": 2}, {("b1", "g1"): 4})
        with pytest.raises(ValueError):
            check_equilibrium(inst, {"g1": Fraction(0)}, {}, {})

    # b1 with budget 3 values g1 at 2: price 2, spending 2 and refund 1 is
    # the equilibrium; each case adds one entry naming an unknown id
    @pytest.mark.parametrize(
        "prices, spending, refunds, message",
        [
            ({"g9": 5}, {}, {}, "unknown good g9"),
            ({}, {("b1", "g9"): 0}, {}, "unknown good g9"),
            ({}, {}, {"b9": 7}, "unknown buyer b9"),
            ({}, {("b9", "g1"): 0}, {}, "spending by unknown buyer b9"),
        ],
        ids=["price_good", "spending_good", "refund_buyer", "spending_buyer"],
    )
    def test_rejects_unknown_ids(self, prices, spending, refunds, message):
        inst = make_instance({"b1": 3}, {("b1", "g1"): 2})
        args = (
            {"g1": Fraction(2), **prices},
            {("b1", "g1"): Fraction(2), **spending},
            {"b1": Fraction(1), **refunds},
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_equilibrium(inst, *args)
        # without the unknown entry the candidate certifies
        assert check_equilibrium(
            inst, {"g1": Fraction(2)}, {("b1", "g1"): Fraction(2)}, {"b1": Fraction(1)}
        ).ok


class TestBruteForce:
    def test_one_buyer_one_good(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        eq = brute_force_equilibrium(inst)
        assert eq.prices == {"g1": 1}
        assert eq.spending == {("b1", "g1"): 1}
        assert eq.refunds == {"b1": 0}
        assert eq.quantities == {("b1", "g1"): 1}

    def test_perturbed_two_goods_larger_utility_wins(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2, ("b1", "g2"): 2})
        pert = perturb(inst, PerturbationConfig(magnitude=Fraction(1, 100), seed=4))
        u1 = pert.utilities[("b1", "g1")]
        u2 = pert.utilities[("b1", "g2")]
        # both goods must clear, so both carry spending; the ratios pin the
        # price split and the strictly larger utility gets the larger price
        eq = brute_force_equilibrium(pert)
        assert set(eq.spending) == {("b1", "g1"), ("b1", "g2")}
        better = ("b1", "g1") if u1 > u2 else ("b1", "g2")
        worse = ("b1", "g2") if u1 > u2 else ("b1", "g1")
        assert eq.prices[better[1]] > eq.prices[worse[1]]

    def test_degenerate_symmetric_reported(self):
        # two identical buyers against one good: either one can anchor, so
        # two supports pass and the instance is flagged, not crashed
        inst = make_instance(
            {"b1": 3, "b2": 3}, {("b1", "g1"): 2, ("b2", "g1"): 2}
        )
        with pytest.raises(GenericityError, match="2 supports"):
            brute_force_equilibrium(inst)

    def test_size_guard(self):
        inst = random_instance(12, random.Random(0))
        with pytest.raises(ValueError, match="too large"):
            brute_force_equilibrium(inst)

    def test_min_positive_coordinate_floor(self):
        # denominator bound: every positive price, spending and refund of a
        # brute-forced equilibrium has a denominator below d_bound, so it
        # exceeds 1 / d_bound; on every layout, integer and rational
        from arcticauction.core import compute_stats

        rng = random.Random(17)
        checked = 0
        for layout in MARKET_LAYOUTS:
            for rational in (False, True):
                for _ in range(12):
                    inst = shaped_market(layout, rational, rng)
                    pert = perturb(
                        inst, PerturbationConfig(magnitude=lean_sigma(inst), seed=1)
                    )
                    try:
                        eq = brute_force_equilibrium(pert)
                    except GenericityError:
                        continue
                    d_bound = compute_stats(pert).d_bound
                    values = (
                        list(eq.prices.values())
                        + list(eq.spending.values())
                        + list(eq.refunds.values())
                    )
                    for v in values:
                        if v > 0:
                            assert v.denominator < d_bound, (layout, rational, v)
                    checked += 1
        assert checked >= 80


class TestCheckGenericity:
    def test_generic_prices_pass(self):
        inst = make_instance(
            {"b1": 1, "b2": 1},
            {("b1", "g1"): 2, ("b1", "g2"): 5, ("b2", "g1"): 3},
        )
        report = check_genericity(inst, priced(inst, {"g1": Fraction(1), "g2": Fraction(7, 3)}))
        assert report.ok
        assert report.is_forest

    def test_constructed_four_cycle(self):
        # ratios tie on both goods iff u11*u22 == u12*u21; prices (1, 2)
        # then put all four edges in the equality graph
        inst = make_instance(
            {"b1": 1, "b2": 1},
            {("b1", "g1"): 2, ("b1", "g2"): 4, ("b2", "g1"): 3, ("b2", "g2"): 6},
        )
        report = check_genericity(inst, priced(inst, {"g1": Fraction(1), "g2": Fraction(2)}))
        assert not report.is_forest
        assert report.offending_cycle is not None
        assert len(report.offending_cycle) == 4

    def test_critical_buyer_counting(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 2, ("b2", "g1"): 2}
        )
        one = check_genericity(inst, priced(inst, {"g1": Fraction(4)}))
        assert one.ok  # nobody critical
        both = check_genericity(inst, priced(inst, {"g1": Fraction(2)}))
        assert not both.ok  # two critical buyers share a component
        assert max(both.critical_buyers_per_component.values()) == 2
