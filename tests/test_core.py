"""Instance loading, derived constants, and the perturbation layer."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcticauction.core import (
    EPSILON_RESOLUTION,
    InstanceError,
    MarketInstance,
    PerturbationConfig,
    ceil_log2,
    compute_stats,
    format_rational,
    instance_from_document,
    parse_rational,
    perturb,
)

from arcticauction.randgen import random_instance
from arcticauction.rational import Q

from conftest import make_instance


class TestParseRational:
    def test_integer(self):
        assert parse_rational(3) == Fraction(3)

    def test_fraction_string(self):
        assert parse_rational("3/2") == Fraction(3, 2)

    def test_negative(self):
        assert parse_rational("-5") == Fraction(-5)

    # "٣/٤", "１" and "1/２" are Arabic-Indic and fullwidth digits, which
    # int() would read; the last four carry whitespace outside ASCII (a
    # no-break space, an ideographic space, a line separator and a file
    # separator), which str.strip() would remove
    @pytest.mark.parametrize(
        "bad",
        [
            1.5,
            "1.5",
            "a/b",
            "1/0",
            None,
            True,
            "٣/٤",
            "１",
            "1/２",
            "\xa03",
            "3\u3000",
            "\u20281/2",
            "3\x1c",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(InstanceError):
            parse_rational(bad)

    def test_accepts_ascii_whitespace_around_the_number(self):
        assert parse_rational(" 3 ") == 3
        assert parse_rational("\t-1/2\n") == Fraction(-1, 2)

    def test_roundtrip(self):
        for v in [Fraction(3), Fraction(-7, 2), Fraction(0)]:
            assert parse_rational(format_rational(v)) == v

    @pytest.mark.parametrize("text", ["1" * 4301, "1/" + "1" * 4301])
    def test_rejects_numbers_past_the_int_string_limit(self, text):
        with pytest.raises(InstanceError, match="too long"):
            parse_rational(text)


class TestLoadInstance:
    def test_direct_construction(self):
        doc = {
            "buyers": [{"id": "b1", "budget": "1"}],
            "goods": ["g1"],
            "utilities": [["b1", "g1", "2"]],
        }
        inst = instance_from_document(doc)
        stats = compute_stats(inst)
        assert stats.n == 2
        assert stats.m == 1

    def test_isolated_buyer_rejected(self):
        doc = {
            "buyers": [{"id": "b1", "budget": 1}, {"id": "b2", "budget": 1}],
            "goods": ["g1"],
            "utilities": [["b2", "g1", 1]],
        }
        with pytest.raises(InstanceError, match="isolated buyer b1"):
            instance_from_document(doc)

    def test_fractional_budget_exact(self):
        doc = {
            "buyers": [{"id": "b1", "budget": "3/2"}],
            "goods": ["g1"],
            "utilities": [["b1", "g1", 2]],
        }
        inst = instance_from_document(doc)
        assert inst.budgets["b1"] == Fraction(3, 2)

    def test_duplicate_utility_rejected(self):
        doc = {
            "buyers": [{"id": "b1", "budget": 1}],
            "goods": ["g1"],
            "utilities": [["b1", "g1", 1], ["b1", "g1", 2]],
        }
        with pytest.raises(InstanceError, match="duplicate utility"):
            instance_from_document(doc)

    def test_duplicate_buyer_rejected(self):
        doc = {
            "buyers": [{"id": "b1", "budget": 1}, {"id": "b1", "budget": 2}],
            "goods": ["g1"],
            "utilities": [["b1", "g1", 1]],
        }
        with pytest.raises(InstanceError, match="duplicate buyer"):
            instance_from_document(doc)

    def test_isolated_good_rejected(self):
        doc = {
            "buyers": [{"id": "b1", "budget": 1}],
            "goods": ["g1", "g2"],
            "utilities": [["b1", "g1", 1]],
        }
        with pytest.raises(InstanceError, match="isolated good g2"):
            instance_from_document(doc)

    def test_missing_file(self, tmp_path):
        from arcticauction.core import load_instance

        with pytest.raises(InstanceError):
            load_instance(str(tmp_path / "nope.json"))


class TestComputeStats:
    def test_d_bound_n2(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        stats = compute_stats(inst)
        assert stats.d_bound == 2 == 2 * 1 * 2**0  # n * L * U**k, k = 0

    def test_d_bound_n3(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2, ("b1", "g2"): 1})
        stats = compute_stats(inst)
        assert stats.n == 3
        assert stats.d_bound == 6 == 3 * 1 * 2**1  # k = min(1, 2 - 1)

    def test_counts(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 1, ("b1", "g2"): 1})
        stats = compute_stats(inst)
        assert stats.n == 3
        assert stats.m == 2

    def test_rational_utilities_clear_denominators(self):
        # with fractional utilities the bound uses the lcm-cleared values:
        # L = 2, U = 3/2 * 2 and k = 0
        inst = make_instance({"b1": 1}, {("b1", "g1"): Fraction(3, 2)})
        stats = compute_stats(inst)
        assert stats.d_bound == 4 == 2 * 2 * 3**0  # n * L * U**k


class TestPerturb:
    def test_zero_magnitude_is_identity(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        cfg = PerturbationConfig(magnitude=Fraction(0), seed=1)
        assert perturb(inst, cfg).utilities == inst.utilities

    def test_same_seed_same_instance(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2, ("b1", "g2"): 6})
        cfg = PerturbationConfig(magnitude=Fraction(1, 1000), seed=99)
        assert perturb(inst, cfg).utilities == perturb(inst, cfg).utilities

    def test_equal_utilities_become_distinct(self):
        # the drawn offsets are distinct rationals, so ties always break
        inst = make_instance({"b1": 1}, {("b1", "g1"): 1, ("b1", "g2"): 1})
        cfg = PerturbationConfig(magnitude=Fraction(1, 1000), seed=0)
        out = perturb(inst, cfg)
        assert out.utilities[("b1", "g1")] != out.utilities[("b1", "g2")]

    def test_sparsity_and_factor_bounds(self):
        inst = make_instance(
            {"b1": 4, "b2": 2},
            {("b1", "g1"): 2, ("b1", "g2"): 6, ("b2", "g2"): 1},
        )
        sigma = Fraction(1, 10**6)
        out = perturb(inst, PerturbationConfig(magnitude=sigma, seed=5))
        assert set(out.utilities) == set(inst.utilities)
        for edge, original in inst.utilities.items():
            assert original < out.utilities[edge] < original * (1 + sigma)

    def test_magnitude_bound_enforced(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        cfg = PerturbationConfig(magnitude=Fraction(1, 2), seed=0)
        with pytest.raises(InstanceError, match="too large"):
            perturb(inst, cfg)

    def test_a_float_magnitude_is_refused(self):
        # a float would carry binary rounding error into the utilities
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        cfg = PerturbationConfig(magnitude=1e-9, seed=0)
        with pytest.raises(InstanceError, match="not an exact rational: 1e-09"):
            perturb(inst, cfg)

    def test_offsets_match_the_fixed_resolution_below_its_size(self):
        inst = make_instance({"b1": 4}, {("b1", "g1"): 2, ("b1", "g2"): 6})
        sigma = Fraction(1, 1000)
        out = perturb(inst, PerturbationConfig(magnitude=sigma, seed=7))
        draws = random.Random(7).sample(range(1, EPSILON_RESOLUTION), 2)
        for edge, a in zip(inst.edge_names, draws):
            expected = inst.utilities[edge] * (1 + sigma * Fraction(a, EPSILON_RESOLUTION))
            assert out.utilities[edge] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=12),
        draw_seed=st.integers(min_value=0, max_value=10**6),
        den_bits=st.integers(min_value=0, max_value=40),
        sigma_den=st.integers(min_value=2, max_value=10**40),
        data=st.data(),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_utilities_match_fraction_arithmetic_on_the_same_draws(
        self, n, draw_seed, den_bits, sigma_den, data, seed
    ):
        # utilities with denominators of up to 40 bits, and a sigma below
        # the bound whose denominator may run to 10**40 and more
        base = random_instance(n, random.Random(draw_seed))
        rng = random.Random(draw_seed + 1)
        inst = MarketInstance(
            buyers=base.buyers,
            goods=base.goods,
            budgets=base.budgets,
            utilities={
                e: Fraction(u) / rng.randint(1, 2**den_bits)
                for e, u in base.utilities.items()
            },
        )
        sigma_num = data.draw(st.integers(min_value=1, max_value=sigma_den - 1))
        stats = compute_stats(inst)
        bound = Fraction(1, 2 * stats.n * stats.m) / stats.u_max
        sigma = bound * Fraction(sigma_num, sigma_den)
        out = perturb(inst, PerturbationConfig(magnitude=sigma, seed=seed))
        resolution = max(EPSILON_RESOLUTION, 1 << len(inst.edge_names).bit_length())
        draws = random.Random(seed).sample(range(1, resolution), len(inst.edge_names))
        expected = {
            edge: inst.utilities[edge] * (1 + sigma * Fraction(a, resolution))
            for edge, a in zip(inst.edge_names, draws)
        }
        assert out.utilities == expected
        assert list(out.utilities) == list(inst.utilities)
        assert all(type(u) is Q for u in out.utilities.values())
        for e, u in enumerate(out.utility):
            assert (u.numerator, u.denominator) == out.utility_pair[e]

    def test_dense_market_beyond_the_resolution(self):
        # 91 x 91 = 8281 edges, more than EPSILON_RESOLUTION - 1 distinct draws
        buyers = tuple(f"b{k}" for k in range(91))
        goods = tuple(f"g{k}" for k in range(91))
        inst = MarketInstance(
            buyers=buyers,
            goods=goods,
            budgets={b: Fraction(1) for b in buyers},
            utilities={(b, g): Fraction(1) for b in buyers for g in goods},
        )
        sigma = Fraction(1, 10**9)
        out = perturb(inst, PerturbationConfig(magnitude=sigma, seed=0))
        offsets = {(u - 1) / sigma for u in out.utilities.values()}
        assert len(offsets) == len(inst.utilities) == 8281
        assert all(0 < eps < 1 for eps in offsets)

    def test_offsets_have_bounded_denominator(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        cfg = PerturbationConfig(magnitude=Fraction(1, 100), seed=3)
        out = perturb(inst, cfg)
        assert out.utilities[("b1", "g1")].denominator <= 100 * EPSILON_RESOLUTION


class TestCeilLog2:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(1), 0),
            (Fraction(2), 1),
            (Fraction(3), 2),
            (Fraction(1, 2), -1),
            (Fraction(1, 3), -1),
            (Fraction(5, 8), -0),
        ],
    )
    def test_small_values(self, value, expected):
        assert ceil_log2(value) == expected

    def test_huge_value(self):
        v = Fraction(10) ** 500
        k = ceil_log2(v)
        assert Fraction(2) ** k >= v > Fraction(2) ** (k - 1)


def test_document_order_is_canonical():
    inst = MarketInstance(
        buyers=("z", "a"),
        goods=("g2", "g1"),
        budgets={"z": Fraction(1), "a": Fraction(1)},
        utilities={("z", "g2"): Fraction(1), ("a", "g1"): Fraction(1)},
    )
    assert inst.buyer_pos == {"z": 0, "a": 1}
    assert inst.good_pos == {"g2": 0, "g1": 1}


def test_instance_keeps_its_numbers_as_q_in_dicts_of_its_own():
    budgets = {"b1": Fraction(3, 2), "b2": 2}
    utilities = {("b1", "g1"): Fraction(1), ("b2", "g1"): 5}
    inst = MarketInstance(
        buyers=("b1", "b2"), goods=("g1",), budgets=budgets, utilities=utilities
    )
    values = [*inst.budgets.values(), *inst.utilities.values()]
    assert all(type(v) is Q for v in values)
    assert inst.budgets == {"b1": Fraction(3, 2), "b2": 2}
    assert inst.budgets is not budgets and type(budgets["b1"]) is Fraction
    assert type(parse_rational("3/2")) is Q and type(parse_rational(4)) is Q


@pytest.mark.parametrize("bad", [0.5, "1", True, None])
def test_instance_rejects_numbers_that_are_not_exact(bad):
    for budget, utility in ((bad, Fraction(1)), (Fraction(1), bad)):
        with pytest.raises(InstanceError, match="not an exact rational"):
            MarketInstance(
                buyers=("b1",),
                goods=("g1",),
                budgets={"b1": budget},
                utilities={("b1", "g1"): utility},
            )


def test_instance_is_frozen_with_adjacency_in_document_order():
    inst = make_instance(
        {"b2": 1, "b1": 1},
        {("b1", "g2"): 1, ("b2", "g1"): 1, ("b1", "g1"): 1},
    )
    assert inst.goods == ("g2", "g1")
    # edge ids in canonical (buyer, good) document order
    assert inst.edge_names == (("b2", "g1"), ("b1", "g2"), ("b1", "g1"))
    assert inst.edges() == list(inst.edge_names)
    assert all(inst.edge_id[edge] == e for e, edge in enumerate(inst.edge_names))

    def named(edges):
        return [inst.edge_names[e] for e in edges]

    # b2 and g2 come first: each buyer's goods and each good's buyers
    assert [named(edges) for edges in inst.buyer_edges] == [
        [("b2", "g1")],
        [("b1", "g2"), ("b1", "g1")],
    ]
    assert [named(edges) for edges in inst.good_edges] == [
        [("b1", "g2")],
        [("b2", "g1"), ("b1", "g1")],
    ]
    for e, (b, g) in enumerate(inst.edge_names):
        assert (inst.edge_buyer[e], inst.edge_good[e]) == (
            inst.buyer_pos[b],
            inst.good_pos[g],
        )
        assert inst.utility[e] == inst.utilities[(b, g)]
    for run in inst.buyer_edges:  # a run of ids, by good
        assert list(run) == list(range(run[0], run[-1] + 1))
        assert [inst.edge_good[e] for e in run] == sorted(inst.edge_good[e] for e in run)
        assert inst.utility_pair[e] == (inst.utility[e].numerator, inst.utility[e].denominator)
    assert inst.budget == (inst.budgets["b2"], inst.budgets["b1"])
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.buyers = ("b1",)


def test_stats_are_derived_once_and_leave_equality_and_repr_alone():
    inst = make_instance({"b1": 4, "b2": 2}, {("b1", "g1"): 2, ("b2", "g1"): Fraction(1, 3)})
    assert inst.stats == compute_stats(inst)
    assert inst.stats is inst.stats
    twin = make_instance({"b1": 4, "b2": 2}, {("b1", "g1"): 2, ("b2", "g1"): Fraction(1, 3)})
    assert twin == inst and twin.stats is not inst.stats
    assert repr(inst) == (
        "MarketInstance(buyers=('b1', 'b2'), goods=('g1',),"
        " budgets={'b1': Q(4, 1), 'b2': Q(2, 1)},"
        " utilities={('b1', 'g1'): Q(2, 1), ('b2', 'g1'): Q(1, 3)})"
    )
    assert [f.name for f in dataclasses.fields(inst) if f.compare] == [
        "buyers", "goods", "budgets", "utilities", "buyer_pos", "good_pos"
    ]
    assert not any(f.init or f.compare or f.repr for f in dataclasses.fields(inst)
                   if f.name == "stats")
    other = make_instance({"b1": 4, "b2": 3}, {("b1", "g1"): 2, ("b2", "g1"): Fraction(1, 3)})
    assert other != inst
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.stats = compute_stats(other)
    with pytest.raises(TypeError):
        MarketInstance(
            buyers=inst.buyers,
            goods=inst.goods,
            budgets=inst.budgets,
            utilities=inst.utilities,
            stats=inst.stats,
        )


def test_duplicate_good_rejected():
    doc = {
        "buyers": [{"id": "b1", "budget": 1}],
        "goods": ["g1", "g1"],
        "utilities": [["b1", "g1", 1]],
    }
    with pytest.raises(InstanceError, match="duplicate good"):
        instance_from_document(doc)


def test_budget_for_unknown_buyer_rejected():
    # a budget for an id that is no buyer would still raise the largest
    # budget, the halving solver's first scale
    with pytest.raises(InstanceError, match="budget for unknown buyer ghost"):
        MarketInstance(
            buyers=("b1",),
            goods=("g1",),
            budgets={"b1": 3, "ghost": 10**6},
            utilities={("b1", "g1"): 2},
        )
