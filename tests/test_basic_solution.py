"""The tree solve recovering a state from a cycle-free support."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcticauction.basic import (
    SupportError,
    basic_solution,
    solve_tree_flow,
)
from arcticauction.errors import GenericityError, SolverError
from arcticauction.graph import components_of_edges

from conftest import (
    edge_ids,
    make_instance,
    prices_of,
    spending_of,
)


def solve(inst, support, budgets=None):
    """``basic_solution`` of a support named by (buyer, good), returned as
    prices, spending and refunds by id strings."""
    state = basic_solution(
        inst,
        components_of_edges(inst, edge_ids(inst, support)),
        None if budgets is None else [Fraction(budgets[b]) for b in inst.buyers],
    )
    refunds = dict(zip(inst.buyers, state.refunds))
    return prices_of(inst, state), spending_of(inst, state), refunds


class TestBasicSolution:
    def test_budget_balanced_single_edge(self):
        # budget 1 against utility 2: selling the good at the budget keeps
        # bang-per-buck 2 >= 1, so the budget-balanced case stands
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        prices, spending, refunds = solve(inst, {("b1", "g1")})
        assert prices == {"g1": 1}
        assert spending == {("b1", "g1"): 1}
        assert refunds["b1"] == 0

    def test_anchored_single_edge(self):
        # budget 3: the budget-balanced solve would price at 3 and push
        # bang-per-buck to 2/3 < 1, so the buyer anchors at price 2
        inst = make_instance({"b1": 3}, {("b1", "g1"): 2})
        prices, spending, refunds = solve(inst, {("b1", "g1")})
        assert prices == {"g1": 2}
        assert spending == {("b1", "g1"): 2}
        assert refunds["b1"] == 1

    def test_two_buyers_one_good(self):
        # by hand: clearing x11 + x21 = p, full budgets x11 = x21 = 1,
        # hence p = 2 and both ratios 3/2 >= 1
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 3, ("b2", "g1"): 3}
        )
        prices, spending, refunds = solve(inst, {("b1", "g1"), ("b2", "g1")})
        assert prices == {"g1": 2}
        assert spending == {("b1", "g1"): 1, ("b2", "g1"): 1}
        assert all(v == 0 for v in refunds.values())

    def test_solution_satisfies_definition(self):
        # re-verify every defining condition independently of the solver
        inst = make_instance(
            {"b1": 4, "b2": 2},
            {("b1", "g1"): 2, ("b1", "g2"): 6, ("b2", "g2"): 3},
        )
        support = {("b1", "g1"), ("b1", "g2"), ("b2", "g2")}
        prices, spending, refunds = solve(inst, support)
        # equal bang-per-buck on each buyer's support edges
        r1 = [inst.utilities[e] / prices[e[1]] for e in support if e[0] == "b1"]
        assert len(set(r1)) == 1
        # zero off support (everything in the sparse map is on support)
        assert set(spending) <= support
        # budget identities and non-anchor refunds
        for b in inst.buyers:
            spent = sum((v for (i, _), v in spending.items() if i == b), Fraction(0))
            assert refunds[b] == inst.budgets[b] - spent
            assert refunds[b] >= 0
        # market clearing
        for g in inst.goods:
            inflow = sum((v for (_, j), v in spending.items() if j == g), Fraction(0))
            assert inflow == prices[g]

    def test_deterministic(self):
        inst = make_instance(
            {"b1": 4, "b2": 2},
            {("b1", "g1"): 2, ("b1", "g2"): 6, ("b2", "g2"): 3},
        )
        support = {("b1", "g1"), ("b1", "g2"), ("b2", "g2")}
        assert solve(inst, support) == solve(inst, support)

    def test_isolated_good_fails(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 1, ("b1", "g2"): 1})
        with pytest.raises(SupportError):
            # g2 left without a buyer
            solve(inst, {("b1", "g1")})

    def test_cycle_rejected(self):
        inst = make_instance(
            {"b1": 1, "b2": 1},
            {("b1", "g1"): 2, ("b1", "g2"): 4, ("b2", "g1"): 3, ("b2", "g2"): 6},
        )
        with pytest.raises(GenericityError):
            solve(inst, {("b1", "g1"), ("b1", "g2"), ("b2", "g1"), ("b2", "g2")})

    def test_singleton_buyer_fully_refunded(self):
        inst = make_instance(
            {"b1": 5, "b2": 1}, {("b1", "g1"): 1, ("b2", "g1"): 9}
        )
        _, spending, refunds = solve(inst, {("b2", "g1")})
        assert refunds["b1"] == 5
        assert spending == {("b2", "g1"): 1}

    def test_effective_budgets_override(self):
        inst = make_instance({"b1": 3}, {("b1", "g1"): 2})
        prices, _, refunds = solve(inst, {("b1", "g1")}, {"b1": 1})
        assert prices == {"g1": 1}
        assert refunds["b1"] == 0


def tree_component(edges):
    """The walker's component of a connected bipartite edge list, and its
    instance."""
    inst = make_instance(
        {b: 1 for b, _ in edges}, {edge: 1 for edge in edges}
    )
    (comp,) = components_of_edges(inst, edge_ids(inst, edges)).components
    return inst, comp


def tree_flow(inst, comp, supply, demand):
    """``solve_tree_flow`` on data and flows keyed by id strings."""
    flows = solve_tree_flow(
        inst,
        comp,
        {inst.buyer_pos[b]: v for b, v in supply.items()},
        {inst.good_pos[g]: v for g, v in demand.items()},
    )
    return {inst.edge_names[e]: v for e, v in flows.items()}


def assert_flow_meets_data(inst, comp, flows, supply, demand):
    assert list(flows) == [inst.edge_names[e] for e in comp.edges]
    for b in supply:
        assert sum((v for e, v in flows.items() if e[0] == b), Fraction(0)) == supply[b]
    for g in demand:
        assert sum((v for e, v in flows.items() if e[1] == g), Fraction(0)) == demand[g]


class TestSolveTreeFlow:
    def test_single_edge(self):
        inst, comp = tree_component([("b1", "g1")])
        flows = tree_flow(inst, comp, {"b1": Fraction(5)}, {"g1": Fraction(5)})
        assert flows == {("b1", "g1"): 5}

    def test_star(self):
        inst, comp = tree_component([("b1", "g1"), ("b1", "g2")])
        supply = {"b1": Fraction(5)}
        demand = {"g1": Fraction(2), "g2": Fraction(3)}
        flows = tree_flow(inst, comp, supply, demand)
        assert flows == {("b1", "g1"): 2, ("b1", "g2"): 3}
        assert_flow_meets_data(inst, comp, flows, supply, demand)

    def test_unbalanced_data_raises(self):
        inst, comp = tree_component([("b1", "g1"), ("b2", "g1")])
        supply = {"b1": Fraction(1), "b2": Fraction(1)}
        with pytest.raises(SolverError, match="unbalanced"):
            tree_flow(inst, comp, supply, {"g1": Fraction(3)})

    def test_cycle_raises(self):
        inst, comp = tree_component(
            [("b1", "g1"), ("b1", "g2"), ("b2", "g1"), ("b2", "g2")]
        )
        supply = {"b1": Fraction(1), "b2": Fraction(1)}
        with pytest.raises(SolverError, match="not a tree"):
            tree_flow(inst, comp, supply, {"g1": Fraction(1), "g2": Fraction(1)})


def _tree_strategy():
    """Random bipartite tree with supplies and demands (balanced)."""

    @st.composite
    def build(draw):
        n_buyers = draw(st.integers(min_value=1, max_value=4))
        n_goods = draw(st.integers(min_value=1, max_value=4))
        buyers = [f"b{k}" for k in range(n_buyers)]
        goods = [f"g{k}" for k in range(n_goods)]
        edges = []
        # attach nodes one by one, alternating sides where possible
        placed_b, placed_g = [buyers[0]], []
        for g in goods:
            anchor = draw(st.sampled_from(placed_b))
            edges.append((anchor, g))
            placed_g.append(g)
        for b in buyers[1:]:
            anchor = draw(st.sampled_from(placed_g))
            edges.append((b, anchor))
            placed_b.append(b)

        def balanced_pair():
            supply = {
                b: draw(
                    st.fractions(min_value=0, max_value=10).map(Fraction)
                )
                for b in buyers
            }
            total = sum(supply.values(), Fraction(0))
            weights = [
                draw(st.fractions(min_value=Fraction(1, 3), max_value=3))
                for _ in goods
            ]
            wt = sum(weights, Fraction(0))
            demand = {g: total * w / wt for g, w in zip(goods, weights)}
            return supply, demand

        return buyers, goods, edges, balanced_pair(), balanced_pair()

    return build()


@settings(max_examples=60, deadline=None)
@given(data=_tree_strategy())
def test_tree_flow_stability(data):
    # two balanced data vectors on the same tree: each edge flow meets every
    # node's equation exactly and moves by at most half the total variation
    # of the node data
    buyers, goods, edges, (s1, d1), (s2, d2) = data
    inst, comp = tree_component(edges)
    f1 = tree_flow(inst, comp, s1, d1)
    f2 = tree_flow(inst, comp, s2, d2)
    assert_flow_meets_data(inst, comp, f1, s1, d1)
    assert_flow_meets_data(inst, comp, f2, s2, d2)
    variation = sum((abs(s1[b] - s2[b]) for b in buyers), Fraction(0)) + sum(
        (abs(d1[g] - d2[g]) for g in goods), Fraction(0)
    )
    for e in edges:
        assert abs(f1[e] - f2[e]) <= variation / 2
