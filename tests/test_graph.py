"""Bang-per-buck, equality graph, residual networks, the forest walker."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcticauction.graph import (
    MarketState,
    ResidualNetwork,
    abundant_edges,
    active_set,
    bang_per_buck,
    buyer_node,
    component_key,
    components_of_abundant_graph,
    components_of_edges,
    edge_key,
    equality_graph,
    good_node,
    node_key,
)
from arcticauction.weak import ScalingState, network

from conftest import make_instance


@pytest.fixture
def two_goods():
    return make_instance({"b1": 1}, {("b1", "g1"): 2, ("b1", "g2"): 6})


class TestBangPerBuck:
    def test_max_ratio(self, two_goods):
        prices = {"g1": Fraction(1), "g2": Fraction(2)}
        assert bang_per_buck(two_goods, prices, "b1") == 3

    def test_single_good(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        assert bang_per_buck(inst, {"g1": Fraction(2)}, "b1") == 1

    def test_homogeneous_in_prices(self, two_goods):
        prices = {"g1": Fraction(1), "g2": Fraction(2)}
        doubled = {g: 2 * p for g, p in prices.items()}
        assert (
            bang_per_buck(two_goods, doubled, "b1")
            == bang_per_buck(two_goods, prices, "b1") / 2
        )


class TestEqualityGraph:
    def test_unique_best(self, two_goods):
        edges = equality_graph(two_goods, {"g1": Fraction(1), "g2": Fraction(2)})
        assert edges == {("b1", "g2")}

    def test_exact_tie(self, two_goods):
        edges = equality_graph(two_goods, {"g1": Fraction(1), "g2": Fraction(3)})
        assert edges == {("b1", "g1"), ("b1", "g2")}


def residual_network(inst, state):
    """The solvers' residual network: backward arcs on positive spending."""
    ss = ScalingState(market=state, delta=Fraction(1), initial_prices=dict(state.prices))
    return network(inst, ss)


def delta_residual_network(inst, state, n, delta):
    """The price raiser's network: backward arcs on abundant edges only."""
    return ResidualNetwork(
        inst=inst,
        forward_arcs=equality_graph(inst, state.prices),
        backward_arcs=abundant_edges(state, n, delta),
    )


class TestResidualNetwork:
    def test_no_spending_no_backward(self, two_goods):
        state = MarketState(
            prices={"g1": Fraction(1), "g2": Fraction(2)}, spending={}, refunds={}
        )
        net = residual_network(two_goods, state)
        assert net.backward_arcs == set()

    def test_positive_spending_gives_backward_arc(self, two_goods):
        state = MarketState(
            prices={"g1": Fraction(1), "g2": Fraction(2)},
            spending={("b1", "g2"): Fraction(1, 2)},
            refunds={},
        )
        net = residual_network(two_goods, state)
        assert ("b1", "g2") in net.backward_arcs

    def test_arc_count(self, two_goods):
        state = MarketState(
            prices={"g1": Fraction(1), "g2": Fraction(3)},
            spending={("b1", "g1"): Fraction(1, 4)},
            refunds={},
        )
        net = residual_network(two_goods, state)
        assert len(net.forward_arcs) + len(net.backward_arcs) == 2 + 1


class TestDeltaResidualNetwork:
    def setup_state(self, x):
        inst = make_instance({"b1": 10}, {("b1", "g1"): 2})
        state = MarketState(
            prices={"g1": Fraction(1)},
            spending={("b1", "g1"): x},
            refunds={},
        )
        return inst, state

    def test_threshold_inclusive(self):
        inst, state = self.setup_state(Fraction(6))  # 3*n*delta = 6
        net = delta_residual_network(inst, state, 2, Fraction(1))
        assert ("b1", "g1") in net.backward_arcs

    def test_below_threshold_excluded(self):
        inst, state = self.setup_state(Fraction(5))
        net = delta_residual_network(inst, state, 2, Fraction(1))
        assert ("b1", "g1") not in net.backward_arcs

    def test_halving_delta_grows_arcs(self):
        inst, state = self.setup_state(Fraction(5))
        small = delta_residual_network(inst, state, 2, Fraction(1, 2))
        assert ("b1", "g1") in small.backward_arcs


class TestActiveSet:
    def test_no_arcs(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 1})
        net = ResidualNetwork(inst=inst, forward_arcs=set(), backward_arcs=set())
        roots = [buyer_node("b1")]
        assert active_set(net, roots) == set(roots)

    def test_chain(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 1, ("b2", "g1"): 1}
        )
        net = ResidualNetwork(
            inst=inst,
            forward_arcs={("b1", "g1")},
            backward_arcs={("b2", "g1")},
        )
        reached = active_set(net, [buyer_node("b1")])
        assert reached == {buyer_node("b1"), good_node("g1"), buyer_node("b2")}

    def test_idempotent(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 1, ("b2", "g1"): 1}
        )
        net = ResidualNetwork(
            inst=inst, forward_arcs={("b1", "g1")}, backward_arcs={("b2", "g1")}
        )
        once = active_set(net, [buyer_node("b1")])
        again = active_set(net, sorted(once))
        assert once == again

    def test_monotone_in_arcs(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 1, ("b2", "g1"): 1}
        )
        small = ResidualNetwork(
            inst=inst, forward_arcs={("b1", "g1")}, backward_arcs=set()
        )
        large = ResidualNetwork(
            inst=inst, forward_arcs={("b1", "g1")}, backward_arcs={("b2", "g1")}
        )
        assert active_set(small, [buyer_node("b1")]) <= active_set(
            large, [buyer_node("b1")]
        )

    def test_bfs_path_deterministic(self):
        inst = make_instance(
            {"b1": 1, "b2": 1},
            {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g1"): 1, ("b2", "g2"): 1},
        )
        net = ResidualNetwork(
            inst=inst,
            forward_arcs={("b1", "g1"), ("b1", "g2"), ("b2", "g2")},
            backward_arcs={("b2", "g1"), ("b2", "g2")},
        )
        path = net.path_to([buyer_node("b1")], buyer_node("b2"))
        # two shortest paths exist; canonical order picks the one through g1
        assert path == [buyer_node("b1"), good_node("g1"), buyer_node("b2")]


class TestComponents:
    def test_all_singletons(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 1, ("b2", "g2"): 1}
        )
        state = MarketState(
            prices={"g1": Fraction(1), "g2": Fraction(1)}, spending={}, refunds={}
        )
        comps = components_of_abundant_graph(inst, state, 4, Fraction(1))
        assert len(comps) == 4
        assert all(c.is_singleton() for c in comps)

    def test_one_edge(self):
        inst = make_instance(
            {"b1": 30, "b2": 1}, {("b1", "g1"): 1, ("b2", "g2"): 1}
        )
        state = MarketState(
            prices={"g1": Fraction(1), "g2": Fraction(1)},
            spending={("b1", "g1"): Fraction(20)},
            refunds={},
        )
        comps = components_of_abundant_graph(inst, state, 4, Fraction(1))
        sizes = sorted(len(c.buyers) + len(c.goods) for c in comps)
        assert sizes == [1, 1, 2]
        pair = next(c for c in comps if not c.is_singleton())
        assert pair.buyers == ("b1",) and pair.goods == ("g1",)
        assert pair.buyer_root == buyer_node("b1")
        assert pair.good_root == good_node("g1")
        assert pair.root_good == "g1"

    def test_forest_component_count(self):
        # on a forest, every abundant edge merges two components
        inst = make_instance(
            {"b1": 100, "b2": 100},
            {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g2"): 1},
        )
        state = MarketState(
            prices={"g1": Fraction(1), "g2": Fraction(1)},
            spending={("b1", "g1"): Fraction(50), ("b1", "g2"): Fraction(50)},
            refunds={},
        )
        n = 4
        edges = abundant_edges(state, n, Fraction(1))
        comps = components_of_abundant_graph(inst, state, n, Fraction(1))
        assert len(comps) == n - len(edges)

    def test_singleton_roots_reuse_lone_node(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 1})
        state = MarketState(prices={"g1": Fraction(1)}, spending={}, refunds={})
        comps = components_of_abundant_graph(inst, state, 2, Fraction(1))
        good_comp = next(c for c in comps if c.goods)
        assert good_comp.buyer_root == good_comp.good_root == good_node("g1")
        assert good_comp.root_good == "g1"
        buyer_comp = next(c for c in comps if c.buyers)
        assert buyer_comp.buyer_root == buyer_comp.good_root == buyer_node("b1")
        assert buyer_comp.root_good is None


@settings(max_examples=60, deadline=None)
@given(
    utilities=st.lists(
        st.integers(min_value=1, max_value=9), min_size=3, max_size=3
    ),
    base=st.lists(
        st.fractions(min_value=Fraction(1, 4), max_value=4), min_size=3, max_size=3
    ),
    bumps=st.lists(
        st.fractions(min_value=0, max_value=3), min_size=3, max_size=3
    ),
)
def test_bang_per_buck_antitone_in_prices(utilities, base, bumps):
    inst = make_instance(
        {"b1": 1},
        {("b1", f"g{k}"): utilities[k] for k in range(3)},
    )
    low = {f"g{k}": base[k] for k in range(3)}
    high = {f"g{k}": base[k] + bumps[k] for k in range(3)}
    assert bang_per_buck(inst, high, "b1") <= bang_per_buck(inst, low, "b1")


def test_abundant_edges_stay_equality_under_uniform_component_scaling():
    # scaling all good prices of an abundant component by one factor keeps
    # the component's positive-spending equality edges in the equality graph
    inst = make_instance(
        {"b1": 8, "b2": 1},
        {("b1", "g1"): 2, ("b1", "g2"): 4, ("b2", "g3"): 1},
    )
    prices = {"g1": Fraction(1), "g2": Fraction(2), "g3": Fraction(1)}
    state = MarketState(
        prices=dict(prices),
        spending={("b1", "g1"): Fraction(3), ("b1", "g2"): Fraction(3)},
        refunds={},
    )
    n = 5
    component_edges = abundant_edges(state, n, Fraction(1, 100))
    assert component_edges == {("b1", "g1"), ("b1", "g2")}
    assert component_edges <= equality_graph(inst, prices)
    for factor in (Fraction(3, 2), Fraction(4)):
        scaled = dict(prices)
        for g in ("g1", "g2"):
            scaled[g] = prices[g] * factor
        assert component_edges <= equality_graph(inst, scaled)


class TestComponentsOfEdges:
    def test_four_cycle_returns_its_edges(self):
        inst = make_instance(
            {"b1": 1, "b2": 1},
            {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g1"): 1, ("b2", "g2"): 1},
        )
        edges = set(inst.utilities)
        comps, cycle = components_of_edges(inst, edges)
        assert len(comps) == 1
        assert cycle is not None and len(cycle) == 4
        assert set(cycle) == edges

    def test_canonical_order(self):
        inst = make_instance(
            {"b1": 1, "b2": 1, "b3": 1},
            {
                ("b1", "g1"): 1,
                ("b3", "g1"): 1,
                ("b2", "g2"): 1,
                ("b2", "g3"): 1,
                ("b3", "g3"): 1,
            },
        )
        edges = {("b3", "g3"), ("b3", "g1"), ("b2", "g3")}
        comps, cycle = components_of_edges(inst, edges)
        assert cycle is None
        assert [component_key(c) for c in comps] == ["B:b1", "B:b2", "G:g2"]
        assert comps[0].edges == comps[2].edges == ()
        assert comps[1].buyers == ("b2", "b3") and comps[1].goods == ("g1", "g3")
        assert comps[1].edges == (("b2", "g3"), ("b3", "g1"), ("b3", "g3"))


def union_find_partition(nodes, edges):
    """Reference: connected components by union-find, as a set of node sets."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for b, g in edges:
        rb, rg = find(buyer_node(b)), find(good_node(g))
        if rb != rg:
            parent[rb] = rg
    groups = {}
    for node in nodes:
        groups.setdefault(find(node), set()).add(node)
    return {frozenset(group) for group in groups.values()}


@settings(max_examples=200, deadline=None)
@given(
    n_buyers=st.integers(min_value=1, max_value=4),
    n_goods=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_walker_matches_union_find(n_buyers, n_goods, data):
    buyers = [f"b{i}" for i in range(n_buyers)]
    goods = [f"g{j}" for j in range(n_goods)]
    pairs = [(b, g) for b in buyers for g in goods]
    inst = make_instance({b: 1 for b in buyers}, {pair: 1 for pair in pairs})
    edges = data.draw(st.sets(st.sampled_from(pairs)))
    comps, cycle = components_of_edges(inst, edges)

    nodes = [buyer_node(b) for b in buyers] + [good_node(g) for g in goods]
    assert {frozenset(c.nodes()) for c in comps} == union_find_partition(nodes, edges)
    firsts = [node_key(inst, c.nodes()[0]) for c in comps]
    assert firsts == sorted(firsts)
    for comp in comps:
        assert list(comp.edges) == sorted(comp.edges, key=lambda e: edge_key(inst, e))
        assert all(b in comp.buyers and g in comp.goods for b, g in comp.edges)
    assert sorted(e for c in comps for e in c.edges) == sorted(edges)

    assert (cycle is None) == (len(edges) == len(nodes) - len(comps))
    if cycle is not None:
        # a closed walk over E: distinct edges of E, consecutive ones sharing
        # a node, every node on it met exactly twice
        assert len(set(cycle)) == len(cycle) >= 4 and set(cycle) <= edges
        ends = [{buyer_node(b), good_node(g)} for b, g in cycle]
        for here, there in zip(ends, ends[1:] + ends[:1]):
            assert here & there
        assert set(Counter(node for end in ends for node in end).values()) == {2}
