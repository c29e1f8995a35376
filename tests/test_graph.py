"""Bang-per-buck, equality graph, residual search, the forest walker."""

import random
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcticauction.core import MarketInstance
from arcticauction.graph import (
    abundant_edges,
    component_key,
    components_of_edges,
    edge_event,
    path_to,
    reach,
)
from arcticauction.randgen import random_instance

from conftest import (
    alphas_at,
    buyer_node,
    edge_ids,
    edge_names,
    equality_graph_at,
    good_node,
    make_instance,
    state_of,
)


@pytest.fixture
def two_goods():
    return make_instance({"b1": 1}, {("b1", "g1"): 2, ("b1", "g2"): 6})


class TestBangPerBuck:
    def test_max_ratio(self, two_goods):
        prices = {"g1": Fraction(1), "g2": Fraction(2)}
        assert alphas_at(two_goods, prices)["b1"] == 3

    def test_single_good(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 2})
        assert alphas_at(inst, {"g1": Fraction(2)})["b1"] == 1

    def test_homogeneous_in_prices(self, two_goods):
        prices = {"g1": Fraction(1), "g2": Fraction(2)}
        doubled = {g: 2 * p for g, p in prices.items()}
        assert (
            alphas_at(two_goods, doubled)["b1"]
            == alphas_at(two_goods, prices)["b1"] / 2
        )


class TestEqualityGraph:
    def test_unique_best(self, two_goods):
        edges = equality_graph_at(two_goods, {"g1": Fraction(1), "g2": Fraction(2)})
        assert edges == {("b1", "g2")}

    def test_exact_tie(self, two_goods):
        edges = equality_graph_at(two_goods, {"g1": Fraction(1), "g2": Fraction(3)})
        assert edges == {("b1", "g1"), ("b1", "g2")}


class TestEdgeEvent:
    def market(self):
        # b1 and b2 both see their best at g1 (ratio 2); at price 1 each of
        # g2, g3 and g4 gives the buyers valuing it ratio 1, so every edge
        # event is the multiplier 2
        inst = make_instance(
            {"b1": 1, "b2": 1},
            {
                ("b1", "g1"): 2,
                ("b1", "g3"): 1,
                ("b1", "g2"): 1,
                ("b2", "g1"): 2,
                ("b2", "g4"): 1,
            },
        )
        return inst, state_of(inst, {g: 1 for g in inst.goods})

    def event(self, inst, view, buyers, active):
        """``edge_event`` on buyers and goods named by id strings."""
        return edge_event(
            inst,
            view,
            [inst.buyer_pos[b] for b in buyers],
            {inst.good_pos[g] for g in active},
        )

    def test_smallest_multiplier_as_pair(self):
        inst, state = self.market()
        state.scale_prices([inst.good_pos["g4"]], Fraction(2, 3))
        view = state.bang_per_buck
        num, den, edge = self.event(inst, view, ["b1", "b2"], {"g1"})
        # b2's ratio on g4 rose to 3/2, so her event 2 / (3/2) comes first
        assert (Fraction(num, den), inst.edge_names[edge]) == (
            Fraction(4, 3),
            ("b2", "g4"),
        )

    def test_ties_go_to_the_first_buyer_then_the_first_good(self):
        inst, state = self.market()
        view = state.bang_per_buck
        # goods in document order are g1, g3, g2, g4
        first = self.event(inst, view, ["b1", "b2"], {"g1"})[2]
        assert inst.edge_names[first] == ("b1", "g3")
        assert inst.edge_names[self.event(inst, view, ["b2"], {"g1"})[2]] == ("b2", "g4")

    def test_no_inactive_good(self):
        inst, state = self.market()
        view = state.bang_per_buck
        assert self.event(inst, view, ["b2"], {"g1", "g4"}) is None


def residual_tree(inst, state, roots):
    """The solvers' residual search: backward arcs on at least one unit of
    spending, at a unit of 1."""
    state.rescale(Fraction(1))
    return reach(inst, roots, state.bang_per_buck.edges, state.returnable)


def delta_residual_tree(inst, state, n, delta, roots):
    """The price raiser's search: backward arcs on abundant edges only."""
    state.rescale(delta)
    return reach(inst, roots, state.bang_per_buck.edges, abundant_edges(state, n))


def out_arcs(tree, node):
    """Arcs leaving ``node`` in a search rooted at ``node`` alone: its
    neighbours, every one of them first reached from the root."""
    return [v for v, p in tree.items() if p == node]


class TestResidualNetwork:
    def test_no_spending_no_backward(self, two_goods):
        inst = two_goods
        state = state_of(inst, {"g1": 1, "g2": 2})
        goods = [good_node(inst, "g1"), good_node(inst, "g2")]
        assert set(residual_tree(inst, state, goods)) == set(goods)

    def test_positive_spending_gives_backward_arc(self, two_goods):
        inst = two_goods
        state = state_of(inst, {"g1": 1, "g2": 2}, {("b1", "g2"): Fraction(3, 2)})
        tree = residual_tree(inst, state, [good_node(inst, "g2")])
        assert tree[buyer_node(inst, "b1")] == good_node(inst, "g2")

    def test_spending_below_one_unit_gives_no_backward_arc(self, two_goods):
        # half a unit cannot give one back: an augmenting path through the
        # arc would drive the spending negative
        inst = two_goods
        state = state_of(inst, {"g1": 1, "g2": 2}, {("b1", "g2"): Fraction(1, 2)})
        tree = residual_tree(inst, state, [good_node(inst, "g2")])
        assert buyer_node(inst, "b1") not in tree
        with pytest.raises(ValueError, match="negative spending"):
            state.add_spending_units(inst.edge_id[("b1", "g2")], -1)

    def test_arc_count(self, two_goods):
        inst = two_goods
        state = state_of(inst, {"g1": 1, "g2": 3}, {("b1", "g1"): Fraction(5, 4)})
        nodes = [buyer_node(inst, "b1"), good_node(inst, "g1"), good_node(inst, "g2")]
        arcs = [
            (node, v)
            for node in nodes
            for v in out_arcs(residual_tree(inst, state, [node]), node)
        ]
        assert len(arcs) == 2 + 1


class TestDeltaResidualNetwork:
    def setup_state(self, x):
        inst = make_instance({"b1": 10}, {("b1", "g1"): 2})
        return inst, state_of(inst, {"g1": 1}, {("b1", "g1"): x})

    def test_threshold_inclusive(self):
        inst, state = self.setup_state(Fraction(6))  # 3*n*delta = 6
        roots = [good_node(inst, "g1")]
        tree = delta_residual_tree(inst, state, 2, Fraction(1), roots)
        assert buyer_node(inst, "b1") in tree

    def test_below_threshold_excluded(self):
        inst, state = self.setup_state(Fraction(5))
        roots = [good_node(inst, "g1")]
        tree = delta_residual_tree(inst, state, 2, Fraction(1), roots)
        assert buyer_node(inst, "b1") not in tree

    def test_halving_delta_grows_arcs(self):
        inst, state = self.setup_state(Fraction(5))
        roots = [good_node(inst, "g1")]
        tree = delta_residual_tree(inst, state, 2, Fraction(1, 2), roots)
        assert buyer_node(inst, "b1") in tree


def reach_named(inst, roots, forward, backward):
    """``reach`` from buyers and goods named by id strings, over edge sets
    named by (buyer, good)."""
    return reach(inst, roots, edge_ids(inst, forward), edge_ids(inst, backward))


class TestActiveSet:
    def test_no_arcs(self):
        inst = make_instance({"b1": 1}, {("b1", "g1"): 1})
        roots = [buyer_node(inst, "b1")]
        assert reach(inst, roots, set(), set()) == {buyer_node(inst, "b1"): None}

    def test_chain(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 1, ("b2", "g1"): 1}
        )
        b1, b2, g1 = (buyer_node(inst, "b1"), buyer_node(inst, "b2"), good_node(inst, "g1"))
        tree = reach_named(inst, [b1], {("b1", "g1")}, {("b2", "g1")})
        assert tree == {b1: None, g1: b1, b2: g1}

    def test_idempotent(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 1, ("b2", "g1"): 1}
        )
        forward, backward = {("b1", "g1")}, {("b2", "g1")}
        once = reach_named(inst, [buyer_node(inst, "b1")], forward, backward)
        roots = sorted(once)  # canonical order
        assert set(reach_named(inst, roots, forward, backward)) == set(once)

    def test_monotone_in_arcs(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 1, ("b2", "g1"): 1}
        )
        root = buyer_node(inst, "b1")
        small = reach_named(inst, [root], {("b1", "g1")}, set())
        large = reach_named(inst, [root], {("b1", "g1")}, {("b2", "g1")})
        assert set(small) <= set(large)

    def test_bfs_path_deterministic(self):
        inst = make_instance(
            {"b1": 1, "b2": 1},
            {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g1"): 1, ("b2", "g2"): 1},
        )
        b1, b2 = buyer_node(inst, "b1"), buyer_node(inst, "b2")
        tree = reach_named(
            inst,
            [b1],
            {("b1", "g1"), ("b1", "g2"), ("b2", "g2")},
            {("b2", "g1"), ("b2", "g2")},
        )
        # two shortest paths exist; canonical order picks the one through g1
        assert path_to(tree, b2) == [b1, good_node(inst, "g1"), b2]
        with pytest.raises(ValueError):
            path_to(reach(inst, [b1], set(), set()), b2)


def reference_reach(inst, roots, forward, backward):
    """The search ``reach`` replaced: arcs copied into adjacency lists
    sorted by canonical key (the node number), roots sorted the same way.
    Returns the reached set and the predecessor map of the non-root nodes."""
    n_buyers = len(inst.buyers)
    adjacency = {}
    for e in forward:
        b, g = inst.edge_buyer[e], n_buyers + inst.edge_good[e]
        adjacency.setdefault(b, []).append(g)
    for e in backward:
        b, g = inst.edge_buyer[e], n_buyers + inst.edge_good[e]
        adjacency.setdefault(g, []).append(b)
    for targets in adjacency.values():
        targets.sort()
    seen = set(roots)
    parent = {}
    queue = deque(sorted(roots))
    while queue:
        node = queue.popleft()
        for nxt in adjacency.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = node
                queue.append(nxt)
    return seen, parent


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=10**6),
    data=st.data(),
)
def test_reach_matches_sorted_adjacency_search(n, seed, data):
    # document order is shuffled away from the ids' string order, so only
    # the instance's own order can give the reference's tie-breaks
    base = random_instance(n, random.Random(seed))
    inst = MarketInstance(
        buyers=tuple(data.draw(st.permutations(base.buyers))),
        goods=tuple(data.draw(st.permutations(base.goods))),
        budgets=base.budgets,
        utilities=base.utilities,
    )
    edges = sorted(inst.utilities)
    forward = edge_ids(inst, data.draw(st.sets(st.sampled_from(edges))))
    backward = edge_ids(inst, data.draw(st.sets(st.sampled_from(edges))))
    nodes = list(range(len(inst.buyers) + len(inst.goods)))
    picked = data.draw(st.sets(st.sampled_from(nodes), min_size=1))
    roots = [v for v in nodes if v in picked]  # canonical order

    tree = reach(inst, roots, forward, backward)
    seen, parent = reference_reach(inst, roots, forward, backward)
    assert set(tree) == seen
    assert {v: p for v, p in tree.items() if p is not None} == parent
    assert all(tree[root] is None for root in roots)
    for node in tree:
        path = path_to(tree, node)
        assert path[0] in picked and path[-1] == node


def named(inst, comp):
    """A component's buyers, goods and edges by id strings."""
    return (
        tuple(inst.buyers[b] for b in comp.buyers),
        tuple(inst.goods[g] for g in comp.goods),
        tuple(inst.edge_names[e] for e in comp.edges),
    )


class TestComponents:
    def test_all_singletons(self):
        inst = make_instance(
            {"b1": 1, "b2": 1}, {("b1", "g1"): 1, ("b2", "g2"): 1}
        )
        state = state_of(inst, {"g1": 1, "g2": 1})
        state.rescale(Fraction(1))
        comps = components_of_edges(inst, abundant_edges(state, 4))[0]
        assert len(comps) == 4
        assert all(c.is_singleton() for c in comps)

    def test_one_edge(self):
        inst = make_instance(
            {"b1": 30, "b2": 1}, {("b1", "g1"): 1, ("b2", "g2"): 1}
        )
        state = state_of(inst, {"g1": 1, "g2": 1}, {("b1", "g1"): Fraction(20)})
        state.rescale(Fraction(1))
        comps = components_of_edges(inst, abundant_edges(state, 4))[0]
        sizes = sorted(len(c.buyers) + len(c.goods) for c in comps)
        assert sizes == [1, 1, 2]
        pair = next(c for c in comps if not c.is_singleton())
        assert named(inst, pair)[:2] == (("b1",), ("g1",))

    def test_forest_component_count(self):
        # on a forest, every abundant edge merges two components
        inst = make_instance(
            {"b1": 100, "b2": 100},
            {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g2"): 1},
        )
        state = state_of(
            inst,
            {"g1": 1, "g2": 1},
            {("b1", "g1"): Fraction(50), ("b1", "g2"): Fraction(50)},
        )
        n = 4
        state.rescale(Fraction(1))
        edges = abundant_edges(state, n)
        comps = components_of_edges(inst, edges)[0]
        assert len(comps) == n - len(edges)


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
    assert alphas_at(inst, high)["b1"] <= alphas_at(inst, low)["b1"]


def test_abundant_edges_stay_equality_under_uniform_component_scaling():
    # scaling all good prices of an abundant component by one factor keeps
    # the component's positive-spending equality edges in the equality graph
    inst = make_instance(
        {"b1": 8, "b2": 1},
        {("b1", "g1"): 2, ("b1", "g2"): 4, ("b2", "g3"): 1},
    )
    prices = {"g1": Fraction(1), "g2": Fraction(2), "g3": Fraction(1)}
    state = state_of(
        inst, prices, {("b1", "g1"): Fraction(3), ("b1", "g2"): Fraction(3)}
    )
    n = 5
    state.rescale(Fraction(1, 100))
    component_edges = edge_names(inst, abundant_edges(state, n))
    assert component_edges == {("b1", "g1"), ("b1", "g2")}
    assert component_edges <= equality_graph_at(inst, prices)
    for factor in (Fraction(3, 2), Fraction(4)):
        scaled = dict(prices)
        for g in ("g1", "g2"):
            scaled[g] = prices[g] * factor
        assert component_edges <= equality_graph_at(inst, scaled)


class TestComponentsOfEdges:
    def test_four_cycle_returns_its_edges(self):
        inst = make_instance(
            {"b1": 1, "b2": 1},
            {("b1", "g1"): 1, ("b1", "g2"): 1, ("b2", "g1"): 1, ("b2", "g2"): 1},
        )
        edges = set(range(len(inst.edge_names)))
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
        edges = edge_ids(inst, {("b3", "g3"), ("b3", "g1"), ("b2", "g3")})
        comps, cycle = components_of_edges(inst, edges)
        assert cycle is None
        assert [component_key(inst, c) for c in comps] == ["B:b1", "B:b2", "G:g2"]
        assert comps[0].edges == comps[2].edges == ()
        assert named(inst, comps[1]) == (
            ("b2", "b3"),
            ("g1", "g3"),
            (("b2", "g3"), ("b3", "g1"), ("b3", "g3")),
        )


def union_find_partition(inst, nodes, edges):
    """Reference: connected components by union-find, as a set of node sets."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for e in edges:
        b, g = inst.edge_buyer[e], len(inst.buyers) + inst.edge_good[e]
        rb, rg = find(b), find(g)
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
    edges = edge_ids(inst, data.draw(st.sets(st.sampled_from(pairs))))
    comps, cycle = components_of_edges(inst, edges)

    def ends(e):
        return {inst.edge_buyer[e], n_buyers + inst.edge_good[e]}

    def members(comp):
        # the component's nodes as its buyer and good lists give them
        return [*comp.buyers, *(n_buyers + g for g in comp.goods)]

    nodes = list(range(n_buyers + n_goods))
    assert {frozenset(members(c)) for c in comps} == union_find_partition(
        inst, nodes, edges
    )
    firsts = [members(c)[0] for c in comps]
    assert firsts == sorted(firsts)
    for comp in comps:
        assert list(comp.buyers) == sorted(comp.buyers)
        assert list(comp.goods) == sorted(comp.goods)
        assert list(comp.edges) == sorted(comp.edges)
        for e in comp.edges:
            assert inst.edge_buyer[e] in comp.buyers
            assert inst.edge_good[e] in comp.goods
        # the recorded spanning tree: every node once, rooted at the smallest
        # node, each later node joined by its edge to a node listed earlier
        tree_nodes = [node for node, _ in comp.tree]
        assert sorted(tree_nodes) == members(comp) == comp.nodes()
        assert comp.tree[0] == (members(comp)[0], None)
        for k, (node, edge) in enumerate(comp.tree[1:], start=1):
            assert edge in edges and node in ends(edge)
            assert (ends(edge) - {node}) <= set(tree_nodes[:k])
        if cycle is None:
            assert sorted(edge for _, edge in comp.tree[1:]) == sorted(comp.edges)
    assert sorted(e for c in comps for e in c.edges) == sorted(edges)

    assert (cycle is None) == (len(edges) == len(nodes) - len(comps))
    if cycle is not None:
        # a closed walk over E: distinct edges of E, consecutive ones sharing
        # a node, every node on it met exactly twice
        assert len(set(cycle)) == len(cycle) >= 4 and set(cycle) <= edges
        cycle_ends = [ends(e) for e in cycle]
        for here, there in zip(cycle_ends, cycle_ends[1:] + cycle_ends[:1]):
            assert here & there
        assert set(Counter(node for end in cycle_ends for node in end).values()) == {2}
