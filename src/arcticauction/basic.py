"""Recovering prices, spending, and refunds from a cycle-free support.

A cycle-free set of buyer-good edges pins the equilibrium down component by
component: within a component all prices are fixed rational multiples of
one unknown scale (equal bang-per-buck along a buyer's support edges), and
the scale is fixed either by "component budgets equal component prices"
(no refunds) or by anchoring one buyer whose bang-per-buck is exactly one
(that buyer absorbs the component's slack as a refund).  With the scale
fixed, spending is the unique flow on the support tree meeting the budget
and clearing equations.

``basic_solution`` tries the budget-balanced case first and falls back to
anchoring each buyer in canonical order.  A case is accepted only when it
could be part of an equilibrium: spending nonnegative, prices positive,
refunds nonnegative, and every buyer's support ratio at least one (exactly
one for an anchor).  Without the ratio conditions, a support whose true
solution anchors a buyer would wrongly accept the budget-balanced solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from arcticauction.core import MarketInstance
from arcticauction.errors import GenericityError
from arcticauction.graph import (
    Component,
    Edge,
    Forest,
    MarketState,
    Node,
    buyer_node,
    components_of_edges,
    good_node,
)
from arcticauction.rational import ONE, ZERO


class SupportError(ValueError):
    """The candidate support admits no consistent basic solution."""


def solve_tree_flow(
    edges: Sequence[Edge],
    supply: dict[str, Fraction],
    demand: dict[str, Fraction],
    root: Node,
) -> tuple[dict[Edge, Fraction], Fraction]:
    """Unique flow on a tree meeting buyer supplies and good demands.

    Every node except ``root`` has its equation enforced exactly by leaf
    elimination; the function returns the flows together with the leftover
    imbalance at the root (root supply-or-demand minus what the tree flow
    delivered there).  Flows may come out negative; callers decide whether
    that is an error or grounds to reject a candidate.
    """
    degree: dict[Node, int] = {}
    incident: dict[Node, list[Edge]] = {}
    for edge in edges:
        for node in (buyer_node(edge[0]), good_node(edge[1])):
            degree[node] = degree.get(node, 0) + 1
            incident.setdefault(node, []).append(edge)
    pending_supply = dict(supply)
    pending_demand = dict(demand)
    flows: dict[Edge, Fraction] = {}
    resolved: set[Edge] = set()
    leaves = [node for node, d in degree.items() if d == 1 and node != root]
    while leaves:
        node = leaves.pop()
        edge = next(e for e in incident[node] if e not in resolved)
        b, g = edge
        if node[0] == "B":
            value = pending_supply[b]
            pending_demand[g] -= value
        else:
            value = pending_demand[g]
            pending_supply[b] -= value
        flows[edge] = value
        resolved.add(edge)
        other = good_node(g) if node[0] == "B" else buyer_node(b)
        degree[other] -= 1
        degree[node] -= 1
        if degree[other] == 1 and other != root:
            leaves.append(other)
    if len(resolved) != len(edges):
        raise SupportError("support component is not a tree")
    leftover = pending_supply[root[1]] if root[0] == "B" else pending_demand[root[1]]
    return flows, leftover


def _price_multipliers(
    inst: MarketInstance, comp: Component, root: Node
) -> dict[str, Fraction]:
    """Express each good price in the component as a multiple of one scale.

    Walking the tree from ``root``, two support edges of the same buyer
    force ``p_k = p_j * U_ik / U_ij``, so every price is the root scale
    times a product of utility ratios.
    """
    if root[0] != "G":
        raise ValueError("price propagation must start at a good")
    adjacency: dict[Node, list[Node]] = {}
    for b, g in comp.edges:
        adjacency.setdefault(buyer_node(b), []).append(good_node(g))
        adjacency.setdefault(good_node(g), []).append(buyer_node(b))
    multipliers: dict[str, Fraction] = {root[1]: ONE}
    # inverse ratio per buyer: m_j / U_ij, equal over the buyer's edges
    inverse_ratio: dict[str, Fraction] = {}
    stack = [root]
    seen = {root}
    while stack:
        node = stack.pop()
        for nxt in adjacency.get(node, []):
            if nxt in seen:
                continue
            seen.add(nxt)
            if nxt[0] == "B":
                inverse_ratio[nxt[1]] = multipliers[node[1]] / inst.utilities[
                    (nxt[1], node[1])
                ]
            else:
                multipliers[nxt[1]] = inverse_ratio[node[1]] * inst.utilities[
                    (node[1], nxt[1])
                ]
            stack.append(nxt)
    if len(multipliers) != len(comp.goods):
        raise SupportError("component goods not connected through support")
    return multipliers


def _component_solution(
    inst: MarketInstance, comp: Component, budgets: dict[str, Fraction]
) -> tuple[dict[str, Fraction], dict[Edge, Fraction], dict[str, Fraction]]:
    """Solve one support component holding a buyer; returns (prices,
    spending, refunds).

    Tries the budget-balanced case, then anchor buyers in canonical order.
    Raises :class:`SupportError` when no case is consistent.
    """
    buyers, goods, edges = comp.buyers, comp.goods, comp.edges
    if not goods:
        # lone buyer: anchored vacuously, full refund
        b = buyers[0]
        return {}, {}, {b: budgets[b]}

    root = good_node(goods[0])
    multipliers = _price_multipliers(inst, comp, root)
    mult_total = sum(multipliers.values(), ZERO)

    def ratios_at_least_one(
        prices: dict[str, Fraction], skip: str | None = None
    ) -> bool:
        # a buyer's support ratio u / p is equal across her support edges by
        # construction, so checking every edge checks every buyer but ``skip``
        return all(inst.utilities[e] >= prices[e[1]] for e in edges if e[0] != skip)

    # budget-balanced case: component budgets fix the scale
    budget_total = sum((budgets[b] for b in buyers), ZERO)
    scale = budget_total / mult_total
    if scale > 0:
        prices = {g: multipliers[g] * scale for g in goods}
        supply = {b: budgets[b] for b in buyers}
        demand = {g: prices[g] for g in goods}
        flows, leftover = solve_tree_flow(edges, supply, demand, root)
        if leftover != 0:
            raise SupportError("budget-balanced system inconsistent")
        if all(v >= 0 for v in flows.values()) and ratios_at_least_one(prices):
            return prices, flows, {b: ZERO for b in buyers}

    # anchored case: some buyer's support ratio is pinned to exactly one
    for anchor in buyers:
        anchor_edges = [e for e in edges if e[0] == anchor]
        g0 = anchor_edges[0][1]
        scale = inst.utilities[(anchor, g0)] / multipliers[g0]
        prices = {g: multipliers[g] * scale for g in goods}
        supply = {b: budgets[b] for b in buyers if b != anchor}
        demand = {g: prices[g] for g in goods}
        flows, leftover = solve_tree_flow(
            edges, {**supply, anchor: ZERO}, demand, buyer_node(anchor)
        )
        # leftover at the anchor is -sum of its support spending; its refund
        # is whatever the budget leaves after that spending
        anchor_spent = sum((flows[e] for e in anchor_edges), ZERO)
        refund = budgets[anchor] - anchor_spent
        if (
            all(v >= 0 for v in flows.values())
            and refund >= 0
            and ratios_at_least_one(prices, skip=anchor)
        ):
            refunds = {b: ZERO for b in buyers}
            refunds[anchor] = refund
            return prices, flows, refunds
    raise SupportError("no consistent case for support component")


def basic_solution(
    inst: MarketInstance,
    support: set[Edge] | Forest,
    effective_budgets: dict[str, Fraction] | None = None,
) -> MarketState:
    """The unique state determined by a cycle-free support.

    The support is a set of edges, or the :class:`~arcticauction.graph.Forest`
    that :func:`~arcticauction.graph.components_of_edges` found for it,
    which spares walking it again.  ``effective_budgets`` substitutes for
    the instance budgets when solving compressed states (budgets already
    reduced by committed refunds); they may be zero for fully refunded
    buyers.  Raises :class:`SupportError` when the support admits no
    consistent solution and :class:`GenericityError` when it contains a
    cycle, in that order: an edge of zero utility, then a cycle, then a
    component without a good.
    """
    budgets = dict(inst.budgets) if effective_budgets is None else effective_budgets
    if isinstance(support, Forest):
        forest, edges = support, [e for c in support.components for e in c.edges]
    else:
        forest, edges = None, support
    for edge in edges:
        if edge not in inst.utilities:
            raise SupportError(f"support edge {edge} has zero utility")
    prices: dict[str, Fraction] = {}
    spending: dict[Edge, Fraction] = {}
    refunds: dict[str, Fraction] = {}
    components, cycle = forest or components_of_edges(inst, edges)
    if cycle is not None:
        raise GenericityError(f"support contains a cycle through {cycle[0]}")
    for comp in components:
        # a good no support edge reaches would need price zero; checked
        # before any component is solved, as it rejects the whole support
        if not comp.buyers:
            raise SupportError(f"good {comp.goods[0]} has no buyer in support")
    for comp in components:
        c_prices, c_flows, c_refunds = _component_solution(inst, comp, budgets)
        prices.update(c_prices)
        for edge, value in c_flows.items():
            if value != 0:
                spending[edge] = value
        refunds.update(c_refunds)
    return MarketState(prices=prices, spending=spending, refunds=refunds)


def recover_support(state: MarketState, n: int, delta: Fraction) -> set[Edge]:
    """Edges whose spending strictly exceeds ``4 * n * delta``.

    Once the scale is below ``1 / (8 * n * d_bound)`` these are exactly the
    support of the equilibrium.
    """
    threshold = 4 * n * delta
    return {e for e, v in state.spending.items() if v > threshold}
