"""Recovering prices, spending, and refunds from a cycle-free support.

A cycle-free set of buyer-good edges pins the equilibrium down component by
component: within a component all prices are fixed rational multiples of
one unknown scale (equal bang-per-buck along a buyer's support edges), and
the scale is fixed either by "component budgets equal component prices"
(no refunds) or by anchoring one buyer whose bang-per-buck is exactly one
(that buyer absorbs the component's slack as a refund).  With the scale
fixed, spending is the unique flow on the support tree meeting the budget
and clearing equations.  The support comes as the forest the caller got
from :func:`~arcticauction.graph.components_of_edges`, and both the
multipliers and the flow are read off the spanning tree it recorded for
each component, so this module walks no graph of its own.

``basic_solution`` tries the budget-balanced case first and falls back to
anchoring each buyer in canonical order.  An anchor spends what the other
buyers' budgets leave of the component's prices: that is its supply in
the tree solve, which balances the data, and its refund is its budget
minus that supply.  A case is accepted only when it could be part of an
equilibrium: spending nonnegative, prices positive, refunds nonnegative,
and every buyer's support ratio at least one (exactly one for an anchor).
Without the ratio conditions, a support whose true solution anchors a
buyer would wrongly accept the budget-balanced solve.  ``recover_support``
reads a support off a solver state by counting its spending in units of
the state's own scale.
"""

from __future__ import annotations

from fractions import Fraction

from arcticauction.core import MarketInstance
from arcticauction.errors import GenericityError, SolverError
from arcticauction.graph import (
    Component,
    Edge,
    Forest,
    MarketState,
    Node,
)
from arcticauction.rational import ONE, ZERO


class SupportError(ValueError):
    """The candidate support admits no consistent basic solution."""


def solve_tree_flow(
    comp: Component, supply: dict[str, Fraction], demand: dict[str, Fraction]
) -> dict[Edge, Fraction]:
    """Unique flow on a tree component meeting buyer supplies and good
    demands, keyed in ``comp.edges`` order.

    Walking ``comp.tree`` leaves first, each node but the root sends what
    it has left along its tree edge.  Raises :class:`SolverError` when the
    component is not a tree or the data are unbalanced (the root is left
    with a nonzero excess).  Flows may come out negative; callers decide
    whether that is an error or grounds to reject a candidate.
    """
    tree = comp.tree
    if len(comp.edges) != len(tree) - 1:
        raise SolverError(f"component {tree[0][0]} is not a tree")
    # what each node has left: a buyer's supply not yet sent, or minus a
    # good's demand not yet met
    excess: dict[Node, Fraction] = {
        node: supply[node[1]] if node[0] == "B" else -demand[node[1]]
        for node, _ in tree
    }
    flows: dict[Edge, Fraction] = {}
    for node, edge in reversed(tree[1:]):
        left = excess[node]
        b, g = edge
        if node[0] == "B":
            flows[edge] = left
            excess[("G", g)] += left
        else:
            flows[edge] = -left
            excess[("B", b)] += left
    leftover = excess[tree[0][0]]
    if leftover != 0:
        raise SolverError(f"unbalanced tree flow: leftover {leftover}")
    return {e: flows[e] for e in comp.edges}


def _price_multipliers(inst: MarketInstance, comp: Component) -> dict[str, Fraction]:
    """Express each good price in the component as a multiple of one scale.

    Walking the tree from its root buyer, whose inverse ratio is one, two
    support edges of the same buyer force ``p_k = p_j * U_ik / U_ij``, so
    every price is the scale times a product of utility ratios.
    """
    multipliers: dict[str, Fraction] = {}
    # inverse ratio per buyer: m_j / U_ij, equal over the buyer's edges
    inverse_ratio: dict[str, Fraction] = {comp.buyers[0]: ONE}
    for (kind, name), edge in comp.tree[1:]:
        if kind == "B":
            inverse_ratio[name] = multipliers[edge[1]] / inst.utilities[edge]
        else:
            multipliers[name] = inverse_ratio[edge[0]] * inst.utilities[edge]
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

    multipliers = _price_multipliers(inst, comp)
    mult_total = sum(multipliers.values(), ZERO)

    def ratios_at_least_one(
        prices: dict[str, Fraction], skip: str | None = None
    ) -> bool:
        # a buyer's support ratio u / p is equal across her support edges by
        # construction, so checking every edge checks every buyer but ``skip``
        return all(inst.utilities[e] >= prices[e[1]] for e in edges if e[0] != skip)

    # budget-balanced case: component budgets fix the scale
    supply = {b: budgets[b] for b in buyers}
    budget_total = sum(supply.values(), ZERO)
    scale = budget_total / mult_total
    if scale > 0:
        prices = {g: multipliers[g] * scale for g in goods}
        flows = solve_tree_flow(comp, supply, prices)
        if all(v >= 0 for v in flows.values()) and ratios_at_least_one(prices):
            return prices, flows, {b: ZERO for b in buyers}

    # anchored case: some buyer's support ratio is pinned to exactly one,
    # and she spends what the other budgets leave of the prices
    for anchor in buyers:
        g0 = next(e[1] for e in edges if e[0] == anchor)
        scale = inst.utilities[(anchor, g0)] / multipliers[g0]
        prices = {g: multipliers[g] * scale for g in goods}
        spent = sum(prices.values(), ZERO) - (budget_total - budgets[anchor])
        flows = solve_tree_flow(comp, {**supply, anchor: spent}, prices)
        refund = budgets[anchor] - spent
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
    forest: Forest,
    effective_budgets: dict[str, Fraction] | None = None,
) -> MarketState:
    """The unique state determined by a cycle-free support, given as the
    :class:`~arcticauction.graph.Forest` that
    :func:`~arcticauction.graph.components_of_edges` found for it.

    ``effective_budgets`` substitutes for the instance budgets when solving
    compressed states (budgets already reduced by committed refunds); they
    may be zero for fully refunded buyers.  Raises :class:`SupportError`
    when the support admits no consistent solution and
    :class:`GenericityError` when it contains a cycle, in that order: an
    edge of zero utility, then a cycle, then a good with no buyer in the
    support.
    """
    budgets = dict(inst.budgets) if effective_budgets is None else effective_budgets
    components, cycle = forest
    for comp in components:
        for edge in comp.edges:
            if edge not in inst.utilities:
                raise SupportError(f"support edge {edge} has zero utility")
    if cycle is not None:
        raise GenericityError(f"support contains a cycle through {cycle[0]}")
    for comp in components:
        # a good no support edge reaches would need price zero; checked
        # before any component is solved, as it rejects the whole support
        if not comp.buyers:
            raise SupportError(f"good {comp.goods[0]} has no buyer in support")
    prices: dict[str, Fraction] = {}
    spending: dict[Edge, Fraction] = {}
    refunds: dict[str, Fraction] = {}
    for comp in components:
        c_prices, c_flows, c_refunds = _component_solution(inst, comp, budgets)
        prices.update(c_prices)
        spending.update(c_flows)
        refunds.update(c_refunds)
    return MarketState(prices=prices, spending=spending, refunds=refunds)


def recover_support(state: MarketState, n: int) -> set[Edge]:
    """Edges whose spending strictly exceeds ``4 * n`` units of the state's
    scale; the state must have a scale.

    Once the scale is below ``1 / (8 * n * d_bound)`` these are exactly the
    support of the equilibrium.
    """
    units = 4 * n
    return {e for e in state.spending if state.spending_sign(e, units) > 0}
