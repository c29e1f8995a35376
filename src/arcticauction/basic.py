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
buyer would wrongly accept the budget-balanced solve.  The solvers read
their supports off a state with
:func:`~arcticauction.graph.abundant_edges`.
"""

from __future__ import annotations

from fractions import Fraction

from arcticauction.core import MarketInstance
from arcticauction.errors import GenericityError, SolverError
from arcticauction.graph import Component, Edge, Forest, MarketState, node_name
from arcticauction.rational import ONE, ZERO


class SupportError(ValueError):
    """The candidate support admits no consistent basic solution."""


def solve_tree_flow(
    inst: MarketInstance,
    comp: Component,
    supply: dict[int, Fraction],
    demand: dict[int, Fraction],
) -> dict[Edge, Fraction]:
    """Unique flow on a tree component meeting buyer supplies and good
    demands (each by buyer or good index), keyed in ``comp.edges`` order.

    Walking ``comp.tree`` leaves first, each node but the root sends what
    it has left along its tree edge.  Raises :class:`SolverError` when the
    component is not a tree or the data are unbalanced (the root is left
    with a nonzero excess).  Flows may come out negative; callers decide
    whether that is an error or grounds to reject a candidate.
    """
    tree = comp.tree
    if len(comp.edges) != len(tree) - 1:
        raise SolverError(f"component {node_name(inst, tree[0][0])} is not a tree")
    n_buyers = len(inst.buyers)
    # what each node has left: a buyer's supply not yet sent, or minus a
    # good's demand not yet met
    excess = {
        node: supply[node] if node < n_buyers else -demand[node - n_buyers]
        for node, _ in tree
    }
    flows: dict[Edge, Fraction] = {}
    for node, edge in reversed(tree[1:]):
        left = excess[node]
        if node < n_buyers:
            flows[edge] = left
            excess[n_buyers + inst.edge_good[edge]] += left
        else:
            flows[edge] = -left
            excess[inst.edge_buyer[edge]] += left
    leftover = excess[tree[0][0]]
    if leftover != 0:
        raise SolverError(f"unbalanced tree flow: leftover {leftover}")
    return {e: flows[e] for e in comp.edges}


def _price_multipliers(inst: MarketInstance, comp: Component) -> dict[int, Fraction]:
    """Express each good price in the component as a multiple of one scale.

    Walking the tree from its root buyer, whose inverse ratio is one, two
    support edges of the same buyer force ``p_k = p_j * U_ik / U_ij``, so
    every price is the scale times a product of utility ratios.
    """
    n_buyers = len(inst.buyers)
    multipliers: dict[int, Fraction] = {}
    # inverse ratio per buyer: m_j / U_ij, equal over the buyer's edges
    inverse_ratio: dict[int, Fraction] = {comp.buyers[0]: ONE}
    for node, edge in comp.tree[1:]:
        if node < n_buyers:
            inverse_ratio[node] = multipliers[inst.edge_good[edge]] / inst.utility[edge]
        else:
            multipliers[node - n_buyers] = (
                inverse_ratio[inst.edge_buyer[edge]] * inst.utility[edge]
            )
    return multipliers


def _component_solution(
    inst: MarketInstance, comp: Component, budgets: tuple[Fraction, ...]
) -> tuple[dict[int, Fraction], dict[Edge, Fraction], dict[int, Fraction]] | None:
    """Solve one support component holding a buyer; returns (prices,
    spending, refunds), or None when no case is consistent.

    Tries the budget-balanced case, then anchor buyers in canonical order.
    A case's tree flow is solved only once its prices pass the ratio
    test, and an anchor's once its refund is nonnegative.
    """
    buyers, goods, edges = comp.buyers, comp.goods, comp.edges
    if not goods:
        # lone buyer: anchored vacuously, full refund
        b = buyers[0]
        return {}, {}, {b: budgets[b]}

    multipliers = _price_multipliers(inst, comp)
    mult_total = sum(multipliers.values(), ZERO)

    utility, edge_buyer, edge_good = inst.utility, inst.edge_buyer, inst.edge_good

    def ratios_at_least_one(prices: dict[int, Fraction], skip: int = -1) -> bool:
        # a buyer's support ratio u / p is equal across her support edges by
        # construction, so checking every edge checks every buyer but ``skip``
        return all(
            utility[e] >= prices[edge_good[e]] for e in edges if edge_buyer[e] != skip
        )

    # budget-balanced case: component budgets fix the scale
    supply = {b: budgets[b] for b in buyers}
    budget_total = sum(supply.values(), ZERO)
    scale = budget_total / mult_total
    if scale > 0:
        prices = {g: multipliers[g] * scale for g in goods}
        if ratios_at_least_one(prices):
            flows = solve_tree_flow(inst, comp, supply, prices)
            if all(v >= 0 for v in flows.values()):
                return prices, flows, {b: ZERO for b in buyers}

    # anchored case: some buyer's support ratio is pinned to exactly one,
    # and she spends what the other budgets leave of the prices
    for anchor in buyers:
        e0 = next(e for e in edges if edge_buyer[e] == anchor)
        scale = utility[e0] / multipliers[edge_good[e0]]
        prices = {g: multipliers[g] * scale for g in goods}
        spent = sum(prices.values(), ZERO) - (budget_total - budgets[anchor])
        refund = budgets[anchor] - spent
        if refund < 0 or not ratios_at_least_one(prices, skip=anchor):
            continue
        flows = solve_tree_flow(inst, comp, {**supply, anchor: spent}, prices)
        if all(v >= 0 for v in flows.values()):
            refunds = {b: ZERO for b in buyers}
            refunds[anchor] = refund
            return prices, flows, refunds
    return None


def basic_solution(
    inst: MarketInstance,
    forest: Forest,
    effective_budgets: tuple[Fraction, ...] | list[Fraction] | None = None,
    solved: dict | None = None,
) -> MarketState:
    """The unique state determined by a cycle-free support, given as the
    :class:`~arcticauction.graph.Forest` that
    :func:`~arcticauction.graph.components_of_edges` found for it.

    ``effective_budgets`` (by buyer) substitutes for the instance budgets
    when solving compressed states (budgets already reduced by committed
    refunds); they may be zero for fully refunded buyers.  Raises
    :class:`GenericityError` when the support contains a cycle and
    :class:`SupportError` when it admits no consistent solution, a good
    with no buyer in the support first.

    ``solved``, a dict the caller keeps between calls on one instance,
    lets a call reuse the component solutions of the last call that got
    past the buyerless-good check.  A component's solution, or its lack
    of one (kept as None), is a function of its edges (or its lone node)
    and its buyers' budgets alone, so it is looked up by those, each
    budget as its integer pair, which hashes without the modular inverse
    a ``Fraction``'s hash takes.  Only the components not found are
    solved, and the call leaves the dict holding its own components only,
    so it never outgrows one forest.
    """
    budgets = inst.budget if effective_budgets is None else effective_budgets
    components, cycle = forest
    if cycle is not None:
        raise GenericityError(
            f"support contains a cycle through {inst.edge_names[cycle[0]]}"
        )
    for comp in components:
        # a good no support edge reaches would need price zero; checked
        # before any component is solved, as it rejects the whole support
        if not comp.buyers:
            raise SupportError(
                f"good {inst.goods[comp.goods[0]]} has no buyer in support"
            )
    solved = {} if solved is None else solved
    kept: dict = {}
    prices: list[Fraction] = [ZERO] * len(inst.goods)
    spending: dict[Edge, Fraction] = {}
    refunds: list[Fraction] = [ZERO] * len(inst.buyers)
    try:
        for comp in components:
            pairs = tuple(
                (budgets[b]._numerator, budgets[b]._denominator) for b in comp.buyers
            )
            key = (comp.tree[0][0], comp.edges, pairs)
            if key in solved:
                solution = solved[key]
            else:
                solution = _component_solution(inst, comp, budgets)
            kept[key] = solution
            if solution is None:
                raise SupportError("no consistent case for support component")
            c_prices, c_flows, c_refunds = solution
            for g, price in c_prices.items():
                prices[g] = price
            spending.update(c_flows)
            for b, refund in c_refunds.items():
                refunds[b] = refund
    finally:
        solved.clear()
        solved.update(kept)
    return MarketState(inst, prices, spending, refunds)

