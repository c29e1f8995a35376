"""The halving-scale solver.

The algorithm maintains a state (prices, spending, refunds) that is
feasible at granularity ``delta``: spending sits on best bang-per-buck
edges in whole units of ``delta``, and every raised good is oversubscribed
by at most ``delta``.  An inner loop pushes each buyer's uncommitted cash
below ``delta`` -- by refunding buyers whose bang-per-buck is at most one
and by price-raise-then-augment steps for the rest -- and then ``delta``
halves, with a small repair keeping feasibility.  Once ``delta`` is below
the denominator floor of the instance, the support of the equilibrium is
exactly the set of edges spending more than ``4 * n * delta``.  Each of
those is abundant (it spends at least ``3 * n * delta``), and every
abundant edge lies in the support (Orlin's lemma, which the strong
solver's termination test also rests on), so the two sets are equal
there: the solver reads the support with the strong solver's rule,
:func:`~arcticauction.graph.abundant_edges`, and recovers the
equilibrium from it by a tree solve.

Each inner step lowers the integer potential (the sum of
``floor(cash / delta)``) by exactly one, and every phase but one opened by
a compressed restart starts with potential at most ``n``; both facts are
asserted at run time, and together they bound the phase by ``n`` steps.
A buyer's consecutive refund steps are booked and checked as one call.

The potential's terms are kept by the market state itself: a step books
whole units of ``delta``, and moves its buyer's term by exactly the units
it books, so reading the potential or the buyers holding ``delta`` costs
no division.  A price raise multiplies its whole active set by one factor,
and the market's bang-per-buck view follows that one scaling as it
happens.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable

from arcticauction.basic import basic_solution
from arcticauction.core import InstanceStats, MarketInstance, ceil_log2
from arcticauction.errors import GenericityError, SolverError
from arcticauction.graph import (
    Changes,
    Edge,
    MarketState,
    Node,
    abundant_edges,
    components_of_edges,
    edge_event,
    reach,
)
from arcticauction.oracle import Equilibrium, certify_state, check_genericity
from arcticauction.rational import ONE, Q, ZERO, reduced
from arcticauction.trace import PhaseMark, PhaseTrace, TraceRow


def initialize(inst: MarketInstance) -> MarketState:
    """Coarsest-scale start: zero spending, zero refunds, low prices.

    The initial scale is the largest budget.  Initial prices must sit below
    the equilibrium prices (they only ever rise): a buyer who ends up with
    bang-per-buck above one spends her whole budget, which supports every
    good she values at ``u * budget / (n * total-utility)``, while a buyer
    who ends up at bang-per-buck at most one supports it at the utility
    itself.  The smaller of the two is a valid floor either way, so each
    good starts at the largest such floor over the buyers valuing it.  The
    utility floor is halved so no buyer starts at bang-per-buck exactly
    one, which would send her straight into refunds and leave the good
    unsold forever.

    The smaller floor ``min(u * budget / (n * total), u / 2)`` is ``u``
    times the buyer's own factor ``min(budget / (n * total), 1/2)``, so
    the factor is computed once per buyer and each edge takes one product.
    """
    stats = inst.stats
    utility, edge_buyer = inst.utility, inst.edge_buyer
    half = ONE / 2
    factor = [
        min(budget / (stats.n * sum((utility[e] for e in edges), ZERO)), half)
        for budget, edges in zip(inst.budget, inst.buyer_edges)
    ]
    prices = [
        max(utility[e] * factor[edge_buyer[e]] for e in edges)
        for edges in inst.good_edges
    ]
    market = MarketState(inst, prices)
    market.rescale(stats.e_max)
    return market


def is_delta_feasible(inst: MarketInstance, market: MarketState) -> tuple[bool, list[str]]:
    """Check all feasibility conditions exactly; collect violations.

    After a passing check, only what the market's mutators touched since,
    its record of changes (``market.changes``), is checked again: touched
    buyers and goods get every check, and so do touched edges.  After a
    halving (a rescale, which marks the record ``rescaled``) every good is
    checked too, for its ``backorder <= delta`` bound: amounts, prices and
    rows are unchanged.  That is left out when :func:`halve_and_repair`
    already ran this check's goods test on every good it did not repair
    and all passed: it then clears the mark, which the next rescale sets
    again, and the goods it repaired, like every good touched or re-priced
    since, are in the record.  The spending edges of the buyers whose row
    or sign a price raise changed (the record's ``rows``) are tested too:
    a raise can take such an edge off the equality graph, and a buyer
    whose row did not change keeps all of hers on it.  Everything else is
    unchanged and passed before.  With no record (a new state, or a check
    that found a violation) the check sweeps the whole state, so the
    report is always that of a full sweep.  A pass starts a new, empty
    record.
    """
    touched = market.changes
    if touched is not None:
        goods: Iterable[int] = touched.goods
        if touched.rescaled:
            goods = range(len(inst.goods))
        edges: Iterable[Edge] = touched.edges
        if touched.rows:
            units, fixed = market.edge_units, market.edge_fixed
            edges = touched.edges.union(
                e
                for b in touched.rows
                for e in inst.buyer_edges[b]
                if e in units or e in fixed
            )
        if not _violations(inst, market, touched.buyers, goods, edges):
            market.changes = Changes()
            return (True, [])
    edges = sorted(market.spending_edges)
    violations = _violations(
        inst, market, range(len(inst.buyers)), range(len(inst.goods)), edges
    )
    market.changes = None if violations else Changes()
    return (not violations, violations)


def _violations(
    inst: MarketInstance,
    market: MarketState,
    buyers: Iterable[int],
    goods: Iterable[int],
    edges: Iterable[Edge],
) -> list[str]:
    """Feasibility violations of the given buyers, goods and edges, in the
    order given, each naming its buyer, good or edge by id; edges without
    spending are skipped.

    Each test compares counts or cross-multiplies integer pairs; a
    rational is built only for a deficit allowance or a report.  A buyer's
    cash is negative exactly when her potential term, which the market
    keeps, is.  No test asks whether spending is a multiple of ``delta``:
    the market's int counts hold that invariant themselves, since outside
    the fixed parts a compressed restart builds its state with, spending is
    whole units of ``delta`` (see :class:`~arcticauction.graph.MarketState`).
    """
    violations: list[str] = []
    terms = market.cash_terms
    for b in buyers:
        if market.refund_sign(b) < 0:
            violations.append(f"negative refund at buyer {inst.buyers[b]}")
        if terms[b] < 0:
            violations.append(f"negative effective cash at buyer {inst.buyers[b]}")
    for g in goods:
        violations += _good_faults(inst, market, g)
    eq_edges: set[Edge] | None = None
    for edge in edges:
        sign = market.spending_sign(edge, 0)
        if sign < 0:
            violations.append(f"negative spending on {inst.edge_names[edge]}")
        elif sign > 0:
            if eq_edges is None:
                eq_edges = market.bang_per_buck.edges
            if edge not in eq_edges:
                violations.append(
                    f"spending off equality graph on {inst.edge_names[edge]}"
                )
    return violations


def _good_faults(
    inst: MarketInstance,
    market: MarketState,
    g: int,
    pair: tuple[int, int] | None = None,
) -> list[str]:
    """The feasibility check's tests of good ``g``, whose backorder is the
    unnormalized ``pair`` (the market's :meth:`~MarketState.backorder_pair`
    when None): a negative price, and on a good raised above its initial
    price a backorder below its bound (zero, or minus the good's deficit
    allowance) or above ``delta``.  Returns the violations found."""
    price, initial = market.prices[g], market.initial_prices[g]
    pn, pd = price._numerator, price._denominator
    faults = []
    if pn < 0:
        faults.append(f"negative price at good {inst.goods[g]}")
    if pn * initial._denominator > initial._numerator * pd:
        num, den = pair or market.backorder_pair(g)
        allowed = market.allowed_deficit.get(g)
        if market.backorder(g) < -allowed if allowed else num < 0:
            faults.append(
                f"backorder {market.backorder(g)} below bound at good {inst.goods[g]}"
            )
        delta = market.unit
        if num * delta._denominator > delta._numerator * den:
            faults.append(
                f"backorder {market.backorder(g)} above delta at good {inst.goods[g]}"
            )
    return faults


def is_delta_optimal(inst: MarketInstance, market: MarketState) -> bool:
    """All effective cash strictly below the scale."""
    return not market.holding


def potential(inst: MarketInstance, market: MarketState) -> int:
    """Sum over buyers of ``floor(cash / delta)``; drops by one per step.
    The market keeps it (:class:`~arcticauction.graph.MarketState`)."""
    return market.cash_total


class SearchTree:
    """One residual search of a price raise, summed up for the raise that
    follows it.

    ``parent`` is the :func:`~arcticauction.graph.reach` forest of
    ``roots`` (in canonical order) along the equality edges and the
    ``backward`` edges, as the edge into each node; its nodes are the
    active set.  A price-and-augment round searches from its root buyer
    over the returnable edges, and the restart's price raiser from a
    component over the abundant forest.
    ``buyers`` and ``goods`` list the active set in canonical order (goods
    by good index, not node), ``good_set`` holds the goods again, and
    ``pairs`` each active good's inflow over its price as an unnormalized
    integer pair ``(inflow_num * price_den, inflow_den * price_num)``, in
    the order of ``goods``: the good is exhausted when the first is at most
    the second, and the pair is the multiplier at which a raise exhausts
    it.  The pairs hold at the prices of the search only, and a tree is
    raised at most once: a raise whose edge event does not tie names its
    terminal and ends the round, and one whose edge event ties is followed
    by a new search (see :func:`price_and_augment`).
    """

    __slots__ = ("parent", "buyers", "goods", "good_set", "pairs")

    def __init__(
        self,
        inst: MarketInstance,
        market: MarketState,
        roots: list[Node],
        backward: set[Edge],
    ) -> None:
        eq_edges = market.bang_per_buck.edges
        self.parent = reach(inst, roots, eq_edges, backward)
        n_buyers = len(inst.buyers)
        nodes = sorted(self.parent)
        split = bisect_left(nodes, n_buyers)
        self.buyers = nodes[:split]
        self.goods = [node - n_buyers for node in nodes[split:]]
        self.good_set = set(self.goods)
        prices = market.prices
        self.pairs = []
        for g in self.goods:
            n, d = market.inflow_pair(g)
            price = prices[g]
            self.pairs.append((n * price._denominator, d * price._numerator))

    def terminal(self, inst: MarketInstance, market: MarketState) -> Node | None:
        """The first critical buyer, else the first exhausted good (one
        whose pair's first entry is at most its second), in canonical
        order; None while there is neither.  Read it before the tree's
        raise: the pairs hold at the prices of the search."""
        signs = market.bang_per_buck.signs
        for b in self.buyers:
            if signs[b] == 0:
                return b
        for g, (n, d) in zip(self.goods, self.pairs):
            if n <= d:
                return len(inst.buyers) + g
        return None


def update_price_star(
    inst: MarketInstance, market: MarketState, tree: SearchTree
) -> tuple[bool, Node | None]:
    """Scale active-good prices by the smallest multiplier firing an event;
    return whether the edge event tied that multiplier, and the terminal
    the raise reached.

    ``tree`` is the search of the current state that
    :func:`price_and_augment` made and has not raised yet; its nodes are
    the active set, and none of them is a terminal.  Candidate events, each
    an exact root of a linear equation in the multiplier ``q``: an active
    buyer's bang-per-buck reaching one, an active good's backorder reaching
    zero (the tree's pair of the good), or a new equality edge from an
    active buyer to an inactive good
    (:func:`~arcticauction.graph.edge_event`).  One running minimum over
    them, in that order and each kind in canonical order, compares integer
    pairs by cross-multiplication: a candidate below the winner so far
    replaces it, one that ties it keeps the earlier one, and the edge
    event's tie is noted.  No candidate list is built, and only the winner
    becomes a ``Q``, by one gcd.  Prices are updated in place.

    Every equality edge of an active buyer leads to an active good, and a
    raise below the edge event's multiplier scales all of them alike and
    brings no other good level with them, so the equality edges the search
    follows, and with them its tree, change only when the edge event ties
    the winner.  Such an untied raise has also shown that no edge of an
    active buyer to an inactive good reaches her lowered best, so it tells
    the view (:meth:`~arcticauction.graph.MarketState.scale_prices`) that
    those buyers' rows stand and only their signs need recomputing; a tied
    raise keeps the view's full comparison.  For the same reason an active
    buyer's bang-per-buck reaches one exactly when her candidate ties the
    winner, and an active good, whose backorder was positive, is exhausted
    exactly when its candidate does.  So the terminal is the first tying
    buyer in canonical order, else the first tying good, else None: what a
    rescan of the tree after the raise finds.
    """
    view = market.bang_per_buck
    ratios, rows, signs = view.ratios, view.rows, view.signs
    n_buyers = len(inst.buyers)
    # the winner so far as an unnormalized pair (numerator, denominator);
    # (1, 0) stands for no candidate yet, which every candidate is below
    n, d, terminal = 1, 0, None
    for b in tree.buyers:
        if signs[b] > 0:
            cn, cd = ratios[rows[b][0]]
            if cn * d < n * cd:
                n, d, terminal = cn, cd, b
    for g, (cn, cd) in zip(tree.goods, tree.pairs):
        if cn * d < n * cd:
            n, d, terminal = cn, cd, n_buyers + g
    # the edge event names no terminal
    event = edge_event(inst, view, tree.buyers, tree.good_set)
    tied = False
    if event is not None:
        cn, cd, _ = event
        left, right = cn * d, n * cd
        if left <= right:
            tied = True
            if left < right:
                n, d, terminal = cn, cd, None
    if not d:
        raise SolverError("price raise has no stopping event")
    q = reduced(n, d)
    # the search tree holds every equality edge of the active buyers and no
    # exhausted good, so every candidate exceeds one; a raise by one or less
    # means the tree is stale, and would repeat for ever
    if n <= d:
        raise SolverError(f"stopping event at multiplier {q} <= 1")
    # a buyer is her own node, so the tree's nodes hold its buyers
    market.scale_prices(tree.good_set, q, () if tied else tree.parent)
    return tied, terminal


def _augment(
    inst: MarketInstance, market: MarketState, tree: dict[Node, Edge | None], target: Node
) -> None:
    """Shift one unit of ``delta`` along the path of a
    :func:`~arcticauction.graph.reach` tree from its root to ``target``,
    walked back from the target: an edge into a good (a forward arc) gains
    one unit, and an edge into a buyer (a backward arc) gives one back."""
    if target not in tree:
        raise SolverError(f"node {target} unreachable from roots")
    n_buyers = len(inst.buyers)
    node = target
    while (edge := tree[node]) is not None:
        if node < n_buyers:
            market.add_spending_units(edge, -1)
            node = n_buyers + inst.edge_good[edge]
        else:
            market.add_spending_units(edge, 1)
            node = inst.edge_buyer[edge]


def price_and_augment(
    inst: MarketInstance, market: MarketState, root: int
) -> tuple[str, str]:
    """One price-raise-and-augment round from ``root``, a buyer with cash
    at least ``delta`` and bang-per-buck above one; returns (step kind,
    subject id).

    Prices on the root's active set rise until some active buyer becomes
    critical or some active good stops being oversubscribed; one unit of
    ``delta`` then flows from the root to that terminal (a critical buyer
    books it as a refund).  The residual search runs once, and again after
    a raise whose edge event tied; each search is scanned for a terminal,
    and each raise names the one it reached (see
    :func:`update_price_star`).
    """
    # a price raise moves prices only, so the returnable edges stay the same
    returnable = market.returnable
    tree = SearchTree(inst, market, [root], returnable)
    terminal = tree.terminal(inst, market)
    while terminal is None:
        tied, terminal = update_price_star(inst, market, tree)
        if tied:
            tree = SearchTree(inst, market, [root], returnable)
            terminal = tree.terminal(inst, market)

    _augment(inst, market, tree.parent, terminal)
    n_buyers = len(inst.buyers)
    if terminal < n_buyers:
        market.add_refund_units(terminal, 1)
        return "augment_buyer", inst.buyers[terminal]
    return "augment_good", inst.goods[terminal - n_buyers]


def refund_step(inst: MarketInstance, market: MarketState, buyer: int) -> int:
    """Book a weakly-uninterested buyer's run of refund steps; return its
    length.

    A refund moves no price and no spending and touches only ``buyer``, so
    once ``buyer`` is the canonically first refundable buyer it stays so for
    ``k = floor(cash / delta)`` steps.  All ``k`` are booked in one
    ``add_refund_units`` of ``k``.  The preconditions (bang-per-buck at
    most one, cash at least ``delta``) together with that ``k`` imply those
    of each step of the run.
    """
    view = market.bang_per_buck
    steps = market.cash_terms[buyer]
    if view.signs[buyer] > 0 or steps < 1:
        raise SolverError(
            f"refund step preconditions violated at {inst.buyers[buyer]}:"
            f" bang-per-buck {reduced(*view.best_pair(buyer))},"
            f" cash {market.effective_cash(buyer)}"
        )
    market.add_refund_units(buyer, steps)
    return steps


def inner_step(inst: MarketInstance, market: MarketState) -> tuple[str, str, int]:
    """One inner-loop iteration: refund step if possible, else augment.

    Returns (step kind, subject id, number of steps); only a run of
    refund steps is longer than one.
    """
    signs = market.bang_per_buck.signs
    # the buyers holding delta, in canonical order
    holding = sorted(market.holding)
    for b in holding:
        if signs[b] <= 0:
            return "refund", inst.buyers[b], refund_step(inst, market, b)
    if not holding:
        raise SolverError("no eligible root buyer for price-and-augment")
    # every buyer holding delta is above one: the first is the root
    kind, subject = price_and_augment(inst, market, holding[0])
    return kind, subject, 1


def halve_and_repair(inst: MarketInstance, market: MarketState) -> None:
    """Halve the scale; bleed backorders above the new scale back down.

    Halving doubles every count of the market.  For each good
    oversubscribed beyond the halved scale, the canonically smallest buyer
    whose edge to it is returnable (at least one unit of spending) gives
    that unit back, which lowers the backorder by exactly the new scale.

    A state feasible before the halving has, after the repair, a backorder
    between 0 and the new scale on every raised good.  The same pass over
    the goods runs the feasibility check's goods test on every good it
    does not repair (a repaired good is touched, so the next check tests
    it anyway), and if every one passes it clears the ``rescaled`` mark
    the halving left on the market's record of changes: the next
    :func:`is_delta_feasible` then re-tests only the goods touched since
    instead of all of them.  Any failure leaves the mark, and that check
    then tests every good itself.
    """
    if not is_delta_optimal(inst, market):
        raise SolverError("halving requires an optimal state")
    half = market.unit / 2
    market.rescale(half)
    hn, hd = half._numerator, half._denominator
    passed = True
    for g, edges in enumerate(inst.good_edges):
        num, den = market.backorder_pair(g)
        if num * hd > hn * den:
            donor = next((e for e in edges if e in market.returnable), None)
            if donor is None:
                raise SolverError(f"oversubscribed good {inst.goods[g]} has no donor")
            market.add_spending_units(donor, -1)
        else:
            passed = passed and not _good_faults(inst, market, g, (num, den))
    if passed and market.changes is not None:
        market.changes.rescaled = False


def start_phase(
    inst: MarketInstance,
    market: MarketState,
    stats: InstanceStats,
    trace: PhaseTrace,
    entry: str,
) -> PhaseMark:
    """Phase-start checks of both solvers, then the phase's trace mark,
    which opens the trace's next phase (:meth:`PhaseTrace.begin_phase`
    numbers it).

    The prices must be generic, every phase must start with potential at
    most ``n`` except one opened by a compressed restart (``entry`` of
    ``restart``), which frees non-abundant spending back into cash, and
    every edge abundant at the start of the previous phase must still be
    abundant.  The potential check is the phase's step bound: each step
    lowers the potential by exactly one (:func:`record_step`) and no
    feasible state has negative cash, so a phase it admits takes at most
    ``n`` steps.  The market counts the units each edge moves from here
    on, for :func:`check_phase_invariants`.
    """
    phase = trace.phase_count
    if not check_genericity(inst, market).ok:
        raise GenericityError(f"degenerate prices at phase {phase}")
    phi = potential(inst, market)
    if entry != "restart" and phi > stats.n:
        raise SolverError(f"phase {phase} starts with potential {phi} > n")
    abundant = abundant_edges(market, stats.n)
    if trace.phases:
        missing = trace.phases[-1].abundant_start - abundant
        if missing:
            lost = sorted(inst.edge_names[e] for e in missing)
            raise SolverError(f"abundant edges lost: {lost}")
    market.reset_moved()
    return trace.begin_phase(market.unit, entry, phi, abundant)


def check_phase_invariants(inst: MarketInstance, n: int, market: MarketState) -> None:
    """Drift bound of an ended phase: no edge moved more than ``n * delta``.

    Inside a phase only :meth:`MarketState.add_spending_units` moves
    spending, and always by whole units of the phase's scale, which stands
    still until the phase ends.  So each edge's spending changed by
    exactly its net units moved since :func:`start_phase` (the market's
    ``moved``) times ``delta``, edges with a fixed part included: an
    emptied edge's value drops to zero by exactly the units booked.  The
    bound is then ``n`` units, tested on the integer counts; a rational is
    built only for a report.
    """
    for edge, units in enumerate(market.moved):
        if abs(units) > n:
            raise SolverError(
                f"edge {inst.edge_names[edge]} drifted"
                f" {abs(units) * market.unit} > {n * market.unit}"
            )


def record_step(
    inst: MarketInstance,
    market: MarketState,
    trace: PhaseTrace,
    kind: str,
    subject: str,
    phi_before: int,
    steps: int = 1,
) -> None:
    """Check that ``steps`` steps of one kind and subject lowered the
    potential by exactly ``steps``, one per step; trace them as one row of
    the trace's open phase."""
    phi_after = potential(inst, market)
    if phi_after != phi_before - steps:
        raise SolverError(
            f"potential moved {phi_before} -> {phi_after} in {steps} {kind} step(s)"
        )
    trace.add_row(
        TraceRow(
            phase=trace.phases[-1].index,
            delta=market.unit,
            kind=kind,
            subject=subject,
            phi_before=phi_before,
            phi_after=phi_after,
            steps=steps,
        )
    )


def run_inner_loop(inst: MarketInstance, market: MarketState, trace: PhaseTrace) -> None:
    """Drive the state to optimality, asserting the potential discipline;
    the steps are rows of the trace's open phase.

    Every row must lower the potential by exactly its number of steps, and
    the state must stay feasible, so no cash goes negative: the potential
    the phase started with bounds its steps, and :func:`start_phase`
    bounds that by ``n``.  A run of refund steps is checked for
    feasibility once, after its last step: within the run the buyer's
    refund only grows from a non-negative value and its cash only falls to
    a value that is still non-negative, so if the end state is feasible,
    so is every state of the run.
    """
    while not is_delta_optimal(inst, market):
        phi_before = potential(inst, market)
        kind, subject, steps = inner_step(inst, market)
        record_step(inst, market, trace, kind, subject, phi_before, steps)
        ok, violations = is_delta_feasible(inst, market)
        if not ok:
            raise SolverError(f"infeasible after {kind} at {subject}: {violations}")


def max_phases(stats: InstanceStats) -> int:
    """The halving solver's last phase index: halvings from the largest
    budget down past the stopping scale ``1 / (8 n D)``, plus one."""
    return ceil_log2(stats.e_max * 8 * stats.n * stats.d_bound) + 1


def run_weak(inst: MarketInstance) -> tuple[Equilibrium, PhaseTrace]:
    """Run the halving-scale algorithm to a certified equilibrium.

    Raises :class:`GenericityError` when the instance shows a degeneracy
    mid-run (the driver retries with a new perturbation seed) and
    :class:`SolverError` on any internal invariant violation.
    """
    stats = inst.stats
    market = initialize(inst)
    trace = PhaseTrace(algorithm="weak", edge_names=inst.edge_names)
    stop_below = Q(1, 8 * stats.n) / stats.d_bound
    last_phase = max_phases(stats)

    entry = "init"
    while True:
        mark = start_phase(inst, market, stats, trace, entry)
        trace.abundant_discovered |= mark.abundant_start
        run_inner_loop(inst, market, trace)
        check_phase_invariants(inst, stats.n, market)

        if market.unit < stop_below:
            support = abundant_edges(market, stats.n)
            final = basic_solution(inst, components_of_edges(inst, support))
            certificate = certify_state(inst, final)
            if not certificate.ok:
                raise SolverError(
                    "recovered support fails certification: "
                    + ", ".join(certificate.failed())
                )
            return Equilibrium.from_state(inst, final, certificate), trace

        halve_and_repair(inst, market)
        entry = "halve"
        if trace.phase_count > last_phase:
            raise SolverError(f"phase budget {last_phase} exceeded")
