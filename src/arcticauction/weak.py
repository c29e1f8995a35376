"""The halving-scale solver.

The algorithm maintains a state (prices, spending, refunds) that is
feasible at granularity ``delta``: spending sits on best bang-per-buck
edges in multiples of ``delta``, and every raised good is oversubscribed by
at most ``delta``.  An inner loop pushes each buyer's uncommitted cash
below ``delta`` -- by refunding buyers whose bang-per-buck is at most one
and by price-raise-then-augment steps for the rest -- and then ``delta``
halves, with a small repair keeping feasibility.  Once ``delta`` is below
the denominator floor of the instance, the support of the equilibrium is
exactly the set of edges spending more than ``4 * n * delta``, and the
equilibrium is recovered from it by a tree solve.

Each inner step lowers the integer potential (the sum of
``floor(cash / delta)``) by exactly one, and every phase but one opened by
a compressed restart starts with potential at most ``n``; both facts are
asserted at run time, and together they bound the phase by ``n`` steps.
A buyer's consecutive refund steps are booked and checked as one call.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from arcticauction.basic import basic_solution, recover_support
from arcticauction.core import InstanceStats, MarketInstance, ceil_log2, compute_stats
from arcticauction.errors import GenericityError, SolverError
from arcticauction.graph import (
    RESCALED,
    Edge,
    MarketState,
    Node,
    abundant_edges,
    bang_per_buck_view,
    buyer_node,
    components_of_edges,
    edge_event,
    good_node,
    path_to,
    reach,
)
from arcticauction.oracle import Equilibrium, certify_state, check_genericity
from arcticauction.rational import Q, ZERO, reduced
from arcticauction.trace import PhaseMark, PhaseTrace, TraceRow


class ScalingState:
    """Mutable solver state: the market triple plus the scaling context.

    ``delta`` is the market's scale (``market.unit``): the market counts
    spending and refunds in units of it, and setting ``delta`` recounts
    them (halving doubles every count).  ``initial_prices`` are frozen at
    initialization; the backorder bounds only apply to goods whose price
    has been raised above them.  ``exempt_edges`` and ``allowed_deficit``
    start empty; only the strongly polynomial solver's compressed restart
    (:func:`~arcticauction.strong.make_fertile`) sets them: exempt edges
    carry values that are not multiples of ``delta`` (the fixed parts of
    the rebuilt state, which need residual capacity ``delta`` to serve as
    backward arcs), and flagged goods may temporarily hold a small
    negative backorder until one augmentation repairs them.

    The feasibility check, the potential and the returnable edges keep
    data on ``market`` that reads ``delta``: each passes ``delta`` as the
    scale to :meth:`MarketState.changes`, so replacing ``market``, or
    ``delta`` by anything but a whole fraction of it, makes their next
    call start over, and dividing ``delta`` by a whole number (halving)
    makes each repeat only its tests that read the scale.  The other
    fields change only together with ``market``, or, for
    ``allowed_deficit``, at a good a mutator touched since the last check
    (as the deficit repair does).
    """

    def __init__(
        self,
        market: MarketState,
        delta: Fraction,
        initial_prices: dict[str, Fraction],
    ) -> None:
        self.market = market
        market.rescale(delta)
        self.initial_prices = initial_prices
        self.exempt_edges: set[Edge] = set()
        self.allowed_deficit: dict[str, Fraction] = {}

    @property
    def delta(self) -> Fraction:
        return self.market.unit

    @delta.setter
    def delta(self, value: Fraction) -> None:
        self.market.rescale(value)


def initialize(inst: MarketInstance) -> ScalingState:
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
    """
    stats = compute_stats(inst)
    prices: dict[str, Fraction] = {}
    row_total = {
        b: sum((inst.utilities[(b, g)] for g in inst.goods_of(b)), ZERO)
        for b in inst.buyers
    }
    for g in inst.goods:
        best = max(
            min(
                inst.utilities[(b, g)] * inst.budgets[b] / (stats.n * row_total[b]),
                inst.utilities[(b, g)] / 2,
            )
            for b in inst.buyers_of(g)
        )
        prices[g] = best
    market = MarketState(prices=prices, spending={}, refunds={})
    return ScalingState(market=market, delta=stats.e_max, initial_prices=dict(prices))


_RETURNABLE = "returnable"


def returnable_edges(ss: ScalingState) -> set[Edge]:
    """Edges whose spending can give ``delta`` back, the good -> buyer arcs
    of the residual graph: positive, and at least ``delta`` on an exempt
    edge.

    Only the edges the market's mutators touched since the last call are
    tested again, and after a halving (a rescale by a whole factor) the
    exempt edges too, the only ones whose test reads ``delta``.  Replacing
    ``ss.market`` (and with it ``ss.exempt_edges``), or ``ss.delta`` by
    any other value, makes the next call test all of spending.  The set is
    the view itself, updated in place; copy it to keep a snapshot.
    """
    market = ss.market
    exempt = ss.exempt_edges
    touched = market.changes(_RETURNABLE, ss.delta)
    if touched is None:
        view = market.views[_RETURNABLE] = set()
        edges: Iterable[Edge] = [*market.edge_fixed, *market.edge_units]
    else:
        view = market.views[_RETURNABLE]
        edges = [e for kind, e in touched if kind == "edge"]
        if RESCALED in touched:
            edges.extend(exempt)
    for e in edges:
        if (
            market.spending_sign(e, 1) >= 0
            if e in exempt
            else market.spending_sign(e, 0) > 0
        ):
            view.add(e)
        else:
            view.discard(e)
    return view


_FEASIBLE = "feasible"


def is_delta_feasible(inst: MarketInstance, ss: ScalingState) -> tuple[bool, list[str]]:
    """Check all feasibility conditions exactly; collect violations.

    After a passing check on the same market object, at the same scale or
    one a halving (a rescale by a whole factor) reached, only what the
    market's mutators touched since is checked again: touched buyers and
    goods get every check, and so do touched edges.  After a halving every
    good is checked too, for its ``backorder <= delta`` bound: amounts,
    prices and rows are unchanged, and a multiple of ``delta`` stays a
    multiple of a whole fraction of it.  A spending edge of a buyer next to
    a re-priced good gets only the equality-graph test, because a price
    change can take it off the equality graph but cannot change anything
    else the check reads: its value is the same as when it last passed (a
    new value touches the edge), so its sign and multiple-of-delta tests
    would only repeat a pass.  Even that test is skipped while the
    bang-per-buck view's ``version`` is the one of the last pass, since
    then no row has changed.  Everything else is unchanged and passed
    before.  Any other call, and any call that finds a violation, sweeps
    the whole state, so the report is always that of a full sweep.
    """
    market = ss.market
    touched = market.changes(_FEASIBLE, ss.delta)
    # the bang-per-buck view's version at the last pass; None after a violation
    passed = market.views.get(_FEASIBLE)
    if touched is not None and passed is not None:
        buyers: list[str] = []
        goods: list[str] = []
        edges: set[Edge] = set()
        near_repriced: set[str] = set()  # buyers next to a re-priced good
        for kind, item in touched:
            if kind == "buyer":
                buyers.append(item)
            elif kind == "edge":
                edges.add(item)
            elif kind != "scale":
                goods.append(item)
                if kind == "price":
                    near_repriced.update(inst.buyers_of(item))
        if RESCALED in touched:
            goods = list(inst.goods)
        if not _violations(inst, ss, buyers, goods, edges):
            if not near_repriced:
                return (True, [])
            view = bang_per_buck_view(inst, market)
            if view.version == passed or _spending_on_equality_graph(
                inst, market, view.edges, near_repriced
            ):
                market.views[_FEASIBLE] = view.version
                return (True, [])
    violations = _violations(inst, ss, inst.buyers, inst.goods, market.spending)
    market.views[_FEASIBLE] = (
        None if violations else bang_per_buck_view(inst, market).version
    )
    return (not violations, violations)


def _spending_on_equality_graph(
    inst: MarketInstance,
    market: MarketState,
    eq_edges: set[Edge],
    buyers: Iterable[str],
) -> bool:
    """Whether every spending edge of ``buyers`` is in ``eq_edges``."""
    units, fixed = market.edge_units, market.edge_fixed
    return all(
        (b, g) in eq_edges
        for b in buyers
        for g in inst.goods_of(b)
        if (b, g) in units or (b, g) in fixed
    )


def _violations(
    inst: MarketInstance,
    ss: ScalingState,
    buyers: Iterable[str],
    goods: Iterable[str],
    edges: Iterable[Edge],
) -> list[str]:
    """Feasibility violations of the given buyers, goods and edges, in the
    order given; edges without spending are skipped.

    Each test compares counts or cross-multiplies integer pairs; a
    rational is built only for a deficit allowance or a report.  A buyer's
    cash is negative exactly when her potential term is.  A spending of
    ``count * delta + fixed`` is a multiple of ``delta`` exactly when its
    fixed part is.
    """
    violations: list[str] = []
    market = ss.market
    terms = _cash_terms(inst, ss).terms
    for b in buyers:
        if market.refund_sign(b) < 0:
            violations.append(f"negative refund at buyer {b}")
        if terms[b] < 0:
            violations.append(f"negative effective cash at buyer {b}")
    delta = ss.delta
    dn, dd = delta.numerator, delta.denominator
    for g in goods:
        price = market.prices[g]
        if price < 0:
            violations.append(f"negative price at good {g}")
        if price > ss.initial_prices[g]:
            num, den = market.backorder_pair(g)
            allowed = ss.allowed_deficit.get(g)
            if market.backorder(g) < -allowed if allowed else num < 0:
                violations.append(
                    f"backorder {market.backorder(g)} below bound at good {g}"
                )
            if num * dd > dn * den:
                violations.append(
                    f"backorder {market.backorder(g)} above delta at good {g}"
                )
    eq_edges: set[Edge] | None = None
    for edge in edges:
        sign = market.spending_sign(edge, 0)
        if sign < 0:
            violations.append(f"negative spending on {edge}")
        elif sign > 0:
            if eq_edges is None:
                eq_edges = bang_per_buck_view(inst, market).edges
            if edge not in eq_edges:
                violations.append(f"spending off equality graph on {edge}")
            fixed = market.edge_fixed.get(edge)
            if (
                fixed
                and edge not in ss.exempt_edges
                and (fixed.numerator * delta.denominator)
                % (fixed.denominator * delta.numerator)
            ):
                violations.append(f"spending on {edge} not a multiple of delta")
    return violations


class _CashTerms:
    """``floor(cash / delta)`` of every buyer at one scale, their sum, and
    the buyers whose term is positive (cash at least ``delta``)."""

    __slots__ = ("terms", "total", "holding")

    def __init__(self) -> None:
        self.terms: dict[str, int] = {}
        self.total = 0
        self.holding: set[str] = set()


_CASH_TERMS = "cash_terms"


def _cash_terms(inst: MarketInstance, ss: ScalingState) -> _CashTerms:
    """The potential's terms, recomputed for the buyers touched since the
    last call; for every buyer after a change of scale or market."""
    market = ss.market
    touched = market.changes(_CASH_TERMS, ss.delta)
    if touched is None:
        view = market.views[_CASH_TERMS] = _CashTerms()
        buyers: Iterable[str] = inst.buyers
    else:
        view = market.views[_CASH_TERMS]
        if RESCALED in touched:
            buyers = inst.buyers
        else:
            buyers = [b for kind, b in touched if kind == "buyer"]
    for b in buyers:
        term = market.cash_term(inst, b)
        view.total += term - view.terms.get(b, 0)
        view.terms[b] = term
        if term > 0:
            view.holding.add(b)
        else:
            view.holding.discard(b)
    return view


def _buyers_holding_delta(inst: MarketInstance, ss: ScalingState) -> list[str]:
    """Buyers with effective cash at least ``delta``, in canonical order."""
    return sorted(_cash_terms(inst, ss).holding, key=inst.buyer_pos.__getitem__)


def is_delta_optimal(inst: MarketInstance, ss: ScalingState) -> bool:
    """All effective cash strictly below the scale."""
    return not _cash_terms(inst, ss).holding


def potential(inst: MarketInstance, ss: ScalingState) -> int:
    """Sum over buyers of ``floor(cash / delta)``; drops by one per step."""
    return _cash_terms(inst, ss).total


class SearchTree:
    """One residual search of a price raise, summed up for the raises that
    follow it.

    ``parent`` is the :func:`~arcticauction.graph.reach` forest of
    ``roots`` (in canonical order) along the equality edges and the
    ``backward`` edges; its nodes are the active set.  A price-and-augment
    round searches from its root buyer over the returnable edges, and the
    restart's price raiser from a component over the abundant forest.
    ``buyers`` and ``goods`` list the active set in canonical order,
    ``good_set`` holds the goods again, and ``inflow`` each active good's
    :meth:`MarketState.inflow_pair`.  A price raise moves prices only, so
    the pairs stay valid until the next search.
    """

    __slots__ = ("parent", "buyers", "goods", "good_set", "inflow")

    def __init__(
        self,
        inst: MarketInstance,
        market: MarketState,
        roots: list[Node],
        backward: set[Edge],
    ) -> None:
        eq_edges = bang_per_buck_view(inst, market).edges
        self.parent = reach(inst, roots, eq_edges, backward)
        self.buyers: list[str] = []
        self.goods: list[str] = []
        for kind, name in self.parent:
            (self.buyers if kind == "B" else self.goods).append(name)
        self.buyers.sort(key=inst.buyer_pos.__getitem__)
        self.goods.sort(key=inst.good_pos.__getitem__)
        self.good_set = set(self.goods)
        self.inflow = {g: market.inflow_pair(g) for g in self.goods}

    def terminal(self, inst: MarketInstance, market: MarketState) -> Node | None:
        """The first critical buyer, else the first exhausted good, in
        canonical order; None while there is neither."""
        signs = bang_per_buck_view(inst, market).signs
        for b in self.buyers:
            if signs[b] == 0:
                return buyer_node(b)
        prices = market.prices
        for g in self.goods:
            n, d = self.inflow[g]
            price = prices[g]
            if n * price.denominator <= price.numerator * d:
                return good_node(g)
        return None


def update_price_star(
    inst: MarketInstance, ss: ScalingState, tree: SearchTree
) -> tuple[bool, Node | None]:
    """Scale active-good prices by the smallest multiplier firing an event;
    return whether the edge event tied that multiplier, and the terminal
    the raise reached.

    ``tree`` is the search of the current state that
    :func:`price_and_augment` made; its nodes are the active set, and none
    of them is a terminal.  Candidate events, each an exact root of a
    linear equation in the multiplier ``q``: a new equality edge from an
    active buyer to an inactive good
    (:func:`~arcticauction.graph.edge_event`), an active good's backorder
    reaching zero, or an active buyer's bang-per-buck reaching one.
    Candidates are compared as integer pairs by cross-multiplication; only
    the winner becomes a ``Q``, by one gcd.  Prices are updated in place.

    Every equality edge of an active buyer leads to an active good, and a
    raise below the edge event's multiplier scales all of them alike and
    brings no other good level with them, so the equality edges the search
    follows, and with them its tree, change only when the edge event ties
    the winner.  For the same reason an active buyer's bang-per-buck
    reaches one exactly when her candidate ties the winner, and an active
    good, whose backorder was positive, is exhausted exactly when its
    candidate does.  So the terminal is the first tying buyer in canonical
    order, else the first tying good, else None: what a rescan of the tree
    after the raise finds.
    """
    market = ss.market
    view = bang_per_buck_view(inst, market)
    signs = view.signs
    prices = market.prices
    inflow = tree.inflow
    # each candidate is an unnormalized pair (numerator, positive denominator)
    good_pairs: list[tuple[int, int]] = []
    for g in tree.goods:
        n, d = inflow[g]
        price = prices[g]
        good_pairs.append((n * price.denominator, d * price.numerator))
    buyers = [b for b in tree.buyers if signs[b] > 0]
    buyer_pairs = [view.best_pair(b) for b in buyers]
    candidates = good_pairs + buyer_pairs
    event = edge_event(inst, view, tree.buyers, tree.good_set)
    if event is not None:
        candidates.append(event[:2])
    if not candidates:
        raise SolverError("price raise has no stopping event")
    n, d = candidates[0]
    for cn, cd in candidates[1:]:
        if cn * d < n * cd:
            n, d = cn, cd
    q = reduced(n, d)
    # the search tree holds every equality edge of the active buyers and no
    # exhausted good, so every candidate exceeds one; a raise by one or less
    # means the tree is stale, and would repeat for ever
    if n <= d:
        raise SolverError(f"stopping event at multiplier {q} <= 1")
    market.scale_prices(tree.goods, q)
    tied = event is not None and event[0] * d == n * event[1]
    for b, (cn, cd) in zip(buyers, buyer_pairs):
        if cn * d == n * cd:
            return tied, buyer_node(b)
    for g, (cn, cd) in zip(tree.goods, good_pairs):
        if cn * d == n * cd:
            return tied, good_node(g)
    return tied, None


def _augment(ss: ScalingState, path: list[Node]) -> None:
    """Shift one unit of ``delta`` along a residual path (forward +,
    backward -)."""
    for a, b in zip(path, path[1:]):
        if a[0] == "B" and b[0] == "G":
            ss.market.add_spending_units((a[1], b[1]), 1)
        elif a[0] == "G" and b[0] == "B":
            ss.market.add_spending_units((b[1], a[1]), -1)
        else:
            raise SolverError("augmenting path does not alternate sides")


def price_and_augment(
    inst: MarketInstance, ss: ScalingState, root: str
) -> tuple[str, str]:
    """One price-raise-and-augment round from ``root``, a buyer with cash
    at least ``delta`` and bang-per-buck above one; returns (step kind,
    subject).

    Prices on the root's active set rise until some active buyer becomes
    critical or some active good stops being oversubscribed; one unit of
    ``delta`` then flows from the root to that terminal (a critical buyer
    books it as a refund).  The residual search runs once, and again after
    a raise whose edge event tied; each search is scanned for a terminal,
    and each raise names the one it reached (see
    :func:`update_price_star`).
    """
    market = ss.market
    start = buyer_node(root)
    # a price raise moves prices only, so the returnable edges stay the same
    returnable = returnable_edges(ss)
    tree = SearchTree(inst, market, [start], returnable)
    terminal = tree.terminal(inst, market)
    while terminal is None:
        tied, terminal = update_price_star(inst, ss, tree)
        if tied:
            tree = SearchTree(inst, market, [start], returnable)
            terminal = tree.terminal(inst, market)

    _augment(ss, path_to(tree.parent, terminal))
    kind, name = terminal
    if kind == "B":
        market.add_refund_units(name, 1)
        return "augment_buyer", name
    return "augment_good", name


def refund_step(inst: MarketInstance, ss: ScalingState, buyer: str) -> int:
    """Book a weakly-uninterested buyer's run of refund steps; return its
    length.

    A refund moves no price and no spending and touches only ``buyer``, so
    once ``buyer`` is the canonically first refundable buyer it stays so for
    ``k = floor(cash / delta)`` steps.  All ``k`` are booked in one
    ``add_refund_units`` of ``k``.  The preconditions (bang-per-buck at
    most one, cash at least ``delta``) together with that ``k`` imply those
    of each step of the run.
    """
    market = ss.market
    view = bang_per_buck_view(inst, market)
    steps = _cash_terms(inst, ss).terms[buyer]
    if view.signs[buyer] > 0 or steps < 1:
        raise SolverError(
            f"refund step preconditions violated at {buyer}:"
            f" bang-per-buck {reduced(*view.best_pair(buyer))},"
            f" cash {market.effective_cash(inst, buyer)}"
        )
    market.add_refund_units(buyer, steps)
    return steps


def inner_step(inst: MarketInstance, ss: ScalingState) -> tuple[str, str, int]:
    """One inner-loop iteration: refund step if possible, else augment.

    Returns (step kind, subject, number of steps); only a run of refund
    steps is longer than one.
    """
    signs = bang_per_buck_view(inst, ss.market).signs
    holding = _buyers_holding_delta(inst, ss)
    for b in holding:
        if signs[b] <= 0:
            return "refund", b, refund_step(inst, ss, b)
    if not holding:
        raise SolverError("no eligible root buyer for price-and-augment")
    # every buyer holding delta is above one: the first is the root
    kind, subject = price_and_augment(inst, ss, holding[0])
    return kind, subject, 1


def halve_and_repair(inst: MarketInstance, ss: ScalingState) -> None:
    """Halve the scale; bleed backorders above the new scale back down.

    Halving doubles every count of the market.  For each good
    oversubscribed beyond the halved scale, the canonically smallest buyer
    with at least one unit of spending on it gives that unit back.  The
    repaired state is feasible at the new scale.
    """
    if not is_delta_optimal(inst, ss):
        raise SolverError("halving requires an optimal state")
    market = ss.market
    ss.delta = half = ss.delta / 2
    hn, hd = half.numerator, half.denominator
    for g in inst.goods:
        num, den = market.backorder_pair(g)
        if num * hd > hn * den:
            donors = [
                b for b in inst.buyers_of(g) if market.spending_sign((b, g), 1) >= 0
            ]
            if not donors:
                raise SolverError(f"oversubscribed good {g} has no donor")
            market.add_spending_units((donors[0], g), -1)


def start_phase(
    inst: MarketInstance,
    ss: ScalingState,
    stats: InstanceStats,
    trace: PhaseTrace,
    phase: int,
    entry: str,
) -> PhaseMark:
    """Phase-start checks of both solvers, then the phase's trace mark.

    The prices must be generic, every phase must start with potential at
    most ``n`` except one opened by a compressed restart (``entry`` of
    ``restart``), which frees non-abundant spending back into cash, and
    every edge abundant at the start of the previous phase must still be
    abundant.  The potential check is the phase's step bound: each step
    lowers the potential by exactly one (:func:`record_step`) and no
    feasible state has negative cash, so a phase it admits takes at most
    ``n`` steps.
    """
    if not check_genericity(inst, ss.market).ok:
        raise GenericityError(f"degenerate prices at phase {phase}")
    phi = potential(inst, ss)
    if entry != "restart" and phi > stats.n:
        raise SolverError(f"phase {phase} starts with potential {phi} > n")
    abundant = abundant_edges(ss.market, stats.n)
    if trace.phases:
        missing = trace.phases[-1].abundant_start - abundant
        if missing:
            raise SolverError(f"abundant edges lost: {sorted(missing)}")
    return trace.begin_phase(phase, ss.delta, entry, phi, ss.market.spending, abundant)


def check_phase_invariants(n: int, mark: PhaseMark) -> None:
    """Drift bound of an ended phase: no edge moved more than ``n * delta``.

    The snapshots share the value objects of the state's rational
    spending, which gets a new value only for an edge a mutator touched,
    so an edge whose value is the very object it started with did not move
    and its drift is not computed.
    """
    drift_bound = n * mark.delta
    start, end = mark.spending_start, mark.spending_end or {}
    for edge in start.keys() | end.keys():
        before, after = start.get(edge, ZERO), end.get(edge, ZERO)
        if after is not before:
            change = abs(after - before)
            if change > drift_bound:
                raise SolverError(f"edge {edge} drifted {change} > {drift_bound}")


def record_step(
    inst: MarketInstance,
    ss: ScalingState,
    trace: PhaseTrace,
    phase: int,
    kind: str,
    subject: str,
    phi_before: int,
    steps: int = 1,
) -> None:
    """Check that ``steps`` steps of one kind and subject lowered the
    potential by exactly ``steps``, one per step; trace them as one row."""
    phi_after = potential(inst, ss)
    if phi_after != phi_before - steps:
        raise SolverError(
            f"potential moved {phi_before} -> {phi_after} in {steps} {kind} step(s)"
        )
    trace.add_row(
        TraceRow(
            phase=phase,
            delta=ss.delta,
            kind=kind,
            subject=subject,
            phi_before=phi_before,
            phi_after=phi_after,
            steps=steps,
        )
    )


def run_inner_loop(
    inst: MarketInstance, ss: ScalingState, trace: PhaseTrace, phase: int
) -> None:
    """Drive the state to optimality, asserting the potential discipline.

    Every row must lower the potential by exactly its number of steps, and
    the state must stay feasible, so no cash goes negative: the potential
    the phase started with bounds its steps, and :func:`start_phase`
    bounds that by ``n``.  A run of refund steps is checked for
    feasibility once, after its last step: within the run the buyer's
    refund only grows from a non-negative value and its cash only falls to
    a value that is still non-negative, so if the end state is feasible,
    so is every state of the run.
    """
    while not is_delta_optimal(inst, ss):
        phi_before = potential(inst, ss)
        kind, subject, steps = inner_step(inst, ss)
        record_step(inst, ss, trace, phase, kind, subject, phi_before, steps)
        ok, violations = is_delta_feasible(inst, ss)
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
    stats = compute_stats(inst)
    ss = initialize(inst)
    trace = PhaseTrace(algorithm="weak")
    stop_below = Q(1, 8 * stats.n) / stats.d_bound
    last_phase = max_phases(stats)

    phase = 0
    entry = "init"
    while True:
        mark = start_phase(inst, ss, stats, trace, phase, entry)
        trace.abundant_discovered |= mark.abundant_start
        run_inner_loop(inst, ss, trace, phase)
        trace.end_phase(ss.market.spending)
        check_phase_invariants(stats.n, mark)

        if ss.delta < stop_below:
            support = recover_support(ss.market, stats.n)
            final = basic_solution(inst, components_of_edges(inst, support))
            certificate = certify_state(inst, final)
            if not certificate.ok:
                raise SolverError(
                    "recovered support fails certification: "
                    + ", ".join(certificate.failed())
                )
            return Equilibrium.from_state(inst, final, certificate), trace

        halve_and_repair(inst, ss)
        phase += 1
        entry = "halve"
        if phase > last_phase:
            raise SolverError("phase budget exceeded")
