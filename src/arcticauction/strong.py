"""The committed-refund solver with restart jumps.

The halving solver needs a number of phases that grows with the bit size
of the data.  This solver gets by with a data-independent number of phases
by committing refunds early -- once a buyer's bang-per-buck hits one, part
of her remaining cash is irrevocably booked as refund and removed from her
effective budget, by the market state's own checked commitment
(:meth:`~arcticauction.graph.MarketState.add_refund`) -- and by a restart
subroutine that, whenever the current scale stops forcing progress, either
promises a new abundant edge within a logarithmic number of phases
(lowering only a threshold) or jumps straight to a much smaller scale with
a rebuilt allocation supported on the abundant forest.

Progress is measured in abundant edges (they persist once discovered, and
the equilibrium support has fewer than ``n`` of them) and in buyers
permanently reaching bang-per-buck one.  Termination is detected by
recomputing the basic solution of the abundant support each round and
checking it against the compressed instance's equilibrium conditions; the
recomputation solves again only the components whose edges or effective
budgets moved since the last round.
"""

from __future__ import annotations

import math
from fractions import Fraction

from arcticauction.basic import SupportError, basic_solution, solve_tree_flow
from arcticauction.core import MarketInstance
from arcticauction.errors import SolverError
from arcticauction.graph import (
    Component,
    Edge,
    Forest,
    MarketState,
    abundant_edges,
    component_key,
    components_of_edges,
    edge_event,
    reach,
)
from arcticauction.oracle import Equilibrium, certify_state
from arcticauction.rational import Q, ZERO, reduced
from arcticauction.trace import PhaseTrace, RestartRecord
from arcticauction.weak import (
    SearchTree,
    _augment,
    check_phase_invariants,
    halve_and_repair,
    initialize,
    is_delta_feasible,
    potential,
    record_step,
    run_inner_loop,
    start_phase,
)


def has_fertile_component(
    inst: MarketInstance,
    market: MarketState,
    components: list[Component],
) -> bool:
    """Whether some component is guaranteed to force progress at the
    current scale.

    A singleton buyer qualifies while her bang-per-buck exceeds one and she
    still holds more than ``delta / (3 n^2)`` of cash; any component
    qualifies once its surplus is at most ``-delta / (3 n^2)``.
    """
    n = len(inst.buyers) + len(inst.goods)
    margin = market.unit / (3 * n * n)
    signs = market.bang_per_buck.signs
    for comp in components:
        if comp.is_singleton() and comp.buyers:
            b = comp.buyers[0]
            if signs[b] > 0 and market.effective_cash(b) > margin:
                return True
        if comp.surplus(market) <= -margin:
            return True
    return False


def special_price(
    inst: MarketInstance,
    market: MarketState,
    components: list[Component],
    root_component: Component,
    target: Fraction,
) -> tuple[MarketState, int]:
    """Raise prices on the root component's active set until its surplus
    falls to ``target`` or some component nears the barrier.

    Runs on a private copy of the market state, so ``market`` is untouched:
    spending stays frozen, and only the copy's prices and refunds move,
    seen through the copy's own bang-per-buck view, which its price raises
    keep current as the inner steps' raises keep the market's.  Each
    iteration reads the active set off one
    :class:`~arcticauction.weak.SearchTree` from the root component's
    nodes, whose backward arcs are the edges of ``components``, the
    abundant forest of ``market``.  Four events can end an iteration: a new
    equality edge from an active buyer to an inactive good (the active set
    then grows), the root surplus reaching the target, some component's
    surplus reaching the barrier ``-root surplus / (2 n^2)``, or an active
    buyer with positive cash turning critical, in which case as much of
    her cash is committed as the target and barrier allow, by the copy's
    :meth:`~arcticauction.graph.MarketState.add_refund`, which refuses a
    commitment off bang-per-buck one or beyond her cash.  The smallest
    multiplier wins, and a tie goes to the event named first here, then to
    the canonically first component or buyer.  A component whose goods are
    active loses their price sum times the multiplier minus one; one that
    is inactive or has no goods keeps its surplus, and counts as a price
    sum of 0 in the same barrier formula.  Every event's multiplier is at
    least one, and the copy's
    :meth:`~arcticauction.graph.MarketState.scale_prices` refuses one
    below it.  Runs for at most ``n + |B|`` iterations.  The root must
    hold a buyer and a good: a singleton's surplus does not move with
    prices, and its callers read it directly.  Returns the private state
    and the iteration count.
    """
    if root_component.is_singleton():
        raise SolverError(
            f"cannot raise prices on singleton {component_key(inst, root_component)}"
        )
    n = len(inst.buyers) + len(inst.goods)
    state = MarketState(
        inst,
        prices=market.prices,
        spending=market.spending,
        refunds=market.refunds,
    )
    prices = state.prices
    abundant = {e for comp in components for e in comp.edges}
    roots = root_component.nodes()
    barrier_scale = Q(2 * n * n)

    max_iterations = n + len(inst.buyers)
    iterations = 0
    while True:
        root_surplus = root_component.surplus(state)
        if root_surplus <= target:
            break
        barrier = -root_surplus / barrier_scale
        surpluses = [comp.surplus(state) for comp in components]
        if any(value <= barrier for value in surpluses):
            break
        if iterations >= max_iterations:
            raise SolverError("price raising exceeded its iteration bound")
        iterations += 1

        view = state.bang_per_buck
        tree = SearchTree(inst, state, roots, abundant)
        active_buyer_set = set(tree.buyers)
        for comp in components:
            for side, active in (
                (comp.goods, tree.good_set),
                (comp.buyers, active_buyer_set),
            ):
                if len({node in active for node in side}) > 1:
                    raise SolverError("component partially active")

        root_goods_price = sum((prices[g] for g in root_component.goods), ZERO)
        root_budget = root_surplus + root_goods_price

        # each candidate is (multiplier, kind, subject), appended in event
        # order, each kind in canonical order: the first smallest wins, so a
        # tie goes to the earlier kind, then to the canonically first subject
        candidates: list[tuple[Fraction, str, object]] = []
        # new equality edge: active buyer toward an inactive good; the
        # smallest such multiplier is at least 1, and ties go to the
        # canonically first edge
        event = edge_event(inst, view, tree.buyers, tree.good_set)
        if event is not None:
            num, den, e = event
            candidates.append((Q(num, den), "edge", e))
        # root surplus reaches the target
        candidates.append(((root_budget - target) / root_goods_price, "target", None))
        # some component reaches the barrier
        for comp, comp_surplus in zip(components, surpluses):
            comp_price = ZERO
            if comp.goods and comp.goods[0] in tree.good_set:
                comp_price = sum((prices[g] for g in comp.goods), ZERO)
            q = (comp_surplus + comp_price + root_budget / barrier_scale) / (
                comp_price + root_goods_price / barrier_scale
            )
            if q >= 1:
                candidates.append((q, "barrier", comp))
        # an active buyer with positive cash turns critical
        for b in tree.buyers:
            if view.signs[b] >= 0 and state.effective_cash(b) > 0:
                candidates.append((reduced(*view.best_pair(b)), "critical", b))

        q, kind, subject = min(candidates, key=lambda c: c[0])
        state.scale_prices(tree.good_set, q)

        if kind == "critical":
            b = subject
            root_surplus = root_component.surplus(state)
            if b in root_component.buyers:
                slack = root_surplus - target
            else:
                container = next(c for c in components if b in c.buyers)
                slack = container.surplus(state) + root_surplus / barrier_scale
            state.add_refund(b, min(state.effective_cash(b), slack))

    return state, iterations


def get_parameter(
    inst: MarketInstance,
    market: MarketState,
    components: list[Component],
    trace: PhaseTrace,
) -> tuple[Fraction, dict[str, Fraction]]:
    """Next scale: the largest component surplus reachable by price raising.

    Singleton buyers contribute their cash while still interested (bang-
    per-buck above one) and zero afterwards; a singleton good contributes
    its surplus, minus its price, which no price raise moves; every other
    component runs the price raiser at target zero and contributes the
    surplus it stops at.  Each run's iteration count goes to the trace.
    """
    per_component: dict[str, Fraction] = {}
    signs = market.bang_per_buck.signs
    for comp in components:
        if not comp.is_singleton():
            state, iterations = special_price(inst, market, components, comp, ZERO)
            trace.special_price_iterations.append(iterations)
            value = comp.surplus(state)
        elif comp.goods:
            value = comp.surplus(market)
        else:
            b = comp.buyers[0]
            value = market.effective_cash(b) if signs[b] > 0 else ZERO
        per_component[component_key(inst, comp)] = value
    return max(per_component.values()), per_component


def get_prices(
    inst: MarketInstance,
    market: MarketState,
    components: list[Component],
    new_delta: Fraction,
    trace: PhaseTrace,
) -> tuple[list[Fraction], list[Fraction], dict[str, Fraction]]:
    """Coordinatewise maxima of the per-component price-raising runs.

    Components already at surplus ``new_delta`` or below (and singletons)
    stay at the baseline.  Returns the merged prices (by good) and refunds
    (by buyer) plus each run's own root surplus, by component key, for
    invariant checking.
    """
    states: list[MarketState] = []
    run_surplus: dict[str, Fraction] = {}
    for comp in components:
        if comp.is_singleton() or comp.surplus(market) <= new_delta:
            state = market
        else:
            state, iterations = special_price(inst, market, components, comp, new_delta)
            trace.special_price_iterations.append(iterations)
        states.append(state)
        run_surplus[component_key(inst, comp)] = comp.surplus(state)
    merged_prices = [max(prices) for prices in zip(*(s.prices for s in states))]
    merged_refunds = [max(refunds) for refunds in zip(*(s.refunds for s in states))]
    return merged_prices, merged_refunds, run_surplus


def get_allocations(
    inst: MarketInstance,
    new_prices: list[Fraction],
    new_refunds: list[Fraction],
    components: list[Component],
) -> dict[Edge, Fraction]:
    """Rebuild spending as the unique tree flow on the abundant forest.

    Within each non-singleton component (which has both buyers and goods)
    the first buyer keeps the positive part of the component surplus as
    cash and the first good absorbs the negative part as backorder;
    everyone else is exactly balanced.  A negative tree flow means the
    restart invariants failed upstream.
    """
    spending: dict[Edge, Fraction] = {}
    for comp in components:
        if comp.is_singleton():
            continue
        supply = {b: inst.budget[b] - new_refunds[b] for b in comp.buyers}
        demand = {g: new_prices[g] for g in comp.goods}
        tau = sum(supply.values(), ZERO) - sum(demand.values(), ZERO)
        supply[comp.buyers[0]] -= max(ZERO, tau)
        demand[comp.goods[0]] += min(ZERO, tau)
        for edge, value in solve_tree_flow(inst, comp, supply, demand).items():
            if value < 0:
                raise SolverError(f"negative tree flow on {inst.edge_names[edge]}")
            if value != 0:
                spending[edge] = value
    return spending


def make_fertile(
    inst: MarketInstance,
    market: MarketState,
    components: list[Component],
    trace: PhaseTrace,
) -> tuple[MarketState, RestartRecord]:
    """Restart step of the trace's open phase, run on an optimal,
    non-fertile state; returns the state to go on with and the restart's
    record, which names that phase.

    If the next scale is still large relative to the current one, keep
    ``market`` and just lower the threshold (a new abundant edge is then
    due within a logarithmic number of phases); the caller halves as at
    the end of any other phase.  Otherwise jump to the small scale:
    rebuild prices, refunds, and a tree-flow allocation, check the restart
    invariants, and install the rebuilt state, with the initial prices of
    ``market`` and its backorders allowed as deficits, counting in units
    of the small scale.  Its spending is the one place where amounts that
    are not whole units of the scale enter a run: each is a fixed part of
    the rebuilt state, and the steps from then on move whole units only
    (see :class:`~arcticauction.graph.MarketState`).  The installed state's
    deficits are then repaired, each repair booked as a step of the open
    phase, and it must be delta-feasible; the caller opens the next phase
    on it.  Either way the decision is booked in the trace.
    """
    n = len(inst.buyers) + len(inst.goods)
    delta = market.unit
    new_scale, surpluses = get_parameter(inst, market, components, trace)
    # A zero scale can happen while the support is still unresolved: critical
    # buyers' commitments can absorb every component surplus entirely.  A
    # jump to scale zero is meaningless, so keep halving under a lowered
    # threshold instead; the termination test ends the run once the abundant
    # support pins the equilibrium.
    if new_scale > delta / (n * n) or new_scale <= 0:
        branch, new_scale = "delayed", delta
    else:
        branch = "compressed"
        new_prices, new_refunds, surpluses = get_prices(
            inst, market, components, new_scale, trace
        )
        spending = get_allocations(inst, new_prices, new_refunds, components)
        state = MarketState(inst, new_prices, spending, new_refunds)
        _assert_restart_invariants(inst, market, components, state, new_scale, surpluses)
        state.initial_prices = market.initial_prices
        for g in range(len(inst.goods)):
            backorder = state.backorder(g)
            if backorder < 0:
                state.allowed_deficit[g] = -backorder
        state.rescale(new_scale)
        market = state
        _repair_deficits(inst, market, components, trace)
        ok, violations = is_delta_feasible(inst, market)
        if not ok:
            raise SolverError(f"restarted state infeasible: {violations}")
    record = RestartRecord(
        phase=trace.phases[-1].index,
        branch=branch,
        delta_before=delta,
        delta_after=new_scale,
        threshold=new_scale / n**5,
        surpluses=surpluses,
    )
    trace.restarts.append(record)
    return market, record


def _assert_restart_invariants(
    inst: MarketInstance,
    market: MarketState,
    components: list[Component],
    state: MarketState,
    new_scale: Fraction,
    run_surplus: dict[str, Fraction],
) -> None:
    """Promised restart guarantees, checked on the rebuilt ``state`` before
    it replaces ``market``.

    The surplus floor ``-delta' / n^2`` holds for every component with a
    buyer; a singleton good's surplus is just the negative of its price,
    which no price-raising run can lift, so those are exempt (their
    backorder is likewise carried as an explicit allowance until repaired).
    Every edge of the old abundant forest keeps spending above
    ``3 n delta'``.
    """
    n = len(inst.buyers) + len(inst.goods)
    floor = -new_scale / (n * n)
    for comp in components:
        if not comp.buyers:
            continue
        value = comp.surplus(state)
        if value < floor:
            raise SolverError(
                f"restart surplus {value} below {floor}"
                f" at {component_key(inst, comp)}"
            )
    for comp in components:
        if comp.is_singleton():
            continue
        expected = min(comp.surplus(market), new_scale)
        got = run_surplus[component_key(inst, comp)]
        if got != expected:
            raise SolverError(
                f"run surplus {got} != min(old surplus, new scale) {expected}"
                f" at {component_key(inst, comp)}"
            )
    threshold = 3 * n * new_scale
    spending = state.spending
    for comp in components:
        for edge in comp.edges:
            if spending.get(edge, ZERO) <= threshold:
                raise SolverError(
                    f"old abundant edge {inst.edge_names[edge]}"
                    f" not kept above {threshold}"
                )


def _repair_deficits(
    inst: MarketInstance,
    market: MarketState,
    components: list[Component],
    trace: PhaseTrace,
) -> None:
    """One augmentation per negative-backorder good of the state a
    compressed restart installed, booked as a ``restart_repair`` step of
    the trace's open phase, the restart's (:func:`make_fertile` calls it).

    ``components`` is the restart's abundant forest.  The installed state
    spends only on its edges, each above ``3 n delta``, so it is the
    installed state's abundant forest too.  The buyers that can reach a
    deficit good are found by one search from the good over the reversed
    residual arcs; the canonically smallest of them holding at least
    ``delta`` of cash, preferring buyers inside the good's component,
    sends one unit along the path of a search from it.  Goods no buyer can
    reach yet stay flagged and are repaired by the ordinary steps once the
    graph connects to them.
    """
    n_buyers = len(inst.buyers)
    comp_of_good = {g: comp for comp in components for g in comp.goods}
    deficits = [g for g in range(len(inst.goods)) if market.backorder_pair(g)[0] < 0]
    for g in deficits:
        forward, backward = market.bang_per_buck.edges, market.returnable
        target = n_buyers + g
        sources = [
            node
            for node in reach(inst, [target], backward, forward)
            if node < n_buyers and market.cash_terms[node] >= 1
        ]
        if not sources:
            continue
        root = min(sources, key=lambda b: (b not in comp_of_good[g].buyers, b))
        phi_before = potential(inst, market)
        _augment(inst, market, reach(inst, [root], forward, backward), target)
        record_step(inst, market, trace, "restart_repair", inst.goods[g], phi_before)
        market.allowed_deficit.pop(g, None)


def _termination_candidate(
    inst: MarketInstance, market: MarketState, forest: Forest, solved: dict
) -> MarketState | None:
    """Basic solution of the abundant support, given as its ``forest``, if
    it certifies as an equilibrium of the compressed instance.

    The effective budgets are read off ``market``, each buyer's budget as
    it is while she holds no refund.  ``solved`` is the run's dict of the
    component solutions of the last test that solved any: one
    :func:`~arcticauction.basic.basic_solution` call reuses those whose
    edges and effective budgets are unchanged, solves the others, and
    leaves the dict holding this forest's components only.  The candidate
    it builds is certified in full by
    :func:`~arcticauction.oracle.certify_state` either way.
    """
    effective = [market.effective_budget(b) for b in range(len(inst.buyers))]
    try:
        candidate = basic_solution(inst, forest, effective, solved)
    except SupportError:
        return None
    if not certify_state(inst, candidate, effective).ok:
        return None
    return candidate


def _note_abundant(inst: MarketInstance, trace: PhaseTrace, edges: set[Edge]) -> None:
    """Record newly discovered abundant edges as progress events of the
    open phase, sorted by (buyer id, good id)."""
    found = edges - trace.abundant_discovered
    phase = trace.phases[-1].index
    for edge in sorted(inst.edge_names[e] for e in found):
        trace.progress_events.append((phase, "abundant_edge", str(edge)))
    trace.abundant_discovered |= found


def phase_budget(n: int) -> int:
    """Watchdog: generous multiple of the proven phase bound."""
    return math.ceil(20 * n * (5 * math.log2(max(n, 2)) + 10))


def run_strong(inst: MarketInstance) -> tuple[Equilibrium, PhaseTrace]:
    """Run the committed-refund algorithm to a certified equilibrium.

    Each phase runs the inner steps to an optimal state, then the
    termination test on its abundant forest.  If that fails, the phase
    ends in a restart when the scale is at the threshold and no component
    is fertile, and in a halving otherwise.  A compressed restart installs
    its own state, and the next phase opens on it with entry ``restart``;
    a delayed restart only lowers the threshold, and its phase halves as
    well.

    The forest is a function of the abundant edge set alone, so a phase
    whose set equals the last phase's reuses that phase's forest; no step
    mutates a component.  The termination test still calls
    :func:`~arcticauction.basic.basic_solution` once per phase, but that
    call reuses the component solutions of the last test that solved
    any, keyed by each component's edges and its buyers' effective
    budgets, and solves only the components that moved.  The run keeps
    one forest's solutions at a time, and none outlives the run.

    The returned refunds combine the committed refunds accumulated along
    the way with the refunds of the final basic solution; the result is
    certified from scratch against the original instance, with its
    original budgets, before returning.
    """
    stats = inst.stats
    n = stats.n
    market = initialize(inst)
    threshold = market.unit
    trace = PhaseTrace(algorithm="strong", edge_names=inst.edge_names)
    budget = phase_budget(n)
    singleton_crossed: set[int] = set()
    # the last phase's abundant set and its forest, kept while the set stays
    forest_edges: set[Edge] | None = None
    # the component solutions of the last termination test that solved any
    solved: dict = {}

    entry = "init"
    while trace.phase_count <= budget:
        mark = start_phase(inst, market, stats, trace, entry)
        _note_abundant(inst, trace, mark.abundant_start)
        run_inner_loop(inst, market, trace)
        if entry != "restart":
            check_phase_invariants(inst, n, market)

        abundant = abundant_edges(market, n)
        _note_abundant(inst, trace, abundant)
        if abundant != forest_edges:
            forest_edges, forest = abundant, components_of_edges(inst, abundant)
        components = forest.components
        signs = market.bang_per_buck.signs
        for comp in components:
            if comp.is_singleton() and comp.buyers:
                b = comp.buyers[0]
                if b not in singleton_crossed and signs[b] <= 0:
                    singleton_crossed.add(b)
                    trace.progress_events.append(
                        (mark.index, "buyer_uninterested", inst.buyers[b])
                    )

        candidate = _termination_candidate(inst, market, forest, solved)
        if candidate is not None:
            total_refunds = [
                a + b for a, b in zip(candidate.refunds, market.refunds)
            ]
            final = MarketState(
                inst, candidate.prices, candidate.spending, total_refunds
            )
            certificate = certify_state(inst, final)
            if not certificate.ok:
                raise SolverError(
                    "final state fails certification: "
                    + ", ".join(certificate.failed())
                )
            return Equilibrium.from_state(inst, final, certificate), trace

        entry = "halve"
        if market.unit <= threshold and not has_fertile_component(inst, market, components):
            market, record = make_fertile(inst, market, components, trace)
            threshold = record.threshold
            if record.branch == "compressed":
                entry = "restart"
        if entry == "halve":
            halve_and_repair(inst, market)

    raise SolverError(
        f"phase budget {budget} exceeded; an analysis assumption is violated"
    )
