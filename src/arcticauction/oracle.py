"""Independent verification: certification, brute force, genericity checks.

The checks share three things with the scaling solvers: the basic tree
solve, the forest walker (``graph.components_of_edges``) and the state's
bang-per-buck view (``MarketState.bang_per_buck``), the one place
bang-per-buck and the equality graph are computed; the checks read its
equality edges and each buyer's sign against one, and normalize a best
ratio only to report it.  The genericity check reads the solver's live
view, and walks the graph again only after a price raise changed a row
or a sign.  The certifier checks a
:class:`~arcticauction.graph.MarketState` on the dense index
(:func:`certify_state`, which the solvers call), or prices, spending and
refunds keyed by id strings (:func:`check_equilibrium`, which ``verify``
calls); either way it reads the equality graph off a new state of its
own, whose first read of the view computes every ratio afresh from the
prices it is given.  So a certified answer is checked against the market
definition rather than against the steps of the algorithm that produced
it.  :class:`Equilibrium`, the certificate and the genericity report
name buyers, goods and edges by their id strings.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from arcticauction.basic import SupportError, basic_solution
from arcticauction.core import MarketInstance
from arcticauction.errors import GenericityError
from arcticauction.graph import (
    MarketState,
    component_key,
    components_of_edges,
)
from arcticauction.rational import ZERO, as_q, reduced

Edge = tuple[str, str]  # (buyer id, good id)

BRUTE_FORCE_MAX_EDGES = 12
BRUTE_FORCE_MAX_NODES = 8


@dataclass
class Condition:
    """One checked equilibrium condition with its violations; it holds
    when there are none."""

    name: str
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class Certificate:
    """Outcome of checking every equilibrium condition exactly."""

    conditions: list[Condition]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    def failed(self) -> list[str]:
        return [c.name for c in self.conditions if not c.ok]


@dataclass
class Equilibrium:
    """Certified output: prices, spending, refunds, derived quantities,
    keyed by id strings; spending and quantities come in canonical edge
    order (by edge id), the order of the state's spending."""

    prices: dict[str, Fraction]
    spending: dict[Edge, Fraction]
    refunds: dict[str, Fraction]
    quantities: dict[Edge, Fraction]
    certificate: Certificate

    @classmethod
    def from_state(
        cls, inst: MarketInstance, state: MarketState, certificate: Certificate
    ) -> "Equilibrium":
        names, edge_good = inst.edge_names, inst.edge_good
        spending = state.spending.items()
        return cls(
            prices=dict(zip(inst.goods, state.prices)),
            spending={names[e]: v for e, v in spending},
            refunds=dict(zip(inst.buyers, state.refunds)),
            quantities={names[e]: v / state.prices[edge_good[e]] for e, v in spending},
            certificate=certificate,
        )


def certify_state(
    inst: MarketInstance, state: MarketState, budgets: list[Fraction] | None = None
) -> Certificate:
    """Check the equilibrium conditions of a state exactly; failures
    become entries.

    ``budgets`` (a list by buyer) overrides the instance budgets when
    certifying against a compressed instance (budgets reduced by committed
    refunds).  Besides the definitional conditions (budgets exhausted,
    goods cleared, spending on best bang-per-buck edges, refund
    complementarity) this also checks buyer optimality -- no spending
    below bang-per-buck one -- which rules out spurious fixed points the
    four literal conditions admit.  The equality graph is that of a new
    state holding only the prices, so it is computed afresh from them.
    Spending is reported in edge id order.  A buyer's leftover cash and a
    good's backorder are compared first, and subtracted only to report a
    nonzero difference.
    """
    budget = inst.budget if budgets is None else budgets
    refunds, prices = state.refunds, state.prices
    names, edge_buyer = inst.edge_names, inst.edge_buyer
    return _certificate(
        inst,
        prices,
        refunds,
        [_difference(budget[b] - r, state.spent_by(b)) for b, r in enumerate(refunds)],
        [_difference(state.inflow(g), p) for g, p in enumerate(prices)],
        [(names[e], e, edge_buyer[e], v) for e, v in state.spending.items()],
    )


def _difference(a: Fraction, b: Fraction) -> Fraction:
    """``a - b``, with no arithmetic when they are equal."""
    return ZERO if a == b else a - b


def check_equilibrium(
    inst: MarketInstance,
    prices: dict[str, Fraction],
    spending: dict[Edge, Fraction],
    refunds: dict[str, Fraction],
) -> Certificate:
    """The checks of :func:`certify_state` on prices, spending and refunds
    keyed by id strings, as a result document gives them.

    Spending may name a pair of a known buyer and a known good that the
    instance has no utility for, which counts like any spending and is
    never on the equality graph.  Raises :class:`ValueError` when prices or
    spending name an unknown good, refunds or spending an unknown buyer, or
    a good lacks a positive price: such a triple is no candidate.  Values
    may be ints or ``Fraction``; each is read as a ``Q`` once.
    """
    buyer_pos, good_pos, edge_id = inst.buyer_pos, inst.good_pos, inst.edge_id
    for g in [*prices, *(g for _, g in spending)]:
        if g not in good_pos:
            raise ValueError(f"unknown good {g}")
    for b in refunds:
        if b not in buyer_pos:
            raise ValueError(f"unknown buyer {b}")
    for g in inst.goods:
        if prices.get(g, ZERO) <= 0:
            raise ValueError(f"non-positive price for good {g}")
    for b, _ in spending:
        if b not in buyer_pos:
            raise ValueError(f"spending by unknown buyer {b}")

    price_list = [as_q(prices[g]) for g in inst.goods]
    refund_list = [as_q(refunds.get(b, ZERO)) for b in inst.buyers]
    cash = [inst.budget[k] - r for k, r in enumerate(refund_list)]
    backorders = [-p for p in price_list]
    entries = []
    for edge, value in spending.items():
        b, g = edge
        k = buyer_pos[b]
        value = as_q(value)
        cash[k] -= value
        backorders[good_pos[g]] += value
        entries.append((edge, edge_id.get(edge), k, value))
    return _certificate(inst, price_list, refund_list, cash, backorders, entries)


def _certificate(
    inst: MarketInstance,
    prices: list[Fraction],
    refunds: list[Fraction],
    cash: list[Fraction],
    backorders: list[Fraction],
    spending: list[tuple[Edge, int | None, int, Fraction]],
) -> Certificate:
    """The certificate of a candidate given by index: prices by good,
    refunds and leftover cash by buyer, backorders by good, and each
    spending entry as (names, edge id or None, buyer, value).  Every
    value is a ``Fraction`` (a ``Q``), so its sign is its numerator's."""
    refund_ok = Condition("refunds_nonnegative")
    cash_ok = Condition("budgets_exhausted")
    for b, r, left in zip(inst.buyers, refunds, cash):
        if r._numerator < 0:
            refund_ok.violations.append(f"buyer {b}: refund {r}")
        if left._numerator:
            cash_ok.violations.append(f"buyer {b}: leftover cash {left}")

    clearing = Condition("market_clearing")
    for g, backorder in zip(inst.goods, backorders):
        if backorder._numerator:
            clearing.violations.append(f"good {g}: backorder {backorder}")

    view = MarketState(inst, prices).bang_per_buck
    support = Condition("spending_on_equality_edges")
    optimality = Condition("buyer_optimality")
    for edge, e, b, value in spending:
        sign = value._numerator
        if sign < 0:
            support.violations.append(f"edge {edge}: negative spending {value}")
        if sign > 0 and e not in view.edges:
            support.violations.append(f"edge {edge}: spending off equality graph")
        if sign > 0 and view.signs[b] < 0:
            optimality.violations.append(
                f"edge {edge}: spending at bang-per-buck below one"
            )

    complementarity = Condition("refund_complementarity")
    for k, (b, r) in enumerate(zip(inst.buyers, refunds)):
        if r._numerator > 0 and view.signs[k] > 0:
            complementarity.violations.append(
                f"buyer {b}: refund {r} with bang-per-buck"
                f" {reduced(*view.best_pair(k))} > 1"
            )

    return Certificate(
        conditions=[refund_ok, cash_ok, clearing, support, complementarity, optimality]
    )


def brute_force_equilibrium(inst: MarketInstance) -> Equilibrium:
    """Find the equilibrium by trying every support, by size then
    lexicographic order.

    The tree solve rejects cyclic supports, so only cycle-free ones can
    pass.  Guarded to small instances (the candidate count is exponential
    in the edge count).  On a generic instance exactly one support passes;
    zero or several passing supports mean the instance is degenerate and a
    fresh perturbation is needed.
    """
    stats = inst.stats
    if stats.m > BRUTE_FORCE_MAX_EDGES or stats.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"instance too large for enumeration: n={stats.n}, m={stats.m}"
        )
    edges = range(len(inst.edge_names))
    passing: list[tuple[tuple[int, ...], MarketState, Certificate]] = []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(edges, size) for size in range(len(edges) + 1)
    )
    for subset in subsets:
        try:
            state = basic_solution(inst, components_of_edges(inst, subset))
        except (SupportError, GenericityError):
            continue
        cert = certify_state(inst, state)
        if cert.ok:
            passing.append((subset, state, cert))
    if len(passing) != 1:
        raise GenericityError(
            f"{len(passing)} supports pass the equilibrium check;"
            " expected exactly one on a generic instance"
        )
    _, state, cert = passing[0]
    return Equilibrium.from_state(inst, state, cert)


@dataclass(frozen=True)
class GenericityReport:
    """Result of checking the two generic-position properties at a price
    vector.  It is immutable, because :func:`check_genericity` hands the
    same report out again until a price raise changes a row or a sign."""

    is_forest: bool
    offending_cycle: tuple[Edge, ...] | None
    critical_buyers_per_component: Mapping[str, int]

    @property
    def ok(self) -> bool:
        return self.is_forest and all(
            c <= 1 for c in self.critical_buyers_per_component.values()
        )


def check_genericity(inst: MarketInstance, state: MarketState) -> GenericityReport:
    """Verify the equality graph at the state's prices is a forest with at
    most one critical buyer per connected component.

    The report reads only the equality edges and the buyers' signs, so it
    is kept on the state (``state.genericity``) and returned again while
    it is set; a price raise that changes a buyer's row or sign drops it
    (:meth:`~arcticauction.graph.MarketState.scale_prices`), and a new
    state has none, so either walks the graph anew.
    """
    if state.genericity is not None:
        return state.genericity
    view = state.bang_per_buck
    components, cycle = components_of_edges(inst, view.edges)
    critical: dict[str, int] = {}
    for comp in components:
        count = sum(1 for b in comp.buyers if view.signs[b] == 0)
        if count:
            critical[component_key(inst, comp)] = count
    report = GenericityReport(
        is_forest=cycle is None,
        offending_cycle=(
            None if cycle is None else tuple(inst.edge_names[e] for e in cycle)
        ),
        critical_buyers_per_component=MappingProxyType(critical),
    )
    state.genericity = report
    return report
