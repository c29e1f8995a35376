"""Independent verification: certification, brute force, genericity checks.

The checks share three things with the scaling solvers: the basic tree
solve, the forest walker (``graph.components_of_edges``) and the state's
bang-per-buck view (``graph.bang_per_buck_view``), the one place
bang-per-buck and the equality graph are computed; the checks read its
equality edges and each buyer's sign against one, and normalize a best
ratio only to report it.  The genericity check reads the solver's live
view, and walks the graph again only after the view's rows or signs
changed; the certifier builds a
:class:`~arcticauction.graph.MarketState` of its own, whose first view
call computes every ratio afresh from the prices it is given.  So a
certified answer is checked against the market definition rather than
against the steps of the algorithm that produced it.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from arcticauction.basic import SupportError, basic_solution
from arcticauction.core import MarketInstance, compute_stats
from arcticauction.errors import GenericityError
from arcticauction.graph import (
    Edge,
    MarketState,
    bang_per_buck_view,
    component_key,
    components_of_edges,
)
from arcticauction.rational import ZERO, reduced

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
    """Certified output: prices, spending, refunds, derived quantities."""

    prices: dict[str, Fraction]
    spending: dict[Edge, Fraction]
    refunds: dict[str, Fraction]
    quantities: dict[Edge, Fraction]
    certificate: Certificate

    @classmethod
    def from_state(
        cls, inst: MarketInstance, state: MarketState, certificate: Certificate
    ) -> "Equilibrium":
        quantities = {e: v / state.prices[e[1]] for e, v in state.spending.items()}
        refunds = {b: state.refunds.get(b, ZERO) for b in inst.buyers}
        return cls(
            prices=dict(state.prices),
            spending=dict(state.spending),
            refunds=refunds,
            quantities=quantities,
            certificate=certificate,
        )


def check_equilibrium(
    inst: MarketInstance,
    prices: dict[str, Fraction],
    spending: dict[Edge, Fraction],
    refunds: dict[str, Fraction],
    budgets: dict[str, Fraction] | None = None,
) -> Certificate:
    """Check the equilibrium conditions exactly; failures become entries.

    ``budgets`` overrides the instance budgets when certifying against a
    compressed instance (budgets reduced by committed refunds).  Besides
    the definitional conditions (budgets exhausted, goods cleared, spending
    on best bang-per-buck edges, refund complementarity) this also checks
    buyer optimality -- no spending below bang-per-buck one -- which rules
    out spurious fixed points the four literal conditions admit.

    Raises :class:`ValueError` when a good lacks a positive price or a
    spending entry names an unknown buyer: such a triple is no candidate.
    """
    eff = dict(inst.budgets) if budgets is None else budgets
    for g in inst.goods:
        if prices.get(g, ZERO) <= 0:
            raise ValueError(f"non-positive price for good {g}")
    for b, _ in spending:
        if b not in inst.buyer_pos:
            raise ValueError(f"spending by unknown buyer {b}")

    conditions: list[Condition] = []
    state = MarketState(prices=prices, spending=spending, refunds=refunds)

    refund_ok = Condition("refunds_nonnegative")
    cash_ok = Condition("budgets_exhausted")
    for b in inst.buyers:
        r = refunds.get(b, ZERO)
        if r < 0:
            refund_ok.violations.append(f"buyer {b}: refund {r}")
        cash = eff[b] - r - state.spent_by(b)
        if cash != 0:
            cash_ok.violations.append(f"buyer {b}: leftover cash {cash}")
    conditions.append(refund_ok)
    conditions.append(cash_ok)

    clearing = Condition("market_clearing")
    for g in inst.goods:
        backorder = state.backorder(g)
        if backorder != 0:
            clearing.violations.append(f"good {g}: backorder {backorder}")
    conditions.append(clearing)

    view = bang_per_buck_view(inst, state)
    support = Condition("spending_on_equality_edges")
    optimality = Condition("buyer_optimality")
    for edge, value in spending.items():
        if value < 0:
            support.violations.append(f"edge {edge}: negative spending {value}")
        if value > 0 and edge not in view.edges:
            support.violations.append(f"edge {edge}: spending off equality graph")
        if value > 0 and view.signs[edge[0]] < 0:
            optimality.violations.append(
                f"edge {edge}: spending at bang-per-buck below one"
            )
    conditions.append(support)

    complementarity = Condition("refund_complementarity")
    for b in inst.buyers:
        r = refunds.get(b, ZERO)
        if r > 0 and view.signs[b] > 0:
            complementarity.violations.append(
                f"buyer {b}: refund {r} with bang-per-buck"
                f" {reduced(*view.best_pair(b))} > 1"
            )
    conditions.append(complementarity)
    conditions.append(optimality)

    return Certificate(conditions=conditions)


def certify_state(inst: MarketInstance, state: MarketState) -> Certificate:
    return check_equilibrium(inst, state.prices, state.spending, state.refunds)


def brute_force_equilibrium(inst: MarketInstance) -> Equilibrium:
    """Find the equilibrium by trying every support, by size then
    lexicographic order.

    The tree solve rejects cyclic supports, so only cycle-free ones can
    pass.  Guarded to small instances (the candidate count is exponential
    in the edge count).  On a generic instance exactly one support passes;
    zero or several passing supports mean the instance is degenerate and a
    fresh perturbation is needed.
    """
    stats = compute_stats(inst)
    if stats.m > BRUTE_FORCE_MAX_EDGES or stats.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(
            f"instance too large for enumeration: n={stats.n}, m={stats.m}"
        )
    edges = inst.edges()
    passing: list[tuple[set[Edge], MarketState, Certificate]] = []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(edges, size) for size in range(len(edges) + 1)
    )
    for subset in subsets:
        try:
            state = basic_solution(inst, components_of_edges(inst, set(subset)))
        except (SupportError, GenericityError):
            continue
        cert = certify_state(inst, state)
        if cert.ok:
            passing.append((set(subset), state, cert))
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
    same report out again while the state's equality graph stands still."""

    is_forest: bool
    offending_cycle: tuple[Edge, ...] | None
    critical_buyers_per_component: Mapping[str, int]

    @property
    def ok(self) -> bool:
        return self.is_forest and all(
            c <= 1 for c in self.critical_buyers_per_component.values()
        )


_GENERICITY = "genericity"


def check_genericity(inst: MarketInstance, state: MarketState) -> GenericityReport:
    """Verify the equality graph at the state's prices is a forest with at
    most one critical buyer per connected component.

    The report reads only the equality edges and the buyers' signs, so
    while the ``version`` of the state's bang-per-buck view is the one the
    state's last report was made at, that report is returned again; a new
    state, or any change of a buyer's row or sign, walks the graph anew.
    """
    view = bang_per_buck_view(inst, state)
    last = state.views.get(_GENERICITY)
    if last is not None and last[0] == view.version:
        return last[1]
    components, cycle = components_of_edges(inst, view.edges)
    critical: dict[str, int] = {}
    for comp in components:
        count = sum(1 for b in comp.buyers if view.signs[b] == 0)
        if count:
            critical[component_key(comp)] = count
    report = GenericityReport(
        is_forest=cycle is None,
        offending_cycle=None if cycle is None else tuple(cycle),
        critical_buyers_per_component=MappingProxyType(critical),
    )
    state.views[_GENERICITY] = (view.version, report)
    return report
