"""The market state, bang-per-buck, equality graph, residual reachability,
and the forest walker.

Everything here runs on the instance's dense index
(:class:`~arcticauction.core.MarketInstance`): buyer ``i``, good ``j`` and
edge ``e`` are ints in document order, with edge ids in canonical (buyer,
good) order.  A node of the bipartite market graph is an int too: buyer
``i`` is node ``i`` and good ``j`` is node ``B + j``, where ``B`` is the
number of buyers, so sorting nodes sorts them canonically (buyers, then
goods).  Id strings appear only where a caller names something for
output (:func:`component_key`).

The free functions on edge sets are pure.  Bang-per-buck and the equality
graph come from one place, the state's view
(:attr:`MarketState.bang_per_buck`): a state builds it on the first read
and from then on updates it in place at each price scaling.  The solvers,
the genericity check and the certifier all read it.

Inside the view a ratio ``u / p`` is the unnormalized integer pair
``(u.numerator * p.denominator, u.denominator * p.numerator)``; prices
are positive, so the second entry is, and two ratios compare by
cross-multiplication, with no gcd and no object per ratio.  A buyer's
best pair is the ratio of the first edge of her row (her equality edges),
and the view keeps its sign against one: the equilibrium conditions and
the steps' tests compare bang-per-buck only with one, so only a caller
that needs the value itself (the restart's price raise, a report)
normalizes the best pair to a ``Q``, by one gcd.  The solvers' price
raise multiplies a whole set of goods by one factor above one, which
divides every ratio into the set by that factor and keeps their order:
after one such scaling a buyer with no row edge into the set keeps her
row, a row partly inside it only drops those edges, and a row wholly
inside it keeps its edges and is compared only with the buyer's edges
to other goods, which may tie or pass its lowered best and then rescan
her.  A factor of one changes nothing, and one below one rebuilds the
view.  The price raise's edge event (:func:`edge_event`) reads the same
pairs.  The residual search (:func:`reach`) builds no graph of its own:
it walks the instance's adjacency and keeps the arcs whose edges lie in
the sets the caller passes.  The spending thresholds (:func:`abundant_edges`, and
:func:`~arcticauction.basic.recover_support`) count in the state's own
scale and read its counts and fixed parts, not its rational spending.
Every traversal runs in canonical (document) order, which makes the
solvers deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from arcticauction.core import MarketInstance
from arcticauction.rational import ZERO

Node = int  # buyer i, or good j as B + j
Edge = int  # an edge id of the instance

class Changes:
    """What the mutators touched since the last passing feasibility check:
    the buyers whose amounts changed, the goods whose inflow changed, the
    edges whose spending changed and the goods whose price changed, one set
    of ids each, and whether a rescale by a whole factor happened
    meanwhile."""

    __slots__ = ("buyers", "goods", "edges", "prices", "rescaled")

    def __init__(self) -> None:
        self.buyers: set[int] = set()
        self.goods: set[int] = set()
        self.edges: set[int] = set()
        self.prices: set[int] = set()
        self.rescaled = False


class MarketState:
    """Evolving solver state: prices, sparse spending, refunds.

    ``prices`` is a list by good.  Each edge's spending and each buyer's
    refund is an ``int`` count of the scale ``unit`` plus a rational fixed
    part, with the counts and the fixed parts also summed per buyer
    (spending) and per good (inflow), in lists by buyer and by good.  A
    state built from amounts holds every amount as a fixed part, with no
    scale; :meth:`rescale` sets the scale, and the solvers' steps move
    whole units through :meth:`add_spending_units` and
    :meth:`add_refund_units`, so the fixed parts stay zero except for
    amounts set from rationals (the amounts a state is built from, and
    :meth:`add_refund`).  Halving the scale doubles every count.  The
    per-step tests compare counts and cross-multiply integer pairs
    (:meth:`spending_sign`, and the unnormalized pairs (numerator,
    positive denominator) of :meth:`inflow_pair` and
    :meth:`backorder_pair`) instead of building rationals.  The count and
    fixed containers are read-only outside the mutators; an edge is in
    ``edge_units`` or ``edge_fixed`` only while its spending is non-zero.

    Once the state has a scale it also keeps the potential's terms: every
    buyer's ``floor(effective cash / unit)`` in ``cash_terms`` (a list by
    buyer), their sum ``cash_total`` and the buyers whose term is positive
    (cash at least one unit) in ``holding``.  A term is the floor of the
    buyer's fixed parts over the unit minus the buyer's counts, and
    :meth:`add_spending_units` and :meth:`add_refund_units` move the cash
    by whole units, so they move the term by exactly the units they book,
    also when an edge empties and its fixed part, then a whole number of
    units, moves into the counts' place.  Only a new fixed refund
    (:meth:`add_refund`) or a new unit recomputes a term
    (:meth:`cash_term`).  All three are read-only outside the mutators.

    ``moved`` (a list by edge) holds each edge's net units booked by
    :meth:`add_spending_units` since the last :meth:`reset_moved`.  That
    mutator moves spending by whole units only, so while the unit stands
    still an edge's spending has changed by exactly ``moved[e] * unit``
    since then, also when the edge empties: its value then drops to zero
    by exactly the units booked.

    ``spending`` (by edge) and ``refunds`` (by buyer) are rational views
    built anew on each read, and ``bang_per_buck`` the state's
    :class:`BangPerBuckView`.  Mutate the state only through the mutators,
    which keep the state's own derived data current: every price scaling
    updates the bang-per-buck view in place once it has been read.

    The state is also the whole state of the scaling solvers, and ``unit``
    their scale ``delta``.  An edge's spending is a whole number of units
    plus the fixed part the state was built with: only construction sets a
    spending fixed part, :meth:`add_spending_units` books an int count, a
    rescale by a whole factor keeps counts whole, and :meth:`rescale`
    refuses any other factor while counts exist.  Only the strongly
    polynomial solver's compressed restart
    (:func:`~arcticauction.strong.make_fertile`) builds a state whose
    spending is not whole units of its scale.  ``initial_prices`` (a list
    by good) are the prices the state was built with, unless a solver sets
    them; the backorder bounds apply only to goods whose price has been
    raised above them.  ``allowed_deficit`` (by good) starts empty; only
    the compressed restart sets it, on the state it builds: flagged goods
    may hold a small negative backorder until one augmentation repairs
    them.  After that ``allowed_deficit`` changes only at a good a mutator
    touches (as the deficit repair does).

    ``returnable`` holds the edges whose spending can give one unit back,
    the good -> buyer arcs of the residual graph: the edges with at least
    one unit, which on an edge without a fixed part is any positive
    spending.  The mutators keep it: :meth:`add_spending_units` re-tests
    the one edge it moves, a rescale by a whole factor re-tests the edges
    with a fixed part, the only ones whose test reads the unit, and the
    first unit or a rescale by any other factor builds it afresh from all
    spending.  It is updated in place; copy it to keep a snapshot.

    ``changes`` is the feasibility check's dirty record (:class:`Changes`):
    each mutator adds what it touches, and a rescale by a whole factor sets
    its mark ``rescaled``.  None, which a state starts with and a rescale
    by any other factor sets, means that the next check sweeps everything.
    The check replaces the record after each pass
    (:func:`~arcticauction.weak.is_delta_feasible`) and keeps the
    bang-per-buck view's version of that pass in ``checked_version``.
    ``genericity`` holds the genericity check's last version and report
    (:func:`~arcticauction.oracle.check_genericity`).
    """

    def __init__(
        self,
        inst: MarketInstance,
        prices: list[Fraction],
        spending: dict[Edge, Fraction] | None = None,
        refunds: list[Fraction] | None = None,
    ) -> None:
        n_buyers, n_goods = len(inst.buyers), len(inst.goods)
        self._inst = inst
        self._budget = inst.budget
        self._edge_buyer = inst.edge_buyer
        self._edge_good = inst.edge_good
        self.prices = prices
        self.unit: Fraction | None = None
        self.edge_units: dict[Edge, int] = {}
        self.edge_fixed: dict[Edge, Fraction] = {}
        self.spent_units = [0] * n_buyers
        self.spent_fixed = [ZERO] * n_buyers
        self.inflow_units = [0] * n_goods
        self.inflow_fixed = [ZERO] * n_goods
        self.refund_units = [0] * n_buyers
        self.refund_fixed = [ZERO] * n_buyers if refunds is None else list(refunds)
        # the potential's terms, kept from the first rescale on
        self.cash_terms: list[int] = []
        self.cash_total = 0
        self.holding: set[int] = set()
        self.moved = [0] * len(inst.edge_names)
        self.initial_prices = list(prices)
        self.allowed_deficit: dict[int, Fraction] = {}
        self.returnable: set[Edge] = set()
        self.changes: Changes | None = None
        self.checked_version = 0
        self.genericity: tuple[int, object] | None = None
        # built on first read, then kept current by scale_prices
        self._bang_per_buck: BangPerBuckView | None = None
        # every amount given is a fixed part, kept as given (a state built
        # from amounts may hold negative spending, which the checks report)
        for e, value in (spending or {}).items():
            if value:
                b, g = self._edge_buyer[e], self._edge_good[e]
                self.edge_fixed[e] = value
                self.spent_fixed[b] += value
                self.inflow_fixed[g] += value

    # --- rational reads ---------------------------------------------------

    def _value(self, units: int, fixed: Fraction | None) -> Fraction:
        if not units:
            return ZERO if fixed is None else fixed
        value = self.unit * units
        return value + fixed if fixed else value

    @property
    def spending(self) -> dict[Edge, Fraction]:
        """Every non-zero spending as a rational, by edge, in a new dict:
        the edges with a fixed part first, in the order the state was built
        with, then the others."""
        units = self.edge_units
        spending = {
            e: self._value(units.get(e, 0), fixed) for e, fixed in self.edge_fixed.items()
        }
        for e, count in units.items():
            if e not in spending:
                spending[e] = self.unit * count
        return spending

    @property
    def bang_per_buck(self) -> BangPerBuckView:
        """The state's bang-per-buck view, built on the first read; every
        price scaling after that updates it in place (see
        :meth:`scale_prices`), so it is the same object throughout."""
        view = self._bang_per_buck
        if view is None:
            view = self._bang_per_buck = BangPerBuckView(self._inst)
            _rebuild(self._inst, self.prices, view)
        return view

    @property
    def refunds(self) -> list[Fraction]:
        """Every buyer's refund as a rational, in a new list."""
        return [self.refund(b) for b in range(len(self.refund_units))]

    @property
    def spending_edges(self) -> set[Edge]:
        """Every edge with non-zero spending, in a new set."""
        return self.edge_units.keys() | self.edge_fixed.keys()

    def spent_by(self, buyer: int) -> Fraction:
        return self._value(self.spent_units[buyer], self.spent_fixed[buyer])

    def inflow(self, good: int) -> Fraction:
        return self._value(self.inflow_units[good], self.inflow_fixed[good])

    def refund(self, buyer: int) -> Fraction:
        return self._value(self.refund_units[buyer], self.refund_fixed[buyer])

    def effective_budget(self, buyer: int) -> Fraction:
        return self._budget[buyer] - self.refund(buyer)

    def effective_cash(self, buyer: int) -> Fraction:
        return self.effective_budget(buyer) - self.spent_by(buyer)

    def backorder(self, good: int) -> Fraction:
        return self.inflow(good) - self.prices[good]

    # --- integer tests ----------------------------------------------------

    def _pair(self, units: int, fixed: Fraction | None) -> tuple[int, int]:
        """``units * unit + fixed`` as an unnormalized pair (numerator,
        positive denominator)."""
        if not units:
            return (fixed.numerator, fixed.denominator) if fixed else (0, 1)
        unit = self.unit
        if not fixed:
            return (units * unit.numerator, unit.denominator)
        return (
            units * unit.numerator * fixed.denominator
            + fixed.numerator * unit.denominator,
            unit.denominator * fixed.denominator,
        )

    def _sign(self, units: int, fixed: Fraction | None) -> int:
        """Sign of ``units * unit + fixed``."""
        num = self._pair(units, fixed)[0] if fixed else units
        return (num > 0) - (num < 0)

    def spending_sign(self, edge: Edge, units: int) -> int:
        """Sign of the edge's spending minus ``units`` units."""
        return self._sign(self.edge_units.get(edge, 0) - units, self.edge_fixed.get(edge))

    def refund_sign(self, buyer: int) -> int:
        return self._sign(self.refund_units[buyer], self.refund_fixed[buyer])

    def cash_term(self, buyer: int) -> int:
        """``floor(effective cash / unit)`` computed afresh: the fixed parts'
        floor minus the buyer's counts (``cash_terms`` keeps it)."""
        free = self._budget[buyer]
        refund = self.refund_fixed[buyer]
        if refund:
            free = free - refund
        spent = self.spent_fixed[buyer]
        if spent:
            free = free - spent
        unit = self.unit
        return (
            (free.numerator * unit.denominator) // (free.denominator * unit.numerator)
            - self.refund_units[buyer]
            - self.spent_units[buyer]
        )

    def inflow_pair(self, good: int) -> tuple[int, int]:
        return self._pair(self.inflow_units[good], self.inflow_fixed[good])

    def backorder_pair(self, good: int) -> tuple[int, int]:
        n, d = self.inflow_pair(good)
        price = self.prices[good]
        pd = price.denominator
        return (n * pd - price.numerator * d, d * pd)

    def _set_term(self, buyer: int, term: int) -> None:
        self.cash_total += term - self.cash_terms[buyer]
        self.cash_terms[buyer] = term
        if term > 0:
            self.holding.add(buyer)
        else:
            self.holding.discard(buyer)

    def _count_terms(self) -> None:
        """Every buyer's term afresh, at a new unit."""
        self.cash_terms = terms = [self.cash_term(b) for b in range(len(self._budget))]
        self.cash_total = sum(terms)
        self.holding = {b for b, term in enumerate(terms) if term > 0}

    # --- mutators ---------------------------------------------------------

    def add_spending_units(self, edge: Edge, count: int) -> None:
        """Add ``count`` units of the scale to the edge's spending, which
        must stay non-negative; a zero sum drops the edge, and its parts
        from the sums."""
        units = self.edge_units.get(edge, 0) + count
        fixed = self.edge_fixed.get(edge)
        sign = self._sign(units, fixed)
        if sign < 0:
            raise ValueError(f"negative spending on edge {edge}")
        b, g = self._edge_buyer[edge], self._edge_good[edge]
        self.moved[edge] += count
        self.spent_units[b] += count
        self.inflow_units[g] += count
        self._set_term(b, self.cash_terms[b] - count)
        if sign:
            if units:
                self.edge_units[edge] = units
            else:
                self.edge_units.pop(edge, None)
        else:
            self.edge_units.pop(edge, None)
            self.edge_fixed.pop(edge, None)
            if units:
                self.spent_units[b] -= units
                self.inflow_units[g] -= units
            if fixed:
                self.spent_fixed[b] -= fixed
                self.inflow_fixed[g] -= fixed
        if self._sign(units - 1, fixed) >= 0:
            self.returnable.add(edge)
        else:
            self.returnable.discard(edge)
        changes = self.changes
        if changes is not None:
            changes.edges.add(edge)
            changes.buyers.add(b)
            changes.goods.add(g)

    def reset_moved(self) -> None:
        """Count every edge's moved units from zero again."""
        self.moved = [0] * len(self.moved)

    def add_refund_units(self, buyer: int, count: int) -> None:
        self.refund_units[buyer] += count
        self._set_term(buyer, self.cash_terms[buyer] - count)
        if self.changes is not None:
            self.changes.buyers.add(buyer)

    def add_refund(self, buyer: int, amount: Fraction) -> None:
        self.refund_fixed[buyer] += amount
        if self.unit is not None:
            self._set_term(buyer, self.cash_term(buyer))
        if self.changes is not None:
            self.changes.buyers.add(buyer)

    def scale_prices(self, goods: set[int], factor: Fraction) -> None:
        """Multiply the prices of ``goods`` by ``factor``; the record of
        changes gets the goods as re-priced.  Once read, the bang-per-buck
        view follows a factor above one (:func:`_follow_raise`), keeps
        itself on a factor of one, and is rebuilt on any other."""
        prices = self.prices
        for g in goods:
            prices[g] *= factor
        if self.changes is not None:
            self.changes.prices.update(goods)
        view = self._bang_per_buck
        if view is not None and factor != 1:
            if factor > 1:
                _follow_raise(self._inst, prices, view, goods)
            else:
                _rebuild(self._inst, prices, view)

    def rescale(self, unit: Fraction) -> None:
        """Count in ``unit`` from now on.  Every count is multiplied by the
        old unit over the new one, which must be a whole number while any
        count is non-zero, and every cash term is recomputed.  Amounts,
        prices and rows do not change, so no buyer, good or edge is
        touched: after a whole factor only the returnable test of the edges
        with a fixed part is repeated and the record of changes is marked
        ``rescaled``, and after the first unit or any other factor the
        returnable edges are found afresh and the record is dropped (the
        next feasibility check sweeps everything)."""
        old = self.unit
        factor = None if old is None else old / unit
        whole = factor is not None and factor.denominator == 1
        if not whole and old is not None and (self.edge_units or any(self.refund_units)):
            raise ValueError(f"cannot recount units of {old} in units of {unit}")
        self.unit = unit
        if whole:
            k = factor.numerator
            edge_units = self.edge_units
            for e in edge_units:
                edge_units[e] *= k
            self.spent_units = [k * u for u in self.spent_units]
            self.inflow_units = [k * u for u in self.inflow_units]
            self.refund_units = [k * u for u in self.refund_units]
            returnable = self.returnable
            for e in self.edge_fixed:
                if self.spending_sign(e, 1) >= 0:
                    returnable.add(e)
                else:
                    returnable.discard(e)
            if self.changes is not None:
                self.changes.rescaled = True
        else:
            self.returnable = {e for e in self.spending_edges if self.spending_sign(e, 1) >= 0}
            self.changes = None
        self._count_terms()


class BangPerBuckView:
    """Every edge's ratio as an integer pair, every buyer's best ratio and
    equality edges, and the equality graph they make up, kept current with
    the prices.  ``ratios`` is a list by edge, ``rows`` and ``signs``
    lists by buyer.  A buyer's best pair is the ratio of the first edge of
    her row; ``signs`` holds its sign against one (1 above, 0 at, -1
    below).  The lists and the set are updated in place; copy one to keep
    a snapshot.  ``version`` goes up whenever a buyer's row or sign
    changes, so while it stands still the equality graph and the signs are
    as they were."""

    __slots__ = ("ratios", "rows", "signs", "edges", "version")

    def __init__(self, inst: MarketInstance) -> None:
        self.ratios: list[tuple[int, int]] = []
        self.rows: list[tuple[Edge, ...] | None] = [None] * len(inst.buyers)
        self.signs: list[int | None] = [None] * len(inst.buyers)
        self.edges: set[Edge] = set()
        self.version = 0

    def best_pair(self, buyer: int) -> tuple[int, int]:
        return self.ratios[self.rows[buyer][0]]


def _rebuild(
    inst: MarketInstance, prices: list[Fraction], view: BangPerBuckView
) -> None:
    """Every ratio afresh from ``prices``, then every buyer's row and sign."""
    price_pairs = [(p.numerator, p.denominator) for p in prices]
    ratios = view.ratios
    ratios.clear()
    for (un, ud), g in zip(inst.utility_pair, inst.edge_good):
        pn, pd = price_pairs[g]
        ratios.append((un * pd, ud * pn))
    _rescan(inst, view, range(len(inst.buyers)))


def _follow_raise(
    inst: MarketInstance, prices: list[Fraction], view: BangPerBuckView, goods: set[int]
) -> None:
    """Update the view after one scaling of ``goods`` by a factor above
    one, which divides the ratio of every edge into ``goods`` by it.

    A buyer with no row edge into ``goods`` keeps her row and sign: her
    other edges into them were below her best and only fall.  A row partly
    inside drops its edges into ``goods`` and keeps its best and sign.  A
    row wholly inside keeps its edges, which still tie and still lead every
    other edge into ``goods``; only her edges to other goods can reach the
    lowered best, and one that ties or passes it rescans her.  Otherwise
    only her sign is recomputed.
    """
    utility_pairs, buyer_edges = inst.utility_pair, inst.buyer_edges
    edge_buyer, edge_good = inst.edge_buyer, inst.edge_good
    ratios, rows, signs, eq_edges = view.ratios, view.rows, view.signs, view.edges
    # each buyer with a row edge into goods, and how many of her row edges
    # lead there
    hit: dict[int, int] = {}
    for g in goods:
        price = prices[g]
        pn, pd = price.numerator, price.denominator
        for e in inst.good_edges[g]:
            un, ud = utility_pairs[e]
            ratios[e] = (un * pd, ud * pn)
            if e in eq_edges:
                b = edge_buyer[e]
                hit[b] = hit.get(b, 0) + 1
    rescan = []
    for b, inside in hit.items():
        row = rows[b]
        if inside < len(row):
            rows[b] = tuple(e for e in row if edge_good[e] not in goods)
            eq_edges.difference_update([e for e in row if edge_good[e] in goods])
            view.version += 1
            continue
        best_n, best_d = ratios[row[0]]
        for e in buyer_edges[b]:
            if edge_good[e] not in goods:
                n, d = ratios[e]
                if n * best_d >= best_n * d:
                    rescan.append(b)
                    break
        else:
            sign = (best_n > best_d) - (best_n < best_d)
            if sign != signs[b]:
                signs[b] = sign
                view.version += 1
    if rescan:
        _rescan(inst, view, rescan)


def _rescan(inst: MarketInstance, view: BangPerBuckView, buyers: Iterable[int]) -> None:
    """Each buyer's row and sign afresh from the view's ratios."""
    ratios = view.ratios
    for b in buyers:
        best_n, best_d = 0, 1
        row = []
        for e in inst.buyer_edges[b]:
            n, d = ratios[e]
            lhs, rhs = n * best_d, best_n * d
            if lhs > rhs:
                best_n, best_d = n, d
                row = [e]
            elif lhs == rhs:
                row.append(e)
        if not row:
            raise ValueError("buyer values no good")
        sign = (best_n > best_d) - (best_n < best_d)
        row = tuple(row)
        old = view.rows[b]
        view.rows[b] = row
        if row != old or sign != view.signs[b]:
            view.signs[b] = sign
            view.edges.difference_update(old or ())
            view.edges.update(row)
            view.version += 1


def edge_event(
    inst: MarketInstance,
    view: BangPerBuckView,
    buyers: Iterable[int],
    active_goods: set[int],
) -> tuple[int, int, Edge] | None:
    """The smallest price-raise multiplier that makes a new equality edge
    from one of ``buyers`` to a good outside ``active_goods``, as an
    unnormalized pair, and that edge; None when there is no such edge.

    ``view`` is the state's current bang-per-buck view
    (:attr:`MarketState.bang_per_buck`).  The multiplier of edge ``(b, g)`` is ``best_b / ratio_bg``.
    ``buyers`` come in canonical order, and ties go to the first of them,
    then to the smallest good position.
    """
    ratios, rows = view.ratios, view.rows
    edge_good = inst.edge_good
    event: tuple[int, int, Edge] | None = None
    for b in buyers:
        best_n, best_d = ratios[rows[b][0]]
        for e in inst.buyer_edges[b]:
            if edge_good[e] in active_goods:
                continue
            n, d = ratios[e]
            n, d = best_n * d, best_d * n
            if event is None or n * event[1] < event[0] * d:
                event = (n, d, e)
    return event


def reach(
    inst: MarketInstance, roots: list[Node], forward: set[Edge], backward: set[Edge]
) -> dict[Node, Node | None]:
    """Breadth-first search of the residual graph from ``roots``.

    Arcs run buyer -> good along ``forward`` edges and good -> buyer along
    ``backward`` edges; both are read straight off the instance's adjacency,
    so with ``roots`` in canonical order (sorted) the search visits in
    canonical order too.  Returns the predecessor map of the BFS tree: its
    keys are the reached nodes, and the roots map to None.
    """
    n_buyers = len(inst.buyers)
    buyer_edges, good_edges = inst.buyer_edges, inst.good_edges
    edge_buyer, edge_good = inst.edge_buyer, inst.edge_good
    parent: dict[Node, Node | None] = dict.fromkeys(roots)
    queue = list(parent)
    for node in queue:  # the list grows while it is walked
        if node < n_buyers:
            for e in buyer_edges[node]:
                if e in forward:
                    nxt = n_buyers + edge_good[e]
                    if nxt not in parent:
                        parent[nxt] = node
                        queue.append(nxt)
        else:
            for e in good_edges[node - n_buyers]:
                if e in backward:
                    nxt = edge_buyer[e]
                    if nxt not in parent:
                        parent[nxt] = node
                        queue.append(nxt)
    return parent


def path_to(parent: dict[Node, Node | None], target: Node) -> list[Node]:
    """Path of a :func:`reach` tree from its root to ``target`` (inclusive)."""
    if target not in parent:
        raise ValueError(f"node {target} unreachable from roots")
    path = [target]
    while (prev := parent[path[-1]]) is not None:
        path.append(prev)
    path.reverse()
    return path


def abundant_edges(state: MarketState, n: int) -> set[Edge]:
    """Edges carrying at least ``3 * n`` units of the state's scale
    (inclusive); the state must have a scale."""
    units = 3 * n
    return {e for e in state.spending_edges if state.spending_sign(e, units) >= 0}


@dataclass
class Component:
    """A connected component of ``B + G`` under some edge set: its buyers,
    goods and edges, each in canonical order, and the walker's spanning
    tree of it.

    ``tree`` lists every node once, in the walk's discovery order, with
    the tree edge that reached it: the root, the component's smallest
    node (its first buyer when it has one), comes first with None, and
    every other node after the node its edge joins it to.
    """

    buyers: tuple[int, ...]
    goods: tuple[int, ...]
    edges: tuple[Edge, ...]
    tree: tuple[tuple[Node, Edge | None], ...]

    def is_singleton(self) -> bool:
        return len(self.tree) == 1

    def nodes(self) -> list[Node]:
        """The component's nodes in canonical order."""
        return sorted(node for node, _ in self.tree)

    def surplus(self, state: MarketState) -> Fraction:
        """Effective budgets of the component's buyers minus its good prices."""
        total = ZERO
        for b in self.buyers:
            total += state.effective_budget(b)
        for g in self.goods:
            total -= state.prices[g]
        return total


def node_name(inst: MarketInstance, node: Node) -> str:
    """A node as ``B:<buyer id>`` or ``G:<good id>``."""
    n_buyers = len(inst.buyers)
    if node < n_buyers:
        return f"B:{inst.buyers[node]}"
    return f"G:{inst.goods[node - n_buyers]}"


def component_key(inst: MarketInstance, component: Component) -> str:
    """Stable label of a component in traces and reports: its smallest node."""
    return node_name(inst, component.tree[0][0])


class Forest(NamedTuple):
    """What :func:`components_of_edges` finds for an edge set: every edge
    lies in one of the components."""

    components: list[Component]
    cycle: list[Edge] | None


def components_of_edges(inst: MarketInstance, edges: Iterable[Edge]) -> Forest:
    """Connected components of ``B + G`` under an undirected edge set, and
    the first cycle found.

    Components come sorted by their canonically smallest node, singletons
    included.  The cycle is a list of edges forming a closed walk, or None
    when the edges form a forest.  Traversal runs in canonical order, so
    the cycle reported for a given edge set is always the same.
    """
    n_buyers, n_goods = len(inst.buyers), len(inst.goods)
    edge_buyer, edge_good = inst.edge_buyer, inst.edge_good
    ordered = sorted(edges)
    adjacency: list[list[tuple[Node, Edge]]] = [[] for _ in range(n_buyers + n_goods)]
    for e in ordered:
        b, g = edge_buyer[e], n_buyers + edge_good[e]
        adjacency[b].append((g, e))
        adjacency[g].append((b, e))
    # component number and tree edge into each visited node (None at a DFS
    # root); starting in canonical order makes each start the smallest node
    # of its component, so the numbering is the canonical component order
    index: list[int] = [-1] * (n_buyers + n_goods)
    parent: list[tuple[Node, Edge] | None] = [None] * (n_buyers + n_goods)
    trees: list[list[tuple[Node, Edge | None]]] = []
    cycle: list[Edge] | None = None
    for start in range(n_buyers + n_goods):
        if index[start] >= 0:
            continue
        index[start] = k = len(trees)
        tree: list[tuple[Node, Edge | None]] = [(start, None)]
        trees.append(tree)
        stack = [start]
        while stack:
            node = stack.pop()
            via = parent[node]
            for nxt, e in adjacency[node]:
                if via is not None and e == via[1]:
                    continue
                if index[nxt] < 0:
                    index[nxt] = k
                    parent[nxt] = (node, e)
                    tree.append((nxt, e))
                    stack.append(nxt)
                elif cycle is None:
                    cycle = _closed_walk(parent, node, nxt, e)

    buyers: list[list[int]] = [[] for _ in trees]
    goods: list[list[int]] = [[] for _ in trees]
    comp_edges: list[list[Edge]] = [[] for _ in trees]
    for b in range(n_buyers):
        buyers[index[b]].append(b)
    for g in range(n_goods):
        goods[index[n_buyers + g]].append(g)
    for e in ordered:
        comp_edges[index[edge_buyer[e]]].append(e)
    components = [
        Component(buyers=tuple(bs), goods=tuple(gs), edges=tuple(es), tree=tuple(t))
        for bs, gs, es, t in zip(buyers, goods, comp_edges, trees)
    ]
    return Forest(components, cycle)


def _closed_walk(
    parent: list[tuple[Node, Edge] | None], u: Node, w: Node, closing: Edge
) -> list[Edge]:
    """The cycle a non-tree edge ``u - w`` closes in the DFS forest: the
    edge, then the tree paths from ``w`` and from ``u`` up to where they
    meet."""
    up_u: list[Edge] = []
    up_w: list[Edge] = []
    for node, path in ((u, up_u), (w, up_w)):
        while (step := parent[node]) is not None:
            node, edge = step
            path.append(edge)
    # both paths end at the same DFS root; drop the shared part above the meet
    while up_u and up_w and up_u[-1] == up_w[-1]:
        up_u.pop()
        up_w.pop()
    return [closing] + up_w + up_u[::-1]
