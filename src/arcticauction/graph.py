"""The market state, bang-per-buck, equality graph, residual reachability,
and the forest walker.

Nodes of the bipartite market graph are tagged tuples ``("B", buyer_id)``
and ``("G", good_id)`` so buyer and good ids may collide without ambiguity.
The free functions on edge sets are pure.  Bang-per-buck and the equality
graph come from one place, the state view (:func:`bang_per_buck_view`):
it keeps its data on the :class:`MarketState` and updates it in place
from the items the state's mutators touched since its last call, and a
fresh state's first call computes it all.  The solvers, the genericity
check and the certifier all read it.

Inside the view a ratio ``u / p`` is the unnormalized integer pair
``(u.numerator * p.denominator, u.denominator * p.numerator)``; prices
are positive, so the second entry is, and two ratios compare by
cross-multiplication, with no gcd and no object per ratio.  A buyer's
best pair is the ratio of the first edge of her row (her equality edges),
and the view keeps its sign against one: the equilibrium conditions and
the steps' tests compare bang-per-buck only with one, so only a caller
that needs the value itself (the restart's price raise, a report)
normalizes the best pair to a ``Q``, by one gcd.  When a good is
re-priced, each of its buyers is rescanned only if the good is in her
row or its new ratio is at least her best: otherwise every ratio in her
row is unchanged and still strictly above the re-priced one, so her best
and her row are exactly as before, whichever way the price moved.  The
price raise's edge event (:func:`edge_event`) reads the same pairs.  The
residual search (:func:`reach`) builds no graph of its own: it walks the
instance's adjacency and keeps the arcs whose edges lie in the sets the
caller passes.  The spending thresholds (:func:`abundant_edges`, and
:func:`~arcticauction.basic.recover_support`) count in the state's own
scale.  Every traversal runs in canonical (document) order, which makes
the solvers deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from arcticauction.core import MarketInstance
from arcticauction.rational import ZERO

Node = tuple[str, str]
Edge = tuple[str, str]  # (buyer_id, good_id)


def buyer_node(buyer: str) -> Node:
    return ("B", buyer)


def good_node(good: str) -> Node:
    return ("G", good)


def edge_key(inst: MarketInstance, edge: Edge) -> tuple[int, int]:
    """Canonical sort key: by buyer, then by good, in document order."""
    return (inst.buyer_pos[edge[0]], inst.good_pos[edge[1]])


Touch = tuple[str, object]  # ("buyer", b) | ("good", g) | ("edge", e) | ("price", g)

_VALUES = "values"


class MarketState:
    """Evolving solver state: prices, sparse spending, refunds.

    Each edge's spending and each buyer's refund is an ``int`` count of the
    scale ``unit`` plus a rational fixed part, with the counts and the fixed
    parts also summed per buyer (spending) and per good (inflow).  A state
    built from dicts holds every amount as a fixed part, with no scale;
    :meth:`rescale` sets the scale, and the solvers' steps move whole
    units through :meth:`add_spending_units` and :meth:`add_refund_units`,
    so the fixed parts stay zero except for amounts set from rationals
    (the dicts a state is built from, and :meth:`add_refund`).  Halving
    the scale doubles every count.  The per-step tests compare counts and
    cross-multiply integer pairs (:meth:`cash_term`, :meth:`spending_sign`,
    and the unnormalized pairs (numerator, positive denominator) of
    :meth:`inflow_pair` and :meth:`backorder_pair`) instead of building
    rationals.  The count and
    fixed dicts are read-only outside the mutators; an edge is in either
    only while its spending is non-zero.

    ``spending`` and ``refunds`` are read-only rational views, kept up to
    date from the items touched since they were last read.  Mutate the
    state only through the mutators: each adds what it touched to the
    pending items of every view, and the derived views (bang-per-buck, the
    equality graph, the solvers' potential and feasibility checks) catch up
    from their own pending items through :meth:`changes` instead of
    re-deriving everything.  A view keeps its data in ``views`` under its
    own name.
    """

    def __init__(
        self,
        prices: dict[str, Fraction],
        spending: dict[Edge, Fraction],
        refunds: dict[str, Fraction],
    ) -> None:
        self.prices = prices
        self.unit: Fraction | None = None
        self.edge_units: dict[Edge, int] = {}
        self.edge_fixed: dict[Edge, Fraction] = {}
        self.spent_units: dict[str, int] = {}
        self.spent_fixed: dict[str, Fraction] = {}
        self.inflow_units: dict[str, int] = {}
        self.inflow_fixed: dict[str, Fraction] = {}
        self.refund_units: dict[str, int] = {}
        self.refund_fixed: dict[str, Fraction] = dict(refunds)
        self.views: dict[str, object] = {}
        # per view: the scale it last passed to changes(), and each item
        # touched since that call, once
        self._pending: dict[str, tuple[Fraction | None, dict[Touch, None]]] = {}
        # every amount given is a fixed part, kept as given (a state built
        # from dicts may hold negative spending, which the checks report)
        for edge, value in spending.items():
            if value:
                b, g = edge
                self.edge_fixed[edge] = value
                self.spent_fixed[b] = self.spent_fixed.get(b, ZERO) + value
                self.inflow_fixed[g] = self.inflow_fixed.get(g, ZERO) + value
        # the rational views start out current
        self._spending = dict(self.edge_fixed)
        self._refunds = dict(refunds)
        self._pending[_VALUES] = (None, {})

    # --- rational reads ---------------------------------------------------

    def _value(self, units: int, fixed: Fraction | None) -> Fraction:
        if not units:
            return ZERO if fixed is None else fixed
        value = self.unit * units
        return value if fixed is None else fixed + value

    @property
    def spending(self) -> dict[Edge, Fraction]:
        """Every non-zero spending as a rational, updated in place."""
        self._catch_up_values()
        return self._spending

    @property
    def refunds(self) -> dict[str, Fraction]:
        """Every booked refund as a rational, updated in place."""
        self._catch_up_values()
        return self._refunds

    def _catch_up_values(self) -> None:
        for kind, item in self.changes(_VALUES) or ():
            if kind == "edge":
                if self.has_spending(item):
                    self._spending[item] = self._value(
                        self.edge_units.get(item, 0), self.edge_fixed.get(item)
                    )
                else:
                    self._spending.pop(item, None)
            elif kind == "buyer" and (
                item in self.refund_fixed or item in self.refund_units
            ):
                self._refunds[item] = self.refund(item)

    def has_spending(self, edge: Edge) -> bool:
        return edge in self.edge_units or edge in self.edge_fixed

    def spent_by(self, buyer: str) -> Fraction:
        return self._value(self.spent_units.get(buyer, 0), self.spent_fixed.get(buyer))

    def inflow(self, good: str) -> Fraction:
        return self._value(self.inflow_units.get(good, 0), self.inflow_fixed.get(good))

    def refund(self, buyer: str) -> Fraction:
        return self._value(
            self.refund_units.get(buyer, 0), self.refund_fixed.get(buyer)
        )

    def effective_budget(self, inst: MarketInstance, buyer: str) -> Fraction:
        return inst.budgets[buyer] - self.refund(buyer)

    def effective_cash(self, inst: MarketInstance, buyer: str) -> Fraction:
        return self.effective_budget(inst, buyer) - self.spent_by(buyer)

    def backorder(self, good: str) -> Fraction:
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

    def refund_sign(self, buyer: str) -> int:
        return self._sign(self.refund_units.get(buyer, 0), self.refund_fixed.get(buyer))

    def cash_term(self, inst: MarketInstance, buyer: str) -> int:
        """``floor(effective cash / unit)``: the fixed parts' floor minus
        the buyer's counts."""
        free = inst.budgets[buyer]
        refund = self.refund_fixed.get(buyer)
        if refund:
            free = free - refund
        spent = self.spent_fixed.get(buyer)
        if spent:
            free = free - spent
        unit = self.unit
        return (
            (free.numerator * unit.denominator) // (free.denominator * unit.numerator)
            - self.refund_units.get(buyer, 0)
            - self.spent_units.get(buyer, 0)
        )

    def inflow_pair(self, good: str) -> tuple[int, int]:
        return self._pair(self.inflow_units.get(good, 0), self.inflow_fixed.get(good))

    def backorder_pair(self, good: str) -> tuple[int, int]:
        n, d = self.inflow_pair(good)
        price = self.prices[good]
        pd = price.denominator
        return (n * pd - price.numerator * d, d * pd)

    # --- mutators ---------------------------------------------------------

    def _put(self, edge: Edge, units: int, fixed: Fraction | None, sign: int) -> None:
        """Store an edge's new count and fixed part, whose sum has ``sign``;
        a zero sum drops the edge, and its parts from the sums."""
        if sign:
            for part, parts in ((units, self.edge_units), (fixed, self.edge_fixed)):
                if part:
                    parts[edge] = part
                else:
                    parts.pop(edge, None)
            return
        self.edge_units.pop(edge, None)
        self.edge_fixed.pop(edge, None)
        b, g = edge
        if units:
            self.spent_units[b] -= units
            self.inflow_units[g] -= units
        if fixed:
            self.spent_fixed[b] -= fixed
            self.inflow_fixed[g] -= fixed

    def add_spending_units(self, edge: Edge, count: int) -> None:
        """Add ``count`` units of the scale to the edge's spending, which
        must stay non-negative."""
        units = self.edge_units.get(edge, 0) + count
        fixed = self.edge_fixed.get(edge)
        sign = self._sign(units, fixed)
        if sign < 0:
            raise ValueError(f"negative spending on {edge}")
        b, g = edge
        self.spent_units[b] = self.spent_units.get(b, 0) + count
        self.inflow_units[g] = self.inflow_units.get(g, 0) + count
        self._put(edge, units, fixed, sign)
        self._touch([("edge", edge), ("buyer", b), ("good", g)])

    def add_refund_units(self, buyer: str, count: int) -> None:
        self.refund_units[buyer] = self.refund_units.get(buyer, 0) + count
        self._touch([("buyer", buyer)])

    def add_refund(self, buyer: str, amount: Fraction) -> None:
        self.refund_fixed[buyer] = self.refund_fixed.get(buyer, ZERO) + amount
        self._touch([("buyer", buyer)])

    def scale_prices(self, goods: list[str] | set[str], factor: Fraction) -> None:
        for g in goods:
            self.prices[g] *= factor
        self._touch([("price", g) for g in goods])

    def rescale(self, unit: Fraction) -> None:
        """Count in ``unit`` from now on.  Every count is multiplied by the
        old unit over the new one, which must be a whole number while any
        count is non-zero; amounts do not change, so nothing is touched."""
        old = self.unit
        if old is not None and (self.edge_units or any(self.refund_units.values())):
            factor = old / unit
            if factor.denominator != 1:
                raise ValueError(f"cannot recount units of {old} in units of {unit}")
            k = factor.numerator
            for counts in (
                self.edge_units,
                self.spent_units,
                self.inflow_units,
                self.refund_units,
            ):
                for key in counts:
                    counts[key] *= k
        self.unit = unit

    def _touch(self, items: list[Touch]) -> None:
        touched = dict.fromkeys(items)
        for _, pending in self._pending.values():
            pending.update(touched)

    def changes(
        self, view: str, scale: Fraction | None = None
    ) -> dict[Touch, None] | None:
        """Items touched since ``view`` last asked, each once; None when the
        view must start over: on its first call, and when ``scale`` is not
        the object it passed last time.

        A view's pending items never hold an item twice and are handed over
        whole, so they stay bounded by the size of the market.
        """
        last = self._pending.get(view)
        self._pending[view] = (scale, {})
        if last is None or last[0] is not scale:
            return None
        return last[1]


class BangPerBuckView:
    """Every edge's ratio as an integer pair, every buyer's best ratio and
    equality edges, and the equality graph they make up, kept current with
    the prices.  A buyer's best pair is the ratio of the first edge of her
    row; ``signs`` holds its sign against one (1 above, 0 at, -1 below).
    The dicts and the set are updated in place; copy one to keep a
    snapshot."""

    __slots__ = ("utilities", "ratios", "rows", "signs", "edges")

    def __init__(self, inst: MarketInstance) -> None:
        self.utilities = {
            e: (u.numerator, u.denominator) for e, u in inst.utilities.items()
        }
        self.ratios: dict[Edge, tuple[int, int]] = {}
        self.rows: dict[str, tuple[Edge, ...]] = {}
        self.signs: dict[str, int] = {}
        self.edges: set[Edge] = set()

    def best_pair(self, buyer: str) -> tuple[int, int]:
        return self.ratios[self.rows[buyer][0]]


_BANG_PER_BUCK = "bang_per_buck"


def bang_per_buck_view(inst: MarketInstance, state: MarketState) -> BangPerBuckView:
    """The state's bang-per-buck view, updated for the buyers whose best
    can have changed since the last call (all buyers on the first call)."""
    touched = state.changes(_BANG_PER_BUCK)
    prices = state.prices
    if touched is None:
        view = state.views[_BANG_PER_BUCK] = BangPerBuckView(inst)
        ratios = view.ratios
        price_pairs = {g: (p.numerator, p.denominator) for g, p in prices.items()}
        for e, (un, ud) in view.utilities.items():
            pn, pd = price_pairs[e[1]]
            ratios[e] = (un * pd, ud * pn)
        buyers: Iterable[str] = inst.buyers
    else:
        view = state.views[_BANG_PER_BUCK]
        utility_pairs = view.utilities
        ratios = view.ratios
        rows = view.rows
        buyers = set()
        for kind, g in touched:
            if kind != "price":
                continue
            price = prices[g]
            pn, pd = price.numerator, price.denominator
            for b in inst.buyers_of(g):
                edge = (b, g)
                un, ud = utility_pairs[edge]
                ratios[edge] = n, d = (un * pd, ud * pn)
                if b in buyers:
                    continue
                row = rows[b]
                # the row's ratios are as at the last rescan unless one of
                # its goods was re-priced, which rescans b anyway
                best_n, best_d = ratios[row[0]]
                if edge in row or n * best_d >= best_n * d:
                    buyers.add(b)
        if not buyers:
            return view
    for b in buyers:
        best_n, best_d = 0, 1
        row = []
        for g in inst.goods_of(b):
            edge = (b, g)
            n, d = ratios[edge]
            lhs, rhs = n * best_d, best_n * d
            if lhs > rhs:
                best_n, best_d = n, d
                row = [edge]
            elif lhs == rhs:
                row.append(edge)
        if not row:
            raise ValueError("buyer values no good")
        view.signs[b] = (best_n > best_d) - (best_n < best_d)
        view.edges.difference_update(view.rows.get(b, ()))
        view.edges.update(row)
        view.rows[b] = tuple(row)
    return view


def edge_event(
    inst: MarketInstance,
    view: BangPerBuckView,
    buyers: Iterable[str],
    active_goods: set[str],
) -> tuple[int, int, Edge] | None:
    """The smallest price-raise multiplier that makes a new equality edge
    from one of ``buyers`` to a good outside ``active_goods``, as an
    unnormalized pair, and that edge; None when there is no such edge.

    ``view`` is the caller's current :func:`bang_per_buck_view` of the
    state.  The multiplier of edge ``(b, g)`` is ``best_b / ratio_bg``.
    ``buyers`` come in canonical order, and ties go to the first of them,
    then to the smallest good position.
    """
    ratios, rows = view.ratios, view.rows
    event: tuple[int, int, Edge] | None = None
    for b in buyers:
        best_n, best_d = ratios[rows[b][0]]
        for g in inst.goods_of(b):
            if g in active_goods:
                continue
            n, d = ratios[(b, g)]
            n, d = best_n * d, best_d * n
            if event is None or n * event[1] < event[0] * d:
                event = (n, d, (b, g))
    return event


def reach(
    inst: MarketInstance, roots: list[Node], forward: set[Edge], backward: set[Edge]
) -> dict[Node, Node | None]:
    """Breadth-first search of the residual graph from ``roots``.

    Arcs run buyer -> good along ``forward`` edges and good -> buyer along
    ``backward`` edges; both are read straight off the instance's adjacency,
    so with ``roots`` in canonical order (buyers, then goods, each in
    document order) the search visits in canonical order too.  Returns the
    predecessor map of the BFS tree: its keys are the reached nodes, and
    the roots map to None.
    """
    parent: dict[Node, Node | None] = dict.fromkeys(roots)
    queue = list(parent)
    for node in queue:  # the list grows while it is walked
        kind, name = node
        if kind == "B":
            for g in inst.goods_of(name):
                nxt = ("G", g)
                if nxt not in parent and (name, g) in forward:
                    parent[nxt] = node
                    queue.append(nxt)
        else:
            for b in inst.buyers_of(name):
                nxt = ("B", b)
                if nxt not in parent and (b, name) in backward:
                    parent[nxt] = node
                    queue.append(nxt)
    return parent


def path_to(parent: dict[Node, Node | None], target: Node) -> list[Node]:
    """Path of a :func:`reach` tree from its root to ``target`` (inclusive)."""
    if target not in parent:
        raise ValueError(f"{target} unreachable from roots")
    path = [target]
    while (prev := parent[path[-1]]) is not None:
        path.append(prev)
    path.reverse()
    return path


def abundant_edges(state: MarketState, n: int) -> set[Edge]:
    """Edges carrying at least ``3 * n`` units of the state's scale
    (inclusive); the state must have a scale."""
    units = 3 * n
    return {e for e in state.spending if state.spending_sign(e, units) >= 0}


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

    buyers: tuple[str, ...]
    goods: tuple[str, ...]
    edges: tuple[Edge, ...]
    tree: tuple[tuple[Node, Edge | None], ...]

    def is_singleton(self) -> bool:
        return len(self.buyers) + len(self.goods) == 1

    def nodes(self) -> list[Node]:
        return [buyer_node(b) for b in self.buyers] + [good_node(g) for g in self.goods]

    def surplus(self, inst: MarketInstance, state: MarketState) -> Fraction:
        """Effective budgets of the component's buyers minus its good prices."""
        total = ZERO
        for b in self.buyers:
            total += state.effective_budget(inst, b)
        for g in self.goods:
            total -= state.prices[g]
        return total


def component_key(component: Component) -> str:
    """Stable label of a component in traces and reports: its smallest node."""
    kind, name = component.tree[0][0]
    return f"{kind}:{name}"


class Forest(NamedTuple):
    """What :func:`components_of_edges` finds for an edge set: every edge
    lies in one of the components."""

    components: list[Component]
    cycle: list[Edge] | None


def components_of_edges(inst: MarketInstance, edges: set[Edge]) -> Forest:
    """Connected components of ``B + G`` under an undirected edge set, and
    the first cycle found.

    Components come sorted by their canonically smallest node, singletons
    included.  The cycle is a list of edges forming a closed walk, or None
    when the edges form a forest.  Traversal runs in canonical order, so
    the cycle reported for a given edge set is always the same.
    """
    ordered = sorted(edges, key=lambda e: edge_key(inst, e))
    adjacency: dict[Node, list[tuple[Node, Edge]]] = {}
    for edge in ordered:
        b, g = ("B", edge[0]), ("G", edge[1])
        adjacency.setdefault(b, []).append((g, edge))
        adjacency.setdefault(g, []).append((b, edge))
    buyer_nodes = [("B", b) for b in inst.buyers]
    good_nodes = [("G", g) for g in inst.goods]
    # component number and tree edge into each visited node (None at a DFS
    # root); starting in canonical order makes each start the smallest node
    # of its component, so the numbering is the canonical component order
    index: dict[Node, int] = {}
    parent: dict[Node, tuple[Node, Edge] | None] = {}
    trees: list[list[tuple[Node, Edge | None]]] = []
    cycle: list[Edge] | None = None
    for start in buyer_nodes + good_nodes:
        if start in index:
            continue
        index[start] = k = len(trees)
        parent[start] = None
        tree: list[tuple[Node, Edge | None]] = [(start, None)]
        trees.append(tree)
        stack = [start]
        while stack:
            node = stack.pop()
            via = parent[node]
            for nxt, edge in adjacency.get(node, ()):
                if via is not None and edge == via[1]:
                    continue
                if nxt not in index:
                    index[nxt] = k
                    parent[nxt] = (node, edge)
                    tree.append((nxt, edge))
                    stack.append(nxt)
                elif cycle is None:
                    cycle = _closed_walk(parent, node, nxt, edge)

    buyers: list[list[str]] = [[] for _ in trees]
    goods: list[list[str]] = [[] for _ in trees]
    comp_edges: list[list[Edge]] = [[] for _ in trees]
    for b, node in zip(inst.buyers, buyer_nodes):
        buyers[index[node]].append(b)
    for g, node in zip(inst.goods, good_nodes):
        goods[index[node]].append(g)
    for edge in ordered:
        comp_edges[index[("B", edge[0])]].append(edge)
    components = [
        Component(buyers=tuple(bs), goods=tuple(gs), edges=tuple(es), tree=tuple(t))
        for bs, gs, es, t in zip(buyers, goods, comp_edges, trees)
    ]
    return Forest(components, cycle)


def _closed_walk(
    parent: dict[Node, tuple[Node, Edge] | None], u: Node, w: Node, closing: Edge
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
