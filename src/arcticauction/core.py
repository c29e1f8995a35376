"""Market instances, exact rational parsing, derived constants, perturbation.

Every numeric quantity in the package is exact: a
:class:`~arcticauction.rational.Q`, the package's subclass of
:class:`fractions.Fraction` with the same values and faster operators.
Instances convert their budgets and utilities to ``Q`` and
:func:`parse_rational` returns one, so every number derived from them is a
``Q`` too: arbitrary precision, always normalized, exact comparisons.
There is no floating-point fallback anywhere.

A market instance consists of buyers with positive budgets, goods with unit
supply, and a sparse positive utility matrix.  The document order of buyers
and goods is the canonical tie-break order used by every "choose smallest"
rule in the solvers, so instances preserve it.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from arcticauction.rational import Q, as_q, reduced


class InstanceError(ValueError):
    """Raised when input is malformed or inconsistent: an instance or
    solution document, or a command-line value."""


# ASCII digits only: \d would match any Unicode decimal digit
_RATIONAL_RE = re.compile(r"^(-?[0-9]+)(?:/([0-9]+))?$")
# the whitespace a rational string may carry around it: ASCII only, since
# str.strip() with no argument also strips Unicode spaces and separators
_ASCII_SPACE = " \t\n\r\v\f"


def ceil_log2(value: Fraction) -> int:
    """Smallest integer k with 2**k >= value, computed exactly.

    Works for arbitrarily large rationals (float conversion would overflow
    for the denominator bounds of big instances).
    """
    if value <= 0:
        raise ValueError("ceil_log2 needs a positive value")
    k = value.numerator.bit_length() - value.denominator.bit_length() - 1
    while Fraction(2) ** k < value:
        k += 1
    return k


def parse_rational(value: object) -> Q:
    """Parse an exact rational from an int or a ``"p"`` / ``"p/q"`` string
    of ASCII digits, with optional ASCII whitespace around it.

    Floats are rejected: accepting them would silently launder binary
    rounding error into the exact-arithmetic pipeline.
    """
    if isinstance(value, bool):
        raise InstanceError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        match = _RATIONAL_RE.match(value.strip(_ASCII_SPACE))
        if match is None:
            raise InstanceError(f"not a rational: {value!r}")
        try:
            num = int(match.group(1))
            den = int(match.group(2)) if match.group(2) else 1
        except ValueError as exc:
            # CPython refuses int strings beyond sys.get_int_max_str_digits()
            raise InstanceError(f"number too long: {exc}") from None
        if den == 0:
            raise InstanceError(f"zero denominator: {value!r}")
        return reduced(num, den)
    raise InstanceError(f"not a rational: {value!r}")


def _exact(value: object) -> Q:
    """An int or ``Fraction`` value as a ``Q`` (a ``Q`` as it is); anything
    else is no exact rational."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InstanceError(f"not an exact rational: {value!r}")
    return as_q(value)


def _id(value: object) -> str:
    """A buyer or good id: a string, or an integer read as its digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    raise InstanceError(f"id must be a string or an integer: {value!r}")


def format_rational(value: Fraction) -> str:
    """Serialize exactly: decimal string for integers, ``p/q`` otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class MarketInstance:
    """Immutable problem statement: buyers, goods, budgets, sparse utilities.

    ``buyers`` and ``goods`` keep document order; ``utilities`` holds only
    strictly positive entries (absence means zero utility).  Budgets and
    utilities may be given as ints or ``Fraction`` values; the instance
    keeps them as ``Q``, in dicts of its own.

    The solvers never touch an id string: they run on a dense index,
    derived once at construction, which is sound only because the instance
    never changes afterwards.  Buyer ``i`` is ``buyers[i]`` and good ``j``
    is ``goods[j]``; edge ``e`` is ``edge_names[e]``, the edges numbered in
    canonical (buyer, good) document order, so sorting edge ids sorts
    edges canonically.  ``edge_buyer``, ``edge_good`` and ``utility`` give
    each edge's buyer, good and utility, ``utility_pair`` the utility as
    its (numerator, denominator), and ``budget`` each buyer's budget.
    ``buyer_edges[i]`` lists buyer ``i``'s edges (a contiguous run of ids,
    by good) and ``good_edges[j]`` good ``j``'s edges (by buyer).
    ``edge_id`` maps an edge's names to its id.  ``stats`` holds the
    instance's :class:`InstanceStats`, derived by :func:`compute_stats`.
    """

    buyers: tuple[str, ...]
    goods: tuple[str, ...]
    budgets: dict[str, Fraction]
    utilities: dict[tuple[str, str], Fraction]
    buyer_pos: dict[str, int] = field(init=False, repr=False)
    good_pos: dict[str, int] = field(init=False, repr=False)
    edge_names: tuple[tuple[str, str], ...] = field(
        init=False, repr=False, compare=False
    )
    edge_id: dict[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    edge_buyer: tuple[int, ...] = field(init=False, repr=False, compare=False)
    edge_good: tuple[int, ...] = field(init=False, repr=False, compare=False)
    utility: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    utility_pair: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False
    )
    budget: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    buyer_edges: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    good_edges: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False
    )
    stats: InstanceStats = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("budgets", "utilities"):
            values = getattr(self, name)
            object.__setattr__(self, name, {k: _exact(v) for k, v in values.items()})
        buyer_pos = {b: k for k, b in enumerate(self.buyers)}
        good_pos = {g: k for k, g in enumerate(self.goods)}
        object.__setattr__(self, "buyer_pos", buyer_pos)
        object.__setattr__(self, "good_pos", good_pos)
        self._validate()
        # each edge as (buyer, good, utility), in canonical order
        edge_buyer, edge_good, utility = zip(
            *sorted(
                (buyer_pos[b], good_pos[g], u) for (b, g), u in self.utilities.items()
            )
        )
        names = tuple(
            zip(
                map(self.buyers.__getitem__, edge_buyer),
                map(self.goods.__getitem__, edge_good),
            )
        )
        buyer_edges: list[list[int]] = [[] for _ in self.buyers]
        good_edges: list[list[int]] = [[] for _ in self.goods]
        for e, b in enumerate(edge_buyer):
            buyer_edges[b].append(e)
        for e, g in enumerate(edge_good):
            good_edges[g].append(e)
        derived = {
            "edge_names": names,
            "edge_id": dict(zip(names, range(len(names)))),
            "edge_buyer": edge_buyer,
            "edge_good": edge_good,
            "utility": utility,
            "utility_pair": tuple(map(Fraction.as_integer_ratio, utility)),
            "budget": tuple(map(self.budgets.__getitem__, self.buyers)),
            "buyer_edges": tuple(map(tuple, buyer_edges)),
            "good_edges": tuple(map(tuple, good_edges)),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "stats", compute_stats(self))

    def _validate(self) -> None:
        if len(self.buyer_pos) != len(self.buyers):
            raise InstanceError("duplicate buyer id")
        if len(self.good_pos) != len(self.goods):
            raise InstanceError("duplicate good id")
        if not self.buyers or not self.goods:
            raise InstanceError("instance needs at least one buyer and one good")
        for b in self.buyers:
            if b not in self.budgets or self.budgets[b] <= 0:
                raise InstanceError(f"non-positive budget for buyer {b}")
        for b in self.budgets:
            if b not in self.buyer_pos:
                raise InstanceError(f"budget for unknown buyer {b}")
        for (b, g), u in self.utilities.items():
            if b not in self.buyer_pos:
                raise InstanceError(f"utility for unknown buyer {b}")
            if g not in self.good_pos:
                raise InstanceError(f"utility for unknown good {g}")
            if u <= 0:
                raise InstanceError(f"non-positive utility for ({b}, {g})")
        valued_buyers = {b for b, _ in self.utilities}
        valued_goods = {g for _, g in self.utilities}
        for b in self.buyers:
            if b not in valued_buyers:
                raise InstanceError(f"isolated buyer {b}")
        for g in self.goods:
            if g not in valued_goods:
                raise InstanceError(f"isolated good {g}")

    def edges(self) -> list[tuple[str, str]]:
        """Positive-utility pairs in canonical (buyer, good) document order."""
        return list(self.edge_names)


@dataclass(frozen=True)
class InstanceStats:
    """Derived constants of an instance.

    ``n`` counts buyers plus goods, ``m`` the positive-utility pairs.
    ``d_bound`` exceeds the denominator of every equilibrium price,
    spending and refund (not of the quantities), so each positive one of
    them exceeds ``1 / d_bound``; the halving solver stops once its scale
    is safely below that floor.  :func:`compute_stats` gives the proof.
    """

    n: int
    m: int
    u_max: Fraction
    e_max: Fraction
    d_bound: Fraction


def compute_stats(inst: MarketInstance) -> InstanceStats:
    """Compute ``n``, ``m``, the extreme data values, and the denominator bound.

    Every instance derives its stats once, when it is built, and keeps them
    as ``inst.stats``; the solvers read that field.

    The bound is ``D = n * L * U**k``: ``L`` is the lcm of the utility and
    budget denominators (the perturbation makes utilities rational),
    ``U = u_max * L`` bounds every cleared utility ``L * u``, an integer,
    and ``k = min(#buyers, #goods - 1)``.  Every equilibrium price,
    spending and refund has a denominator below ``D``.  The generic
    support is a forest; take one component ``C`` with buyers ``B_C`` and
    goods ``G_C``.

    - A lone buyer is refunded its whole budget: the denominator divides
      ``L``.
    - Otherwise root the tree at a good.  A buyer with child goods has one
      parent edge; let ``Delta`` be the product of ``L * u`` over those
      edges.  At most ``min(|B_C|, |G_C| - 1) <= k`` buyers have children,
      so ``Delta <= U**k``.
    - Each price is ``p_root * r_g``, ``r_g`` the product of
      ``u(b, child) / u(b, parent)`` along the path to ``g``.  Then
      ``r_g * Delta`` is a product of at most ``k`` cleared utilities: an
      integer of at most ``U**k``.
    - If every buyer of ``C`` spends its budget ``E_C`` in total, prices
      add up to it: ``p_g = E_C * (r_g * Delta) / S`` with the integer
      ``S = sum(r_g * Delta) <= |G_C| * U**k``, so the denominator
      divides ``L * S``.
    - Otherwise a buyer ``a`` of ``C`` keeps a refund, so it is at
      bang-per-buck one (a generic component has one such buyer at most);
      rooted at a good ``g_a`` of ``a``, ``p_g = u(a, g_a) * r_g``, and
      the denominator divides ``L * Delta``.
    - Spending is the tree flow of these budgets and prices (``a``'s
      refund is the one unknown), and a refund is a budget minus
      spending, so both have denominators dividing the same ``L * S`` or
      ``L * Delta``.

    As ``|G_C| < n``, each denominator is below ``D``, so every positive
    coordinate exceeds ``1 / D``.  With ``k = 0`` (one good) every
    denominator divides ``L``.
    """
    n = len(inst.buyers) + len(inst.goods)
    m = len(inst.utilities)
    u_max = max(inst.utilities.values())
    e_max = max(inst.budgets.values())
    lcm_den = 1
    for u in inst.utilities.values():
        lcm_den = math.lcm(lcm_den, u.denominator)
    for e in inst.budgets.values():
        lcm_den = math.lcm(lcm_den, e.denominator)
    k = min(len(inst.buyers), len(inst.goods) - 1)
    d_bound = Q(n * lcm_den) * (u_max * lcm_den) ** k
    return InstanceStats(n=n, m=m, u_max=u_max, e_max=e_max, d_bound=d_bound)


@dataclass(frozen=True)
class PerturbationConfig:
    """How utilities are nudged off degenerate ties.

    ``magnitude`` (sigma) must stay below ``1 / (2 * n * m * u_max)`` so the
    perturbed utilities remain within a factor two of the originals; zero
    disables the perturbation.  Draws are deterministic in ``seed``.
    """

    magnitude: Fraction
    seed: int

    def validate_for(self, inst: MarketInstance) -> None:
        if self.magnitude < 0:
            raise InstanceError("perturbation magnitude must be >= 0")
        if self.magnitude == 0:
            return
        _exact(self.magnitude)  # perturb reads its integer ratio
        stats = inst.stats
        bound = Q(1, 2 * stats.n * stats.m) / stats.u_max
        if self.magnitude >= bound:
            raise InstanceError(
                f"perturbation magnitude {self.magnitude} too large;"
                f" must be below {bound}"
            )


def default_magnitude(inst: MarketInstance) -> Fraction:
    """Default sigma: the invariant bound ``1/(2*n*m*u_max)`` divided by ``10**6``."""
    stats = inst.stats
    return Q(1, 2 * stats.n * stats.m * 10**6) / stats.u_max


# Resolution of the random offsets drawn for the perturbation.  Kept small
# because the offsets' denominators feed the d_bound of the perturbed
# instance and thus the number of halving phases the weak solver runs.  The
# draws must be distinct, so a market with m >= 2**13 utility entries uses
# the smallest power of two above m instead; below that every perturbed
# instance is the same as with the fixed resolution.
EPSILON_RESOLUTION = 1 << 13


def perturb(inst: MarketInstance, cfg: PerturbationConfig) -> MarketInstance:
    """Replace each utility by ``u * (1 + sigma * eps)`` with distinct eps.

    The offsets ``eps`` are distinct rationals in (0, 1) drawn
    deterministically from ``cfg.seed``, so the same seed always yields the
    same perturbed instance.  Sparsity is preserved exactly and each
    perturbed utility lies strictly between ``u`` and ``u * (1 + sigma)``.

    With ``u = u_n / u_d``, ``sigma = s_n / s_d`` and ``eps = a / R``, the
    new utility is ``u_n * (s_d * R + s_n * a) / (u_d * s_d * R)``, put in
    lowest terms by one gcd.
    """
    cfg.validate_for(inst)
    if cfg.magnitude == 0:
        return inst
    edges = inst.edge_names
    resolution = max(EPSILON_RESOLUTION, 1 << len(edges).bit_length())
    rng = random.Random(cfg.seed)
    numerators = rng.sample(range(1, resolution), len(edges))
    s_n, s_d = cfg.magnitude.as_integer_ratio()
    scale = s_d * resolution
    utilities = dict(inst.utilities)
    for edge, (u_n, u_d), a in zip(edges, inst.utility_pair, numerators):
        utilities[edge] = reduced(u_n * (scale + s_n * a), u_d * scale)
    return MarketInstance(
        buyers=inst.buyers,
        goods=inst.goods,
        budgets=dict(inst.budgets),
        utilities=utilities,
    )


def instance_from_document(doc: object) -> MarketInstance:
    """Build a validated instance from a parsed document structure."""
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be an object")
    try:
        buyer_rows = doc["buyers"]
        good_rows = doc["goods"]
        utility_rows = doc["utilities"]
    except KeyError as exc:
        raise InstanceError(f"missing field {exc.args[0]!r}") from None
    for name, rows in (
        ("buyers", buyer_rows),
        ("goods", good_rows),
        ("utilities", utility_rows),
    ):
        if not isinstance(rows, list):
            raise InstanceError(f"field {name!r} must be an array")
    buyers: list[str] = []
    budgets: dict[str, Fraction] = {}
    for row in buyer_rows:
        if not isinstance(row, dict) or "id" not in row or "budget" not in row:
            raise InstanceError(f"malformed buyer row: {row!r}")
        bid = _id(row["id"])
        if bid in budgets:
            raise InstanceError(f"duplicate buyer id {bid}")
        buyers.append(bid)
        budgets[bid] = parse_rational(row["budget"])
    goods = [_id(gid) for gid in good_rows]
    utilities: dict[tuple[str, str], Fraction] = {}
    for row in utility_rows:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise InstanceError(f"malformed utility row: {row!r}")
        key = (_id(row[0]), _id(row[1]))
        if key in utilities:
            raise InstanceError(f"duplicate utility entry for {key}")
        utilities[key] = parse_rational(row[2])
    return MarketInstance(
        buyers=tuple(buyers), goods=tuple(goods), budgets=budgets, utilities=utilities
    )


def load_instance(path: str) -> MarketInstance:
    """Load and validate an instance document from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    # JSONDecodeError or an over-long JSON integer; RecursionError on
    # arrays or objects nested too deep for the decoder
    except (ValueError, RecursionError) as exc:
        raise InstanceError(f"cannot parse {path}: {exc}") from exc
    return instance_from_document(doc)
