"""Instance lists of the benchmark workloads, rebuilt from ``suite.json``.

Every instance is regenerated from the generator, parameters and seeds
recorded in ``suite.json``, so the same file always yields the same
markets.  The ``arcticauction`` imports sit inside the functions on
purpose: the benchmark times a fresh import of the package as part of its
set-up, and these functions must use the modules of that import.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SUITE_PATH = Path(__file__).resolve().with_name("suite.json")


def load_suite(path: Path = SUITE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def random_draw(seed: int, sizes: list[int]):
    """One seeded draw of ``randgen.random_instance`` markets, one per size."""
    from arcticauction.randgen import random_instance

    rng = random.Random(seed)
    return [random_instance(n, rng) for n in sizes]


def wide_instance(seed: int, n_range: list[int], max_exp: int):
    """A random market whose budgets are powers of two in ``2^0 .. 2^max_exp``.

    The graph and utilities come from ``randgen.random_instance``; only the
    budgets are redrawn.  Budgets that differ by many orders of magnitude
    are what drives the strong solver into its compressed restart.
    """
    from arcticauction.core import MarketInstance
    from arcticauction.randgen import random_instance

    rng = random.Random(seed)
    n = rng.randint(n_range[0], n_range[1])
    base = random_instance(n, rng)
    budgets = {b: Fraction(2 ** rng.randint(0, max_exp)) for b in base.buyers}
    return MarketInstance(
        buyers=base.buyers, goods=base.goods, budgets=budgets, utilities=base.utilities
    )


@dataclass
class Item:
    """One instance of a workload with what is needed to solve and check it."""

    name: str
    instance: object
    algorithm: str
    seed: int
    digest: str
    weight: int = 1


def build_items(suite: dict, workload: str) -> list[Item]:
    """The fixed instance list of ``workload``, in suite order."""
    spec = suite["workloads"][workload]
    draws: dict[str, list] = {}

    def drawn(source: str) -> list:
        if source not in draws:
            params = suite["workloads"][source]["draw"]
            draws[source] = random_draw(params["seed"], params["sizes"])
        return draws[source]

    items = []
    for entry in spec["instances"]:
        if "draw_index" in entry:
            inst = drawn(entry.get("from", workload))[entry["draw_index"]]
        else:
            inst = wide_instance(entry["wide_seed"], **spec["wide"])
        items.append(
            Item(
                name=entry["name"],
                instance=inst,
                algorithm=spec["algorithm"],
                seed=spec["perturb_seed"],
                digest=entry["digest"],
                weight=entry.get("weight", 1),
            )
        )
    return items


def instance_document(inst) -> dict:
    """The instance in the CLI's JSON input format, in document order."""
    from arcticauction.core import format_rational

    return {
        "buyers": [
            {"id": b, "budget": format_rational(inst.budgets[b])} for b in inst.buyers
        ],
        "goods": list(inst.goods),
        "utilities": [
            [b, g, format_rational(inst.utilities[(b, g)])] for b, g in inst.edges()
        ],
    }


def equilibrium_digest(inst, prices: dict, spending: dict, refunds: dict) -> str:
    """SHA-256 over every price and refund and all nonzero spending."""
    from arcticauction.core import format_rational

    zero = Fraction(0)
    parts = [f"p {g} {format_rational(prices[g])}" for g in inst.goods]
    parts += [
        f"s {b} {g} {format_rational(value)}"
        for (b, g), value in sorted(spending.items())
        if value != 0
    ]
    parts += [f"r {b} {format_rational(refunds.get(b, zero))}" for b in inst.buyers]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()
