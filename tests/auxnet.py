"""The auxiliary network of a solver state, a soundness check for tests.

Forward arcs carry utilities and backward arcs (on abundant edges) their
reciprocals; at a sound state no directed cycle multiplies to more than
one, and the best path product between two goods matches their price
ratio once price raising has connected them.  The solvers never need this
network, so it lives with the tests that check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from arcticauction.core import MarketInstance
from arcticauction.errors import GenericityError
from arcticauction.rational import ONE

Node = int  # buyer i, or good j as B + j, as in arcticauction.graph
Edge = tuple[str, str]  # (buyer id, good id)


@dataclass
class AuxNetwork:
    """Weighted digraph whose best path products match price ratios.

    Forward arcs carry the utility, backward arcs (only on abundant edges,
    named by id strings) its reciprocal; at any feasible state no directed
    cycle multiplies to more than one, so best path products are well
    defined.  Nodes are numbered as in the solvers' graph.
    """

    inst: MarketInstance
    arcs: list[tuple[Node, Node, Fraction]]

    @classmethod
    def build(cls, inst: MarketInstance, abundant: set[Edge]) -> "AuxNetwork":
        arcs: list[tuple[Node, Node, Fraction]] = []
        n_buyers = len(inst.buyers)
        nodes = [
            (inst.edge_buyer[e], n_buyers + inst.edge_good[e])
            for e in range(len(inst.edge_names))
        ]
        for e, (b, g) in enumerate(nodes):
            arcs.append((b, g, inst.utility[e]))
        for e in sorted(inst.edge_id[edge] for edge in abundant):
            b, g = nodes[e]
            arcs.append((g, b, 1 / inst.utility[e]))
        return cls(inst=inst, arcs=arcs)

    def node_count(self) -> int:
        return len(self.inst.buyers) + len(self.inst.goods)


def max_multiplier(aux: AuxNetwork, source: Node, sink: Node) -> Fraction | None:
    """Maximum product of arc weights over directed paths source -> sink.

    Computed by rounds of multiplicative relaxation; a round beyond the
    longest simple path still improving something certifies a cycle with
    product above one, which a sound state never contains.  Returns None
    when the sink is unreachable; the empty path gives one for the source
    itself.
    """
    n = aux.node_count()
    unreached = -ONE
    best: dict[Node, Fraction] = {source: ONE}
    for _ in range(n - 1):
        changed = False
        for tail, head, weight in aux.arcs:
            if tail in best:
                value = best[tail] * weight
                if value > best.get(head, unreached):
                    best[head] = value
                    changed = True
        if not changed:
            break
    else:
        for tail, head, weight in aux.arcs:
            if tail in best and best[tail] * weight > best.get(head, unreached):
                raise GenericityError("cycle with weight product above one")
    return best.get(sink)


def assert_cycle_bound(aux: AuxNetwork) -> None:
    """Verify no directed cycle has weight product above one."""
    best: dict[Node, Fraction] = {}
    for tail, head, _ in aux.arcs:
        best.setdefault(tail, ONE)
        best.setdefault(head, ONE)
    n = max(aux.node_count(), 1)
    for round_index in range(n):
        changed = False
        for tail, head, weight in aux.arcs:
            value = best[tail] * weight
            if value > best[head]:
                best[head] = value
                changed = True
        if not changed:
            return
    if changed:
        raise GenericityError("cycle with weight product above one")
