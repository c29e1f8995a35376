"""Every function the benchmark's layer table names resolves, but for a
known few.

``perfbench/suite.json`` names the package functions the benchmark times,
as ``module:qualname`` (its ``layers``, and the ``transparent`` functions
it times through), and a name the package no longer defines leaves its
layer untimed with only a note on stderr.  This check resolves every name
by import and attribute lookup, as the benchmark's tracer does, and pins
the unresolved set to the names already known dead: the same nine that the
benchmark smoke step of the CI workflow lists.  A rename or deletion in
the package that kills one more name fails here; a change that mends a
name takes it off this list too.
"""

import importlib
import json
from pathlib import Path

SUITE = Path(__file__).resolve().parent.parent / "perfbench" / "suite.json"

KNOWN_DEAD = {
    "arcticauction.basic:forest_components",
    "arcticauction.graph:ResidualNetwork.__post_init__",
    "arcticauction.graph:ResidualNetwork.bfs",
    "arcticauction.graph:bang_per_buck",
    "arcticauction.graph:components_of_abundant_graph",
    "arcticauction.graph:equality_graph",
    "arcticauction.graph:state_alphas",
    "arcticauction.trace:PhaseTrace.end_phase",
    "arcticauction.weak:network",
}


def suite_names() -> list[str]:
    suite = json.loads(SUITE.read_text(encoding="utf-8"))
    names = [spec for layer in suite["layers"] for spec in layer["functions"]]
    return names + list(suite["transparent"])


def resolves(spec: str) -> bool:
    module, qualname = spec.split(":")
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return True


def test_only_the_known_dead_layer_names_fail_to_resolve():
    names = suite_names()
    assert len(names) > len(KNOWN_DEAD)
    assert {spec for spec in names if not resolves(spec)} == KNOWN_DEAD

