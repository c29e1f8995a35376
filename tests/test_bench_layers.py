"""Every function the benchmark's layer table names resolves, but for a
known few, and a traced solve calls each counted function as often as the
benchmark's counters say.

``perfbench/suite.json`` names the package functions the benchmark times,
as ``module:qualname`` (its ``layers``, and the ``transparent`` functions
it times through), and a name the package no longer defines leaves its
layer untimed with only a note on stderr.  This check resolves every name
by import and attribute lookup, as the benchmark's tracer does, and pins
the unresolved set to the names already known dead: the same nine that the
benchmark smoke step of the CI workflow lists.  A rename or deletion in
the package that kills one more name fails here; a change that mends a
name takes it off this list too.  The two functions the traced run hooks
to count termination attempts must resolve as well.

The traced run (``perfbench/run.py --trace 1``) also checks that each
wrapped function is called exactly as often as the solve's own counters
imply (``run.solve_counts``' ``expect`` table: one ``basic_solution`` per
strong phase, one ``check_genericity`` per phase, and so on).  The last
test installs the benchmark's tracer on one strong and one weak solve and
makes the same check, so a change that moves a count fails here and not
only in the benchmark's smoke run.  It only reads ``perfbench/``.
"""

import importlib
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from arcticauction import driver
from arcticauction.randgen import random_instance

from conftest import wide_instance

ROOT = Path(__file__).resolve().parent.parent
SUITE = ROOT / "perfbench" / "suite.json"
RUN = ROOT / "perfbench" / "run.py"

# the functions the traced run counts through hooks, without a span
HOOKS = (
    "arcticauction.strong:_termination_candidate",
    "arcticauction.weak:certify_state",
)

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


def load_suite() -> dict:
    return json.loads(SUITE.read_text(encoding="utf-8"))


def suite_names() -> list[str]:
    suite = load_suite()
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


def test_the_hooked_functions_resolve():
    source = RUN.read_text(encoding="utf-8")
    for spec in HOOKS:
        assert f'"{spec}"' in source
        assert resolves(spec), spec


@pytest.mark.parametrize(
    "algorithm, inst",
    [
        ("strong", wide_instance(14)),
        ("weak", random_instance(6, random.Random(1))),
    ],
    ids=["strong-wide-14", "weak-random-6"],
)
def test_traced_call_counts_match_the_counters(algorithm, inst):
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench.run import solve_counts
    from perfbench.spans import OTHER, Tracer

    suite = load_suite()
    layers = suite["layers"] + [{"name": OTHER, "functions": suite["transparent"]}]
    tracer = Tracer()
    tracer.install(layers, {spec: lambda result: None for spec in HOOKS})
    try:
        outcome = tracer.root(lambda: driver.solve_instance(inst, algorithm))()
    finally:
        tracer.remove()
    assert outcome.retries_used == 0
    api = {"core": sys.modules["arcticauction.core"]}
    counts = solve_counts(api, SimpleNamespace(algorithm=algorithm), outcome)
    expected = {
        key[len("expect."):]: value
        for key, value in counts.items()
        if key.startswith("expect.")
    }
    assert set(tracer.missing) == KNOWN_DEAD
    checked = {spec: value for spec, value in expected.items() if spec not in KNOWN_DEAD}
    assert checked["arcticauction.oracle:check_genericity"] > 1
    seen = {spec: tracer.function_calls.get(spec, 0) for spec in checked}
    assert seen == checked
