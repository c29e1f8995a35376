"""Tests of the benchmark itself: tracing changes nothing, the instance
lists are reproducible, and each workload has the restart property its
rationale claims.

Run from the repository root with ``python3 -m pytest perfbench/tests``;
the restart test solves every solver-workload instance once (about half a
minute).
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import arcticauction
from arcticauction import cli, core, driver, oracle
from perfbench import reference, run
from perfbench.spans import OTHER, Tracer
from perfbench.suite import build_items, equilibrium_digest, instance_document, load_suite

ROOT = Path(__file__).resolve().parents[2]
SUITE = load_suite()
API = {name: sys.modules[f"arcticauction.{name}"] for name in ("cli", "core", "driver", "oracle")}


def item_named(workload, name):
    return next(i for i in build_items(SUITE, workload) if i.name == name)


def result_bytes(item):
    outcome = driver.solve_instance(item.instance, item.algorithm, seed=item.seed)
    eq, trace = outcome.results[item.algorithm]
    doc = {
        "equilibrium": cli.equilibrium_doc(item.instance, eq),
        "stats": trace.stats_doc(),
        "trace": trace.to_lines(),
    }
    return json.dumps(doc, sort_keys=True).encode(), outcome


@pytest.mark.parametrize(
    "workload, name",
    [
        ("cli_roundtrip", "cli_roundtrip-0-n10"),
        ("weak_halving", "weak_halving-0-n8"),
        ("strong_restart", "wide-14-n11"),
    ],
)
def test_wrapped_solve_is_byte_identical(workload, name):
    item = item_named(workload, name)
    plain, outcome = result_bytes(item)
    counts = run.solve_counts(API, item, outcome)

    tracer = Tracer()
    layers = SUITE["layers"] + [{"name": OTHER, "functions": SUITE["transparent"]}]
    tracer.install(layers)
    try:
        traced, _ = tracer.root(result_bytes)(item)
    finally:
        tracer.remove()

    assert traced == plain
    assert tracer.missing == []
    assert core.perturb is arcticauction.perturb  # every binding restored
    assert sum(tracer.self_ns.values()) == tracer.root_ns
    for key, value in counts.items():
        if key.startswith("expect."):
            assert tracer.function_calls[key[len("expect."):]] == value, key


def test_instance_lists_are_reproducible():
    for workload, spec in SUITE["workloads"].items():
        first = [instance_document(i.instance) for i in build_items(SUITE, workload)]
        second = [instance_document(i.instance) for i in build_items(SUITE, workload)]
        assert first == second
        assert len(first) == len(spec["instances"])
        for doc, entry in zip(first, spec["instances"]):
            assert len(doc["buyers"]) + len(doc["goods"]) == entry["n"]
            assert len(doc["utilities"]) == entry["m"]
            assert len(entry["digest"]) == 64


@pytest.mark.parametrize("workload", ["strong_random", "strong_restart", "weak_halving"])
def test_restart_property_and_digests(workload):
    for item in build_items(SUITE, workload):
        outcome = driver.solve_instance(item.instance, item.algorithm, seed=item.seed)
        eq, trace = outcome.results[item.algorithm]
        assert equilibrium_digest(item.instance, eq.prices, eq.spending, eq.refunds) == item.digest
        assert oracle.check_equilibrium(outcome.perturbed, eq.prices, eq.spending, eq.refunds).ok
        if workload == "strong_restart":
            assert trace.restart_count >= 1, item.name
        else:
            assert trace.restart_count == 0, item.name


def test_cli_request_passes_its_checks(tmp_path):
    item = item_named("cli_roundtrip", "cli_roundtrip-0-n10")
    (tmp_path / f"{item.name}.json").write_text(json.dumps(instance_document(item.instance)))
    response = run.cli_request(API, item, tmp_path)
    run.check_cli(API, item, response, tmp_path)
    counts = run.cli_counts(API, item)
    assert counts["expect.arcticauction.cli:cmd_verify"] == 1


def test_digest_mismatch_is_a_failure():
    item = item_named("cli_roundtrip", "cli_roundtrip-0-n10")
    outcome = driver.solve_instance(item.instance, item.algorithm, seed=item.seed)
    item.digest = "0" * 64
    with pytest.raises(run.CheckFailed):
        run.check_solve(API, item, outcome)


def test_probe_samples_during_the_call_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with reference.Probe() as probe:
        deadline = time.perf_counter() + 5 * reference.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(probe.samples) >= 4  # before, at least two during, after
    assert 0 < probe.wall < 5 * reference.PERIOD_S
    assert probe.scaled > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_without_sources_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_roundtrip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
