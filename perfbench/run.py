"""Benchmark of the arcticauction solvers: one workload per run, closed loop.

Usage, from the repository root::

    python3 perfbench/run.py --workload strong_random --seed 1 --seconds 25 --trace 0

A run times the package's public entry points -- ``driver.solve_instance``
for the solver workloads, ``cli.main`` for ``cli_roundtrip`` -- on the
fixed instance list of one workload from ``suite.json``.  One client solves
one instance at a time in one process.  Whole passes over the list repeat
until ``--seconds`` have passed; ``--seed`` only shuffles the order within
each pass, so every run measures the same work and checks it against the
same recorded digests.

Outside the timed region every result is certified again with
``oracle.check_equilibrium`` on the perturbed instance and its equilibrium
digest is compared with ``suite.json``.  Any failure makes the run exit 1.

Every time is measured as wall time and reported in seconds at the
reference speed: a short fixed standard-library loop (``reference.py``) is
timed before, every 20 ms during, and after each timed call, and the
call's own wall time is scaled by how much slower than usual that loop ran
meanwhile.  This takes out the swings in speed of the shared host, which
would otherwise move the same instance's time by up to 1.8x between runs.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: median of several fresh imports of the package plus
  instance generation (and, for the CLI, writing the documents);
* ``instance_s.p50`` / ``instance_s.max``: median and largest instance
  time, each instance's time being the median of its solves in the run;
* ``certified_per_s``: certified instances per second over one pass;
* ``certified_frac``: certified / attempted, that is 1 - ``failed_frac``;
* ``peak_rss_mb``: the process's peak resident set.

With ``--trace 1`` untraced and traced passes alternate, and the last line
reports, per traced pass, each layer's ``self_s``, ``calls`` and
``share`` of instance time (see ``spans.py``), the exact ``count.*``
solver counts, and the tracing overhead.  Every metric is also printed by
name with its unit before that line, and the ``count.*`` metrics and
``failed_frac`` are printed in untraced runs too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import reference  # noqa: E402
from perfbench.spans import OTHER, Tracer  # noqa: E402
from perfbench.suite import (  # noqa: E402
    build_items,
    equilibrium_digest,
    instance_document,
    load_suite,
)

SETUP_REPEATS = 7
PACKAGE_MODULES = ("arcticauction", "arcticauction.cli", "arcticauction.randgen")
SUM_COUNTS = (
    "phases",
    "steps.refund",
    "steps.augment_buyer",
    "steps.augment_good",
    "steps.restart_repair",
    "restarts.compressed",
    "restarts.delayed",
    "special_price_iterations",
    "retries",
)
MAX_COUNTS = ("post_restart_steps.max", "price_bits.max", "d_bound_bits.max")


class CheckFailed(Exception):
    """A result or a run-wide consistency check is wrong."""


def bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


# --- set-up ------------------------------------------------------------------


def fresh_import() -> dict:
    """Import the package from scratch and return the modules the loop uses."""
    for name in [m for m in sys.modules if m.split(".")[0] == "arcticauction"]:
        del sys.modules[name]
    for name in PACKAGE_MODULES:
        importlib.import_module(name)
    return {name.rpartition(".")[2]: sys.modules[name] for name in sys.modules
            if name.startswith("arcticauction.")}


def set_up(suite: dict, workload: str, work_dir: Path):
    """Import plus instance generation (and documents for the CLI), timed
    ``SETUP_REPEATS`` times; returns the median seconds at the reference
    speed, the modules and the items."""
    times = []
    for _ in range(SETUP_REPEATS):
        with reference.Probe() as probe:
            api = fresh_import()
            items = build_items(suite, workload)
            if workload == "cli_roundtrip":
                for item in items:
                    with open(work_dir / f"{item.name}.json", "w", encoding="utf-8") as handle:
                        json.dump(instance_document(item.instance), handle)
        times.append(probe.scaled)
    where = Path(api["core"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise CheckFailed(f"arcticauction imported from {where}, not from {SRC}")
    return statistics.median(times), api, items


# --- one request and its check -----------------------------------------------


def solve_request(api: dict, item, work_dir: Path):
    return api["driver"].solve_instance(item.instance, item.algorithm, seed=item.seed)


def cli_request(api: dict, item, work_dir: Path):
    doc, result, trace = (work_dir / f"{item.name}{ext}" for ext in (".json", ".out.json", ".jsonl"))
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        solved = api["cli"].main(
            ["solve", "--input", str(doc), "--algorithm", item.algorithm,
             "--output", str(result), "--trace", str(trace), "--seed", str(item.seed)]
        )
        verified = None
        if solved == 0:
            verified = api["cli"].main(["verify", "--input", str(doc), "--solution", str(result)])
    return solved, verified, report.getvalue()


def check_result(api: dict, item, perturbed, prices, spending, refunds) -> None:
    """Certify on the perturbed instance and compare the recorded digest."""
    cert = api["oracle"].check_equilibrium(perturbed, prices, spending, refunds)
    if not cert.ok:
        raise CheckFailed(f"{item.name}: certificate fails {cert.failed()}")
    digest = equilibrium_digest(item.instance, prices, spending, refunds)
    if digest != item.digest:
        raise CheckFailed(f"{item.name}: equilibrium digest {digest[:12]} != {item.digest[:12]}")


def check_solve(api: dict, item, outcome) -> None:
    eq, _ = outcome.results[item.algorithm]
    check_result(api, item, outcome.perturbed, eq.prices, eq.spending, eq.refunds)


def check_cli(api: dict, item, response, work_dir: Path) -> None:
    solved, verified, report = response
    if solved != 0 or verified != 0:
        raise CheckFailed(f"{item.name}: solve exit {solved}, verify exit {verified}")
    if f"[{item.algorithm}] PASS" not in report or "FAIL" in report:
        raise CheckFailed(f"{item.name}: verify report does not pass")
    core = api["core"]
    with open(work_dir / f"{item.name}.out.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    section = doc["results"][item.algorithm]["equilibrium"]
    prices = {g: core.parse_rational(v) for g, v in section["prices"].items()}
    spending = {(b, g): core.parse_rational(v) for b, g, v in section["spending"]}
    refunds = {b: core.parse_rational(v) for b, v in section["refunds"].items()}
    sigma = core.parse_rational(doc["perturbation"]["sigma"])
    config = core.PerturbationConfig(magnitude=sigma, seed=int(doc["perturbation"]["seed"]))
    perturbed = core.perturb(item.instance, config)
    check_result(api, item, perturbed, prices, spending, refunds)
    with open(work_dir / f"{item.name}.jsonl", encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle]
    if sum(1 for e in events if e["event"] == "phase") != doc["results"][item.algorithm]["stats"]["phases"]:
        raise CheckFailed(f"{item.name}: trace and result document disagree on phases")


# --- exact counts from PhaseTrace and SolveOutcome ---------------------------


def solve_counts(api: dict, item, outcome) -> Counter:
    """Exact counts of one solve, plus the layer calls they imply."""
    eq, trace = outcome.results[item.algorithm]
    counts: Counter = Counter()
    counts["phases"] = trace.phase_count
    for row in trace.rows:
        counts[f"steps.{row.kind}"] += 1
    for record in trace.restarts:
        counts[f"restarts.{record.branch}"] += 1
    counts["special_price_iterations"] = sum(trace.special_price_iterations)
    counts["retries"] = outcome.retries_used
    counts["post_restart_steps.max"] = max(
        (mark.iterations for mark in trace.phases if mark.entry == "restart"), default=0
    )
    counts["price_bits.max"] = max(bits(p) for p in eq.prices.values())
    counts["d_bound_bits.max"] = bits(api["core"].compute_stats(outcome.perturbed).d_bound)

    # Calls each wrapped function must see for this solve; a wrapper that
    # sees fewer missed a binding.
    inner_steps = len(trace.rows) - counts["steps.restart_repair"]
    expect = {
        "arcticauction.driver:solve_instance": 1,
        "arcticauction.core:perturb": outcome.retries_used + 1,
        "arcticauction.weak:inner_step": inner_steps,
        "arcticauction.weak:is_delta_feasible": inner_steps + counts["restarts.compressed"],
        "arcticauction.weak:potential": 2 * len(trace.rows) + trace.phase_count,
        "arcticauction.weak:halve_and_repair": sum(1 for m in trace.phases if m.entry == "halve"),
        "arcticauction.oracle:check_genericity": trace.phase_count,
        "arcticauction.trace:PhaseTrace.begin_phase": trace.phase_count,
        "arcticauction.trace:PhaseTrace.end_phase": trace.phase_count,
        "arcticauction.strong:make_fertile": len(trace.restarts),
        "arcticauction.basic:basic_solution": trace.phase_count if item.algorithm == "strong" else 1,
    }
    for key, value in expect.items():
        counts[f"expect.{key}"] = value
    return counts


def cli_counts(api: dict, item) -> Counter:
    """Counts of the CLI request: the same solve through the driver, plus
    the verify step's own calls."""
    outcome = api["driver"].solve_instance(item.instance, item.algorithm, seed=item.seed)
    counts = solve_counts(api, item, outcome)
    check_solve(api, item, outcome)
    counts["expect.arcticauction.core:perturb"] += 1
    counts["expect.arcticauction.cli:cmd_verify"] = 1
    return counts


def total_counts(per_item: list[Counter]) -> Counter:
    total: Counter = Counter()
    for counts in per_item:
        for key, value in counts.items():
            if key in MAX_COUNTS:
                total[key] = max(total[key], value)
            else:
                total[key] += value
    return total


# --- the closed loop ---------------------------------------------------------


class Loop:
    """Runs passes over the items and keeps times, failures and counts."""

    def __init__(self, workload: str, api: dict, items: list, seed: int, work_dir: Path):
        self.api = api
        self.items = items
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.cli = workload == "cli_roundtrip"
        self.request = cli_request if self.cli else solve_request
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, Counter] = {}
        self.wall: list[float] = []

    def run_pass(self, request=None) -> dict[str, list[float]]:
        """One pass, each item ``weight`` times, in seed-shuffled order;
        returns the solve times of each item at the reference speed.  The
        wall times go to ``self.wall``."""
        request = request or self.request
        order = [item for item in self.items for _ in range(item.weight)]
        self.rng.shuffle(order)
        times: dict[str, list[float]] = {item.name: [] for item in self.items}
        for item in order:
            gc.collect()
            self.attempted += 1
            with reference.Probe() as probe:
                try:
                    response = request(self.api, item, self.work_dir)
                except Exception:  # noqa: BLE001 - every failure is counted
                    response = None
                    error = traceback.format_exc(limit=3)
            times[item.name].append(probe.scaled)
            self.wall.append(probe.wall)
            try:
                if response is None:
                    raise CheckFailed(f"{item.name}: request raised\n{error}")
                self.check(item, response)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                self.failed += 1
                print(f"FAILED {exc}", file=sys.stderr)
            # Freed before the next solve, so its garbage collections do not
            # walk this result, whose size depends on the shuffled order.
            response = None
        return times

    def check(self, item, response) -> None:
        if self.cli:
            check_cli(self.api, item, response, self.work_dir)
            if item.name not in self.counts:
                self.counts[item.name] = cli_counts(self.api, item)
        else:
            check_solve(self.api, item, response)
            if item.name not in self.counts:
                self.counts[item.name] = solve_counts(self.api, item, response)

    def passes(self, seconds: float, *modes) -> tuple[int, list[dict]]:
        """Whole cycles until ``seconds`` of wall time have gone, at least
        one.  A cycle is one pass per mode, a mode being a request function
        and a context to run its pass in.  Returns the cycle count and, per
        mode, the solve times of each item."""
        modes = modes or ((self.request, contextlib.nullcontext),)
        times: list[dict] = [{item.name: [] for item in self.items} for _ in modes]
        started = time.perf_counter()
        cycles = 0
        while cycles == 0 or time.perf_counter() - started < seconds:
            for (request, context), merged in zip(modes, times):
                with context():
                    for name, samples in self.run_pass(request).items():
                        merged[name] += samples
            cycles += 1
        return cycles, times


def pass_rate(items: list, times: dict) -> float:
    """Instances per second of one pass at each instance's median time."""
    return sum(item.weight for item in items) / sum(
        item.weight * statistics.median(times[item.name]) for item in items
    )


# --- metrics -----------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def count_metrics(totals: Counter, termination: tuple[int, int] | None) -> dict:
    out = {f"count.{key}": metric(totals[key], "count") for key in SUM_COUNTS + MAX_COUNTS}
    if termination is not None:
        attempts, certified = termination
        out["count.termination_certified_ratio"] = metric(
            certified / attempts if attempts else 0.0, "ratio"
        )
    return out


def end_to_end(loop: Loop, times: dict, setup_s: float) -> tuple[dict, str]:
    """End-to-end metrics from each instance's median time in the run.

    Every instance is deterministic, so its repeated solves do the same
    work, and the spread between them is the machine's.  The times are at
    the reference speed (see ``reference.py``), which takes out most of
    the host's swings in speed; the median over the run takes out the rest.
    """
    best = {name: statistics.median(samples) for name, samples in times.items()}
    slowest = max(best, key=best.get)
    certified = loop.attempted - loop.failed
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "instance_s.p50": metric(statistics.median(best.values()), "s"),
        "instance_s.max": metric(best[slowest], "s"),
        "certified_per_s": metric(pass_rate(loop.items, times), "1/s"),
        "certified_frac": metric(certified / loop.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = min(len(times[item.name]) // item.weight for item in loop.items)
    note = (
        f"instance times are the median of {samples} or more solves of each of"
        f" {len(best)} instances, at the reference speed; instance_s.max is"
        f" {slowest}; wall time of all solves: median {statistics.median(loop.wall):.4f} s,"
        f" max {max(loop.wall):.4f} s"
    )
    return metrics, note


def layer_metrics(suite: dict, tracer: Tracer, passes: int) -> dict:
    total = tracer.root_ns
    out = {}
    for name in [layer["name"] for layer in suite["layers"]] + [OTHER]:
        self_ns = tracer.self_ns.get(name, 0)
        out[f"{name}.self_s"] = metric(self_ns / passes / 1e9, "s")
        if name != OTHER:
            out[f"{name}.calls"] = metric(tracer.calls.get(name, 0) // passes, "count")
        out[f"{name}.share"] = metric(self_ns / total if total else 0.0, "ratio")
    return out


def check_trace(tracer: Tracer, loop: Loop, passes: int) -> None:
    """Wrapper counts must match the counters; shares must sum to one."""
    if sum(tracer.self_ns.values()) != tracer.root_ns:
        raise CheckFailed("layer self times do not add up to the instance time")
    if loop.failed:
        return
    per_pass: Counter = Counter()
    for item in loop.items:
        for key, value in loop.counts[item.name].items():
            per_pass[key] += value * item.weight
    if per_pass["retries"]:
        print("note: genericity retries; wrapper call checks skipped", file=sys.stderr)
        return
    for key, value in per_pass.items():
        if not key.startswith("expect."):
            continue
        spec = key[len("expect."):]
        if spec in tracer.missing:
            continue
        seen = tracer.function_calls.get(spec, 0)
        if seen != value * passes:
            raise CheckFailed(f"{spec}: {seen} wrapped calls, counters say {value * passes}")


# --- main --------------------------------------------------------------------


def run(args: argparse.Namespace, suite: dict, work_dir: Path) -> tuple[dict, dict, Loop]:
    setup_s, api, items = set_up(suite, args.workload, work_dir)
    loop = Loop(args.workload, api, items, args.seed, work_dir)
    if not args.trace:
        passes, (times,) = loop.passes(args.seconds)
        metrics, note = end_to_end(loop, times, setup_s)
        print(f"# {passes} passes; {note}")
        totals = total_counts(list(loop.counts.values()))
        extra = count_metrics(totals, None)
        extra["failed_frac"] = metric(loop.failed / loop.attempted, "ratio")
        return metrics, extra, loop

    tracer = Tracer()
    termination = [0, 0]

    def on_candidate(result) -> None:
        termination[0] += 1
        termination[1] += result is not None

    def on_weak_certificate(result) -> None:
        termination[0] += 1
        termination[1] += bool(result.ok)

    layers = suite["layers"] + [{"name": OTHER, "functions": suite["transparent"]}]
    hooks = {
        "arcticauction.strong:_termination_candidate": on_candidate,
        "arcticauction.weak:certify_state": on_weak_certificate,
    }

    @contextlib.contextmanager
    def installed():
        tracer.install(layers, hooks)
        try:
            yield
        finally:
            tracer.remove()

    # Untraced and traced passes alternate, so the overhead compares the two
    # under the same machine conditions.
    passes, (untraced, traced) = loop.passes(
        args.seconds,
        (loop.request, contextlib.nullcontext),
        (tracer.root(loop.request), installed),
    )
    for spec in sorted(set(tracer.missing)):
        print(f"note: {spec} not found; its layer is not timed", file=sys.stderr)
    check_trace(tracer, loop, passes)
    totals = total_counts(list(loop.counts.values()))
    metrics = layer_metrics(suite, tracer, passes)
    metrics.update(count_metrics(totals, tuple(termination)))
    untraced_rate = pass_rate(loop.items, untraced)
    traced_rate = pass_rate(loop.items, traced)
    metrics["tracing.certified_per_s.untraced"] = metric(untraced_rate, "1/s")
    metrics["tracing.certified_per_s.traced"] = metric(traced_rate, "1/s")
    metrics["tracing.overhead_frac"] = metric(untraced_rate / traced_rate - 1, "ratio")
    print(
        f"# {passes} untraced and {passes} traced passes, alternating; layer self"
        f" times add up to the {tracer.root_ns / 1e9:.3f} s of traced instance time"
    )
    return metrics, {"failed_frac": metric(loop.failed / loop.attempted, "ratio")}, loop


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "arcticauction" / "__init__.py").is_file():
        print(f"error: no arcticauction sources under {SRC}", file=sys.stderr)
        return 2
    suite = load_suite()
    if args.workload not in suite["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, extra, loop = run(args, suite, work_dir)
        correct = loop.failed == 0
    except CheckFailed as exc:
        print(f"FAILED {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, entry in {**metrics, **extra}.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
