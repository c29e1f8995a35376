"""Regenerate ``suite.json``: instance lists, digests, layers and metric map.

Run from the repository root with ``python3 perfbench/make_suite.py``.  It
solves every candidate instance once on the current code, so it takes a
few minutes.  The instance lists follow fixed rules from fixed seeds:

* ``strong_random`` is one seeded draw of ``randgen.random_instance``
  markets; any of them whose strong run makes a compressed restart moves
  to ``strong_restart``.
* ``strong_restart`` takes, in seed order, the first wide-budget markets
  whose strong run makes a compressed restart in at most
  ``WIDE_STEP_CAP`` inner steps.  The cap is a count, so the selection
  does not depend on the machine.  It keeps every instance short enough
  to be solved several times in one run; a single solve of a minute-long
  tail cannot be timed steadily on a machine whose speed swings with
  other tenants.  Candidates over the cap, or still running after
  ``WIDE_TIME_LIMIT_S``, are recorded as excluded with their step counts,
  so the longer tails stay documented.  Solve times differ tenfold, so
  each instance is solved ``weight`` times per pass, about
  ``RESTART_VISIT_S / solve_s`` times, and each gets enough samples.
* ``weak_halving`` and ``cli_roundtrip`` are seeded draws, used as drawn.

The digests recorded here are the equilibria of the code this script ran
on; the benchmark fails any run whose results differ from them.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from arcticauction.driver import solve_instance  # noqa: E402

from perfbench.suite import (  # noqa: E402
    SUITE_PATH,
    equilibrium_digest,
    random_draw,
    wide_instance,
)

PERTURB_SEED = 0
WIDE = {"n_range": [10, 20], "max_exp": 14}
WIDE_SEEDS = range(0, 200)
WIDE_COUNT = 3
WIDE_STEP_CAP = 10_000
WIDE_TIME_LIMIT_S = 60
RESTART_VISIT_S = 1.5

WORKLOADS = {
    "strong_random": {
        "algorithm": "strong",
        "draw": {
            "generator": "arcticauction.randgen.random_instance",
            "seed": 1,
            "sizes": [40, 60, 80],
        },
        "rationale": (
            "Plain random markets at n = 40..80 under the strong solver. Time"
            " goes to the inner steps, the full-state re-checks after every"
            " step and the per-phase termination tree solve; no compressed"
            " restart runs."
        ),
    },
    "strong_restart": {
        "algorithm": "strong",
        "generator": "perfbench.suite.wide_instance",
        "wide": WIDE,
        "rationale": (
            "Wide-budget markets (budgets 2^0..2^14) that make the strong"
            " solver take a compressed restart. The only workload that runs"
            " make_fertile, special_price, get_allocations, the deficit"
            " repair and the long post-restart refund tail, which sets"
            " instance_s.max."
        ),
    },
    "weak_halving": {
        "algorithm": "weak",
        "draw": {
            "generator": "arcticauction.randgen.random_instance",
            "seed": 1,
            "sizes": [8, 10, 12],
        },
        "rationale": (
            "Small random markets under the halving solver: 400..600 phases"
            " of a few steps each, so per-phase overhead (genericity check,"
            " snapshots, halving) and bignum growth dominate. Never runs the"
            " strong solver."
        ),
    },
    "cli_roundtrip": {
        "algorithm": "strong",
        "draw": {
            "generator": "arcticauction.randgen.random_instance",
            "seed": 1,
            "sizes": [10, 12, 14, 16, 18, 20, 22, 24],
        },
        "rationale": (
            "Instance documents solved with `solve --algorithm strong"
            " --output --trace` and then checked with `verify`, both through"
            " cli.main. The only workload that parses documents, writes the"
            " result and trace, and runs check_equilibrium as a reader."
        ),
    },
}

STEADY = ["strong_random", "weak_halving"]
P50_RATE = ["certified_per_s", "instance_s.p50"]
# Each layer: the functions at its boundary, the end-to-end metrics a
# change to it should move, and the workloads where it should move them.
LAYERS = [
    {
        "name": "graph.equality",
        "functions": ["arcticauction.graph:equality_graph"],
        "moves": P50_RATE,
        "workloads": STEADY,
    },
    {
        "name": "graph.alphas",
        "functions": [
            "arcticauction.graph:state_alphas",
            "arcticauction.graph:bang_per_buck",
        ],
        "moves": P50_RATE,
        "workloads": STEADY,
    },
    {
        "name": "graph.residual",
        "functions": [
            "arcticauction.weak:network",
            "arcticauction.graph:ResidualNetwork.__post_init__",
        ],
        "moves": P50_RATE,
        "workloads": STEADY,
    },
    {
        "name": "graph.bfs",
        "functions": ["arcticauction.graph:ResidualNetwork.bfs"],
        "moves": P50_RATE,
        "workloads": STEADY,
    },
    {
        "name": "graph.components",
        "functions": [
            "arcticauction.graph:abundant_edges",
            "arcticauction.graph:components_of_abundant_graph",
            "arcticauction.graph:components_of_edges",
            "arcticauction.basic:forest_components",
        ],
        "moves": P50_RATE,
        "workloads": STEADY,
    },
    {
        "name": "weak.step",
        "functions": ["arcticauction.weak:inner_step"],
        "moves": P50_RATE,
        "workloads": STEADY,
    },
    {
        "name": "weak.check",
        "functions": [
            "arcticauction.weak:is_delta_feasible",
            "arcticauction.weak:potential",
            "arcticauction.weak:is_delta_optimal",
            "arcticauction.weak:check_phase_invariants",
        ],
        "moves": P50_RATE,
        "workloads": STEADY,
    },
    {
        "name": "weak.halve",
        "functions": ["arcticauction.weak:halve_and_repair"],
        "moves": ["instance_s.p50", "peak_rss_mb"],
        "workloads": ["weak_halving"],
    },
    {
        "name": "strong.restart",
        "functions": [
            "arcticauction.strong:make_fertile",
            "arcticauction.strong:_assert_restart_invariants",
            "arcticauction.strong:_repair_deficits",
        ],
        "moves": ["certified_per_s", "instance_s.max"],
        "workloads": ["strong_restart"],
    },
    {
        "name": "strong.special_price",
        "functions": ["arcticauction.strong:special_price"],
        "moves": ["certified_per_s", "instance_s.max"],
        "workloads": ["strong_restart"],
    },
    {
        "name": "core.compute_stats",
        "functions": ["arcticauction.core:compute_stats"],
        "moves": ["certified_per_s", "instance_s.max"],
        "workloads": ["strong_restart"],
    },
    {
        "name": "basic.tree_solve",
        "functions": [
            "arcticauction.basic:basic_solution",
            "arcticauction.basic:solve_tree_flow",
        ],
        "moves": ["instance_s.p50"],
        "workloads": ["strong_random", "strong_restart"],
    },
    {
        "name": "oracle.certify",
        "functions": [
            "arcticauction.oracle:check_equilibrium",
            "arcticauction.oracle:certify_state",
        ],
        "moves": ["instance_s.p50"],
        "workloads": ["strong_random", "strong_restart"],
    },
    {
        "name": "oracle.genericity",
        "functions": ["arcticauction.oracle:check_genericity"],
        "moves": ["instance_s.p50", "peak_rss_mb"],
        "workloads": ["weak_halving"],
    },
    {
        "name": "trace.snapshot",
        "functions": [
            "arcticauction.trace:PhaseTrace.begin_phase",
            "arcticauction.trace:PhaseTrace.end_phase",
        ],
        "moves": ["instance_s.p50", "peak_rss_mb"],
        "workloads": ["weak_halving"],
    },
    {
        "name": "core.load",
        "functions": ["arcticauction.core:load_instance"],
        "moves": ["instance_s.p50"],
        "workloads": ["cli_roundtrip"],
    },
    {
        "name": "core.perturb",
        "functions": ["arcticauction.core:perturb"],
        "moves": ["instance_s.p50"],
        "workloads": ["cli_roundtrip"],
    },
    {
        "name": "cli.output",
        "functions": ["arcticauction.cli:cmd_solve"],
        "moves": ["instance_s.p50"],
        "workloads": ["cli_roundtrip"],
    },
    {
        "name": "cli.verify",
        "functions": ["arcticauction.cli:cmd_verify"],
        "moves": ["instance_s.p50"],
        "workloads": ["cli_roundtrip"],
    },
]
TRANSPARENT = ["arcticauction.driver:solve_instance"]


class CapExceeded(Exception):
    pass


def _alarm(signum, frame):
    raise CapExceeded()


def solve(inst, algorithm: str, cap_s: int | None = None):
    """Solve once; return (outcome, digest, seconds), or None past ``cap_s``."""
    if cap_s is not None:
        signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(cap_s)
    started = time.perf_counter()
    try:
        outcome = solve_instance(inst, algorithm, seed=PERTURB_SEED)
    except CapExceeded:
        return None
    finally:
        if cap_s is not None:
            signal.alarm(0)
    elapsed = time.perf_counter() - started
    eq, _ = outcome.results[algorithm]
    return outcome, equilibrium_digest(inst, eq.prices, eq.spending, eq.refunds), elapsed


def entry(name: str, inst, solved, algorithm: str, **recipe) -> dict:
    outcome, digest, elapsed = solved
    trace = outcome.results[algorithm][1]
    return {
        "name": name,
        **recipe,
        "n": len(inst.buyers) + len(inst.goods),
        "m": len(inst.utilities),
        "phases": trace.phase_count,
        "compressed_restarts": trace.restart_count,
        "solve_s": round(elapsed, 3),
        "digest": digest,
    }


def main() -> int:
    workloads = {
        name: {**spec, "perturb_seed": PERTURB_SEED, "instances": []}
        for name, spec in WORKLOADS.items()
    }
    moved = []
    for name in ("strong_random", "weak_halving", "cli_roundtrip"):
        spec = workloads[name]
        draw = spec["draw"]
        for k, inst in enumerate(random_draw(draw["seed"], draw["sizes"])):
            solved = solve(inst, spec["algorithm"])
            restarted = solved[0].results[spec["algorithm"]][1].restart_count > 0
            label = f"{name}-{k}-n{draw['sizes'][k]}"
            item = entry(label, inst, solved, spec["algorithm"], draw_index=k)
            if name == "strong_random" and restarted:
                moved.append({**item, "from": "strong_random"})
            else:
                spec["instances"].append(item)
            print(label, "moved" if name == "strong_random" and restarted else "", flush=True)

    restart = workloads["strong_restart"]
    excluded = {}
    for seed in WIDE_SEEDS:
        if len(restart["instances"]) == WIDE_COUNT:
            break
        last_seed = seed
        inst = wide_instance(seed, **WIDE)
        solved = solve(inst, "strong", WIDE_TIME_LIMIT_S)
        if solved is None:
            excluded[seed] = f"still running after {WIDE_TIME_LIMIT_S} s"
        elif solved[0].results["strong"][1].restart_count > 0:
            steps = len(solved[0].results["strong"][1].rows)
            if steps > WIDE_STEP_CAP:
                excluded[seed] = f"{steps} inner steps"
            else:
                n = len(inst.buyers) + len(inst.goods)
                restart["instances"].append(
                    entry(f"wide-{seed}-n{n}", inst, solved, "strong", wide_seed=seed)
                )
        print(f"wide seed {seed}: {excluded.get(seed, 'scanned')}", flush=True)
    restart["instances"] += moved
    for item in restart["instances"]:
        item["weight"] = max(1, round(RESTART_VISIT_S / item["solve_s"]))
    restart["selection"] = {
        "seeds_scanned": [WIDE_SEEDS.start, last_seed],
        "qualifies": "makes at least one compressed restart",
        "step_cap": WIDE_STEP_CAP,
        "excluded": excluded,
    }

    suite = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": workloads,
        "layers": LAYERS,
        "transparent": TRANSPARENT,
    }
    with open(SUITE_PATH, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
