"""Command-line front end: solve, verify.

Documents are JSON with every number an exact integer or ``p/q`` string;
outputs are deterministic for a fixed input and seed (no timestamps, keys
sorted), so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable
from fractions import Fraction

from arcticauction.core import (
    InstanceError,
    MarketInstance,
    format_rational,
    load_instance,
    parse_rational,
    perturb,
    PerturbationConfig,
)
from arcticauction.driver import ALGORITHMS, GenericityExhausted, solve_instance
from arcticauction.errors import SolverError
from arcticauction.oracle import Certificate, Equilibrium, check_equilibrium


def equilibrium_doc(inst: MarketInstance, eq: Equilibrium) -> dict:
    """The result document's equilibrium section; edge rows come in the
    equilibrium's own order, canonical (buyer, good) document order."""
    spending_rows = [[b, g, format_rational(v)] for (b, g), v in eq.spending.items()]
    quantity_rows = [[b, g, format_rational(v)] for (b, g), v in eq.quantities.items()]
    return {
        "prices": {g: format_rational(eq.prices[g]) for g in inst.goods},
        "spending": spending_rows,
        "refunds": {b: format_rational(eq.refunds[b]) for b in inst.buyers},
        "quantities": quantity_rows,
    }


def certificate_doc(cert: Certificate) -> dict:
    return {
        "pass": cert.ok,
        "conditions": [
            {"name": c.name, "ok": c.ok, "violations": list(c.violations)}
            for c in cert.conditions
        ],
    }


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to ``path`` one at a time; failing to open or write
    it is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise InstanceError(f"cannot write {path}: {exc}") from exc


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance(args.input)
    magnitude = parse_rational(args.perturb) if args.perturb is not None else None
    outcome = solve_instance(
        inst,
        algorithm=args.algorithm,
        magnitude=magnitude,
        seed=args.seed,
        max_retries=args.max_retries,
    )

    results = {}
    for name, (eq, trace) in sorted(outcome.results.items()):
        results[name] = {
            "equilibrium": equilibrium_doc(inst, eq),
            "certificate": certificate_doc(eq.certificate),
            "stats": trace.stats_doc(),
        }
    doc = {
        "perturbation": {
            "sigma": format_rational(outcome.magnitude),
            "seed": outcome.seed,
            "retries_used": outcome.retries_used,
        },
        "results": results,
    }
    # the trace first: a trace that cannot be written is an input error,
    # and then no result document is printed
    if args.trace:
        # one line at a time: a long run of refund steps is one trace row
        # but a line per step
        lines = (
            json.dumps({"algorithm": name, **line}, sort_keys=True) + "\n"
            for name, (_, trace) in sorted(outcome.results.items())
            for line in trace.iter_lines()
        )
        _write(args.trace, lines)
    payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        _write(args.output, [payload])
    else:
        sys.stdout.write(payload)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.input)
    try:
        with open(args.solution, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise InstanceError(f"cannot read {args.solution}: {exc}") from exc
    try:
        sigma = parse_rational(doc["perturbation"]["sigma"])
        seed = doc["perturbation"]["seed"]
        if type(seed) is not int:
            raise TypeError(f"seed {seed!r} is not an integer")
        results = dict(doc["results"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InstanceError(f"malformed solution document ({exc})") from exc
    if not results:
        raise InstanceError("solution document has no results to verify")
    for name in results:
        if name not in ALGORITHMS:
            raise InstanceError(f"results for unknown algorithm {name!r}")
    target = perturb(inst, PerturbationConfig(magnitude=sigma, seed=seed))

    # every result is checked before any verdict is printed, so a document
    # that is an input error prints none
    certificates = []
    for name in sorted(results):
        try:
            section = results[name]["equilibrium"]
            stored = results[name]["certificate"]
            prices = {g: parse_rational(v) for g, v in section["prices"].items()}
            spending = _edge_rows(section["spending"], "spending")
            quantities = _edge_rows(section["quantities"], "quantity")
            refunds = {b: parse_rational(v) for b, v in section["refunds"].items()}
        except (InstanceError, AttributeError, KeyError, IndexError, TypeError) as exc:
            raise InstanceError(f"malformed equilibrium section ({exc})") from exc
        try:
            cert = check_equilibrium(target, prices, spending, refunds)
        except ValueError as exc:
            raise InstanceError(f"malformed equilibrium section ({exc})") from exc
        # prices are positive now: each quantity is spending / price
        if quantities.keys() != spending.keys():
            raise InstanceError(f"quantity rows of {name} are not the spending rows")
        for (b, g), value in spending.items():
            if quantities[(b, g)] * prices[g] != value:
                raise InstanceError(f"quantity of {(b, g)} is not spending / price")
        if stored != certificate_doc(cert):
            raise InstanceError(f"stored certificate of {name} is not the recomputed one")
        certificates.append((name, cert))
    for name, cert in certificates:
        print(f"[{name}] {'PASS' if cert.ok else 'FAIL'}")
        for condition in cert.conditions:
            status = "ok" if condition.ok else "VIOLATED"
            print(f"  {condition.name}: {status}")
            for violation in condition.violations:
                print(f"    {violation}")
    return 0 if all(cert.ok for _, cert in certificates) else 1


def _edge_rows(rows: list, what: str) -> dict[tuple[str, str], Fraction]:
    """``[buyer, good, value]`` rows as a dict by edge; a second row for an
    edge is an input error."""
    values: dict[tuple[str, str], Fraction] = {}
    for row in rows:
        edge = (row[0], row[1])
        if edge in values:
            raise InstanceError(f"second {what} row for {edge}")
        values[edge] = parse_rational(row[2])
    return values


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 1),
    for it and for its subcommands' parsers."""

    def error(self, message: str):
        raise InstanceError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state on it."""
    parser = _Parser(
        prog="arctic-auction",
        description="Exact equilibrium solver for the Arctic Auction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--input", required=True, help="instance JSON path")
    solve.add_argument(
        "--algorithm", choices=[*ALGORITHMS, "both"], default="both"
    )
    solve.add_argument("--output", help="write the result document here")
    solve.add_argument("--trace", help="write a JSON-lines step trace here")
    solve.add_argument(
        "--perturb",
        help="perturbation magnitude as p/q (default: invariant bound / 10^6)",
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--max-retries", type=int, default=8)

    verify = sub.add_parser("verify", help="check a solution document")
    verify.add_argument("--input", required=True)
    verify.add_argument("--solution", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Exit status 1 is an input error (a usage error
    too), 2 means no generic perturbation was found, 3 is an internal
    solver error; ``--help`` exits 0."""
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help, after printing it
            return exc.code or 0
        # the command functions are looked up at each call, not kept on the
        # parser, which lives as long as the process
        return (cmd_solve if args.command == "solve" else cmd_verify)(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GenericityExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
