"""Perturb-solve-certify driver with genericity retries.

The solvers assume a generic instance; the perturbation delivers one with
overwhelming probability.  When a run still detects a degeneracy, this
driver retries with the next seed, up to the configured retry budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from arcticauction.core import (
    InstanceError,
    MarketInstance,
    PerturbationConfig,
    default_magnitude,
    perturb,
)
from arcticauction.errors import GenericityError, SolverError
from arcticauction.oracle import Equilibrium
from arcticauction.strong import run_strong
from arcticauction.trace import PhaseTrace
from arcticauction.weak import run_weak


# the solvers, by name; ``both`` runs each of them
ALGORITHMS = ("weak", "strong")


class GenericityExhausted(RuntimeError):
    """Every retry seed produced a degenerate run."""


@dataclass
class SolveOutcome:
    """Results of solving one instance with one or both algorithms."""

    instance: MarketInstance
    perturbed: MarketInstance
    magnitude: Fraction
    seed: int
    retries_used: int
    results: dict[str, tuple[Equilibrium, PhaseTrace]] = field(default_factory=dict)


def solve_instance(
    inst: MarketInstance,
    algorithm: str = "both",
    magnitude: Fraction | None = None,
    seed: int = 0,
    max_retries: int = 8,
) -> SolveOutcome:
    """Perturb and solve, retrying on detected degeneracies.

    ``algorithm`` is ``weak``, ``strong``, or ``both``; with ``both`` the
    two equilibria are also cross-checked for exact equality (the perturbed
    instance has a unique equilibrium, so any mismatch is a bug).  At
    magnitude zero every seed gives the same instance, so there are no
    retries.  A negative ``max_retries`` is an :class:`InstanceError`, as
    a negative magnitude is.
    """
    if algorithm not in (*ALGORITHMS, "both"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if max_retries < 0:
        raise InstanceError(f"max_retries must be >= 0, not {max_retries}")
    if magnitude is None:
        magnitude = default_magnitude(inst)
    attempts = max_retries + 1
    if magnitude == 0:
        attempts = min(attempts, 1)  # every seed gives the same instance
    last_error: GenericityError | None = None
    for attempt in range(attempts):
        perturbed = perturb(
            inst, PerturbationConfig(magnitude=magnitude, seed=seed + attempt)
        )
        try:
            results: dict[str, tuple[Equilibrium, PhaseTrace]] = {}
            if algorithm in ("weak", "both"):
                results["weak"] = run_weak(perturbed)
            if algorithm in ("strong", "both"):
                results["strong"] = run_strong(perturbed)
        except GenericityError as exc:
            last_error = exc
            continue
        if algorithm == "both":
            _assert_same_equilibrium(results["weak"][0], results["strong"][0])
        return SolveOutcome(
            instance=inst,
            perturbed=perturbed,
            magnitude=magnitude,
            seed=seed + attempt,
            retries_used=attempt,
            results=results,
        )
    raise GenericityExhausted(
        f"no generic perturbation found in {attempts} attempts:"
        f" {last_error}"
    )


def _assert_same_equilibrium(first: Equilibrium, second: Equilibrium) -> None:
    if (
        first.prices != second.prices
        or first.spending != second.spending
        or first.refunds != second.refunds
    ):
        raise SolverError(
            "the two algorithms disagree on the equilibrium of a generic instance"
        )
