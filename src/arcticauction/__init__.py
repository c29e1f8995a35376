"""Exact-arithmetic equilibrium solver for the Arctic Auction.

The Arctic Auction is the quasi-linear extension of the linear Fisher
market: buyers with budgets bid on divisible goods, and any dollar a buyer
keeps is refunded at one unit of utility per dollar.  This package computes
exact market equilibria (prices, spending, refunds) over rational numbers:

* :mod:`arcticauction.weak` -- the halving-scale solver, which repeatedly
  restores approximate optimality at a granularity ``delta`` and halves
  ``delta`` until the equilibrium support can be read off the large
  ("abundant") spending variables;
* :mod:`arcticauction.strong` -- the committed-refund solver, which adds
  restart jumps so the number of scaling phases depends only on the number
  of buyers and goods;
* :mod:`arcticauction.oracle` -- an independent certifier and a brute-force
  support-enumeration solver used to cross-check both algorithms.

All arithmetic is exact (:class:`arcticauction.rational.Q`, a
``fractions.Fraction`` with faster operators); there is no floating point
anywhere in the solver path.
"""

from arcticauction.core import (
    InstanceError,
    InstanceStats,
    MarketInstance,
    PerturbationConfig,
    compute_stats,
    load_instance,
    parse_rational,
    perturb,
)
from arcticauction.driver import GenericityExhausted, SolveOutcome, solve_instance
from arcticauction.errors import GenericityError, SolverError
from arcticauction.oracle import (
    Equilibrium,
    GenericityReport,
    brute_force_equilibrium,
    check_equilibrium,
    check_genericity,
)
from arcticauction.weak import run_weak
from arcticauction.strong import run_strong

__all__ = [
    "Equilibrium",
    "GenericityError",
    "GenericityExhausted",
    "GenericityReport",
    "InstanceError",
    "InstanceStats",
    "MarketInstance",
    "PerturbationConfig",
    "SolveOutcome",
    "SolverError",
    "brute_force_equilibrium",
    "check_equilibrium",
    "check_genericity",
    "compute_stats",
    "load_instance",
    "parse_rational",
    "perturb",
    "run_strong",
    "run_weak",
    "solve_instance",
]
