"""The exact rational kernel: ``Q`` against ``Fraction``, and ``Q`` throughout
the solvers.

Every operator ``Q`` overrides must give exactly what ``Fraction`` gives --
the same normalized numerator and denominator, the same hash, the same
exceptions, the same float results -- while returning a ``Q`` wherever
``Fraction`` returns a ``Fraction``.  The solver tests check that no number
a run produces falls back to a plain ``Fraction``.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcticauction.core import PerturbationConfig, default_magnitude, perturb
from arcticauction.randgen import random_instance
from arcticauction.rational import ONE, ZERO, Q, reduced
from arcticauction.strong import run_strong
from arcticauction.weak import run_weak

from conftest import lean_sigma, wide_instance

BIG = 10**400

integers = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-(10**6), 10**6),
    st.integers(-BIG, BIG),
)
# a factor shared between denominators drives the kernels' gcd branches
denominators = st.builds(
    operator.mul,
    st.one_of(st.integers(1, 10**6), st.integers(1, BIG)),
    st.sampled_from([1, 2, 6, 30, 2**64, 3**200]),
)
rationals = st.builds(Fraction, integers, denominators)

ARITHMETIC = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "truediv": operator.truediv,
    "floordiv": operator.floordiv,
}
COMPARISONS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}
BINARY = {**ARITHMETIC, **COMPARISONS}
# operand types on the left and right of the operator
MIXES = [("Q", "Q"), ("Q", "Fraction"), ("Fraction", "Q"), ("Q", "int"), ("int", "Q")]


def operand(kind, value):
    if kind == "Q":
        return Q(value)
    if kind == "Fraction":
        return Fraction(value)
    return value.numerator  # int


def reference(value):
    """The operand ``Fraction`` would see: a ``Q`` becomes a ``Fraction``."""
    return Fraction(value) if type(value) is Q else value


def outcome(fn, *args):
    """What a call gives: its exception type, or its result's type and
    exact value (the pair for a rational, with its hash)."""
    try:
        result = fn(*args)
    except ArithmeticError as exc:
        return ("raises", type(exc))
    if isinstance(result, Fraction):
        return (type(result), result.numerator, result.denominator, hash(result))
    return (type(result), result)


def expected(fn, *args):
    """:func:`outcome` of ``fn`` on ``Fraction`` operands, with each
    ``Fraction`` result read as the ``Q`` the kernel must return."""
    got = outcome(fn, *(reference(a) for a in args))
    if got[0] is Fraction:
        return (Q,) + got[1:]
    return got


@pytest.mark.parametrize("left, right", MIXES, ids=["-".join(m) for m in MIXES])
@pytest.mark.parametrize("name", BINARY)
@given(x=rationals, y=rationals, same=st.booleans())
def test_binary_operators_match_fraction(name, left, right, x, y, same):
    if same:  # equal operands, where == and <= part ways with <
        y = x = Fraction(x.numerator) if "int" in (left, right) else x
    a, b = operand(left, x), operand(right, y)
    assert outcome(BINARY[name], a, b) == expected(BINARY[name], a, b)


@pytest.mark.parametrize("name", ["neg", "abs"])
@given(x=rationals)
def test_unary_operators_match_fraction(name, x):
    fn = {"neg": operator.neg, "abs": operator.abs}[name]
    assert outcome(fn, Q(x)) == expected(fn, Q(x))


@given(x=rationals, k=st.integers(min_value=1, max_value=2**70))
def test_reduced_pair_is_the_fraction_in_lowest_terms(x, k):
    # an unnormalized pair: both entries scaled by the same k
    result = reduced(x.numerator * k, x.denominator * k)
    assert type(result) is Q
    assert (result.numerator, result.denominator) == (x.numerator, x.denominator)


@given(x=rationals)
def test_hash_and_dict_keys_agree_with_fraction(x):
    assert hash(Q(x)) == hash(Fraction(x))
    assert {Fraction(x): "f"}[Q(x)] == "f"
    assert {Q(x): "q"}[Fraction(x)] == "q"
    if x.denominator == 1:
        assert hash(Q(x)) == hash(x.numerator)


@pytest.mark.parametrize("name", [*ARITHMETIC, "eq", "lt", "ge"])
@given(
    x=rationals,
    f=st.one_of(st.sampled_from([0.0, -0.0, 0.5]), st.floats(-1e300, 1e300)),
)
def test_float_operands_get_fractions_float_results(name, x, f):
    fn = BINARY[name]
    for args in ((Q(x), f), (f, Q(x))):
        got = outcome(fn, *args)
        assert got == outcome(fn, *(reference(a) for a in args))
        assert got[0] is not Q


@pytest.mark.parametrize("name", ["truediv", "floordiv"])
@pytest.mark.parametrize(
    "a, b",
    [
        (Q(3, 4), ZERO),
        (Q(3, 4), Fraction(0)),
        (Q(3, 4), 0),
        (Fraction(3, 4), ZERO),
        (5, ZERO),
        (ZERO, ZERO),
    ],
)
def test_division_by_zero_raises(name, a, b):
    with pytest.raises(ZeroDivisionError):
        ARITHMETIC[name](a, b)


def test_fraction_itself_is_untouched():
    assert type(Fraction(1, 3) + Fraction(1, 6)) is Fraction
    assert type(-Fraction(1, 3)) is Fraction
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)


def test_fraction_slots_are_the_ones_the_kernel_writes():
    # The fast paths read and write these two private slots directly; a
    # Python whose Fraction stores its value differently must fail here
    # rather than compute wrong numbers.
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    assert Q.__slots__ == ()
    q = Q(6, -4)
    assert (q._numerator, q._denominator) == (-3, 2) == (q.numerator, q.denominator)
    assert not hasattr(q, "__dict__")
    assert (ONE._numerator, ONE._denominator, ZERO._numerator) == (1, 1, 0)


def test_results_of_mixed_expressions_stay_q():
    values = [
        sum([Q(1, 2), Fraction(1, 3)], 0),
        Fraction(1, 3) - Q(1, 2),
        2 * Q(1, 2) / Fraction(3),
        1 - Q(1, 7),
        max(ZERO, Q(-1, 2)),
    ]
    assert all(type(v) is Q for v in values)
    assert values == [Fraction(5, 6), Fraction(-1, 6), Fraction(1, 3), Fraction(6, 7), 0]
    assert math.floor(Q(7, 2)) == 3 and int(Q(-7, 2)) == -3 and Q(7, 2) // 1 == 3


# --- Q throughout the solvers --------------------------------------------------


def non_q(values, where):
    return [f"{where}: {v!r}" for v in values if type(v) is not Q]


def all_numbers_are_q(eq, trace, starts, spending):
    """Every number of a result, of its trace, of its phase-start prices
    and refunds and of its phase start and end spending that is not
    ``Q``."""
    bad = []
    for label, mapping in (
        ("prices", eq.prices),
        ("spending", eq.spending),
        ("refunds", eq.refunds),
        ("quantities", eq.quantities),
    ):
        bad += non_q(mapping.values(), label)
    for mark, (start, end) in zip(trace.phases, spending, strict=True):
        where = f"phase {mark.index}"
        bad += non_q([mark.delta], where)
        for label, snapshot in (("spending_start", start), ("spending_end", end or {})):
            bad += non_q(snapshot.values(), f"{where} {label}")
    for index, (prices, refunds) in enumerate(starts):
        bad += non_q(prices.values(), f"phase {index} prices_start")
        bad += non_q(refunds.values(), f"phase {index} refunds_start")
    bad += non_q([row.delta for row in trace.rows], "step delta")
    for record in trace.restarts:
        where = f"restart at phase {record.phase}"
        bad += non_q([record.delta_before, record.delta_after, record.threshold], where)
        bad += non_q(record.surpluses.values(), where)
    return bad


@pytest.mark.parametrize("solver", [run_weak, run_strong], ids=["weak", "strong"])
def test_solver_numbers_are_q_on_a_random_market(solver, phase_starts, phase_spending):
    rng = random.Random(5)
    inst = random_instance(6, rng)
    inst = perturb(inst, PerturbationConfig(magnitude=lean_sigma(inst), seed=5))
    eq, trace = solver(inst)
    assert trace.phases and trace.rows
    assert len(phase_starts) == trace.phase_count
    spending = phase_spending.of(trace)
    assert all_numbers_are_q(eq, trace, phase_starts, spending) == []


def test_solver_numbers_are_q_through_a_compressed_restart(phase_starts, phase_spending):
    inst = wide_instance(14)
    inst = perturb(inst, PerturbationConfig(magnitude=default_magnitude(inst), seed=0))
    eq, trace = run_strong(inst)
    assert trace.restart_count >= 1
    assert any(mark.entry == "restart" for mark in trace.phases)
    assert len(phase_starts) == trace.phase_count
    spending = phase_spending.of(trace)
    assert all_numbers_are_q(eq, trace, phase_starts, spending) == []
