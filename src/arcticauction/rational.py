"""The package's exact rational type: a ``Fraction`` without the generic dispatch.

:class:`Q` is a :class:`fractions.Fraction` with the same values, the same
hash and the same normalized ``numerator`` / ``denominator``; only its
operators are faster.  ``Fraction``'s own operators test the other operand
against the ``numbers`` ABCs on every call (``isinstance(b,
numbers.Rational)``), and in a solver that does nothing but exact arithmetic
those checks cost more than the integer work.  Here an operand whose exact
type is ``Q``, ``Fraction`` or ``int`` takes a fast path that runs CPython's
own normalizing formulas and writes the result's two slots directly,
without a constructor call; the result is a ``Q``.  Any other operand
(float, complex, bool, another ``Rational``) goes to ``Fraction``'s method
and gets exactly what a ``Fraction`` would.  Only ``+``, ``-``, ``*`` and
``/`` have fast paths; ``//``, ``%`` and ``divmod`` are ``Fraction``'s own,
which return the same values.

:func:`reduced` builds a ``Q`` from an unnormalized integer pair with one
gcd, for callers that compare ratios as pairs and keep only a winner, and
:func:`product` multiplies two pairs in lowest terms by the multiplication
kernel itself, for a caller that already holds the integers.

Because ``Q`` subclasses ``Fraction`` and overrides the reflected
operators, ``Fraction op Q`` and ``int op Q`` also land here, so once the
inputs of a computation are ``Q`` every number derived from them is too.
``fractions.Fraction`` itself is not modified.

The fast paths read and write ``Fraction``'s private slots ``_numerator``
and ``_denominator``.  So does the solvers' step path, which reads a
``Q``'s integers straight from those slots instead of through the
``numerator`` and ``denominator`` properties: the market state, its
bang-per-buck view and its price raise (:mod:`arcticauction.graph`, whose
:class:`~arcticauction.graph.MarketState` holds only ``Q`` for that
reason), and the search tree, the feasibility check and the halving
(:mod:`arcticauction.weak`).  ``tests/test_rational.py`` pins the slots'
names, so a Python version that renames them fails that test instead of
computing wrongly.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

__all__ = ["Q", "ZERO", "ONE", "as_q", "product", "reduced"]


_new = object.__new__


def _make(numerator: int, denominator: int) -> Q:
    """A ``Q`` from a pair already in lowest terms, denominator positive."""
    q = _new(Q)
    q._numerator = numerator
    q._denominator = denominator
    return q


def reduced(numerator: int, denominator: int) -> Q:
    """A ``Q`` from an integer pair with a positive denominator, put in
    lowest terms by one gcd."""
    g = gcd(numerator, denominator)
    return _make(numerator // g, denominator // g)


# The kernels below take both operands as (numerator, denominator) pairs in
# lowest terms, and each result is in lowest terms as built.  ``_add`` and
# ``product`` are CPython's Fraction._add and _mul (Knuth, TAOCP 4.5.1);
# ``_sub`` adds the negated operand and ``_div`` multiplies by the
# reciprocal, which take the same gcds as CPython's _sub and _div.


def _add(na: int, da: int, nb: int, db: int) -> Q:
    g = gcd(da, db)
    if g == 1:
        return _make(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _make(t, s * db)
    return _make(t // g2, s * (db // g2))


def _sub(na: int, da: int, nb: int, db: int) -> Q:
    return _add(na, da, -nb, db)


def product(na: int, da: int, nb: int, db: int) -> Q:
    """``na/da * nb/db`` for two pairs in lowest terms with positive
    denominators, by cross gcds: the ``*`` of two ``Q`` without the
    operator's dispatch."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _make(na * nb, db * da)


def _div(na: int, da: int, nb: int, db: int) -> Q:
    if nb == 0:
        raise ZeroDivisionError(f"Fraction({na}, 0)")
    # the reciprocal db / nb with the sign moved to its numerator
    if nb < 0:
        return product(na, da, -db, -nb)
    return product(na, da, db, nb)


def _operators(kernel, forward_fallback, reverse_fallback):
    """Forward and reflected methods running ``kernel`` on ``Q``,
    ``Fraction`` and ``int`` operands and the ``Fraction`` methods on any
    other."""

    def forward(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return kernel(a._numerator, a._denominator, b, 1)
        return forward_fallback(a, b)

    def reverse(b, a):
        t = type(a)
        if t is Q or t is Fraction:
            return kernel(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            return kernel(a, 1, b._numerator, b._denominator)
        return reverse_fallback(b, a)

    return forward, reverse


def _comparison(compare, fallback):
    """An order comparison running ``compare`` on the cross-multiplied
    pairs of ``Q``, ``Fraction`` and ``int`` operands and the ``Fraction``
    method ``fallback`` on any other."""

    def method(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return compare(a._numerator * b._denominator, a._denominator * b._numerator)
        if t is int:
            return compare(a._numerator, a._denominator * b)
        return fallback(a, b)

    return method


class Q(Fraction):
    """An exact rational; see the module docstring."""

    __slots__ = ()
    # defining __eq__ would otherwise unset the inherited hash
    __hash__ = Fraction.__hash__

    def __eq__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    __lt__ = _comparison(operator.lt, Fraction.__lt__)
    __le__ = _comparison(operator.le, Fraction.__le__)
    __gt__ = _comparison(operator.gt, Fraction.__gt__)
    __ge__ = _comparison(operator.ge, Fraction.__ge__)

    def __neg__(a):
        return _make(-a._numerator, a._denominator)

    def __abs__(a):
        return _make(abs(a._numerator), a._denominator)

    __add__, __radd__ = _operators(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _operators(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _operators(product, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _operators(
        _div, Fraction.__truediv__, Fraction.__rtruediv__
    )


ZERO = Q(0)
ONE = Q(1)


def as_q(value: int | Fraction) -> Q:
    """An int or ``Fraction`` as a ``Q``; a ``Q`` is returned as it is."""
    return value if type(value) is Q else Q(value)
