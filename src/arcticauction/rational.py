"""The package's exact rational type: a ``Fraction`` without the generic dispatch.

:class:`Q` is a :class:`fractions.Fraction` with the same values, the same
hash and the same normalized ``numerator`` / ``denominator``; only its
operators are faster.  ``Fraction``'s own operators test the other operand
against the ``numbers`` ABCs on every call (``isinstance(b,
numbers.Rational)``), and in a solver that does nothing but exact arithmetic
those checks cost more than the integer work.  Here an operand whose exact
type is ``Q``, ``Fraction`` or ``int`` takes a fast path that runs CPython's
own normalizing formulas and writes the result's two slots directly,
without a constructor call; the result is a ``Q`` (an int for ``//``, as
with ``Fraction``).  Any other operand
(float, complex, bool, another ``Rational``) goes to ``Fraction``'s method
and gets exactly what a ``Fraction`` would.

:func:`reduced` builds a ``Q`` from an unnormalized integer pair with one
gcd, for callers that compare ratios as pairs and keep only a winner.

Because ``Q`` subclasses ``Fraction`` and overrides the reflected
operators, ``Fraction op Q`` and ``int op Q`` also land here, so once the
inputs of a computation are ``Q`` every number derived from them is too.
``fractions.Fraction`` itself is not modified.

The fast paths read and write ``Fraction``'s private slots ``_numerator``
and ``_denominator``; ``tests/test_rational.py`` pins their names, so a
Python version that renames them fails that test instead of computing
wrongly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["Q", "ZERO", "ONE", "reduced"]


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
# lowest terms and are CPython's Fraction._add, _sub, _mul, _div and
# _floordiv (Knuth, TAOCP 4.5.1): each result is in lowest terms as built.


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
    g = gcd(da, db)
    if g == 1:
        return _make(na * db - da * nb, da * db)
    s = da // g
    t = na * (db // g) - nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _make(t, s * db)
    return _make(t // g2, s * (db // g2))


def _mul(na: int, da: int, nb: int, db: int) -> Q:
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
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    n, d = na * db, nb * da
    if d < 0:
        n, d = -n, -d
    return _make(n, d)


def _floordiv(na: int, da: int, nb: int, db: int) -> int:
    return (na * db) // (da * nb)


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

    def __lt__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return a._numerator * b._denominator < a._denominator * b._numerator
        if t is int:
            return a._numerator < a._denominator * b
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return a._numerator * b._denominator <= a._denominator * b._numerator
        if t is int:
            return a._numerator <= a._denominator * b
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return a._numerator * b._denominator > a._denominator * b._numerator
        if t is int:
            return a._numerator > a._denominator * b
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        t = type(b)
        if t is Q or t is Fraction:
            return a._numerator * b._denominator >= a._denominator * b._numerator
        if t is int:
            return a._numerator >= a._denominator * b
        return Fraction.__ge__(a, b)

    def __neg__(a):
        return _make(-a._numerator, a._denominator)

    def __abs__(a):
        return _make(abs(a._numerator), a._denominator)

    __add__, __radd__ = _operators(_add, Fraction.__add__, Fraction.__radd__)
    __sub__, __rsub__ = _operators(_sub, Fraction.__sub__, Fraction.__rsub__)
    __mul__, __rmul__ = _operators(_mul, Fraction.__mul__, Fraction.__rmul__)
    __truediv__, __rtruediv__ = _operators(
        _div, Fraction.__truediv__, Fraction.__rtruediv__
    )
    __floordiv__, __rfloordiv__ = _operators(
        _floordiv, Fraction.__floordiv__, Fraction.__rfloordiv__
    )


ZERO = Q(0)
ONE = Q(1)
