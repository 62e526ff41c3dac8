"""Exact nonnegative rational scalars.

Every distance, threshold and distortion in the library is an ExactValue: a
``fractions.Fraction`` subclass that only holds nonnegative rationals, kept
in lowest terms in Fraction's own two int slots. Comparison between two
ExactValues, and construction from a nonnegative int over a positive int,
read and fill those slots directly. Every other operand or argument goes
through Fraction, so mixed comparisons, hashing and formatting are
Fraction's own: an ExactValue equals the int or Fraction of the same value,
and hashes like it.

>>> ExactValue(2, 4) == Fraction(1, 2) and ExactValue(4, 2) == 2
True
>>> hash(ExactValue(1, 2)) == hash(Fraction(1, 2))
True

No floating point enters the core: a float argument, comparison or operand,
on either side of any operator, raises TypeError, and so does a power with
a non-integral exponent, which Fraction would compute in floating point.

>>> ExactValue(1, 2) < 0.75
Traceback (most recent call last):
    ...
TypeError: ExactValue does not accept floats; use a ratio of ints
>>> 0.5 - ExactValue(1, 2)
Traceback (most recent call last):
    ...
TypeError: ExactValue does not accept floats; use a ratio of ints
>>> 2 ** ExactValue(1, 2)
Traceback (most recent call last):
    ...
TypeError: ExactValue does not accept floats; use a ratio of ints

Addition, multiplication, division, ``abs_diff`` and ``midpoint`` take an
int, a Fraction or an ExactValue and return ExactValues. Every other
operation is Fraction's: those that can leave the nonnegative rationals
(subtraction, negation) return a plain Fraction, never an ExactValue, and
an integral power returns a Fraction or an int.

>>> ExactValue(1, 3) - ExactValue(1, 2)
Fraction(-1, 6)
>>> ExactValue(1, 2) ** 2, 2 ** ExactValue(3)
(Fraction(1, 4), 8)
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

Coercible = Union["ExactValue", Fraction, int, str]

_NO_FLOATS = "ExactValue does not accept floats; use a ratio of ints"


def _operand(other, op: str) -> Fraction:
    """An int or Fraction operand of op as a Fraction of the same value."""
    if isinstance(other, Fraction):
        return other
    if isinstance(other, int):
        return Fraction(other)
    if isinstance(other, float):
        raise TypeError(_NO_FLOATS)
    raise TypeError(
        f"unsupported operand type(s) for {op}: 'ExactValue' and '{type(other).__name__}'"
    )


def _refusing_floats(op):
    """Fraction's binary operator op, raising TypeError for a float
    operand and for the float or complex result that Fraction gives for a
    power with a non-integral exponent. op runs on the value as a plain
    Fraction: Fraction's reflected power computes base ** exponent again,
    which with an ExactValue exponent would call back here without end."""
    def checked(self, other):
        if isinstance(other, float):
            raise TypeError(_NO_FLOATS)
        result = op(self.fraction, other)
        if isinstance(result, (float, complex)):
            raise TypeError(_NO_FLOATS)
        return result
    return checked


class ExactValue(Fraction):
    """A nonnegative rational number with exact arithmetic and total order."""

    __slots__ = ()

    def __new__(cls, numerator, denominator=None):
        # The common case, a nonnegative int over a positive int or none,
        # skips Fraction's generic dispatch; bool and every other argument
        # take Fraction's path below.
        if type(numerator) is int and numerator >= 0:
            if denominator is None:
                self = object.__new__(cls)
                self._numerator, self._denominator = numerator, 1
                return self
            if type(denominator) is int and denominator > 0:
                g = gcd(numerator, denominator)
                self = object.__new__(cls)
                self._numerator, self._denominator = numerator // g, denominator // g
                return self
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError(_NO_FLOATS)
        self = super().__new__(cls, numerator, denominator)
        if self._numerator < 0:
            raise ValueError(f"ExactValue must be nonnegative, got {self}")
        return self

    @classmethod
    def coerce(cls, value: Coercible) -> "ExactValue":
        if isinstance(value, ExactValue):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        return cls(value)

    @classmethod
    def parse(cls, text: str) -> "ExactValue":
        """Parse 'a/b' or a bare integer 'a'; malformed text raises ValueError."""
        text = text.strip()
        if "/" in text:
            num_s, _, den_s = text.partition("/")
            den = int(den_s)
            if den == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return cls(int(num_s), den)
        return cls(int(text))

    # Fraction's own versions of these two build the instance without
    # __new__ on Python 3.12+, which would skip both checks.
    @classmethod
    def from_float(cls, f):
        raise TypeError(_NO_FLOATS)

    @classmethod
    def from_decimal(cls, dec) -> "ExactValue":
        return cls(Fraction.from_decimal(dec))

    @property
    def fraction(self) -> Fraction:
        """The same value as a plain Fraction."""
        return Fraction(self._numerator, self._denominator)

    # Two ExactValues compare on their slots: both are in lowest terms, so
    # equal values have equal fields, and order is that of the
    # cross-products. Any other operand gets Fraction's comparison.
    def __eq__(self, other):
        if type(other) is ExactValue:
            return (self._numerator == other._numerator
                    and self._denominator == other._denominator)
        return Fraction.__eq__(self, other)

    def __lt__(self, other):
        if type(other) is ExactValue:
            return self._numerator * other._denominator < other._numerator * self._denominator
        return Fraction.__lt__(self, other)

    def __le__(self, other):
        if type(other) is ExactValue:
            return self._numerator * other._denominator <= other._numerator * self._denominator
        return Fraction.__le__(self, other)

    def __gt__(self, other):
        if type(other) is ExactValue:
            return self._numerator * other._denominator > other._numerator * self._denominator
        return Fraction.__gt__(self, other)

    def __ge__(self, other):
        if type(other) is ExactValue:
            return self._numerator * other._denominator >= other._numerator * self._denominator
        return Fraction.__ge__(self, other)

    # Defining __eq__ clears the inherited hash.
    __hash__ = Fraction.__hash__

    # Results are built from an int numerator and denominator, which the
    # constructor takes on its fast path. An operand that is not an int or
    # a Fraction raises TypeError.
    def __add__(self, other) -> "ExactValue":
        if type(other) is not ExactValue:
            other = _operand(other, "+")
        return ExactValue(
            self._numerator * other._denominator + other._numerator * self._denominator,
            self._denominator * other._denominator,
        )

    def __mul__(self, other) -> "ExactValue":
        if type(other) is not ExactValue:
            other = _operand(other, "*")
        return ExactValue(self._numerator * other._numerator,
                          self._denominator * other._denominator)

    def __truediv__(self, other) -> "ExactValue":
        if type(other) is not ExactValue:
            other = _operand(other, "/")
        if not other._numerator:
            raise ZeroDivisionError("division by zero ExactValue")
        return ExactValue(self._numerator * other._denominator,
                          self._denominator * other._numerator)

    def abs_diff(self, other) -> "ExactValue":
        """|self - other|, the only subtraction the library needs."""
        if type(other) is not ExactValue:
            other = _operand(other, "abs_diff")
        return ExactValue(
            abs(self._numerator * other._denominator - other._numerator * self._denominator),
            self._denominator * other._denominator,
        )

    def midpoint(self, other) -> "ExactValue":
        if type(other) is not ExactValue:
            other = _operand(other, "midpoint")
        return ExactValue(
            self._numerator * other._denominator + other._numerator * self._denominator,
            2 * self._denominator * other._denominator,
        )

    def token(self) -> str:
        """Canonical 'a/b' form, with '/1' kept for integers."""
        return f"{self._numerator}/{self._denominator}"

    def __repr__(self) -> str:
        return f"ExactValue({self.token()})"


# The rest of the arithmetic is Fraction's, which gives a float for a float
# operand on either side.
for _name in ("__radd__", "__sub__", "__rsub__", "__rmul__", "__rtruediv__", "__floordiv__",
              "__rfloordiv__", "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__",
              "__rpow__"):
    setattr(ExactValue, _name, _refusing_floats(getattr(Fraction, _name)))
del _name

ZERO = ExactValue(0)
ONE = ExactValue(1)
