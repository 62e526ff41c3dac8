"""Exact nonnegative rational scalars.

Every distance, threshold and distortion in the library is an ExactValue: a
``fractions.Fraction`` subclass that only holds nonnegative rationals, kept
in lowest terms. Comparison, hashing and formatting are Fraction's own, so
an ExactValue equals the int or Fraction of the same value. Addition,
multiplication, division, ``abs_diff`` and ``midpoint`` return ExactValues.
Operations that can leave the nonnegative rationals (subtraction, negation)
return a plain Fraction, never an ExactValue. No floating point enters the
core.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Coercible = Union["ExactValue", Fraction, int, str]


class ExactValue(Fraction):
    """A nonnegative rational number with exact arithmetic and total order."""

    __slots__ = ()

    def __new__(cls, numerator, denominator=None):
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("ExactValue does not accept floats; use a ratio of ints")
        self = super().__new__(cls, numerator, denominator)
        if self.numerator < 0:
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
        raise TypeError("ExactValue does not accept floats; use a ratio of ints")

    @classmethod
    def from_decimal(cls, dec) -> "ExactValue":
        return cls(Fraction.from_decimal(dec))

    @property
    def fraction(self) -> Fraction:
        """The same value as a plain Fraction."""
        return Fraction(self.numerator, self.denominator)

    # Results are built from an int numerator and denominator: Fraction's
    # constructor takes that pair faster than it converts the Fraction that
    # Fraction's own operators return.
    def __add__(self, other: "ExactValue") -> "ExactValue":
        return ExactValue(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __mul__(self, other: "ExactValue") -> "ExactValue":
        return ExactValue(self.numerator * other.numerator, self.denominator * other.denominator)

    def __truediv__(self, other: "ExactValue") -> "ExactValue":
        if not other:
            raise ZeroDivisionError("division by zero ExactValue")
        return ExactValue(self.numerator * other.denominator, self.denominator * other.numerator)

    def abs_diff(self, other: "ExactValue") -> "ExactValue":
        """|self - other|, the only subtraction the library needs."""
        return ExactValue(
            abs(self.numerator * other.denominator - other.numerator * self.denominator),
            self.denominator * other.denominator,
        )

    def midpoint(self, other: "ExactValue") -> "ExactValue":
        return ExactValue(
            self.numerator * other.denominator + other.numerator * self.denominator,
            2 * self.denominator * other.denominator,
        )

    def token(self) -> str:
        """Canonical 'a/b' form, with '/1' kept for integers."""
        return f"{self.numerator}/{self.denominator}"

    def __repr__(self) -> str:
        return f"ExactValue({self.token()})"


ZERO = ExactValue(0)
ONE = ExactValue(1)
