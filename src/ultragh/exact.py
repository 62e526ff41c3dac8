"""Exact nonnegative rational scalars.

Every distance, threshold and distortion in the library is an ExactValue: a
nonnegative rational kept in lowest terms. All comparisons and arithmetic are
exact; no floating point enters the core. Subtraction is only offered as
``abs_diff`` so the nonnegativity invariant can never break.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Union

Coercible = Union["ExactValue", Fraction, int, str]


@total_ordering
class ExactValue:
    """A nonnegative rational number with exact arithmetic and total order."""

    __slots__ = ("_frac",)

    def __init__(self, numerator, denominator=1):
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("ExactValue does not accept floats; use a ratio of ints")
        if isinstance(numerator, ExactValue):
            frac = numerator._frac * Fraction(1, denominator) if denominator != 1 else numerator._frac
        elif isinstance(numerator, Fraction) and denominator == 1:
            frac = numerator
        else:
            frac = Fraction(numerator, denominator)
        if frac < 0:
            raise ValueError(f"ExactValue must be nonnegative, got {frac}")
        self._frac = frac

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

    @property
    def numerator(self) -> int:
        return self._frac.numerator

    @property
    def denominator(self) -> int:
        return self._frac.denominator

    @property
    def fraction(self) -> Fraction:
        return self._frac

    def __add__(self, other: "ExactValue") -> "ExactValue":
        return ExactValue(self._frac + other._frac)

    def __mul__(self, other: "ExactValue") -> "ExactValue":
        return ExactValue(self._frac * other._frac)

    def __truediv__(self, other: "ExactValue") -> "ExactValue":
        if other._frac == 0:
            raise ZeroDivisionError("division by zero ExactValue")
        return ExactValue(self._frac / other._frac)

    def abs_diff(self, other: "ExactValue") -> "ExactValue":
        """|self - other|, the only subtraction the library needs."""
        return ExactValue(abs(self._frac - other._frac))

    def midpoint(self, other: "ExactValue") -> "ExactValue":
        return ExactValue((self._frac + other._frac) / 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactValue):
            return NotImplemented
        return self._frac == other._frac

    def __lt__(self, other: "ExactValue") -> bool:
        if not isinstance(other, ExactValue):
            return NotImplemented
        return self._frac < other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def __bool__(self) -> bool:
        return self._frac != 0

    def __str__(self) -> str:
        if self._frac.denominator == 1:
            return str(self._frac.numerator)
        return f"{self._frac.numerator}/{self._frac.denominator}"

    def token(self) -> str:
        """Canonical 'a/b' form, with '/1' kept for integers."""
        return f"{self._frac.numerator}/{self._frac.denominator}"

    def __repr__(self) -> str:
        return f"ExactValue({self.token()})"


ZERO = ExactValue(0)
ONE = ExactValue(1)
