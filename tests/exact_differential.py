"""Differential check of ExactValue against its reference in oracles.py.

ExactValue compares two ExactValues, and builds one from a nonnegative int
over a positive int, on Fraction's int slots; every other operand takes
Fraction's path. The reference (oracles.ExactValue) sends every operation
through Fraction. Both must give the same result, or raise the same
exception type with the same message, for every operator and argument.

The intended differences:

  * +, *, /, abs_diff and midpoint with an ExactValue on the left and an
    operand that is neither an int nor a Fraction raise TypeError, where
    the reference raised AttributeError (or ZeroDivisionError for a falsy
    divisor such as 0.0, "" or None);
  * every other arithmetic operator with an ExactValue on one side raises
    TypeError (_NO_FLOATS) where the reference, through Fraction, computes
    in floating point: beside a float operand, and for a power with a
    non-integral exponent, where it gives a float or, for a negative base,
    a complex. No operand here is complex.

Powers are checked on POWER_OPERANDS only, which hold no exponent large
enough to make an exact power slow.

tests/test_exact.py runs these checks on the fixed cases below and on
hypothesis draws. The fixed cases also run without pytest or hypothesis:

    PYTHONPATH=src python tests/exact_differential.py
"""

import math
import operator
import sys
from fractions import Fraction
from itertools import product

from ultragh import ExactValue
from ultragh.exact import _NO_FLOATS

from oracles import ExactValue as ReferenceExactValue

BIG = 10**40 + 3

OPERATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
    "divmod": divmod,
}
METHODS = ("abs_diff", "midpoint")
# The operations that refuse an operand that is not an int or a Fraction.
CHECKED = {"+", "*", "/", *METHODS}
# The operations that refuse a float beside an ExactValue on either side.
ARITHMETIC = {"+", "-", "*", "/", "//", "%", "divmod", "**"}

OPERANDS = (
    ExactValue(0), ExactValue(1), ExactValue(1, 2), ExactValue(3, 8), ExactValue(5, 12),
    ExactValue(7), ExactValue(BIG, 3),
    Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(BIG, 7),
    0, 1, -1, 2, BIG,
    True, False,
    0.0, 0.5, -0.5, 2.0, math.nan, math.inf, -math.inf,
    "1/2", "x", "",
    None,
)
POWER_OPERANDS = (
    ExactValue(0), ExactValue(1), ExactValue(1, 2), ExactValue(9, 4), ExactValue(3),
    Fraction(1, 4), Fraction(-1, 2), Fraction(-2), 0, 2, -1, -3, True,
    0.5, -2.0, math.nan, "x", None,
)
ARGUMENTS = (
    0, 1, 6, -1, -4, BIG, -BIG, True, False, None,
    Fraction(3, 4), Fraction(-3, 4), Fraction(0), ExactValue(3, 8),
    "3/4", "-3/4", "x", "", 0.5, math.nan,
)


def outcome(call, *args):
    """What call(*args) gives, in terms both implementations share: the
    result's type name and value, or the exception's type name and text."""
    try:
        result = call(*args)
    except Exception as exc:  # every exception is an outcome to compare
        return ("raises", type(exc).__name__, str(exc))
    if isinstance(result, Fraction):
        return (type(result).__name__, type(result.numerator).__name__,
                result.numerator, result.denominator)
    return (type(result).__name__, repr(result))


def reference(value):
    """value on the reference side: an ExactValue becomes the reference's."""
    if type(value) is ExactValue:
        return ReferenceExactValue(value.numerator, value.denominator)
    return value


def apply(name, left, right):
    """left <name> right, for an operator or a method name."""
    if name == "**":
        return left ** right
    if name in OPERATORS:
        return OPERATORS[name](left, right)
    return getattr(left, name)(right)




def expected(name, left, right):
    """The reference's outcome of left <name> right, or the TypeError that
    a checked operation raises for an operand it refuses."""
    if (name in CHECKED and type(left) is ExactValue
            and not isinstance(right, (int, Fraction))):
        if isinstance(right, float):
            return ("raises", "TypeError", _NO_FLOATS)
        return ("raises", "TypeError", f"unsupported operand type(s) for {name}: "
                f"'ExactValue' and '{type(right).__name__}'")
    want = outcome(apply, name, reference(left), reference(right))
    if (name in ARITHMETIC and ExactValue in (type(left), type(right))
            and (isinstance(left, float) or isinstance(right, float)
                 or want[0] in ("float", "complex"))):
        return ("raises", "TypeError", _NO_FLOATS)
    return want


def check_pair(left, right, names=None):
    """Every operator on (left, right), and the methods when left is an
    ExactValue, or only the operations names; returns a list of
    mismatches."""
    if names is None:
        names = list(OPERATORS) + (list(METHODS) if type(left) is ExactValue else [])
    bad = []
    for name in names:
        got, want = outcome(apply, name, left, right), expected(name, left, right)
        if got != want:
            bad.append(f"{left!r} {name} {right!r}: got {got}, want {want}")
    return bad


def check_unary(value):
    """hash and bool of an ExactValue against the reference's."""
    bad = []
    for name, call in (("hash", hash), ("bool", bool)):
        got, want = outcome(call, value), outcome(call, reference(value))
        if got != want:
            bad.append(f"{name}({value!r}): got {got}, want {want}")
    return bad


def check_constructor(*args):
    """ExactValue(*args) against the reference: same type, numerator and
    denominator, or the same exception."""
    got = outcome(ExactValue, *args)
    want = outcome(ReferenceExactValue, *map(reference, args))
    return [] if got == want else [f"ExactValue{args!r}: got {got}, want {want}"]


def fixed_cases():
    """Every ordered pair of OPERANDS, powers over every ordered pair of
    POWER_OPERANDS, every ExactValue's hash and bool, and ExactValue(n)
    and ExactValue(n, d) over ARGUMENTS."""
    bad = []
    for left, right in product(OPERANDS, repeat=2):
        bad += check_pair(left, right)
    for left, right in product(POWER_OPERANDS, repeat=2):
        bad += check_pair(left, right, ["**"])
    for value in OPERANDS:
        if type(value) is ExactValue:
            bad += check_unary(value)
    for n in ARGUMENTS:
        bad += check_constructor(n)
        for d in ARGUMENTS:
            bad += check_constructor(n, d)
    return bad


def main():
    bad = fixed_cases()
    for line in bad:
        print(line)
    print(f"{len(bad)} mismatches on Python {sys.version.split()[0]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
