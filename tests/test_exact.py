import copy
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from ultragh import ExactValue, ZERO, ONE, validate_space


def test_lowest_terms_and_fields():
    v = ExactValue(6, 4)
    assert v.numerator == 3 and v.denominator == 2


def test_negative_rejected():
    for args in ((-1, 2), (1, -2), (Fraction(-1, 2),), ("-1/2",), (ExactValue(1), -2)):
        with pytest.raises(ValueError, match="must be nonnegative, got -1/2"):
            ExactValue(*args)


def test_negative_rejected_by_inherited_constructors():
    with pytest.raises(ValueError):
        ExactValue.from_decimal(Decimal("-0.5"))
    assert type(ExactValue.from_decimal(Decimal("0.5"))) is ExactValue


def test_floats_rejected():
    for make in (
        lambda: ExactValue(0.5),
        lambda: ExactValue(1, 2.0),
        lambda: ExactValue.coerce(0.5),
        lambda: ExactValue.from_float(0.5),
    ):
        with pytest.raises(TypeError, match="does not accept floats"):
            make()


def test_ordering_and_arithmetic():
    a, b = ExactValue(1, 3), ExactValue(1, 2)
    assert a < b <= b and max(a, b) == b and min(a, b) == a
    assert a + b == ExactValue(5, 6)
    assert b.abs_diff(a) == a.abs_diff(b) == ExactValue(1, 6)
    assert a.midpoint(b) == ExactValue(5, 12)
    assert (b * ExactValue(2)) == ONE
    assert b / a == ExactValue(3, 2)


def test_operations_keep_the_type():
    a, b = ExactValue(1, 3), ExactValue(1, 2)
    for result in (a + b, a * b, a / b, a.abs_diff(b), b.abs_diff(a), a.midpoint(b)):
        assert type(result) is ExactValue
    assert type(a.fraction) is Fraction and a.fraction == Fraction(1, 3)


def test_mixed_operands_follow_fraction():
    # Comparison and hashing are Fraction's own, so an ExactValue equals
    # the int or Fraction of the same value; subtraction leaves the type.
    assert ExactValue(1) == 1 and ExactValue(1) == Fraction(1)
    assert ExactValue(1, 2) < 1 and ExactValue(1, 2) > Fraction(1, 3)
    assert hash(ExactValue(1, 2)) == hash(Fraction(1, 2))
    diff = ExactValue(1, 3) - ExactValue(1, 2)
    assert type(diff) is Fraction and diff == Fraction(-1, 6)
    assert type(-ExactValue(1)) is Fraction


@pytest.mark.parametrize("value", [ExactValue(6), ExactValue(3, 2), ZERO])
def test_pickle_and_copy_keep_type_and_value(value):
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(clone) is ExactValue and clone == value


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_parse_and_format():
    assert ExactValue.parse("3/2") == ExactValue(3, 2)
    assert ExactValue.parse("7") == ExactValue(7)
    assert str(ExactValue(3, 2)) == f"{ExactValue(3, 2)}" == "3/2"
    assert str(ExactValue(6)) == f"{ExactValue(6)}" == "6"
    assert ExactValue(6).token() == "6/1"
    assert ExactValue(3, 2).token() == "3/2"
    assert repr(ExactValue(6)) == "ExactValue(6/1)"
    assert repr(ExactValue(3, 2)) == "ExactValue(3/2)"


def test_parse_zero_denominator():
    # A ValueError, like any other malformed token, so argparse and
    # validate_space report it instead of crashing.
    with pytest.raises(ValueError):
        ExactValue.parse("1/0")
    with pytest.raises(ValueError):
        ExactValue.parse(" 0/0 ")
    with pytest.raises(ValueError):
        validate_space([[0, "1/0"], ["1/0", 0]])


def test_coerce_variants():
    assert ExactValue.coerce(Fraction(2, 4)) == ExactValue(1, 2)
    assert ExactValue.coerce("5/5") == ONE
    assert ExactValue.coerce(ExactValue(2)) == ExactValue(2)


def test_hash_consistency():
    assert hash(ExactValue(2, 4)) == hash(ExactValue(1, 2))
    assert len({ExactValue(1, 2), ExactValue(2, 4), ONE}) == 2
