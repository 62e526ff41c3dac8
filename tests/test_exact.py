import pytest
from fractions import Fraction

from ultragh import ExactValue, ZERO, ONE, validate_space


def test_lowest_terms_and_fields():
    v = ExactValue(6, 4)
    assert v.numerator == 3 and v.denominator == 2


def test_negative_rejected():
    with pytest.raises(ValueError):
        ExactValue(-1, 2)
    with pytest.raises(ValueError):
        ExactValue(1, -2)


def test_floats_rejected():
    with pytest.raises(TypeError):
        ExactValue(0.5)
    with pytest.raises(TypeError):
        ExactValue.coerce(0.5)


def test_ordering_and_arithmetic():
    a, b = ExactValue(1, 3), ExactValue(1, 2)
    assert a < b <= b and max(a, b) == b and min(a, b) == a
    assert a + b == ExactValue(5, 6)
    assert b.abs_diff(a) == a.abs_diff(b) == ExactValue(1, 6)
    assert a.midpoint(b) == ExactValue(5, 12)
    assert (b * ExactValue(2)) == ONE
    assert b / a == ExactValue(3, 2)


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_parse_and_format():
    assert ExactValue.parse("3/2") == ExactValue(3, 2)
    assert ExactValue.parse("7") == ExactValue(7)
    assert str(ExactValue(3, 2)) == "3/2"
    assert str(ExactValue(6)) == "6"
    assert ExactValue(6).token() == "6/1"
    assert ExactValue(3, 2).token() == "3/2"


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
