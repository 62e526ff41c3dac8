import copy
import operator
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultragh import ExactValue, ZERO, ONE, validate_space

from exact_differential import check_constructor, check_pair, check_unary, fixed_cases


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
    # Comparison with any operand but an ExactValue, and hashing, are
    # Fraction's own, so an ExactValue equals the int or Fraction of the
    # same value and hashes like it; subtraction leaves the type.
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
    assert ExactValue.parse(" 6/4\n") == ExactValue(3, 2)
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


@pytest.mark.parametrize("text", ["+1/2", "1_0/3", "1 / 2", "1/ 2", "\u0663", "-0", "1/+2",
                                  "1/2/3", "/2", "1/", ""])
def test_parse_takes_ascii_digits_alone(text):
    # The rule of every number in a .ums file: int() reads a sign,
    # underscores, inner spaces and non-ASCII digits, and parse reads none.
    with pytest.raises(ValueError, match="expected digits or digits/digits"):
        ExactValue.parse(text)
    with pytest.raises(ValueError, match="expected digits or digits/digits"):
        validate_space([[0, text], [text, 0]])


def test_coerce_variants():
    assert ExactValue.coerce(Fraction(2, 4)) == ExactValue(1, 2)
    assert ExactValue.coerce("5/5") == ONE
    assert ExactValue.coerce(ExactValue(2)) == ExactValue(2)


def test_hash_consistency():
    assert hash(ExactValue(2, 4)) == hash(ExactValue(1, 2))
    assert len({ExactValue(1, 2), ExactValue(2, 4), ONE}) == 2


def test_float_comparison_raises():
    # Fraction would compare with the float's exact value; ExactValue
    # refuses it, in either operand order. nan and the infinities compare
    # as Fraction compares them, without converting.
    for compare in (
        lambda: ExactValue(1, 2) == 0.5,
        lambda: ExactValue(1, 2) < 0.75,
        lambda: 0.25 >= ExactValue(1, 2),
        lambda: ExactValue(0) != 0.0,
    ):
        with pytest.raises(TypeError, match="does not accept floats"):
            compare()
    assert ExactValue(1, 2) < float("inf") and not ExactValue(1, 2) == float("nan")


@pytest.mark.parametrize("name, operation", [
    ("+", operator.add),
    ("*", operator.mul),
    ("/", operator.truediv),
    ("abs_diff", ExactValue.abs_diff),
    ("midpoint", ExactValue.midpoint),
])
def test_arithmetic_refuses_floats_and_non_numbers(name, operation):
    a = ExactValue(1, 2)
    for other in (0.5, 0.0, float("nan")):
        with pytest.raises(TypeError, match="does not accept floats"):
            operation(a, other)
    for other in ("x", "", None, [1]):
        message = f"unsupported operand type(s) for {name}: 'ExactValue' and '{type(other).__name__}'"
        with pytest.raises(TypeError, match=re.escape(message)):
            operation(a, other)
    # ints, bools and Fractions are taken as before.
    assert operation(a, 2) == operation(a, Fraction(2)) == operation(a, ExactValue(2))
    assert operation(a, True) == operation(a, ONE)


def test_inherited_arithmetic_refuses_floats():
    # Fraction would compute each of these in floating point, with the
    # float on either side, or for a non-integral exponent.
    h = ExactValue(1, 2)
    for compute in (
        lambda: h - 0.5, lambda: 0.5 - h, lambda: 0.5 + h, lambda: 0.5 * h,
        lambda: 2.0 / h, lambda: h // 0.5, lambda: h % 0.5, lambda: divmod(h, 0.5),
        lambda: h ** 0.5, lambda: 2 ** h, lambda: ExactValue(4) ** h,
        lambda: Fraction(1, 4) ** h,
    ):
        with pytest.raises(TypeError, match="does not accept floats"):
            compute()
    # Int and Fraction results are Fraction's, as before.
    assert type(h - 1) is Fraction and h - 1 == Fraction(-1, 2)
    assert type(h ** 2) is Fraction and h ** 2 == Fraction(1, 4)
    assert type(2 ** ExactValue(3)) is int and 2 ** ExactValue(3) == 8
    assert h // 1 == 0 and h % 1 == h


def test_fraction_keeps_its_slot_names():
    # The fast paths read and fill these two slots directly.
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def test_fast_paths_match_the_reference_on_fixed_cases():
    assert fixed_cases() == []


exact_values = st.builds(ExactValue, st.integers(0, 10**30), st.integers(1, 10**30))
operands = st.one_of(
    exact_values,
    st.fractions(),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
)
arguments = st.one_of(
    st.integers(),
    st.booleans(),
    st.none(),
    st.fractions(),
    exact_values,
    st.sampled_from(["3/4", " 7 ", "-1/2", "1/0", "x", ""]),
    st.text(max_size=4),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(exact_values, operands)
def test_fast_paths_match_the_reference(value, other):
    assert check_pair(value, other) + check_pair(other, value) + check_unary(value) == []


@settings(max_examples=300, deadline=None)
@given(arguments, arguments)
def test_constructor_matches_the_reference(numerator, denominator):
    assert check_constructor(numerator) + check_constructor(numerator, denominator) == []


small_values = st.builds(ExactValue, st.integers(0, 40), st.integers(1, 40))
exponents = st.one_of(
    small_values,
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.floats(),
)


@settings(max_examples=300, deadline=None)
@given(small_values, exponents)
def test_powers_match_the_reference(value, other):
    assert check_pair(value, other, ["**"]) + check_pair(other, value, ["**"]) == []
