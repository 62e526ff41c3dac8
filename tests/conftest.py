from itertools import count

import pytest

from ultragh import (
    ExactValue,
    random_ultrametric,
    truncated_unramified_ring,
    validate_space,
    zq_delta,
)


@pytest.fixture
def x2():
    return truncated_unramified_ring(2, 1, 1)


@pytest.fixture
def x3():
    return truncated_unramified_ring(3, 1, 1)


@pytest.fixture
def z4():
    return truncated_unramified_ring(2, 1, 2)


@pytest.fixture
def ydelta():
    return zq_delta(3, 2, 1)


@pytest.fixture
def singleton():
    return validate_space([[ExactValue(0)]], ["p"])


def ev(text):
    return ExactValue.parse(str(text))


def equal_diameter_partner(x, m, seed, pool):
    """The random space of m points, from the first seed at or after seed,
    whose diameter is x's: equal-diameter pairs without filtering. The
    diameter of a random space of two or more points is a uniform draw from
    the pool, so about len(pool) seeds are tried; m must be 1 exactly when
    x is a singleton."""
    ys = (random_ultrametric(m, s, pool) for s in count(seed))
    return next(y for y in ys if y.diameter() == x.diameter())
