import os
from itertools import count

import pytest
from hypothesis import settings

from ultragh import (
    ExactValue,
    random_ultrametric,
    truncated_unramified_ring,
    validate_space,
    zq_delta,
)

# CI runs with HYPOTHESIS_PROFILE=ci: examples derive from each test alone,
# and a failure prints the blob that replays it, so a failed CI run repeats
# bit for bit on any machine. Example counts stay those of each test.
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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
