import os
from functools import cache
from itertools import count

import pytest
from hypothesis import settings, strategies as st

from ultragh import (
    ExactValue,
    random_ultrametric,
    truncated_unramified_ring,
    validate_space,
    zq_delta,
)
from ultragh import correspondences, isometries
from ultragh.spaces import _checked_space

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


def refuse_relation_checks(monkeypatch, path, *, distortion):
    """Make the checks of one given relation raise when path runs them: the
    strong eps-isometry and eps-approximation verdicts and the partner
    walk, each at least O(n^2) per call. With distortion, also the
    distortion rank, O(|R|^2) in the relation's pairs, which only the
    classical search reads on a dhat_gh path."""
    names = [(isometries, "_isometry_verdict"), (isometries, "_approximation_verdict"),
             (correspondences, "_partner_walk")]
    if distortion:
        names += [(correspondences, "_distortion_rank"), (isometries, "_distortion_rank")]
    for module, name in names:
        def refuse(*args, name=name):
            raise AssertionError(f"{path} ran {name}")

        monkeypatch.setattr(module, name, refuse)


@cache
def caterpillar(n, split_bottom=False):
    """The space d(i, j) = max(i, j) on n points, its dendrogram a chain
    n - 1 nodes deep, built from its ranks. With split_bottom its four
    lowest points form two pairs, {0, 1} at 1 and {2, 3} at 2, 3 apart:
    the same spectrum and merge heights, isometric quotients from 1 up.
    Spaces are immutable, so each one is built once per session and
    shared."""
    rows = [[max(i, j) if i != j else 0 for j in range(n)] for i in range(n)]
    if split_bottom:
        for i, j, r in ((2, 3, 2), (0, 2, 3), (1, 2, 3)):
            rows[i][j] = rows[j][i] = r
    return _checked_space(tuple(map(str, range(n))), tuple(map(ExactValue, range(n))),
                          tuple(map(tuple, rows)), False)


def near_copy(draw, x, pool):
    """A near copy of x, drawn with the hypothesis draw: at least one point
    of each of its closed tau-balls, tau a distance below its diameter,
    with the distances up to tau moved through a nondecreasing map into
    the values of pool in (0, tau]. It keeps every distance above tau, so
    its quotient at tau is x's and dhat is at most tau. x needs at least
    two distinct positive distances."""
    k = draw(st.integers(1, len(x.values) - 2))
    tau = x.values[k]
    low = [v for v in pool if v <= tau]
    moved = dict(zip(x.values[1:k + 1], sorted(
        draw(st.lists(st.sampled_from(low), min_size=k, max_size=k)))))
    moved[x.values[0]] = x.values[0]
    keep, left = [], set(range(len(x)))
    while left:
        ball = [j for j in sorted(left) if x.ranks[min(left)][j] <= k]
        left -= set(ball)
        keep += [j for j, kept in zip(ball, draw(st.lists(
            st.booleans(), min_size=len(ball), max_size=len(ball)))) if kept] or ball[:1]
    keep.sort()
    return validate_space([[moved.get(x.dist(i, j), x.dist(i, j)) for j in keep]
                           for i in keep])
