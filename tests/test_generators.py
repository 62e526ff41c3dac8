from fractions import Fraction
from itertools import chain

import pytest

from ultragh import (
    ExactValue,
    LocalFieldParams,
    ball_partition,
    dhat_gh,
    diameter_trend,
    induced_subspace,
    ramified_ball_approx,
    random_ultrametric,
    spectra_lower_bound,
    truncated_scaled_ball,
    truncated_unramified_ring,
    validate_space,
    weight_spectrum,
    zq_delta,
)
from ultragh.errors import RequiresPGreaterQError, SizeCapExceededError

from conftest import ev
from oracles import ball_class_count, digit_metric_matrix, random_ultrametric_matrix

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]
WIDE_POOL = [ExactValue(k, 7) for k in range(1, 30)]

# Each generator on a grid of parameters up to 256 points.
GENERATOR_GRID = [
    *((truncated_unramified_ring, args) for args in (
        (2, 1, 1), (2, 1, 4), (2, 1, 8), (3, 1, 3), (3, 1, 5), (2, 2, 2),
        (2, 2, 4), (5, 1, 3), (7, 1, 2), (2, 3, 2), (13, 1, 2))),
    *((truncated_scaled_ball, args) for args in (
        (2, 1, 1, 3), (3, 1, -2, 4), (5, 1, 3, 2), (2, 2, -1, 3))),
    *((ramified_ball_approx, args) for args in (
        (2, 2, 1, 0, 4), (3, 2, 1, 1, 5), (2, 3, 1, -1, 8), (5, 2, 1, 0, 3),
        (2, 2, 2, 0, 3), (3, 3, 1, 2, 2, 20))),
    *((zq_delta, args) for args in (
        (3, 2, 1), (5, 2, 4), (7, 3, 3), (11, 2, 7), (5, 3, 5), (13, 5, 1))),
    *((random_ultrametric, (n, seed, pool)) for n in (1, 2, 3, 17, 64, 256)
      for seed in (0, 5) for pool in (POOL, [ExactValue(1)], WIDE_POOL)),
]


def test_params_validation():
    with pytest.raises(ValueError):
        LocalFieldParams(4, 1, 1, 0, 1)
    with pytest.raises(ValueError):
        LocalFieldParams(2, 0, 1, 0, 1)


def test_unramified_fixtures(x2, x3, z4):
    assert len(x2) == 2 and x2.dist(0, 1) == ev(1)
    assert len(x3) == 3 and all(
        x3.dist(i, j) == ev(1) for i in range(3) for j in range(i + 1, 3)
    )
    assert z4.dist(0, 2) == ev("1/2") and z4.dist(1, 3) == ev("1/2")
    assert z4.dist(0, 1) == ev(1) and z4.dist(0, 3) == ev(1)


def test_residue_field_case():
    s = truncated_unramified_ring(2, 2, 1)
    assert len(s) == 4
    assert all(s.dist(i, j) == ev(1) for i in range(4) for j in range(i + 1, 4))


def test_ring_spectrum():
    s = truncated_unramified_ring(2, 1, 3)
    assert weight_spectrum(s).values == (ev("1/4"), ev("1/2"), ev(1))


def test_size_cap():
    with pytest.raises(SizeCapExceededError):
        truncated_unramified_ring(2, 1, 7)
    assert len(truncated_unramified_ring(2, 1, 7, size_cap=128)) == 128


def test_scaled_ball_examples(z4):
    assert truncated_scaled_ball(2, 1, 1, 1).dist(0, 1) == ev("1/2")
    s = truncated_scaled_ball(3, 1, 1, 1)
    assert all(s.dist(i, j) == ev("1/3") for i in range(3) for j in range(i + 1, 3))
    assert truncated_scaled_ball(2, 1, 0, 2) == z4
    # negative exponent scales up and stays exact
    assert truncated_scaled_ball(2, 1, -1, 1).dist(0, 1) == ev(2)


def test_ramified_is_exact_when_unramified():
    assert ramified_ball_approx(3, 1, 1, 0, 2) == truncated_scaled_ball(3, 1, 0, 2)
    assert not ramified_ball_approx(3, 1, 1, 0, 2).inexact


def test_ramified_approximation_quality():
    # A negative s scales the ball up: its top level 2^(1/2) is
    # approximated from below as well.
    bits = 40
    for s, root in ((0, Fraction(1, 2)), (-1, Fraction(2))):
        space = ramified_ball_approx(2, 2, 1, s, 2, precision_bits=bits)
        assert space.inexact
        values = space.distance_values()
        assert len(values) == 2 and ev(1) in values  # level zero stays exact
        approx = next(v for v in values if v != 1).fraction
        # interval bound: approx <= root^(1/2) < approx + 2^-bits
        assert approx ** 2 <= root
        assert (approx + Fraction(1, 2 ** bits)) ** 2 > root


def test_ramified_order_preserved():
    s = ramified_ball_approx(3, 2, 1, 0, 3, precision_bits=32)
    values = s.distance_values()
    assert len(values) == 3
    assert values[0] < values[1] < values[2] == ev(1)
    # approximated 3^(-1/2) sits strictly between exact 3^(-1) and 1
    assert values[0] == ev("1/3")  # level 2 is exact: 3^(-2/2)
    assert ev("1/3") < values[1] < ev(1)


def test_ramified_rejects_too_few_bits():
    with pytest.raises(ValueError, match="too small to separate adjacent level values"):
        ramified_ball_approx(2, 3, 1, 0, 3, precision_bits=1)
    # 2^(-4/3) < 1/2 has no nonzero approximation over 2^1.
    with pytest.raises(ValueError, match=r"too small to represent p\^\(-4/3\)"):
        ramified_ball_approx(2, 3, 1, 4, 1, precision_bits=1)


@pytest.mark.parametrize("make, message", [
    (lambda: random_ultrametric(0, 1, POOL), "n must be >= 1"),
    (lambda: random_ultrametric(3, 1, [ev(0), ev(1)]), "entries must be positive"),
    (lambda: random_ultrametric(3, 1, [ev(1), ev("1/2")]), "must be strictly increasing"),
    (lambda: random_ultrametric(3, 1, [ev(1), ev(1)]), "must be strictly increasing"),
    (lambda: zq_delta(4, 3, 1), "p and q must both be prime"),
    (lambda: zq_delta(5, 1, 1), "p and q must both be prime"),
])
def test_generator_arguments_are_checked(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_zq_delta_fixture(ydelta):
    assert len(ydelta) == 3
    assert ydelta.labels == ("0", "1", "t2")
    assert ydelta.dist(0, 1) == ev(1)
    assert ydelta.dist(0, 2) == ydelta.dist(1, 2) == ev("3/2")
    assert ydelta.diameter() == ev("3/2")


def test_zq_delta_more_primes():
    s = zq_delta(5, 2, 1)
    assert len(s) == 5
    assert s.diameter() == ev("3/2")
    assert s.dist(2, 3) == ev("3/2")
    s = zq_delta(5, 3, 1)
    assert len(s) == 5
    assert s.dist(0, 4) == ev("4/3")
    with pytest.raises(RequiresPGreaterQError):
        zq_delta(2, 3, 1)


def test_zq_delta_restriction_recovers_ring():
    s = zq_delta(5, 2, 2)
    ring = truncated_unramified_ring(2, 1, 2)
    assert induced_subspace(s, range(4)).matrix() == ring.matrix()


def test_ball_counts_match_digit_structure():
    for p in (2, 3):
        for depth in (1, 2, 3):
            space = truncated_unramified_ring(p, 1, depth, size_cap=128)
            for j in range(depth):
                eps = ExactValue(Fraction(1, p ** j))
                classes = ball_partition(space, eps)
                # positions with distance >= eps are 0..j, hence p^(j+1) balls
                assert len(classes) == p ** (j + 1)
                assert len(classes) == ball_class_count(space, eps)


def test_nested_truncation_distance_law():
    for p in (2, 3):
        for k in range(1, 5):
            for m in range(1, k):
                a = truncated_unramified_ring(p, 1, k, size_cap=128)
                b = truncated_unramified_ring(p, 1, m, size_cap=128)
                expected = ExactValue(Fraction(1, p ** m))
                report = dhat_gh(
                    a, b, methods=("approximation_scan",), include_classical=False
                )
                assert report.dhat == expected
                assert spectra_lower_bound(a, b) == expected


def test_random_ultrametric_deterministic_and_valid():
    a = random_ultrametric(6, 42, POOL)
    b = random_ultrametric(6, 42, POOL)
    assert a == b
    c = random_ultrametric(6, 43, POOL)
    assert len(c) == 6  # different seed still validates


def test_random_singleton_and_pair():
    assert len(random_ultrametric(1, 0, POOL)) == 1
    pair = random_ultrametric(2, 0, [ExactValue(1)])
    assert pair.dist(0, 1) == ev(1)


def test_random_pool_reuse_when_shallow():
    space = random_ultrametric(8, 7, [ExactValue(1)])
    assert space.diameter() == ev(1)  # shallow pool reuses its only value


@pytest.mark.parametrize("make, args", GENERATOR_GRID)
def test_generators_match_the_matrix_validator(make, args):
    # Each generator builds its rank rows directly; the matrix they stand
    # for, sent through the validator, gives the same space.
    space = make(*args, size_cap=256)
    assert space == validate_space(space.matrix(), space.labels, inexact=space.inexact)


@pytest.mark.parametrize("p, f, s, depth", [
    (2, 1, 0, 1), (2, 1, 0, 6), (3, 1, 1, 4), (2, 2, -1, 3), (5, 1, 0, 3), (3, 2, 2, 2),
])
def test_digit_metric_is_the_first_differing_digit(p, f, s, depth):
    # The valuation formula agrees with comparing digits pair by pair.
    levels = [ExactValue(Fraction(p) ** (-(s + j))) for j in range(depth)]
    expected = validate_space(digit_metric_matrix(p ** f, depth, levels))
    assert truncated_scaled_ball(p, f, s, depth, size_cap=256) == expected


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 200])
@pytest.mark.parametrize("pool", [POOL, [ExactValue(1)], WIDE_POOL])
def test_random_ultrametric_matches_the_matrix_fill(n, pool):
    # The same random calls give the same dendrogram as filling a matrix
    # of pool values block pair by block pair.
    for seed in range(4):
        expected = validate_space(random_ultrametric_matrix(n, seed, pool))
        assert random_ultrametric(n, seed, pool, size_cap=256) == expected


def test_random_values_are_the_distances_used():
    # values lists only the pool values some split drew, ZERO first.
    unused = 0
    for n in (1, 2, 5, 40):
        for seed in range(5):
            space = random_ultrametric(n, seed, WIDE_POOL)
            assert set(space.values) == set(chain.from_iterable(space.matrix()))
            unused += len(WIDE_POOL) + 1 - len(space.values)
    assert unused > 0
