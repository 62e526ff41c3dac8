from fractions import Fraction
from itertools import combinations, count, product
from math import ceil

import pytest
from hypothesis import given, settings, strategies as st

from ultragh import (
    ApproximationWitness,
    ExactValue,
    ball_partition,
    ball_representatives,
    candidate_thresholds,
    check_convergence_certificate,
    check_net_convergence_certificate,
    correspondence_from_isometry,
    distortion,
    exists_strong_epsilon_approximation,
    exists_strong_epsilon_isometry,
    find_split,
    is_epsilon_net,
    is_strong_correspondence,
    is_strong_epsilon_approximation,
    is_strong_epsilon_isometry,
    map_distortion,
    random_ultrametric,
    replay_split,
    sutb_check,
)
from ultragh.errors import BudgetExceededError, IndexOutOfRangeError, LengthMismatchError
from ultragh.isometries import _approximation_verdict, _isometry_verdict
from ultragh.spaces import BreakpointGrid

from conftest import caterpillar, equal_diameter_partner, ev, near_copy, refuse_relation_checks
from oracles import (
    approximation_search,
    approximation_verdict,
    first_strong_epsilon_isometry,
    fraction_matrix,
    grid_int_tables,
    isometry_search,
    isometry_verdict,
)

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]
DIFFERENTIAL_BUDGET = 5_000  # reference search nodes per differential call


def test_map_distortion_examples(x2, x3, z4):
    assert map_distortion(x3, x3, [0, 1, 2]) == ev(0)
    assert map_distortion(x2, x2, [0, 0]) == ev(1)
    assert map_distortion(z4, x2, [0, 1, 0, 1]) == ev("1/2")
    for f in ([0, 1], [0, 1, 2, 0]):
        with pytest.raises(IndexOutOfRangeError, match=f"map has {len(f)} entries for 3 points"):
            map_distortion(x3, x3, f)


def test_strong_isometry_identity(x3):
    witness = is_strong_epsilon_isometry(x3, x3, [0, 1, 2], ev("1/100"))
    assert witness.is_strong_eps_isometry and witness.failure is None


def test_injective_x2_to_x3(x2, x3):
    for f in ([0, 1], [0, 2], [1, 2]):
        at_one = is_strong_epsilon_isometry(x2, x3, f, ev(1))
        assert not at_one.is_eps_isometry
        assert at_one.failure.check == "net"
        wide = is_strong_epsilon_isometry(x2, x3, f, ev("3/2"))
        assert wide.is_strong_eps_isometry


def test_failure_certificates_order(x2, x3):
    # constant map at eps = 1/2: distortion fails first
    w = is_strong_epsilon_isometry(x2, x2, [0, 0], ev("1/2"))
    assert w.failure.check == "dis"
    # identity-ish injective map at eps = 1: the net check is the first failure
    w = is_strong_epsilon_isometry(x2, x3, [0, 1], ev(1))
    assert w.failure.check == "net" and w.failure.points == (2,)


def test_exists_strong_isometry_examples(x2, x3, ydelta):
    assert exists_strong_epsilon_isometry(x3, x3, ev("1/4")) is not None
    assert exists_strong_epsilon_isometry(x2, x3, ev(1)) is None
    assert exists_strong_epsilon_isometry(x3, ydelta, ev("3/2")) is None
    witness = exists_strong_epsilon_isometry(x3, ydelta, ev(2))
    assert witness is not None and witness.is_strong_eps_isometry


def test_exists_returns_lexicographically_smallest(x3):
    witness = exists_strong_epsilon_isometry(x3, x3, ev(1))
    assert witness.images == (0, 1, 2)


def test_si2_failure_visible(z4, x2):
    # map collapsing a distance-1 pair of Z4 while eps forces preservation
    w = is_strong_epsilon_isometry(z4, x2, [0, 0, 0, 1], ev("3/4"))
    assert not w.is_strong_eps_isometry
    assert w.failure is not None


def test_approximation_verdicts(x3, ydelta):
    assert is_strong_epsilon_approximation(
        x3, x3, ev(1), ApproximationWitness((0, 1, 2), (0, 1, 2), ev(1))
    ).valid
    assert is_strong_epsilon_approximation(
        x3, ydelta, ev(2), ApproximationWitness((0,), (0,), ev(2))
    ).valid
    # at eps = 1: the X3 side needs all three points, but YDelta has no
    # triple of points pairwise at distance one; shorter witnesses already
    # fail the left net condition
    for length in (1, 2, 3):
        for xs in product(range(3), repeat=length):
            for ys in product(range(3), repeat=length):
                verdict = is_strong_epsilon_approximation(
                    x3, ydelta, ev(1), ApproximationWitness(xs, ys, ev(1))
                )
                assert not verdict.valid
    with pytest.raises(LengthMismatchError):
        is_strong_epsilon_approximation(
            x3, ydelta, ev(1), ApproximationWitness((0, 1), (0,), ev(1))
        )


def test_exists_approximation_examples(x3, ydelta, z4, x2):
    w = exists_strong_epsilon_approximation(x3, x3, ev("1/2"))
    assert w is not None and w.xs == (0, 1, 2)

    w = exists_strong_epsilon_approximation(x3, ydelta, ev(2))
    assert w is not None and len(w.xs) == 1

    w = exists_strong_epsilon_approximation(z4, x2, ev(1))
    assert w is not None
    assert w.xs == (0, 1) and w.ys == (0, 1)


def test_monotone_in_epsilon(x3, ydelta):
    # a strong eps-isometry stays strong at every larger threshold
    witness = exists_strong_epsilon_isometry(x3, ydelta, ev(2))
    for larger in (ev("5/2"), ev(3), ev(10)):
        again = is_strong_epsilon_isometry(x3, ydelta, witness.images, larger)
        assert again.is_strong_eps_isometry
    w = exists_strong_epsilon_approximation(x3, ydelta, ev(2))
    assert is_strong_epsilon_approximation(
        x3, ydelta, ev(3), ApproximationWitness(w.xs, w.ys, ev(3))
    ).valid


def test_correspondence_from_isometry(x3, ydelta):
    witness = exists_strong_epsilon_isometry(x3, ydelta, ev(2))
    corr = correspondence_from_isometry(x3, ydelta, witness.images, ev(2))
    verdict = is_strong_correspondence(corr)
    assert verdict.is_strong
    assert verdict.distortion <= ev(2)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 4_000),
    st.integers(0, 4_000),
    st.integers(0, 3),
)
def test_isometry_witness_converts(n, m, seed_a, seed_b, eps_index):
    x = random_ultrametric(n, seed_a, POOL)
    y = random_ultrametric(m, seed_b, POOL)
    eps = POOL[eps_index]
    witness = exists_strong_epsilon_isometry(x, y, eps)
    if witness is None:
        return
    corr = correspondence_from_isometry(x, y, witness.images, eps)
    verdict = is_strong_correspondence(corr)
    assert verdict.is_strong and verdict.distortion <= eps
    assert distortion(corr) == verdict.distortion


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 4_000),
    st.integers(0, 4_000),
)
def test_isometry_scan_matches_exhaustive_oracle(n, m, seed_a, seed_b):
    # every threshold, every midpoint the engine probes, and values above
    # the sentinel
    x = random_ultrametric(n, seed_a, POOL)
    y = random_ultrametric(m, seed_b, POOL)
    grid = candidate_thresholds(x, y)
    probes = [
        *grid[1:],
        *(a.midpoint(b) for a, b in zip(grid, grid[1:])),
        grid[-1] + ev("1/3"),
        grid[-1] + ev(5),
    ]
    for eps in probes:
        want = first_strong_epsilon_isometry(x, y, eps)
        for search in (exists_strong_epsilon_isometry, isometry_search):
            witness = search(x, y, eps)
            got = None if witness is None else witness.images
            assert got == want, (search, eps)


@st.composite
def differential_pairs(draw):
    """Pairs of 1-12 points a side, the sides swapped in half the draws.
    The right space is: in one draw of ten a random space of any diameter;
    in two an equal-diameter random partner; in the other seven, the hard
    case, a near copy (near_copy) of a left space of 3-12 points with at
    least two distinct distances."""
    kind = draw(st.integers(0, 9))
    seed = draw(st.integers(0, 20_000))
    if kind == 0:
        x = random_ultrametric(draw(st.integers(1, 12)), seed, POOL)
        y = random_ultrametric(draw(st.integers(1, 12)), seed + 1, POOL)
    elif kind <= 2:
        x = random_ultrametric(draw(st.integers(2, 12)), seed, POOL)
        y = equal_diameter_partner(x, draw(st.integers(2, 12)), seed + 1, POOL)
    else:
        n = draw(st.integers(3, 12))
        x = next(x for x in (random_ultrametric(n, s, POOL) for s in count(seed))
                 if len(x.values) > 2)
        y = near_copy(draw, x, POOL)
    return (y, x) if draw(st.booleans()) else (x, y)


@settings(max_examples=60, deadline=None)
@given(differential_pairs())
def test_public_searches_match_reference_searches(pair):
    # At every threshold, every cell midpoint, a point inside the first
    # cell and above the top, each public function gives the reference
    # search's witness, field by field, or None with it. Calls on which
    # the reference search runs past its budget are skipped.
    x, y = pair
    thresholds = candidate_thresholds(x, y)
    epsilons = [thresholds[1] / 3, *thresholds[1:], thresholds[-1] + 1,
                *(a.midpoint(b) for a, b in zip(thresholds, thresholds[1:]))]
    for public, reference in ((exists_strong_epsilon_isometry, isometry_search),
                              (exists_strong_epsilon_approximation, approximation_search)):
        for eps in epsilons:
            try:
                want = reference(x, y, eps, budget=DIFFERENTIAL_BUDGET)
            except BudgetExceededError:
                continue
            got = public(x, y, eps)
            assert (got is None) == (want is None), (public, eps)
            if got is not None:
                assert vars(got) == vars(want), (public, eps)


def test_public_searches_on_1100_point_caterpillars(monkeypatch):
    # Dendrograms over 1,000 levels deep: the reference searches would
    # recurse once per point, and run a verdict on every complete map or
    # match. The public functions read the dendrograms with neither, and
    # check no relation. The quotients differ at 0 and agree at 1.
    x, y = caterpillar(1100), caterpillar(1100, split_bottom=True)
    refuse_relation_checks(monkeypatch, "the public search", distortion=True)
    eps = ev("3/2")
    iso = exists_strong_epsilon_isometry(x, y, eps)
    assert iso.is_strong_eps_isometry and iso.distortion == ev(1)
    assert iso.images[:6] == (2, 2, 3, 0, 4, 5)
    approx = exists_strong_epsilon_approximation(x, y, eps)
    assert approx.xs == ball_representatives(x, eps)
    assert approx.ys[:6] == (2, 3, 0, 4, 5, 6)
    assert exists_strong_epsilon_isometry(x, y, ev(1)) is None


@st.composite
def small_pairs(draw):
    """Pairs of 1-4 points a side, half of them with equal diameters."""
    n = draw(st.integers(1, 4))
    x = random_ultrametric(n, draw(st.integers(0, 4_000)), POOL)
    seed = draw(st.integers(0, 4_000))
    if n > 1 and draw(st.booleans()):
        return x, equal_diameter_partner(x, draw(st.integers(2, 4)), seed, POOL)
    return x, random_ultrametric(draw(st.integers(1, 4)), seed, POOL)


@settings(max_examples=25, deadline=None)
@given(small_pairs())
def test_rank_verdicts_match_reference(pair):
    # Every map X -> Y, and every subset of X matched with every list of Y
    # points, at every cell's midpoint and upper end and at one eps inside
    # the first cell: the rank-level verdicts equal the Fraction-matrix
    # references field by field, and every map the isometry DFS prunes
    # (a pair breaking dis f < eps or the preservation half of SI2), the
    # reference rejects.
    x, y = pair
    n, m = len(x), len(y)
    dx, dy = fraction_matrix(x), fraction_matrix(y)
    grid = BreakpointGrid(x, y)
    rx, ry, gap = grid_int_tables(grid)
    thresholds = grid.thresholds()
    epsilons = [thresholds[1] / 3]
    for prev, t in zip(thresholds, thresholds[1:]):
        epsilons += [prev.midpoint(t), t]
    matches = [
        (xs, ys)
        for k in range(1, n + 1)
        for xs in combinations(range(n), k)
        for ys in product(range(m), repeat=k)
    ]
    for eps in epsilons:
        below = ceil(eps * grid.den)  # a grid int is below eps exactly when below this
        for f in product(range(m), repeat=n):
            w = _isometry_verdict(grid, f, eps)
            assert (w.left, w.right, w.images, w.epsilon) == (x, y, f, eps)
            failure = w.failure and (w.failure.check, w.failure.points, w.failure.detail)
            got = (w.distortion, w.is_eps_isometry, w.is_strong_eps_isometry, failure)
            want = isometry_verdict(dx, dy, f, eps)
            assert got == want, (f, eps)
            pruned = any(
                gap[i][j][f[i]][f[j]] >= below
                or (rx[i][j] >= below and rx[i][j] != ry[f[i]][f[j]])
                for j in range(n) for i in range(j)
            )
            assert not (pruned and want[2]), (f, eps)
        for xs, ys in matches:
            v = _approximation_verdict(grid, xs, ys, eps)
            got = (v.valid, v.failure_condition, v.failure_indices)
            assert got == approximation_verdict(dx, dy, eps, xs, ys), (xs, ys, eps)


def eps_entries(z4):
    """Every public function that takes an eps, on z4, as a call of eps
    alone. z4's distances are 1/2 and 1, so find_split and replay_split
    read an eps below 1/2."""
    f = (0, 1, 2, 3)
    split = find_split(z4, z4, ev("1/4"))
    return {
        "is_epsilon_net": lambda eps: is_epsilon_net(z4, [0, 1], eps),
        "ball_partition": lambda eps: ball_partition(z4, eps),
        "ball_representatives": lambda eps: ball_representatives(z4, eps),
        "is_strong_epsilon_isometry": lambda eps: is_strong_epsilon_isometry(z4, z4, f, eps),
        "exists_strong_epsilon_isometry": lambda eps: exists_strong_epsilon_isometry(z4, z4, eps),
        "is_strong_epsilon_approximation": lambda eps: is_strong_epsilon_approximation(
            z4, z4, eps, ApproximationWitness(f, f, ev(1))),
        "exists_strong_epsilon_approximation":
            lambda eps: exists_strong_epsilon_approximation(z4, z4, eps),
        "correspondence_from_isometry": lambda eps: correspondence_from_isometry(z4, z4, f, eps),
        "find_split": lambda eps: find_split(z4, z4, eps),
        "replay_split": lambda eps: replay_split(z4, z4, eps, split),
        "sutb_check": lambda eps: sutb_check([z4], eps, 4, [ev("1/2"), ev(1)]),
        "check_net_convergence_certificate": lambda eps: check_net_convergence_certificate(
            [z4], z4, [f], f, eps),
        "check_convergence_certificate": lambda eps: check_convergence_certificate(
            [z4], z4, [f], [eps]),
    }


@pytest.mark.parametrize("name", sorted(eps_entries(
    random_ultrametric(4, 0, [ExactValue(1, 2), ExactValue(1)]))))
def test_eps_entries_refuse_a_bool_and_coerce_the_rest(z4, name):
    # Each public eps entry checks eps once: a bool raises TypeError, as a
    # float does, where True used to act as 1 (is_epsilon_net(z4, [0, 1],
    # True) read True); an int, a Fraction or a string is made an
    # ExactValue, and reads as that ExactValue does.
    call = eps_entries(z4)[name]
    for bad in (True, False, 0.25):
        with pytest.raises(TypeError):
            call(bad)
    eps = ev("1/4")
    want = call(eps)
    for same in (Fraction(1, 4), "1/4"):
        assert call(same) == want
    with pytest.raises(ValueError):
        call(0)


def test_eps_witnesses_hold_an_exact_value(z4):
    # With an int eps every witness's epsilon is the ExactValue 1, not the
    # int 1 its field is not typed for.
    f = (0, 1, 2, 3)
    for witness in (exists_strong_epsilon_isometry(z4, z4, 1),
                    is_strong_epsilon_isometry(z4, z4, f, 1),
                    exists_strong_epsilon_approximation(z4, z4, 1)):
        assert type(witness.epsilon) is ExactValue and witness.epsilon == 1
    report = check_convergence_certificate([z4], z4, [f], [1])
    assert type(report.min_epsilon) is ExactValue and report.min_epsilon == 1
