from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from ultragh import (
    ExactValue,
    SplitResult,
    ball_partition,
    ball_representatives,
    candidate_thresholds,
    check_convergence_certificate,
    check_net_convergence_certificate,
    dhat_gh,
    diameter_trend,
    find_split,
    induced_subspace,
    random_ultrametric,
    replay_split,
    sutb_check,
    truncated_scaled_ball,
    truncated_unramified_ring,
    validate_space,
    weight_spectrum,
)
from ultragh.convergence import _between
from ultragh.errors import EpsilonTooLargeError, LengthMismatchError
from ultragh.exact import ZERO

from conftest import caterpillar, ev, refuse_relation_checks
from oracles import approximation_search, first_split

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]


def test_find_split_z4_to_x2(z4, x2):
    result = find_split(z4, x2, ev("3/4"))
    assert result is not None
    assert result.classes == ((0, 2), (1, 3))
    assert result.class_diameters == (ev("1/2"), ev("1/2"))
    assert result.pairwise_class_distances[0][1] == ev(1)
    assert replay_split(z4, x2, ev("3/4"), result)


def test_find_split_identity(x3):
    result = find_split(x3, x3, ev("1/2"))
    assert result is not None
    assert result.classes == ((0,), (1,), (2,))
    assert all(
        result.pairwise_class_distances[i][j] == ev(1)
        for i in range(3)
        for j in range(3)
        if i != j
    )
    assert replay_split(x3, x3, ev("1/2"), result)


def test_find_split_absent(z4, x3):
    assert find_split(z4, x3, ev("3/4")) is None


def test_find_split_eps_guard(z4, x2):
    with pytest.raises(EpsilonTooLargeError):
        find_split(z4, x2, ev(1))


@pytest.mark.parametrize("classes", [
    ((0, 2), (-1, 3)), ((0, 2), (1, 9)), ((0, 2), (1.0, 3)),
    ((0, 2), 5), 7, ((0, 2), [1, [3]]), ((False, 2), (True, 3)),
])
def test_replay_split_rejects_foreign_indices(z4, x2, classes):
    # -1 would wrap to point 3, leaving point 1 out; 9 is past the end;
    # 1.0 equals point 1 but is no index. A class of 5, classes of 7 and
    # the unhashable index [3] fail the check too, with no TypeError.
    # False == 0 and True == 1 cover every point, but a bool is no index.
    split = find_split(z4, x2, ev("3/4"))
    forged = SplitResult(classes, split.class_diameters, split.pairwise_class_distances)
    assert not replay_split(z4, x2, ev("3/4"), forged)
    # find_split's own classes, with diameters and a class distance it did
    # not report.
    forged = SplitResult(split.classes, (ev(7), ev(7)), ((ZERO, ev(5)), (ev(5), ZERO)))
    assert not replay_split(z4, x2, ev("3/4"), forged)


def test_replay_split_rejects_forged_numbers(z4, x2):
    # The classes are find_split's own, but one of the reported fields is
    # not the recomputed one, or has another shape.
    split = find_split(z4, x2, ev("3/4"))
    one = ev(1)
    diameters = split.class_diameters
    distances = split.pairwise_class_distances
    assert diameters == (ev("1/2"),) * 2 and distances == ((ZERO, one), (one, ZERO))
    for forged_diameters, forged_distances in (
        ((ev(7), ev(7)), distances),
        (diameters, ((ZERO, ev(5)), (ev(5), ZERO))),
        (diameters[:1], distances),
        (diameters + (ZERO,), distances),
        (diameters, distances[:1]),
        (diameters, ((ZERO, one, one), (one, ZERO))),
        (diameters, ((one, one), (one, ZERO))),
        (diameters, (ZERO, one)),
        (None, distances),
    ):
        forged = SplitResult(split.classes, forged_diameters, forged_distances)
        assert not replay_split(z4, x2, ev("3/4"), forged), forged
    # Lists of the same values replay as the tuples do.
    listed = SplitResult(split.classes, list(diameters), [list(row) for row in distances])
    assert replay_split(z4, x2, ev("3/4"), listed)


@pytest.mark.parametrize("classes", [
    ((0, 2), (1, 3), ()),  # an empty class
    ((0, 2), (1,)),  # point 3 left out
    ((0,), (2,), (1, 3)),  # three classes for the two points of x2
    ((0, 1), (2, 3)),  # classes of diameter 1 >= eps
])
def test_replay_split_rejects_bad_partitions(z4, x2, classes):
    split = find_split(z4, x2, ev("3/4"))
    forged = SplitResult(classes, split.class_diameters, split.pairwise_class_distances)
    assert not replay_split(z4, x2, ev("3/4"), forged)


def test_replay_split_rejects_swapped_classes(ydelta):
    # The classes of the identity split of a space whose three distances
    # differ; with the first and last classes swapped, the distance of
    # classes 0 and 1 is d(2, 1) = 3/2, not d(0, 1) = 1.
    split = find_split(ydelta, ydelta, ev("1/4"))
    assert split.classes == ((0,), (1,), (2,))
    assert replay_split(ydelta, ydelta, ev("1/4"), split)
    swapped = SplitResult(((2,), (1,), (0,)), split.class_diameters,
                          split.pairwise_class_distances)
    assert not replay_split(ydelta, ydelta, ev("1/4"), swapped)


BLOB_POOL = [ExactValue(1, 16), ExactValue(1, 8)]


@st.composite
def split_cases(draw):
    """A target of 1-4 points, a space to split (a blow-up of the target
    with 1-3 points per target point in shuffled order, or an unrelated
    random space) and an eps below the target's least distance."""
    x = random_ultrametric(draw(st.integers(1, 4)), draw(st.integers(0, 5_000)), POOL)
    if draw(st.booleans()):
        blobs = [
            random_ultrametric(draw(st.integers(1, 3)), draw(st.integers(0, 5_000)), BLOB_POOL)
            for _ in range(len(x))
        ]
        points = draw(st.permutations(
            [(i, a) for i, blob in enumerate(blobs) for a in range(len(blob))]
        ))
        xn = validate_space([
            [x.dist(i, j) if i != j else blobs[i].dist(a, b) for j, b in points]
            for i, a in points
        ])
    else:
        xn = random_ultrametric(draw(st.integers(1, 8)), draw(st.integers(0, 5_000)), POOL)
    values = sorted({*xn.values, *x.values, ExactValue(3)})
    choices = values[1:] + [a.midpoint(b) for a, b in zip(values, values[1:])]
    if len(x) > 1:
        choices = [eps for eps in choices if eps < x.values[1]]
    return xn, x, draw(st.sampled_from(sorted(choices)))


@settings(max_examples=150, deadline=None)
@given(split_cases())
def test_find_split_matches_oracle(case):
    # find_split and the reference approximation search, its balls given
    # to the target points it matches them with, both give the first
    # split by brute force.
    xn, x, eps = case
    want = first_split(xn, x, eps)
    result = find_split(xn, x, eps)
    assert (result.classes if result is not None else None) == want
    if result is not None:
        assert replay_split(xn, x, eps, result)
        # The class distances, read from the classes' first points, are the
        # min over every pair of their points; the diameters are the max.
        classes = result.classes
        assert result.class_diameters == tuple(_between(xn, c, c, max) for c in classes)
        assert result.pairwise_class_distances == tuple(
            tuple(ZERO if a is b else _between(xn, a, b, min) for b in classes)
            for a in classes)
    witness = approximation_search(xn, x, eps)
    if witness is None:
        assert want is None
    else:
        classes = [None] * len(x)
        for ball, target in zip(ball_partition(xn, eps), witness.ys):
            classes[target] = ball
        assert tuple(classes) == want


def test_find_split_on_an_1100_point_caterpillar(monkeypatch):
    # The dendrogram is over 1,000 levels deep: the reference search would
    # recurse once per point. find_split reads the dendrogram with no
    # recursion, no check of a relation and no scan of a class's
    # distances for its diameter, and splits the space into its points.
    x = caterpillar(1100)

    def refuse_scan(space, ca, cb, pick):
        raise AssertionError("find_split scanned a class's distances")

    monkeypatch.setattr("ultragh.convergence._between", refuse_scan)

    refuse_relation_checks(monkeypatch, "find_split", distortion=True)
    result = find_split(x, x, ev("1/2"))
    assert result.classes == tuple((i,) for i in range(1100))
    assert result.class_diameters == (ZERO,) * 1100
    assert result.pairwise_class_distances[0][1099] == ExactValue(1099)


def test_find_split_digit_partition():
    big = truncated_unramified_ring(3, 1, 2)
    target = truncated_unramified_ring(3, 1, 1)
    result = find_split(big, target, ev("1/2"))
    assert result is not None
    assert result.classes == ((0, 3, 6), (1, 4, 7), (2, 5, 8))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert result.pairwise_class_distances[i][j] == ev(1)
    assert replay_split(big, target, ev("1/2"), result)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(0, 5_000), st.integers(0, 2))
def test_split_implies_distance_bound(n, seed, eps_index):
    xn = random_ultrametric(n + 2, seed, POOL)
    x = random_ultrametric(n, seed + 1, POOL)
    eps = POOL[eps_index]
    r0 = min(
        (x.dist(i, j) for i in range(len(x)) for j in range(i + 1, len(x))),
        default=None,
    )
    if r0 is not None and eps >= r0:
        return
    result = find_split(xn, x, eps)
    if result is None:
        return
    assert replay_split(xn, x, eps, result)
    report = dhat_gh(xn, x, include_classical=False)
    assert report.dhat <= eps


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 4), st.integers(3, 6), st.integers(0, 5_000), st.integers(0, 5_000))
def test_split_converse_random(n_target, n_big, seed_a, seed_b):
    # whenever the distance sits strictly below some eps < r0, a split exists
    x = random_ultrametric(n_target, seed_a, POOL)
    xn = random_ultrametric(n_big, seed_b, POOL)
    r0 = min(
        (x.dist(i, j) for i in range(len(x)) for j in range(i + 1, len(x))),
        default=None,
    )
    if r0 is None:
        return
    dhat = dhat_gh(xn, x, include_classical=False).dhat
    if dhat >= r0:
        return
    eps = dhat.midpoint(r0)
    assert find_split(xn, x, eps) is not None


def test_split_converse_on_generated_case():
    # distance strictly below eps < r0 forces a split to exist
    big = truncated_unramified_ring(3, 1, 2)
    target = truncated_unramified_ring(3, 1, 1)
    report = dhat_gh(big, target, include_classical=False)
    eps = ev("1/2")
    assert report.dhat < eps < ev(1)  # r0 of the target is 1
    assert find_split(big, target, eps) is not None


def test_ball_rep_subspace_close(z4, x3):
    for space in (z4, x3):
        for eps in POOL:
            reps = ball_representatives(space, eps)
            sub = induced_subspace(space, reps)
            assert dhat_gh(space, sub, include_classical=False).dhat <= eps


def test_certificate_constant_sequence(x3):
    report = check_convergence_certificate(
        [x3, x3, x3], x3,
        maps=[[0, 1, 2]] * 3,
        epsilons=[ev(1), ev("1/2"), ev("1/4")],
    )
    assert report.holds and report.all_strong and report.epsilons_decreasing
    assert report.min_epsilon == ev("1/4")
    assert "finite prefix" in report.note


def test_certificate_reduction_maps(x2):
    seq = [truncated_unramified_ring(2, 1, 3), truncated_unramified_ring(2, 1, 2)]
    maps = [[v % 2 for v in range(8)], [v % 2 for v in range(4)]]
    eps_above = [ev("9/16"), ev("9/16")]
    report = check_convergence_certificate(seq, x2, maps, eps_above)
    assert report.holds

    at_half = check_convergence_certificate(seq, x2, maps, [ev("1/2"), ev("1/2")])
    assert not at_half.holds
    assert all(e.failure.check == "dis" for e in at_half.entries)


def test_certificate_direction_flag(x2):
    seq = [truncated_unramified_ring(2, 1, 2)]
    # from_target: maps go X -> X_n; the inclusion 0,1 -> 0,1 works for eps > 1/2
    report = check_convergence_certificate(
        seq, x2, maps=[[0, 1]], epsilons=[ev("3/4")], direction="from_target"
    )
    assert report.holds


def test_certificate_length_mismatch(x2):
    with pytest.raises(LengthMismatchError):
        check_convergence_certificate([x2], x2, [], [])


def test_net_certificate_examples(z4, x2):
    ok = check_net_convergence_certificate(
        [z4, z4], x2, nets_per_space=[[0, 1], [0, 1]],
        net_in_target=[0, 1], eps=ev(1),
    )
    assert ok.holds

    # [0, 2] is not a 1-net in Z4 (point 1 is at distance exactly 1), so the
    # net check fires first; at eps = 2 the same net is fine and the
    # distance mismatch 1/2 != 1 is what gets certified.
    bad = check_net_convergence_certificate(
        [z4], x2, nets_per_space=[[0, 2]], net_in_target=[0, 1], eps=ev(1),
    )
    assert not bad.holds
    assert bad.failure.kind == "net"

    mismatch = check_net_convergence_certificate(
        [z4], x2, nets_per_space=[[0, 2]], net_in_target=[0, 1], eps=ev(2),
    )
    assert not mismatch.holds
    assert mismatch.failure.kind == "distances"

    identical = check_net_convergence_certificate(
        [x2], x2, nets_per_space=[[0, 1]], net_in_target=[0, 1], eps=ev(2),
    )
    assert identical.holds


def test_net_certificate_rejects(z4, x2):
    # The target net [0] leaves x2's point 1 at distance 1, not below eps.
    report = check_net_convergence_certificate(
        [z4], x2, nets_per_space=[[0, 1]], net_in_target=[0], eps=ev(1),
    )
    assert not report.holds
    assert (report.failure.kind, report.failure.index) == ("target_net", None)
    # A listed net that repeats an index, or has another size than the
    # target net: the failure names the space.
    for nets, detail in (([[0, 1], [0, 0]], "net has repeated indices"),
                         ([[0, 1], [0, 1, 2]], "net has 3 points, target net has 2")):
        report = check_net_convergence_certificate(
            [z4, z4], x2, nets_per_space=nets, net_in_target=[0, 1], eps=ev(1),
        )
        assert not report.holds
        assert (report.failure.kind, report.failure.index, report.failure.detail) == (
            "cardinality", 1, detail)


def test_net_certificate_length_mismatch(z4, x2):
    with pytest.raises(LengthMismatchError, match="one net per space"):
        check_net_convergence_certificate([z4, z4], x2, [[0, 1]], [0, 1], ev(1))
    for tnet in ([], [0, 0]):
        with pytest.raises(LengthMismatchError, match="nonempty list of distinct"):
            check_net_convergence_certificate([z4], x2, [[0, 1]], tnet, ev(1))


def test_sutb_examples(x2, x3, singleton):
    singles = sutb_check([singleton, singleton], ev(1), 1, [])
    assert singles.holds

    wide = sutb_check([x2, x3], ev(2), 1, [])
    assert wide.holds
    assert all(len(w) == 1 for w in wide.witnesses)

    tight = sutb_check([x2, x3], ev(1), 2, [ev(1)])
    assert not tight.holds
    assert tight.witnesses[0] is not None  # X2 admits the net
    assert tight.witnesses[1] is None  # X3 needs three points


def test_sutb_weight_filter(z4):
    ok = sutb_check([z4], ev(1), 2, [ev(1)])
    assert ok.holds and ok.witnesses[0] == (0, 1)
    bad = sutb_check([z4], ev(1), 2, [ev("1/2")])
    assert not bad.holds


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 10_000), st.integers(0, 10_000))
def test_representative_net_weights_are_the_distances_from_eps(n, m, seed_a, seed_b):
    # sutb_check reads the weights of the net of ball representatives as
    # the space's distances of at least eps; the scan of the net's pairs
    # agrees at every positive breakpoint of a random pair, the sentinel
    # above both diameters included.
    x, y = random_ultrametric(n, seed_a, POOL), random_ultrametric(m, seed_b, POOL)
    for eps in candidate_thresholds(x, y)[1:]:
        for space in (x, y):
            reps = ball_representatives(space, eps)
            want = space.values[bisect_left(space.values, eps):]
            assert weight_spectrum(space, reps).values == want


def test_diameter_trend_vanishing(singleton):
    seq = [truncated_scaled_ball(2, 1, s, 1) for s in (1, 2, 3)]
    report = diameter_trend(seq, singleton)
    assert report.diameters == (ev("1/2"), ev("1/4"), ev("1/8"))
    assert report.classification == "nonincreasing"
    assert report.dhat_values is None  # singleton target has zero diameter


def test_diameter_trend_constant(z4, x2):
    report = diameter_trend([z4, z4, z4], x2)
    assert report.diameters == (ev(1), ev(1), ev(1))
    assert report.classification == "constant"
    assert report.dhat_values == (ev("1/2"),) * 3
    assert report.equality_forced == (True, True, True)
    assert report.equality_holds == (True, True, True)
    assert report.forced_from == 0


def test_diameter_trend_empty():
    report = diameter_trend([])
    assert report.classification == "empty"
    assert report.diameters == ()


def test_diameter_trend_eventually_constant_and_mixed(x2):
    half = truncated_scaled_ball(2, 1, 1, 1)
    assert half.diameter() == ev("1/2") and x2.diameter() == ev(1)
    # Diameters 1/2, 1, 1 rise, then stay constant from index 1 on.
    assert diameter_trend([half, x2, x2]).classification == "eventually_constant"
    # 1, 1/2, 1: only the last one is a constant suffix.
    assert diameter_trend([x2, half, x2]).classification == "mixed"
