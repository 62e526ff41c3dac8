import re
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from ultragh import (
    Correspondence,
    ExactValue,
    associated_correspondence,
    classical_gh,
    distortion,
    equilibrium_table,
    full_product,
    glue_along_strong_correspondence,
    glue_with_constant_bridge,
    hausdorff_distance,
    induced_subspace,
    is_correspondence,
    is_epsilon_net,
    is_strong_correspondence,
    map_distortion,
    min_distortion_correspondence,
    min_distortion_strong_correspondence,
    random_ultrametric,
    truncated_unramified_ring,
    validate_space,
    weight_spectrum,
)
from ultragh.correspondences import DEFAULT_PRODUCT_CAP
from ultragh.errors import (
    BridgeTooSmallError,
    IndexOutOfRangeError,
    NotACorrespondenceError,
    NotStrongError,
    NotSurjectiveError,
)

from conftest import equal_diameter_partner, ev
from oracles import (
    naive_correspondence_minima,
    naive_lex_min_witness,
    strong_correspondence_search,
    strong_existential,
)

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]


def relabeled_copy(space):
    return validate_space(
        [[space.dist(i, j) for j in range(len(space))] for i in range(len(space))],
        [f"c{i}" for i in range(len(space))],
    )


def identity_correspondence(x, y):
    return Correspondence(x, y, tuple((i, i) for i in range(len(x))))


def test_is_correspondence(x2, x3):
    assert is_correspondence(x2, x3, [(i, j) for i in range(2) for j in range(3)])
    assert not is_correspondence(x2, x3, [(0, 0)])
    assert is_correspondence(x2, x3, [(0, 0), (1, 1), (1, 2)])
    with pytest.raises(NotACorrespondenceError):
        Correspondence(x2, x3, ((0, 0),))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_correspondence_normalises_like_a_sorted_set(n, m, data):
    # Shuffled pairs with repeats: the stored pairs are the sorted distinct
    # ones, and coverage is read as a walk over the pairs would read it.
    x = random_ultrametric(n, n, POOL)
    y = random_ultrametric(m, m, POOL)
    full = list(product(range(n), range(m)))
    pairs = data.draw(st.lists(st.sampled_from(full), min_size=1, max_size=2 * n * m))
    covers = {i for i, _ in pairs} == set(range(n)) and {j for _, j in pairs} == set(range(m))
    assert is_correspondence(x, y, pairs) == covers
    if covers:
        assert Correspondence(x, y, pairs).pairs == tuple(sorted(set(pairs)))
    else:
        with pytest.raises(NotACorrespondenceError):
            Correspondence(x, y, pairs)


@pytest.mark.parametrize("pairs, first, first_sorted", [
    ([(0, 0), (0, 5), (7, 0)], "5 out of range for 3", "5 out of range for 3"),
    ([(0, 0), (7, 5)], "7 out of range for 2", "7 out of range for 2"),
    ([(1, 2), (0, -1), (-2, 0)], "-1 out of range for 3", "-2 out of range for 2"),
    ([(1, 3), (2, 0)], "3 out of range for 3", "3 out of range for 3"),
    # Every covered index is in [0, len), but a non-int is no point index.
    ([(0, 0), (1.0, 1), (0.5, 2)], "1.0 out of range for 2", "0.5 out of range for 2"),
])
def test_first_out_of_range_index_in_pair_order(x2, x3, pairs, first, first_sorted):
    # Left and right indices both out of range: the first bad index in pair
    # order is reported, the left one of a pair before its right one. A
    # Correspondence checks its pairs once sorted.
    with pytest.raises(IndexOutOfRangeError, match=f"point index {first} points"):
        is_correspondence(x2, x3, pairs)
    with pytest.raises(IndexOutOfRangeError, match=f"point index {first_sorted} points"):
        Correspondence(x2, x3, pairs)


@pytest.mark.parametrize("pairs, first", [
    (((0, 0), ("1", 1), (0, 2)), "1 out of range for 2"),
    (((0, 0), (1, "x"), ("y", 2)), "x out of range for 3"),
    (((0, 0), (1, None), (1, 2)), "None out of range for 3"),
])
def test_unorderable_index_is_out_of_range(x2, x3, pairs, first):
    # Indices that do not sort against ints: a Correspondence names the
    # first bad one in input order, as is_correspondence does, instead of
    # failing in its sort with a TypeError. A one-shot iterator of the same
    # pairs gives the same error.
    for build in (is_correspondence, Correspondence):
        with pytest.raises(IndexOutOfRangeError, match=f"point index {first} points"):
            build(x2, x3, pairs)
    with pytest.raises(IndexOutOfRangeError, match=f"point index {first} points"):
        Correspondence(x2, x3, iter(pairs))


@pytest.mark.parametrize("pairs, first", [
    ([(0,)], "(0,)"),
    ([(0, 0, 1), (1, 1)], "(0, 0, 1)"),
    ([(1, 1), (2, 2, 0), (0,), (3, 3)], "(2, 2, 0)"),
    ([(1, 1), (0, 0), (), (1, 2, 3)], "()"),
])
def test_item_that_is_not_two_indices(z4, pairs, first):
    # An item of one or three entries is no pair: both the check and the
    # constructor name the first such item in input order (the constructor
    # checks before its sort, which would put (0,) first in the third
    # case), instead of failing with an IndexError or storing it.
    for build in (is_correspondence, Correspondence):
        with pytest.raises(NotACorrespondenceError,
                           match=rf"^{re.escape(first)} is not a pair of two indices$"):
            build(z4, z4, pairs)
    with pytest.raises(NotACorrespondenceError, match=re.escape(first)):
        Correspondence(z4, z4, iter(pairs))


def test_unorderable_subset_index_is_out_of_range(x2, x3):
    # A subset given as a one-shot iterator names the same bad index as
    # the list: the failed sort does not use up its points.
    for wrap in (list, iter):
        with pytest.raises(IndexOutOfRangeError, match="point index 1 out of range for 2"):
            hausdorff_distance(x2, wrap([0, "1"]), [1])
        with pytest.raises(IndexOutOfRangeError, match="point index a out of range for 3"):
            hausdorff_distance(x3, [1], wrap([2, 0, "a", None]))
        with pytest.raises(IndexOutOfRangeError, match="point index None out of range for 3"):
            induced_subspace(x3, wrap([None, 0, "a"]))


def test_iterator_input_matches_list_input(x2, x3):
    # Valid one-shot iterators read exactly as the lists they yield.
    pairs = [(1, 2), (0, 0), (1, 1), (0, 0)]
    assert Correspondence(x2, x3, iter(pairs)) == Correspondence(x2, x3, pairs)
    assert hausdorff_distance(x3, iter([2]), iter([0, 1])) == hausdorff_distance(x3, [2], [0, 1])
    assert induced_subspace(x3, iter([2, 0])) == induced_subspace(x3, [2, 0])


def test_non_int_point_index_is_out_of_range(x2):
    with pytest.raises(IndexOutOfRangeError, match="point index 1.0 out of range"):
        map_distortion(x2, x2, [0, 1.0])
    with pytest.raises(IndexOutOfRangeError, match="point index 0.5 out of range"):
        hausdorff_distance(x2, [0], [0.5])


def test_bool_index_is_out_of_range_in_is_epsilon_net(z4):
    # True == 1 and False == 0, but a bool is no point index, also where
    # deduplication would merge it into the int it equals.
    with pytest.raises(IndexOutOfRangeError, match="point index False out of range for 4"):
        is_epsilon_net(z4, [False, True, 2, 3], 1)
    with pytest.raises(IndexOutOfRangeError, match="point index True out of range for 4"):
        is_epsilon_net(z4, [0, 1, 2, 3, True], 1)


def test_bool_index_is_out_of_range_in_map_distortion(z4):
    with pytest.raises(IndexOutOfRangeError, match="point index True out of range for 4"):
        map_distortion(z4, z4, [0, True, 2, 3])


def test_bool_index_is_out_of_range_in_induced_subspace(z4):
    with pytest.raises(IndexOutOfRangeError, match="point index False out of range for 4"):
        induced_subspace(z4, [False, True])
    with pytest.raises(IndexOutOfRangeError, match="point index True out of range for 4"):
        induced_subspace(z4, [1, True])


def test_bool_index_is_out_of_range_in_correspondence(z4):
    # The pairs would otherwise keep the bool, which --json prints as true.
    # A bool after the int pair it equals is refused too, while a
    # repeated int pair is merged quietly.
    for pairs in (((0, 0), (True, 1), (2, 2), (3, 3)),
                  ((0, 0), (1, 1), (True, 1), (2, 2), (3, 3))):
        with pytest.raises(IndexOutOfRangeError, match="point index True out of range for 4"):
            Correspondence(z4, z4, pairs)
    again = Correspondence(z4, z4, ((0, 0), (1, 1), (1, 1), (2, 2), (3, 3)))
    assert again.pairs == ((0, 0), (1, 1), (2, 2), (3, 3))


def test_bool_index_is_out_of_range_in_is_correspondence(z4):
    # The covered sets merge True into 1, so every entry is read: the bool
    # is found even where the int it equals covers its point.
    for pairs in (((0, 0), (True, 1), (2, 2), (3, 3)),
                  ((0, 0), (1, 1), (True, 1), (2, 2), (3, 3)),
                  ((0, 0), (1, 1), (2, 2), (3, 3), (3, False))):
        with pytest.raises(IndexOutOfRangeError, match=r"point index (True|False) out of range"):
            is_correspondence(z4, z4, pairs)


def test_bool_index_is_out_of_range_in_hausdorff_distance(z4):
    for a, b in (([True], [0]), ([1, True], [0]), ([0], [1, True])):
        with pytest.raises(IndexOutOfRangeError, match="point index True out of range for 4"):
            hausdorff_distance(z4, a, b)


def test_bool_index_is_out_of_range_in_weight_spectrum(z4):
    for subset in ([True, 2], [1, True, 2]):
        with pytest.raises(IndexOutOfRangeError, match="point index True out of range for 4"):
            weight_spectrum(z4, subset)


def test_out_of_range_messages_keep_their_order(z4):
    # A subset names its smallest bad index and a relation its first in
    # sorted pair order, ahead of a bool merged into an equal int.
    with pytest.raises(IndexOutOfRangeError, match="point index 7 out"):
        induced_subspace(z4, [9, 1, 7, True])
    with pytest.raises(IndexOutOfRangeError, match="point index 6 out"):
        Correspondence(z4, z4, ((0, 0), (7, 1), (1, 1), (True, 1), (1, 6)))


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (3, 1), (2, 3), (4, 2)])
def test_full_product_order(n, m):
    x = random_ultrametric(n, 1, POOL)
    y = random_ultrametric(m, 2, POOL)
    pairs = tuple((i, j) for i in range(n) for j in range(m))
    assert full_product(x, y).pairs == pairs


def assert_normal(c):
    # A correspondence built without normalising equals the one the public
    # constructor makes of its pairs, pairs and spaces alike.
    normal = Correspondence(c.left, c.right, c.pairs)
    assert c.pairs == normal.pairs
    assert c == normal and hash(c) == hash(normal)


@pytest.mark.parametrize("n, m, seed", [
    (1, 1, 0), (1, 4, 1), (4, 1, 2), (1, 7, 3), (7, 1, 4),
    (2, 3, 5), (3, 3, 6), (4, 3, 7), (3, 5, 8), (5, 4, 9), (6, 6, 10),
])
def test_built_correspondences_are_normal(n, m, seed):
    # full_product, the plain search, unbudgeted and with budgets too
    # small to reach a leaf or the optimum, and the strong minimum, read
    # off the quotient matching whatever the budget, build their results
    # without normalising them.
    x = random_ultrametric(n, seed, POOL)
    y = random_ultrametric(m, seed + 100, POOL)
    assert_normal(full_product(x, y))
    for search in (min_distortion_correspondence, min_distortion_strong_correspondence):
        for budget in (None, 1, 3):
            assert_normal(search(x, y, budget).correspondence)
    assert_normal(classical_gh(x, y).witness)


def test_distortion_examples(x2, x3, ydelta):
    assert distortion(identity_correspondence(x3, relabeled_copy(x3))) == ev(0)
    assert distortion(full_product(x2, x3)) == ev(1)
    c = Correspondence(x3, ydelta, ((0, 0), (1, 1), (2, 2)))
    # brute force over the nine pair-of-pairs gives exactly 1/2
    worst = max(
        x3.dist(i, k).abs_diff(ydelta.dist(j, l))
        for (i, j) in c.pairs
        for (k, l) in c.pairs
    )
    assert worst == ev("1/2")
    assert distortion(c) == ev("1/2")


def test_associated_correspondence(x2, x3, z4, singleton):
    ident = associated_correspondence(x3, relabeled_copy(x3), [0, 1, 2])
    assert distortion(ident) == ev(0)
    const = associated_correspondence(x2, singleton, [0, 0])
    assert const.pairs == ((0, 0), (1, 0))
    assert distortion(const) == ev(1)
    reduction = associated_correspondence(z4, x2, [0, 1, 0, 1])
    assert reduction.pairs == ((0, 0), (1, 1), (2, 0), (3, 1))
    assert distortion(reduction) == ev("1/2")
    with pytest.raises(NotSurjectiveError):
        associated_correspondence(x3, x2, [0, 0, 0])


def test_strongness_examples(x2, x3, ydelta):
    assert is_strong_correspondence(full_product(x2, x3)).is_strong

    verdict = is_strong_correspondence(
        Correspondence(x3, ydelta, ((0, 0), (1, 1), (2, 2)))
    )
    assert not verdict.is_strong
    ce = verdict.counterexample
    assert (ce.x, ce.y) == (0, 2)  # the pair (x = 0, y = t)
    assert {ce.left_distance, ce.right_distance} == {ev(1), ev("3/2")}
    assert ce.reason == "unequal"

    copy = relabeled_copy(x3)
    verdict = is_strong_correspondence(identity_correspondence(x3, copy))
    assert verdict.is_strong and verdict.distortion == ev(0)


def test_equilibrium_examples(x2, x3):
    table = equilibrium_table(full_product(x2, x3))
    assert table.entries == {} and table.inf_value is None

    copy = relabeled_copy(x3)
    table = equilibrium_table(identity_correspondence(x3, copy))
    assert table.entries[(0, 1)] == ev(1)
    assert set(table.entries.values()) == {ev(1)}
    assert table.inf_value == table.sup_value == ev(1)
    assert table.distortion < table.inf_value <= table.min_diameter

    with pytest.raises(NotStrongError):
        equilibrium_table(Correspondence(x2, x3, ((0, 0), (1, 1), (1, 2))))


def test_glue_full_product(x2, x3):
    result = glue_along_strong_correspondence(full_product(x2, x3))
    assert len(result.glued_space) == 5
    assert not result.quotient_applied
    assert result.r0 == ev(1)
    for i in range(2):
        for j in range(3):
            assert result.glued_space.dist(
                result.left_embedding[i], result.right_embedding[j]
            ) == ev(1)
    images = hausdorff_distance(
        result.glued_space, result.left_embedding, result.right_embedding
    )
    assert images == ev(1)


def test_glue_quotient(x3, z4):
    copy = relabeled_copy(x3)
    result = glue_along_strong_correspondence(identity_correspondence(x3, copy))
    assert result.quotient_applied
    assert len(result.glued_space) == 3
    assert result.left_embedding == result.right_embedding

    # A permuted copy: right point a is matched to left point perm[a].
    perm = (3, 0, 2, 1)
    shuffled = validate_space([[z4.dist(p, q) for q in perm] for p in perm])
    matching = Correspondence(z4, shuffled, tuple((p, a) for a, p in enumerate(perm)))
    result = glue_along_strong_correspondence(matching)
    assert result.quotient_applied
    assert result.left_embedding == (0, 1, 2, 3)
    assert result.right_embedding == perm
    assert result.glued_space == validate_space(
        z4.matrix(), [f"L:{label}" for label in z4.labels]
    )
    for a in range(4):
        for b in range(4):
            assert result.glued_space.dist(perm[a], perm[b]) == shuffled.dist(a, b)


def test_glue_preserves_distances(x2, x3):
    result = glue_along_strong_correspondence(full_product(x2, x3))
    for i in range(2):
        for j in range(2):
            assert result.glued_space.dist(
                result.left_embedding[i], result.left_embedding[j]
            ) == x2.dist(i, j)
    for i in range(3):
        for j in range(3):
            assert result.glued_space.dist(
                result.right_embedding[i], result.right_embedding[j]
            ) == x3.dist(i, j)


def test_constant_bridge(x2, x3, singleton):
    result = glue_with_constant_bridge(x2, x3, ev(1))
    assert len(result.glued_space) == 5
    assert hausdorff_distance(
        result.glued_space, result.left_embedding, result.right_embedding
    ) == ev(1)

    hooked = glue_with_constant_bridge(x3, singleton, x3.diameter())
    assert hausdorff_distance(
        hooked.glued_space, hooked.left_embedding, hooked.right_embedding
    ) == x3.diameter()

    with pytest.raises(BridgeTooSmallError):
        glue_with_constant_bridge(x2, x3, ev("1/2"))


def test_min_distortion_identity(x3):
    res = min_distortion_correspondence(x3, x3)
    assert res.distortion == ev(0) and res.optimal
    assert res.correspondence.pairs == ((0, 0), (1, 1), (2, 2))


def test_min_distortion_x2_x3(x2, x3):
    res = min_distortion_correspondence(x2, x3)
    assert res.distortion == ev(1)
    naive_plain, naive_strong = naive_correspondence_minima(x2, x3)
    assert res.distortion.fraction == naive_plain
    strong = min_distortion_strong_correspondence(x2, x3)
    assert strong.distortion == ev(1)
    assert strong.distortion.fraction == naive_strong
    assert strong.correspondence.pairs == full_product(x2, x3).pairs


def test_min_distortion_x3_ydelta(x3, ydelta):
    res = min_distortion_correspondence(x3, ydelta)
    assert res.distortion == ev("1/2")
    assert res.correspondence.pairs == ((0, 0), (1, 1), (2, 2))
    strong = min_distortion_strong_correspondence(x3, ydelta)
    assert strong.distortion == ev("3/2")


def test_strong_identity_witness(x3):
    res = min_distortion_strong_correspondence(x3, x3)
    assert res.distortion == ev(0)
    assert res.correspondence.pairs == ((0, 0), (1, 1), (2, 2))
    verdict = is_strong_correspondence(res.correspondence)
    assert verdict.is_strong


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 5_000), st.integers(0, 5_000)
)
def test_graph_distortion_equals_map_distortion(n, m, seed_a, seed_b):
    from ultragh import map_distortion
    import random as _random

    if m > n:
        n, m = m, n  # surjection needs at least as many sources as targets
    x = random_ultrametric(n, seed_a, POOL)
    y = random_ultrametric(m, seed_b, POOL)
    rng = _random.Random(seed_a * 31 + seed_b)
    f = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    rng.shuffle(f)
    corr = associated_correspondence(x, y, f)
    assert distortion(corr) == map_distortion(x, y, f)


def test_lex_min_witness_x2_x3(x2, x3):
    # every correspondence between these two has distortion one, so the
    # returned witness must be the smallest covering pair set outright
    res = min_distortion_correspondence(x2, x3)
    want_value, want_pairs = naive_lex_min_witness(x2, x3, strong=False)
    assert res.distortion.fraction == want_value
    assert res.correspondence.pairs == want_pairs
    assert want_pairs == ((0, 0), (0, 1), (0, 2), (1, 0))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 4_000), st.integers(0, 4_000)
)
def test_lex_min_witness_matches_enumeration(n, m, seed_a, seed_b):
    x = random_ultrametric(n, seed_a, POOL)
    y = random_ultrametric(m, seed_b, POOL)
    for strong, search in (
        (False, min_distortion_correspondence),
        (True, min_distortion_strong_correspondence),
    ):
        want_value, want_pairs = naive_lex_min_witness(x, y, strong)
        res = search(x, y)
        assert res.distortion.fraction == want_value
        assert res.correspondence.pairs == want_pairs


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([(3, 3), (3, 4), (4, 3)]), st.integers(0, 5_000), st.integers(0, 5_000))
def test_lex_min_witness_on_equal_diameters(shape, seed_a, seed_b):
    # Equal diameters put the classical floor at 0, so the search must
    # refute every smaller value: the forward check prunes most there.
    n, m = shape
    x = random_ultrametric(n, seed_a, POOL)
    y = equal_diameter_partner(x, m, seed_b, POOL)
    for strong, search in (
        (False, min_distortion_correspondence),
        (True, min_distortion_strong_correspondence),
    ):
        want_value, want_pairs = naive_lex_min_witness(x, y, strong)
        res = search(x, y)
        assert res.distortion.fraction == want_value
        assert res.correspondence.pairs == want_pairs


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(2, 7), (2, 8)]), st.integers(0, 20_000), st.integers(0, 20_000),
       st.booleans())
def test_classical_witness_on_wide_pairs(shape, seed_a, seed_b, equal):
    # Seven and eight partner points: more partner subsets than any side of
    # the 2-6 point pairs above, and subset orders kept across searches.
    # classical_gh's value and witness are the full enumeration's, on equal
    # diameters (floor 0, so the search refutes every smaller value) or not.
    n, m = shape
    x = random_ultrametric(n, seed_a, POOL)
    if equal:
        y = equal_diameter_partner(x, m, seed_b, POOL)
    else:
        y = random_ultrametric(m, seed_b, POOL)
    want_value, want_pairs = naive_lex_min_witness(x, y, strong=False)
    res = classical_gh(x, y)
    assert res.optimal and 2 * res.value.fraction == want_value
    assert res.witness.pairs == want_pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 8), st.integers(5, 8), st.integers(0, 20_000), st.integers(0, 20_000))
def test_strong_minimum_matches_the_reference_search(n, m, seed_a, seed_b):
    # The public strong minimum reads the quotient matching; the reference
    # branch-and-bound search, wherever it finishes within its budget,
    # finds the same lexicographically smallest optimal pair set.
    x = random_ultrametric(n, seed_a, POOL)
    y = equal_diameter_partner(x, m, seed_b, POOL)
    ref = strong_correspondence_search(x, y, budget=2_000)
    assume(ref.optimal)
    res = min_distortion_strong_correspondence(x, y)
    assert (res.correspondence, res.distortion) == (ref.correspondence, ref.distortion)
    assert res.optimal and res.nodes == 0


small_pairs = st.tuples(
    st.integers(1, 3), st.integers(1, 4), st.integers(0, 5_000), st.integers(0, 5_000)
)


@settings(max_examples=25, deadline=None)
@given(small_pairs)
def test_search_matches_naive_enumeration(params):
    n, m, seed_a, seed_b = params
    x = random_ultrametric(n, seed_a, POOL)
    y = random_ultrametric(m, seed_b, POOL)
    naive_plain, naive_strong = naive_correspondence_minima(x, y)
    plain = min_distortion_correspondence(x, y)
    strong = min_distortion_strong_correspondence(x, y)
    assert plain.distortion.fraction == naive_plain
    assert strong.distortion.fraction == naive_strong
    assert plain.distortion <= strong.distortion
    assert distortion(plain.correspondence) == plain.distortion
    assert distortion(strong.correspondence) == strong.distortion
    assert is_strong_correspondence(strong.correspondence).is_strong


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3_000), st.integers(0, 3_000))
def test_cna_forms_agree(n, m, seed_a, seed_b):
    # universal form (library) against existential form (oracle) on every
    # correspondence of the pair
    x = random_ultrametric(n, seed_a, POOL)
    y = random_ultrametric(m, seed_b, POOL)
    dx = [[x.dist(i, j).fraction for j in range(n)] for i in range(n)]
    dy = [[y.dist(i, j).fraction for j in range(m)] for i in range(m)]
    subsets = [
        tuple(b for b in range(m) if mask & (1 << b)) for mask in range(1, 1 << m)
    ]

    def rec(level, sets):
        if level == n:
            covered = {b for sub in sets for b in sub}
            if len(covered) != m:
                return
            pairs = tuple((i, b) for i in range(n) for b in sets[i])
            c = Correspondence(x, y, pairs)
            verdict = is_strong_correspondence(c)
            assert verdict.is_strong == strong_existential(
                dx, dy, sets, verdict.distortion.fraction
            )
            return
        for sub in subsets:
            rec(level + 1, sets + [sub])

    rec(0, [])


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 4), st.integers(0, 5_000), st.integers(0, 5_000))
def test_equilibrium_bounds_and_partner_constancy(n, seed_a, seed_b):
    x = random_ultrametric(n, seed_a, POOL)
    y = random_ultrametric(n, seed_b, POOL)
    res = min_distortion_strong_correspondence(x, y)
    table = equilibrium_table(res.correspondence)  # strongness makes each entry unique
    for value in table.entries.values():
        assert table.distortion < value <= table.min_diameter


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 5_000), st.integers(0, 5_000))
def test_glue_on_searched_strong_correspondences(n, m, seed_a, seed_b):
    x = random_ultrametric(n, seed_a, POOL)
    y = random_ultrametric(m, seed_b, POOL)
    res = min_distortion_strong_correspondence(x, y)
    glued = glue_along_strong_correspondence(res.correspondence)
    # validate_space ran inside; embeddings preserve all distances
    for i in range(len(x)):
        for j in range(len(x)):
            assert glued.glued_space.dist(
                glued.left_embedding[i], glued.left_embedding[j]
            ) == x.dist(i, j)
    dh = hausdorff_distance(
        glued.glued_space, set(glued.left_embedding), set(glued.right_embedding)
    )
    assert dh <= res.distortion or res.distortion == ExactValue(0)


def test_one_point_side_needs_no_search(x3, singleton):
    # 8 points against one: the full product is the only correspondence, so
    # neither search refuses it, whatever the cap.
    ring = truncated_unramified_ring(2, 1, 3)
    for a, b in ((ring, singleton), (singleton, ring), (x3, singleton)):
        for search in (min_distortion_correspondence, min_distortion_strong_correspondence):
            for cap in (DEFAULT_PRODUCT_CAP, 0):
                res = search(a, b, product_cap=cap)
                assert res.correspondence == full_product(a, b)
                assert res.distortion == max(a.diameter(), b.diameter())
                assert res.optimal and res.nodes == 0
    assert classical_gh(x3, singleton, product_cap=0).value == ev("1/2")
