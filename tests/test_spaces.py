from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, product, zip_longest
from math import ceil, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from ultragh import (
    ExactValue,
    ball_partition,
    ball_representatives,
    candidate_thresholds,
    classical_gh,
    dhat_gh,
    hausdorff_distance,
    induced_subspace,
    is_epsilon_net,
    parse_space,
    ramified_ball_approx,
    random_ultrametric,
    truncated_unramified_ring,
    validate_space,
    weight_spectrum,
    write_space,
    zq_delta,
)
from ultragh.correspondences import _FarMasks, _subset_orders
from ultragh.spaces import (
    BreakpointGrid,
    UltrametricSpace,
    _checked_space,
    _closed_balls,
    _merge_heights,
    _split_tree,
)
from ultragh.errors import (
    AsymmetricMatrixError,
    EmptySubsetError,
    NonzeroDiagonalError,
    SpaceValidationError,
    UltrametricViolationError,
    ZeroOffDiagonalError,
)

from conftest import caterpillar, ev
from oracles import (
    ball_class_count,
    ball_partition_by_row_scan,
    fraction_matrix,
    grid_int_tables,
    is_epsilon_net_by_row_scan,
    merge_heights_by_ball_counts,
    naive_correspondence_minima,
    naive_lex_min_witness,
    partner_subsets_by_recursion,
    split_tree_by_peeling,
)

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]

spaces = st.builds(
    lambda n, seed: random_ultrametric(n, seed, POOL),
    st.integers(1, 5),
    st.integers(0, 10_000),
)


def test_validate_singleton():
    s = validate_space([[ev(0)]])
    assert len(s) == 1 and s.diameter() == ev(0)
    # Only validate_space builds a space.
    with pytest.raises(TypeError, match=r"use validate_space\(\) to build"):
        UltrametricSpace(s.labels, s.values, s.ranks, s.inexact, s._tree)


def test_validate_z4(z4):
    # brute force over all 24 ordered triples of the fixture matrix
    from oracles import ultrametric_violations

    matrix = [[z4.dist(i, j).fraction for j in range(4)] for i in range(4)]
    assert ultrametric_violations(matrix) == []
    assert len(z4) == 4


def test_validate_reports_violation():
    with pytest.raises(UltrametricViolationError) as exc:
        validate_space([[0, 1, 3], [1, 0, 1], [3, 1, 0]], ["a", "b", "c"])
    assert (exc.value.i, exc.value.j, exc.value.k) == (0, 1, 2)


def test_validate_error_kinds():
    with pytest.raises(SpaceValidationError, match="a space needs at least one point"):
        validate_space([])
    with pytest.raises(SpaceValidationError, match="row 1 has length 1, expected 2"):
        validate_space([[0, 1], [1]])
    with pytest.raises(SpaceValidationError, match="2 labels for 1 points"):
        validate_space([[0]], ["a", "b"])
    with pytest.raises(NonzeroDiagonalError):
        validate_space([[1]])
    with pytest.raises(AsymmetricMatrixError):
        validate_space([[0, 1], [2, 0]])
    with pytest.raises(ZeroOffDiagonalError):
        validate_space([[0, 0], [0, 0]])

    # A pairwise fault wins over a strong-triangle fault on (0, 1, 2).
    with pytest.raises(NonzeroDiagonalError) as diag:
        validate_space([[0, 1, 3], [1, 0, 1], [3, 1, 1]])
    assert diag.value.i == 2 and diag.value.value == ev(1)
    with pytest.raises(AsymmetricMatrixError) as asym:
        validate_space([[0, 1, 3], [1, 0, 1], [3, 2, 0]])
    assert (asym.value.i, asym.value.j) == (1, 2)
    assert (asym.value.dij, asym.value.dji) == (ev(1), ev(2))

    # Row-major order: asymmetry at (0, 2) comes before the diagonal (1, 1).
    with pytest.raises(AsymmetricMatrixError) as asym:
        validate_space([[0, 1, 2], [1, 5, 1], [3, 1, 0]])
    assert (asym.value.i, asym.value.j) == (0, 2)
    # Row 1's diagonal entry comes before its entry at (1, 2).
    with pytest.raises(NonzeroDiagonalError) as diag:
        validate_space([[0, 1, 1], [1, 5, 1], [1, 2, 0]])
    assert diag.value.i == 1
    # Inside a row, a zero at (0, 1) comes before asymmetry at (0, 2) ...
    with pytest.raises(ZeroOffDiagonalError) as zero:
        validate_space([[0, 0, 1], [0, 0, 1], [2, 1, 0]])
    assert (zero.value.i, zero.value.j) == (0, 1)
    # ... and at one entry, asymmetry is checked before zero.
    with pytest.raises(AsymmetricMatrixError) as asym:
        validate_space([[0, 0], [1, 0]])
    assert (asym.value.i, asym.value.j) == (0, 1)
    # A zero at (0, 1) also comes before faults in later rows: a nonzero
    # diagonal or an asymmetric pair.
    for later in ([[0, 0, 1], [0, 0, 1], [1, 1, 5]], [[0, 0, 1], [0, 0, 1], [1, 2, 0]]):
        with pytest.raises(ZeroOffDiagonalError) as zero:
            validate_space(later)
        assert (zero.value.i, zero.value.j) == (0, 1)
    # ... even when nonzero diagonals later on make up the count of zeros.
    for later in ([[0, 0, 1], [0, 1, 1], [1, 1, 1]],
                  [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 5, 1], [1, 1, 1, 5]]):
        with pytest.raises(ZeroOffDiagonalError) as zero:
            validate_space(later)
        assert (zero.value.i, zero.value.j) == (0, 1)


def test_validate_fresh_entries_match_shared():
    # One object per entry, as direct callers pass them, against one
    # shared ExactValue per value: the same space either way.
    shared = [list(row) for row in random_ultrametric(7, 3, POOL).matrix()]
    fresh = [
        [[Fraction(v.numerator, v.denominator) for v in row] for row in shared],
        [[f"{v.numerator}/{v.denominator}" for v in row] for row in shared],
    ]
    space = validate_space(shared)
    for rows in fresh:
        assert validate_space(rows) == space
    scaled = [[int(v.fraction * 4) for v in row] for row in shared]
    one_each: dict = {}
    assert validate_space(scaled) == validate_space(
        [[one_each.setdefault(k, ExactValue(k)) for k in row] for row in scaled]
    )
    # An int 1 earlier in the matrix does not let a float 1.0 through.
    with pytest.raises(TypeError):
        validate_space([[0, 1], [1.0, 0]])


def _perturbed_ultrametric(n, seed, edits):
    """A random ultrametric with each (i, j, pool index) edit applied
    symmetrically, always to a pool value other than the current one."""
    rows = [list(r) for r in random_ultrametric(n, seed, POOL).matrix()]
    for i, j, k in edits:
        i, j = i % n, j % n
        if i == j:
            j = (i + 1) % n
        value = POOL[k]
        if value == rows[i][j]:
            value = POOL[(k + 1) % len(POOL)]
        rows[i][j] = rows[j][i] = value
    return rows


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 12),
    st.integers(0, 10_000),
    st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11), st.integers(0, 3)),
        min_size=1,
        max_size=3,
    ),
)
def test_validate_matches_violation_oracle(n, seed, edits):
    from oracles import ultrametric_violations

    rows = _perturbed_ultrametric(n, seed, edits)
    bad = ultrametric_violations([[v.fraction for v in r] for r in rows])
    if not bad:
        assert validate_space(rows).matrix() == tuple(map(tuple, rows))
        return
    with pytest.raises(UltrametricViolationError) as exc:
        validate_space(rows)
    i, j, k = bad[0]
    err = exc.value
    assert (err.i, err.j, err.k) == (i, j, k)
    assert (err.dij, err.djk, err.dik) == (rows[i][j], rows[j][k], rows[i][k])


def test_diameter_examples(z4, ydelta, singleton):
    assert singleton.diameter() == ev(0)
    assert z4.diameter() == ev(1)
    assert ydelta.diameter() == ev("3/2")


def _brute_diameter(space):
    n = len(space)
    return max(
        (space.dist(i, j) for i in range(n) for j in range(n)), default=ExactValue(0)
    )


def _check_stored_matrix(space):
    """The stored values and ranks against brute-force scans of dist."""
    n = len(space)
    values = space.values
    assert values[0] == ev(0)
    assert all(a < b for a, b in zip(values, values[1:]))
    for i in range(n):
        for j in range(n):
            assert space.dist(i, j) == values[space.ranks[i][j]]
    assert space.diameter() == _brute_diameter(space)
    rebuilt = validate_space(space.matrix(), space.labels, inexact=space.inexact)
    assert rebuilt == space and hash(rebuilt) == hash(space)
    spectrum = sorted({space.dist(i, j) for i in range(n) for j in range(i + 1, n)})
    assert weight_spectrum(space).values == tuple(spectrum)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10_000), st.integers(0, 1 << 12))
@example(1, 0, 0)
@example(4, 0, 1)
def test_diameter_matches_brute_force(n, seed, mask):
    space = random_ultrametric(n, seed, POOL)
    _check_stored_matrix(space)
    subset = [i for i in range(n) if mask & (1 << i)] or [0]
    sub = induced_subspace(space, subset)
    _check_stored_matrix(sub)
    assert sub.matrix() == tuple(tuple(space.dist(i, j) for j in subset) for i in subset)
    _check_stored_matrix(induced_subspace(space, [subset[0]]))


def test_induced_subspace(z4, x3):
    sub = induced_subspace(z4, {0, 2})
    assert len(sub) == 2 and sub.dist(0, 1) == ev("1/2")
    assert induced_subspace(z4, range(4)) == z4
    assert len(induced_subspace(x3, {0})) == 1
    with pytest.raises(EmptySubsetError):
        induced_subspace(z4, [])


def test_hausdorff_examples(z4):
    assert hausdorff_distance(z4, [0, 1], [0, 1]) == ev(0)
    assert hausdorff_distance(z4, [0], [2]) == ev("1/2")
    assert hausdorff_distance(z4, [0, 1], range(4)) == ev("1/2")


def test_epsilon_net_examples(z4, x3):
    assert is_epsilon_net(z4, range(4), ev(1))
    assert is_epsilon_net(z4, [0, 1], ev(1))
    assert not is_epsilon_net(x3, [0, 1], ev(1))


def test_ball_partition_examples(z4):
    assert ball_partition(z4, ev(1)) == ((0, 2), (1, 3))
    assert ball_partition(z4, ev("1/2")) == ((0,), (1,), (2,), (3,))
    assert ball_partition(z4, ev("3/2")) == ((0, 1, 2, 3),)


def test_weight_spectrum_examples(z4, ydelta, singleton):
    assert weight_spectrum(singleton).values == ()
    spec = weight_spectrum(z4)
    assert spec.values == (ev("1/2"), ev(1))
    assert len(spec) == 2 and len(weight_spectrum(singleton)) == 0
    assert spec.min_value == ev("1/2") and spec.max_value == ev(1)
    assert weight_spectrum(ydelta).values == (ev(1), ev("3/2"))


def test_candidate_thresholds(x2, x3, ydelta, singleton):
    assert candidate_thresholds(x2, x3) == (ev(0), ev(1), ev(2))
    assert candidate_thresholds(x3, ydelta) == (
        ev(0), ev("1/2"), ev(1), ev("3/2"), ev("5/2"),
    )
    assert candidate_thresholds(singleton, singleton) == (ev(0), ev(1))


@settings(max_examples=60, deadline=None)
@given(spaces, spaces)
def test_breakpoint_grid_invariants(x, y):
    check_breakpoint_grid(x, y)


# Coprime denominators, so the grid's common denominator is their lcm.
COPRIME_POOL = [ev("1/3"), ev("2/5"), ev("3/7"), ev(1), ev("11/6"), ev("7/3")]
# Dyadic level values: 0, 1/2 and 181/256.
RAMIFIED = ramified_ball_approx(2, 2, 1, 1, 2, precision_bits=8)

coprime_spaces = st.one_of(
    st.builds(
        lambda n, seed: random_ultrametric(n, seed, COPRIME_POOL),
        st.integers(1, 5),
        st.integers(0, 10_000),
    ),
    st.just(RAMIFIED),
)


@settings(max_examples=40, deadline=None)
@given(coprime_spaces, coprime_spaces)
@example(RAMIFIED, random_ultrametric(4, 0, COPRIME_POOL))
def test_breakpoint_grid_coprime_denominators(x, y):
    check_breakpoint_grid(x, y)


small_coprime_spaces = st.builds(
    lambda n, seed: random_ultrametric(n, seed, COPRIME_POOL),
    st.integers(2, 4),
    st.integers(0, 10_000),
)


# A 4 x 4 pair takes about 1 s of brute force.
@settings(max_examples=10, deadline=None)
@given(small_coprime_spaces, small_coprime_spaces)
def test_grid_ints_match_exact_values_on_coprime_denominators(x, y):
    # The pair's numbers are ints over the lcm of coprime denominators, so
    # the differential is against brute force in Fractions and the grid
    # built in ExactValues: classical_gh's value and witness, dhat, the
    # thresholds, and every comparison of two grid ints or of a grid int
    # with an eps through its int cut ceil(eps * den).
    min_dis, strong_min = naive_correspondence_minima(x, y)
    want_value, want_pairs = naive_lex_min_witness(x, y, False)
    res = classical_gh(x, y)
    assert res.optimal and res.value * 2 == min_dis == want_value
    assert res.witness.pairs == want_pairs
    assert dhat_gh(x, y, include_classical=False).dhat == strong_min
    wx = {ev(0), *weight_spectrum(x)}
    wy = {ev(0), *weight_spectrum(y)}
    values = sorted(wx | wy | {a.abs_diff(b) for a in wx for b in wy})
    thresholds = candidate_thresholds(x, y)
    assert thresholds == (*values, max(x.diameter(), y.diameter()) + ev(1))
    grid = BreakpointGrid(x, y)
    ints = sorted({*grid.wx, *grid.wy, *(k for row in grid._gap for k in row)})
    exact = [ExactValue(k, grid.den) for k in ints]
    assert exact == values
    for (a, va), (b, vb) in product(zip(ints, exact), repeat=2):
        assert (a < b, a == b, a > b) == (va < vb, va == vb, va > vb)
    epsilons = [t.midpoint(u) for t, u in zip(thresholds, thresholds[1:])]
    for eps in epsilons + list(thresholds[1:]):
        cut = ceil(eps * grid.den)
        assert [k < cut for k in ints] == [v < eps for v in exact]


def check_breakpoint_grid(x, y):
    grid = BreakpointGrid(x, y)
    den = grid.den
    wx = {ev(0), *weight_spectrum(x)}
    wy = {ev(0), *weight_spectrum(y)}
    # den is the common denominator of both value sets, and wx and wy are
    # each space's values, ascending, as ints over it.
    assert den == lcm(*(v.denominator for v in wx | wy))
    assert [ExactValue(k, den) for k in grid.wx] == list(x.values)
    assert [ExactValue(k, den) for k in grid.wy] == list(y.values)
    # The per-value gaps, indexed by the two spaces' own ranks, are the
    # ints of every gap between a distance of x and one of y.
    gap = grid._gap
    assert len(gap) == len(x.values)
    for v, by_y in zip(x.values, gap):
        assert [ExactValue(k, den) for k in by_y] == [v.abs_diff(w) for w in y.values]
    # The gaps are the whole grid, which equals the grid built in
    # ExactValues: thresholds() without its sentinel, strictly increasing,
    # whose last value is the larger diameter, the full product's
    # distortion.
    ints = sorted({k for row in gap for k in row})
    values = grid.thresholds()[:-1]
    assert values == tuple(sorted(wx | wy | {a.abs_diff(b) for a in wx for b in wy}))
    assert [ExactValue(k, den) for k in ints] == list(values)
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] == max(x.diameter(), y.diameter())
    assert ints[-1] == max(grid.wx[-1], grid.wy[-1])
    n, m = len(x), len(y)
    # The classical search's far masks at every distinct cutoff: each grid
    # int, and each one plus 1, the cutoff the search sets above a leaf's
    # distortion, the last above every gap. One row per distance of x,
    # each built on first use and then kept.
    far_masks = _FarMasks(grid)
    cutoffs = sorted({*ints, *(k + 1 for k in ints)})
    fars = [far_masks[cutoff] for cutoff in cutoffs]
    assert all(far_masks[cutoff] is far for cutoff, far in zip(cutoffs, fars))
    for cutoff, far in zip(cutoffs, fars):
        assert len(far) == len(x.values)
        for i, j, a in product(range(n), range(n), range(m)):
            by_y, row = gap[x.ranks[i][j]], y.ranks[a]
            assert far[x.ranks[i][j]][a] == sum(
                1 << b for b in range(m) if by_y[row[b]] >= cutoff)
    # The search's internal test: a subset of y reaches a cutoff exactly
    # when it meets the far mask of its lowest point at x's distance 0,
    # far[0].
    for k in range(1, m + 1):
        for sub in combinations(range(m), k):
            mask = sum(1 << a for a in sub)
            largest = max((grid.wy[y.ranks[a][b]] for a, b in combinations(sub, 2)),
                          default=0)
            for cutoff, far in zip(cutoffs, fars):
                assert bool(mask & far[0][sub[0]]) == (largest >= cutoff)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000), spaces)
@example(13, 0, random_ultrametric(2, 0, POOL))
def test_partner_subsets_match_recursion(m, seed, x):
    # The search's subset orders are the (subset, mask) lists of the
    # recursive reference, in both orders: prefix-first, which is the
    # ascending order of the subsets as tuples, and each subset after its
    # extensions. The reference's largest internal distance, which the
    # reference strong search reads, is the brute-force one, on ranks
    # remapped to a grid's ints (grid_int_tables). m = 13 is past the
    # memoised sizes.
    y = random_ultrametric(m, seed, POOL)
    _, ry, _ = grid_int_tables(BreakpointGrid(x, y))
    last, inner, worst = partner_subsets_by_recursion(ry)
    assert _subset_orders(m) == (tuple(e[:2] for e in last), tuple(e[:2] for e in inner))
    every = [c for k in range(1, m + 1) for c in combinations(range(m), k)]
    assert [e[0] for e in last] == sorted(every)
    assert [e[0] for e in inner] == sorted(every, key=lambda c: c + (m,))
    for sub, mask, w in last:
        assert mask == sum(1 << a for a in sub)
        assert w == worst[mask] == max((ry[a][b] for a, b in combinations(sub, 2)),
                                       default=0)


@settings(max_examples=60, deadline=None)
@given(spaces, spaces)
@example(random_ultrametric(5, 0, POOL), random_ultrametric(2, 0, POOL))
def test_distortion_floor(x, y):
    # The merge-height floor reads max_k |h_X[k] - h_Y[k]| off heights
    # counted by brute force, never falls below the diameter gap, and never
    # exceeds the minimum distortion. The unpruned enumeration visits
    # (2^m - 1)^n partner assignments, 50,625 at 4x4 and 759,375 at 5x4,
    # so the minimum is checked on pairs with |X|*|Y| <= 12.
    grid = BreakpointGrid(x, y)
    floor = ExactValue(grid.distortion_floor(), grid.den)
    hx, hy = merge_heights_by_ball_counts(x), merge_heights_by_ball_counts(y)
    assert floor.fraction == max(
        (abs(a - b) for a, b in zip_longest(hx, hy, fillvalue=Fraction(0))),
        default=Fraction(0),
    )
    assert floor >= x.diameter().abs_diff(y.diameter())
    if len(x) * len(y) <= 12:
        assert floor.fraction <= naive_correspondence_minima(x, y)[0]
    # The floor reads heights each space kept when it was built: validated,
    # parsed back from its file text, or induced on every other point.
    for space in (x, y):
        for s in (space, parse_space(write_space(space)),
                  induced_subspace(space, range(0, len(space), 2))):
            assert s._merges == _merge_heights(s._tree)
            assert [s.values[h] for h in s._merges] == merge_heights_by_ball_counts(s)


def mst_heights(space):
    """The edge weights of a minimum spanning tree of the space's distance
    matrix, largest first, by Prim's algorithm on Fractions: for an
    ultrametric they are its merge heights."""
    dist = fraction_matrix(space)
    near = {j: dist[0][j] for j in range(1, len(dist))}
    heights = []
    while near:
        j = min(near, key=near.__getitem__)
        heights.append(near.pop(j))
        for k in near:
            near[k] = min(near[k], dist[j][k])
    return sorted(heights, reverse=True)


# Sizes (|X|, |Y|) of each relation the floor's zero padding meets.
SIZES = {
    "smaller": st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(n + 1, 8))),
    "larger": st.integers(1, 7).flatmap(
        lambda m: st.tuples(st.integers(m + 1, 8), st.just(m))),
    "equal": st.integers(1, 8).map(lambda n: (n, n)),
    "one_point": st.integers(1, 8).flatmap(
        lambda n: st.sampled_from([(1, n), (n, 1)])),
}
THIRDS = [ExactValue(1, 3), ExactValue(2, 3), ExactValue(1), ExactValue(3, 2)]


@pytest.mark.parametrize("relation", sorted(SIZES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_distortion_floor_pads_the_shorter_heights(relation, data):
    # The floor is max_k |h_X[k] - h_Y[k]| over merge heights read off a
    # minimum spanning tree, the shorter list padded with zeros, whichever
    # side is shorter, and 0 when both sides are one point. X's values are
    # quarters and Y's thirds, so the grid scales both by a common
    # denominator neither side has alone.
    n, m = data.draw(SIZES[relation])
    x = random_ultrametric(n, data.draw(st.integers(0, 10_000)), POOL)
    y = random_ultrametric(m, data.draw(st.integers(0, 10_000)), THIRDS)
    grid = BreakpointGrid(x, y)
    hx, hy = mst_heights(x), mst_heights(y)
    expected = max((abs(a - b) for a, b in zip_longest(hx, hy, fillvalue=Fraction(0))),
                   default=Fraction(0))
    assert grid.floor == grid.distortion_floor()
    assert ExactValue(grid.floor, grid.den).fraction == expected


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.builds(random_ultrametric, st.integers(1, 40), st.integers(0, 10_000), st.just(POOL)),
    st.builds(caterpillar, st.integers(1, 40)),
    st.builds(caterpillar, st.integers(4, 40), st.just(True)),
), st.randoms(use_true_random=False))
def test_ball_partition_matches_the_row_scan(space, rng):
    # The dendrogram's closed balls against the row scan of the rank
    # matrix, at every distance, every midpoint between two distances and
    # above the diameter; is_epsilon_net against the row scan there too,
    # on the balls' first points, on them less one, and on two random
    # subsets. At every rank, _closed_balls itself: each point's class,
    # each class node's first point and the tallest ball's diameter.
    values = space.values
    n = len(space)
    tree = space._tree
    for r in range(len(values)):
        want = ball_partition_by_row_scan(space.ranks, r + 1)
        balls = _closed_balls(tree, r)
        assert balls.class_of == [next(i for i, c in enumerate(want) if p in c)
                                  for p in range(n)]
        assert tuple(map(tuple, balls.members)) == want
        assert [tree.first[v] for v in balls.classes] == [c[0] for c in want]
        assert balls.height == max(space.ranks[p][q] for c in want for p in c for q in c)
    subsets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(2)]
    for eps in (*values[1:], *(a.midpoint(b) for a, b in zip(values, values[1:])),
                values[-1] + ev(1)):
        cut = bisect_left(values, eps)
        want = ball_partition_by_row_scan(space.ranks, cut)
        assert ball_partition(space, eps) == want
        reps = ball_representatives(space, eps)
        assert reps == tuple(c[0] for c in want)
        for s in (reps, reps[1:] or reps, *subsets):
            assert is_epsilon_net(space, s, eps) == is_epsilon_net_by_row_scan(
                space.ranks, s, cut)


@settings(max_examples=60, deadline=None)
@given(spaces, st.integers(0, 3))
def test_ball_partition_dichotomy(space, eps_index):
    eps = POOL[eps_index]
    classes = ball_partition(space, eps)
    count = ball_class_count(space, eps)
    assert len(classes) == count
    seen = set()
    for cls in classes:
        assert cls, "class must be nonempty"
        seen.update(cls)
        for a in cls:
            for b in cls:
                assert space.dist(a, b) < eps
    assert seen == set(range(len(space)))
    reps = [c[0] for c in classes]
    for a, b in combinations(reps, 2):
        assert space.dist(a, b) >= eps


def test_hausdorff_exhaustive_on_five_points():
    # all subset pairs and triples of one 5-point space, via a cached matrix
    space = random_ultrametric(5, 1234, POOL)
    subsets = [
        tuple(i for i in range(5) if mask & (1 << i)) for mask in range(1, 1 << 5)
    ]
    hd = {}
    for a in subsets:
        for b in subsets:
            hd[(a, b)] = hausdorff_distance(space, a, b)
    for a in subsets:
        for b in subsets:
            assert (hd[(a, b)] == ExactValue(0)) == (a == b)
            assert hd[(a, b)] == hd[(b, a)]
    for a in subsets:
        for b in subsets:
            for c in subsets:
                assert hd[(a, c)] <= max(hd[(a, b)], hd[(b, c)])


@settings(max_examples=40, deadline=None)
@given(spaces)
def test_hausdorff_zero_iff_equal_and_ultra_triangle(space):
    n = len(space)
    subsets = []
    for mask in range(1, 1 << n):
        subsets.append(tuple(i for i in range(n) if mask & (1 << i)))
    for a in subsets[: 8]:
        for b in subsets[: 8]:
            d = hausdorff_distance(space, a, b)
            assert (d == ExactValue(0)) == (set(a) == set(b))
    trio = subsets[: 5]
    for a in trio:
        for b in trio:
            for c in trio:
                dac = hausdorff_distance(space, a, c)
                dab = hausdorff_distance(space, a, b)
                dbc = hausdorff_distance(space, b, c)
                assert dac <= max(dab, dbc)


@settings(max_examples=40, deadline=None)
@given(spaces, st.integers(0, 2))
def test_epsilon_net_monotone(space, eps_index):
    eps = POOL[eps_index]
    bigger = POOL[eps_index + 1]
    reps = ball_representatives(space, eps)
    if is_epsilon_net(space, reps, eps):
        assert is_epsilon_net(space, reps, bigger)


@settings(max_examples=40, deadline=None)
@given(spaces, st.integers(0, 10_000))
def test_subspace_spectrum_contained(space, pick):
    n = len(space)
    subset = sorted({pick % n, (pick // n) % n})
    sub = induced_subspace(space, subset)
    inner = set(weight_spectrum(sub).values)
    outer = set(weight_spectrum(space).values)
    assert inner <= outer


@settings(max_examples=40, deadline=None)
@given(spaces)
def test_net_preserves_diameter(space):
    # every eps-net with eps below the diameter spans the full diameter
    diam = space.diameter()
    if diam == ExactValue(0):
        return
    n = len(space)
    for eps in POOL:
        if eps >= diam:
            continue
        for mask in range(1, 1 << n):
            subset = [i for i in range(n) if mask & (1 << i)]
            if is_epsilon_net(space, subset, eps):
                assert induced_subspace(space, subset).diameter() == diam


def _first_validation_error(matrix):
    """The error validate_space must raise on a square int matrix, or None,
    by the documented order: row by row the diagonal entry, then each entry
    right of it for symmetry and then for zero; then the first ordered
    triple breaking the strong triangle inequality."""
    from oracles import ultrametric_violations

    n = len(matrix)
    for i in range(n):
        if matrix[i][i] != 0:
            return (NonzeroDiagonalError, i)
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                return (AsymmetricMatrixError, i, j)
            if matrix[i][j] == 0:
                return (ZeroOffDiagonalError, i, j)
    bad = ultrametric_violations(matrix)
    return (UltrametricViolationError, *bad[0]) if bad else None


def _raised(matrix):
    try:
        validate_space(matrix)
    except NonzeroDiagonalError as err:
        return (NonzeroDiagonalError, err.i)
    except UltrametricViolationError as err:
        return (UltrametricViolationError, err.i, err.j, err.k)
    except (AsymmetricMatrixError, ZeroOffDiagonalError) as err:
        return (type(err), err.i, err.j)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.integers(0, 3), st.booleans()), max_size=3),
)))
def test_validation_error_order(case):
    # A symmetric matrix with a zero diagonal and entries 1-3 off it, then
    # up to three entries overwritten, on one side of the diagonal or on
    # both, so faults of every kind turn up alone and together.
    draws, faults = case
    n = round(len(draws) ** 0.5)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draws[i * n + j]
    for i, j, value, both in faults:
        matrix[i][j] = value
        if both:
            matrix[j][i] = value
    assert _raised(matrix) == _first_validation_error(matrix)


def _single_linkage_heights(rk):
    """Merge heights of any symmetric rank matrix, largest first: the
    edges Kruskal's algorithm joins, over all pairs by rank."""
    n = len(rk)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    heights = []
    for r, i, j in sorted((rk[i][j], i, j) for i in range(n) for j in range(i + 1, n)):
        a, b = find(i), find(j)
        if a != b:
            parent[a] = b
            heights.append(r)
    return sorted(heights, reverse=True)


def _is_ultrametric(rk):
    n = len(rk)
    return all(rk[i][k] <= max(rk[i][j], rk[j][k])
               for i in range(n) for j in range(n) for k in range(n))


def _check_tree_fields(rk, tree):
    """The dendrogram's parents and first points against brute force: each
    node's parent is the node that lists it as a child (-1 for the root),
    and its first point is the least point of its ball, the closed ball
    of its height about a point below it."""
    n = len(rk)
    listed_by = [-1] * (n + len(tree.heights))
    for k, kids in enumerate(tree.children):
        for child in kids:
            listed_by[child] = n + k
    assert tree.parent == listed_by
    for v in range(len(listed_by)):
        height, below = 0, v
        if v >= n:
            height = tree.heights[v - n]
            while below >= n:
                below = tree.children[below - n][0]
        assert tree.first[v] == next(j for j, r in enumerate(rk[below]) if r <= height)


def _check_split(rk):
    tree = _split_tree(rk)
    # The same verdict and the same dendrogram, node for node, as peeling
    # one sub-ball per step.
    assert tree == split_tree_by_peeling(rk)
    if _is_ultrametric(rk):
        assert _merge_heights(tree) == _single_linkage_heights(rk)
        _check_tree_fields(rk, tree)
    else:
        assert tree is None


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(1, 4), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_ball_splitting_on_random_rank_matrices(case):
    # Any symmetric matrix with a zero diagonal and ranks 1-4 off it:
    # accepted exactly when no triple breaks the strong triangle inequality,
    # with the single-linkage merge heights, and each node's parent and
    # first point those that brute force gives.
    n, upper = case
    rk = [[0] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            rk[i][j] = rk[j][i] = next(entries)
    _check_split(tuple(map(tuple, rk)))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 14),
    st.integers(0, 10_000),
    st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13), st.integers(0, 3)),
        max_size=2,
    ),
)
def test_ball_splitting_on_perturbed_ultrametrics(n, seed, edits):
    rows = _perturbed_ultrametric(n, seed, edits)
    values = sorted({v for row in rows for v in row})
    rk = tuple(tuple(map(values.index, row)) for row in rows)
    _check_split(rk)


def test_ball_splitting_matches_one_ball_per_step_on_generated_spaces():
    # Splitting each ball into all its sub-balls in one step numbers the
    # nodes, orders the children and fills parents and first points as
    # peeling one sub-ball per step did, on the paper's families, seeded
    # random spaces up to 256 points and caterpillars with a split bottom.
    pool = [ev(f"{k}/7") for k in range(1, 30)]
    spaces = [
        truncated_unramified_ring(2, 1, 8, size_cap=256),
        truncated_unramified_ring(3, 2, 1),
        ramified_ball_approx(2, 2, 1, 1, 4),
        zq_delta(5, 2, 3),
        caterpillar(300),
        caterpillar(40, split_bottom=True),
        *(random_ultrametric(n, seed, p, size_cap=256)
          for n in (2, 3, 5, 17, 64, 256) for seed in (0, 1, 2) for p in (POOL, pool)),
    ]
    for space in spaces:
        assert space._tree == split_tree_by_peeling(space.ranks)


def _depth(tree, n):
    """Edges on the longest path from a dendrogram's root down to a point,
    walking the nodes in order, each parent before its children."""
    depth = [0] * (n + len(tree.heights))
    for k, kids in enumerate(tree.children):
        for c in kids:
            depth[c] = depth[n + k] + 1
    return max(depth[:n])


def test_ball_splitting_on_a_2048_point_caterpillar():
    # d(i, j) = max(i, j): every merge height is distinct, and each split
    # leaves a cluster one point smaller, 2,047 levels deep. The space
    # keeps the chain the splitting builds, root first: nodes at heights
    # 2,047 down to 1, each holding one point and the next node, the last
    # one points 0 and 1.
    n = 2048
    ints = list(range(n))
    space = caterpillar(n)
    tree = space._tree
    assert tree.heights == ints[:0:-1]
    assert _depth(tree, n) == n - 1
    assert _merge_heights(tree) == ints[:0:-1]
    _check_tree_fields(space.ranks, tree)
    # Every point is its own open 1/2-ball, read off the chain's bottom.
    assert ball_partition(space, ev("1/2")) == tuple((i,) for i in range(n))
    # The merge heights are those the closed-ball counts give, checked on
    # 64 points, where counting is cheap.
    small = caterpillar(64)
    assert ([small.values[h] for h in _merge_heights(small._tree)]
            == merge_heights_by_ball_counts(small))
    # d(0, 1) = 5 > max(d(0, 2), d(2, 1)) = 2, found at the deepest split.
    rk = space.ranks
    bad = (rk[0][:1] + (5,) + rk[0][2:], (5,) + rk[1][1:]) + rk[2:]
    assert _split_tree(bad) is None


def test_ball_splitting_rejects_a_zero_off_the_diagonal():
    # A rank matrix that reaches the rank-level core with a zero off the
    # diagonal is rejected, not split without end, and the core names the
    # first such zero in row-major order before any triple.
    space = caterpillar(6)
    values, rk = space.values, [list(row) for row in space.ranks]
    for zeros in ([(0, 1)], [(4, 5)], [(3, 5), (2, 4)], [(0, j) for j in range(1, 6)]):
        bad = [row[:] for row in rk]
        for i, j in zeros:
            bad[i][j] = bad[j][i] = 0
        bad = tuple(map(tuple, bad))
        assert _split_tree(bad) is None
        with pytest.raises(ZeroOffDiagonalError) as zero:
            _checked_space(space.labels, values, bad, False)
        assert (zero.value.i, zero.value.j) == min(zeros)
