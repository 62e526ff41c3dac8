import copy
from bisect import bisect_left
from itertools import count

import pytest
from hypothesis import example, given, settings, strategies as st

from ultragh import (
    EngineCaps,
    ExactValue,
    ball_representatives,
    candidate_thresholds,
    classical_gh,
    dhat_gh,
    exists_strong_epsilon_approximation,
    exists_strong_epsilon_isometry,
    find_split,
    full_product,
    induced_subspace,
    is_strong_correspondence,
    is_strong_epsilon_approximation,
    is_strong_epsilon_isometry,
    metric_ratio,
    min_distortion_correspondence,
    min_distortion_strong_correspondence,
    random_ultrametric,
    spectra_lower_bound,
    truncated_unramified_ring,
    validate_space,
    weight_spectrum,
    zq_delta,
)
from ultragh import correspondences, engine, isometries
from ultragh.correspondences import _FarMasks, _search, _subset_orders
from ultragh.engine import METHOD_NAMES, MethodOutcome
from ultragh.isometries import _certified_quotient
from ultragh.exact import ZERO
from ultragh.errors import (
    BudgetExceededError,
    MethodDisagreementError,
    SearchSpaceTooLargeError,
)
from ultragh.spaces import BreakpointGrid, UltrametricSpace

from conftest import caterpillar, equal_diameter_partner, ev, near_copy, refuse_relation_checks
from oracles import (
    approximation_search,
    grid_int,
    isometry_exists,
    isometry_search,
    naive_correspondence_minima,
    quotient_int_by_recursion,
    spectra_bound_by_scan,
    strong_correspondence_search,
)

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]

spaces = st.builds(
    lambda n, seed: random_ultrametric(n, seed, POOL),
    st.integers(1, 4),
    st.integers(0, 20_000),
)


def test_dhat_identity(x3):
    report = dhat_gh(x3, x3)
    assert report.dhat == ev(0)
    assert report.agreement
    assert report.classical_dgh == ev(0)
    assert report.ratio is None


def test_dhat_x2_x3(x2, x3):
    report = dhat_gh(x2, x3, methods=("strong_correspondence", "isometry_scan", "approximation_scan"))
    assert report.dhat == ev(1)
    assert len(report.methods) == 3
    assert report.dhat_attained  # the strong correspondence attains the minimum
    # The reference searches, walked as a scan, give both scan outcomes.
    assert report.methods["isometry_scan"] == _linear_scan(x2, x3, isometry_search)
    assert report.methods["approximation_scan"] == _linear_scan(x2, x3, approximation_search)


def test_dhat_x3_ydelta_shortcut(x3, ydelta):
    report = dhat_gh(x3, ydelta)
    assert report.dhat == ev("3/2")
    assert "shortcut_3b" in report.methods
    assert report.spectra_lower_bound == ev("3/2")
    assert report.diameter_upper_bound == ev("3/2")


@pytest.mark.parametrize("methods", [("bogus",), ()])
def test_invalid_methods_rejected_on_diameter_gap(x3, ydelta, methods):
    # The same inputs raise on equal diameters; the gap path must not
    # accept them silently.
    with pytest.raises(ValueError):
        dhat_gh(x3, ydelta, methods=methods)
    with pytest.raises(ValueError):
        dhat_gh(x3, x3, methods=methods)


@st.composite
def diameter_gap_pairs(draw):
    """Random pairs of 1-6 points a side with unequal diameters, singletons
    included: the second space is the first seeded random space, from a
    drawn seed on, whose diameter differs from the first's."""
    n = draw(st.integers(1, 6))
    x = random_ultrametric(n, draw(st.integers(0, 20_000)), POOL)
    m = draw(st.integers(2 if n == 1 else 1, 6))
    ys = (random_ultrametric(m, s, POOL) for s in count(draw(st.integers(0, 20_000))))
    y = next(y for y in ys if y.diameter() != x.diameter())
    if draw(st.booleans()):
        x, y = y, x
    return x, y


@settings(max_examples=60, deadline=None)
@given(diameter_gap_pairs())
def test_diameter_gap_certificate(pair):
    # The facts dhat_gh's shortcut relies on without checking them at run
    # time: the full product is strong with the larger diameter as its
    # distortion, and the spectra bound reaches that diameter.
    x, y = pair
    diam = max(x.diameter(), y.diameter())
    full = full_product(x, y)
    verdict = is_strong_correspondence(full)
    assert verdict.is_strong and verdict.distortion == diam
    assert spectra_lower_bound(x, y) == diam
    report = dhat_gh(x, y, include_classical=False)
    assert report.dhat == diam
    assert report.methods["strong_correspondence"] == MethodOutcome(diam, True, full)
    if len(x) * len(y) <= EngineCaps().corr_product:
        assert min_distortion_strong_correspondence(x, y).distortion == diam


def test_diameter_gap_runs_no_distortion(monkeypatch):
    calls = []
    original = correspondences.distortion

    def counting(c):
        calls.append(1)
        return original(c)

    monkeypatch.setattr(correspondences, "distortion", counting)
    report = dhat_gh(truncated_unramified_ring(2, 1, 3), zq_delta(5, 2, 2))
    assert "shortcut_3b" in report.methods
    assert calls == []


def test_spectra_lower_bound_examples(x3, z4, ydelta):
    assert spectra_lower_bound(x3, x3) == ev(0)
    assert spectra_lower_bound(z4, x3) == ev("1/2")
    assert spectra_lower_bound(x3, ydelta) == ev("3/2")


@settings(max_examples=30, deadline=None)
@given(spaces, spaces)
def test_spectra_bound_matches_literal_scan(x, y):
    thresholds = candidate_thresholds(x, y)
    assert spectra_lower_bound(x, y) == spectra_bound_by_scan(x, y, thresholds)


@settings(max_examples=60, deadline=None)
@given(spaces, spaces)
@example(random_ultrametric(1, 0, POOL), random_ultrametric(1, 0, POOL))
@example(random_ultrametric(1, 0, POOL), random_ultrametric(3, 0, POOL))
@example(random_ultrametric(3, 0, POOL), random_ultrametric(1, 0, POOL))
def test_spectra_bound_is_the_top_of_the_symmetric_difference(x, y):
    # The walk down both sorted spectra against the bound's definition: the
    # largest value in exactly one spectrum, zero when they are equal.
    disagreement = set(weight_spectrum(x)) ^ set(weight_spectrum(y))
    assert spectra_lower_bound(x, y) == max(disagreement, default=ZERO)
    assert spectra_lower_bound(x, x) == ZERO


def test_classical_examples(x3, ydelta, singleton):
    assert classical_gh(x3, x3).value == ev(0)
    assert classical_gh(x3, singleton).value == ev("1/2")  # half the diameter
    res = classical_gh(x3, ydelta)
    assert res.value == ev("1/4")
    assert res.optimal


def test_metric_ratio_examples(x3, ydelta, singleton):
    assert metric_ratio(x3, singleton) == ev(2)
    assert metric_ratio(x3, ydelta) == ev(6)
    assert metric_ratio(x3, x3) is None


def test_metric_ratio_budget_exhaustion_raises(z4):
    # d_GH is 1/4, so the ratio is 3; a classical search cut at two nodes
    # has no exact d_GH and must not read as isometric.
    far = zq_delta(5, 2, 2)
    assert metric_ratio(z4, far) == ev(3)
    with pytest.raises(BudgetExceededError, match="classical search"):
        metric_ratio(z4, far, budget=2)


def test_budget_interval_on_exhaustion(z4):
    # Equal diameters, so the diameter gap is 0, but the merge heights
    # differ: 1, 1/2, 1/2 against 1, 1, 1/3, ..., a floor of 1/2 on the
    # distortion. The interval's lower end is half of it.
    big = truncated_unramified_ring(3, 1, 2)
    res = classical_gh(z4, big, budget=3)
    assert not res.optimal
    assert res.value is None
    assert (res.lower, res.upper) == (ev("1/4"), ev("1/2"))
    # The search stops at its first leaf on the floor, which is optimal.
    res = classical_gh(z4, big, budget=10)
    assert res.optimal and res.lower == res.upper == ev("1/4")
    assert res == classical_gh(z4, big)


@pytest.mark.parametrize("budget, error", [
    (-1, ValueError), (True, TypeError), (False, TypeError), (2.5, TypeError), ("3", TypeError),
])
def test_budgets_the_cli_refuses_are_refused(z4, x3, ydelta, budget, error):
    # Each library entry that takes a node budget refuses what --budget
    # refuses, before any work: equal diameters or a gap, the classical
    # search asked for or not. -1 used to give a non-optimal interval and
    # True to act as 1.
    calls = [
        lambda: classical_gh(z4, z4, budget=budget),
        lambda: min_distortion_correspondence(z4, z4, budget),
        lambda: dhat_gh(z4, z4, budget=budget),
        lambda: dhat_gh(z4, z4, budget=budget, include_classical=False),
        lambda: dhat_gh(x3, ydelta, budget=budget),
        lambda: metric_ratio(z4, z4, budget=budget),
        lambda: min_distortion_strong_correspondence(z4, z4, budget),
    ]
    for call in calls:
        with pytest.raises(error, match="budget"):
            call()


@pytest.mark.parametrize("product_cap, error", [
    (-5, ValueError), (True, TypeError), (False, TypeError), (None, TypeError),
    ("a", TypeError), (2.5, TypeError),
])
def test_strong_minimum_refuses_a_bad_product_cap(z4, product_cap, error):
    # min_distortion_strong_correspondence runs no search, but it refuses
    # a product_cap as the budget is refused, None included, where it used
    # to return an optimal result. The budget is checked first.
    with pytest.raises(error, match="product_cap"):
        min_distortion_strong_correspondence(z4, z4, product_cap=product_cap)
    with pytest.raises(TypeError, match="budget"):
        min_distortion_strong_correspondence(z4, z4, "x", product_cap=product_cap)
    res = min_distortion_strong_correspondence(z4, z4, 0, product_cap=0)
    assert (res.distortion, res.optimal, res.nodes) == (ev(0), True, 0)


def test_budget_zero_is_a_budget(z4):
    # 0 is an int of at least 0, as --budget 0 is: the search stops at its
    # first node with the full product's interval.
    big = truncated_unramified_ring(3, 1, 2)
    assert not classical_gh(z4, big, budget=0).optimal
    assert not min_distortion_correspondence(z4, big, 0).optimal
    assert dhat_gh(z4, big, budget=0).dhat == dhat_gh(z4, big).dhat


def test_a_methods_string_is_refused(z4, x3, ydelta):
    # A string is not read as its characters: the TypeError names it, on
    # equal diameters and on a diameter gap alike.
    for x, y in ((z4, z4), (x3, ydelta)):
        with pytest.raises(TypeError, match="'strong_correspondence'"):
            dhat_gh(x, y, "strong_correspondence")


def test_caps_refuse_oversized():
    # Over every cap a call answers from the quotient route, with all three
    # outcomes by default and the named ones when asked, budgeted or not.
    # Only the classical search, asked for, refuses the size, budgeted or
    # not.
    a = truncated_unramified_ring(2, 1, 3)  # 8 points
    b = truncated_unramified_ring(3, 1, 2)  # 9 points -> product 72
    report = dhat_gh(a, b)
    assert report.dhat == ev(1) and report.dhat_attained
    assert tuple(report.methods) == METHOD_NAMES and report.classical is None
    assert dhat_gh(a, b, budget=10**6) == report
    for name in METHOD_NAMES:
        for budget in (None, 1):
            alone = dhat_gh(a, b, methods=(name,), budget=budget)
            assert alone.methods == {name: report.methods[name]}
    for budget in (None, 10**6):
        with pytest.raises(SearchSpaceTooLargeError, match="classical search cap"):
            dhat_gh(a, b, budget=budget, include_classical=True)


def test_report_json_fields(x3, ydelta):
    doc = dhat_gh(x3, ydelta).to_json_dict()
    assert set(doc) == {
        "dhat", "dhat_attained", "methods", "classical_dgh", "ratio",
        "spectra_lower_bound", "diameter_upper_bound", "agreement",
        "inexact", "witnesses",
    }
    assert doc["dhat"] == "3/2"
    assert doc["ratio"] == "6/1"
    assert doc["classical_dgh"] == "1/4"
    assert doc["agreement"] is True


def test_epsilon_net_subspace_bound(z4, x3):
    # an eps-net subspace is within eps of the original
    for space in (z4, x3):
        for eps in POOL:
            reps = ball_representatives(space, eps)
            sub = induced_subspace(space, reps)
            report = dhat_gh(space, sub, include_classical=False)
            assert report.dhat <= eps


@settings(max_examples=40, deadline=None)
@given(spaces, spaces)
def test_method_agreement_random(x, y):
    # The value is the infimum both reference searches give, walked as a
    # scan.
    report = dhat_gh(
        x, y,
        methods=("strong_correspondence", "isometry_scan", "approximation_scan"),
        include_classical=True,
    )
    for search in (isometry_search, approximation_search):
        assert _linear_scan(x, y, search).value == report.dhat
    assert report.spectra_lower_bound <= report.dhat <= report.diameter_upper_bound
    if report.classical_dgh is not None:
        assert report.classical_dgh * ExactValue(2) <= report.dhat


@settings(max_examples=30, deadline=None)
@given(spaces, spaces, st.integers(0, 3))
def test_thm_2_23_round_trip(x, y, eps_index):
    # The public function and the reference search find a strong
    # eps-isometry exactly when eps > dhat.
    eps = POOL[eps_index]
    report = dhat_gh(x, y, include_classical=False)
    for search in (exists_strong_epsilon_isometry, isometry_search):
        assert (search(x, y, eps) is not None) == (report.dhat < eps), search


@settings(max_examples=30, deadline=None)
@given(spaces, spaces, st.integers(0, 3))
def test_thm_3_5_round_trip(x, y, eps_index):
    # The public function and the reference search find a strong
    # eps-approximation exactly when eps > dhat.
    eps = POOL[eps_index]
    report = dhat_gh(x, y, include_classical=False)
    for search in (exists_strong_epsilon_approximation, approximation_search):
        assert (search(x, y, eps) is not None) == (report.dhat < eps), search


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_method_agreement_five_by_four(seed_a, seed_b):
    x = random_ultrametric(5, seed_a, POOL)
    y = random_ultrametric(4, seed_b, POOL)
    report = dhat_gh(
        x, y,
        methods=("strong_correspondence", "isometry_scan", "approximation_scan"),
        include_classical=False,
    )
    assert {o.value for o in report.methods.values()} == {report.dhat}
    assert min_distortion_strong_correspondence(x, y).distortion == report.dhat


@settings(max_examples=25, deadline=None)
@given(spaces, spaces)
def test_scan_direction_symmetry(x, y):
    # The reference isometry search, walked as a scan in both directions,
    # gives the report's value.
    fwd = _linear_scan(x, y, isometry_search).value
    bwd = _linear_scan(y, x, isometry_search).value
    assert fwd == bwd == dhat_gh(x, y, include_classical=False).dhat


@settings(max_examples=25, deadline=None)
@given(spaces, spaces, spaces)
def test_dhat_ultrametric_and_zero_iff_isometric(x, y, z):
    dxy = dhat_gh(x, y, include_classical=False).dhat
    dyz = dhat_gh(y, z, include_classical=False).dhat
    dxz = dhat_gh(x, z, include_classical=False).dhat
    assert dxz <= max(dxy, dyz)
    assert (dxy == ExactValue(0)) == isometry_exists(x, y)


def test_zero_distance_iff_relabel(x3):
    copy = validate_space(
        [[x3.dist(i, j) for j in range(3)] for i in range(3)], ["a", "b", "c"]
    )
    report = dhat_gh(x3, copy)
    assert report.dhat == ev(0)
    assert isometry_exists(x3, copy)


def test_one_breakpoint_grid_per_call(monkeypatch, x2, x3, z4, ydelta):
    # A relabelled copy of Z4 is isometric to it but not equal.
    z4_shuffled = validate_space(
        [[z4.dist(i, j) for j in (3, 1, 0, 2)] for i in (3, 1, 0, 2)])
    built = []
    init = BreakpointGrid.__init__

    def counting_init(self, x, y):
        built.append(1)
        init(self, x, y)

    monkeypatch.setattr(BreakpointGrid, "__init__", counting_init)

    # The classical search prunes on far masks alone and reads exact ranks
    # only through the distortion rank; the quotient witnesses are checked
    # from the class structure. Neither runs a verdict or a partner walk.
    refuse_relation_checks(monkeypatch, "dhat_gh", distortion=False)
    # Subset orders depend only on |Y|: with the memo emptied, each size
    # is built once, by the first search on it, and kept for every later
    # grid.
    monkeypatch.setattr(correspondences, "_ORDERS", {})
    order_sizes = []

    def counting_orders(m):
        order_sizes.append(m)
        return _subset_orders(m)

    monkeypatch.setattr(correspondences, "_subset_orders", counting_orders)
    far_cutoffs = []
    build_far = _FarMasks.__missing__

    def counting_far(far_masks, cutoff):
        # The entry keeps far_masks alive, so its id names one search.
        far_cutoffs.append((far_masks, cutoff))
        return build_far(far_masks, cutoff)

    monkeypatch.setattr(_FarMasks, "__missing__", counting_far)

    def each_built_once():
        keys = [(id(far_masks), cutoff) for far_masks, cutoff in far_cutoffs]
        return keys and len(set(keys)) == len(keys)

    # Equal diameters: the quotient route gives all three outcomes, and
    # each classical search builds each of its far tables once.
    for pair in ((x2, x3), (z4, z4_shuffled), (z4_shuffled, z4)):
        built.clear()
        far_cutoffs.clear()
        report = dhat_gh(*pair)
        assert set(report.methods) == set(METHOD_NAMES) and report.classical is not None
        assert len(built) == 1
        assert each_built_once()
        far_cutoffs.clear()
        assert classical_gh(*pair) == report.classical
        assert each_built_once()
    # Diameter gap within the classical cap: only the classical search.
    built.clear()
    report = dhat_gh(x3, ydelta)
    assert "shortcut_3b" in report.methods and report.classical is not None
    assert len(built) == 1
    # Three points a side, as x3: no order is built for it again.
    assert len(ydelta) == 3 and order_sizes == [3, 4]
    # Past twelve partner points each search builds its own orders, and
    # none is kept.
    wide = random_ultrametric(13, 0, POOL)
    for _ in range(2):
        classical_gh(x2, wide)
    assert order_sizes == [3, 4, 13, 13] and set(correspondences._ORDERS) == {3, 4}
    # Diameter gap with |X|*|Y| = 56 > 36: the certificate alone, no grid.
    built.clear()
    report = dhat_gh(truncated_unramified_ring(2, 1, 3), zq_delta(5, 2, 2))
    assert "shortcut_3b" in report.methods and report.classical is None
    assert len(built) == 0


def _linear_scan(x, y, probe):
    """A scan as a walk of probe, a public function or a reference search:
    at each threshold, the midpoint below it first, then the threshold
    itself."""
    grid = candidate_thresholds(x, y)
    for prev, t in zip(grid, grid[1:]):
        for eps, value, attained in ((prev.midpoint(t), prev, False), (t, t, True)):
            witness = probe(x, y, eps)
            if witness is not None:
                return MethodOutcome(value, attained, witness)
    raise AssertionError("no witness at the sentinel threshold")


@st.composite
def equal_diameter_pairs(draw):
    x = draw(spaces)
    m = 1 if len(x) == 1 else draw(st.integers(2, 4))
    return x, equal_diameter_partner(x, m, draw(st.integers(0, 20_000)), POOL)


@settings(max_examples=40, deadline=None)
@given(equal_diameter_pairs())
def test_one_probe_decides_each_cell(pair):
    # Both public probes give no witness at a cell's upper threshold exactly
    # when they give none at its midpoint, so the scan's one probe per cell
    # decides the whole cell (t_{k-1}, t_k].
    x, y = pair
    grid = candidate_thresholds(x, y)
    for prev, t in zip(grid, grid[1:]):
        mid = prev.midpoint(t)
        for probe in (exists_strong_epsilon_isometry, exists_strong_epsilon_approximation):
            assert (probe(x, y, t) is None) == (probe(x, y, mid) is None), (probe, t)


@settings(max_examples=40, deadline=None)
@given(equal_diameter_pairs())
def test_scan_probes_monotone_in_the_cell(pair):
    # A scan's infimum is the lower end of the first cell that holds
    # because of this: once a cell holds, every later cell holds, for both
    # reference searches.
    x, y = pair
    grid = candidate_thresholds(x, y)
    for search in (isometry_search, approximation_search):
        holds = [search(x, y, prev.midpoint(t)) is not None
                 for prev, t in zip(grid, grid[1:])]
        first = holds.index(True)
        assert all(holds[first:]), (search, holds)


@st.composite
def oracle_pairs(draw):
    """Pairs of 1-5 points a side with |X|*|Y| <= 12, four in five of them
    with equal diameters, and an order of the right space's points."""
    n = draw(st.integers(1, 5))
    x = random_ultrametric(n, draw(st.integers(0, 20_000)), POOL)
    seed = draw(st.integers(0, 20_000))
    if n == 1 or draw(st.integers(0, 4)):
        m = 1 if n == 1 else draw(st.integers(2, min(5, 12 // n)))
        y = equal_diameter_partner(x, m, seed, POOL)
    else:
        y = random_ultrametric(draw(st.integers(1, min(5, 12 // n))), seed, POOL)
    return x, y, draw(st.permutations(range(len(y))))


@settings(max_examples=100, deadline=None)
@given(oracle_pairs())
def test_quotient_rank_matches_oracle(pair):
    # The least t whose closed-ball quotients are isometric is the strong
    # minimum distortion, found here by unpruned enumeration. It does not
    # depend on the order of the points or of the two sides.
    x, y, order = pair
    relabelled = validate_space([[y.dist(i, j) for j in order] for i in order])
    strong_min = naive_correspondence_minima(x, y)[1]
    for a, b in ((x, y), (relabelled, x)):
        grid = BreakpointGrid(a, b)
        assert ExactValue(_certified_quotient(grid).height, grid.den) == strong_min


@st.composite
def walk_pairs(draw):
    """Pairs of 1-9 points a side, most with equal diameters and many in
    the hard case 0 < dhat < diameter, and an order of the right space's
    points. The right space is one of: a one-point space against a
    one-point left space; an equal-diameter random partner; a random space
    of any diameter; or a near copy of the left space (near_copy)."""
    kind = draw(st.integers(0, 9))
    n = 1 if kind == 9 else draw(st.integers(2, 9))
    x = random_ultrametric(n, draw(st.integers(0, 20_000)), POOL)
    seed = draw(st.integers(0, 20_000))
    levels = x.values[1:-1]
    if kind == 9:
        y = random_ultrametric(1, seed, POOL)
    elif kind == 8:
        y = random_ultrametric(draw(st.integers(1, 9)), seed, POOL)
    elif kind >= 6 or not levels:
        y = equal_diameter_partner(x, draw(st.integers(2, 9)), seed, POOL)
    else:
        y = near_copy(draw, x, POOL)
    return x, y, draw(st.permutations(range(len(y))))


@settings(max_examples=300, deadline=None)
@given(walk_pairs())
def test_quotient_rank_matches_recursive_cut_forms(pair):
    # The walk over the dendrograms kept from validation certifies the
    # rank the recursive cut forms of the rank matrices give, with the
    # right space relabelled and with the sides swapped.
    x, y, order = pair
    relabelled = validate_space([[y.dist(i, j) for j in order] for i in order])
    for a, b in ((x, y), (x, relabelled), (y, x)):
        grid = BreakpointGrid(a, b)
        assert _certified_quotient(grid).height == quotient_int_by_recursion(grid)


def test_quotient_rank_on_1100_point_caterpillars():
    # Both dendrograms are over 1,000 levels deep; the walk has no
    # recursion to overflow. The quotients differ at 0 and agree at 1,
    # the grid int 1 over the denominator 1 of the caterpillars' int
    # distances.
    grid = BreakpointGrid(caterpillar(1100), caterpillar(1100, split_bottom=True))
    assert (_certified_quotient(grid).height, grid.den) == (1, 1)


def test_dhat_on_a_500_point_caterpillar():
    # The quotient route walks the 499-level dendrogram, which a recursive
    # walk would overflow the stack on.
    x = caterpillar(500)
    report = dhat_gh(x, x, methods=["approximation_scan"])
    assert report.dhat == ZERO
    assert report.methods["approximation_scan"].value == ZERO


@st.composite
def default_path_pairs(draw):
    """Equal-diameter pairs with |X|*|Y| <= 36, most of them in the hard
    case 0 < dhat < diameter, the sides swapped in half the draws. The
    right space is one of: a one-point space against a one-point left
    space; a relabelled copy of the left space (dhat = 0); an
    equal-diameter random partner; or, in five draws of eight, a near copy
    (near_copy) of a left space of 3-6 points with at least two distinct
    distances."""
    kind = draw(st.integers(0, 7))
    seed = draw(st.integers(0, 20_000))
    if kind == 0:
        x, y = (random_ultrametric(1, s, POOL) for s in (seed, seed + 1))
    elif kind <= 2:
        x = random_ultrametric(draw(st.integers(2, 6)), seed, POOL)
        if kind == 1:
            order = draw(st.permutations(range(len(x))))
            y = validate_space([[x.dist(i, j) for j in order] for i in order])
        else:
            m = draw(st.integers(2, min(6, 36 // len(x))))
            y = equal_diameter_partner(x, m, draw(st.integers(0, 20_000)), POOL)
    else:
        n = draw(st.integers(3, 6))
        x = next(x for x in (random_ultrametric(n, s, POOL) for s in count(seed))
                 if len(x.values) > 2)
        y = near_copy(draw, x, POOL)
    return (y, x) if draw(st.booleans()) else (x, y)


def _public_outcome(x, y, name):
    """The outcome of the route name as an independent search gives it: the
    reference strong search, or a reference search walked as a scan."""
    if name == "strong_correspondence":
        res = strong_correspondence_search(x, y)
        assert res.optimal
        return MethodOutcome(res.distortion, True, res.correspondence)
    if name == "isometry_scan":
        return _linear_scan(x, y, isometry_search)
    return _linear_scan(x, y, approximation_search)


@settings(max_examples=200, deadline=None)
@given(default_path_pairs())
@example((truncated_unramified_ring(2, 1, 1), truncated_unramified_ring(2, 1, 1)))
def test_routes_match_public_functions(pair):
    # The report answers from one greedy quotient isometry; each of its
    # outcomes, witness included, is the one an independent search gives
    # (_public_outcome), the routes shown are the ones inside the caps,
    # and the classical result is classical_gh's.
    x, y = pair
    report = dhat_gh(x, y)
    names = engine._auto_methods(len(x) * len(y), EngineCaps())
    assert tuple(report.methods) == names
    assert report.methods == {name: _public_outcome(x, y, name) for name in names}
    assert report.classical == classical_gh(x, y)


@settings(max_examples=200, deadline=None)
@given(default_path_pairs())
@example((truncated_unramified_ring(2, 1, 1), truncated_unramified_ring(2, 1, 1)))
def test_default_path_matches_each_route(pair):
    # The default call answers from one greedy quotient isometry; each of
    # its outcomes, witness included, is the one the route gives when asked
    # for alone, and the routes shown are the ones inside the caps.
    x, y = pair
    report = dhat_gh(x, y)
    names = engine._auto_methods(len(x) * len(y), EngineCaps())
    assert tuple(report.methods) == names
    for name in names:
        alone = dhat_gh(x, y, methods=[name], include_classical=False)
        assert alone.methods == {name: report.methods[name]}


# Side sizes whose products lie on both sides of the isometry cap, 20, and
# the approximation cap, 36: 16, 20, 21, 25, 36, 40 and 42.
CAP_SIZES = [(4, 4), (4, 5), (3, 7), (5, 5), (6, 6), (5, 8), (7, 6)]


@st.composite
def cap_straddling_pairs(draw):
    """Equal-diameter pairs of the sizes CAP_SIZES lists, the sides
    swapped in half the draws."""
    n, m = draw(st.sampled_from(CAP_SIZES))
    x = random_ultrametric(n, draw(st.integers(0, 20_000)), POOL)
    y = equal_diameter_partner(x, m, draw(st.integers(0, 20_000)), POOL)
    return (y, x) if draw(st.booleans()) else (x, y)


@settings(max_examples=60, deadline=None)
@given(cap_straddling_pairs())
def test_default_outcomes_are_those_of_the_full_report(pair):
    # A default report builds only the outcomes it shows; each is the one
    # a report naming all three routes gives, in value, attained and
    # witness.
    x, y = pair
    report = dhat_gh(x, y)
    full = dhat_gh(x, y, methods=METHOD_NAMES, include_classical=False)
    assert tuple(report.methods) == (
        engine._auto_methods(len(x) * len(y), EngineCaps()) or METHOD_NAMES)
    for name, outcome in report.methods.items():
        other = full.methods[name]
        assert (outcome.value, outcome.attained) == (other.value, other.attained)
        assert outcome.witness == other.witness


def test_default_dhat_on_500_point_caterpillars(monkeypatch):
    # Far beyond every cap a call still returns all three outcomes, read
    # off the two chains 499 levels deep with no recursion and no check of
    # a relation (no verdict, partner walk or distortion over pairs of
    # pairs), and so does min_distortion_strong_correspondence. The
    # quotients differ at 0 and agree at 1.
    x, y = caterpillar(500), caterpillar(500, split_bottom=True)
    refuse_relation_checks(monkeypatch, "the default path", distortion=True)
    report = dhat_gh(x, y)
    assert x.diameter() == ExactValue(499)
    assert report.dhat == ExactValue(1) and report.dhat_attained
    assert tuple(report.methods) == METHOD_NAMES and report.classical is None
    approx = report.methods["approximation_scan"].witness
    assert approx.xs == ball_representatives(x, approx.epsilon)
    assert report.methods["isometry_scan"].witness.failure is None
    # Asked for by name, with a budget, the isometry scan is the same
    # quotient outcome, still with no relation check.
    alone = dhat_gh(x, y, methods=["isometry_scan"], budget=1)
    assert alone.methods == {"isometry_scan": report.methods["isometry_scan"]}
    # The public strong minimum is the report's strong outcome, found by
    # no search, whatever the size.
    strong = min_distortion_strong_correspondence(x, y)
    assert strong.correspondence == report.methods["strong_correspondence"].witness
    assert strong.distortion == ExactValue(1) and strong.optimal and strong.nodes == 0


def test_ratio_refuses_caterpillars_beyond_the_classical_cap():
    # The ratio needs the classical search, whose tables grow
    # exponentially; beyond its cap the call refuses before any work,
    # budgeted or not, on equal diameters or across a diameter gap
    # (19 against 18), instead of running it.
    pairs = ((caterpillar(30), caterpillar(30, split_bottom=True)),
             (caterpillar(20), caterpillar(19)))
    for x, y in pairs:
        for budget in None, 1:
            with pytest.raises(SearchSpaceTooLargeError, match="classical search cap"):
                metric_ratio(x, y, budget=budget)


def test_default_witnesses_pass_the_public_checks_at_64_points():
    # Each of the three witnesses of a default call beyond the caps passes
    # the public check of its kind.
    x, y = caterpillar(64), caterpillar(64, split_bottom=True)
    report = dhat_gh(x, y)
    strong, iso, approx = (report.methods[name] for name in METHOD_NAMES)
    assert report.dhat == strong.value == iso.value == approx.value == ExactValue(1)
    verdict = is_strong_correspondence(strong.witness)
    assert verdict.is_strong and verdict.distortion == ExactValue(1)
    w = iso.witness
    assert is_strong_epsilon_isometry(x, y, w.images, w.epsilon) == w
    a = approx.witness
    assert is_strong_epsilon_approximation(x, y, a.epsilon, a).valid


def test_dhat_computes_hint_and_floor_once(monkeypatch):
    # On this pair the classical floor pass misses and the search restarts
    # at the quotient value, which dhat_gh hands to it as a grid int: one
    # quotient walk and one merge-height floor per call.
    x, y = hard_pair(35)
    quotient, floor = engine._certified_quotient, BreakpointGrid.distortion_floor
    calls = []

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call

    monkeypatch.setattr(engine, "_certified_quotient", counted("quotient", quotient))
    monkeypatch.setattr(BreakpointGrid, "distortion_floor", counted("floor", floor))
    report = dhat_gh(x, y)
    assert report.classical.optimal
    assert sorted(calls) == ["floor", "quotient"]


def hard_pair(seed):
    """An equal-diameter pair of 4 points a side with 0 < dhat < diameter."""
    x = random_ultrametric(4, seed, POOL)
    y = equal_diameter_partner(x, 4, 1000 + seed, POOL)
    assert ExactValue(0) < dhat_gh(x, y).dhat < x.diameter()
    return x, y


def test_no_cut_is_compared_twice(monkeypatch):
    # One default call compares the cut below the walk's start, then each
    # cut from the start up to the value, each once, and no other cut: the
    # classical search gets the value as a grid int and walks nothing. On the
    # third pair the value lies above the walk's first cut, so the walk
    # also compares a cut whose quotients differ on its way.
    true_roots = isometries._equal_roots
    compared = []

    def counted(grid, c):
        compared.append(c)
        return true_roots(grid, c)

    monkeypatch.setattr(isometries, "_equal_roots", counted)
    for seed in (12, 35, 109):
        x, y = hard_pair(seed)
        grid = BreakpointGrid(x, y)
        cuts = sorted({*grid.wx, *grid.wy})
        value = grid_int(grid, dhat_gh(x, y).dhat)
        # The walk starts at the larger of the spectra bound and the
        # merge-height floor, both grid ints.
        start = max(grid_int(grid, spectra_lower_bound(x, y)), grid.floor)
        below = bisect_left(cuts, start) - 1
        walked = [c for c in cuts[max(below, 0):] if c <= value]
        if seed == 109:
            assert cuts.index(value) > below + 1
        compared.clear()
        report = dhat_gh(x, y)
        assert report.classical.optimal
        assert compared == walked, seed


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("methods", [(name,) for name in METHOD_NAMES] + [None])
def test_quotient_hint_is_checked_not_trusted(monkeypatch, shift, methods):
    # Under the true lower bounds a budgeted call returns the unbudgeted
    # report. The walk trusts neither its start nor a root comparison:
    # with the spectra bound one cut above the value (shift 1) the lower
    # certificate raises, and with both bounds at 0 and equal roots
    # reported one cut below the value (shift -1) the matching's checks
    # raise, whichever routes the call names.
    pairs = [hard_pair(seed) for seed in (12, 35)]
    expected = [dhat_gh(x, y, methods=methods) for x, y in pairs]
    for (x, y), report in zip(pairs, expected):
        assert dhat_gh(x, y, methods=methods, budget=10**6) == report
    if shift == 1:
        inject_start_above_the_value(monkeypatch, pairs)
    else:
        inject_equal_roots_below_the_value(monkeypatch, pairs)
    for x, y in pairs:
        with pytest.raises(MethodDisagreementError):
            dhat_gh(x, y, methods=methods)


def true_values(pairs):
    """dhat of each pair, keyed by the pair, found before a fault is
    injected."""
    return {(x, y): dhat_gh(x, y, include_classical=False).dhat for x, y in pairs}


def inject_start_above_the_value(monkeypatch, pairs):
    """Make the spectra bound the walk reads, on each of pairs, the least
    value of {0} ∪ W_X ∪ W_Y above dhat."""
    dhat = true_values(pairs)
    monkeypatch.setattr(isometries, "spectra_lower_bound", lambda x, y: min(
        v for v in (*x.values, *y.values) if v > dhat[x, y]))


def inject_equal_roots_below_the_value(monkeypatch, pairs):
    """Start the walk at 0, with the spectra bound and the merge-height
    floor both 0, and make _equal_roots report equal roots, with the true
    cut forms, one cut below dhat on each of pairs."""
    dhat = true_values(pairs)
    true_roots = isometries._equal_roots

    def early(grid, c):
        value = grid_int(grid, dhat[grid.x, grid.y])
        if c == max(r for r in {*grid.wx, *grid.wy} if r < value):
            ids = {}
            return (isometries._cut_ids(grid.x, grid.wx, c, ids),
                    isometries._cut_ids(grid.y, grid.wy, c, ids))
        return true_roots(grid, c)

    monkeypatch.setattr(isometries, "_equal_roots", early)
    monkeypatch.setattr(isometries, "spectra_lower_bound", lambda x, y: ZERO)
    monkeypatch.setattr(BreakpointGrid, "distortion_floor", lambda grid: 0)


def test_lower_certificate_refuses_the_next_threshold(monkeypatch):
    # With the walk started at the next value of {0} ∪ W_X ∪ W_Y above
    # the true one, the quotients there are still isometric and the
    # largest class diameter is that value, so every witness check would
    # pass; only the lower certificate, the quotients compared at the cut
    # below the start, refuses it.
    pairs = [hard_pair(seed) for seed in (12, 35)]
    inject_start_above_the_value(monkeypatch, pairs)
    for x, y in pairs:
        with pytest.raises(MethodDisagreementError, match="isometric at"):
            dhat_gh(x, y)


def test_seeded_classical_search_below_its_minimum_raises():
    for seed in (12, 35):
        x, y = hard_pair(seed)
        grid = BreakpointGrid(x, y)
        res = _search(grid, None, 36)
        scaled = grid_int(grid, res.distortion)
        seeded = _search(grid, None, 36, scaled)
        assert (seeded.correspondence, seeded.distortion) == (res.correspondence, res.distortion)
        # Seeded at the grid value just below the minimum.
        below = max(k for row in grid._gap for k in row if k < scaled)
        with pytest.raises(MethodDisagreementError, match="starting bound"):
            _search(grid, None, 36, below)


def test_classical_floor_pass_falls_back_below_the_minimum(monkeypatch):
    # This pair's merge-height floor, 1/4, lies below its minimum
    # distortion, 1/2, so an unbudgeted call's floor pass accepts no leaf
    # and the search runs again seeded at the quotient value, in
    # classical_gh and dhat_gh alike: two classical searches, where a
    # budgeted call makes one unseeded, and the plain search's value and
    # witness.
    x, y = hard_pair(35)
    grid = BreakpointGrid(x, y)
    res = min_distortion_correspondence(x, y)
    floor, quotient = grid.distortion_floor(), _certified_quotient(grid).height
    assert ExactValue(floor, grid.den) < res.distortion
    calls = []

    def spy(grid, budget, product_cap, start=None):
        calls.append(start)
        return _search(grid, budget, product_cap, start)

    monkeypatch.setattr(engine, "_search", spy)
    for budget, starts in ((None, [floor, quotient]), (10**6, [None])):
        calls.clear()
        result = classical_gh(x, y, budget)
        assert result.optimal and calls == starts
        assert (result.value * 2, result.witness) == (res.distortion, res.correspondence)
    calls.clear()
    report = dhat_gh(x, y)
    assert calls == [floor, quotient]
    assert report.classical == classical_gh(x, y)


def test_classical_computes_its_floor_once(monkeypatch):
    # classical_gh computes the merge-height floor once and hands it to
    # every search it runs and to the quotient restart: budgeted, seeded
    # at a floor that a leaf reaches, and seeded at a floor below the
    # minimum, where the search runs twice.
    calls = []
    floor = BreakpointGrid.distortion_floor

    def counting_floor(grid):
        calls.append(1)
        return floor(grid)

    monkeypatch.setattr(BreakpointGrid, "distortion_floor", counting_floor)
    restart = hard_pair(35)
    for x, y in (restart, (restart[0], restart[0]), (random_ultrametric(3, 1, POOL),
                                                      random_ultrametric(4, 2, POOL))):
        for budget in (None, 10**6, 2):
            calls.clear()
            classical_gh(x, y, budget)
            assert len(calls) == 1


def test_validated_spaces_are_never_written(z4, x2):
    # Every slot of a validated space, its merge heights included, is made
    # with the space: after every route and check has run on it, each slot
    # holds the object it held right after validation, with equal
    # contents. The pairs: rings that split at 3/4, and an equal-diameter
    # random pair with 0 < dhat < diameter, which has no split at 1/4.
    for x, y, split_eps in ((z4, x2, ev("3/4")), (*hard_pair(35), ev("1/4"))):
        names = UltrametricSpace.__slots__
        held = [[getattr(s, name) for name in names] for s in (x, y)]
        contents = copy.deepcopy(held)
        report = dhat_gh(x, y)
        eps = report.dhat + ExactValue(1, 8)
        classical_gh(x, y)
        iso = exists_strong_epsilon_isometry(x, y, eps)
        assert exists_strong_epsilon_approximation(x, y, eps) is not None
        assert (find_split(x, y, split_eps) is None) == (x is not z4)
        is_strong_correspondence(report.methods["strong_correspondence"].witness)
        assert is_strong_epsilon_isometry(x, y, iso.images, eps).is_strong_eps_isometry
        assert [[getattr(s, name) for name in names] for s in (x, y)] == contents
        for s, objects in zip((x, y), held):
            for name, obj in zip(names, objects):
                assert getattr(s, name) is obj, name


def test_pair_grids_are_never_written(monkeypatch, z4, x2):
    # Every slot of a BreakpointGrid is set when it is built, and the
    # classical search keeps its far masks to itself: after each call, every
    # slot of every grid the call built holds the object it held right
    # after __init__, with equal contents. The pairs: rings with a diameter
    # gap, the README pair, and an equal-diameter pair whose floor lies
    # below its minimum, where the unbudgeted search runs twice.
    grids = []
    init = BreakpointGrid.__init__
    names = BreakpointGrid.__slots__

    def recording_init(self, x, y):
        init(self, x, y)
        held = [getattr(self, name) for name in names]
        grids.append((self, held, copy.deepcopy(held, {id(x): x, id(y): y})))

    monkeypatch.setattr(BreakpointGrid, "__init__", recording_init)
    readme = truncated_unramified_ring(3, 1, 1), zq_delta(3, 2, 1)
    for x, y in ((z4, x2), readme, hard_pair(35)):
        for call in (lambda: dhat_gh(x, y), lambda: classical_gh(x, y),
                     lambda: classical_gh(x, y, 2), lambda: classical_gh(x, y, 10**6),
                     lambda: min_distortion_correspondence(x, y)):
            grids.clear()
            call()
            assert grids
            for grid, held, contents in grids:
                assert [getattr(grid, name) for name in names] == contents
                for name, obj in zip(names, held):
                    assert getattr(grid, name) is obj, name
    assert names == ("x", "y", "den", "wx", "wy", "floor", "_gap")
