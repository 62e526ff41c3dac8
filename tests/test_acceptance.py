"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is an exact rational, so all comparisons are
equality, no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from ultragh import (
    ExactValue,
    classical_gh,
    dhat_gh,
    diameter_trend,
    find_split,
    full_product,
    glue_along_strong_correspondence,
    glue_with_constant_bridge,
    hausdorff_distance,
    is_strong_correspondence,
    min_distortion_correspondence,
    min_distortion_strong_correspondence,
    random_ultrametric,
    replay_split,
    truncated_scaled_ball,
    truncated_unramified_ring,
    validate_space,
    zq_delta,
)
from ultragh.errors import BridgeTooSmallError

from conftest import ev
from oracles import isometry_exists, naive_correspondence_minima

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]
SINGLETON = validate_space([[ExactValue(0)]], ["p"])


def _report_line(name, ok):
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    assert ok


# ---------------------------------------------------------------------------
# Shared random-pair suite (criteria 4, 5, 10 draw from the same 200 pairs).

class SuiteEntry:
    def __init__(self, x, y, naive_plain, naive_strong, strong_search, plain_search, report):
        self.x = x
        self.y = y
        self.naive_plain = naive_plain
        self.naive_strong = naive_strong
        self.strong_search = strong_search
        self.plain_search = plain_search
        self.report = report


@pytest.fixture(scope="module")
def oracle_suite():
    rng = random.Random(20250808)
    entries = []
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        x = random_ultrametric(n, rng.randint(0, 10**6), POOL)
        y = random_ultrametric(m, rng.randint(0, 10**6), POOL)
        naive_plain, naive_strong = naive_correspondence_minima(x, y)
        strong = min_distortion_strong_correspondence(x, y)
        plain = min_distortion_correspondence(x, y)
        report = dhat_gh(
            x, y,
            methods=("strong_correspondence", "isometry_scan", "approximation_scan"),
            include_classical=True,
        )
        entries.append(SuiteEntry(x, y, naive_plain, naive_strong, strong, plain, report))
    return entries


@pytest.fixture(scope="module")
def headline_pairs():
    """Every pair exercised by criteria 1-3, with its computed report."""
    pairs = []
    for k, j in ((1, 1), (2, 1), (2, 2)):
        pairs.append((truncated_unramified_ring(2, 1, k), truncated_unramified_ring(3, 1, j)))
    pairs.append((truncated_unramified_ring(2, 1, 2), truncated_unramified_ring(5, 1, 1)))
    pairs.append((truncated_scaled_ball(2, 1, 1, 1), truncated_scaled_ball(3, 1, 1, 1)))
    pairs.append((truncated_scaled_ball(3, 1, 1, 1), truncated_scaled_ball(5, 1, 1, 1)))
    for p, q in ((3, 2), (5, 2), (5, 3)):
        pairs.append((truncated_unramified_ring(p, 1, 1), zq_delta(p, q, 1)))
    return [(x, y, dhat_gh(x, y)) for x, y in pairs]


def test_criterion_1_unit_ring_distance():
    cases = [
        (truncated_unramified_ring(2, 1, 1), truncated_unramified_ring(3, 1, 1)),
        (truncated_unramified_ring(2, 1, 2), truncated_unramified_ring(3, 1, 1)),
        (truncated_unramified_ring(2, 1, 2), truncated_unramified_ring(3, 1, 2)),
        (truncated_unramified_ring(2, 1, 2), truncated_unramified_ring(5, 1, 1)),
    ]
    for x, y in cases:
        start = time.monotonic()
        report = dhat_gh(x, y)
        elapsed = time.monotonic() - start
        assert report.dhat == ev(1), (len(x), len(y))
        assert report.agreement
        assert len(report.methods) >= 1
        assert elapsed < 10.0, f"{len(x)}x{len(y)} took {elapsed:.1f}s"
    _report_line("criterion 1: unit distance between distinct-prime rings", True)


def test_criterion_2_scaled_balls():
    r = dhat_gh(truncated_scaled_ball(2, 1, 1, 1), truncated_scaled_ball(3, 1, 1, 1))
    assert r.dhat == ev("1/2")
    assert "shortcut_3b" in r.methods
    assert "strong_correspondence" in r.methods  # the full-product witness
    r2 = dhat_gh(truncated_scaled_ball(3, 1, 1, 1), truncated_scaled_ball(5, 1, 1, 1))
    assert r2.dhat == ev("1/3")
    _report_line("criterion 2: scaled-ball distances max(1/2,1/3) and 1/3", True)


def test_criterion_3_ratio_values():
    expected = {
        (3, 2): (ev("3/2"), ev("1/4"), ev(6)),
        (5, 2): (ev("3/2"), ev("1/4"), ev(6)),
        (5, 3): (ev("4/3"), ev("1/6"), ev(8)),
    }
    for (p, q), (want_dhat, want_dgh, want_ratio) in expected.items():
        ring = truncated_unramified_ring(p, 1, 1)
        delta = zq_delta(p, q, 1)
        start = time.monotonic()
        report = dhat_gh(ring, delta, include_classical=True)
        elapsed = time.monotonic() - start
        assert report.dhat == want_dhat, (p, q)
        assert report.classical_dgh == want_dgh, (p, q)
        assert report.ratio == want_ratio, (p, q)
        assert want_ratio == ev(2 * q + 2)
        assert elapsed < 30.0, f"(p={p}, q={q}) took {elapsed:.1f}s"
    _report_line("criterion 3: ratio 2q+2 with exact dhat and d_GH", True)


def test_criterion_4_oracle_equivalence(oracle_suite):
    assert len(oracle_suite) >= 200
    disagreements = 0
    for e in oracle_suite:
        if e.strong_search.distortion.fraction != e.naive_strong:
            disagreements += 1
        if e.plain_search.distortion.fraction != e.naive_plain:
            disagreements += 1
        values = {o.value for o in e.report.methods.values()}
        if values != {e.strong_search.distortion}:
            disagreements += 1
    assert disagreements == 0
    _report_line(
        f"criterion 4: {len(oracle_suite)} random pairs, searches and scans "
        "match the unpruned oracle", disagreements == 0,
    )


def test_criterion_5_inequality_battery(oracle_suite, headline_pairs):
    checked = 0
    violations = 0

    def battery(x, y, report):
        nonlocal checked, violations
        checked += 1
        diam_max = max(x.diameter(), y.diameter())
        if not (report.spectra_lower_bound <= report.dhat <= diam_max):
            violations += 1
        if report.classical_dgh is not None:
            if report.classical_dgh * ExactValue(2) > report.dhat:
                violations += 1
        if x.diameter() != y.diameter() and report.dhat != diam_max:
            violations += 1

    for x, y, report in headline_pairs:
        battery(x, y, report)
    for e in oracle_suite:
        battery(e.x, e.y, e.report)
    assert violations == 0
    _report_line(
        f"criterion 5: sandwich and doubling inequalities on {checked} pairs",
        violations == 0,
    )


def test_criterion_6_empirical_ultrametricity():
    rng = random.Random(77)
    triples = 0
    for _ in range(100):
        spaces = [
            random_ultrametric(rng.randint(1, 4), rng.randint(0, 10**6), POOL)
            for _ in range(3)
        ]
        x, y, z = spaces
        dxy = dhat_gh(x, y, include_classical=False).dhat
        dyz = dhat_gh(y, z, include_classical=False).dhat
        dxz = dhat_gh(x, z, include_classical=False).dhat
        assert dxz <= max(dxy, dyz)
        assert (dxy == ExactValue(0)) == isometry_exists(x, y)
        triples += 1
    _report_line(
        f"criterion 6: strong triangle inequality and zero-iff-isometric on "
        f"{triples} random triples", True,
    )


def test_criterion_7_point_distance():
    rng = random.Random(99)
    count = 0
    for _ in range(50):
        x = random_ultrametric(rng.randint(1, 5), rng.randint(0, 10**6), POOL)
        report = dhat_gh(x, SINGLETON, include_classical=True)
        assert report.dhat == x.diameter()
        assert report.classical_dgh * ExactValue(2) == report.dhat
        count += 1
    _report_line(
        f"criterion 7: distance to a point equals the diameter on {count} spaces",
        True,
    )


def test_criterion_8_nested_truncations():
    for n in range(2, 5):
        for m in range(1, n):
            a = truncated_unramified_ring(2, 1, n, size_cap=16)
            b = truncated_unramified_ring(2, 1, m, size_cap=16)
            report = dhat_gh(
                a, b, methods=("approximation_scan",), include_classical=False
            )
            assert report.dhat == ExactValue(Fraction(1, 2 ** m)), (n, m)
    sequence = [truncated_unramified_ring(2, 1, n, size_cap=16) for n in range(1, 5)]
    trend = diameter_trend(sequence)
    assert trend.classification == "constant"
    assert all(d == ev(1) for d in trend.diameters)
    _report_line("criterion 8: nested-truncation law 2^-min(n,m) and constant diameters", True)


def test_criterion_9_split_finder():
    z4 = truncated_unramified_ring(2, 1, 2)
    x2 = truncated_unramified_ring(2, 1, 1)
    split = find_split(z4, x2, ev("3/4"))
    assert split is not None
    assert split.classes == ((0, 2), (1, 3))
    assert split.pairwise_class_distances[0][1] == ev(1)
    assert replay_split(z4, x2, ev("3/4"), split)

    big = truncated_unramified_ring(3, 1, 2)
    small = truncated_unramified_ring(3, 1, 1)
    split = find_split(big, small, ev("1/2"))
    assert split is not None
    assert split.classes == ((0, 3, 6), (1, 4, 7), (2, 5, 8))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert split.pairwise_class_distances[i][j] == ev(1)
    assert replay_split(big, small, ev("1/2"), split)
    _report_line("criterion 9: split finder reproduces the digit partitions", True)


def test_criterion_10_glue_constructions(oracle_suite):
    glued = 0
    for e in oracle_suite:
        result = glue_along_strong_correspondence(e.strong_search.correspondence)
        # glue validated internally; check the Hausdorff bound explicitly
        dh = hausdorff_distance(
            result.glued_space,
            set(result.left_embedding),
            set(result.right_embedding),
        )
        assert dh <= e.strong_search.distortion
        glued += 1

        c = max(e.x.diameter(), e.y.diameter())
        if c > ExactValue(0):
            bridge = glue_with_constant_bridge(e.x, e.y, c)
            assert len(bridge.glued_space) == len(e.x) + len(e.y)
        else:
            with pytest.raises(BridgeTooSmallError):
                glue_with_constant_bridge(e.x, e.y, c)
    _report_line(
        f"criterion 10: glue constructions validate on {glued} searched witnesses",
        True,
    )
