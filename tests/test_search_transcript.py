"""Pinned transcripts of the correspondence searches over seeded pairs.

dhat_gh drops a search's node count, so tests/test_transcript.py cannot see
a change in how a search walks its tree. Here every pair runs the public
plain search and the reference strong search (the library's strong
search before min_distortion_strong_correspondence read its answer off the
quotient matching) without a budget and with a small one, and each
result's distortion, pairs, optimality flag and node count go into one
sha256.
A second sha256 covers classical_gh on the same pairs and budgets: its
interval, optimality flag and witness pairs, which a change to how the
classical search is started must leave as they are.
A third covers both public searches on wide shapes the first two never
reach, 2x7 to 2x18, 3x7 to 3x12 and 7x3 to 12x3, where a side holds more
partner subsets than any 2-6 point space has.
"""

import hashlib
import random

from ultragh import (
    ExactValue,
    classical_gh,
    min_distortion_correspondence,
    random_ultrametric,
)

from conftest import equal_diameter_partner
from oracles import strong_correspondence_search

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]

SEARCHES = (min_distortion_correspondence, strong_correspondence_search)
BUDGETS = (None, 25)

EXPECTED = "8e190bdfee5b15411e50b38e3cea3b9673133b78ec33a781f8b974494130f8e1"
EXPECTED_CLASSICAL = "af526e5189dbc7b10bb78639c63eef60311d3f3012117de318cbcfff77f1278d"
EXPECTED_WIDE = "3d5dcebcdd1335d3886d4aab467c768d1935e854c716cf2c6980439a01d6a9f8"

WIDE_SHAPES = (*((2, m) for m in range(7, 15)), *((3, m) for m in range(7, 13)),
               *((n, 3) for n in range(7, 13)))


def search_pairs(count=200, seed=20_261_018):
    """count seeded pairs of 2-6 points a side with |X|*|Y| <= 36, about
    four in five of them with equal diameters."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 6)
        m = rng.randint(2, 6)
        x = random_ultrametric(n, rng.randrange(100_000), POOL)
        if rng.random() < 0.8:
            y = equal_diameter_partner(x, m, rng.randrange(100_000), POOL)
        else:
            y = random_ultrametric(m, rng.randrange(100_000), POOL)
        yield x, y


def wide_pairs(seed=20_261_020):
    """Two seeded pairs of each of WIDE_SHAPES, then one 2x18 pair, drawn
    as search_pairs draws them."""
    rng = random.Random(seed)
    for n, m in (*(shape for shape in WIDE_SHAPES for _ in range(2)), (2, 18)):
        x = random_ultrametric(n, rng.randrange(100_000), POOL)
        if rng.random() < 0.8:
            y = equal_diameter_partner(x, m, rng.randrange(100_000), POOL)
        else:
            y = random_ultrametric(m, rng.randrange(100_000), POOL)
        yield x, y


def search_digest():
    digest = hashlib.sha256()
    for x, y in search_pairs():
        for search in SEARCHES:
            for budget in BUDGETS:
                res = search(x, y, budget)
                line = (f"{res.distortion.token()} {res.correspondence.pairs} "
                        f"{res.optimal} {res.nodes}\n")
                digest.update(line.encode())
    return digest.hexdigest()


def test_search_digest():
    assert search_digest() == EXPECTED


def classical_digest():
    digest = hashlib.sha256()
    for x, y in search_pairs():
        for budget in BUDGETS:
            res = classical_gh(x, y, budget)
            line = (f"{res.lower.token()} {res.upper.token()} {res.optimal} "
                    f"{res.witness.pairs}\n")
            digest.update(line.encode())
    return digest.hexdigest()


def test_classical_digest():
    assert classical_digest() == EXPECTED_CLASSICAL


def wide_digest():
    digest = hashlib.sha256()
    for x, y in wide_pairs():
        cap = len(x) * len(y)
        for budget in BUDGETS:
            res = min_distortion_correspondence(x, y, budget, product_cap=cap)
            cl = classical_gh(x, y, budget, product_cap=cap)
            digest.update((f"{res.distortion.token()} {res.correspondence.pairs} "
                           f"{res.optimal} {res.nodes}\n"
                           f"{cl.lower.token()} {cl.upper.token()} {cl.optimal} "
                           f"{cl.witness.pairs}\n").encode())
    return digest.hexdigest()


def test_wide_digest():
    assert wide_digest() == EXPECTED_WIDE
