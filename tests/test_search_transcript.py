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
