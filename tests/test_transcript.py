"""Pinned transcripts of dhat_gh over a seeded set of random pairs.

Each pair runs under four argument sets, and every report's JSON form, or
the type and message of the exception it raised, goes into a sha256.
Values, witnesses, tie-breaks, attainment flags and budget behaviour all
feed a digest, so a change to any of them on any pair fails this test.
One digest covers the unbudgeted argument sets, the other the budgeted
ones, where a budget bounds only the classical search.
"""

import hashlib
import json
import random

from ultragh import ExactValue, dhat_gh, random_ultrametric

from conftest import equal_diameter_partner

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]

UNBUDGETED = (
    {},
    {"methods": ("isometry_scan", "approximation_scan")},
)

BUDGETED = (
    {"methods": ("strong_correspondence",), "budget": 50},
    {"budget": 3},
)

EXPECTED_UNBUDGETED = "902bc713f112551852f8efc08328612cdeb59f7d973090fae70f588e3161837b"
# Under {"budget": 3}, 73 searches run out before their first leaf on a
# pair whose full product's distortion is the merge-height floor. Those
# reports give classical_dgh and ratio, the full product proven optimal,
# where they once gave null; nothing else in the transcript differs.
EXPECTED_BUDGETED = "7769e309fdf61c581c85a8e5244b8d333f320b3e22a4c8ee1ebd2204559ebbe7"


def transcript_pairs(count=300, seed=20_260_418):
    """count seeded pairs of 1-6 points a side with |X|*|Y| <= 36, about
    four in five of them with equal diameters."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        x = random_ultrametric(n, rng.randrange(100_000), POOL)
        if n == 1:
            m = 1 if rng.random() < 0.8 else rng.randint(2, 6)
        else:
            m = rng.randint(2, 6)
        if m == 1 or (n > 1 and rng.random() < 0.8):
            y = equal_diameter_partner(x, m, rng.randrange(100_000), POOL)
        else:
            y = random_ultrametric(m, rng.randrange(100_000), POOL)
        yield x, y


def outcome(x, y, kwargs):
    try:
        doc = dhat_gh(x, y, **kwargs).to_json_dict()
    except Exception as exc:  # the exception is part of the transcript
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(doc, sort_keys=True)


def transcript_digest(argument_sets):
    digest = hashlib.sha256()
    for x, y in transcript_pairs():
        for kwargs in argument_sets:
            digest.update(outcome(x, y, kwargs).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def test_transcript_digest():
    assert transcript_digest(UNBUDGETED) == EXPECTED_UNBUDGETED


def test_budgeted_transcript_digest():
    assert transcript_digest(BUDGETED) == EXPECTED_BUDGETED
