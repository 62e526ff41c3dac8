"""A pinned transcript of the relation checks over seeded random relations.

Each seeded pair of spaces, 1-7 points a side and about one in six of them
isometric, gets several relations: the full product, the graph of a random
map (made onto where it is not), a random covering relation, both searches'
optima where the product is small, and the relation of each strong
eps-isometry exists_strong_epsilon_isometry finds at three epsilons. For
every relation the transcript
records its distortion, the strongness verdict with every counterexample
field, the equilibrium table and the glued space's .ums bytes and
embeddings, or the exception each raised. Per pair it also records
Hausdorff distances and subset weight spectra of random subsets, the
distortion of the random map and the pairs correspondence_from_isometry
returns. Everything goes into one sha256.
"""

import hashlib
import random
from collections import Counter

from ultragh import (
    Correspondence,
    ExactValue,
    correspondence_from_isometry,
    distortion,
    equilibrium_table,
    exists_strong_epsilon_isometry,
    full_product,
    glue_along_strong_correspondence,
    hausdorff_distance,
    is_strong_correspondence,
    map_distortion,
    min_distortion_correspondence,
    min_distortion_strong_correspondence,
    random_ultrametric,
    validate_space,
    weight_spectrum,
    write_space,
)

from conftest import equal_diameter_partner

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(3, 4), ExactValue(1),
        ExactValue(3, 2), ExactValue(2)]

EXPECTED = "eb7b90a7d5b1093eb8cc02fb41b205faef55526fe7c9b733d49f757836c67af8"


def relation_pairs(count=120, seed=20_261_019):
    """count seeded pairs of 1-7 points a side: about one in six an
    isometric relabelling, most of the rest with equal diameters."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 7)
        x = random_ultrametric(n, rng.randrange(100_000), POOL)
        draw = rng.random()
        if draw < 0.15:
            order = list(range(n))
            rng.shuffle(order)
            y = validate_space([[x.dist(i, j) for j in order] for i in order])
        elif n > 1 and draw < 0.75:
            y = equal_diameter_partner(x, rng.randint(2, 7), rng.randrange(100_000), POOL)
        else:
            y = random_ultrametric(rng.randint(1, 7), rng.randrange(100_000), POOL)
        yield rng, x, y


def covering(rng, n, m, pairs):
    """pairs plus one random partner for each point left uncovered."""
    pairs = set(pairs)
    for i in set(range(n)) - {i for i, _ in pairs}:
        pairs.add((i, rng.randrange(m)))
    for j in set(range(m)) - {j for _, j in pairs}:
        pairs.add((rng.randrange(n), j))
    return tuple(sorted(pairs))


def attempt(call):
    try:
        return call()
    except Exception as exc:  # the exception is part of the transcript
        return f"{type(exc).__name__}: {exc}"


def verdict_line(verdict):
    ce = verdict.counterexample
    if ce is None:
        return f"strong {verdict.is_strong} {verdict.distortion.token()}"
    return (f"strong {verdict.is_strong} {verdict.distortion.token()} "
            f"{ce.x} {ce.y} {ce.x_prime} {ce.y_prime} {ce.left_distance.token()} "
            f"{ce.right_distance.token()} {ce.reason}")


def table_line(c):
    table = equilibrium_table(c)
    entries = " ".join(f"{i},{j}={v.token()}" for (i, j), v in table.entries.items())
    bounds = [None if v is None else v.token() for v in (table.inf_value, table.sup_value)]
    return (f"table {entries} {bounds} {table.distortion.token()} "
            f"{table.min_diameter.token()}")


def glue_line(c, reasons):
    glued = glue_along_strong_correspondence(c)
    reasons["quotient"] += glued.quotient_applied
    return (f"glue {write_space(glued.glued_space)!r} {glued.left_embedding} "
            f"{glued.right_embedding} {glued.r0.token()} {glued.quotient_applied}")


def relations(rng, x, y):
    n, m = len(x), len(y)
    yield full_product(x, y)
    images = [rng.randrange(m) for _ in range(n)]
    yield Correspondence(x, y, covering(rng, n, m, enumerate(images)))
    density = rng.choice((0.2, 0.5))
    yield Correspondence(x, y, covering(
        rng, n, m, [(i, j) for i in range(n) for j in range(m) if rng.random() < density]))
    if n * m <= 36:
        yield min_distortion_correspondence(x, y).correspondence
        yield min_distortion_strong_correspondence(x, y).correspondence


def pair_lines(rng, x, y, reasons):
    n, m = len(x), len(y)
    for c in relations(rng, x, y):
        verdict = is_strong_correspondence(c)
        reasons[verdict.counterexample.reason if verdict.counterexample else "strong"] += 1
        yield f"rel {c.pairs} {distortion(c).token()}"
        yield verdict_line(verdict)
        yield attempt(lambda: table_line(c))
        yield attempt(lambda: glue_line(c, reasons))
    for space in (x, y):
        k = len(space)
        a = rng.sample(range(k), rng.randint(1, k))
        b = rng.sample(range(k), rng.randint(1, k))
        yield (f"sets {sorted(a)} {sorted(b)} {hausdorff_distance(space, a, b).token()} "
               f"{weight_spectrum(space, a)}")
    images = [rng.randrange(m) for _ in range(n)]
    eps = rng.choice(POOL)
    yield f"map {images} {map_distortion(x, y, images).token()}"
    yield f"from {eps.token()} {attempt(lambda: correspondence_from_isometry(x, y, images, eps).pairs)}"
    for eps in (POOL[1], POOL[3], x.diameter() + y.diameter() + 1):
        witness = attempt(lambda: exists_strong_epsilon_isometry(x, y, eps))
        if isinstance(witness, str) or witness is None:
            yield f"scan {eps.token()} {witness}"
            continue
        c = correspondence_from_isometry(x, y, witness.images, eps)
        verdict = is_strong_correspondence(c)
        reasons["from_isometry_" + ("strong" if verdict.is_strong else "not")] += 1
        yield f"iso {eps.token()} {witness.images} {c.pairs} {verdict_line(verdict)}"
        yield attempt(lambda: table_line(c))


def relation_digest():
    digest = hashlib.sha256()
    reasons = Counter()
    for rng, x, y in relation_pairs():
        for line in pair_lines(rng, x, y, reasons):
            digest.update(line.encode())
            digest.update(b"\n")
    return digest.hexdigest(), reasons


def test_relation_digest():
    digest, reasons = relation_digest()
    # The transcript covers strong relations and both kinds of violation.
    assert min(reasons["strong"], reasons["unequal"],
               reasons["not_above_distortion"], reasons["from_isometry_strong"],
               reasons["quotient"]) >= 20
    assert digest == EXPECTED
