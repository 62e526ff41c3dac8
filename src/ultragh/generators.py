"""Constructors for the example spaces and for random test instances.

Truncated p-adic rings are modelled as digit strings: a point of the
depth-k truncation is a base-q string (q the residue field size) and the
distance is p^(-j) with j the first differing digit position. Only the
metric matters here, and the first-differing-digit metric reproduces it
exactly, so no ring arithmetic is carried around. Read as integers
0 .. q^k - 1, two strings first differ at digit v_q(b - a), the q-adic
valuation of their difference, so a point's row is a slice of one list
of ranks by |b - a|. Ramified balls involve irrational distances
p^(-j/e); they are quarantined behind an explicit approximation
constructor that rounds to dyadics while preserving the order of the
level values, and marks the space inexact.

Every generator builds its space's sorted distinct distances and rank
rows directly, with no matrix of ExactValues, and hands them to the
rank-level core parse_space ends in (spaces._checked_space), which still
decides the strong triangle inequality by splitting closed balls and
keeps the dendrogram. validate_space stays the path for matrices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

from .exact import ExactValue, ZERO
from .errors import RequiresPGreaterQError, SizeCapExceededError
from .spaces import UltrametricSpace, _checked_space

DEFAULT_SIZE_CAP = 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class LocalFieldParams:
    """Validated invariants of a local field truncation.

    p is the residue characteristic, e the ramification index, f the
    residue degree (so the residue field has p^f elements), s the ball
    exponent and depth the truncation level.
    """

    p: int
    e: int
    f: int
    s: int
    depth: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.e < 1 or self.f < 1 or self.depth < 1:
            raise ValueError("e, f and depth must all be >= 1")

    @property
    def residue_size(self) -> int:
        return self.p ** self.f

    @property
    def point_count(self) -> int:
        return self.residue_size ** self.depth


def _check_cap(count: int, size_cap: int) -> None:
    if count > size_cap:
        raise SizeCapExceededError(
            f"{count} points exceed the size cap {size_cap}"
        )


def _digit_metric_space(
    params: LocalFieldParams,
    level_values: Sequence[ExactValue],
    inexact: bool,
) -> UltrametricSpace:
    """Space of base-q digit strings with per-level distances.

    level_values[j] is the distance between strings first differing at
    digit j; it must be strictly decreasing, which makes the metric an
    ultrametric regardless of the particular values. Every level occurs,
    so level j has rank depth - j. Points a and b first differ at digit
    v_q(|b - a|), so d(a, b) has rank r[|b - a|] with r[k] = depth - v_q(k)
    and r[0] = 0: row a is r[a], ..., r[1] followed by r[0], ...,
    r[n - 1 - a]. r costs one slice assignment per level.
    """
    q, depth, n = params.residue_size, params.depth, params.point_count
    r = [depth] * n
    step = q
    for rank in range(depth - 1, 0, -1):
        r[::step] = [rank] * (n // step)
        step *= q
    r[0] = 0
    r = tuple(r)
    ranks = tuple(r[a:0:-1] + r[:n - a] for a in range(n))
    values = (ZERO, *reversed(level_values))
    return _checked_space(tuple(map(str, range(n))), values, ranks, inexact)


def truncated_unramified_ring(
    p: int, f: int, depth: int, *, size_cap: int = DEFAULT_SIZE_CAP
) -> UltrametricSpace:
    """Depth-level truncation of the unramified integer ring.

    Points are labelled 0 .. p^(f*depth)-1 and the distance is p^(-j) with
    j the first differing base-p^f digit; with f = 1 this is Z/p^depth with
    the p-adic metric.
    """
    return truncated_scaled_ball(p, f, 0, depth, size_cap=size_cap)


def truncated_scaled_ball(
    p: int, f: int, s: int, depth: int, *, size_cap: int = DEFAULT_SIZE_CAP
) -> UltrametricSpace:
    """The unramified ring with every distance scaled by p^(-s).

    Models the depth-level truncation of the s-th maximal-ideal power; a
    negative s scales up by p^|s| and stays exact.
    """
    params = LocalFieldParams(p, 1, f, s, depth)
    _check_cap(params.point_count, size_cap)
    levels = [ExactValue(Fraction(p) ** (-(s + j))) for j in range(depth)]
    return _digit_metric_space(params, levels, inexact=False)


def _dyadic_root_floor(p: int, u: int, e: int, bits: int) -> int:
    """floor(2^bits * p^(-u/e)) by binary search on k^e * p^u <= 2^(bits*e)."""
    if u >= 0:
        target = 2 ** (bits * e)
        power = p ** u

        def fits(k: int) -> bool:
            return k ** e * power <= target
    else:
        target = 2 ** (bits * e) * p ** (-u)

        def fits(k: int) -> bool:
            return k ** e <= target

    lo, hi = 0, 1
    while fits(hi):
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def ramified_ball_approx(
    p: int,
    e: int,
    f: int,
    s: int,
    depth: int,
    precision_bits: int = 32,
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> UltrametricSpace:
    """Ramified ball truncation with dyadic stand-ins for p^(-(s+j)/e).

    Level values divisible by e stay exact; the others are replaced by
    floor approximations within 2^(-precision_bits). Distinct true values
    map to distinct approximations in the same order (checked), which keeps
    the result a genuine ultrametric. The space is flagged inexact whenever
    any level was approximated.
    """
    params = LocalFieldParams(p, e, f, s, depth)
    _check_cap(params.point_count, size_cap)
    if e == 1:
        return truncated_scaled_ball(p, f, s, depth, size_cap=size_cap)
    levels = []
    inexact = False
    for j in range(depth):
        u = s + j
        if u % e == 0:
            levels.append(ExactValue(Fraction(p) ** (-(u // e))))
        else:
            n = _dyadic_root_floor(p, u, e, precision_bits)
            if n == 0:
                raise ValueError(
                    f"precision_bits = {precision_bits} too small to represent "
                    f"p^(-{u}/{e})"
                )
            levels.append(ExactValue(n, 2 ** precision_bits))
            inexact = True
    for j in range(1, depth):
        if not levels[j] < levels[j - 1]:
            raise ValueError(
                f"precision_bits = {precision_bits} too small to separate "
                f"adjacent level values at level {j}"
            )
    return _digit_metric_space(params, levels, inexact=inexact)


def zq_delta(
    p: int, q: int, depth: int, *, size_cap: int = DEFAULT_SIZE_CAP
) -> UltrametricSpace:
    """The q-adic ring truncation with p - q extra points glued far away.

    The extra points t_q .. t_{p-1} sit at distance 1 + 1/q from every ring
    point and from each other; this is the construction showing the ratio
    of the two Gromov-Hausdorff distances is unbounded.
    """
    if not _is_prime(p) or not _is_prime(q):
        raise ValueError("p and q must both be prime")
    if p <= q:
        raise RequiresPGreaterQError(f"need p > q, got p = {p}, q = {q}")
    ring = truncated_unramified_ring(q, 1, depth, size_cap=size_cap)
    extra = p - q
    n = len(ring) + extra
    _check_cap(n, size_cap)
    # The far value lies above the ring's diameter 1, so it takes the next
    # rank.
    far = len(ring.values)
    values = (*ring.values, ExactValue(1) + ExactValue(1, q))
    labels = (*ring.labels, *(f"t{i}" for i in range(q, p)))
    tail = (far,) * extra
    far_row = (far,) * n
    ranks = (*(row + tail for row in ring.ranks),
             *(far_row[:a] + (0,) + far_row[a + 1:] for a in range(len(ring), n)))
    return _checked_space(labels, values, ranks, False)


def random_ultrametric(
    n: int,
    seed: int,
    value_pool: Sequence[ExactValue],
    *,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> UltrametricSpace:
    """Random dendrogram metric on n points, deterministic per seed.

    The point set is split recursively into at least two blocks; each inner
    node takes a pool value strictly below its parent's when one exists and
    otherwise reuses the smallest pool value (a shallow pool is not an
    error). The distance of two points is the value at their lowest common
    ancestor, an ultrametric by construction.

    The splits are drawn first, as pool indices, with the same random calls
    in the same order as ever, depth first with blocks in order, and each
    point's position in that leaf order is noted; every node's points are
    then one run of positions. Only the pool values some split drew become
    values, ranked in pool order. Rows are built in leaf order top down: a
    block's row is its node's row with the node's run outside the block
    set to the node's rank by two slice assignments, so a point's row is
    that of its one-point block, and one itemgetter over the positions puts
    it into point order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n, size_cap)
    pool = [ExactValue.coerce(v) for v in value_pool]
    if not pool:
        raise ValueError("value_pool must be nonempty")
    if any(v <= ZERO for v in pool):
        raise ValueError("value_pool entries must be positive")
    if any(pool[i] >= pool[i + 1] for i in range(len(pool) - 1)):
        raise ValueError("value_pool must be strictly increasing")
    if n == 1:
        return _checked_space(("0",), (ZERO,), ((0,),), False)

    rng = random.Random(seed)
    # Each split, in preorder: its first leaf position, its block bounds
    # relative to it, and its pool index. below bounds the pool indices a
    # split may draw: those of the values strictly below its parent's.
    splits = []
    pos = [0] * n
    stack = [(list(range(n)), len(pool), 0)]
    while stack:
        points, below, lo = stack.pop()
        size = len(points)
        if size == 1:
            pos[points[0]] = lo
            continue
        v = rng.choice(range(below)) if below else 0
        k = rng.randint(2, size)
        shuffled = rng.sample(points, size)
        bounds = [0, *sorted(rng.sample(range(1, size), k - 1)), size]
        splits.append((lo, bounds, v))
        stack += [(shuffled[a:b], v, lo + a)
                  for a, b in zip(bounds[-2::-1], bounds[:0:-1])]

    used = sorted({v for _, _, v in splits})
    rank_of = {v: r for r, v in enumerate(used, 1)}
    point_at = [0] * n
    for point, p in enumerate(pos):
        point_at[p] = point
    in_point_order = itemgetter(*pos)
    ranks: list = [None] * n
    rows = [[0] * n]  # the rows of the splits still to come, next last
    for lo, bounds, v in splits:
        row = rows.pop()
        r, size = rank_of[v], bounds[-1]
        blocks = []
        for a, b in zip(bounds, bounds[1:]):
            block = row.copy()
            block[lo:lo + a] = [r] * a
            block[lo + b:lo + size] = [r] * (size - b)
            if b - a == 1:
                ranks[point_at[lo + a]] = in_point_order(block)
            else:
                blocks.append(block)
        rows += reversed(blocks)
    values = (ZERO, *map(pool.__getitem__, used))
    return _checked_space(tuple(map(str, range(n))), values, tuple(ranks), False)
