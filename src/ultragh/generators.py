"""Constructors for the example spaces and for random test instances.

Truncated p-adic rings are modelled as digit strings: a point of the
depth-k truncation is a base-q string (q the residue field size) and the
distance is p^(-j) with j the first differing digit position. Only the
metric matters here, and the first-differing-digit metric reproduces it
exactly, so no ring arithmetic is carried around. Ramified balls involve
irrational distances p^(-j/e); they are quarantined behind an explicit
approximation constructor that rounds to dyadics while preserving the
order of the level values, and marks the space inexact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact import ExactValue, ZERO
from .errors import RequiresPGreaterQError, SizeCapExceededError
from .spaces import UltrametricSpace, validate_space

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
    labels: Optional[Sequence[str]] = None,
) -> UltrametricSpace:
    """Space of base-q digit strings with per-level distances.

    level_values[j] is the distance between strings first differing at
    digit j; it must be strictly decreasing, which makes the metric an
    ultrametric regardless of the particular values.
    """
    q = params.residue_size
    n = params.point_count
    digits = []
    for v in range(n):
        rest, ds = v, []
        for _ in range(params.depth):
            ds.append(rest % q)
            rest //= q
        digits.append(ds)
    rows = [[ZERO] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            j = 0
            while digits[a][j] == digits[b][j]:
                j += 1
            rows[a][b] = level_values[j]
            rows[b][a] = level_values[j]
    return validate_space(rows, labels or [str(v) for v in range(n)], inexact=inexact)


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
    far = ExactValue(1) + ExactValue(1, q)
    labels = list(ring.labels) + [f"t{i}" for i in range(q, p)]
    rows = [[ZERO] * n for _ in range(n)]
    for a in range(len(ring)):
        for b in range(len(ring)):
            rows[a][b] = ring.dist(a, b)
    for a in range(n):
        for b in range(n):
            if a != b and (a >= len(ring) or b >= len(ring)):
                rows[a][b] = far
    return validate_space(rows, labels)


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
    ancestor, an ultrametric by construction; the validator still checks
    the result.
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

    rng = random.Random(seed)
    rows = [[ZERO] * n for _ in range(n)]

    def build(points: list[int], ceiling: Optional[ExactValue]) -> None:
        if len(points) == 1:
            return
        allowed = pool if ceiling is None else [v for v in pool if v < ceiling]
        value = rng.choice(allowed) if allowed else pool[0]
        k = rng.randint(2, len(points))
        shuffled = rng.sample(points, len(points))
        cuts = sorted(rng.sample(range(1, len(points)), k - 1))
        blocks = []
        start = 0
        for cut in cuts + [len(points)]:
            blocks.append(shuffled[start:cut])
            start = cut
        for bi in range(len(blocks)):
            for bj in range(bi + 1, len(blocks)):
                for a in blocks[bi]:
                    for b in blocks[bj]:
                        rows[a][b] = value
                        rows[b][a] = value
        for block in blocks:
            build(block, value)

    build(list(range(n)), None)
    return validate_space(rows)
