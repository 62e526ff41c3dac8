"""Maps between ultrametric spaces and the strong epsilon machinery.

An epsilon-isometry is a map with distortion strictly below epsilon whose
image is an epsilon-net (strict inequalities throughout). The strong variant
adds two partner conditions: every far point of the target can be matched by
a domain point realizing the same distance (SI1), and distances of at least
epsilon are preserved exactly (SI2). Strong epsilon-approximations pair
epsilon-nets of the two spaces with exactly equal distance patterns.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import ExactValue, ZERO
from .errors import (
    BudgetExceededError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NotStrongError,
)
from .spaces import (
    BreakpointGrid,
    UltrametricSpace,
    _rank_balls,
    is_epsilon_net,
)
from .correspondences import Correspondence

DEFAULT_SCAN_BUDGET = 5_000_000


def map_distortion(
    x: UltrametricSpace, y: UltrametricSpace, f: Sequence[int]
) -> ExactValue:
    """max over pairs of |d_Y(f(x1), f(x2)) - d_X(x1, x2)|."""
    _check_map(x, y, f)
    best = ZERO
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            d = x.dist(i, j).abs_diff(y.dist(f[i], f[j]))
            if d > best:
                best = d
    return best


def _check_map(x: UltrametricSpace, y: UltrametricSpace, f: Sequence[int]) -> None:
    if len(f) != len(x):
        raise IndexOutOfRangeError(f"map has {len(f)} entries for {len(x)} points")
    for j in f:
        y.check_index(j)


@dataclass(frozen=True)
class MapFailure:
    """First failed check, replayable from the named points."""

    check: str  # "dis", "net", "SI1" or "SI2"
    points: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class MapWitness:
    left: UltrametricSpace
    right: UltrametricSpace
    images: tuple[int, ...]
    epsilon: ExactValue
    distortion: ExactValue
    is_eps_isometry: bool
    is_strong_eps_isometry: bool
    failure: Optional[MapFailure]


def is_strong_epsilon_isometry(
    x: UltrametricSpace, y: UltrametricSpace, f: Sequence[int], eps: ExactValue
) -> MapWitness:
    """Full verdict for one map, checks run in a fixed order.

    dis f < eps; f(X) an eps-net in Y; (SI1) every y with
    d_Y(y, f(x)) >= eps has a partner x' with d_Y(y, f(x')) < eps and
    d_X(x, x') = d_Y(y, f(x)); (SI2) pairs with unequal image distance
    satisfy d_X(x1, x2) < eps. The first failure is certified.
    """
    if eps <= ZERO:
        raise ValueError("eps must be positive")
    _check_map(x, y, f)
    images = tuple(f)
    failure = None
    dis = map_distortion(x, y, images)
    if dis >= eps:
        failure = MapFailure("dis", (), f"dis f = {dis} is not < {eps}")

    image_set = sorted(set(images))
    net_ok = True
    for yy in range(len(y)):
        if all(y.dist(yy, b) >= eps for b in image_set):
            net_ok = False
            if failure is None:
                failure = MapFailure(
                    "net", (yy,), f"point {yy} is at distance >= {eps} from the image"
                )
            break

    si1_ok = True
    for xx in range(len(x)):
        for yy in range(len(y)):
            d = y.dist(yy, images[xx])
            if d < eps:
                continue
            if not any(
                y.dist(yy, images[xp]) < eps and x.dist(xx, xp) == d
                for xp in range(len(x))
            ):
                si1_ok = False
                if failure is None:
                    failure = MapFailure(
                        "SI1", (xx, yy),
                        f"no partner realizes d_Y({yy}, f({xx})) = {d}",
                    )
                break
        if not si1_ok:
            break

    si2_ok = True
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dxx = x.dist(i, j)
            if dxx >= eps and dxx != y.dist(images[i], images[j]):
                si2_ok = False
                if failure is None:
                    failure = MapFailure(
                        "SI2", (i, j),
                        f"d_X({i},{j}) = {dxx} >= {eps} but image distance differs",
                    )
                break
        if not si2_ok:
            break

    is_eps = dis < eps and net_ok
    return MapWitness(
        x, y, images, eps, dis,
        is_eps_isometry=is_eps,
        is_strong_eps_isometry=is_eps and si1_ok and si2_ok,
        failure=failure,
    )


def exists_strong_epsilon_isometry(
    x: UltrametricSpace,
    y: UltrametricSpace,
    eps: ExactValue,
    budget: Optional[int] = None,
) -> Optional[MapWitness]:
    """Exhaustive scan over maps X -> Y for a strong eps-isometry.

    Maps are enumerated in mixed-radix order (left indices as digit
    positions, right index ascending), so the returned witness is the
    lexicographically smallest one. Branches die as soon as a decided pair
    breaks dis f < eps or the exact-preservation half of (SI2).
    """
    if eps <= ZERO:
        raise ValueError("eps must be positive")
    grid = BreakpointGrid(x, y)
    return _isometry_probe(grid, bisect_left(grid.values, eps), budget, eps)


def _cell_midpoint(grid: BreakpointGrid, below: int) -> ExactValue:
    """The midpoint of the cell (t_{below-1}, t_below] of grid.thresholds()."""
    thresholds = grid.thresholds()
    return thresholds[below - 1].midpoint(thresholds[below])


def _isometry_probe(
    grid: BreakpointGrid,
    below: int,
    budget: Optional[int],
    eps: Optional[ExactValue] = None,
) -> Optional[MapWitness]:
    """exists_strong_epsilon_isometry on the pair of grid, at every eps
    with bisect_left(grid.values, eps) == below >= 1.

    Exactly the grid values below such an eps have a rank below the cut,
    on the grid or off it, so the DFS compares ints. A witness carries eps,
    or the midpoint of cell below when eps is None, made only for it.
    """
    x, y = grid.x, grid.y
    n, m = len(x), len(y)
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget

    rx, ry, gap = grid.rx, grid.ry, grid.gap_ranks()

    images: list[int] = []
    nodes = 0

    def dfs(level: int) -> Optional[MapWitness]:
        nonlocal nodes
        if level == n:
            if not _leaf_passes(rx, ry, images, below):
                return None
            at = _cell_midpoint(grid, below) if eps is None else eps
            witness = is_strong_epsilon_isometry(x, y, tuple(images), at)
            return witness if witness.is_strong_eps_isometry else None
        for b in range(m):
            nodes += 1
            if nodes > limit:
                raise BudgetExceededError(
                    f"strong eps-isometry scan exceeded {limit} nodes"
                )
            ok = True
            for i in range(level):
                a = images[i]
                r = rx[i][level]
                if gap[i][level][a][b] >= below or (r >= below and r != ry[a][b]):
                    ok = False
                    break
            if not ok:
                continue
            images.append(b)
            found = dfs(level + 1)
            images.pop()
            if found is not None:
                return found
        return None

    return dfs(0)


def _leaf_passes(
    rx: Sequence[Sequence[int]],
    ry: Sequence[Sequence[int]],
    images: Sequence[int],
    below: int,
) -> bool:
    """The net condition and (SI1) of a complete map, on grid ranks.

    below is bisect_left(grid.values, eps), so a distance is below eps
    exactly when its rank is below it. The isometry DFS has already
    enforced dis f < eps and (SI2) on every pair, so a map the DFS reaches
    is a strong eps-isometry exactly when this holds.
    """
    # near[y][x]: whether d_Y(y, f(x)) < eps.
    near = [[row[b] < below for b in images] for row in ry]
    if not all(map(any, near)):
        return False
    for xx, a in enumerate(images):
        rxx = rx[xx]
        for row, near_yy in zip(ry, near):
            d = row[a]
            if d >= below and not any(n and r == d for n, r in zip(near_yy, rxx)):
                return False
    return True


@dataclass(frozen=True)
class ApproximationWitness:
    """Matched point lists forming eps-nets with equal pairwise distances."""

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    epsilon: ExactValue


@dataclass(frozen=True)
class ApproximationVerdict:
    valid: bool
    failure_condition: Optional[str]  # "net_left", "net_right" or "distances"
    failure_indices: tuple[int, ...]


def is_strong_epsilon_approximation(
    x: UltrametricSpace,
    y: UltrametricSpace,
    eps: ExactValue,
    witness: ApproximationWitness,
) -> ApproximationVerdict:
    """Check both conditions of a strong eps-approximation exactly."""
    if eps <= ZERO:
        raise ValueError("eps must be positive")
    xs, ys = witness.xs, witness.ys
    if len(xs) != len(ys) or not xs:
        raise LengthMismatchError(
            f"witness lists must have equal positive length, got {len(xs)} and {len(ys)}"
        )
    for i in xs:
        x.check_index(i)
    for j in ys:
        y.check_index(j)
    if not is_epsilon_net(x, set(xs), eps):
        return ApproximationVerdict(False, "net_left", tuple(sorted(set(xs))))
    if not is_epsilon_net(y, set(ys), eps):
        return ApproximationVerdict(False, "net_right", tuple(sorted(set(ys))))
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if x.dist(xs[i], xs[j]) != y.dist(ys[i], ys[j]):
                return ApproximationVerdict(False, "distances", (i, j))
    return ApproximationVerdict(True, None, ())


def exists_strong_epsilon_approximation(
    x: UltrametricSpace,
    y: UltrametricSpace,
    eps: ExactValue,
    budget: Optional[int] = None,
) -> Optional[ApproximationWitness]:
    """Search for a strong eps-approximation witness.

    The left list is pinned to the open-ball representatives of X at scale
    eps: any eps-net must hit every ball, and representatives of distinct
    balls already sit at distance >= eps, so matched right points are forced
    distinct and a witness with this left side exists whenever the distance
    is strictly below eps. Right points are matched by backtracking under
    the exact pairwise-distance condition; the first witness in ascending
    order is returned.
    """
    if eps <= ZERO:
        raise ValueError("eps must be positive")
    grid = BreakpointGrid(x, y)
    return _approximation_probe(grid, bisect_left(grid.values, eps), budget, eps)


def _approximation_probe(
    grid: BreakpointGrid,
    below: int,
    budget: Optional[int],
    eps: Optional[ExactValue] = None,
) -> Optional[ApproximationWitness]:
    """exists_strong_epsilon_approximation on the pair of grid, at every
    eps with bisect_left(grid.values, eps) == below >= 1.

    Distances compare as ranks into the grid's values; exactly those below
    such an eps have a rank below the cut. A witness carries eps, or the
    midpoint of cell below when eps is None, made only for it.
    """
    x, y = grid.x, grid.y
    rx, ry = grid.rx, grid.ry
    xs = tuple(c[0] for c in _rank_balls(rx, below))
    n, m = len(xs), len(y)
    if n > m:
        return None
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget

    y_classes = _rank_balls(ry, below)
    if len(y_classes) > n:
        # Matched right points are pairwise >= eps apart, hence distinct;
        # n of them cannot hit every ball.
        return None
    y_ball = [0] * m
    for ci, cls in enumerate(y_classes):
        for p in cls:
            y_ball[p] = ci
    need = [[rx[a][b] for b in xs] for a in xs]

    ys: list[int] = []
    nodes = 0

    def dfs(level: int) -> Optional[ApproximationWitness]:
        nonlocal nodes
        if level == n:
            if len({y_ball[b] for b in ys}) != len(y_classes):
                return None
            at = _cell_midpoint(grid, below) if eps is None else eps
            witness = ApproximationWitness(xs, tuple(ys), at)
            verdict = is_strong_epsilon_approximation(x, y, at, witness)
            return witness if verdict.valid else None
        want = need[level][:level]
        for b in range(m):
            nodes += 1
            if nodes > limit:
                raise BudgetExceededError(
                    f"strong eps-approximation scan exceeded {limit} nodes"
                )
            rb = ry[b]
            if [rb[c] for c in ys] != want:
                continue
            ys.append(b)
            found = dfs(level + 1)
            ys.pop()
            if found is not None:
                return found
        return None

    return dfs(0)


def correspondence_from_isometry(
    x: UltrametricSpace, y: UltrametricSpace, f: Sequence[int], eps: ExactValue
) -> Correspondence:
    """The relation {(x, y) : d_Y(y, f(x)) <= eps} of a strong eps-isometry.

    For a strong eps-isometry this is a strong correspondence with
    distortion at most eps, which is how a map witness converts into a
    correspondence witness.
    """
    witness = is_strong_epsilon_isometry(x, y, f, eps)
    if not witness.is_strong_eps_isometry:
        raise NotStrongError(f"map is not a strong {eps}-isometry: {witness.failure}")
    pairs = tuple(
        (i, j)
        for i in range(len(x))
        for j in range(len(y))
        if y.dist(j, f[i]) <= eps
    )
    return Correspondence(x, y, pairs)
