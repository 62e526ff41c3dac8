"""Maps between ultrametric spaces and the strong epsilon machinery.

An epsilon-isometry is a map with distortion strictly below epsilon whose
image is an epsilon-net (strict inequalities throughout). The strong variant
adds two partner conditions: every far point of the target can be matched by
a domain point realizing the same distance (SI1), and distances of at least
epsilon are preserved exactly (SI2). Strong epsilon-approximations pair
epsilon-nets of the two spaces with exactly equal distance patterns.

Each verdict is written once, on the ranks of the pair's BreakpointGrid:
a distance is below eps exactly when its rank is below
bisect_left(grid.values, eps). The public checkers build the grid and call
that core once; the scans call it once per complete map or match their
search reaches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import ExactValue, ZERO
from .errors import BudgetExceededError, LengthMismatchError, NotStrongError
from .spaces import BreakpointGrid, UltrametricSpace, _rank_balls
from .correspondences import Correspondence, _check_map, _distortion_rank

DEFAULT_SCAN_BUDGET = 5_000_000


def map_distortion(
    x: UltrametricSpace, y: UltrametricSpace, f: Sequence[int]
) -> ExactValue:
    """max over pairs of |d_Y(f(x1), f(x2)) - d_X(x1, x2)|."""
    _check_map(x, y, f)
    grid = BreakpointGrid(x, y)
    return grid.values[_distortion_rank(grid, enumerate(f))]


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
    grid = BreakpointGrid(x, y)
    return _isometry_verdict(grid, tuple(f), bisect_left(grid.values, eps), eps)


def _isometry_verdict(
    grid: BreakpointGrid, images: tuple[int, ...], below: int, eps: ExactValue
) -> MapWitness:
    """is_strong_epsilon_isometry of images on the pair of grid, where
    below is bisect_left(grid.values, eps).

    Exactly the distances below eps have a rank below the cut, and rx and
    ry rank into the same values, so every check compares ints. Grid
    values are read only for the distortion and the failure text.
    """
    rx, ry, values = grid.rx, grid.ry, grid.values
    n = len(images)
    dis = _distortion_rank(grid, enumerate(images))
    # near[y][x]: whether d_Y(y, f(x)) < eps.
    near = [[row[b] < below for b in images] for row in ry]
    far = next((yy for yy, row in enumerate(near) if not any(row)), None)
    si1 = next(
        ((xx, yy)
         for xx, a in enumerate(images)
         for yy, row in enumerate(ry)
         if row[a] >= below
         and not any(ok and r == row[a] for ok, r in zip(near[yy], rx[xx]))),
        None,
    )
    si2 = next(
        ((i, j)
         for i in range(n) for j in range(i + 1, n)
         if rx[i][j] >= below and rx[i][j] != ry[images[i]][images[j]]),
        None,
    )
    if dis >= below:
        failure = MapFailure("dis", (), f"dis f = {values[dis]} is not < {eps}")
    elif far is not None:
        failure = MapFailure(
            "net", (far,), f"point {far} is at distance >= {eps} from the image"
        )
    elif si1 is not None:
        xx, yy = si1
        failure = MapFailure(
            "SI1", si1,
            f"no partner realizes d_Y({yy}, f({xx})) = {values[ry[yy][images[xx]]]}",
        )
    elif si2 is not None:
        i, j = si2
        failure = MapFailure(
            "SI2", si2,
            f"d_X({i},{j}) = {values[rx[i][j]]} >= {eps} but image distance differs",
        )
    else:
        failure = None
    is_eps = dis < below and far is None
    return MapWitness(
        grid.x, grid.y, images, eps, values[dis],
        is_eps_isometry=is_eps,
        is_strong_eps_isometry=is_eps and si1 is None and si2 is None,
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
    """The midpoint of the cell (t_{below-1}, t_below] of grid.thresholds(),
    whose sentinel is made only for the last cell."""
    values = grid.values
    top = values[below] if below < len(values) else grid.thresholds()[below]
    return values[below - 1].midpoint(top)


def _isometry_probe(
    grid: BreakpointGrid,
    below: int,
    budget: Optional[int],
    eps: Optional[ExactValue] = None,
) -> Optional[MapWitness]:
    """exists_strong_epsilon_isometry on the pair of grid, at every eps
    with bisect_left(grid.values, eps) == below >= 1.

    Exactly the grid values below such an eps have a rank below the cut,
    on the grid or off it, so the DFS compares ints. Each complete map gets
    one _isometry_verdict, at eps, or at the midpoint of cell below when
    eps is None, made once, at the first complete map.
    """
    n, m = len(grid.x), len(grid.y)
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget

    rx, ry, gap = grid.rx, grid.ry, grid.gap_ranks()

    images: list[int] = []
    nodes = 0

    def dfs(level: int) -> Optional[MapWitness]:
        nonlocal nodes, eps
        if level == n:
            if eps is None:
                eps = _cell_midpoint(grid, below)
            witness = _isometry_verdict(grid, tuple(images), below, eps)
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
    grid = BreakpointGrid(x, y)
    return _approximation_verdict(grid, xs, ys, bisect_left(grid.values, eps))


def _approximation_verdict(
    grid: BreakpointGrid, xs: Sequence[int], ys: Sequence[int], below: int
) -> ApproximationVerdict:
    """is_strong_epsilon_approximation of (xs, ys) on the pair of grid, where
    below is bisect_left(grid.values, eps), read on grid ranks."""
    rx, ry = grid.rx, grid.ry
    if not all(any(row[p] < below for p in xs) for row in rx):
        return ApproximationVerdict(False, "net_left", tuple(sorted(set(xs))))
    if not all(any(row[p] < below for p in ys) for row in ry):
        return ApproximationVerdict(False, "net_right", tuple(sorted(set(ys))))
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if rx[xs[i]][xs[j]] != ry[ys[i]][ys[j]]:
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
    such an eps have a rank below the cut. Each complete match gets one
    _approximation_verdict. A witness carries eps, or the midpoint of cell
    below when eps is None, made only for it.
    """
    rx, ry = grid.rx, grid.ry
    xs = tuple(c[0] for c in _rank_balls(rx, below))
    n, m = len(xs), len(ry)
    if n > m:
        return None
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget

    if len(_rank_balls(ry, below)) > n:
        # Matched right points are pairwise >= eps apart, hence distinct;
        # n of them cannot hit every ball.
        return None
    need = [[rx[a][b] for b in xs] for a in xs]

    ys: list[int] = []
    nodes = 0

    def dfs(level: int) -> Optional[ApproximationWitness]:
        nonlocal nodes
        if level == n:
            if not _approximation_verdict(grid, xs, ys, below).valid:
                return None
            at = _cell_midpoint(grid, below) if eps is None else eps
            return ApproximationWitness(xs, tuple(ys), at)
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
    correspondence witness. Exactly the distances at most eps have a rank
    below bisect_right(y.values, eps), so the relation reads y's ranks.
    """
    witness = is_strong_epsilon_isometry(x, y, f, eps)
    if not witness.is_strong_eps_isometry:
        raise NotStrongError(f"map is not a strong {eps}-isometry: {witness.failure}")
    cut = bisect_right(y.values, eps)
    pairs = tuple(
        (i, j)
        for i, a in enumerate(f)
        for j, r in enumerate(y.ranks[a])
        if r < cut
    )
    return Correspondence(x, y, pairs)
