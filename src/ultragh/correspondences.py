"""Correspondences between two ultrametric spaces.

A correspondence is a relation covering both point sets; its distortion is
the largest mismatch |d_X - d_Y| over related pairs. A correspondence is
strong when every non-related pair (x, y) sees equal partner distances on
both sides, strictly exceeding the distortion. The minimum distortion over
strong correspondences is the non-Archimedean Gromov-Hausdorff distance,
read off the greedy quotient isometry by the engine
(engine.min_distortion_strong_correspondence); half the minimum over plain
correspondences is the classical one, computed here exactly by
branch-and-bound over pair sets.

The checks of one given relation, its distortion and its partner
condition, read the spaces' own ranks, as the search does: a gap between
a distance of X and one of Y is read off the pair's BreakpointGrid by the
two ranks, and two distances of X and Y compare as the grid's ints over
its one denominator. An ExactValue is made only for a reported number.
Each check is written once; the search and the map checks share the
distortion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, repeat
from operator import itemgetter, or_
from typing import Iterable, Optional, Sequence

from .exact import ExactValue, ZERO
from .errors import (
    BridgeTooSmallError,
    IndexOutOfRangeError,
    MethodDisagreementError,
    NotACorrespondenceError,
    NotStrongError,
    NotSurjectiveError,
    SearchSpaceTooLargeError,
    WellDefinednessViolationError,
)
from .spaces import (
    BreakpointGrid,
    UltrametricSpace,
    hausdorff_distance,
    validate_space,
)

DEFAULT_PRODUCT_CAP = 36


def is_correspondence(
    x: UltrametricSpace, y: UltrametricSpace, pairs: Sequence[tuple[int, int]]
) -> bool:
    """True iff the pair set covers every point of both spaces.

    An item that is not two indices raises NotACorrespondenceError, the
    first one in pair order. An index out of range or not an int (a bool
    is none) raises IndexOutOfRangeError, the first one in pair order, the
    left index of a pair before its right one.
    """
    _check_pair_lengths(pairs)
    left_covered = set(map(itemgetter(0), pairs))
    right_covered = set(map(itemgetter(1), pairs))
    # Every entry's type, since the covered sets merge True into 1.
    types = set(map(type, chain.from_iterable(pairs)))
    if pairs and not (bool not in types and all(map(issubclass, types, repeat(int)))
                      and 0 <= min(left_covered) and max(left_covered) < len(x)
                      and 0 <= min(right_covered) and max(right_covered) < len(y)):
        for i, j in pairs:
            x.check_index(i)
            y.check_index(j)
    return len(left_covered) == len(x) and len(right_covered) == len(y)


def _check_pair_lengths(pairs: Sequence[tuple[int, int]]) -> None:
    """NotACorrespondenceError naming the first item of pairs, in input
    order, that does not hold exactly two entries."""
    if not set(map(len, pairs)) <= {2}:
        bad = next(p for p in pairs if len(p) != 2)
        raise NotACorrespondenceError(f"{bad!r} is not a pair of two indices")


@dataclass(frozen=True)
class Correspondence:
    """A both-side covering relation between the point sets of two spaces."""

    left: UltrametricSpace
    right: UltrametricSpace
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = self.pairs
        if not isinstance(pairs, (tuple, list)):
            # A one-shot iterator is read once, so a failed sort below
            # still has its pairs to name the bad index from.
            pairs = tuple(pairs)
        # Before sorting, so the item named is the first in input order.
        _check_pair_lengths(pairs)
        # Deduplicated in first-seen order, so already sorted input, the
        # usual case, sorts in linear time.
        try:
            normal = tuple(sorted(dict.fromkeys(pairs)))
        except TypeError:
            # An index that does not order against the others: name the
            # first bad one in input order, as is_correspondence does.
            for i, j in pairs:
                self.left.check_index(i)
                self.right.check_index(j)
            raise
        object.__setattr__(self, "pairs", normal)
        covers = is_correspondence(self.left, self.right, normal)
        if len(normal) < len(pairs):
            # Deduplication dropped a repeated pair, or a bool pair equal
            # to an int pair before it: every entry's type is read again.
            is_correspondence(self.left, self.right, pairs)
        if not covers:
            raise NotACorrespondenceError(
                "pairs do not cover both point sets"
            )

    @classmethod
    def _sorted(cls, left: UltrametricSpace, right: UltrametricSpace,
                pairs: tuple[tuple[int, int], ...]) -> Correspondence:
        """The correspondence of pairs that are already what __post_init__
        makes of its input: in range, strictly ascending, so free of
        duplicates, and covering both point sets. No check runs, so only
        code that builds its pairs that way may call it: full_product, the
        search's results and the quotient matching's correspondence."""
        c = object.__new__(cls)
        c.__dict__.update(left=left, right=right, pairs=pairs)
        return c


def full_product(x: UltrametricSpace, y: UltrametricSpace) -> Correspondence:
    """Every pair of X × Y, in row-major order. Built in that order, the
    pairs ascend and cover both point sets, so they need no normalising."""
    return Correspondence._sorted(x, y, tuple(product(range(len(x)), range(len(y)))))


def distortion(c: Correspondence) -> ExactValue:
    """max |d_X(x,x') - d_Y(y,y')| over related pairs (x,y), (x',y'),
    read as the largest gap int on the pair's BreakpointGrid."""
    grid = BreakpointGrid(c.left, c.right)
    return ExactValue(_distortion_ranks(grid, c.pairs)[-1], grid.den)


def _distortion_ranks(grid: BreakpointGrid, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The distortions of the prefixes of the relation pairs on the pair of
    grid, as ints over grid.den: entry k is the distortion of the pairs
    whose left point is below k, and the last entry that of all of them,
    0 for fewer than two pairs. The pairs ascend by left point, each left
    point from 0 up to the last having at least one; a map's graph is
    enumerate(images). Each gap is read off grid._gap by the spaces' own
    ranks of its two distances."""
    gap, x_ranks, y_ranks = grid._gap, grid.x.ranks, grid.y.ranks
    seen: list[tuple[int, int]] = []
    running, best = [0], 0
    for i, j in pairs:
        if i == len(running):
            running.append(best)
        xi, yj = x_ranks[i], y_ranks[j]
        for k, l in seen:
            r = gap[xi[k]][yj[l]]
            if r > best:
                best = r
        seen.append((i, j))
    running.append(best)
    return running


def _check_map(x: UltrametricSpace, y: UltrametricSpace, f: Sequence[int]) -> None:
    if len(f) != len(x):
        raise IndexOutOfRangeError(f"map has {len(f)} entries for {len(x)} points")
    for j in f:
        y.check_index(j)


def associated_correspondence(
    x: UltrametricSpace, y: UltrametricSpace, f: Sequence[int]
) -> Correspondence:
    """Graph of a surjective map f: X -> Y as a correspondence."""
    _check_map(x, y, f)
    if len(set(f)) != len(y):
        raise NotSurjectiveError("map does not cover the right space")
    return Correspondence(x, y, tuple((i, f[i]) for i in range(len(x))))


@dataclass(frozen=True)
class StrongnessCounterexample:
    """Replayable refutation of the strongness condition.

    The pair (x, y) lies outside the correspondence, (x_prime, y) and
    (x, y_prime) lie inside it, yet left_distance = d_X(x, x_prime) and
    right_distance = d_Y(y, y_prime) are unequal or fail to exceed the
    distortion.
    """

    x: int
    y: int
    x_prime: int
    y_prime: int
    left_distance: ExactValue
    right_distance: ExactValue
    reason: str  # "unequal" or "not_above_distortion"


@dataclass(frozen=True)
class StrongnessVerdict:
    is_strong: bool
    distortion: ExactValue
    counterexample: Optional[StrongnessCounterexample]


def is_strong_correspondence(c: Correspondence) -> StrongnessVerdict:
    """Decide strongness by the universal partner condition.

    For every (x, y) outside the relation and all partners (x, y'), (x', y)
    inside it, d_X(x, x') and d_Y(y, y') must coincide and strictly exceed
    the distortion. The check is exhaustive over the complement and reads
    the spaces' own ranks, as the distortion does.
    """
    return _partner_walk(c)[0]


def _partner_walk(
    c: Correspondence,
) -> tuple[StrongnessVerdict, dict[tuple[int, int], int], int]:
    """The strongness verdict and, when strong, the common partner distance
    of each complement pair (x, y) in row-major order, as an int over the
    grid denominator returned third.

    The first violation in walk order (x, y, then x', then y') is the
    counterexample. Strongness makes every partner distance of a
    complement pair equal, so that value is its equilibrium value. Each
    space's distances are its own ranks, read as the grid's ints through
    wx and wy, so both sides and the distortion are ints over one
    denominator and every test compares ints.
    """
    grid = BreakpointGrid(c.left, c.right)
    rows_x, rows_y, wx, wy, den = c.left.ranks, c.right.ranks, grid.wx, grid.wy, grid.den
    dis = _distortion_ranks(grid, c.pairs)[-1]
    right_of: list[list[int]] = [[] for _ in rows_x]
    left_of: list[list[int]] = [[] for _ in rows_y]
    for i, j in c.pairs:
        right_of[i].append(j)
        left_of[j].append(i)
    entries: dict[tuple[int, int], int] = {}
    for x, (rxx, partners) in enumerate(zip(rows_x, right_of)):
        members = set(partners)
        for y, ryy in enumerate(rows_y):
            if y in members:
                continue
            for x_prime in left_of[y]:
                dx = wx[rxx[x_prime]]
                for y_prime in partners:
                    dy = wy[ryy[y_prime]]
                    if dx != dy or dx <= dis:
                        reason = "unequal" if dx != dy else "not_above_distortion"
                        return StrongnessVerdict(
                            False,
                            ExactValue(dis, den),
                            StrongnessCounterexample(
                                x, y, x_prime, y_prime,
                                ExactValue(dx, den), ExactValue(dy, den), reason
                            ),
                        ), entries, den
            entries[(x, y)] = dx
    return StrongnessVerdict(True, ExactValue(dis, den), None), entries, den


def _strong_walk(
    c: Correspondence,
) -> tuple[ExactValue, dict[tuple[int, int], ExactValue]]:
    """_partner_walk of a strong c without its verdict, the distortion in
    its place and each equilibrium value an ExactValue, one object per
    distinct value; otherwise NotStrongError, naming the counterexample,
    with the verdict attached as its verdict attribute."""
    verdict, entries, den = _partner_walk(c)
    if not verdict.is_strong:
        exc = NotStrongError(
            f"correspondence is not strong: {verdict.counterexample}"
        )
        exc.verdict = verdict
        raise exc
    value = {k: ExactValue(k, den) for k in set(entries.values())}
    return verdict.distortion, {pair: value[k] for pair, k in entries.items()}


@dataclass
class EquilibriumTable:
    """Equilibrium value for each pair outside a strong correspondence.

    entries maps (x, y) in the complement to the common partner distance.
    inf_value/sup_value are the observed extrema (None for an empty
    complement); distortion and min_diameter bracket every entry.
    """

    entries: dict[tuple[int, int], ExactValue]
    inf_value: Optional[ExactValue]
    sup_value: Optional[ExactValue]
    distortion: ExactValue
    min_diameter: ExactValue


def equilibrium_table(c: Correspondence) -> EquilibriumTable:
    dis, entries = _strong_walk(c)
    return EquilibriumTable(
        entries=entries,
        inf_value=min(entries.values()) if entries else None,
        sup_value=max(entries.values()) if entries else None,
        distortion=dis,
        min_diameter=min(c.left.diameter(), c.right.diameter()),
    )


@dataclass
class GlueResult:
    """Both spaces embedded isometrically in one ultrametric space."""

    glued_space: UltrametricSpace
    left_embedding: tuple[int, ...]
    right_embedding: tuple[int, ...]
    r0: ExactValue
    quotient_applied: bool


def glue_along_strong_correspondence(c: Correspondence) -> GlueResult:
    """Realize a strong correspondence as a bridge metric on X ⊔ Y.

    Related pairs sit at distance r0 = dis C; unrelated cross pairs sit at
    their equilibrium value. With r0 = 0 the semi-metric is quotiented,
    merging each matched pair, which exhibits an isometry X ≅ Y.
    """
    r0, entries = _strong_walk(c)
    x, y = c.left, c.right
    if r0 > ZERO:
        # Related pairs are exactly the ones without an entry.
        result = _glue_disjoint(x, y, lambda i, j: entries.get((i, j), r0), r0)
    else:
        # dis = 0 forces a bijection, so the quotient is X itself and each
        # right point lands on its unique left partner.
        labels = [f"L:{lbl}" for lbl in x.labels]
        glued = validate_space(x.matrix(), labels, inexact=x.inexact or y.inexact)
        right_embed = tuple(i for i, _ in sorted(c.pairs, key=lambda p: p[1]))
        result = GlueResult(glued, tuple(range(len(x))), right_embed, r0, True)

    dh = hausdorff_distance(
        result.glued_space, result.left_embedding, result.right_embedding
    )
    if dh > r0:
        raise WellDefinednessViolationError(
            f"glued Hausdorff distance {dh} exceeds r0 = {r0}"
        )
    return result


def glue_with_constant_bridge(
    x: UltrametricSpace, y: UltrametricSpace, c: ExactValue
) -> GlueResult:
    """Disjoint union with every cross distance equal to the constant c.

    Needs c >= both diameters and c > 0, otherwise some triangle through the
    bridge breaks the strong triangle inequality.
    """
    top = max(x.diameter(), y.diameter())
    if c <= ZERO or c < top:
        raise BridgeTooSmallError(
            f"bridge constant {c} is below a diameter (max diameter {top})"
        )
    return _glue_disjoint(x, y, lambda i, j: c, c)


def _glue_disjoint(
    x: UltrametricSpace, y: UltrametricSpace, cross, r0: ExactValue
) -> GlueResult:
    """X ⊔ Y, left points first, with cross(i, j) between left point i and
    right point j, validated as one space."""
    n, m = len(x), len(y)
    labels = [f"L:{lbl}" for lbl in x.labels] + [f"R:{lbl}" for lbl in y.labels]
    rows = [[*row, *(cross(i, j) for j in range(m))] for i, row in enumerate(x.matrix())]
    rows += [[rows[i][n + j] for i in range(n)] + list(row)
             for j, row in enumerate(y.matrix())]
    glued = validate_space(rows, labels, inexact=x.inexact or y.inexact)
    return GlueResult(glued, tuple(range(n)), tuple(range(n, n + m)), r0, False)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a minimum-distortion search.

    optimal is False only when a node budget ran out before the search
    could prove its incumbent optimal, in which case the correspondence is
    the best incumbent and its distortion an upper bound.
    min_distortion_strong_correspondence runs no search: its results read
    optimal True and nodes 0.
    """

    correspondence: Correspondence
    distortion: ExactValue
    optimal: bool
    nodes: int


class _NoLeafAtStart(MethodDisagreementError):
    """A seeded search accepted no leaf: its starting bound lies below the
    minimum. A caller that seeds at a proven lower bound, which may be
    below the minimum, catches this; any other seed that raises it names a
    disagreement."""


# A partner subset, its points ascending, with its bitmask.
_Subset = tuple[tuple[int, ...], int]

# Both subset orders of m points are kept for m <= _ORDERS_MAX, 12 = the
# product cap 36 / 3, each below 1 MB. Past it only a pair with one side of
# two points, or a budgeted search, needs them, and each such search builds
# its own. At most _ORDERS_MAX sizes are kept, and no caller changes them.
_ORDERS_MAX = 12
_ORDERS: dict[int, tuple[tuple[_Subset, ...], tuple[_Subset, ...]]] = {}


def _subset_orders(m: int) -> tuple[tuple[_Subset, ...], tuple[_Subset, ...]]:
    """Every nonempty subset of m points with its bitmask, in the two orders
    of the classical search, in O(2^m * m).

    The first is prefix-first order, (0), (0,1), (0,1,2), ..., (1), (1,2),
    ..., the ascending order of the subsets as tuples. The second lists
    each subset after all of its extensions, (0,1,2), (0,1), (0,2), (0),
    (1,2), .... Each subset lists its points ascending. Both orders are
    built from the largest point down: if P and I are the two orders of
    the subsets of the points above a, then the subsets of the points from
    a up are (a,), then (a,) + s for s in P, then P, in the first order,
    and (a,) + s for s in I, then (a,), then I, in the second. order holds
    the second as positions in the first, so both hold the same entry
    objects.
    """
    last: list[_Subset] = []
    order: list[int] = []
    for a in reversed(range(m)):
        head, bit, size = (a,), 1 << a, len(last)
        last = [(head, bit), *[(head + s, bit | k) for s, k in last], *last]
        order = [*[i + 1 for i in order], 0, *[i + size + 1 for i in order]]
    return tuple(last), tuple(map(last.__getitem__, order))


class _FarMasks(dict):
    """The far-partner bitmasks of one classical search on grid, by cutoff,
    an int over grid.den: self[cutoff][v][a] is the bitmask of the points
    b of y whose gap |x.values[v] - d_Y(a, b)|, scaled, is >= cutoff. A
    pair (i, j) of x reads the row of its distance, x.ranks[i][j], and row
    0, x's distance 0, masks the points of y at distance >= cutoff from a.

    The point masks of y, _y_masks[w][a] the bitmask of the points b with
    d_Y(a, b) = y.values[w], are made once with the table. Each row is the
    OR of the point masks over the w whose gap against v reaches the
    cutoff (all zero when none does), so a cutoff costs
    O(|V_X| * |V_Y| * m) int operations, however many points x has. A
    cutoff is built on first use and kept for the rest of the search.
    """

    def __init__(self, grid: BreakpointGrid):
        y = grid.y
        self._gap = grid._gap
        self._zero = zero = [0] * len(y)
        self._y_masks = y_masks = [zero.copy() for _ in y.values]
        # The ranks are symmetric, so row b adds b's bit to the mask of
        # each a at its distance from b, each bit once.
        bit = 1
        for row in y.ranks:
            for a, w in enumerate(row):
                y_masks[w][a] += bit
            bit += bit

    def __missing__(self, cutoff: int) -> list[list[int]]:
        rows = self[cutoff] = []
        for by_y in self._gap:
            row = self._zero
            for w, r in enumerate(by_y):
                if r >= cutoff:
                    row = list(map(or_, row, self._y_masks[w]))
            rows.append(row)
        return rows


# A search's leaf: the correspondence, its distortion as an int over the
# grid's den, optimal and nodes, the fields of a SearchResult.
_Leaf = tuple[Correspondence, int, bool, int]


def _search(
    grid: BreakpointGrid,
    budget: Optional[int],
    product_cap: int,
    start: Optional[int] = None,
) -> _Leaf:
    """Minimum distortion over the correspondences of grid's pair, as a
    leaf: the correspondence, its distortion as a grid int, optimal and
    nodes. No ExactValue is made on the way; min_distortion_correspondence
    wraps the leaf into a SearchResult, and the engine makes only the
    numbers its report shows.

    The search stops at its first leaf at or below the grid's merge-height
    floor, a proven lower bound on the minimum. When a budget runs out
    before the first leaf, the full product is the leaf, optimal exactly
    when its distortion is the floor.

    Each left point is one level of the search. A node is a generator
    that yields each child it opens as a new generator, none of whose code
    has run yet. The search keeps the generators of the open nodes on one
    explicit stack, and one loop runs them, so no node runs inside another
    and the search runs at any depth. The loop counts the nodes and stops
    when the budget runs out or when a leaf reaches the floor.

    Every number is the grid's int over grid.den. Every test against the
    incumbent cutoff is a bitmask test on the search's far masks
    (_FarMasks) at that cutoff, so a node reads no gap. Exact gaps are
    read by _distortion_ranks, the distortion of every relation check,
    once for each leaf accepted, with the distortion of each prefix of its
    partner sets. The nodes open at that moment lie on the leaf's path,
    so when the cutoff falls at one of them, the distortion of the pairs
    chosen above it is the leaf's prefix at its level, and the node ends
    when that reaches the new cutoff. The partner subsets come in two
    orders that depend only on |Y| (_subset_orders).

    start, a grid int given only without a budget, seeds the incumbent
    cutoff at start + 1 in place of just above the full product's
    distortion, so only leaves of distortion at most start are accepted.
    No leaf lies below the minimum, and the pruning drops only branches
    with no leaf below the cutoff, so when start is at or above the
    minimum the first leaf accepted is still the first optimal leaf in
    search order, and the search goes on past it as an unseeded one does:
    the same result, proved by the search alone. A search seeded below the minimum accepts
    no leaf and raises _NoLeafAtStart, a MethodDisagreementError.
    """
    x, y = grid.x, grid.y
    n, m = len(x), len(y)
    # The full product is always a correspondence, always strong, and its
    # distortion is exactly the larger diameter, the largest any leaf can
    # have.
    full = max(grid.wx[-1], grid.wy[-1])
    if n == 1 or m == 1:
        # Covering forces the full product, the unique correspondence here.
        return full_product(x, y), full, True, 0
    if budget is None and n * m > product_cap:
        raise SearchSpaceTooLargeError(
            f"|X|*|Y| = {n * m} exceeds the cap {product_cap}; pass a budget "
            "to search anyway"
        )

    # Each partner subset with its bitmask, in two orders. Complete pair
    # sequences compare like Python tuples, where a strict prefix sorts
    # first. At the final left point nothing follows the block of its
    # pairs, so the prefix-first order visits leaves in ascending pair-set
    # order. At a non-final left point a longer partner block sorts before
    # its prefixes: the shorter branch continues with pairs of the next
    # left point, and any (k, y) precedes every (k+1, y').
    orders = _ORDERS.get(m)
    if orders is None:
        orders = _subset_orders(m)
        if m <= _ORDERS_MAX:
            _ORDERS[m] = orders
    last_level, inner_level = orders
    full_mask = (1 << m) - 1
    far_masks = _FarMasks(grid)

    # The incumbent starts just above the full product's distortion (or
    # above start), so the search records the first leaf in search order
    # it accepts and then only strictly better ones: it ends on the first
    # optimal leaf, the lexicographically smallest optimal pair set. A leaf
    # at or below the merge-height floor is that first optimal leaf, so the
    # search stops there.

    best = (full if start is None else start) + 1
    best_pairs: Optional[list[tuple[int, int]]] = None
    # prefix[k]: the distortion of the first k partner sets of the latest
    # leaf accepted, which every open node's chosen sets are a prefix of.
    prefix: list[int] = []

    chosen: list[tuple[int, ...]] = []

    def node(level: int, covered: int, cutoff: int,
             far: list[list[int]], bar: list[int]):
        # far = far_masks[cutoff]: far[x.ranks[i][j]][a] is the bitmask of
        # the partners b of j whose gap against the pair (i, a) reaches the
        # cutoff. far[0] is the row of x's distance 0, so y_far[a] masks
        # the points of y at distance >= cutoff from a; by the strong
        # triangle inequality a set's diameter is its largest distance from
        # any one of its members, so a set reaches the cutoff exactly when
        # it meets y_far of its lowest point. bar[k]: bitmask of the
        # partners of left point level + k that some chosen pair already
        # puts at or past the cutoff. The chosen pairs lie below the
        # cutoff. The parent's forward check passes far and bar down at its
        # cutoff; they are rebuilt here only once best has moved.
        nonlocal best, best_pairs, prefix
        last = level == n - 1
        missing = full_mask & ~covered
        later = x.ranks[level][level + 1:]  # the distances to later left points
        y_far = far[0]
        for sub, mask in (last_level if last else inner_level):
            if cutoff != best:
                cutoff = best
                far = far_masks[cutoff]
                if prefix[level] >= cutoff:
                    # Every candidate here would reach the cutoff.
                    return
                y_far = far[0]
                bar = [0] * (n - level)
                for i in range(level):
                    for k, fij in enumerate(map(far.__getitem__, x.ranks[i][level:])):
                        for a in chosen[i]:
                            bar[k] |= fij[a]
            # bar[0] excludes every b whose gap against a chosen pair
            # reaches the cutoff, y_far every subset whose own diameter does.
            if mask & bar[0] or mask & y_far[sub[0]]:
                continue
            if last:
                if (mask & missing) != missing:
                    continue
                # The pairs (i, b), b in the partner set of i, ascending.
                best_pairs = [(i, b) for i, si in enumerate([*chosen, sub]) for b in si]
                prefix = _distortion_ranks(grid, best_pairs)
                best = prefix[-1]
                if best <= grid.floor:
                    return
                continue
            # Forward check against the cutoff: each later left point needs
            # an open partner, and each uncovered right point an open later
            # left point. A right point open to one later point only is
            # forced into its partner set. The barred masks are the child's
            # bar.
            child_bar = []
            once = twice = 0
            ok = True
            for k, v in enumerate(later, 1):
                d = bar[k]
                fj = far[v]
                for a in sub:
                    d |= fj[a]
                if d == full_mask:
                    ok = False
                    break
                child_bar.append(d)
                o = full_mask ^ d
                twice |= once & o
                once |= o
            if not ok:
                continue
            uncovered = missing & ~mask
            if uncovered & ~once:
                continue
            forced = uncovered & ~twice
            if forced and any(s & y_far[(s & -s).bit_length() - 1]
                              for s in (forced & ~d for d in child_bar) if s):
                continue
            chosen.append(sub)
            yield node(level + 1, covered | mask, cutoff, far, child_bar)
            chosen.pop()

    # Each child opened is a node, counted before any of its code runs;
    # past budget the search stops. A node that ends hands control back to
    # its parent, unless best has reached the floor: after a leaf there,
    # or in a search seeded below the floor, which can accept no leaf.
    optimal, nodes, stack = True, 0, []
    child = node(0, 0, best, far_masks[best], [0] * n)
    while True:
        if child is not None:
            nodes += 1
            if budget is not None and nodes > budget:
                optimal = False
                break
            stack.append(child)
        else:
            stack.pop()
            if best <= grid.floor or not stack:
                break
        child = next(stack[-1], None)

    if best_pairs is None:
        if start is not None:
            raise _NoLeafAtStart(
                f"no correspondence has distortion at most {ExactValue(start, grid.den)}, "
                "the search's starting bound"
            )
        # The budget ran out before the first leaf. The full product is
        # still optimal when its distortion is the floor.
        return full_product(x, y), full, full <= grid.floor, nodes
    # Left points ascend and each partner subset lists its points
    # ascending, so the pairs ascend; every leaf covers both sides.
    return Correspondence._sorted(x, y, tuple(best_pairs)), best, optimal, nodes


def min_distortion_correspondence(
    x: UltrametricSpace,
    y: UltrametricSpace,
    budget: Optional[int] = None,
    *,
    product_cap: int = DEFAULT_PRODUCT_CAP,
) -> SearchResult:
    """Exact minimum distortion over all correspondences.

    Branch-and-bound over per-left-point partner subsets, pruning branches
    whose partial distortion already reaches the incumbent, or that leave a
    later point no partner set below it. Each such test is a bitmask test
    on the search's far masks at the incumbent; the exact distortion is read
    only for the leaves the search accepts. The merge-height bound
    (BreakpointGrid.distortion_floor) is a global floor: the search stops
    at the first leaf that reaches it. Ties are broken toward the
    lexicographically smallest pair set, and the floor changes no result,
    only the nodes spent proving it optimal.
    """
    _check_budget(budget)
    _check_budget(product_cap, "product_cap", optional=False)
    grid = BreakpointGrid(x, y)
    corr, k, optimal, nodes = _search(grid, budget, product_cap)
    return SearchResult(corr, ExactValue(k, grid.den), optimal, nodes)


def _check_budget(budget: Optional[int], name: str = "budget", optional: bool = True) -> None:
    """Refuse a node budget other than None or an int of at least 0, as
    the CLI does: a bool or any other type raises TypeError, a negative
    int ValueError. dhat_gh, classical_gh and both min_distortion entries
    check it once, at their entry; classical_gh and both min_distortion
    entries check their product_cap the same way, with optional False, so
    that None is refused too."""
    if budget is None and optional:
        return
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise TypeError(f"{name} must be an int{' or None' * optional}, not {budget!r}")
    if budget < 0:
        raise ValueError(f"{name} must not be negative, got {budget}")
