"""Validated finite ultrametric spaces and their intrinsic geometry.

A space is a list of labelled points with a symmetric, exact-rational
distance matrix satisfying the strong triangle inequality
d(x,z) <= max(d(x,y), d(y,z)). A space stores that matrix once, as its
sorted distinct distances plus a matrix of ranks into them, so its diameter
and whole-space spectrum cost nothing after loading. Spaces are immutable
once validated and all operations here are pure, so instances can be shared
freely.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress, zip_longest
from math import lcm
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .exact import ExactValue, ZERO, Coercible
from .errors import (
    AsymmetricMatrixError,
    EmptySubsetError,
    IndexOutOfRangeError,
    NonzeroDiagonalError,
    SpaceValidationError,
    UltrametricViolationError,
    ZeroOffDiagonalError,
)


class UltrametricSpace:
    """A finite ultrametric space. Construct through validate_space,
    parse_space or a generator.

    values holds the distinct distances, zero first, strictly increasing,
    and ranks the distance matrix as indices into values, so the diameter
    and the whole-space spectrum are read off values without a scan.
    _tree is the space's dendrogram (_Dendrogram), its heights as ranks,
    kept from the ball-splitting pass that validated the space (an induced
    subspace runs that pass on its own ranks): the merge heights and the
    closed-ball quotients are read off it. _merges holds its merge heights
    as ranks, largest first (_merge_heights), made with the space and read
    by the merge-height floor of every grid it is in. Nothing writes a
    slot after construction. Equality and hashing ignore both, since the
    matrix determines them.
    """

    __slots__ = ("labels", "values", "ranks", "inexact", "_tree", "_merges")

    def __init__(self, labels, values, ranks, inexact, tree, _token=None):
        if _token is not _CONSTRUCTION_TOKEN:
            raise TypeError("use validate_space() to build an UltrametricSpace")
        self.labels: tuple[str, ...] = labels
        self.values: tuple[ExactValue, ...] = values
        self.ranks: tuple[tuple[int, ...], ...] = ranks
        self.inexact: bool = inexact
        self._tree: _Dendrogram = tree
        self._merges: list[int] = _merge_heights(tree)

    def __len__(self) -> int:
        return len(self.labels)

    def dist(self, i: int, j: int) -> ExactValue:
        return self.values[self.ranks[i][j]]

    def matrix(self) -> tuple[tuple[ExactValue, ...], ...]:
        at = self.values.__getitem__
        return tuple(tuple(map(at, row)) for row in self.ranks)

    def diameter(self) -> ExactValue:
        return self.values[-1]

    def distance_values(self) -> tuple[ExactValue, ...]:
        """Sorted distinct nonzero distances of the whole space."""
        return self.values[1:]

    def check_index(self, i: int) -> None:
        if not _is_point(i, len(self)):
            raise IndexOutOfRangeError(f"point index {i} out of range for {len(self)} points")

    def __eq__(self, other) -> bool:
        if not isinstance(other, UltrametricSpace):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.values == other.values
            and self.ranks == other.ranks
            and self.inexact == other.inexact
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.values, self.ranks, self.inexact))

    def __repr__(self) -> str:
        flag = ", inexact" if self.inexact else ""
        return f"UltrametricSpace({len(self)} points{flag})"


_CONSTRUCTION_TOKEN = object()


def _is_point(i, n: int) -> bool:
    """True iff i is a point index of an n-point space: an int, not a bool,
    in range. The type is read first, so an unhashable or unorderable i is
    never compared."""
    return isinstance(i, int) and not isinstance(i, bool) and 0 <= i < n


@dataclass(frozen=True)
class WeightSpectrum:
    """The set of distinct nonzero distances among points of a subset.

    values is strictly increasing; min_value/max_value are None when empty.
    """

    values: tuple[ExactValue, ...]

    @property
    def min_value(self) -> Optional[ExactValue]:
        return self.values[0] if self.values else None

    @property
    def max_value(self) -> Optional[ExactValue]:
        return self.values[-1] if self.values else None

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)


def validate_space(
    matrix: Sequence[Sequence[Coercible]],
    labels: Optional[Sequence[str]] = None,
    *,
    inexact: bool = False,
) -> UltrametricSpace:
    """Validate a square distance matrix and return the immutable space.

    Checks run in a fixed order and report the lexicographically first
    violating pair or triple: diagonal/symmetry/positivity over index pairs
    (row by row, each row's diagonal entry before its entries right of it),
    then the strong triangle inequality over all ordered triples of distinct
    indices.

    The entries are coerced and ranked here, and the pairwise checks run on
    the ranks; the rest is the rank-level core parse_space shares
    (_checked_space): the strong triangle inequality decided in O(n^2) by
    splitting closed balls (_split_tree). Only when that test rejects
    does the O(n^3) triple scan run, to name the first violating triple.
    """
    n = len(matrix)
    if n == 0:
        raise SpaceValidationError("a space needs at least one point")
    rows = []
    interned: dict = {}
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise SpaceValidationError(f"row {i} has length {len(row)}, expected {n}")
        rows.append(_coerced(row, interned))
    labels = _checked_labels(labels, n)

    distinct, rk = _ranked(rows)
    zero = 0 if distinct[0] == ZERO else -1

    cols = tuple(zip(*rk))
    for i in range(n):
        ri = rk[i]
        if ri[i] != zero:
            raise NonzeroDiagonalError(i, rows[i][i])
        right = ri[i + 1:]
        if right != cols[i][i + 1:] or zero in right:
            j = next(j for j in range(i + 1, n) if ri[j] != rk[j][i] or ri[j] == zero)
            if ri[j] != rk[j][i]:
                raise AsymmetricMatrixError(i, j, rows[i][j], rows[j][i])
            raise ZeroOffDiagonalError(i, j)
    return _checked_space(labels, distinct, rk, inexact)


def _checked_labels(labels: Optional[Sequence[str]], n: int) -> tuple[str, ...]:
    labels = tuple(map(str, range(n) if labels is None else labels))
    if len(labels) != n:
        raise SpaceValidationError(f"{len(labels)} labels for {n} points")
    if len(set(labels)) != n:
        raise SpaceValidationError("labels must be distinct")
    return labels


def _checked_space(
    labels: tuple[str, ...],
    values: tuple[ExactValue, ...],
    ranks: tuple[tuple[int, ...], ...],
    inexact: bool,
) -> UltrametricSpace:
    """The space of a rank matrix into values, which rise strictly from
    ZERO, after the check that remains: the strong triangle inequality by
    _split_tree, whose dendrogram the space keeps. The matrix must be
    symmetric with a zero diagonal. _split_tree also rejects a zero off
    the diagonal, so only a rejected matrix is scanned, first for the
    first such zero in row-major order, then by the O(n^3) scan naming
    the first violating triple. validate_space, parse_space,
    induced_subspace and the generators all end here."""
    tree = _split_tree(ranks)
    if tree is None:
        for i, row in enumerate(ranks):
            if 0 in row[i + 1:]:
                raise ZeroOffDiagonalError(i, row.index(0, i + 1))
        _raise_first_violation(values, ranks)
        raise RuntimeError(
            "ball splitting rejected a matrix in which the triple scan "
            "found no violation"
        )
    return UltrametricSpace(labels, values, ranks, bool(inexact), tree,
                            _token=_CONSTRUCTION_TOKEN)


def _coerced(row: Sequence[Coercible], interned: dict) -> tuple[ExactValue, ...]:
    """The row as ExactValues. Other entries are coerced once per (type,
    value) of the matrix, so fresh ints, strings or Fractions share one
    object per value, as the rows of matrix() do, and _ranked hashes each
    value once. ExactValue entries pass through unhashed. The type in the
    key keeps a float 1.0 after an int 1 from skipping coerce's TypeError."""
    out = []
    for v in row:
        if not isinstance(v, ExactValue):
            key = (type(v), v)
            value = interned.get(key)
            if value is None:
                value = interned[key] = ExactValue.coerce(v)
            v = value
        out.append(v)
    return tuple(out)


def _ranked(
    rows: Sequence[Sequence[ExactValue]],
) -> tuple[tuple[ExactValue, ...], tuple[tuple[int, ...], ...]]:
    """The distinct entries of a square matrix, strictly increasing, and the
    matrix as ranks into them. A matrix built from a space's values, as
    matrix() and the glued spaces are, shares one object per value, so
    entries are deduplicated by identity before any rational is hashed."""
    n = len(rows)
    entries = list(chain.from_iterable(rows))
    ids = list(map(id, entries))
    by_id = dict(zip(ids, entries))
    distinct = tuple(sorted(set(by_id.values())))
    rank = {v: k for k, v in enumerate(distinct)}
    rank_of_id = {key: rank[v] for key, v in by_id.items()}
    flat = list(map(rank_of_id.__getitem__, ids))
    return distinct, tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


class _Dendrogram(NamedTuple):
    """The dendrogram of an n-point ultrametric: its closed balls as nodes.

    Points are nodes 0..n-1, at height 0 with no children. Internal node
    n + k has height heights[k], the ball's diameter as a rank of the
    space, and children[k], the node ids of its maximal proper closed
    sub-balls. Internal nodes are numbered in the order the splitting
    creates them, the whole space n first, so a parent comes before its
    children and a walk from the last node back is bottom up. A
    one-point space has no internal node. parent and first hold, for
    every node, its parent's id (-1 for the root) and the least point of
    its ball, both filled as the splitting makes the node.
    """

    heights: list[int]
    children: list[list[int]]
    parent: list[int]
    first: list[int]


def _split_tree(rk: Sequence[Sequence[int]]) -> Optional[_Dendrogram]:
    """The dendrogram of a symmetric rank matrix with a zero diagonal, or
    None when the matrix is not ultrametric or holds a zero off the
    diagonal; O(n^2).

    Closed balls are split from the whole space down, each in one step
    into its maximal proper sub-balls. A ball S has diameter M, the largest
    rank in its first point's row within S. Its sub-balls come off one by
    one: the first point s of what is left, R, takes its ball
    {x in R : d(s, x) < M}, and the rest, {x in R : d(s, x) = M}, is what
    is left next; no entry of s's row within R may exceed M, and a rest
    whose first point sees nothing at M is one more sub-ball, whole, so
    the splitting fixes a leaf order. Every entry between a ball and its
    rest must be M. In an ultrametric S is a closed ball of diameter M and
    every point of a rest is at M from every point of the ball before it,
    so the test accepts; and when it accepts, each sub-ball and the rest
    after it sit at exactly M from each other with diameters at most M, so
    every ball, the whole space included, is ultrametric. Each off-diagonal
    pair is read once, at the split that separates it: s's pairs in the
    row that splits R, the others by an itemgetter over the rows of the
    smaller side. Balls wait on an explicit stack, so a chain of n nested
    balls needs no recursion.

    A ball popped from the stack is a new node, a child of the ball it
    came off, made before its own sub-balls: clusters list their points
    ascending, so the ball's first point is the node's first point. A
    sub-ball of one point is a child at once; the others are pushed in
    the order they come off, so they become nodes, and children, in
    reverse. So a node's children are its maximal proper closed sub-balls,
    and a node with k children is k - 1 merges at its height (single
    linkage; _merge_heights).
    """
    n = len(rk)
    if n == 1:
        return _Dendrogram([], [], [-1], [0])
    tree = heights, children, parent, first = _Dendrogram([], [], [-1] * n, list(range(n)))
    row_of = rk.__getitem__
    # (ball, the node id of the ball it came off, -1 for the whole space,
    # and its first point's entries within it, None until they are read)
    stack = [(list(range(n)), -1, None)]
    while stack:
        rest, up, near = stack.pop()
        s = rest[0]
        if near is None:
            near = list(map(rk[s].__getitem__, rest))
        m = max(near)
        if not m:
            return None  # a zero off the diagonal: the ball would be empty
        node = n + len(heights)
        heights.append(m)
        kids = []
        children.append(kids)
        parent.append(up)
        first.append(s)
        if up >= 0:
            children[up - n].append(node)
        while True:
            if near.count(m) == len(near) - 1:
                kids.append(s)  # s's ball is s alone
                parent[s] = node
                rest = rest[1:]
            else:
                ball = list(compress(rest, map(m.__gt__, near)))
                rest = list(compress(rest, map(m.__eq__, near)))
                stack.append((ball, node, None))
                # near holds s's entries; check the others'.
                others = ball[1:]
                small, large = (others, rest) if len(others) < len(rest) else (rest, others)
                seen = map(itemgetter(*large), map(row_of, small))
                if len(large) > 1:
                    seen = chain.from_iterable(seen)
                seen = list(seen)
                if seen.count(m) != len(seen):
                    return None
            if len(rest) == 1:
                kids.append(rest[0])
                parent[rest[0]] = node
                break
            s = rest[0]
            near = list(map(rk[s].__getitem__, rest))
            top = max(near)
            if top != m:
                if top > m:
                    return None
                stack.append((rest, node, near))  # the rest is one sub-ball
                break
    return tree


def _merge_heights(tree: _Dendrogram) -> list[int]:
    """The n - 1 merge heights of a dendrogram, largest first: a node with
    k children contributes k - 1 copies of its height. The space has
    1 + #{k : h[k] > t} closed t-balls."""
    heights: list[int] = []
    for h, kids in zip(tree.heights, tree.children):
        heights += [h] * (len(kids) - 1)
    heights.sort(reverse=True)
    return heights


def _raise_first_violation(
    values: Sequence[ExactValue], rk: Sequence[Sequence[int]]
) -> None:
    """Raise UltrametricViolationError for the lexicographically first
    ordered triple (i, j, k) with d(i,k) > max(d(i,j), d(j,k)); O(n^3)."""
    n = len(rk)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            rij = rk[i][j]
            rowj = rk[j]
            rowi = rk[i]
            for k in range(n):
                if k == i or k == j:
                    continue
                rjk = rowj[k]
                bound = rij if rij >= rjk else rjk
                if rowi[k] > bound:
                    raise UltrametricViolationError(
                        i, j, k, values[rij], values[rjk], values[rowi[k]]
                    )


def _normalize_subset(space: UltrametricSpace, subset: Iterable[int]) -> tuple[int, ...]:
    if not isinstance(subset, (tuple, list)):
        # A one-shot iterator is read once, so a failed sort below still
        # has its points to name the bad index from.
        subset = tuple(subset)
    try:
        pts = sorted(set(subset))
    except TypeError:
        # An index that does not order against the others: name the first
        # bad one in input order, as is_correspondence does.
        for i in subset:
            space.check_index(i)
        raise
    if not pts:
        raise EmptySubsetError("subset must be nonempty")
    for i in pts:
        space.check_index(i)
    if len(pts) < len(subset) and bool in map(type, subset):
        # The set merged a bool into the int it equals: name the first.
        space.check_index(next(i for i in subset if type(i) is bool))
    return tuple(pts)


def induced_subspace(space: UltrametricSpace, subset: Iterable[int]) -> UltrametricSpace:
    """Restriction of the space to a subset of points; validity is inherited,
    so its ranks are the space's, renumbered over the values they use, and
    the core only builds its dendrogram."""
    pts = _normalize_subset(space, subset)
    labels = tuple(space.labels[i] for i in pts)
    sub = [tuple(map(space.ranks[i].__getitem__, pts)) for i in pts]
    used = sorted(set(chain.from_iterable(sub)))
    renumber = dict(zip(used, range(len(used)))).__getitem__
    ranks = tuple(tuple(map(renumber, row)) for row in sub)
    values = tuple(map(space.values.__getitem__, used))
    return _checked_space(labels, values, ranks, space.inexact)


def hausdorff_distance(
    space: UltrametricSpace, a: Iterable[int], b: Iterable[int]
) -> ExactValue:
    """Hausdorff distance between two subsets of one space.

    max( sup_{x in A} dist(x, B), sup_{y in B} dist(y, A) ); exact because
    the sets are finite. Ranks order like the distances they index, so
    both sup-min terms are taken over the space's ranks.
    """
    pa = _normalize_subset(space, a)
    pb = _normalize_subset(space, b)
    rk = space.ranks
    return space.values[max(
        max(min(map(rk[i].__getitem__, pb)) for i in pa),
        max(min(map(rk[j].__getitem__, pa)) for j in pb),
    )]


def _checked_eps(eps: Coercible) -> ExactValue:
    """eps as an ExactValue, checked once by every public function that
    takes one: a bool raises TypeError, as a float does in
    ExactValue.coerce, and a value that is not positive ValueError."""
    if isinstance(eps, bool):
        raise TypeError(f"eps must be a rational, not {eps!r}")
    eps = ExactValue.coerce(eps)
    if eps <= ZERO:
        raise ValueError("eps must be positive")
    return eps


def is_epsilon_net(space: UltrametricSpace, s: Iterable[int], eps: ExactValue) -> bool:
    """True iff every point is at distance strictly less than eps from s.

    The points within eps of a point form its open eps-ball, so s is an
    eps-net exactly when it meets every open eps-ball: the dendrogram's
    closed balls at the largest rank below eps (_closed_balls), read in
    O(n) with no row scan.
    """
    eps = _checked_eps(eps)
    pts = _normalize_subset(space, s)
    balls = _closed_balls(space._tree, bisect_left(space.values, eps) - 1)
    return len(set(map(balls.class_of.__getitem__, pts))) == len(balls.classes)


def ball_partition(space: UltrametricSpace, eps: ExactValue) -> tuple[tuple[int, ...], ...]:
    """Partition into open balls of radius eps.

    In an ultrametric space the open balls {d(x, .) < eps} either coincide or
    are disjoint. Classes are listed by ascending representative, points
    ascending inside. The distances below eps are the ranks up to
    bisect_left(values, eps) - 1, so the classes are the dendrogram's
    closed balls at that rank (_closed_balls), read with no row scan.
    """
    eps = _checked_eps(eps)
    balls = _closed_balls(space._tree, bisect_left(space.values, eps) - 1)
    return tuple(map(tuple, balls.members))


class _Balls(NamedTuple):
    """The closed balls of a dendrogram's space at one rank r.

    classes lists the class nodes, the maximal nodes of height at most r,
    one per closed r-ball, by first point; members the points of each
    class, ascending; class_of the index into classes of each point's
    class; and height the largest diameter of a ball, as a rank, 0 when
    every ball is a point.
    """

    classes: list[int]
    members: list[list[int]]
    class_of: list[int]
    height: int


def _closed_balls(tree: _Dendrogram, r: int) -> _Balls:
    """The _Balls of the dendrogram at rank r, in O(n) and one pass over
    the nodes: they are walked parents first, so a node at or below r
    hands its class node to its children, with no recursion, and the
    tallest of them, each lying in a ball, is the height. One dict then
    numbers the class nodes as the points meet them."""
    heights, children = tree.heights, tree.children
    n = len(tree.first) - len(heights)
    label = list(range(len(tree.first)))  # the class node at or above each node
    height = 0
    for k, h in enumerate(heights):
        if h <= r:
            if h > height:
                height = h
            top = label[n + k]
            for child in children[k]:
                label[child] = top
    # A class first shows at its first point, so the points in order list
    # the classes by first point.
    index: dict[int, int] = {}
    class_of = [index.setdefault(v, len(index)) for v in label[:n]]
    members: list[list[int]] = [[] for _ in index]
    for point, i in enumerate(class_of):
        members[i].append(point)
    return _Balls(list(index), members, class_of, height)


def ball_representatives(space: UltrametricSpace, eps: ExactValue) -> tuple[int, ...]:
    """Smallest-index representative of each open eps-ball; a minimal eps-net."""
    return tuple(c[0] for c in ball_partition(space, eps))


def weight_spectrum(
    space: UltrametricSpace, subset: Optional[Iterable[int]] = None
) -> WeightSpectrum:
    """Distinct nonzero distances among points of the subset (default: all),
    a subset's read off the set of ranks between its points."""
    if subset is None:
        return WeightSpectrum(space.values[1:])
    pts = _normalize_subset(space, subset)
    rk = space.ranks
    ranks = {rk[p][q] for a, p in enumerate(pts) for q in pts[a + 1:]}
    return WeightSpectrum(tuple(map(space.values.__getitem__, sorted(ranks))))


def spectra_lower_bound(x: UltrametricSpace, y: UltrametricSpace) -> ExactValue:
    """Largest distance value the two whole-space spectra disagree on.

    Zero when the spectra are identical. Filtering both spectra at any
    threshold strictly above this value makes them equal as sets, and at the
    value itself (when positive) they still differ, so it is exactly
    inf { eps > 0 : W_X(X)_{>=eps} = W_Y(Y)_{>=eps} }.

    Both spaces store {0} ∪ W sorted, so one walk down both from the top
    finds it, hashing no value: above the first position where the two
    sides differ they agree, and there the larger of the two values lies in
    one spectrum only. Both walks end at 0, so neither side runs out while
    the other still holds a value: with no difference the spectra are
    equal.

    This is the one spectra bound: dhat_gh reports it, the quotient walk
    (isometries._certified_quotient) starts its cuts from it, and the CLI
    prints it. Spectra {1, 2} and {2} differ first at 1, {1, 2} and
    {1, 3} at 3, and equal spectra give 0:

    >>> x = validate_space([[0, 1, 2], [1, 0, 2], [2, 2, 0]])
    >>> y = validate_space([[0, 2], [2, 0]])
    >>> z = validate_space([[0, 1, 3], [1, 0, 3], [3, 3, 0]])
    >>> spectra_lower_bound(x, y), spectra_lower_bound(x, z), spectra_lower_bound(y, y)
    (ExactValue(1/1), ExactValue(3/1), ExactValue(0/1))
    """
    for a, b in zip(reversed(x.values), reversed(y.values)):
        if a != b:
            return a if a > b else b
    return ZERO


_DENOMINATOR = attrgetter("_denominator")


class BreakpointGrid:
    """The exact numbers every check, quotient cut and search over a pair
    needs, as ints over one common denominator.

    den is the lcm of the denominators of both spaces' values, and wx and
    wy are each space's {0} ∪ W (its stored values, ascending) as ints
    over den: a distance read as wx[r] from a rank r of x is
    x.values[r] * den. Scaling by den is strictly increasing, so a
    distance compares with another space's distance, with a gap, or with
    any eps (k < eps exactly when k < ceil(eps * den)) as a plain int, and
    every comparison, max and cutoff on the ints is the one on the values.
    _gap[r][s] = |wx[r] - wy[s]| is the gap between a distance of x and
    one of y, indexed by the two spaces' own ranks. Since wx[0] = wy[0] = 0
    the gaps include both sets, so they are the whole grid: 0, both
    whole-space spectra and every |a - b|, the largest the larger
    diameter. An ExactValue(k, den) is made only where a value is
    reported, and thresholds() sorts the grid only when asked. Every check
    compares grid values with eps strictly, so it depends on eps only
    through that cut and is constant on each half-open cell
    (t_{k-1}, t_k] of thresholds(). Building the grid scans no distance
    matrix. x and y are the pair.

    floor is the merge-height lower bound on the distortion of every
    correspondence (distortion_floor()), computed once with the grid from
    the merge heights each space keeps, for the classical search and the
    quotient walk of every call on it. Every slot is set here, and nothing
    writes one later, so one grid serves every step of a call.
    """

    __slots__ = ("x", "y", "den", "wx", "wy", "floor", "_gap")

    def __init__(self, x: UltrametricSpace, y: UltrametricSpace):
        self.x, self.y = x, y
        # The terms are read from Fraction's own slots: its properties are
        # Python calls.
        self.den = den = lcm(*map(_DENOMINATOR, chain(x.values, y.values)))
        self.wx = wx = [v._numerator * (den // v._denominator) for v in x.values]
        self.wy = wy = [v._numerator * (den // v._denominator) for v in y.values]
        self._gap = [[abs(a - b) for b in wy] for a in wx]
        self.floor: int = self.distortion_floor()

    def distortion_floor(self) -> int:
        """δ_lb = max_k |h_X[k] - h_Y[k]| as an int over den, a lower bound
        on the distortion of every correspondence between x and y, hence
        on 2·d_GH.

        h_S[1] >= ... >= h_S[|S| - 1] are the merge heights of S, the
        edge weights of a minimum spanning tree, and the shorter list is
        padded with zeros. Proof: let a correspondence have distortion δ
        and let t >= δ. Points in distinct closed t-balls of X are
        pairwise more than t apart, so partners of them are pairwise more
        than t - δ apart and lie in distinct closed (t - δ)-balls of Y:
        N_Y(t - δ) >= N_X(t), N counting closed balls. Since
        N_X(t) = 1 + #{k : h_X[k] > t}, letting t rise to h_X[k] gives
        h_Y[k] >= h_X[k] - δ, and the same holds with x and y swapped.
        The k = 1 term is the diameter gap, so the floor is never below
        it.

        Both height lists are the ones each space made from its
        dendrogram when it was built (UltrametricSpace._merges), as its
        own ranks, largest first. Each term is the gap between a value of
        {0} ∪ W_X and one of {0} ∪ W_Y, so it is read off _gap by the two
        ranks, rank 0 padding the shorter list, and the floor is one plain
        loop over max(n, m) - 1 ints, 0 when both spaces are one point.
        It is a grid int, made an ExactValue only where a report or an
        error shows it. This is the one place the floor is computed, and
        the grid computes it once, as floor.
        """
        gap = self._gap
        best = 0
        for a, b in zip_longest(self.x._merges, self.y._merges, fillvalue=0):
            r = gap[a][b]
            if r > best:
                best = r
        return best

    def thresholds(self) -> tuple[ExactValue, ...]:
        """The grid values, strictly increasing, followed by a sentinel
        strictly above both diameters."""
        den, grid = self.den, sorted(set(chain.from_iterable(self._gap)))
        sentinel = max(self.x.diameter(), self.y.diameter()) + ExactValue(1)
        return tuple(ExactValue(k, den) for k in grid) + (sentinel,)


def candidate_thresholds(x: UltrametricSpace, y: UltrametricSpace) -> tuple[ExactValue, ...]:
    """Breakpoint grid of the pair over epsilon.

    Contains 0, both whole-space spectra, all absolute differences of
    spectrum values (with 0 adjoined on both sides), and a sentinel strictly
    above both diameters. Every predicate of eps that the library checks
    (an eps-net, a strong eps-isometry or eps-approximation, isometric
    quotients by the open eps-balls) is piecewise constant between
    consecutive entries.
    """
    return BreakpointGrid(x, y).thresholds()
