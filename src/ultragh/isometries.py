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
that core once.

Both kinds of witness exist exactly when eps > dhat (Cor. 2.24, 3.7).
exists_strong_epsilon_isometry, exists_strong_epsilon_approximation,
find_split and dhat_gh take them from one greedy isometry between the
closed-ball quotients of the pair (_quotient_witnesses), read off the
dendrograms each space keeps from validation with no recursion, and
checked from the class structure in O(n^2 + m^2): no map or match is
enumerated, at any size or depth.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .exact import ExactValue, ZERO
from .errors import LengthMismatchError, MethodDisagreementError, NotStrongError
from .spaces import BreakpointGrid, UltrametricSpace
from .correspondences import Correspondence, _check_map, _distortion_rank


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
    x: UltrametricSpace, y: UltrametricSpace, eps: ExactValue
) -> Optional[MapWitness]:
    """The lexicographically smallest strong eps-isometry X -> Y, or None.

    One exists exactly when eps > dhat (Cor. 2.24), that is, when the
    quotients by closed c-balls are isometric, c the largest grid value
    below eps, whose closed balls are the open eps-balls. The witness is
    the map of the greedy quotient isometry at c (_quotient_witnesses):
    each point to the first point of its class's partner, the first map a
    search in mixed-radix order (left indices as digit positions, right
    index ascending) accepts. It runs in O(n^2 + m^2), with no search.
    """
    if eps <= ZERO:
        raise ValueError("eps must be positive")
    quotient = _quotient_below(x, y, eps)
    return None if quotient is None else quotient.isometry(eps)


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
    x: UltrametricSpace, y: UltrametricSpace, eps: ExactValue
) -> Optional[ApproximationWitness]:
    """The first strong eps-approximation witness, or None.

    One exists exactly when eps > dhat (Cor. 3.7), that is, when the
    quotients by the open eps-balls, the closed balls at the largest grid
    value c below eps, are isometric. Any eps-net must hit every open
    eps-ball, so the left list is the balls' first points, in order, and
    matched right points sit pairwise at least eps apart. The right list
    is the first points of the balls' partners under the greedy quotient
    isometry at c (_quotient_witnesses): the smallest right list, in
    ascending order, that a strong eps-approximation with this left list
    has. It runs in O(n^2 + m^2), with no search.
    """
    if eps <= ZERO:
        raise ValueError("eps must be positive")
    quotient = _quotient_below(x, y, eps)
    return None if quotient is None else quotient.approximation(eps)


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


def _cell_midpoint(grid: BreakpointGrid, below: int) -> ExactValue:
    """The midpoint of the cell (t_{below-1}, t_below] of grid.thresholds(),
    whose sentinel is made only for the last cell."""
    values = grid.values
    top = values[below] if below < len(values) else grid.thresholds()[below]
    return values[below - 1].midpoint(top)


def _grid_trees(grid: BreakpointGrid):
    """Each space's point count, dendrogram heights as grid ranks and
    children, x's first."""
    return [(len(space), list(map(w.__getitem__, space._tree.heights)),
             space._tree.children)
            for space, w in ((grid.x, grid.wx), (grid.y, grid.wy))]


def _cut_ids(n: int, heights: list[int], children: list[list[int]], c: int,
             ids: dict[tuple[int, tuple[int, ...]], int]) -> list[int]:
    """The id of every node of an n-point dendrogram, its heights as grid
    ranks, cut at rank c: 0 at or below the cut, else the interned pair of
    the height and the children's sorted ids. Ids are given from the last
    node back, children before parents, so no walk recurses."""
    node_id = [0] * (n + len(heights))
    for k in range(len(heights) - 1, -1, -1):
        if heights[k] > c:
            key = (heights[k], tuple(sorted(map(node_id.__getitem__, children[k]))))
            node_id[n + k] = ids.setdefault(key, len(ids) + 1)
    return node_id


def _root_id(n: int, heights: list[int], children: list[list[int]], c: int,
             ids: dict[tuple[int, tuple[int, ...]], int]) -> int:
    """The cut id of the root of the dendrogram (_cut_ids), 0 for a
    one-point space."""
    return _cut_ids(n, heights, children, c, ids)[n] if heights else 0


class _Cut(NamedTuple):
    """A dendrogram cut at a grid rank c, as _quotient_witnesses reads it.
    Nodes are numbered as in _Dendrogram; -1 stands for a virtual parent
    of the root.

    form holds each node's cut id (_cut_ids), parent each node's parent,
    height each node's height as a grid rank (0 for a point) and first
    the least point below each node. classes lists the class nodes, the
    maximal nodes at or below the cut, one per closed c-ball, by first
    point, members the points of each class, ascending, and class_of the
    index into classes of each point's class. root is the root's node.
    """

    form: list[int]
    parent: list[int]
    height: list[int]
    first: list[int]
    classes: list[int]
    members: list[list[int]]
    class_of: list[int]
    root: int


def _cut(n: int, heights: list[int], children: list[list[int]], c: int,
         ids: dict[tuple[int, tuple[int, ...]], int]) -> _Cut:
    """The _Cut at grid rank c of an n-point dendrogram, its heights as
    grid ranks, its forms interned in ids; O(n), walking the tree parents
    first for the classes and back for the first points, with no
    recursion."""
    height = [0] * n + heights
    form = _cut_ids(n, heights, children, c, ids)
    parent = [-1] * len(height)
    label = list(range(len(height)))  # the class node at or above each node
    first = list(range(len(height)))
    for k, kids in enumerate(children):
        v = n + k
        above = height[v] > c
        for child in kids:
            parent[child] = v
            if not above:
                label[child] = label[v]
    for k in range(len(children) - 1, -1, -1):
        first[n + k] = min(map(first.__getitem__, children[k]))
    index: dict[int, int] = {}
    classes: list[int] = []
    members: list[list[int]] = []
    class_of = []
    for point in range(n):
        node = label[point]
        i = index.get(node)
        if i is None:
            i = index[node] = len(classes)
            classes.append(node)
            members.append([])
        members[i].append(point)
        class_of.append(i)
    return _Cut(form, parent, height, first, classes, members, class_of,
                n if children else 0)


class _QuotientWitnesses(NamedTuple):
    """A checked greedy isometry phi between the quotients of grid's pair
    by closed c-balls (_quotient_witnesses), and the witnesses it gives.

    cx and cy are the two cuts at c, xs the first points of X's classes in
    first-point order and ys the first points of their partners. height
    is the largest class height of either side, a grid rank at most c:
    the distortion of the correspondence, and the least value at which
    the matching is a quotient isometry.
    """

    grid: BreakpointGrid
    cx: _Cut
    cy: _Cut
    xs: tuple[int, ...]
    ys: tuple[int, ...]
    height: int

    def correspondence(self) -> Correspondence:
        """The union of A x phi(A), strong, with distortion height."""
        cx, cy = self.cx, self.cy
        rows = [cy.members[cy.class_of[j]] for j in self.ys]
        # Points ascend, and so does each partner class, so the pairs ascend.
        pairs = tuple((i, j) for i, k in enumerate(cx.class_of) for j in rows[k])
        return Correspondence._sorted(self.grid.x, self.grid.y, pairs)

    def isometry(self, eps: ExactValue) -> MapWitness:
        """Each point to the first point of its class's partner, a strong
        eps-isometry at every eps above c. Its distortion is the largest
        class diameter of X: distances across classes are kept."""
        grid, cx = self.grid, self.cx
        return MapWitness(
            grid.x, grid.y, tuple(map(self.ys.__getitem__, cx.class_of)), eps,
            grid.values[max(map(cx.height.__getitem__, cx.classes))],
            is_eps_isometry=True, is_strong_eps_isometry=True, failure=None)

    def approximation(self, eps: ExactValue) -> ApproximationWitness:
        """The classes' first points, paired: a strong eps-approximation
        at every eps above c."""
        return ApproximationWitness(self.xs, self.ys, eps)


def _quotient_below(
    x: UltrametricSpace, y: UltrametricSpace, eps: ExactValue
) -> Optional[_QuotientWitnesses]:
    """_quotient_witnesses at the largest grid value below eps, whose
    closed balls are the open eps-balls: None when eps <= dhat."""
    grid = BreakpointGrid(x, y)
    return _quotient_witnesses(grid, _grid_trees(grid), bisect_left(grid.values, eps) - 1)


def _quotient_witnesses(grid: BreakpointGrid, trees, c: int) -> Optional[_QuotientWitnesses]:
    """One greedy isometry between the quotients of grid's pair by closed
    c-balls, checked, in O(n^2 + m^2); None when the quotients differ at
    c. trees are the pair's dendrograms as _grid_trees gives them.

    The quotients are isometric exactly when the two roots have equal cut
    forms (_cut_ids). The classes are the closed c-balls, read off each
    dendrogram cut at c (_Cut). X's classes are pinned in first-point
    order, each to the free Y class with the least first point whose pin
    is consistent: X's ancestor balls of the class, up to its lowest one
    already mapped, map to unmapped Y balls of equal cut form under that
    one's image, so the mapped balls stay one to one and keep their forms.
    Consistent pins always extend, since balls of equal form have children
    of equal forms. A dict holds the node map from X to Y. Each Y node
    keeps its free children by form, by first point, and a child leaves
    that list when it is mapped, so a pin walks down from the image of the
    class's lowest mapped ancestor only through free balls of the forms it
    needs, and an unmapped ball's whole subtree is free.

    The matching is checked from the class structure, with no gap table
    and no verdict: phi pairs the classes one to one, the distance between
    the first points of two classes is the same on both sides, and no
    class is taller than c. So the quotients are isometric at c, and the
    witnesses (_QuotientWitnesses) are strong. A matching that fails a
    check raises MethodDisagreementError.
    """
    tx, ty = trees
    ids: dict[tuple[int, tuple[int, ...]], int] = {}
    cx, cy = _cut(*tx, c, ids), _cut(*ty, c, ids)
    if cx.form[cx.root] != cy.form[cy.root]:
        return None

    # by_form[b][f]: the free children of Y node b of form f, by first point.
    first_y, form_y, parent_y = cy.first, cy.form, cy.parent
    by_form: dict[int, dict[int, list[int]]] = {-1: {form_y[cy.root]: [cy.root]}}
    m, _, children_y = ty
    for k, kids in enumerate(children_y):
        if form_y[m + k]:
            groups = by_form[m + k] = {}
            for child in sorted(kids, key=first_y.__getitem__):
                groups.setdefault(form_y[child], []).append(child)
    fwd = {-1: -1}
    partner = []
    for a_class in cx.classes:
        # The class and its unmapped ancestors, bottom up, below the
        # lowest mapped ancestor a.
        chain = [a_class]
        a = cx.parent[a_class]
        while a not in fwd:
            chain.append(a)
            a = cx.parent[a]
        wanted = [cx.form[v] for v in reversed(chain)]
        best = None
        for top in by_form[fwd[a]].get(wanted[0], ()):
            if best is not None and first_y[top] >= first_y[best]:
                break
            level = [top]
            for f in wanted[1:]:
                level = [u for v in level for u in by_form[v].get(f, ())]
            found = min(level, key=first_y.__getitem__)
            if best is None or first_y[found] < first_y[best]:
                best = found
        if best is None:
            raise MethodDisagreementError(
                f"greedy class matching found no pin at {grid.values[c]}")
        partner.append(best)
        b = best
        for v in chain:
            fwd[v] = b
            by_form[parent_y[b]][form_y[b]].remove(b)
            b = parent_y[b]

    xs = tuple(cx.first[a] for a in cx.classes)
    ys = tuple(first_y[b] for b in partner)
    rx, ry = grid.rx, grid.ry
    height = max(max(map(cx.height.__getitem__, cx.classes)),
                 max(map(cy.height.__getitem__, cy.classes)))
    if (len(cy.classes) != len(xs)
            or any(list(map(rx[a].__getitem__, xs)) != list(map(ry[b].__getitem__, ys))
                   for a, b in zip(xs, ys))
            or height > c):
        raise MethodDisagreementError(
            f"greedy class matching is no quotient isometry at {grid.values[c]}")
    return _QuotientWitnesses(grid, cx, cy, xs, ys, height)
