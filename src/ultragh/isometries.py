"""Maps between ultrametric spaces and the strong epsilon machinery.

An epsilon-isometry is a map with distortion strictly below epsilon whose
image is an epsilon-net (strict inequalities throughout). The strong variant
adds two partner conditions: every far point of the target can be matched by
a domain point realizing the same distance (SI1), and distances of at least
epsilon are preserved exactly (SI2). Strong epsilon-approximations pair
epsilon-nets of the two spaces with exactly equal distance patterns.

Each verdict is written once, on the spaces' own ranks: a distance is
below eps exactly when its rank is below its space's cut,
bisect_left(space.values, eps), and a distance of X equals one of Y
exactly when their values are equal ints over the denominator of the
pair's BreakpointGrid (wx and wy). The public checkers check eps once,
build the grid and call that core once.

Both kinds of witness exist exactly when eps > dhat (Cor. 2.24, 3.7).
exists_strong_epsilon_isometry, exists_strong_epsilon_approximation,
find_split and dhat_gh take them from one greedy isometry between the
closed-ball quotients of the pair (_quotient_witnesses), read off the
dendrograms each space keeps from validation with no recursion, and
checked from the class structure in O(n^2 + m^2): no map or match is
enumerated, at any size or depth. This module alone cuts dendrograms,
every cut is a grid int, and every cut compares the two roots through
one helper (_equal_roots).
dhat_gh's value comes from one walk up the cuts (_certified_quotient):
its first comparison, the cut below the walk's start, is the lower
certificate, every cut from there up is compared once, and the first
with equal roots hands its forms to the matching.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain
from math import ceil
from typing import NamedTuple, Optional, Sequence

from .exact import ExactValue
from .errors import LengthMismatchError, MethodDisagreementError, NotStrongError
from .spaces import (
    BreakpointGrid,
    UltrametricSpace,
    _Balls,
    _checked_eps,
    _closed_balls,
    is_epsilon_net,
    spectra_lower_bound,
)
from .correspondences import Correspondence, _check_map, _distortion_ranks


def map_distortion(
    x: UltrametricSpace, y: UltrametricSpace, f: Sequence[int]
) -> ExactValue:
    """max over pairs of |d_Y(f(x1), f(x2)) - d_X(x1, x2)|."""
    _check_map(x, y, f)
    grid = BreakpointGrid(x, y)
    return ExactValue(_distortion_ranks(grid, enumerate(f))[-1], grid.den)


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
    eps = _checked_eps(eps)
    _check_map(x, y, f)
    return _isometry_verdict(BreakpointGrid(x, y), tuple(f), eps)


def _isometry_verdict(
    grid: BreakpointGrid, images: tuple[int, ...], eps: ExactValue
) -> MapWitness:
    """is_strong_epsilon_isometry of images on the pair of grid.

    Each space's distances are read as its own ranks: exactly the
    distances below eps have a rank below the space's cut, and two
    distances of X and Y are equal exactly when wx and wy give them the
    same int, so every check compares ints. Values are read only for the
    distortion and the failure text.
    """
    x, y, wx, wy = grid.x, grid.y, grid.wx, grid.wy
    rows_x, rows_y = x.ranks, y.ranks
    cut_x, cut_y = bisect_left(x.values, eps), bisect_left(y.values, eps)
    n = len(images)
    dis = ExactValue(_distortion_ranks(grid, enumerate(images))[-1], grid.den)
    # near[y][x]: whether d_Y(y, f(x)) < eps.
    near = [[row[b] < cut_y for b in images] for row in rows_y]
    far = next((yy for yy, row in enumerate(near) if not any(row)), None)
    si1 = next(
        ((xx, yy)
         for xx, a in enumerate(images)
         for yy, row in enumerate(rows_y)
         if row[a] >= cut_y
         and not any(ok and wx[r] == wy[row[a]] for ok, r in zip(near[yy], rows_x[xx]))),
        None,
    )
    si2 = next(
        ((i, j)
         for i in range(n) for j in range(i + 1, n)
         if rows_x[i][j] >= cut_x
         and wx[rows_x[i][j]] != wy[rows_y[images[i]][images[j]]]),
        None,
    )
    if dis >= eps:
        failure = MapFailure("dis", (), f"dis f = {dis} is not < {eps}")
    elif far is not None:
        failure = MapFailure(
            "net", (far,), f"point {far} is at distance >= {eps} from the image"
        )
    elif si1 is not None:
        xx, yy = si1
        failure = MapFailure(
            "SI1", si1,
            f"no partner realizes d_Y({yy}, f({xx})) = {y.dist(yy, images[xx])}",
        )
    elif si2 is not None:
        i, j = si2
        failure = MapFailure(
            "SI2", si2,
            f"d_X({i},{j}) = {x.dist(i, j)} >= {eps} but image distance differs",
        )
    else:
        failure = None
    is_eps = dis < eps and far is None
    return MapWitness(
        x, y, images, eps, dis,
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
    eps = _checked_eps(eps)
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
    eps = _checked_eps(eps)
    xs, ys = witness.xs, witness.ys
    if len(xs) != len(ys) or not xs:
        raise LengthMismatchError(
            f"witness lists must have equal positive length, got {len(xs)} and {len(ys)}"
        )
    for i in xs:
        x.check_index(i)
    for j in ys:
        y.check_index(j)
    return _approximation_verdict(BreakpointGrid(x, y), xs, ys, eps)


def _approximation_verdict(
    grid: BreakpointGrid, xs: Sequence[int], ys: Sequence[int], eps: ExactValue
) -> ApproximationVerdict:
    """is_strong_epsilon_approximation of (xs, ys) on the pair of grid: each
    net is read off its space's dendrogram (is_epsilon_net), and the
    distances compare the spaces' own ranks as ints through wx and wy."""
    x, y, wx, wy = grid.x, grid.y, grid.wx, grid.wy
    if not is_epsilon_net(x, xs, eps):
        return ApproximationVerdict(False, "net_left", tuple(sorted(set(xs))))
    if not is_epsilon_net(y, ys, eps):
        return ApproximationVerdict(False, "net_right", tuple(sorted(set(ys))))
    rows_x, rows_y = x.ranks, y.ranks
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if wx[rows_x[xs[i]][xs[j]]] != wy[rows_y[ys[i]][ys[j]]]:
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
    eps = _checked_eps(eps)
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
        raise NotStrongError(
            f"map is not a strong {witness.epsilon}-isometry: {witness.failure}")
    cut = bisect_right(y.values, witness.epsilon)
    pairs = tuple(
        (i, j)
        for i, a in enumerate(f)
        for j, r in enumerate(y.ranks[a])
        if r < cut
    )
    return Correspondence(x, y, pairs)


def _cell_midpoint(grid: BreakpointGrid, low: int) -> ExactValue:
    """The midpoint of the cell of grid.thresholds() whose lower end is the
    grid int low: its upper end is the least grid int above low, found in
    one pass with no sort, or the sentinel, the larger diameter plus 1,
    above the last grid value."""
    top = min((k for k in chain.from_iterable(grid._gap) if k > low),
              default=max(grid.wx[-1], grid.wy[-1]) + grid.den)
    return ExactValue(low + top, 2 * grid.den)


def _cut_ids(space: UltrametricSpace, w: Sequence[int], c: int,
             ids: dict[tuple[int, tuple[int, ...]], int]) -> list[int]:
    """The id of every node of the space's dendrogram cut at the grid int
    c, w the space's values as grid ints: 0 at or below the cut, else
    the interned pair of the node's height as a grid int and the
    children's sorted ids. Ids are given from the last node back, children
    before parents, so no walk recurses, and two nodes, of either space,
    get equal ids exactly when their balls' quotients by closed c-balls
    are isometric."""
    tree, n = space._tree, len(space)
    heights, children = tree.heights, tree.children
    node_id = [0] * len(tree.first)
    for k in range(len(heights) - 1, -1, -1):
        h = w[heights[k]]
        if h > c:
            key = (h, tuple(sorted(map(node_id.__getitem__, children[k]))))
            node_id[n + k] = ids.setdefault(key, len(ids) + 1)
    return node_id


def _equal_roots(grid: BreakpointGrid, c: int) -> Optional[tuple[list[int], list[int]]]:
    """Both dendrograms' cut ids at the grid int c (_cut_ids), x's first,
    interned in one dict, when the two roots get equal ids, that is, when
    the quotients of grid's pair by closed c-balls are isometric; None
    when they differ. An n-point space's root is node n, the first node
    the splitting makes, or point 0 when n is 1."""
    ids: dict[tuple[int, tuple[int, ...]], int] = {}
    x, y = grid.x, grid.y
    fx = _cut_ids(x, grid.wx, c, ids)
    fy = _cut_ids(y, grid.wy, c, ids)
    nx, ny = len(x), len(y)
    same = fx[nx if nx > 1 else 0] == fy[ny if ny > 1 else 0]
    return (fx, fy) if same else None


class _QuotientWitnesses(NamedTuple):
    """A checked greedy isometry phi between the quotients of grid's pair
    by closed c-balls (_quotient_witnesses), and the witnesses it gives.

    cx and cy are the two spaces' closed c-balls (spaces._Balls), xs the
    first points of X's classes in first-point order and ys the first
    points of their partners. height is the largest class height of
    either side, a grid int at most c: the distortion of the
    correspondence, and the least value at which the matching is a
    quotient isometry.
    """

    grid: BreakpointGrid
    cx: _Balls
    cy: _Balls
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
            grid.x.values[cx.height],
            is_eps_isometry=True, is_strong_eps_isometry=True, failure=None)

    def approximation(self, eps: ExactValue) -> ApproximationWitness:
        """The classes' first points, paired: a strong eps-approximation
        at every eps above c."""
        return ApproximationWitness(self.xs, self.ys, eps)


def _quotient_below(
    x: UltrametricSpace, y: UltrametricSpace, eps: ExactValue
) -> Optional[_QuotientWitnesses]:
    """_quotient_witnesses at the largest grid value below eps, whose
    closed balls are the open eps-balls: None when eps <= dhat, that is,
    when the quotients differ there. A grid int k is below eps exactly
    when k < ceil(eps * den). Every caller has checked eps > 0, and 0 is
    always a grid value, so some grid int is below eps."""
    grid = BreakpointGrid(x, y)
    cut = ceil(eps * grid.den)
    c = max(k for k in chain.from_iterable(grid._gap) if k < cut)
    forms = _equal_roots(grid, c)
    return None if forms is None else _quotient_witnesses(grid, c, forms)


def _certified_quotient(grid: BreakpointGrid, spectra: Optional[int] = None
                        ) -> _QuotientWitnesses:
    """The greedy quotient isometry at dhat, the least t in
    {0} ∪ W_X ∪ W_Y at which the quotients of grid's pair by closed
    t-balls are isometric, found and certified by one walk up the cuts.

    Every number is a grid int. The walk starts at the larger of two
    proven lower bounds on dhat: spectra_lower_bound (the largest value
    one spectrum holds and the other lacks), scaled, which is exact since
    it is one of the spaces' own values, and the grid's merge-height
    floor. dhat_gh, which reports the spectra bound, hands it in as
    spectra; without it the walk computes its own. Its first comparison,
    the cut just below the start, must differ: that is the lower
    certificate, since quotients isometric at one value are isometric at
    every larger one. Every cut from the start up is then compared once,
    and the first with equal roots is dhat; at the larger diameter both
    roots get id 0. Each comparison cuts the dendrograms
    kept from validation (_equal_roots), with no recursion at any depth.
    That cut's forms go to the matching (_quotient_witnesses), whose
    largest class diameter must be dhat itself, so the correspondence has
    distortion dhat. A walk or matching that fails a check raises
    MethodDisagreementError.
    """
    den = grid.den
    if spectra is None:
        spectra = int(spectra_lower_bound(grid.x, grid.y) * den)
    start = max(spectra, grid.floor)
    cuts = sorted({*grid.wx, *grid.wy})
    k = bisect_left(cuts, start)
    if k and _equal_roots(grid, cuts[k - 1]) is not None:
        raise MethodDisagreementError(
            f"quotients are isometric at {ExactValue(cuts[k - 1], den)}, below the "
            f"lower bound {ExactValue(start, den)}")
    for c in cuts[k:]:
        forms = _equal_roots(grid, c)
        if forms is not None:
            break
    quotient = _quotient_witnesses(grid, c, forms)
    if quotient.height != c:
        raise MethodDisagreementError(
            f"greedy class matching is no quotient isometry at {ExactValue(c, den)}")
    return quotient


def _quotient_witnesses(
    grid: BreakpointGrid, c: int, forms: tuple[list[int], list[int]]
) -> _QuotientWitnesses:
    """One greedy isometry between the quotients of grid's pair by closed
    c-balls, checked, in O(n^2 + m^2). forms are the two dendrograms' cut
    ids at c as _equal_roots returns them when the roots are equal, that
    is, when the quotients are isometric; the caller compares the roots,
    so no cut is compared twice.

    The classes are the closed c-balls, read off each dendrogram at the
    largest rank of its space whose grid int is at most c
    (spaces._closed_balls). X's classes are pinned in first-point
    order, each to the free Y class with the least first point whose pin
    is consistent: X's ancestor balls of the class, up to its lowest one
    already mapped, map to unmapped Y balls of equal cut form under that
    one's image, so the mapped balls stay one to one and keep their forms.
    Consistent pins always extend, since balls of equal form have children
    of equal forms. A dict holds the node map from X to Y. Each Y node
    above the cut keeps its free children by form, by first point (only
    those nodes' children are sorted), and a child leaves that list when
    it is mapped, so a pin walks down from the image of the class's lowest
    mapped ancestor only through free balls of the forms it needs, and an
    unmapped ball's whole subtree is free. Parents and first points are
    the dendrograms' own.

    The matching is checked from the class structure alone: phi pairs the
    classes one to one, the distance between the first points of two
    classes is the same on both sides (the spaces' own ranks compared
    through wx and wy, each pair of classes once), and no class is taller
    than c. So the quotients are isometric at c, and the witnesses
    (_QuotientWitnesses) are strong. A matching that fails a check raises
    MethodDisagreementError.
    """
    x, y, wx, wy = grid.x, grid.y, grid.wx, grid.wy
    form_x, form_y = forms
    tree_x, tree_y = x._tree, y._tree
    cx = _closed_balls(tree_x, bisect_right(wx, c) - 1)
    cy = _closed_balls(tree_y, bisect_right(wy, c) - 1)
    parent_x = tree_x.parent
    first_y, parent_y = tree_y.first, tree_y.parent

    # by_form[b][f]: the free children of Y node b of form f, by first
    # point, for every node above the cut and the root's parent, -1.
    m = len(y)
    root = m if m > 1 else 0  # node m, or point 0 of a one-point space
    by_form: dict[int, dict[int, list[int]]] = {-1: {form_y[root]: [root]}}
    for b, kids in enumerate(tree_y.children, m):
        if form_y[b]:
            by_kind = by_form[b] = {}
            for v in sorted(kids, key=first_y.__getitem__):
                by_kind.setdefault(form_y[v], []).append(v)
    fwd = {-1: -1}
    partner = []
    for a_class in cx.classes:
        # The class and its unmapped ancestors, bottom up, below the
        # lowest mapped ancestor a.
        chain = [a_class]
        a = parent_x[a_class]
        while a not in fwd:
            chain.append(a)
            a = parent_x[a]
        wanted = [form_x[v] for v in reversed(chain)]
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
                f"greedy class matching found no pin at {ExactValue(c, grid.den)}")
        partner.append(best)
        b = best
        for v in chain:
            fwd[v] = b
            by_form[parent_y[b]][form_y[b]].remove(b)
            b = parent_y[b]

    xs = tuple(members[0] for members in cx.members)
    ys = tuple(map(first_y.__getitem__, partner))
    height = max(wx[cx.height], wy[cy.height])
    isometric = len(cy.classes) == len(xs) and height <= c
    # The distance between the first points of two classes, each pair once,
    # as grid ints.
    rows_x, rows_y = x.ranks, y.ranks
    for i in range(1, len(xs)):
        row_a, row_b = rows_x[xs[i]], rows_y[ys[i]]
        for a, b in zip(xs[:i], ys[:i]):
            if wx[row_a[a]] != wy[row_b[b]]:
                isometric = False
    if not isometric:
        raise MethodDisagreementError(
            f"greedy class matching is no quotient isometry at {ExactValue(c, grid.den)}")
    return _QuotientWitnesses(grid, cx, cy, xs, ys, height)
