"""Brute-force reference implementations, independent of the library's search code.

Everything here favors obvious correctness over speed: plain exhaustive
enumeration with no pruning, exact arithmetic on Fraction matrices (or on
ints over one common denominator), per-map verdicts that compare the
distances themselves where the library compares grid ints, and the
existential form of the strong-correspondence condition (the library uses
the universal form).

Three pruned depth-first searches stand beside them, isometry_search,
approximation_search and strong_correspondence_search: the strong
eps-isometry, eps-approximation and minimum-distortion strong
correspondence searches the library answered with before its greedy
quotient matching. They search maps, matches and pair sets, where the
library reads the dendrograms, so they are the reference for
exists_strong_epsilon_isometry, exists_strong_epsilon_approximation,
find_split and min_distortion_strong_correspondence on pairs too large
for plain enumeration, and the brute-force searches check them in turn.

ball_partition_by_row_scan and is_epsilon_net_by_row_scan are
ball_partition and is_epsilon_net as they stood before the library read
the closed balls off the dendrogram: scans of the rank matrix's rows. They
are the reference for ball_partition, ball_representatives and
is_epsilon_net, and the approximation search reads the first too.

grid_int_tables builds the pair's distances as grid ints, over the
grid's one denominator: the two rank matrices remapped to ints and the
4-D gap table, from the spaces' own ranks through the grid's wx, wy and
per-value gaps. The library reads those ints directly and keeps neither
table; the reference searches and the cut-form recursion read them.

ExactValue is the library's scalar as it stood before its comparisons and
constructor read Fraction's int slots directly: every operation goes
through Fraction's generic dispatch. It is the reference for the
differential test of those fast paths (tests/exact_differential.py).

digit_metric_matrix, random_ultrametric_matrix and write_space_by_lines
are the generators and the writer as they stood before they worked on
rank rows: the digit metric by comparing digits pair by pair, the random
dendrogram by filling a matrix of pool values block pair by block pair,
with the same random calls, and one f-string per pair line. Each matrix
goes through validate_space, the reference for the rank rows the
generators build.

split_tree_by_peeling is the ball splitting as it stood before each ball
was split into all its sub-balls in one step: it peels one sub-ball per
step and pushes the rest back on the stack. It is the reference for the
dendrogram _split_tree builds: heights, children order, parents and first
points. parse_space_by_path_read is parse_space_file as it stood before it
read files with one builtin open: pathlib's read_text, then parse_space.
"""

import random
from fractions import Fraction
from itertools import chain, compress, permutations, product
from math import ceil, lcm
from operator import itemgetter
from pathlib import Path

from ultragh import exact
from ultragh.correspondences import Correspondence, SearchResult, _FarMasks, full_product
from ultragh.errors import BudgetExceededError
from ultragh.isometries import ApproximationWitness, _approximation_verdict, _isometry_verdict
from ultragh.spaces import BreakpointGrid, _Dendrogram, spectra_lower_bound
from ultragh.umsio import parse_space

SEARCH_BUDGET = 5_000_000  # nodes a reference search visits before it stops


class ExactValue(Fraction):
    """The reference scalar: Fraction's comparison, hashing and
    constructor, with the nonnegativity and float checks in front."""

    __slots__ = ()

    def __new__(cls, numerator, denominator=None):
        if isinstance(numerator, float) or isinstance(denominator, float):
            raise TypeError("ExactValue does not accept floats; use a ratio of ints")
        self = super().__new__(cls, numerator, denominator)
        if self.numerator < 0:
            raise ValueError(f"ExactValue must be nonnegative, got {self}")
        return self

    @classmethod
    def from_float(cls, f):
        raise TypeError("ExactValue does not accept floats; use a ratio of ints")

    def __add__(self, other):
        return ExactValue(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator,
        )

    def __mul__(self, other):
        return ExactValue(self.numerator * other.numerator, self.denominator * other.denominator)

    def __truediv__(self, other):
        if not other:
            raise ZeroDivisionError("division by zero ExactValue")
        return ExactValue(self.numerator * other.denominator, self.denominator * other.numerator)

    def abs_diff(self, other):
        return ExactValue(
            abs(self.numerator * other.denominator - other.numerator * self.denominator),
            self.denominator * other.denominator,
        )

    def midpoint(self, other):
        return ExactValue(
            self.numerator * other.denominator + other.numerator * self.denominator,
            2 * self.denominator * other.denominator,
        )


def digit_metric_matrix(q, depth, level_values):
    """The distance matrix of the q^depth base-q digit strings, entry
    (a, b) the level value of the first digit where a and b differ."""
    n = q ** depth
    digits = [[v // q ** k % q for k in range(depth)] for v in range(n)]
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a != b:
                j = next(k for k in range(depth) if digits[a][k] != digits[b][k])
                rows[a][b] = level_values[j]
    return rows


def random_ultrametric_matrix(n, seed, pool):
    """random_ultrametric's matrix, drawn by the same random calls in the
    same order, recursively, each block pair filled entry by entry."""
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]

    def build(points, ceiling):
        if len(points) == 1:
            return
        allowed = pool if ceiling is None else [v for v in pool if v < ceiling]
        value = rng.choice(allowed) if allowed else pool[0]
        k = rng.randint(2, len(points))
        shuffled = rng.sample(points, len(points))
        cuts = sorted(rng.sample(range(1, len(points)), k - 1))
        blocks = [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(points)])]
        for bi, left in enumerate(blocks):
            for right in blocks[bi + 1:]:
                for a in left:
                    for b in right:
                        rows[a][b] = rows[b][a] = value
        for block in blocks:
            build(block, value)

    build(list(range(n)), None)
    return rows


def write_space_by_lines(space):
    """The `.ums` text of space, one f-string per line, every distance read
    through space.dist."""
    n = len(space)
    lines = ["ums 1", f"points {n}", "labels " + " ".join(space.labels)]
    for i in range(n):
        for j in range(i + 1, n):
            lines.append(f"d {i} {j} {space.dist(i, j).token()}")
    if space.inexact:
        lines.append("inexact true")
    return "\n".join(lines) + "\n"


def split_tree_by_peeling(rk):
    """The dendrogram of a symmetric rank matrix with a zero diagonal, or
    None, peeling one sub-ball per step: a popped cluster is split at the
    largest rank M in its first point's row into that point's ball, pushed,
    and the rest, pushed on top; a popped rest whose largest rank is still
    M belongs to the same node, any other popped cluster is a new node."""
    n = len(rk)
    if n == 1:
        return _Dendrogram([], [], [-1], [0])
    tree = heights, children, parent, first = _Dendrogram(
        [max(rk[0])], [[]], [-1] * (n + 1), [*range(n), 0])
    row_of = rk.__getitem__
    stack = [(list(range(n)), 0)]
    while stack:
        cluster, up = stack.pop()
        near = list(map(rk[cluster[0]].__getitem__, cluster))
        m = max(near)
        if not m:
            return None
        node = up
        if m != heights[up]:
            if m > heights[up]:
                return None
            node = len(heights)
            children[up].append(n + node)
            heights.append(m)
            children.append([])
            parent.append(n + up)
            first.append(cluster[0])
        kids = children[node]
        if near.count(m) == len(near) - 1:
            kids.append(cluster[0])
            parent[cluster[0]] = n + node
            rest = cluster[1:]
        else:
            ball = list(compress(cluster, map(m.__gt__, near)))
            rest = list(compress(cluster, map(m.__eq__, near)))
            stack.append((ball, node))
            others = ball[1:]
            small, large = (others, rest) if len(others) < len(rest) else (rest, others)
            seen = map(itemgetter(*large), map(row_of, small))
            if len(large) > 1:
                seen = chain.from_iterable(seen)
            seen = list(seen)
            if seen.count(m) != len(seen):
                return None
        if len(rest) > 1:
            stack.append((rest, node))
        else:
            kids.append(rest[0])
            parent[rest[0]] = n + node
    return tree


def parse_space_by_path_read(path):
    """The space in the .ums file at path, read by pathlib."""
    return parse_space(Path(path).read_text())


def fraction_matrix(space):
    n = len(space)
    return [[space.dist(i, j).fraction for j in range(n)] for i in range(n)]


def _int_matrices(x, y):
    """Both distance matrices as ints over one common denominator, and that
    denominator: the scaling keeps every comparison and every difference."""
    dx, dy = fraction_matrix(x), fraction_matrix(y)
    den = lcm(*(d.denominator for row in dx + dy for d in row))
    return (
        [[d.numerator * (den // d.denominator) for d in row] for row in dx],
        [[d.numerator * (den // d.denominator) for d in row] for row in dy],
        den,
    )


def _nonempty_subsets(m):
    out = []
    for mask in range(1, 1 << m):
        out.append(tuple(b for b in range(m) if mask & (1 << b)))
    return out


def strong_existential(dx, dy, sets, dis):
    """Condition (C_NA): every outside pair has some partner pair realizing
    equal distances strictly above the distortion."""
    n, m = len(sets), len(dy)
    partners_of_y = [[xx for xx in range(n) if yy in sets[xx]] for yy in range(m)]
    for xx in range(n):
        members = set(sets[xx])
        for yy in range(m):
            if yy in members:
                continue
            if not any(
                dx[xx][xp] == dy[yy][yp] and dx[xx][xp] > dis
                for yp in sets[xx]
                for xp in partners_of_y[yy]
            ):
                return False
    return True


def naive_correspondence_minima(x, y):
    """(min distortion, min strong distortion) by unpruned enumeration.

    Every assignment of a nonempty partner subset to each left point is
    visited; covering assignments are the correspondences. Distortion is
    accumulated along the recursion (an evaluation order, not a pruning);
    the strongness test is skipped only when it cannot improve the strong
    minimum. Distances are ints over a common denominator, and both minima
    are returned as Fractions.
    """
    n, m = len(x), len(y)
    dx, dy, den = _int_matrices(x, y)
    subsets = _nonempty_subsets(m)
    # |dx(i,k) - dy(a,b)| once per quadruple; the enumeration reuses it.
    gap = [
        [
            [[abs(dx[i][k] - dy[a][b]) for b in range(m)] for a in range(m)]
            for k in range(n)
        ]
        for i in range(n)
    ]
    internal = {}
    for sub in subsets:
        worst = 0
        for p in range(len(sub)):
            for q in range(p + 1, len(sub)):
                d = dy[sub[p]][sub[q]]
                if d > worst:
                    worst = d
        internal[sub] = worst

    best = [None]
    best_strong = [None]
    sets = []

    def rec(level, partial, covered):
        if level == n:
            if len(covered) != m:
                return
            if best[0] is None or partial < best[0]:
                best[0] = partial
            if best_strong[0] is None or partial < best_strong[0]:
                if strong_existential(dx, dy, sets, partial):
                    best_strong[0] = partial
            return
        for sub in subsets:
            new = partial if partial >= internal[sub] else internal[sub]
            for i in range(level):
                gi = gap[i][level]
                for a in sets[i]:
                    row = gi[a]
                    for b in sub:
                        if row[b] > new:
                            new = row[b]
            sets.append(sub)
            rec(level + 1, new, covered | set(sub))
            sets.pop()

    rec(0, 0, set())
    return Fraction(best[0], den), Fraction(best_strong[0], den)


def naive_lex_min_witness(x, y, strong):
    """Among all (strong) correspondences of minimum distortion, the
    lexicographically smallest sorted pair tuple, by full enumeration."""
    n, m = len(x), len(y)
    dx = fraction_matrix(x)
    dy = fraction_matrix(y)
    subsets = _nonempty_subsets(m)
    # gaps[i][j][p][q] = |d_X(i, j) - d_Y(p, q)|, computed once.
    gaps = [[[[abs(a - b) for b in row_y] for row_y in dy] for a in row_x] for row_x in dx]
    best = [None]
    best_pairs = [None]
    sets = []

    def rec(level):
        if level == n:
            covered = {b for sub in sets for b in sub}
            if len(covered) != m:
                return
            pairs = tuple((i, b) for i in range(n) for b in sets[i])
            worst = Fraction(0)
            for a in range(len(pairs)):
                i, p = pairs[a]
                gi = gaps[i]
                for c in range(a + 1, len(pairs)):
                    j, q = pairs[c]
                    g = gi[j][p][q]
                    if g > worst:
                        worst = g
            if strong and not strong_existential(dx, dy, sets, worst):
                return
            if (
                best[0] is None
                or worst < best[0]
                or (worst == best[0] and pairs < best_pairs[0])
            ):
                best[0] = worst
                best_pairs[0] = pairs
            return
        for sub in subsets:
            sets.append(sub)
            rec(level + 1)
            sets.pop()

    rec(0)
    return best[0], best_pairs[0]


def partner_subsets_by_recursion(ranks):
    """Every nonempty subset of the points of a rank matrix as (subset,
    bitmask, largest rank between two of its points), in the two orders of
    the classical search (last, inner), and worst[mask], that largest rank
    by bitmask (0 for the empty mask). One recursive call per subset: each
    call extends its subset by every larger point, listing an extension
    before (last) and after (inner) the extension's own extensions. The
    extension's largest rank is the larger of its prefix's and the new
    point's rank against the prefix's first point, by the strong triangle
    inequality."""
    m = len(ranks)
    last, inner = [], []
    worst_of = [0] * (1 << m)

    def extend(prefix, mask, worst):
        first = ranks[prefix[0]] if prefix else None
        for a in range(prefix[-1] + 1 if prefix else 0, m):
            w = worst if first is None else max(worst, first[a])
            entry = (prefix + (a,), mask | 1 << a, w)
            last.append(entry)
            worst_of[entry[1]] = w
            extend(entry[0], entry[1], w)
            inner.append(entry)

    extend((), 0, 0)
    return last, inner, worst_of


def cut_form_by_recursion(ranks, points, c):
    """Canonical form of the ball of points in the dendrogram of a rank
    matrix cut at rank c, read recursively off the matrix: () when its
    diameter rank h is at most c, else h and the sorted forms of its
    classes of "rank < h". Recursion depth is the dendrogram's depth."""
    h = max(map(ranks[points[0]].__getitem__, points))
    if h <= c:
        return ()
    children = []
    while points:
        row = ranks[points[0]]
        children.append(cut_form_by_recursion(ranks, [q for q in points if row[q] < h], c))
        points = [q for q in points if row[q] >= h]
    return h, tuple(sorted(children))


def ball_partition_by_row_scan(ranks, cut):
    """ball_partition by a row scan of a rank matrix, a point's ball
    holding the points at rank below cut from it: each point joins the
    class of the first representative within the cut, or starts its own.
    Classes are listed by ascending representative, points ascending
    inside. The library reads the classes off the dendrogram instead."""
    reps = []
    classes = []
    for i, row in enumerate(ranks):
        for ci, r in enumerate(reps):
            if row[r] < cut:
                classes[ci].append(i)
                break
        else:
            reps.append(i)
            classes.append([i])
    return tuple(tuple(c) for c in classes)


def is_epsilon_net_by_row_scan(ranks, pts, cut):
    """is_epsilon_net by a row scan of a rank matrix: every point has a
    point of pts at rank below cut from it. The library asks instead
    whether pts meets every closed ball of the dendrogram below the cut."""
    return all(any(row[p] < cut for p in pts) for row in ranks)


def grid_int(grid, v):
    """The value v as an int over grid.den, which must be exact: v a grid
    value, or any multiple of 1 / den."""
    k = v * grid.den
    assert k.denominator == 1, (v, grid.den)
    return k.numerator


def grid_int_tables(grid):
    """(rx, ry, gap) for grid's pair, as ints over grid.den: rx and ry the
    spaces' rank matrices remapped through wx and wy, and gap[i][j][a][b]
    the int of |d_X(i, j) - d_Y(a, b)|, read off the per-value gaps
    _gap. gap[i][j] depends only on d_X(i, j), so one m x m table is built
    per distinct distance of x and every pair of x at that distance shares
    it: |V_X| * m^2 ints, not n^2 * m^2. Callers only read the tables."""
    x, y = grid.x, grid.y
    rx = [list(map(grid.wx.__getitem__, row)) for row in x.ranks]
    ry = [list(map(grid.wy.__getitem__, row)) for row in y.ranks]
    by_value = [[list(map(by_y.__getitem__, row)) for row in y.ranks] for by_y in grid._gap]
    gap = [list(map(by_value.__getitem__, row)) for row in x.ranks]
    return rx, ry, gap


def quotient_int_by_recursion(grid):
    """The quotient value dhat by definition, as a grid int: the least c in
    {0} ∪ W_X ∪ W_Y at which the two int matrices of grid, cut at c, have
    equal canonical forms. Every candidate is tried from the bottom, where
    the library starts at two proven lower bounds, so a comparison checks
    those bounds too."""
    rx, ry, _ = grid_int_tables(grid)
    xs, ys = range(len(rx)), range(len(ry))
    return next(c for c in sorted({*grid.wx, *grid.wy})
                if cut_form_by_recursion(rx, xs, c) == cut_form_by_recursion(ry, ys, c))


def isometry_exists(x, y):
    """Distance-preserving bijection search over all permutations."""
    if len(x) != len(y):
        return False
    n = len(x)
    dx = fraction_matrix(x)
    dy = fraction_matrix(y)
    for perm in permutations(range(n)):
        if all(
            dx[i][j] == dy[perm[i]][perm[j]]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return True
    return False


def ball_class_count(space, eps):
    """Number of open eps-balls by transitive closure of d < eps."""
    n = len(space)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    e = eps.fraction
    for i in range(n):
        for j in range(i + 1, n):
            if space.dist(i, j).fraction < e:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    return len({find(a) for a in range(n)})


def merge_heights_by_ball_counts(space):
    """The merge heights of a space, largest first, read off brute-force
    counts of closed balls: N(t) = 1 + #{k : h[k] > t}, so exactly
    N(u) - N(v) heights equal v when u is the distinct distance just below
    v (N(0) = n)."""
    n = len(space)
    dist = fraction_matrix(space)

    def closed_balls(t):
        return len({frozenset(j for j in range(n) if dist[i][j] <= t) for i in range(n)})

    levels = sorted({d for row in dist for d in row})
    heights = []
    for below, v in zip(levels, levels[1:]):
        heights += [v] * (closed_balls(below) - closed_balls(v))
    return sorted(heights, reverse=True)


def spectra_bound_by_scan(x, y, thresholds):
    """Literal ascending scan for the spectra lower bound.

    Evaluates set equality of the filtered spectra at each positive
    threshold and between thresholds, returning the infimum of the region
    where they agree.
    """
    from ultragh import weight_spectrum

    wx = set(weight_spectrum(x).values)
    wy = set(weight_spectrum(y).values)

    def equal_at(eps):
        return {v for v in wx if v >= eps} == {v for v in wy if v >= eps}

    prev = thresholds[0]
    for t in thresholds[1:]:
        if equal_at(prev.midpoint(t)):
            return prev
        if equal_at(t):
            return t
        prev = t
    raise AssertionError("sentinel threshold should always compare equal")


def ultrametric_violations(matrix):
    """All ordered triples (i, j, k) of distinct indices breaking the
    strong triangle inequality, on a raw Fraction matrix."""
    n = len(matrix)
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) != 3:
                    continue
                if matrix[i][k] > max(matrix[i][j], matrix[j][k]):
                    bad.append((i, j, k))
    return bad


def isometry_verdict(dx, dy, images, eps):
    """Verdict of is_strong_epsilon_isometry on Fraction matrices:
    (distortion, is_eps_isometry, is_strong_eps_isometry, failure), with
    failure (check, points, detail) or None.

    dis f < eps; f(X) an eps-net in Y; (SI1) every y with
    d_Y(y, f(x)) >= eps has a partner x' with d_Y(y, f(x')) < eps and
    d_X(x, x') = d_Y(y, f(x)); (SI2) pairs with unequal image distance
    satisfy d_X(x1, x2) < eps. Every check runs in that order on the
    distances themselves, and the first failure is certified.
    """
    n, m = len(dx), len(dy)
    failure = None
    dis = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            dis = max(dis, abs(dx[i][j] - dy[images[i]][images[j]]))
    if dis >= eps:
        failure = ("dis", (), f"dis f = {dis} is not < {eps}")

    net_ok = True
    for yy in range(m):
        if all(dy[yy][b] >= eps for b in set(images)):
            net_ok = False
            if failure is None:
                failure = ("net", (yy,), f"point {yy} is at distance >= {eps} from the image")
            break

    si1_ok = True
    for xx in range(n):
        for yy in range(m):
            d = dy[yy][images[xx]]
            if d < eps:
                continue
            if not any(dy[yy][images[xp]] < eps and dx[xx][xp] == d for xp in range(n)):
                si1_ok = False
                if failure is None:
                    failure = ("SI1", (xx, yy), f"no partner realizes d_Y({yy}, f({xx})) = {d}")
                break
        if not si1_ok:
            break

    si2_ok = True
    for i in range(n):
        for j in range(i + 1, n):
            if dx[i][j] >= eps and dx[i][j] != dy[images[i]][images[j]]:
                si2_ok = False
                if failure is None:
                    failure = (
                        "SI2", (i, j),
                        f"d_X({i},{j}) = {dx[i][j]} >= {eps} but image distance differs",
                    )
                break
        if not si2_ok:
            break

    is_eps = dis < eps and net_ok
    return dis, is_eps, is_eps and si1_ok and si2_ok, failure


def approximation_verdict(dx, dy, eps, xs, ys):
    """Verdict of is_strong_epsilon_approximation on Fraction matrices:
    (valid, failure_condition, failure_indices)."""
    for name, d, pts in (("net_left", dx, xs), ("net_right", dy, ys)):
        if not all(any(row[p] < eps for p in pts) for row in d):
            return False, name, tuple(sorted(set(pts)))
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if dx[xs[i]][xs[j]] != dy[ys[i]][ys[j]]:
                return False, "distances", (i, j)
    return True, None, ()


def first_strong_epsilon_isometry(x, y, eps):
    """Images of the first map X -> Y, in itertools.product order, that
    isometry_verdict accepts as a strong eps-isometry; None if none does.

    Walks every map with no pruning, so it checks the scan's tables,
    pruning and leaf verdict against the distances themselves.
    """
    dx, dy = fraction_matrix(x), fraction_matrix(y)
    for images in product(range(len(y)), repeat=len(x)):
        if isometry_verdict(dx, dy, images, eps)[2]:
            return images
    return None


def first_split(xn, x, eps):
    """Classes of the first split of xn over the target x at eps, or None.

    The open eps-balls of xn are read off the Fraction matrix, listed by
    smallest member. The maps from balls to target points are walked in
    itertools.product order, and the first bijection under which every
    pair of ball representatives sits at the distance of its two target
    points gives the split: target point t's class is the ball mapped to t.
    No pruning, so it checks find_split's search and nothing else.
    """
    dn = fraction_matrix(xn)
    dx = fraction_matrix(x)
    e = eps.fraction
    balls = []
    for i in range(len(xn)):
        if not any(i in ball for ball in balls):
            balls.append(tuple(j for j in range(len(xn)) if dn[i][j] < e))
    if len(balls) != len(x):
        return None  # no bijection exists, so no map need be walked
    reps = [ball[0] for ball in balls]
    pairs = [(a, b) for a in range(len(balls)) for b in range(a + 1, len(balls))]
    for f in product(range(len(x)), repeat=len(balls)):
        if len(set(f)) == len(x) and all(
            dn[reps[a]][reps[b]] == dx[f[a]][f[b]] for a, b in pairs
        ):
            classes = [None] * len(x)
            for ball, t in zip(balls, f):
                classes[t] = ball
            return tuple(classes)
    return None


def isometry_search(x, y, eps, budget=SEARCH_BUDGET):
    """The lexicographically smallest strong eps-isometry X -> Y, as the
    library's MapWitness, or None; BudgetExceededError past budget nodes.

    Maps are walked depth first in mixed-radix order (left indices as digit
    positions, right index ascending), one frame per point. A branch dies
    as soon as a decided pair breaks dis f < eps or the exact-preservation
    half of (SI2), read on grid_int_tables' gap table, where a grid int
    is below eps exactly when it is below ceil(eps * den); each complete
    map gets one _isometry_verdict.
    """
    grid = BreakpointGrid(x, y)
    below = ceil(eps * grid.den)
    n, m = len(x), len(y)
    rx, ry, gap = grid_int_tables(grid)
    images = []
    nodes = 0

    def dfs(level):
        nonlocal nodes
        if level == n:
            witness = _isometry_verdict(grid, tuple(images), eps)
            return witness if witness.is_strong_eps_isometry else None
        for b in range(m):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"strong eps-isometry search exceeded {budget} nodes")
            if any(gap[i][level][images[i]][b] >= below
                   or (rx[i][level] >= below and rx[i][level] != ry[images[i]][b])
                   for i in range(level)):
                continue
            images.append(b)
            found = dfs(level + 1)
            images.pop()
            if found is not None:
                return found
        return None

    return dfs(0)


def approximation_search(x, y, eps, budget=SEARCH_BUDGET):
    """The first strong eps-approximation witness as the library's
    ApproximationWitness, or None; BudgetExceededError past budget nodes.

    The left list is pinned to the first points of X's open eps-balls: any
    eps-net hits every ball, and points of distinct balls sit at least eps
    apart, so matched right points are distinct. Right points are matched
    depth first, ascending, under the exact pairwise-distance condition,
    and each complete match gets one _approximation_verdict.
    """
    grid = BreakpointGrid(x, y)
    below = ceil(eps * grid.den)
    rx, ry, _ = grid_int_tables(grid)
    xs = tuple(c[0] for c in ball_partition_by_row_scan(rx, below))
    n, m = len(xs), len(ry)
    if n > m or len(ball_partition_by_row_scan(ry, below)) > n:
        # n distinct right points pairwise >= eps apart cannot hit more
        # than n balls.
        return None
    need = [[rx[a][b] for b in xs] for a in xs]
    ys = []
    nodes = 0

    def dfs(level):
        nonlocal nodes
        if level == n:
            if not _approximation_verdict(grid, xs, ys, eps).valid:
                return None
            return ApproximationWitness(xs, tuple(ys), eps)
        want = need[level][:level]
        for b in range(m):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"strong eps-approximation search exceeded {budget} nodes")
            if [ry[b][c] for c in ys] != want:
                continue
            ys.append(b)
            found = dfs(level + 1)
            ys.pop()
            if found is not None:
                return found
        return None

    return dfs(0)


class _StopSearch(Exception):
    """Ends strong_correspondence_search: its budget ran out, or a leaf
    reached the spectra bound."""


def strong_correspondence_search(x, y, budget=None):
    """Minimum distortion over the strong correspondences of X and Y, as the
    library's SearchResult: the branch-and-bound search the library ran
    before it read the strong correspondence off its greedy quotient
    matching, with its node count and its budget.

    Partner subsets are chosen per left point, in the classical search's
    two orders (partner_subsets_by_recursion), so the search ends on the
    lexicographically smallest optimal pair set. A branch dies when its
    partial distortion reaches the incumbent, when the forward check leaves
    a later point or an uncovered right point no partner below it, or when
    a decided complement pair breaks the partner condition: unequal partner
    distances, or a common one at or below the partial distortion. A leaf
    at or below the spectra bound is optimal and stops the search. Each
    call of a frame spends a node; past budget nodes the search stops,
    with optimal False and the best leaf found, or the full product.
    """
    grid = BreakpointGrid(x, y)
    n, m = len(x), len(y)
    if n == 1 or m == 1:
        return SearchResult(full_product(x, y), max(x.diameter(), y.diameter()), True, 0)
    rx, ry, gap = grid_int_tables(grid)
    x_ranks = x.ranks
    far_masks = _FarMasks(grid)
    last_level, inner_level, worst_of = partner_subsets_by_recursion(ry)
    full_mask = (1 << m) - 1
    full_rank = max(grid.wx[-1], grid.wy[-1])
    floor_rank = int(spectra_lower_bound(x, y) * grid.den)
    best_rank = full_rank + 1
    best_sets = None
    nodes = 0
    optimal = True
    chosen = []
    cover_count = [0] * m
    partners_of_y = [[] for _ in range(m)]

    def strong_check(level, partial):
        # Partner conditions over the complement pairs decided so far; at a
        # covering leaf, where partial is the distortion, the full test.
        for xx in range(level + 1):
            sub = chosen[xx]
            sset = set(sub)
            rxx = rx[xx]
            for yy in range(m):
                if cover_count[yy] == 0 or yy in sset:
                    continue
                row = ry[yy]
                common = row[sub[0]]
                if any(row[y_prime] != common for y_prime in sub[1:]):
                    return False
                if any(rxx[x_prime] != common for x_prime in partners_of_y[yy]):
                    return False
                if common <= partial:
                    return False
        return True

    def dfs(level, partial, covered, cutoff, far, bar):
        # far = far_masks[cutoff], the classical search's far masks, a pair
        # (i, j) of x reading the row of its distance x_ranks[i][j]; bar[k]
        # bars the partners of left point level + k that a chosen pair puts
        # at or past the cutoff.
        nonlocal best_rank, best_sets, nodes, optimal
        nodes += 1
        if budget is not None and nodes > budget:
            optimal = False
            raise _StopSearch
        last = level == n - 1
        missing = full_mask & ~covered
        for sub, mask, internal in (last_level if last else inner_level):
            if cutoff != best_rank:
                cutoff = best_rank
                far = far_masks[cutoff]
                bar = [0] * (n - level)
                for i in range(level):
                    for k, fij in enumerate(map(far.__getitem__, x_ranks[i][level:])):
                        for a in chosen[i]:
                            bar[k] |= fij[a]
            if mask & bar[0] or (last and (mask & missing) != missing):
                continue
            new_rank = max(partial, internal)
            if new_rank >= cutoff:
                continue
            for i in range(level):
                for a in chosen[i]:
                    for b in sub:
                        new_rank = max(new_rank, gap[i][level][a][b])
            if not last:
                # Forward check: each later left point needs an open
                # partner, each uncovered right point an open later left
                # point, and a right point open to one of them only is
                # forced into its partner set.
                child_bar = []
                once = twice = 0
                for k in range(1, n - level):
                    d = bar[k]
                    for a in sub:
                        d |= far[x_ranks[level][level + k]][a]
                    child_bar.append(d)
                    o = full_mask ^ d
                    twice |= once & o
                    once |= o
                uncovered = missing & ~mask
                forced = uncovered & ~twice
                if (full_mask in child_bar or uncovered & ~once
                        or forced and any(worst_of[forced & ~d] >= cutoff
                                          for d in child_bar if forced & ~d)):
                    continue
            chosen.append(sub)
            for b in sub:
                cover_count[b] += 1
                partners_of_y[b].append(level)
            try:
                if not strong_check(level, new_rank):
                    continue
                if last:
                    best_rank = new_rank
                    best_sets = list(chosen)
                    if best_rank <= floor_rank:
                        raise _StopSearch
                else:
                    dfs(level + 1, new_rank, covered | mask, cutoff, far, child_bar)
            finally:
                chosen.pop()
                for b in sub:
                    cover_count[b] -= 1
                    partners_of_y[b].pop()

    try:
        dfs(0, 0, 0, best_rank, far_masks[best_rank], [0] * n)
    except _StopSearch:
        pass
    if best_sets is None:
        return SearchResult(full_product(x, y), exact.ExactValue(full_rank, grid.den),
                            optimal, nodes)
    pairs = tuple((i, b) for i in range(n) for b in best_sets[i])
    return SearchResult(Correspondence(x, y, pairs), exact.ExactValue(best_rank, grid.den),
                        optimal, nodes)
