"""Sequence-level tools: splits, convergence certificates, SUTB, diameters.

Everything here works on a supplied finite prefix of a sequence; limits over
infinite data are not certifiable, and the reports say what was checked
rather than claiming a limit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .exact import ExactValue, ZERO
from .errors import EpsilonTooLargeError, LengthMismatchError, MethodDisagreementError
from .spaces import (
    UltrametricSpace,
    _is_point,
    ball_partition,
    is_epsilon_net,
)
from .isometries import (
    ApproximationWitness,
    MapWitness,
    _quotient_below,
    is_strong_epsilon_approximation,
    is_strong_epsilon_isometry,
)
from .engine import dhat_gh


@dataclass
class SplitResult:
    """A partition of a big space indexed by the points of a finite target.

    classes[i] collects the indices matched to target point i. Each class
    is a dendrogram node, whose height is its diameter, and the pairwise
    class distances are those of the classes' first points; replay_split
    recomputes both from the distance matrix, independently of how the
    split was found.
    """

    classes: tuple[tuple[int, ...], ...]
    class_diameters: tuple[ExactValue, ...]
    pairwise_class_distances: tuple[tuple[ExactValue, ...], ...]


def _between(space: UltrametricSpace, ca: Sequence[int], cb: Sequence[int], pick) -> ExactValue:
    """pick (max or min) of the distances from class ca to class cb, read on
    ranks: with ca == cb and max, the class diameter (0 for one point)."""
    return space.values[pick(space.ranks[a][b] for a in ca for b in cb)]


def find_split(
    xn: UltrametricSpace, x: UltrametricSpace, eps: ExactValue
) -> Optional[SplitResult]:
    """Split xn into |x| classes mirroring the target's distances exactly.

    Needs eps below the smallest pairwise distance of the target, so every
    target point is its own open eps-ball. A split then matches the open
    eps-balls of xn one to one with the target's points, representative
    distances equal to target distances, which is exactly a strong
    eps-approximation of (xn, x). The classes are the open eps-balls of xn,
    the closed balls at the largest grid value c below eps, each given to
    its partner under the greedy quotient isometry at c
    (isometries._quotient_witnesses): the lexicographically smallest valid
    assignment of balls to target points, or None when the quotients
    differ. It runs in O(n^2 + m^2), with no search and no recursion.
    """
    if len(x) > 1 and eps >= x.values[1]:
        raise EpsilonTooLargeError(
            f"eps = {eps} is not below the target's minimum distance {x.values[1]}"
        )
    if eps <= ZERO:
        raise ValueError("eps must be positive")
    quotient = _quotient_below(xn, x, eps)
    if quotient is None:
        return None

    # Each class is a dendrogram node, whose height is its diameter.
    n, heights = len(xn), xn._tree.heights
    classes: list[tuple[int, ...]] = [()] * len(x)
    diameters = [ZERO] * len(x)
    for node, ball, target in zip(quotient.cx.classes, quotient.cx.members, quotient.ys):
        classes[target] = tuple(ball)
        if node >= n:
            diameters[target] = xn.values[heights[node - n]]
    # Distinct open eps-balls of an ultrametric sit at one distance, so the
    # classes' first points give it (and rank 0, distance 0, on the diagonal).
    values, ranks = xn.values, xn.ranks
    firsts = [c[0] for c in classes]
    matrix = tuple(tuple(values[ranks[a][b]] for b in firsts) for a in firsts)
    return SplitResult(tuple(classes), tuple(diameters), matrix)


def replay_split(
    xn: UltrametricSpace,
    x: UltrametricSpace,
    eps: ExactValue,
    split: SplitResult,
) -> bool:
    """Soundness check: partition, small diameters, exact class distances,
    and the reported diameters and class distances.

    Every index must be an int, not a bool, naming a point of xn, and
    classes and each class must be iterable; any other value fails the
    check.
    class_diameters must equal the recomputed diameters, and
    pairwise_class_distances the target's distance matrix, 0 on the
    diagonal, in value and in shape.
    """
    try:
        classes = [tuple(cls) for cls in split.classes]
    except TypeError:
        return False
    seen: set[int] = set()
    for cls in classes:
        if not cls:
            return False
        for p in cls:
            # The type first, so an unhashable index is never hashed.
            if not _is_point(p, len(xn)) or p in seen:
                return False
            seen.add(p)
    if len(seen) != len(xn) or len(classes) != len(x):
        return False
    diameters = tuple(_between(xn, cls, cls, max) for cls in classes)
    if any(d >= eps for d in diameters):
        return False
    for i in range(len(x)):
        for j in range(len(x)):
            if i == j:
                continue
            if _between(xn, classes[i], classes[j], min) != x.dist(i, j):
                return False
    try:
        reported = (tuple(split.class_diameters),
                    tuple(map(tuple, split.pairwise_class_distances)))
    except TypeError:
        return False
    return reported == (diameters, x.matrix())


@dataclass
class ConvergenceCertificateReport:
    entries: tuple[MapWitness, ...]
    all_strong: bool
    epsilons_decreasing: bool
    min_epsilon: Optional[ExactValue]
    holds: bool
    note: str


def check_convergence_certificate(
    sequence: Sequence[UltrametricSpace],
    target: UltrametricSpace,
    maps: Sequence[Sequence[int]],
    epsilons: Sequence[ExactValue],
    direction: str = "to_target",
) -> ConvergenceCertificateReport:
    """Verify per-index strong eps_n-isometries for a finite prefix.

    direction chooses whether maps go sequence[n] -> target or the other way
    round. The eps_n -> 0 limit itself cannot be certified from finite
    data; the report states the observed minimum instead.
    """
    if not (len(sequence) == len(maps) == len(epsilons)):
        raise LengthMismatchError("sequence, maps and epsilons lengths differ")
    if direction not in ("to_target", "from_target"):
        raise ValueError(f"unknown direction {direction!r}")
    entries = []
    for space, f, eps in zip(sequence, maps, epsilons):
        if direction == "to_target":
            entries.append(is_strong_epsilon_isometry(space, target, f, eps))
        else:
            entries.append(is_strong_epsilon_isometry(target, space, f, eps))
    all_strong = all(e.is_strong_eps_isometry for e in entries)
    decreasing = all(
        epsilons[i] >= epsilons[i + 1] for i in range(len(epsilons) - 1)
    )
    min_eps = min(epsilons) if epsilons else None
    return ConvergenceCertificateReport(
        entries=tuple(entries),
        all_strong=all_strong,
        epsilons_decreasing=decreasing,
        min_epsilon=min_eps,
        holds=all_strong and decreasing,
        note=(
            "verified for the supplied finite prefix only; epsilons "
            f"decreasing with minimum {min_eps}" if epsilons else "empty prefix"
        ),
    )


@dataclass
class NetCertificateFailure:
    kind: str  # "cardinality", "net", "target_net" or "distances"
    index: Optional[int]
    detail: str


@dataclass
class NetCertificateReport:
    holds: bool
    failure: Optional[NetCertificateFailure]


def check_net_convergence_certificate(
    sequence: Sequence[UltrametricSpace],
    target: UltrametricSpace,
    nets_per_space: Sequence[Sequence[int]],
    net_in_target: Sequence[int],
    eps: ExactValue,
) -> NetCertificateReport:
    """Check matched eps-nets with equal cardinalities and distances.

    Each listed net must be an eps-net in its own space, share the target
    net's cardinality, and reproduce the target net's pairwise distances
    position by position: with the target net, a strong eps-approximation
    of (space, target), which is_strong_epsilon_approximation checks.
    """
    if len(sequence) != len(nets_per_space):
        raise LengthMismatchError("one net per space is required")
    tnet = list(net_in_target)
    if len(set(tnet)) != len(tnet) or not tnet:
        raise LengthMismatchError("target net must be a nonempty list of distinct indices")
    if not is_epsilon_net(target, tnet, eps):
        return NetCertificateReport(
            False, NetCertificateFailure("target_net", None, "target net is not an eps-net")
        )
    for n, (space, net) in enumerate(zip(sequence, nets_per_space)):
        net = list(net)
        if len(set(net)) != len(net):
            return NetCertificateReport(
                False, NetCertificateFailure("cardinality", n, "net has repeated indices")
            )
        if len(net) != len(tnet):
            return NetCertificateReport(
                False,
                NetCertificateFailure(
                    "cardinality", n,
                    f"net has {len(net)} points, target net has {len(tnet)}",
                ),
            )
        for p in sorted(net):  # report the smallest bad index, as is_epsilon_net does
            space.check_index(p)
        verdict = is_strong_epsilon_approximation(
            space, target, eps, ApproximationWitness(tuple(net), tuple(tnet), eps)
        )
        if verdict.failure_condition == "net_left":
            return NetCertificateReport(
                False, NetCertificateFailure("net", n, "listed net is not an eps-net")
            )
        if not verdict.valid:
            i, j = verdict.failure_indices
            a = space.dist(net[i], net[j])
            b = target.dist(tnet[i], tnet[j])
            return NetCertificateReport(
                False,
                NetCertificateFailure(
                    "distances", n,
                    f"positions ({i}, {j}): {a} in space {n} vs {b} in target",
                ),
            )
    return NetCertificateReport(True, None)


@dataclass
class SutbReport:
    holds: bool
    witnesses: tuple[Optional[tuple[int, ...]], ...]
    failures: tuple[str, ...]


def sutb_check(
    family: Sequence[UltrametricSpace],
    eps: ExactValue,
    max_net_size: int,
    allowed_weights: Iterable[ExactValue],
) -> SutbReport:
    """Strong uniform total boundedness data for one eps.

    Each space needs an eps-net of at most max_net_size points whose weight
    set lies in allowed_weights. Every eps-net must hit every open eps-ball,
    cross-ball distances do not depend on the representative chosen, and
    extra net points only add weights, so the minimal representative net
    decides the question.

    Its weights are exactly the space's distances of at least eps,
    values[bisect_left(values, eps):], with no scan of the net. Distinct
    open eps-balls are at least eps apart, so no weight lies below eps.
    And when d(p, q) = d >= eps, p and q lie in distinct balls, whose
    representatives p' and q' have d(p, p') < eps <= d and
    d(q, q') < eps <= d; every triangle of an ultrametric is isosceles
    with its two longest sides equal, so d(p', q) = d and then
    d(p', q') = d: every distance of at least eps is a weight.
    """
    if eps <= ZERO:
        raise ValueError("eps must be positive")
    if max_net_size < 1:
        raise ValueError("max_net_size must be >= 1")
    allowed = {ExactValue.coerce(v) for v in allowed_weights}
    witnesses: list[Optional[tuple[int, ...]]] = []
    failures: list[str] = []
    for idx, space in enumerate(family):
        classes = ball_partition(space, eps)
        if len(classes) > max_net_size:
            witnesses.append(None)
            failures.append(
                f"space {idx}: every eps-net needs >= {len(classes)} points"
            )
            continue
        reps = tuple(c[0] for c in classes)
        stray = set(space.values[bisect_left(space.values, eps):]) - allowed
        if stray:
            witnesses.append(None)
            failures.append(
                f"space {idx}: net weights {sorted(map(str, stray))} outside the allowed set"
            )
        else:
            witnesses.append(reps)
    return SutbReport(not failures, tuple(witnesses), tuple(failures))


@dataclass
class DiameterTrendReport:
    diameters: tuple[ExactValue, ...]
    target_diameter: Optional[ExactValue]
    dhat_values: Optional[tuple[ExactValue, ...]]
    equality_forced: Optional[tuple[bool, ...]]
    equality_holds: Optional[tuple[bool, ...]]
    forced_from: Optional[int]
    classification: str
    note: str


def diameter_trend(
    sequence: Sequence[UltrametricSpace],
    target: Optional[UltrametricSpace] = None,
) -> DiameterTrendReport:
    """Tabulate diameters and, given a target, the per-index distance data.

    Whenever the distance to a positive-diameter target drops below the
    larger of the two diameters, the diameters must be equal (the
    diameter-gap dichotomy); the report verifies this per index and marks
    the suffix where it holds throughout.
    """
    diameters = tuple(s.diameter() for s in sequence)
    if not diameters:
        return DiameterTrendReport(
            (), None, None, None, None, None, "empty",
            "empty sequence; nothing to report",
        )

    if all(d == diameters[0] for d in diameters):
        classification = "constant"
    elif all(diameters[i] >= diameters[i + 1] for i in range(len(diameters) - 1)):
        classification = "nonincreasing"
    else:
        suffix_start = next(
            (k for k in range(len(diameters)) if all(d == diameters[k] for d in diameters[k:])),
            len(diameters) - 1,
        )
        classification = "eventually_constant" if suffix_start < len(diameters) - 1 else "mixed"

    target_diameter = target.diameter() if target is not None else None
    dhat_values = equality_forced = equality_holds = None
    forced_from = None
    if target is not None and target_diameter > ZERO:
        values = []
        forced = []
        holds = []
        for space, diam_n in zip(sequence, diameters):
            report = dhat_gh(space, target, include_classical=False)
            values.append(report.dhat)
            is_forced = report.dhat < max(diam_n, target_diameter)
            equal = diam_n == target_diameter
            if is_forced and not equal:
                raise MethodDisagreementError(
                    "distance below the diameter maximum with unequal "
                    "diameters; this contradicts the diameter-gap dichotomy"
                )
            forced.append(is_forced)
            holds.append(equal)
        dhat_values = tuple(values)
        equality_forced = tuple(forced)
        equality_holds = tuple(holds)
        for k in range(len(forced)):
            if all(forced[k:]):
                forced_from = k
                break

    return DiameterTrendReport(
        diameters=diameters,
        target_diameter=target_diameter,
        dhat_values=dhat_values,
        equality_forced=equality_forced,
        equality_holds=equality_holds,
        forced_from=forced_from,
        classification=classification,
        note="conclusions apply to the supplied finite prefix only",
    )
