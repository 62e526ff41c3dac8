"""The umbrella distance computation.

dhat_gh computes the non-Archimedean Gromov-Hausdorff distance by several
independent routes and insists they agree exactly:

  * strong_correspondence: branch-and-bound minimum distortion over strong
    correspondences (the distance itself, attained on finite spaces);
  * isometry_scan: the infimum of eps admitting a strong eps-isometry,
    found by a finite threshold scan;
  * approximation_scan: same scan for strong eps-approximations;
  * shortcut_3b: when the diameters differ the distance equals the larger
    diameter. The certificate is the spectra bound reaching it together
    with the full product, whose distortion is exactly the larger diameter
    and which, having no unrelated pairs, is strong; no search and no
    strongness scan runs.

Every equal-diameter call first finds a hint: the least t in
{0} ∪ W_X ∪ W_Y at which the quotients of X and Y by closed t-balls are
isometric (_quotient_rank), read off the dendrograms the two spaces kept
from validation by a bottom-up walk that needs no recursion, so it works
at any depth. Every route checks the hint; none trusts it. The strong
search proves its own minimum, which must equal the hint; without a
budget it starts its incumbent cutoff just above it. Each scan makes two
probes, one that must fail at the hint's cell and one that must hold at
the next. A hint that any route contradicts raises
MethodDisagreementError, so routes that pass agree. A budgeted call runs
the strong and the classical search unseeded.

Every scan predicate is monotone in eps and compares grid values
(distances and their pairwise differences) with eps strictly, so it is
constant on each half-open cell (t_{k-1}, t_k] between consecutive candidate
thresholds. One probe per cell, given the cell's index and witnessing at its
midpoint, turns the infimum over real eps into a finite exact computation. A
scan infimum is the lower end of the first cell that holds and is never
attained, so a scan outcome always reads attained=False; dhat_attained
comes from the strong route (or the diameter-gap certificate), whose
minimum a finite search attains.

The classical Gromov-Hausdorff distance (half the minimum distortion over
plain correspondences) and the ratio of the two are computed alongside. Its
search stops at the first leaf reaching the merge-height lower bound
(BreakpointGrid.distortion_floor, read off the dendrograms each space
kept from validation), and a budgeted search that runs out reports half
that bound as the lower end of its interval. An unbudgeted search first
runs seeded at that bound, so it accepts only a leaf reaching it, which is
then optimal; only when no leaf does (the bound lies below the minimum)
does the search run again, seeded at the quotient value, the hint itself
when dhat_gh has one. Since 2 d_GH <= dhat, that value bounds the minimum
distortion from above, so the restart accepts only leaves of distortion
at most dhat, in classical_gh and dhat_gh alike.
Every route and the classical search of one call read the pair's single
BreakpointGrid: its thresholds, its rank matrices, its merge-height
floor, one gap-rank table, and the partner-subset and far-partner tables
both searches share. One call computes the floor and the hint once each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import ExactValue, ZERO
from .errors import (
    BudgetExceededError,
    MethodDisagreementError,
    SearchSpaceTooLargeError,
)
from .spaces import (
    BreakpointGrid,
    UltrametricSpace,
    spectra_lower_bound,
)
from .correspondences import (
    DEFAULT_PRODUCT_CAP,
    Correspondence,
    _NoLeafAtStart,
    _search,
    full_product,
)
from .isometries import (
    ApproximationWitness,
    MapWitness,
    _approximation_probe,
    _isometry_probe,
)

METHOD_NAMES = ("strong_correspondence", "isometry_scan", "approximation_scan")
TWO = ExactValue(2)


@dataclass(frozen=True)
class EngineCaps:
    """The fixed instance-size limits of dhat_gh's automatic method set."""

    corr_product: int = DEFAULT_PRODUCT_CAP
    iso_product: int = 20
    approx_product: int = 36
    classical_product: int = DEFAULT_PRODUCT_CAP


@dataclass(frozen=True)
class MethodOutcome:
    value: ExactValue
    attained: bool
    witness: object  # Correspondence, MapWitness, ApproximationWitness or None


@dataclass(frozen=True)
class ClassicalResult:
    """Classical distance, or the bracketing interval when the budget ran out.

    When optimal, lower == upper == d_GH. Otherwise lower is half the
    merge-height floor on the distortion and upper half the incumbent's.
    """

    lower: ExactValue
    upper: ExactValue
    witness: Correspondence
    optimal: bool

    @property
    def value(self) -> Optional[ExactValue]:
        return self.upper if self.optimal else None


@dataclass(frozen=True)
class DistanceReport:
    dhat: ExactValue
    dhat_attained: bool
    methods: dict[str, MethodOutcome]
    classical: Optional[ClassicalResult]
    ratio: Optional[ExactValue]
    spectra_lower_bound: ExactValue
    diameter_upper_bound: ExactValue
    agreement: bool
    inexact: bool

    @property
    def classical_dgh(self) -> Optional[ExactValue]:
        return self.classical.value if self.classical is not None else None

    def to_json_dict(self) -> dict:
        witnesses: dict[str, object] = {}
        methods: dict[str, dict] = {}
        for name, outcome in self.methods.items():
            methods[name] = {
                "value": outcome.value.token(),
                "attained": outcome.attained,
            }
            witnesses[name] = _witness_json(outcome.witness)
        if self.classical is not None:
            witnesses["classical"] = _witness_json(self.classical.witness)
        return {
            "dhat": _value_token(self.dhat),
            "dhat_attained": self.dhat_attained,
            "methods": methods,
            "classical_dgh": _value_token(self.classical_dgh),
            "ratio": _value_token(self.ratio),
            "spectra_lower_bound": self.spectra_lower_bound.token(),
            "diameter_upper_bound": self.diameter_upper_bound.token(),
            "agreement": self.agreement,
            "inexact": self.inexact,
            "witnesses": witnesses,
        }


def _value_token(value) -> Optional[str]:
    if value is None:
        return None
    return value.token()


def _witness_json(witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, Correspondence):
        return {"pairs": [[i, j] for i, j in witness.pairs]}
    if isinstance(witness, MapWitness):
        return {
            "images": list(witness.images),
            "epsilon": witness.epsilon.token(),
        }
    if isinstance(witness, ApproximationWitness):
        return {
            "xs": list(witness.xs),
            "ys": list(witness.ys),
            "epsilon": witness.epsilon.token(),
        }
    return str(witness)


def classical_gh(
    x: UltrametricSpace,
    y: UltrametricSpace,
    budget: Optional[int] = None,
    *,
    product_cap: int = DEFAULT_PRODUCT_CAP,
) -> ClassicalResult:
    """Half the minimum correspondence distortion, with witness.

    On budget exhaustion the result carries the interval between half the
    merge-height floor (BreakpointGrid.distortion_floor, never below the
    diameter difference) and half the incumbent distortion. A search that
    reaches the floor stops there as optimal. Without a budget the search
    is first seeded at the floor itself, and when no correspondence
    reaches it, runs again seeded at the quotient value dhat.
    """
    return _classical(BreakpointGrid(x, y), budget, product_cap)


def _classical(
    grid: BreakpointGrid, budget: Optional[int], product_cap: int,
    hint: Optional[int] = None,
) -> ClassicalResult:
    """classical_gh on the pair of grid.

    A budgeted call runs one unseeded search. Without a budget a floor pass
    runs first: the search seeded at the merge-height floor, a proven lower
    bound, so any leaf it accepts is optimal and is the first optimal leaf
    in search order, the witness an unseeded search finds. When the floor
    lies below the minimum the floor pass accepts no leaf, and the search
    runs again seeded at the quotient value, which 2 d_GH <= dhat puts at
    or above the minimum, so it finds that same leaf; a quotient value
    that no leaf reaches raises. The floor is the grid's, computed once
    with it. hint is the quotient value's rank when the caller has it
    (dhat_gh); otherwise the restart computes it (_quotient_rank).
    """
    floor_rank = grid.floor
    if budget is not None:
        res = _search(grid, False, budget, product_cap)
    else:
        try:
            res = _search(grid, False, None, product_cap, floor_rank)
        except _NoLeafAtStart:
            res = _search(grid, False, None, product_cap,
                          _quotient_rank(grid) if hint is None else hint)
    floor = grid.values[floor_rank]
    if res.distortion < floor:
        raise MethodDisagreementError(
            f"classical search returned {res.distortion / TWO}, below the "
            f"merge-height bound {floor / TWO}"
        )
    half = res.distortion / TWO
    lower = half if res.optimal else floor / TWO
    return ClassicalResult(lower=lower, upper=half, witness=res.correspondence,
                           optimal=res.optimal)


def _scan_infimum(grid: BreakpointGrid, probe, hint: int):
    """Exact infimum of a monotone probe over positive eps, at the grid
    rank hint h.

    Returns MethodOutcome(infimum, False, witness_at_first_true). Every probe
    compares grid values with eps strictly, so it depends on eps only
    through the cut k = bisect_left(grid.values, eps) and is constant on
    each half-open cell (t_{k-1}, t_k] of grid.thresholds(). One probe per
    cell, given k and witnessing at the cell's midpoint, decides the whole
    cell. Cell h must fail (no cell when h = 0) and cell h + 1 must hold;
    the probe is monotone in eps, so together they pin the infimum at t_h,
    never attained, with the witness of the first cell that holds. If
    either disagrees the scan raises MethodDisagreementError.
    """
    witness = probe(hint + 1)
    if witness is None or (hint and probe(hint) is not None):
        raise MethodDisagreementError(
            f"scan does not reach its infimum at the quotient bound {grid.values[hint]}"
        )
    return MethodOutcome(grid.values[hint], False, witness)


def _quotient_rank(grid: BreakpointGrid) -> int:
    """Grid rank of the least t in {0} ∪ W_X ∪ W_Y at which the quotients of
    grid's pair by closed t-balls are isometric.

    Each space's dendrogram, kept from validation, is cut at rank c: a
    node of height at most c (every point among them) gets id 0, any other
    the id of the pair of its height's grid rank and its children's sorted
    ids, interned in one dict both spaces share for the call. Ids are
    given from the last node back, children before parents, so the walk
    needs no recursion at any depth, and two roots have equal ids exactly
    when the quotients are isometric. The cuts are compared from the
    larger of two proven lower bounds on dhat, the spectra bound (the
    largest rank one spectrum holds and the other lacks) and the grid's
    merge-height floor, upward; at the larger diameter both roots get id
    0. The value is only a starting hint: every route run from it checks
    it.
    """
    start = max(grid.spectra_floor(), grid.floor)
    ids: dict[tuple[int, tuple[int, ...]], int] = {}
    tx, ty = ((len(space), list(map(w.__getitem__, space._tree.heights)),
               space._tree.children)
              for space, w in ((grid.x, grid.wx), (grid.y, grid.wy)))
    return next(c for c in sorted({*grid.wx, *grid.wy}) if c >= start
                and _cut_id(*tx, c, ids) == _cut_id(*ty, c, ids))


def _cut_id(n: int, heights: list[int], children: list[list[int]], c: int,
            ids: dict[tuple[int, tuple[int, ...]], int]) -> int:
    """Id of the root of an n-point dendrogram, its heights as grid ranks,
    cut at rank c: 0 at or below the cut, else the interned pair of the
    height and the children's sorted ids."""
    node_id = [0] * (n + len(heights))
    for k in range(len(heights) - 1, -1, -1):
        if heights[k] > c:
            key = (heights[k], tuple(sorted(map(node_id.__getitem__, children[k]))))
            node_id[n + k] = ids.setdefault(key, len(ids) + 1)
    return node_id[n] if heights else 0


def _auto_methods(product: int, caps: EngineCaps) -> tuple[str, ...]:
    names = []
    if product <= caps.corr_product:
        names.append("strong_correspondence")
    if product <= caps.iso_product:
        names.append("isometry_scan")
    if product <= caps.approx_product:
        names.append("approximation_scan")
    return tuple(names)


def dhat_gh(
    x: UltrametricSpace,
    y: UltrametricSpace,
    methods: Optional[Sequence[str]] = None,
    *,
    budget: Optional[int] = None,
    include_classical: Optional[bool] = None,
) -> DistanceReport:
    """Compute the non-Archimedean Gromov-Hausdorff distance, cross-checked.

    With methods=None the method set is chosen from EngineCaps(); on equal
    diameters an explicit sequence runs exactly those routes. Every route
    must reach the closed-ball quotient value (_quotient_rank) to the last
    bit, so all of them agree, or MethodDisagreementError is raised.
    When the diameters differ, explicit methods are still validated, but the
    shortcut path always certifies the value as the larger diameter instead:
    the spectra bound reaches it and the full product attains it.
    """
    if methods is not None:
        names = tuple(methods)
        for name in names:
            if name not in METHOD_NAMES:
                raise ValueError(f"unknown method {name!r}")
        if not names:
            raise ValueError("methods must not be empty")
    caps = EngineCaps()
    slb = spectra_lower_bound(x, y)
    diam_x, diam_y = x.diameter(), y.diameter()
    diam_max = max(diam_x, diam_y)
    product = len(x) * len(y)
    outcomes: dict[str, MethodOutcome] = {}
    grid = None  # built once, when a route or the classical search runs
    hint = None  # the quotient value's grid rank, on equal diameters

    if diam_x != diam_y:
        # Larger diameter appears in exactly one spectrum, so the spectra
        # bound meets the full product, strong with distortion diam_max,
        # and pins the value.
        if slb != diam_max:
            raise MethodDisagreementError(
                f"spectra bound {slb} does not reach the diameter gap value {diam_max}"
            )
        dhat = diam_max
        outcomes["shortcut_3b"] = MethodOutcome(dhat, True, None)
        outcomes["strong_correspondence"] = MethodOutcome(
            dhat, True, full_product(x, y))
    else:
        if methods is None:
            names = _auto_methods(product, caps)
            if not names:
                raise SearchSpaceTooLargeError(
                    f"|X|*|Y| = {product} exceeds every method cap; pass "
                    "methods=..."
                )
        grid = BreakpointGrid(x, y)
        hint = _quotient_rank(grid)
        dhat = grid.values[hint]
        for name in names:
            if name == "strong_correspondence":
                # A budgeted search runs unseeded, so its work is a plain
                # search's.
                res = _search(grid, True, budget, caps.corr_product,
                              hint if budget is None else None)
                if not res.optimal:
                    raise BudgetExceededError(
                        "strong correspondence search ran out of budget"
                    )
                if res.distortion != dhat:
                    raise MethodDisagreementError(
                        f"strong search found {res.distortion}, not the quotient "
                        f"bound {dhat}"
                    )
                outcomes[name] = MethodOutcome(res.distortion, True, res.correspondence)
            else:
                probe = _isometry_probe if name == "isometry_scan" else _approximation_probe
                outcomes[name] = _scan_infimum(grid, lambda k: probe(grid, k, budget), hint)

    if not (slb <= dhat <= diam_max):
        raise MethodDisagreementError(
            f"value {dhat} violates the sandwich [{slb}, {diam_max}]"
        )

    if include_classical is None:
        include_classical = product <= caps.classical_product
    classical = None
    ratio = None
    if include_classical:
        if grid is None:
            grid = BreakpointGrid(x, y)
        # include_classical has decided; the product itself as cap never
        # refuses.
        classical = _classical(grid, budget, product, hint)
        if classical.optimal:
            doubled = classical.value * TWO
            if doubled > dhat:
                raise MethodDisagreementError(
                    f"2 d_GH = {doubled} exceeds dhat = {dhat}"
                )
            if (classical.value == ZERO) != (dhat == ZERO):
                raise MethodDisagreementError(
                    "exactly one of d_GH and dhat vanished"
                )
            if classical.value != ZERO:
                ratio = dhat / classical.value

    return DistanceReport(
        dhat=dhat,
        dhat_attained=any(o.attained for o in outcomes.values()),
        methods=outcomes,
        classical=classical,
        ratio=ratio,
        spectra_lower_bound=slb,
        diameter_upper_bound=diam_max,
        agreement=True,
        inexact=x.inexact or y.inexact,
    )


def metric_ratio(
    x: UltrametricSpace,
    y: UltrametricSpace,
    *,
    budget: Optional[int] = None,
) -> Optional[ExactValue]:
    """dhat / d_GH, or None when the spaces are isometric (d_GH = 0).

    The ratio needs the exact d_GH, so a classical search that runs out of
    budget raises BudgetExceededError instead of reading as isometric.
    """
    report = dhat_gh(x, y, budget=budget, include_classical=True)
    if not report.classical.optimal:
        raise BudgetExceededError("classical search ran out of budget")
    return report.ratio
