"""The umbrella distance computation.

dhat_gh computes the non-Archimedean Gromov-Hausdorff distance and reports
it under the names of its routes:

  * strong_correspondence: a strong correspondence of minimum distortion
    (the distance itself, attained on finite spaces);
  * isometry_scan: the infimum of eps admitting a strong eps-isometry,
    with a map witness just above it;
  * approximation_scan: the same for strong eps-approximations;
  * shortcut_3b: when the diameters differ the distance equals the larger
    diameter. The certificate is the spectra bound reaching it together
    with the full product, whose distortion is exactly the larger diameter
    and which, having no unrelated pairs, is strong; no search and no
    strongness scan runs.

Every equal-diameter call finds the quotient value, dhat: the least t in
{0} ∪ W_X ∪ W_Y at which the quotients of X and Y by closed t-balls are
isometric. One walk up the cuts finds, certifies and matches it
(isometries._certified_quotient), on the dendrograms the two spaces kept
from validation, with no recursion, so it works at any depth. The walk
starts at the larger of the spectra bound this call reports
(spaces.spectra_lower_bound) and the grid's merge-height floor. Its first
comparison, the cut just below the start, must find the quotients
different: that is the lower certificate. Every cut from the start up is
then compared once, and the first whose quotients are isometric is dhat.
The isometries module owns every cut of a dendrogram; this one reads
none.

Every outcome the report shows comes from the one greedy isometry
between the two quotients at that cut, at every size, and only the
witnesses of those outcomes are built; no strong search or scan runs.
The matching is checked from the class structure in O(n^2 + m^2): the
classes pair one to one, the first points of matched classes sit at
equal distances, and the largest class diameter is the value.
exists_strong_epsilon_isometry, exists_strong_epsilon_approximation and
find_split answer from the same matching, taken at the largest grid
value below their eps. A value that a check contradicts raises
MethodDisagreementError. methods= only names the routes the report
shows; without it EngineCaps picks them: those inside the caps, or all
three beyond every cap. A budget bounds only the classical search; at
the entry of dhat_gh, classical_gh and min_distortion_correspondence it
must be None or an int of at least 0. Any call that asks for the
classical search (include_classical=True, as metric_ratio does) beyond
its cap raises SearchSpaceTooLargeError before any work, on equal
diameters or not.
min_distortion_strong_correspondence returns the same strong_correspondence
outcome as a SearchResult, so the only search in the package is the
classical one.

The isometry_scan and approximation_scan outcomes keep the reading of a
scan over eps, though none runs: a strong eps-witness exists exactly when
eps > dhat, and whether one does is constant on each half-open cell
(t_{k-1}, t_k] between consecutive candidate thresholds. The infimum is
the lower end of the first cell that holds and is never attained, so
those outcomes read attained=False, with their witness at the midpoint of
the cell above the value; dhat_attained comes from the strong
correspondence (or the diameter-gap certificate).

The classical Gromov-Hausdorff distance (half the minimum distortion over
plain correspondences) and the ratio of the two are computed alongside. Its
search stops at the first leaf reaching the merge-height lower bound
(BreakpointGrid.distortion_floor, read off the merge heights each space
makes from its dendrogram when it is built), and a budgeted search that
runs out reports half that bound as the lower end of its interval. An
unbudgeted search first runs seeded at that bound, so it accepts only a
leaf reaching it, which is then optimal; only when no leaf does (the
bound lies below the minimum) does the search run again, seeded at dhat.
dhat_gh hands it dhat as a grid int, the larger diameter on a diameter
gap, so only a standalone classical_gh walks the quotient cuts for it.
Since 2 d_GH <= dhat, that value bounds the minimum distortion from
above, so the restart accepts only leaves of distortion at most dhat, in
classical_gh and dhat_gh alike.
The quotient witnesses and the classical search of one call read the
pair's single BreakpointGrid, whose every number is an int over one
common denominator: both spaces' values and its merge-height floor, and,
for the search only, the per-value gaps. Both read distances off the
spaces' own ranks, and an ExactValue is made only for a value the report
shows: dhat, the classical distortion and the floor. Each
classical search run builds its own far-partner bitmasks
(correspondences._FarMasks): y's point masks per distance once, then, for
each cutoff it reaches, one row per distance of x. Nothing writes the
grid after it is built.
The search's partner-subset orders depend only on |Y|, and up to 12
points one copy serves every search. No relation check (a verdict, the
partner walk) runs on the way. One call computes the floor and the
quotient value once each.
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
    SearchResult,
    _NoLeafAtStart,
    _check_budget,
    _search,
    full_product,
)
from .isometries import (
    ApproximationWitness,
    MapWitness,
    _cell_midpoint,
    _certified_quotient,
)

METHOD_NAMES = ("strong_correspondence", "isometry_scan", "approximation_scan")
TWO = ExactValue(2)


@dataclass(frozen=True)
class EngineCaps:
    """The fixed instance sizes up to which a dhat_gh report without
    methods= shows each route; beyond every cap it shows all three. No
    route runs a search at any size, so the caps only pick the names.
    classical_product is the size up to which dhat_gh runs the classical
    search unasked; beyond it a call that asks for it raises
    SearchSpaceTooLargeError."""

    corr_product: int = DEFAULT_PRODUCT_CAP
    iso_product: int = 20
    approx_product: int = 36
    classical_product: int = DEFAULT_PRODUCT_CAP


_CAPS = EngineCaps()  # the caps every dhat_gh call reads; frozen, so shared


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
    _check_budget(budget)
    return _classical(BreakpointGrid(x, y), budget, product_cap)


def _classical(
    grid: BreakpointGrid, budget: Optional[int], product_cap: int,
    dhat: Optional[int] = None,
) -> ClassicalResult:
    """classical_gh on the pair of grid.

    A budgeted call runs one unseeded search. Without a budget a floor pass
    runs first: the search seeded at the merge-height floor, a proven lower
    bound, so any leaf it accepts is optimal and is the first optimal leaf
    in search order, the witness an unseeded search finds. When the floor
    lies below the minimum the floor pass accepts no leaf, and the search
    runs again seeded at dhat, which 2 d_GH <= dhat puts at or above the
    minimum, so it finds that same leaf; a dhat that no leaf reaches
    raises. The floor is the grid's, computed once with it. dhat is the
    quotient value as a grid int when the caller has it, as dhat_gh
    always does; without it the restart walks the quotient cuts
    (isometries._certified_quotient).
    """
    if budget is not None:
        res = _search(grid, budget, product_cap)
    else:
        try:
            res = _search(grid, None, product_cap, grid.floor)
        except _NoLeafAtStart:
            res = _search(grid, None, product_cap,
                          _certified_quotient(grid).height if dhat is None else dhat)
    floor = ExactValue(grid.floor, grid.den)
    if res.distortion < floor:
        raise MethodDisagreementError(
            f"classical search returned {res.distortion / TWO}, below the "
            f"merge-height bound {floor / TWO}"
        )
    half = res.distortion / TWO
    lower = half if res.optimal else floor / TWO
    return ClassicalResult(lower=lower, upper=half, witness=res.correspondence,
                           optimal=res.optimal)


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
    """Compute the non-Archimedean Gromov-Hausdorff distance, with checked
    witnesses.

    On equal diameters one walk up the closed-ball quotient cuts finds
    the value, certifies it from below and matches the quotients there
    (isometries._certified_quotient), and every outcome comes from that
    checked greedy quotient isometry, at any size:

      * strong_correspondence: the union of A x phi(A), attained;
      * isometry_scan: each point to the first point of its class's
        partner, at the midpoint of the cell above the value;
      * approximation_scan: the classes' first points, paired, at that
        midpoint.

    A value its checks contradict raises MethodDisagreementError. The
    classical search gets dhat as a grid int on both branches, so it never
    walks the cuts again. methods only names the routes the report shows,
    and only their witnesses are built; methods=None shows those
    EngineCaps() picks, and a string in its place raises TypeError. When
    the diameters differ, explicit methods are still validated, but the
    shortcut path always certifies the value as the larger diameter
    instead: the spectra bound reaches it and the full product attains
    it. budget, None or an int of at least 0 (a bool or another type
    raises TypeError, a negative int ValueError), bounds only the
    classical search, and include_classical=True beyond the classical cap
    raises SearchSpaceTooLargeError before any work.
    """
    _check_budget(budget)
    if methods is not None:
        if isinstance(methods, str):
            # A string would be read as its characters, each no method.
            raise TypeError(
                f"methods must be a sequence of method names, not the string {methods!r}")
        names = tuple(methods)
        for name in names:
            if name not in METHOD_NAMES:
                raise ValueError(f"unknown method {name!r}")
        if not names:
            raise ValueError("methods must not be empty")
    product = len(x) * len(y)
    # The classical search asked for past its cap would build tables
    # exponential in the size, so the call refuses before any work.
    if include_classical and product > _CAPS.classical_product:
        raise SearchSpaceTooLargeError(
            f"|X|*|Y| = {product} exceeds the classical search cap "
            f"{_CAPS.classical_product}"
        )
    slb = spectra_lower_bound(x, y)
    diam_x, diam_y = x.diameter(), y.diameter()
    diam_max = max(diam_x, diam_y)
    outcomes: dict[str, MethodOutcome] = {}
    grid = None  # built once, when the quotient or the classical search runs

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
        # The quotient route at every size; methods and the caps only pick
        # the names.
        grid = BreakpointGrid(x, y)
        quotient = _certified_quotient(grid)
        scaled = quotient.height
        dhat = ExactValue(scaled, grid.den)
        if methods is None:
            names = _auto_methods(product, _CAPS) or METHOD_NAMES
        # Only the witnesses the report shows are built.
        eps = None
        for name in names:
            if name == "strong_correspondence":
                outcomes[name] = MethodOutcome(dhat, True, quotient.correspondence())
                continue
            if eps is None:
                eps = _cell_midpoint(grid, scaled)
            outcomes[name] = MethodOutcome(dhat, False, (
                quotient.isometry(eps) if name == "isometry_scan"
                else quotient.approximation(eps)))

    if not (slb <= dhat <= diam_max):
        raise MethodDisagreementError(
            f"value {dhat} violates the sandwich [{slb}, {diam_max}]"
        )

    if include_classical is None:
        include_classical = product <= _CAPS.classical_product
    classical = None
    ratio = None
    if include_classical:
        if grid is None:
            grid = BreakpointGrid(x, y)
            scaled = max(grid.wx[-1], grid.wy[-1])  # the larger diameter, dhat on a gap
        classical = _classical(grid, budget, _CAPS.classical_product, scaled)
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


def min_distortion_strong_correspondence(
    x: UltrametricSpace,
    y: UltrametricSpace,
    budget: Optional[int] = None,
    *,
    product_cap: int = DEFAULT_PRODUCT_CAP,
) -> SearchResult:
    """Exact minimum distortion over strong correspondences, the
    non-Archimedean Gromov-Hausdorff distance, with a strong correspondence
    attaining it: dhat_gh's strong_correspondence outcome, at any size.

    No search runs, so optimal is always True and nodes is 0. Neither
    budget nor product_cap bounds anything; both are kept for callers that
    pass them, and both are checked as the other entries check them: a
    bool or another type raises TypeError and a negative int ValueError;
    only budget may be None.
    """
    _check_budget(budget)
    _check_budget(product_cap, "product_cap", optional=False)
    outcome = dhat_gh(x, y, ("strong_correspondence",),
                      include_classical=False).methods["strong_correspondence"]
    return SearchResult(outcome.witness, outcome.value, True, 0)
