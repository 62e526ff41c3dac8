"""Spans around calls into the library's modules, and the traced replay.

The library has no spans of its own yet, so the traced run records them
from outside: every call the benchmark makes into a module's public
function is wrapped in a span named ``<module>.<step>``. ``replay_dhat``
re-runs what ``dhat_gh`` does today with public functions only, so each
layer's share of a ``dhat_gh`` call can be timed. It mirrors today's route
choice (``EngineCaps`` defaults, the diameter-gap shortcut) and has to be
updated whenever the engine's default path changes; ``check_replay`` fails
the run when the two disagree on the routes taken or on any value.
"""

from __future__ import annotations

import time

import ultragh as ug

CAPS = ug.EngineCaps()
TWO = ug.ExactValue(2)


class CheckFailed(Exception):
    """An output check failed; the operation counts as failed."""


class Span:
    __slots__ = ("tracer", "name", "id", "parent", "request", "start", "end", "counts")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.counts: dict[str, int] = {}

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self.id = len(tracer.spans)
        self.parent = tracer.open[-1] if tracer.open else None
        self.request = tracer.request
        tracer.spans.append(self)
        tracer.open.append(self.id)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = time.perf_counter_ns()
        self.tracer.open.pop()
        return False

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6

    def as_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "request": self.request,
            "name": self.name, "start_ns": self.start,
            "dur_ns": self.end - self.start, "counts": self.counts,
        }


class Tracer:
    """Keeps spans in memory; a request id groups the spans of one operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.open: list[int] = []
        self.request = 0

    def span(self, name: str) -> Span:
        return Span(self, name)

    def next_request(self) -> None:
        self.request += 1


class _NoSpan:
    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def count(self, key: str, n: int) -> None:
        pass


_NO_SPAN = _NoSpan()


class NullTracer:
    """Stand-in for untraced runs: spans cost one call and record nothing."""

    def span(self, name: str) -> _NoSpan:
        return _NO_SPAN


def _scan(tr, layer: str, x, y, predicate) -> ug.ExactValue:
    """Engine threshold scan, one span per probe: midpoint, then threshold."""
    with tr.span(f"isometries.{layer}_scan"):
        with tr.span("spaces.thresholds") as grid_span:
            grid = ug.candidate_thresholds(x, y)
            grid_span.count("thresholds", len(grid))
        prev = grid[0]
        for t in grid[1:]:
            for eps, value in ((prev.midpoint(t), prev), (t, t)):
                with tr.span(f"isometries.{layer}_probe") as probe:
                    hit = predicate(x, y, eps) is not None
                    probe.count("hits", hit)
                if hit:
                    return value
            prev = t
    raise CheckFailed(f"{layer} scan found no witness at the sentinel threshold")


def search_routes(tr, x, y) -> dict[str, ug.ExactValue]:
    """Every search route within the default caps, by engine method name."""
    product = len(x) * len(y)
    values = {}
    if product <= CAPS.corr_product:
        with tr.span("correspondences.strong_search") as span:
            res = ug.min_distortion_strong_correspondence(
                x, y, product_cap=CAPS.corr_product)
            span.count("nodes", res.nodes)
        values["strong_correspondence"] = res.distortion
    if product <= CAPS.iso_product:
        values["isometry_scan"] = _scan(tr, "iso", x, y, ug.exists_strong_epsilon_isometry)
    if product <= CAPS.approx_product:
        values["approximation_scan"] = _scan(
            tr, "approx", x, y, ug.exists_strong_epsilon_approximation)
    return values


def strongness(tr, corr) -> ug.StrongnessVerdict:
    with tr.span("correspondences.strongness_check") as span:
        verdict = ug.is_strong_correspondence(corr)
        span.count("pairs", len(corr.pairs))
    return verdict


def replay_dhat(tr, x, y):
    """Today's default ``dhat_gh`` path, call by call.

    Returns the value each route produced, the classical distance (None
    when the engine skips it) and the root span.
    """
    with tr.span("engine.replay") as root:
        with tr.span("spaces.spectra_bound"):
            ug.spectra_lower_bound(x, y)
        diam_x, diam_y = x.diameter(), y.diameter()
        product = len(x) * len(y)
        if diam_x != diam_y:
            with tr.span("correspondences.full_product"):
                full = ug.full_product(x, y)
            verdict = strongness(tr, full)
            if not verdict.is_strong:
                raise CheckFailed("full product is not strong on a diameter-gap pair")
            values = {"shortcut_3b": max(diam_x, diam_y),
                      "strong_correspondence": verdict.distortion}
        else:
            values = search_routes(tr, x, y)
        classical = None
        if product <= CAPS.classical_product:
            with tr.span("correspondences.classical_search") as span:
                res = ug.min_distortion_correspondence(
                    x, y, product_cap=max(CAPS.classical_product, product))
                span.count("nodes", res.nodes)
            classical = res.distortion / TWO
    return values, classical, root


def check_replay(report, values, classical) -> None:
    """The replay took the engine's routes and reproduced its values."""
    if set(values) != set(report.methods):
        raise CheckFailed(
            f"replay ran {sorted(values)}, dhat_gh ran {sorted(report.methods)}; "
            "update replay_dhat to the engine's current default path")
    if any(v != report.dhat for v in values.values()):
        raise CheckFailed(f"replay values {values} differ from dhat {report.dhat}")
    if classical != report.classical_dgh:
        raise CheckFailed(f"replay classical {classical} != {report.classical_dgh}")


def check_pair(tr, x, y, report, classical_value) -> None:
    """Output checks on one dhat_gh report (and the standalone d_GH value).

    The strong-correspondence witness is re-verified, the value must sit in
    the spectra/diameter sandwich and above twice d_GH, and on a
    diameter-gap pair within the caps every search route must reproduce
    the shortcut's value.
    """
    dhat = report.dhat
    witness = report.methods["strong_correspondence"].witness
    verdict = strongness(tr, witness)
    if not verdict.is_strong or verdict.distortion != dhat:
        raise CheckFailed(f"witness is not strong with distortion {dhat}")
    with tr.span("spaces.spectra_bound"):
        slb = ug.spectra_lower_bound(x, y)
    diam = max(x.diameter(), y.diameter())
    if not (slb <= dhat <= diam) or report.spectra_lower_bound != slb \
            or report.diameter_upper_bound != diam:
        raise CheckFailed(f"dhat {dhat} outside the sandwich [{slb}, {diam}]")
    if classical_value is not None:
        if report.classical_dgh != classical_value or classical_value * TWO > dhat:
            raise CheckFailed(f"d_GH {classical_value} breaks 2 d_GH <= dhat = {dhat}")
    if "shortcut_3b" in report.methods and len(x) * len(y) <= CAPS.corr_product:
        values = search_routes(tr, x, y)
        if any(v != dhat for v in values.values()):
            raise CheckFailed(f"routes {values} disagree with the shortcut value {dhat}")


def file_layers(tr, path, eps):
    """Parse one file, then time each spaces/umsio step on it separately.

    ``parse_space_file`` validates as part of parsing; the separate
    ``validate_space`` call on the parsed matrix gives the validation
    share, so parser self time is umsio.parse minus spaces.validate.
    """
    with tr.span("umsio.parse"):
        space = ug.parse_space_file(path)
    with tr.span("spaces.validate"):
        ug.validate_space(space.matrix(), space.labels, inexact=space.inexact)
    with tr.span("spaces.spectrum"):
        ug.weight_spectrum(space)
    with tr.span("spaces.ball_partition"):
        ug.ball_partition(space, eps)
    with tr.span("umsio.write") as span:
        text = ug.write_space(space)
        span.count("bytes", len(text.encode()))
    return space, text


SWEEP_OPS = 60_000  # operations per timed sweep of the exact benchmark
SWEEPS = 7  # sweeps per operation; the median is kept


def _sweep_ns(pairs, op: str) -> int:
    """One timed pass of ``op`` over the pairs, loops written out in full."""
    t0 = time.perf_counter_ns()
    if op == "exact_abs":
        for a, b in pairs:
            a.abs_diff(b)
    elif op == "fraction_abs":
        for a, b in pairs:
            abs(a - b)
    elif op == "lt":
        for a, b in pairs:
            a < b
    elif op == "eq":
        for a, b in pairs:
            a == b
    else:
        for a, b in pairs:
            pass
    return time.perf_counter_ns() - t0


def _per_op_ns(pairs, op: str) -> float:
    """Median over SWEEPS sweeps of the cost per operation, loop excluded."""
    samples = sorted(
        (_sweep_ns(pairs, op) - _sweep_ns(pairs, "loop")) / len(pairs)
        for _ in range(SWEEPS)
    )
    return samples[len(samples) // 2]


def exact_bench(values) -> dict[str, float]:
    """ExactValue against Fraction on the workload's own distance values.

    Times ``abs_diff``, ``<`` and ``==`` over all ordered pairs of values,
    repeated to about SWEEP_OPS operations per sweep. Returns the
    ExactValue cost per ``abs_diff`` and per comparison, and the ratio of
    the ExactValue total to the Fraction total over the three operations.
    """
    vals = sorted(set(values))
    exact_pairs = [(a, b) for a in vals for b in vals]
    exact_pairs *= max(1, SWEEP_OPS // len(exact_pairs))
    frac_pairs = [(a.fraction, b.fraction) for a, b in exact_pairs]
    e_abs = _per_op_ns(exact_pairs, "exact_abs")
    e_lt = _per_op_ns(exact_pairs, "lt")
    e_eq = _per_op_ns(exact_pairs, "eq")
    f_abs = _per_op_ns(frac_pairs, "fraction_abs")
    f_lt = _per_op_ns(frac_pairs, "lt")
    f_eq = _per_op_ns(frac_pairs, "eq")
    return {
        "exact.abs_diff_ns": e_abs,
        "exact.compare_ns": (e_lt + e_eq) / 2,
        "exact.wrapper_ratio": (e_abs + e_lt + e_eq) / (f_abs + f_lt + f_eq),
    }
