"""End-to-end and per-layer benchmark for ultragh.

Usage, from the repository root:

    python3 perfbench/run.py --workload hard_small --seed 0 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory, and one
process on one thread drives it in a closed loop: each operation starts
when the previous one has returned. Inputs come from ``--seed``; every
output is checked. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it give every metric with its unit and sample count.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import sys
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / ".work"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 0  # the seed whose output digests are pinned in digests.json
# setup_s is the median of at least MIN_SETUPS full set-ups, more (up to
# MAX_SETUPS) while they take under SETUP_SECONDS in total.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 15, 3.0
MAX_REPEATS = 16  # cap on how often one cheap operation recurs in a round
HEAVY_POINTS, HEAVY_EVERY = 128, 4  # see Runner.measure
MIN_TRACED_PASSES = 2  # the traced run compares counts between passes
PROBE_SECONDS = 0.004  # process CPU time between two speed probes
PROBE_WINDOW_NS = 20_000_000  # probes this much CPU time around a call count for it
PERIOD_SECONDS = 0.2  # wall time on one core before the faster core is chosen again
CORE_PROBES = 8  # kernel runs per core when choosing one


# The probe kernel: pure Python and the standard library only, so no change
# to the library can change its cost. Slot objects, tuple-keyed dict
# updates, a keyed sort and Fraction arithmetic, like the library's inner
# loops over ExactValue.
_PROBE_VALUES = tuple(Fraction(k * 7 % 23 + 1, 8 * (k % 3 + 1)) for k in range(4))
# The kernel's CPU time on the reference machine (see NOTES.md). Scaled
# times read as the CPU time a call takes when the kernel takes this long.
PROBE_REF_NS = 140_000


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _probe_kernel() -> int:
    nodes, table = [], {}
    for i in range(120):
        node = _Node((i * 7) % 13, i)
        table[node.key, i % 5] = table.get((node.key, i % 5), 0) + node.value
        if node.key in (1, 3, 5):
            nodes.append(node)
    nodes.sort(key=lambda n: (n.key, -n.value))
    seen: dict = {}
    for a in _PROBE_VALUES:
        for b in _PROBE_VALUES:
            d = abs(a - b)
            if d < a:
                seen[d] = seen.get(d, 0) + 1
    return len(nodes) + len(table) + len(sorted(seen.items()))


def _kernel_ns() -> int:
    t0 = time.thread_time_ns()
    _probe_kernel()
    return time.thread_time_ns() - t0


def _stamp(start: int) -> tuple[int, int]:
    """The CPU-time interval of a call that started at ``start``."""
    return start, time.thread_time_ns()


class Clock:
    """CPU-time stopwatch, scaled to a reference speed probed as it runs.

    Every call is timed in this thread's CPU time, so time spent preempted
    by other processes or stolen by the hypervisor is left out. The speed
    of a core itself still changes: on the 2-core machine the benchmark was
    built on, the same pure-Python loop ran 1.45-2x slower for stretches of
    a few milliseconds to a whole run, presumably while another tenant used
    the core's sibling hardware thread.

    So while the clock is entered, a profiling timer interrupts the process
    every PROBE_SECONDS of CPU time, and the signal handler times a small
    fixed kernel. A call's time is its CPU time minus the probes that ran
    inside it, scaled by PROBE_REF_NS over the mean kernel time of the
    probes within PROBE_WINDOW_NS of the call (long calls are probed
    throughout). A slow stretch slows the kernel and the call alike and
    cancels out, while a change to the library moves only the call.

    ``tick``, called between calls, also compares the allowed cores every
    PERIOD_SECONDS and pins the process to the faster one, so that fewer
    calls run slowed at all. The run stays one process on one thread.
    """

    def __init__(self):
        self.cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.last = float("-inf")
        self.at: list[int] = []  # thread CPU ns at each probe's start
        self.ns: list[int] = []  # each probe's kernel CPU ns

    def __enter__(self) -> "Clock":
        signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_SECONDS, PROBE_SECONDS)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return False

    def _probe(self, signum, frame) -> None:
        start = time.thread_time_ns()
        _probe_kernel()
        self.at.append(start)
        self.ns.append(time.thread_time_ns() - start)

    def tick(self) -> None:
        if len(self.cores) < 2 or time.perf_counter() - self.last < PERIOD_SECONDS:
            return
        speeds = {}
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            speeds[core] = sum(_kernel_ns() for _ in range(CORE_PROBES))
        os.sched_setaffinity(0, {min(speeds, key=speeds.get)})
        self.last = time.perf_counter()

    def scaled(self, stamp: tuple[int, int]) -> float:
        """A call's CPU seconds at the reference speed, probes taken out.

        Call it after the clock is exited, so that the probes after the
        call are in.
        """
        start, end = stamp
        at, ns = self.at, self.ns
        own = sum(ns[bisect_left(at, start):bisect_left(at, end)])
        lo = bisect_left(at, start - PROBE_WINDOW_NS)
        hi = max(bisect_right(at, end + PROBE_WINDOW_NS), lo + 1)
        speed = sum(ns[lo:hi]) / len(ns[lo:hi])
        return (end - start - own) / 1e9 * PROBE_REF_NS / speed


def _ns(stamp: tuple[int, int]) -> int:
    return stamp[1] - stamp[0]


def _p90(xs):
    if len(xs) < 2:
        return xs[0]
    return quantiles(xs, n=10, method="inclusive")[-1]


class Runner:
    """One benchmark run: set-up, reference pass, then the measured phase."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rng = random.Random(f"order:{workload}:{seed}")

    # -- bookkeeping ---------------------------------------------------------

    def attempt(self, what: str, fn, *args):
        """Run one operation or check; count it, and count it failed if it raises."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted, the run goes on
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    # -- set-up and references -----------------------------------------------

    def setup(self, span) -> tuple[object, tuple[int, int]]:
        """Generate, validate and write every input; each set-up overwrites the last."""
        t0 = time.thread_time_ns()
        inputs = workloads.InputFactory(self.workload, self.seed, self.work, span).build()
        return inputs, _stamp(t0)

    def prepare(self, inputs) -> None:
        """Untimed reference pass: compute and check every expected output."""
        self.inputs = inputs
        self.ref_reports: list[dict] = []
        self.ref_classical: list[object] = []
        self.hard = 0
        for pair in inputs.pairs:
            ref = self.attempt(f"reference {pair.name}", _reference, pair)
            report, classical = ref or (None, None)
            self.ref_reports.append(report and report.to_json_dict())
            self.ref_classical.append(_classical_payload(classical))
            self.hard += bool(report and report.dhat < report.diameter_upper_bound)
        self.file_eps = []
        for f in inputs.files:
            self.attempt(f"round trip {f.path.name}", _check_round_trip, f)
            spectrum = ug.weight_spectrum(f.space).values
            self.file_eps.append(spectrum[len(spectrum) // 2] if spectrum else ug.ONE)
        self.digest = hashlib.sha256(json.dumps(
            [self.ref_reports, self.ref_classical, [f.text for f in inputs.files]],
            sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        if self.seed == DEFAULT_SEED:
            self.attempt("output digest", self.check_digest)

    def check_digest(self) -> None:
        pinned = json.loads(DIGESTS.read_text())[self.workload]
        if pinned != self.digest:
            raise replay.CheckFailed(f"output digest {self.digest} != pinned {pinned}")

    # -- operations ----------------------------------------------------------

    def cli_ops(self) -> list[tuple[list[str], object]]:
        """(argv, checker) for every CLI call of one round."""
        if self.workload == "large_io":
            return [self.file_command(name, i) for name, i in workloads.LARGE_CLI]
        # Large pairs are left to dhat_p90_ms: a CLI call on them would
        # double the full-product certificate time of every round.
        return [
            (["dhat", str(p.left), str(p.right), "--json"],
             _expect_json(self.ref_reports[i]))
            for i, p in enumerate(self.inputs.pairs)
            if p.product <= replay.CAPS.classical_product
        ]

    def file_command(self, name: str, i: int):
        files = self.inputs.files
        f, eps = files[i], self.file_eps[i]
        if name == "validate":
            return (["validate", str(f.path), "--json"], _expect_json({
                "valid": True, "points": len(f.space),
                "diameter": f.space.diameter().token(), "inexact": f.space.inexact}))
        if name == "spectra":
            return (["spectra", str(f.path), "--json"], _expect_json(
                {"spectrum": [v.token() for v in ug.weight_spectrum(f.space)]}))
        if name == "lowerbound":
            other = files[i - 1]
            bound = ug.spectra_lower_bound(f.space, other.space)
            return (["lowerbound", str(f.path), str(other.path), "--json"],
                    _expect_json({"spectra_lower_bound": bound.token()}))
        if name == "net":
            classes = ug.ball_partition(f.space, eps)
            labels = f.space.labels
            return (["net", str(f.path), "--eps", eps.token(), "--json"], _expect_json({
                "net_size": len(classes),
                "representatives": [labels[c[0]] for c in classes],
                "classes": [[labels[p] for p in c] for c in classes]}))
        target = self.work / f"gen{i}.ums"
        expected = {"written": str(target), "points": len(f.space), "inexact": False}

        def check_gen(out: str) -> None:
            _expect_json(expected)(out)
            if target.read_text() != f.text:
                raise replay.CheckFailed(f"gen -o output differs from {f.path.name}")
        return (f.gen_argv + ["-o", str(target), "--json"], check_gen)

    # -- measured phase (tracing off) ----------------------------------------

    def measure(self) -> dict[str, list[list[tuple[int, int]]]]:
        """Closed loop over shuffled rounds of every operation until time is up.

        The first round runs every operation once and always completes, so
        every input has a sample. Later rounds stop at the deadline; in them
        an operation cheaper than half the mean first-round time appears
        that many times more (at most MAX_REPEATS), spread through the
        shuffled round, so cheap inputs are sampled across the whole phase.
        Loads of files over HEAVY_POINTS points run only in every
        HEAVY_EVERY-th round: on large_io they took over half of a round,
        they sit far above the median load, and the time they free gives
        the operations that set the medians more samples.
        Returns, per operation kind, the CPU-time stamps (see Clock) of
        each call on each input.
        """
        pairs, files = self.inputs.pairs, self.inputs.files
        cli = self.cli_ops()
        ops = [("dhat", i) for i in range(len(pairs))]
        ops += [("dgh", i) for i, p in enumerate(pairs)
                if p.product <= replay.CAPS.classical_product]
        ops += [("load", i) for i in range(len(files))]
        ops += [("cli", i) for i in range(len(cli))]
        samples = {kind: {} for kind in ("dhat", "dgh", "load", "cli")}
        clock = self.clock
        deadline = time.perf_counter() + self.seconds
        rounds = 0
        heavy = {("load", i) for i, f in enumerate(files) if len(f.space) > HEAVY_POINTS}
        full = ops  # a round with the heavy loads; ``ops`` leaves them out
        while rounds == 0 or time.perf_counter() < deadline:
            round_ops = full if rounds % HEAVY_EVERY == 0 else ops
            self.rng.shuffle(round_ops)
            for kind, i in round_ops:
                if rounds and time.perf_counter() >= deadline:
                    break
                clock.tick()
                stamp = self.attempt(kind, self.run_op, kind, cli[i] if kind == "cli" else i)
                if stamp is not None:
                    samples[kind].setdefault(i, []).append(stamp)
            if rounds == 0:
                first = {op: _ns(samples[op[0]].get(op[1], [(0, 0)])[0]) for op in ops}
                half_mean = 0.5 * sum(first.values()) / len(first)
                full = [op for op in ops for _ in range(
                    max(1, min(MAX_REPEATS, int(half_mean / max(first[op], 1)))))]
                ops = [op for op in full if op not in heavy]
            rounds += 1
        return {kind: list(per_input.values()) for kind, per_input in samples.items()}

    def run_op(self, kind: str, arg) -> tuple[int, int]:
        """One timed operation; returns its CPU-time stamp after checking its output."""
        if kind == "dhat":
            pair = self.inputs.pairs[arg]
            t0 = time.thread_time_ns()
            report = ug.dhat_gh(pair.x, pair.y)
            stamp = _stamp(t0)
            if report.to_json_dict() != self.ref_reports[arg]:
                raise replay.CheckFailed(f"dhat_gh output changed on {pair.name}")
        elif kind == "dgh":
            pair = self.inputs.pairs[arg]
            t0 = time.thread_time_ns()
            result = ug.classical_gh(pair.x, pair.y)
            stamp = _stamp(t0)
            if _classical_payload(result) != self.ref_classical[arg]:
                raise replay.CheckFailed(f"classical_gh output changed on {pair.name}")
        elif kind == "load":
            f = self.inputs.files[arg]
            t0 = time.thread_time_ns()
            space = ug.parse_space_file(f.path)
            stamp = _stamp(t0)
            if space != f.space:
                raise replay.CheckFailed(f"{f.path.name} loaded a different space")
        else:
            argv, check = arg
            stamp, out = _run_cli(argv)
            check(out)
        return stamp

    def run_untraced(self) -> tuple[dict[str, float], dict[str, str]]:
        """Set-ups, reference pass and measured phase; the end-to-end metrics."""
        setups, first_texts = [], None
        self.clock = clock = Clock()
        with clock:
            while len(setups) < MIN_SETUPS or (len(setups) < MAX_SETUPS and
                                               sum(map(_ns, setups)) < SETUP_SECONDS * 1e9):
                clock.tick()
                inputs, stamp = self.setup(replay.NullTracer().span)
                setups.append(stamp)
                texts = [f.text for f in inputs.files]
                first_texts = first_texts or texts
                self.attempt("set-up is deterministic", _same_texts, texts, first_texts)
            self.prepare(inputs)
            stamps = self.measure()
        setup_times = [clock.scaled(stamp) for stamp in setups]
        samples = {kind: [[clock.scaled(stamp) for stamp in calls] for calls in by_input]
                   for kind, by_input in stamps.items()}
        # One value per input: the median of its calls. Inputs then weigh
        # the same whatever their call count.
        per_input = {kind: [median(v) for v in vs] for kind, vs in samples.items()}
        ms = {kind: [v * 1000 for v in vs] for kind, vs in per_input.items()}
        metrics = {
            "setup_s": median(setup_times),
            "dhat_p50_ms": median(ms["dhat"]),
            "dhat_p90_ms": _p90(ms["dhat"]),
            "pairs_per_s": len(per_input["dhat"]) / sum(per_input["dhat"]),
            "dgh_p50_ms": median(ms["dgh"]),
            "cli_p50_ms": median(ms["cli"]),
            "load_p50_ms": median(ms["load"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        counts = {"setup_s": f"{len(setup_times)} set-ups"}
        for name, kind in (("dhat_p50_ms", "dhat"), ("dhat_p90_ms", "dhat"),
                           ("pairs_per_s", "dhat"), ("dgh_p50_ms", "dgh"),
                           ("cli_p50_ms", "cli"), ("load_p50_ms", "load")):
            calls = sum(map(len, samples[kind]))
            counts[name] = f"{calls} calls on {len(samples[kind])} inputs"
        probes = [ns / 1e3 for ns in clock.ns]
        print(f"speed probes: {len(probes)}, kernel median {median(probes):.1f} us, "
              f"quartiles {' '.join(f'{q:.1f}' for q in quantiles(probes, n=4))} us; "
              f"times are scaled to {PROBE_REF_NS / 1e3:.1f} us")
        print(f"output digest: {self.digest}")
        print(f"hard-case pairs: {self.hard} of {len(inputs.pairs)}")
        print(f"failed_frac: {self.failed / self.attempted:.6f} ratio "
              f"({self.attempted} operations and checks)")
        return metrics, counts

    def run_traced(self) -> tuple[dict[str, float], dict[str, str]]:
        """One traced set-up, reference pass and replay passes; per-layer metrics."""
        tracer = replay.Tracer()
        inputs, _ = self.setup(tracer.span)
        self.prepare(inputs)
        metrics = self.traced(tracer)
        values = [v for p in inputs.pairs
                  for v in (*p.x.distance_values(), *p.y.distance_values())]
        values += [v for f in inputs.files for v in f.space.distance_values()]
        metrics.update(replay.exact_bench(values))
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{self.workload}-{self.seed}.jsonl"
        with trace_file.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.as_json()) + "\n")
        print(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
        return metrics, {}

    # -- traced run ------------------------------------------------------------

    def traced(self, tracer) -> dict[str, float]:
        """Replay passes with spans until time is up (at least two passes)."""
        deadline = time.perf_counter() + self.seconds
        per_pair: dict[str, list[float]] = {"engine": [], "trace": []}
        pass_counts = []
        while len(pass_counts) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
            start = len(tracer.spans)
            pass_shape = {"routes": 0, "shortcut": 0, "hard": 0}
            for pair in self.inputs.pairs:
                self.attempt(f"replay {pair.name}", self.traced_pair, tracer, pair,
                             per_pair, pass_shape)
            for i, f in enumerate(self.inputs.files):
                tracer.next_request()
                self.attempt(f"layers {f.path.name}", self.traced_file, tracer, f,
                             self.file_eps[i])
            for argv, check in self.cli_ops():
                tracer.next_request()
                self.attempt(f"cli {argv[0]}", self.traced_cli, tracer, argv, check)
            counts = _span_counts(tracer.spans[start:])
            counts.update(pass_shape)
            if pass_counts and counts != pass_counts[0]:
                self.attempted += 1
                self.failed += 1
                self.errors.append(f"traced pass {len(pass_counts)} counts differ")
            pass_counts.append(counts)
        return _layer_metrics(tracer.spans, pass_counts[0],
                              len(self.inputs.pairs), per_pair)

    def traced_pair(self, tracer, pair, per_pair, shape) -> None:
        tracer.next_request()
        t0 = time.perf_counter_ns()
        report = ug.dhat_gh(pair.x, pair.y)
        dhat_ms = (time.perf_counter_ns() - t0) / 1e6
        values, classical, root = replay.replay_dhat(tracer, pair.x, pair.y)
        children = sum(s.ms for s in tracer.spans[root.id + 1:] if s.parent == root.id)
        per_pair["engine"].append(dhat_ms - children)
        per_pair["trace"].append(root.ms - dhat_ms)
        replay.check_replay(report, values, classical)
        replay.check_pair(tracer, pair.x, pair.y, report, report.classical_dgh)
        shape["routes"] += len(report.methods)
        shape["shortcut"] += "shortcut_3b" in report.methods
        shape["hard"] += report.dhat < report.diameter_upper_bound

    def traced_file(self, tracer, f, eps) -> None:
        space, text = replay.file_layers(tracer, f.path, eps)
        if space != f.space or text != f.text:
            raise replay.CheckFailed(f"{f.path.name} did not round-trip")

    def traced_cli(self, tracer, argv, check) -> None:
        with tracer.span("cli.run"):
            _, out = _run_cli(argv)
        check(out)


# -- helpers -------------------------------------------------------------------

def _reference(pair):
    """The pair's dhat_gh report and classical_gh result, after every check."""
    report = ug.dhat_gh(pair.x, pair.y)
    classical = None
    if pair.product <= replay.CAPS.classical_product:
        classical = ug.classical_gh(pair.x, pair.y)
    replay.check_pair(replay.NullTracer(), pair.x, pair.y, report,
                      classical.value if classical else None)
    return report, classical


def _classical_payload(result):
    if result is None:
        return None
    return {
        "value": result.value.token() if result.optimal else None,
        "lower": result.lower.token(), "upper": result.upper.token(),
        "optimal": result.optimal,
        "witness": [list(p) for p in result.witness.pairs],
    }


def _check_round_trip(f) -> None:
    parsed = ug.parse_space(f.text)
    if parsed != f.space or ug.write_space(parsed) != f.text:
        raise replay.CheckFailed(f"{f.path.name}: write/parse is not byte-identical")
    if f.path.read_text() != f.text:
        raise replay.CheckFailed(f"{f.path.name}: file bytes differ from write_space")


def _expect_json(expected):
    def check(out: str) -> None:
        got = json.loads(out)
        if got != expected:
            raise replay.CheckFailed(f"CLI printed {str(got)[:200]}")
    return check


def _run_cli(argv) -> tuple[tuple[int, int], str]:
    """One in-process ``ultragh.cli.run`` call with stdout and stderr captured.

    Returns the call's CPU-time stamp and its standard output.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.thread_time_ns()
        code = ug_cli.run(argv)
        stamp = _stamp(t0)
    if code != 0:
        raise replay.CheckFailed(f"exit code {code}: {err.getvalue().strip()[:200]}")
    return stamp, out.getvalue()


def _span_counts(spans) -> dict[str, int]:
    """Machine-independent counts of one traced pass."""
    counts: dict[str, int] = {}
    for s in spans:
        for key, n in s.counts.items():
            name = f"{s.name}.{key}"
            counts[name] = counts.get(name, 0) + n
        if s.name.endswith("_probe"):
            counts[s.name] = counts.get(s.name, 0) + 1
    return counts


def _layer_metrics(spans, counts, n_pairs, per_pair) -> dict[str, float]:
    durations: dict[str, list[float]] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.ms)

    def ms(name):
        return median(durations[name]) if name in durations else 0.0

    probes = counts.get("isometries.iso_probe", 0) + counts.get("isometries.approx_probe", 0)
    hits = counts.get("isometries.iso_probe.hits", 0) + counts.get("isometries.approx_probe.hits", 0)
    return {
        "spaces.validate_ms": ms("spaces.validate"),
        "spaces.thresholds_ms": ms("spaces.thresholds"),
        "spaces.thresholds": counts.get("spaces.thresholds.thresholds", 0),
        "spaces.spectrum_ms": ms("spaces.spectrum"),
        "spaces.ball_partition_ms": ms("spaces.ball_partition"),
        "spaces.spectra_bound_ms": ms("spaces.spectra_bound"),
        "umsio.parse_ms": ms("umsio.parse"),
        "umsio.write_ms": ms("umsio.write"),
        "umsio.bytes": counts.get("umsio.write.bytes", 0),
        "correspondences.strong_search_ms": ms("correspondences.strong_search"),
        "correspondences.strong_search_nodes":
            counts.get("correspondences.strong_search.nodes", 0),
        "correspondences.classical_search_ms": ms("correspondences.classical_search"),
        "correspondences.classical_search_nodes":
            counts.get("correspondences.classical_search.nodes", 0),
        "correspondences.strongness_check_ms": ms("correspondences.strongness_check"),
        "correspondences.strongness_pairs":
            counts.get("correspondences.strongness_check.pairs", 0),
        "isometries.iso_scan_ms": ms("isometries.iso_scan"),
        "isometries.iso_probes": counts.get("isometries.iso_probe", 0),
        "isometries.approx_scan_ms": ms("isometries.approx_scan"),
        "isometries.approx_probes": counts.get("isometries.approx_probe", 0),
        "isometries.probe_hit_ratio": hits / probes if probes else 0.0,
        "engine.overhead_ms": median(per_pair["engine"]),
        "engine.trace_overhead_ms": median(per_pair["trace"]),
        "engine.routes_per_pair": counts["routes"] / n_pairs,
        "engine.shortcut_share": counts["shortcut"] / n_pairs,
        "engine.hard_share": counts["hard"] / n_pairs,
        "generators.gen_ms": ms("generators.gen"),
        "cli.run_ms": ms("cli.run"),
    }


UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_ns", "ns"), ("_mb", "MB"), ("_s", "s"),
         ("bytes", "bytes"), ("_ratio", "ratio"), ("_share", "ratio"), ("_per_pair", "ratio"))


def _unit(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ultragh" / "__init__.py").is_file():
        print(f"error: the library sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global ug, ug_cli, workloads, replay
    import ultragh as ug
    import ultragh.cli as ug_cli
    if not Path(ug.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported ultragh from {ug.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    import replay
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    work = WORK_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, args.seconds, work)
    try:
        metrics, sample_counts = runner.run_traced() if args.trace else runner.run_untraced()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_DIR.rmdir()

    for line in runner.errors:
        print(f"failure: {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        n = sample_counts.get(name)
        print(f"{name}: {value:.6g} {_unit(name)}" + (f" ({n})" if n else ""))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def _same_texts(a, b) -> None:
    if a != b:
        raise RuntimeError("two set-ups from one seed wrote different files")


if __name__ == "__main__":
    sys.exit(main())
