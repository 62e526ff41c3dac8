"""Command-line interface.

Subcommands parse/emit `.ums` files, run the generators, compute distances
and reports, and expose the exploration helpers. Human output is
line-oriented `key: value`; `--json` switches to a JSON document with
rationals encoded as "a/b" strings. Exit codes: 0 success, 2 parse or
validation error, 3 budget exceeded, 4 method disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .exact import ExactValue, _is_digits
from .errors import (
    BudgetExceededError,
    MethodDisagreementError,
    NotStrongError,
    UltraGHError,
)
from .spaces import (
    ball_partition,
    is_epsilon_net,
    spectra_lower_bound,
    weight_spectrum,
)
from .umsio import parse_space_file, read_text, write_space, write_text
from .correspondences import Correspondence, equilibrium_table
from .engine import classical_gh, dhat_gh, metric_ratio
from .convergence import diameter_trend, find_split, sutb_check
from . import generators

_METHOD_FLAGS = {
    "corr": ("strong_correspondence",),
    "iso": ("isometry_scan",),
    "approx": ("approximation_scan",),
    "all": ("strong_correspondence", "isometry_scan", "approximation_scan"),
}


def _rational_arg(token: str) -> ExactValue:
    try:
        return ExactValue.parse(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid rational {token!r}: expected a nonnegative a/b or integer"
        ) from None


def _eps_arg(text: str) -> ExactValue:
    value = _rational_arg(text)
    if value <= ExactValue(0):
        raise argparse.ArgumentTypeError("eps must be positive")
    return value


def _unsigned_arg(text: str) -> int:
    """An integer flag's value: ASCII digits alone (exact._is_digits), the
    rule for every number read from text, so no sign, underscore, space
    or non-ASCII digit. int() alone would take all four."""
    if not _is_digits(text):
        raise argparse.ArgumentTypeError(
            f"invalid integer {text!r}: expected ASCII digits"
        )
    return int(text)


def _signed_arg(text: str) -> int:
    """An integer flag's value that may be negative: ASCII digits after at
    most one leading '-'."""
    if not _is_digits(text[text[:1] == "-":]):
        raise argparse.ArgumentTypeError(
            f"invalid integer {text!r}: expected ASCII digits after an optional '-'"
        )
    return int(text)


def _budget_arg(text: str) -> int:
    """A node budget: ASCII digits, with its own message for a negative
    one."""
    if text[:1] == "-" and _is_digits(text[1:]):
        raise argparse.ArgumentTypeError("budget must not be negative")
    return _unsigned_arg(text)


def _pool_arg(text: str) -> list[ExactValue]:
    return [_rational_arg(tok) for tok in text.split(",") if tok.strip()]


def _emit(args, human_lines, json_obj) -> None:
    if args.json:
        print(json.dumps(json_obj, indent=2))
    else:
        for line in human_lines:
            print(line)


def _emit_space(args, space) -> None:
    # Rendered once, before any file is opened, so a bad label leaves none.
    text = write_space(space)
    if args.output is not None:
        write_text(args.output, text)
        _emit(args, [f"written: {args.output}", f"points: {len(space)}"],
              {"written": str(args.output), "points": len(space),
               "inexact": space.inexact})
    else:
        sys.stdout.write(text)


def _parse_pairs_file(path: str) -> list[tuple[int, int]]:
    pairs = []
    for raw in read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        words = line.split()
        if len(words) != 2 or not all(map(_is_digits, words)):
            raise UltraGHError(f"pairs file: expected 'i j', got {raw!r}")
        pairs.append((int(words[0]), int(words[1])))
    return pairs


def _parse_manifest(path: str) -> tuple[Optional[Path], list[Path]]:
    text = read_text(path)
    base = Path(path).parent
    target = None
    paths = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("target ") and target is None and not paths:
            target = base / line.split(None, 1)[1]
        else:
            paths.append(base / line)
    return target, paths


def _cmd_validate(args) -> int:
    space = parse_space_file(args.file)
    _emit(
        args,
        [
            "valid: true",
            f"points: {len(space)}",
            f"diameter: {space.diameter()}",
            f"inexact: {str(space.inexact).lower()}",
        ],
        {
            "valid": True,
            "points": len(space),
            "diameter": space.diameter().token(),
            "inexact": space.inexact,
        },
    )
    return 0


def _cmd_gen(args) -> int:
    cap = args.size_cap
    if args.kind == "zp":
        space = generators.truncated_unramified_ring(args.p, 1, args.depth, size_cap=cap)
    elif args.kind == "ring":
        space = generators.truncated_unramified_ring(args.p, args.f, args.depth, size_cap=cap)
    elif args.kind == "ball":
        space = generators.ramified_ball_approx(
            args.p, args.e, args.f, args.s, args.depth,
            precision_bits=args.precision_bits, size_cap=cap,
        )
    elif args.kind == "zqdelta":
        space = generators.zq_delta(args.p, args.q, args.depth, size_cap=cap)
    else:  # "random": argparse restricts kind to the five choices
        space = generators.random_ultrametric(args.n, args.seed, args.pool, size_cap=cap)
    _emit_space(args, space)
    return 0


def _cmd_dhat(args) -> int:
    x = parse_space_file(args.left)
    y = parse_space_file(args.right)
    methods = _METHOD_FLAGS[args.method] if args.method else None
    report = dhat_gh(x, y, methods, budget=args.budget)
    lines = [
        f"dhat: {report.dhat}",
        f"dhat_attained: {str(report.dhat_attained).lower()}",
    ]
    for name, outcome in report.methods.items():
        lines.append(f"method {name}: {outcome.value}")
    lines += [
        f"classical_dgh: {report.classical_dgh if report.classical_dgh is not None else 'skipped'}",
        f"ratio: {report.ratio if report.ratio is not None else 'isometric or skipped'}",
        f"spectra_lower_bound: {report.spectra_lower_bound}",
        f"diameter_upper_bound: {report.diameter_upper_bound}",
        f"agreement: {str(report.agreement).lower()}",
    ]
    _emit(args, lines, report.to_json_dict() if args.json else None)
    return 0


def _cmd_dgh(args) -> int:
    x = parse_space_file(args.left)
    y = parse_space_file(args.right)
    result = classical_gh(x, y, budget=args.budget)
    if result.optimal:
        lines = [f"classical_dgh: {result.value}"]
    else:
        lines = [
            "classical_dgh: budget exceeded",
            f"interval: [{result.lower}, {result.upper}]",
        ]
    lines.append(f"witness_pairs: {' '.join(f'{i},{j}' for i, j in result.witness.pairs)}")
    _emit(
        args,
        lines,
        {
            "classical_dgh": result.value.token() if result.optimal else None,
            "lower": result.lower.token(),
            "upper": result.upper.token(),
            "optimal": result.optimal,
            "witness": {"pairs": [[i, j] for i, j in result.witness.pairs]},
        },
    )
    return 0


def _cmd_ratio(args) -> int:
    x = parse_space_file(args.left)
    y = parse_space_file(args.right)
    ratio = metric_ratio(x, y, budget=args.budget)
    if ratio is None:
        _emit(args, ["isometric: true"], {"ratio": None, "isometric": True})
    else:
        _emit(args, [f"ratio: {ratio}"], {"ratio": ratio.token(), "isometric": False})
    return 0


def _cmd_spectra(args) -> int:
    space = parse_space_file(args.file)
    spectrum = weight_spectrum(space)
    _emit(args, [str(spectrum)], {"spectrum": [v.token() for v in spectrum]})
    return 0


def _cmd_lowerbound(args) -> int:
    x = parse_space_file(args.left)
    y = parse_space_file(args.right)
    bound = spectra_lower_bound(x, y)
    _emit(args, [f"spectra_lower_bound: {bound}"], {"spectra_lower_bound": bound.token()})
    return 0


def _cmd_net(args) -> int:
    space = parse_space_file(args.file)
    classes = ball_partition(space, args.eps)
    reps = [c[0] for c in classes]
    _emit(
        args,
        [
            f"net_size: {len(reps)}",
            "representatives: " + " ".join(space.labels[r] for r in reps),
            f"is_net: {str(is_epsilon_net(space, reps, args.eps)).lower()}",
        ],
        {
            "net_size": len(reps),
            "representatives": [space.labels[r] for r in reps],
            "classes": [[space.labels[p] for p in c] for c in classes],
        },
    )
    return 0


def _cmd_split(args) -> int:
    big = parse_space_file(args.big)
    target = parse_space_file(args.target)
    result = find_split(big, target, args.eps)
    if result is None:
        _emit(args, ["found: false"], {"found": False})
        return 0
    lines = ["found: true"]
    for i, cls in enumerate(result.classes):
        members = " ".join(big.labels[p] for p in cls)
        lines.append(f"class {target.labels[i]}: {members} (diameter {result.class_diameters[i]})")
    _emit(
        args,
        lines,
        {
            "found": True,
            "classes": [[big.labels[p] for p in cls] for cls in result.classes],
            "class_diameters": [d.token() for d in result.class_diameters],
            "pairwise_class_distances": [
                [d.token() for d in row] for row in result.pairwise_class_distances
            ],
        },
    )
    return 0


def _cmd_chi(args) -> int:
    x = parse_space_file(args.left)
    y = parse_space_file(args.right)
    pairs = _parse_pairs_file(args.pairs)
    corr = Correspondence(x, y, tuple(pairs))
    try:
        table = equilibrium_table(corr)
    except NotStrongError as exc:
        verdict = exc.verdict
        ce = verdict.counterexample
        _emit(
            args,
            [
                "strong: false",
                f"distortion: {verdict.distortion}",
                f"counterexample: ({ce.x},{ce.y}) via ({ce.x_prime},{ce.y_prime}) "
                f"left {ce.left_distance} right {ce.right_distance} [{ce.reason}]",
            ],
            {
                "strong": False,
                "distortion": verdict.distortion.token(),
                "counterexample": {
                    "x": ce.x, "y": ce.y,
                    "x_prime": ce.x_prime, "y_prime": ce.y_prime,
                    "left_distance": ce.left_distance.token(),
                    "right_distance": ce.right_distance.token(),
                    "reason": ce.reason,
                },
            },
        )
        return 0
    lines = [
        "strong: true",
        f"distortion: {table.distortion}",
        f"min_diameter: {table.min_diameter}",
        f"chi_inf: {table.inf_value if table.inf_value is not None else 'empty'}",
        f"chi_sup: {table.sup_value if table.sup_value is not None else 'empty'}",
    ]
    for (i, j), value in sorted(table.entries.items()):
        lines.append(f"chi {x.labels[i]} {y.labels[j]}: {value}")
    _emit(
        args,
        lines,
        {
            "strong": True,
            "distortion": table.distortion.token(),
            "min_diameter": table.min_diameter.token(),
            "chi_inf": table.inf_value.token() if table.inf_value is not None else None,
            "chi_sup": table.sup_value.token() if table.sup_value is not None else None,
            "entries": [
                {"x": i, "y": j, "value": v.token()}
                for (i, j), v in sorted(table.entries.items())
            ],
        },
    )
    return 0


def _cmd_converge(args) -> int:
    target_path, paths = _parse_manifest(args.manifest)
    sequence = [parse_space_file(p) for p in paths]
    target = parse_space_file(target_path) if target_path else None
    report = diameter_trend(sequence, target)
    lines = [f"spaces: {len(sequence)}", f"classification: {report.classification}"]
    for i, d in enumerate(report.diameters):
        extra = ""
        if report.dhat_values is not None:
            extra = f" dhat {report.dhat_values[i]}"
        lines.append(f"index {i}: diameter {d}{extra}")
    if report.forced_from is not None:
        lines.append(f"diameter_equality_forced_from: {report.forced_from}")
    lines.append(f"note: {report.note}")
    _emit(
        args,
        lines,
        {
            "spaces": len(sequence),
            "classification": report.classification,
            "diameters": [d.token() for d in report.diameters],
            "dhat": [d.token() for d in report.dhat_values] if report.dhat_values else None,
            "forced_from": report.forced_from,
            "note": report.note,
        },
    )
    return 0


def _cmd_sutb(args) -> int:
    _, paths = _parse_manifest(args.manifest)
    family = [parse_space_file(p) for p in paths]
    report = sutb_check(family, args.eps, args.max_net, args.pool or [])
    lines = [f"holds: {str(report.holds).lower()}"]
    for i, witness in enumerate(report.witnesses):
        if witness is None:
            lines.append(f"space {i}: no admissible net")
        else:
            lines.append(f"space {i}: net " + " ".join(family[i].labels[p] for p in witness))
    lines.extend(f"failure: {f}" for f in report.failures)
    _emit(
        args,
        lines,
        {
            "holds": report.holds,
            "witnesses": [list(w) if w is not None else None for w in report.witnesses],
            "failures": list(report.failures),
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--seed", type=_signed_arg, default=0, help="seed for randomized subcommands")
    common.add_argument("--budget", type=_budget_arg, default=None, help="search node budget")

    parser = argparse.ArgumentParser(prog="ultragh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen", parents=[common])
    p.add_argument("kind", choices=["zp", "ring", "ball", "zqdelta", "random"])
    p.add_argument("--p", type=_unsigned_arg, default=2)
    p.add_argument("--q", type=_unsigned_arg, default=2)
    # A negative e reaches the generator, whose error names the range e >= 1.
    p.add_argument("--e", type=_signed_arg, default=1)
    p.add_argument("--f", type=_unsigned_arg, default=1)
    p.add_argument("--s", type=_signed_arg, default=0)
    p.add_argument("--depth", type=_unsigned_arg, default=1)
    p.add_argument("--n", type=_unsigned_arg, default=4)
    p.add_argument("--precision-bits", type=_unsigned_arg, default=32)
    # An explicit empty pool stays empty, so the generator rejects it.
    p.add_argument("--pool", type=_pool_arg, default="1/4,1/2,1,2")
    p.add_argument("--size-cap", type=_unsigned_arg, default=generators.DEFAULT_SIZE_CAP)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    for name, func in (
        ("dhat", _cmd_dhat),
        ("dgh", _cmd_dgh),
        ("ratio", _cmd_ratio),
        ("lowerbound", _cmd_lowerbound),
    ):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("left")
        p.add_argument("right")
        if name == "dhat":
            p.add_argument("--method", choices=sorted(_METHOD_FLAGS), default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("spectra", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("net", parents=[common])
    p.add_argument("file")
    p.add_argument("--eps", type=_eps_arg, required=True)
    p.set_defaults(func=_cmd_net)

    p = sub.add_parser("split", parents=[common])
    p.add_argument("big")
    p.add_argument("target")
    p.add_argument("--eps", type=_eps_arg, required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("chi", parents=[common])
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("converge", parents=[common])
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("sutb", parents=[common])
    p.add_argument("manifest")
    p.add_argument("--eps", type=_eps_arg, required=True)
    p.add_argument("--max-net", type=_unsigned_arg, required=True)
    p.add_argument("--pool", type=_pool_arg, default=None)
    p.set_defaults(func=_cmd_sutb)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MethodDisagreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (UltraGHError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
