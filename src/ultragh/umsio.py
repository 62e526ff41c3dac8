"""Reading and writing the `.ums` space file format.

Format, one item per line:

    ums 1
    points <n>
    labels <l1> ... <ln>
    d <i> <j> <a>/<b>        (one line per pair i < j, indices 0-based)
    inexact true             (optional, only for approximated spaces)

Rationals are written in lowest terms with an explicit denominator. The
writer emits pair lines in lexicographic order, so write/parse round-trips
are byte-identical.
"""

from __future__ import annotations

from math import gcd
from pathlib import Path
from typing import Optional, Union

from .exact import ExactValue, ZERO
from .errors import ParseError
from .spaces import UltrametricSpace, validate_space


def write_space(space: UltrametricSpace) -> str:
    n = len(space)
    lines = ["ums 1", f"points {n}", "labels " + " ".join(space.labels)]
    tokens = [v.token() for v in space.values]
    for i, row in enumerate(space.ranks):
        for j in range(i + 1, n):
            lines.append(f"d {i} {j} {tokens[row[j]]}")
    if space.inexact:
        lines.append("inexact true")
    return "\n".join(lines) + "\n"


def write_space_file(space: UltrametricSpace, path: Union[str, Path]) -> None:
    Path(path).write_text(write_space(space))


def _parse_rational(token: str, lineno: int) -> ExactValue:
    num_s, sep, den_s = token.partition("/")
    if not sep:
        raise ParseError(lineno, f"expected rational a/b, got {token!r}")
    try:
        num, den = int(num_s), int(den_s)
    except ValueError:
        raise ParseError(lineno, f"expected rational a/b, got {token!r}") from None
    if den <= 0:
        raise ParseError(lineno, f"denominator must be positive in {token!r}")
    if num < 0:
        raise ParseError(lineno, f"distances must be nonnegative, got {token!r}")
    if gcd(num, den) != 1:
        raise ParseError(lineno, f"{token!r} is not in lowest terms")
    return ExactValue(num, den)


def parse_space(text: str) -> UltrametricSpace:
    """Parse `.ums` text and validate the resulting space.

    Raises ParseError for malformed or incomplete files and forwards
    SpaceValidationError when the matrix is not an ultrametric.
    """
    lines = text.splitlines()
    pos = 0

    def next_line() -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines):
            pos += 1
            stripped = lines[pos - 1].strip()
            if stripped:
                return pos, stripped
        raise ParseError(len(lines), "unexpected end of file")

    lineno, header = next_line()
    if header != "ums 1":
        raise ParseError(lineno, f"expected header 'ums 1', got {header!r}")

    lineno, pts_line = next_line()
    parts = pts_line.split()
    if len(parts) != 2 or parts[0] != "points":
        raise ParseError(lineno, "expected 'points <n>'")
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"bad point count {parts[1]!r}") from None
    if n < 1:
        raise ParseError(lineno, "point count must be >= 1")

    lineno, labels_line = next_line()
    parts = labels_line.split()
    if parts[0] != "labels" or len(parts) != n + 1:
        raise ParseError(lineno, f"expected 'labels' with {n} entries")
    labels = parts[1:]

    # None marks a pair whose line has not been read yet.
    matrix: list[list[Optional[ExactValue]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = ZERO
    # One ExactValue per distinct token, checked and built at its first line.
    values: dict[str, ExactValue] = {}
    pairs = 0
    inexact = False
    for lineno, line in enumerate(lines[pos:], pos + 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "inexact":
            if parts[1:] != ["true"]:
                raise ParseError(lineno, "expected 'inexact true'")
            inexact = True
            continue
        if parts[0] != "d" or len(parts) != 4:
            raise ParseError(lineno, f"unexpected line {line!r}")
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, f"bad indices in {line!r}") from None
        if not (0 <= i < j < n):
            raise ParseError(lineno, f"need 0 <= i < j < {n}, got {i}, {j}")
        row = matrix[i]
        if row[j] is not None:
            raise ParseError(lineno, f"duplicate pair ({i}, {j})")
        token = parts[3]
        value = values.get(token)
        if value is None:
            value = values[token] = _parse_rational(token, lineno)
        row[j] = value
        matrix[j][i] = value
        pairs += 1

    if pairs != n * (n - 1) // 2:
        missing = next(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if matrix[i][j] is None
        )
        raise ParseError(len(lines), f"missing pair line for {missing}")

    return validate_space(matrix, labels, inexact=inexact)


def parse_space_file(path: Union[str, Path]) -> UltrametricSpace:
    return parse_space(Path(path).read_text())
