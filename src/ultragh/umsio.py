"""Reading and writing the `.ums` space file format.

Format, one item per line:

    ums 1
    points <n>
    labels <l1> ... <ln>
    d <i> <j> <a>/<b>        (one line per pair i < j, indices 0-based)
    inexact true             (optional, only for approximated spaces)

Rationals are written in lowest terms with an explicit denominator, and
every number is ASCII digits alone: no sign, no underscore. The
writer emits pair lines in lexicographic order, so write/parse round-trips
are byte-identical.

The reader takes that layout in bulk: point i's n - 1 - i pair lines are
joined and split once and checked against the indices they must hold,
each distinct distance token is checked once, and the distances go to
ranks with no matrix of ExactValues in between. Any other valid layout (pair lines in another
order, blank lines or `inexact true` inside the body, other spacing) is
read line by line and loads the same space; that reader also names the
line of every error. Both end in the rank-level checks validate_space
shares, whose strong triangle test splits closed balls.
"""

from __future__ import annotations

from math import gcd
from pathlib import Path
from typing import Optional, Union

from .exact import ExactValue
from .errors import ParseError
from .spaces import UltrametricSpace, _checked_labels, _triangle_space


def write_space(space: UltrametricSpace) -> str:
    """The space as `.ums` text.

    Raises ValueError, naming the first offending label, when a label is
    empty or contains whitespace: the labels line is split on whitespace,
    so parse_space could not read such a file back.
    """
    bad = next((label for label in space.labels if label.split() != [label]), None)
    if bad is not None:
        raise ValueError(f"label {bad!r} is empty or contains whitespace")
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


def _is_digits(word: str) -> bool:
    """True iff word is one or more ASCII digits. int() also reads a sign,
    underscores, surrounding spaces and non-ASCII digits, none of which a
    number in a .ums file may hold."""
    return word.isascii() and word.isdigit()


def _parse_rational(token: str, lineno: int) -> ExactValue:
    num_s, sep, den_s = token.partition("/")
    negative = num_s[:1] == "-"
    if not (sep and _is_digits(num_s[negative:]) and _is_digits(den_s)):
        raise ParseError(lineno, f"expected rational a/b, got {token!r}")
    num, den = int(num_s), int(den_s)
    if not den:
        raise ParseError(lineno, f"denominator must be positive in {token!r}")
    if negative:
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
    if not _is_digits(parts[1]):
        raise ParseError(lineno, f"bad point count {parts[1]!r}")
    n = int(parts[1])
    if n < 1:
        raise ParseError(lineno, "point count must be >= 1")

    lineno, labels_line = next_line()
    parts = labels_line.split()
    if parts[0] != "labels" or len(parts) != n + 1:
        raise ParseError(lineno, f"expected 'labels' with {n} entries")
    labels = parts[1:]

    # The body as one id per distinct distance token, values[id] its value,
    # and upper[i] the ids of d(i, j) for j > i.
    end = len(lines)
    while end > pos and not lines[end - 1].strip():
        end -= 1
    inexact = end > pos and lines[end - 1].split() == ["inexact", "true"]
    read = _read_blocks(lines, pos, end - inexact, n)
    if read is None:
        values, upper, inexact = _read_lines(lines, pos, n)
    else:
        values, upper = read
    return _triangle_space(_checked_labels(labels, n), values, upper, inexact)


def _read_blocks(
    lines: list[str], start: int, end: int, n: int
) -> Optional[tuple[list[ExactValue], list[list[int]]]]:
    """The pair lines lines[start:end] read in the layout write_space
    emits, or None when they are not in that layout or hold a bad token.

    Point i's n - 1 - i lines are joined and split once. Every line must
    start with "d i ", the words must read every j > i in their third
    column, and each new token must be a rational. No j or token word can
    be "d" or i, so the lines then start at every fourth word and each
    holds exactly the four words "d i j token" the line reader would see.
    """
    if end - start != n * (n - 1) // 2:
        return None
    strs = list(map(str, range(n)))
    ids: dict[str, int] = {}
    values: list[ExactValue] = []
    upper: list[list[int]] = []
    for i in range(n):
        k = n - 1 - i
        block = "\n".join(lines[start:start + k])
        start += k
        words = block.split()
        head = f"d {i} "
        if k and not (
            len(words) == 4 * k
            and block.startswith(head)
            and block.count("\n" + head) == k - 1
            and words[2::4] == strs[i + 1:]
        ):
            return None
        tokens = words[3::4]
        # Check each new token once, in order of appearance.
        for token in dict.fromkeys(tokens):
            if token not in ids:
                try:
                    values.append(_parse_rational(token, 0))
                except ParseError:
                    return None
                ids[token] = len(ids)
        upper.append(list(map(ids.__getitem__, tokens)))
    return values, upper


def _read_lines(
    lines: list[str], start: int, n: int
) -> tuple[list[ExactValue], list[list[int]], bool]:
    """The body read line by line, as _read_blocks returns it, plus the
    inexact flag, for any layout: pair lines in any order, blank lines and
    `inexact true` anywhere. It raises ParseError naming the line of the
    first malformed line, index or token, or the first missing pair. Pairs
    are kept in a dict, so memory grows with the lines read, not with the
    n^2 pairs the header promises."""
    # i * n + j -> token id, for each pair line read so far.
    cells: dict[int, int] = {}
    ids: dict[str, int] = {}
    values: list[ExactValue] = []
    inexact = False
    for lineno, line in enumerate(lines[start:], start + 1):
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
        if not (_is_digits(parts[1]) and _is_digits(parts[2])):
            raise ParseError(lineno, f"bad indices in {line!r}")
        i, j = int(parts[1]), int(parts[2])
        if not (0 <= i < j < n):
            raise ParseError(lineno, f"need 0 <= i < j < {n}, got {i}, {j}")
        key = i * n + j
        if key in cells:
            raise ParseError(lineno, f"duplicate pair ({i}, {j})")
        token = parts[3]
        t = ids.get(token)
        if t is None:
            values.append(_parse_rational(token, lineno))
            t = ids[token] = len(ids)
        cells[key] = t

    if len(cells) != n * (n - 1) // 2:
        missing = next(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if i * n + j not in cells
        )
        raise ParseError(len(lines), f"missing pair line for {missing}")
    upper = [list(map(cells.__getitem__, range(i * n + i + 1, i * n + n))) for i in range(n)]
    return values, upper, inexact


def parse_space_file(path: Union[str, Path]) -> UltrametricSpace:
    return parse_space(Path(path).read_text())
