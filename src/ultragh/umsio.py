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

Both readers below read the header with one function, _header: blank
lines before and between its three items are skipped, and a malformed
item is a ParseError naming its line. Every count, index and number
follows one rule, exact._is_digits, which ExactValue.parse also follows.

The body of a file in the writer's layout is read in bulk, straight from
the text, whatever blank lines the header holds: point i's n - 1 - i pair
lines are cut out at the next point's first line and split as one block,
checked against the indices they must hold, and each distinct distance
token is checked once. No list of the file's lines is made. Any other
valid body (pair lines in another order, blank lines or `inexact true`
inside it, other spacing), and any file with line breaks other than "\n"
and "\r\n", is read line by line and loads the same space; that reader
also names the line of every error. Both give the upper triangle as token
ids, which go into symmetric rank rows by slice assignment, and end in
the rank-level checks validate_space shares, whose strong triangle test
splits closed balls. Only a file that test rejects is scanned for a zero
off the diagonal.
"""

from __future__ import annotations

from math import gcd
from pathlib import Path
from typing import Optional, Union

from .exact import ExactValue, ZERO, _is_digits
from .errors import ParseError
from .spaces import UltrametricSpace, _checked_labels, _checked_space


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
    read = _read_bulk(text)
    if read is None:
        read = _read_lines(text)
    labels, values, upper, inexact = read
    labels = _checked_labels(labels, len(upper))
    distinct, ranks = _rank_rows(values, upper)
    return _checked_space(labels, distinct, ranks, inexact)


def _header(lines: list[str]) -> tuple[list[str], int]:
    """The labels of the three header items at the front of lines, and the
    index of the line after the last item. Blank lines before and between
    the items are skipped. A malformed item raises ParseError naming its
    line, and lines that end before the third item raise it at the last
    line. Both readers read their header here."""
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
    return parts[1:], pos


# The line breaks of str.splitlines other than "\n", "\r\n" and "\r".
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _read_bulk(
    text: str,
) -> Optional[tuple[list[str], list[ExactValue], list[list[int]], bool]]:
    """The labels, the body as token ids and the inexact flag of a file
    whose body is in the layout write_space emits, or None when it is not
    in that layout or holds a bad token; _read_lines then reads it, as it
    reads any layout. The body is one id per distinct distance token,
    values[id] its value, and upper[i] the ids of d(i, j) for j > i.

    The text may hold no break of str.splitlines other than "\n" and
    "\r\n", so lines end where the line reader ends them. The header is
    read once, by _header on the lines up to the third non-blank one, so
    blank lines between its items and CRLF ends stay here, and a malformed
    header raises the ParseError the line reader would. Point i's
    n - 1 - i pair lines run up to the next "\nd {i+1} " and are split as
    one block. The block must hold exactly n - 1 - i lines, counted before
    it is cut out, so an oversized block costs no copy and no word list.
    Every line must start with "d i ", the words must read every j > i in
    their third column, and each new token, found by set difference with
    the tokens seen, must be a rational. No j or token word can be "d" or
    i, so the lines then start at every fourth word and each holds exactly
    the four words "d i j token" the line reader would see. Only
    `inexact true` and blank lines may follow the last block. No list of
    every line or of every word of the body is ever held.
    """
    if any(map(text.__contains__, _OTHER_BREAKS)) or (
        "\r" in text and text.count("\r") != text.count("\r\n")
    ):
        return None
    head: list[str] = []
    pos = items = 0
    while items < 3:
        end = text.find("\n", pos)
        if end < 0:
            return None
        line = text[pos:end]
        head.append(line)
        items += bool(line.strip())
        pos = end + 1
    labels = _header(head)[0]
    n = len(labels)
    strs = list(map(str, range(n)))
    ids: dict[str, int] = {}
    values: list[ExactValue] = []
    upper: list[list[int]] = []
    for i in range(n - 1):
        k = n - 1 - i
        end = text.find(f"\nd {i + 1} " if k > 1 else "\n", pos)
        if end < 0:
            if k > 1:
                return None
            end = len(text)
        if text.count("\n", pos, end) != k - 1:
            return None
        block = text[pos:end]
        pos = end + 1
        words = block.split()
        line = f"d {i} "
        if not (
            len(words) == 4 * k
            and block.startswith(line)
            and block.count("\n" + line) == k - 1
            and words[2::4] == strs[i + 1:]
        ):
            return None
        tokens = words[3::4]
        for token in set(tokens).difference(ids):
            try:
                values.append(_parse_rational(token, 0))
            except ParseError:
                return None
            ids[token] = len(ids)
        upper.append(list(map(ids.__getitem__, tokens)))
    upper.append([])
    tail = text[pos:]
    words = tail.split(None, 2)
    if words and not (words == ["inexact", "true"] and "inexact true" in tail):
        return None
    return labels, values, upper, bool(words)


def _read_lines(
    text: str,
) -> tuple[list[str], list[ExactValue], list[list[int]], bool]:
    """The file read line by line, as _read_bulk returns it, for any
    layout: blank lines between header items, pair lines in any order,
    blank lines and `inexact true` anywhere in the body. It raises
    ParseError naming the line of the first malformed line, index or
    token, or the first missing pair. Pairs are kept in a dict, so memory
    grows with the lines read, not with the n^2 pairs the header
    promises."""
    lines = text.splitlines()
    labels, pos = _header(lines)
    n = len(labels)
    # i * n + j -> token id, for each pair line read so far.
    cells: dict[int, int] = {}
    ids: dict[str, int] = {}
    values: list[ExactValue] = []
    inexact = False
    for lineno, line in enumerate(lines[pos:], pos + 1):
        line = line.strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "inexact":
            if words[1:] != ["true"]:
                raise ParseError(lineno, "expected 'inexact true'")
            inexact = True
            continue
        if words[0] != "d" or len(words) != 4:
            raise ParseError(lineno, f"unexpected line {line!r}")
        if not (_is_digits(words[1]) and _is_digits(words[2])):
            raise ParseError(lineno, f"bad indices in {line!r}")
        i, j = int(words[1]), int(words[2])
        if not (0 <= i < j < n):
            raise ParseError(lineno, f"need 0 <= i < j < {n}, got {i}, {j}")
        key = i * n + j
        if key in cells:
            raise ParseError(lineno, f"duplicate pair ({i}, {j})")
        token = words[3]
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
    return labels, values, upper, inexact


def _rank_rows(
    values: list[ExactValue], upper: list[list[int]]
) -> tuple[tuple[ExactValue, ...], tuple[tuple[int, ...], ...]]:
    """The sorted distinct values, ZERO first, and the symmetric rank rows
    of a body read as token ids. The ids are sorted by value, and each
    takes the rank of the last distinct value, so no rational is hashed.
    Each row of the upper triangle goes into one flat n x n list twice by
    slice assignment: as row i right of the diagonal and as column i below
    it. A zero off the diagonal is left for _checked_space to name."""
    n = len(upper)
    distinct = [ZERO]
    to_rank = [0] * len(values)
    for t in sorted(range(len(values)), key=values.__getitem__):
        if values[t] != distinct[-1]:
            distinct.append(values[t])
        to_rank[t] = len(distinct) - 1
    at = to_rank.__getitem__
    flat = [0] * (n * n)
    for i, ids in enumerate(upper):
        row = list(map(at, ids))
        flat[i * n + i + 1:(i + 1) * n] = row
        flat[(i + 1) * n + i::n] = row
    return tuple(distinct), tuple(tuple(flat[k:k + n]) for k in range(0, n * n, n))


def parse_space_file(path: Union[str, Path]) -> UltrametricSpace:
    return parse_space(Path(path).read_text())
