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

Every text file the package reads or writes, a `.ums` file, a pairs file
or a manifest, goes through read_text and write_text: one builtin open in
text mode, with the default encoding and universal newlines, the rules
Path.read_text and Path.write_text follow. So a file with "\\r\\n" or lone
"\\r" line ends reaches parse_space with "\\n" ends.

Both readers below read the header with one function, _header: blank
lines before and between its three items are skipped, and a malformed
item is a ParseError naming its line. Every count, index and number
follows one rule, exact._is_digits, which ExactValue.parse also follows.

The body of a file in the writer's layout is read in bulk, straight from
the text, whatever blank lines the header holds: the pair lines of whole
rows, at least _BLOCK_LINES of them unless the rows run out, are cut out
at the next row's first line and split as one block, checked against the
indices they must hold, and each distinct distance token is checked once.
No list of the file's lines is made. Any other valid body (pair lines in
another order, blank lines or `inexact true` inside it, other spacing),
and any text with line breaks other than "\\n" and "\\r\\n", is read line
by line and loads the same space; that reader also names the line of
every error. Both give the upper triangle as token ids, which go into
symmetric rank rows by slice assignment, and end in the rank-level checks
validate_space shares, whose strong triangle test splits closed balls.
Only a file that test rejects is scanned for a zero off the diagonal.
"""

from __future__ import annotations

import os
from itertools import islice
from operator import itemgetter
from typing import Optional, Union

from .exact import ExactValue, ZERO, _is_digits
from .errors import ParseError
from .spaces import UltrametricSpace, _checked_labels, _checked_space

PathArg = Union[str, "os.PathLike[str]"]


def _file_name(path: PathArg) -> str:
    """path as the str name of a file, by the rule pathlib.Path applies: a
    str, or an os.PathLike whose __fspath__ gives a str. Anything else
    raises TypeError, so an int is never taken for a file descriptor and
    bytes are refused."""
    if isinstance(path, str):
        return path
    if isinstance(path, os.PathLike):
        name = os.fspath(path)
        if isinstance(name, str):
            return name
    raise TypeError(
        f"a path must be a str or an os.PathLike giving a str, not {type(path).__name__}"
    )


def read_text(path: PathArg) -> str:
    """The text of the file at path, read with one builtin open in text
    mode: the default encoding and universal newlines, so "\\r\\n" and
    lone "\\r" line ends read as "\\n", as Path.read_text reads them. A
    path that is not a str or an os.PathLike giving one raises TypeError;
    the OSError of a missing file or a directory and the
    UnicodeDecodeError of undecodable bytes propagate."""
    with open(_file_name(path)) as file:
        return file.read()


def write_text(path: PathArg, text: str) -> None:
    """Write text to the file at path, created or truncated, with one
    builtin open in text mode: the default encoding, and each "\\n"
    written as os.linesep, as Path.write_text writes it. Path rules and
    errors are read_text's; an OSError (a directory, a missing parent)
    propagates."""
    with open(_file_name(path), "w") as file:
        file.write(text)


def write_space(space: UltrametricSpace) -> str:
    """The space as `.ums` text.

    Raises ValueError, naming the first offending label, when a label is
    empty or contains whitespace: the labels line is split on whitespace,
    so parse_space could not read such a file back.

    Each " j " and each distance token with its line end is made once, and
    point i's pair lines are one join, with "d i" as the separator, over a
    map that pairs the " j " of each later point with the token of its
    rank.
    """
    bad = next((label for label in space.labels if label.split() != [label]), None)
    if bad is not None:
        raise ValueError(f"label {bad!r} is empty or contains whitespace")
    n = len(space)
    mids = [f" {j} " for j in range(n)]
    ends = [v.token() + "\n" for v in space.values]
    token_of = ends.__getitem__
    parts = [f"ums 1\npoints {n}\nlabels {' '.join(space.labels)}\n"]
    for i in range(n - 1):
        head = f"d {i}"
        tokens = map(token_of, space.ranks[i][i + 1:])
        parts.append(head + head.join(map(str.__add__, mids[i + 1:], tokens)))
    if space.inexact:
        parts.append("inexact true\n")
    return "".join(parts)


def write_space_file(space: UltrametricSpace, path: PathArg) -> None:
    """Write the space's `.ums` text (write_space) to the file at path.

    The text is rendered first, so a label write_space refuses raises
    ValueError before the file is opened. It is written by write_text: one
    builtin open in text mode with the default encoding, each "\\n"
    written as os.linesep. A path that is not a str or an os.PathLike
    giving one raises TypeError, and the OSError of a directory or a
    missing parent propagates.
    """
    write_text(path, write_space(space))


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
    value = ExactValue(num, den)
    if value._denominator != den:
        raise ParseError(lineno, f"{token!r} is not in lowest terms")
    return value


def parse_space(text: str) -> UltrametricSpace:
    """Parse `.ums` text and validate the resulting space.

    Raises ParseError for malformed or incomplete files and forwards
    SpaceValidationError when the matrix is not an ultrametric.
    """
    read = _read_bulk(text)
    if read is None:
        read = _read_lines(text)
    labels, values, upper, inexact = read
    n = len(labels)
    labels = _checked_labels(labels, n)
    distinct, ranks = _rank_rows(values, upper, n)
    return _checked_space(labels, distinct, ranks, inexact)


def _header(lines: list[str]) -> tuple[list[str], int]:
    """The labels of the three header items at the front of lines, and the
    index of the line after the last item. Blank lines before and between
    the items are skipped. A malformed item raises ParseError naming its
    line, and lines that end before the third item raise it at the last
    line, line 1 for no lines at all. Both readers read their header
    here."""
    items = list(islice(filter(itemgetter(1), enumerate(map(str.strip, lines), 1)), 3))
    if items and items[0][1] != "ums 1":
        raise ParseError(items[0][0], f"expected header 'ums 1', got {items[0][1]!r}")
    if len(items) < 2:
        raise ParseError(max(len(lines), 1), "unexpected end of file")

    lineno, line = items[1]
    parts = line.split()
    if len(parts) != 2 or parts[0] != "points":
        raise ParseError(lineno, "expected 'points <n>'")
    if not _is_digits(parts[1]):
        raise ParseError(lineno, f"bad point count {parts[1]!r}")
    n = int(parts[1])
    if n < 1:
        raise ParseError(lineno, "point count must be >= 1")
    if len(items) < 3:
        raise ParseError(len(lines), "unexpected end of file")

    lineno, line = items[2]
    parts = line.split()
    if parts[0] != "labels" or len(parts) != n + 1:
        raise ParseError(lineno, f"expected 'labels' with {n} entries")
    return parts[1:], lineno


# The line breaks of str.splitlines other than "\n", "\r\n" and "\r".
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# The fewest pair lines _read_bulk splits as one block, unless the rows run
# out first. A block holds whole rows, so fewer than _BLOCK_LINES + n lines.
_BLOCK_LINES = 64


def _read_bulk(
    text: str,
) -> Optional[tuple[list[str], list[ExactValue], list[int], bool]]:
    """The labels, the body as token ids and the inexact flag of a file
    whose body is in the layout write_space emits, or None when it is not
    in that layout or holds a bad token; _read_lines then reads it, as it
    reads any layout. The body is one id per distinct distance token,
    values[id] its value, and upper the ids of d(i, j) for i < j in
    row-major order.

    The text may hold no break of str.splitlines other than "\n" and
    "\r\n", so lines end where the line reader ends them. The header is
    read once, by _header on the lines up to the third non-blank one, so
    blank lines between its items and CRLF ends stay here, and a malformed
    header raises the ParseError the line reader would.

    The pair lines of rows i..r-1, k lines, are one block: at least
    _BLOCK_LINES lines, unless the rows run out. It runs up to row r's
    first line "\nd r ", or, for the last rows, to the end of row n - 2's
    one line. The block must hold exactly k lines, counted before it is
    cut out, so an oversized block costs no copy and no word list. Every
    line must start with "d ", the words must read the j of each pair in
    their third column and its i in their second, and each new token,
    found by set difference with the tokens seen, must be a rational in
    the writer's form. A block of one row checks its i column by the start
    "d i " its lines share, as a count, with no word compared. No i, j or
    token word can be "d", so the k lines then start at every fourth word
    and each holds exactly the four words "d i j token" the line reader
    would see. Only `inexact true` and blank lines may follow the last
    block. No list of every line or of every word of the body is ever
    held.
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
    upper: list[int] = []
    r = 0
    while r < n - 1:
        row = r  # the block's first row
        icol: list[str] = []
        jcol: list[str] = []
        while r < n - 1 and len(jcol) < _BLOCK_LINES:
            icol += [strs[r]] * (n - 1 - r)
            jcol += strs[r + 1:]
            r += 1
        k = len(jcol)
        # text[pos - 1] is the "\n" before the block's first line.
        end = text.find(f"\nd {min(r, n - 2)} ", pos - 1)
        if r == n - 1 and end >= 0:
            end = text.find("\n", end + 1)
            if end < 0:
                end = len(text)
        if end < 0 or text.count("\n", pos, end) != k - 1:
            return None
        block = text[pos:end]
        pos = end + 1
        words = block.split()
        one_row = r - row == 1
        line = f"d {row} " if one_row else "d "
        if not (
            len(words) == 4 * k
            and block.startswith(line)
            and block.count("\n" + line) == k - 1
            and words[2::4] == jcol
            and (one_row or words[1::4] == icol)
        ):
            return None
        tokens = words[3::4]
        for token in set(tokens).difference(ids):
            try:
                value = _parse_rational(token, 0)
            except ParseError:
                return None
            if value.token() != token:
                return None  # leading zeros: another token may hold its value
            ids[token] = len(values)
            values.append(value)
        upper += map(ids.__getitem__, tokens)
    tail = text[pos:]
    words = tail.split(None, 2)
    if words and not (words == ["inexact", "true"] and "inexact true" in tail):
        return None
    return labels, values, upper, bool(words)


def _read_lines(
    text: str,
) -> tuple[list[str], list[ExactValue], list[int], bool]:
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
    # Each distinct value -> its id: 01/1 and 1/1 are two tokens of one value.
    index: dict[ExactValue, int] = {}
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
            value = _parse_rational(token, lineno)
            t = ids[token] = index.setdefault(value, len(index))
        cells[key] = t

    if len(cells) != n * (n - 1) // 2:
        missing = next(
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if i * n + j not in cells
        )
        raise ParseError(len(lines), f"missing pair line for {missing}")
    # Every pair is present, so the sorted keys are the pairs in row-major order.
    return labels, list(index), list(map(cells.__getitem__, sorted(cells))), inexact


def _rank_rows(
    values: list[ExactValue], upper: list[int], n: int
) -> tuple[tuple[ExactValue, ...], tuple[tuple[int, ...], ...]]:
    """The sorted distinct values, ZERO first, and the symmetric n x n rank
    rows of a body read as token ids, upper in row-major order.

    Both readers give each distinct value one id, so only the id of a zero
    token shares ZERO's value and rank. The ids are sorted
    on (floor(v * 2^64), v): the int decides unless two values agree to
    64 bits after the binary point, so ExactValues are compared only then.
    Each row of the upper triangle goes into one flat n x n list twice by
    slice assignment: as row i right of the diagonal and as column i below
    it. A zero off the diagonal is left for _checked_space to name."""
    keys = [((v._numerator << 64) // v._denominator, v) for v in values]
    order = sorted(range(len(values)), key=keys.__getitem__)
    zero = bool(order) and not values[order[0]]._numerator
    rank_of = dict(zip(order, range(1 - zero, len(order) + 1)))
    ranked = list(map(rank_of.__getitem__, upper))
    flat = [0] * (n * n)
    start = 0
    for i in range(n - 1):
        row = ranked[start:start + n - 1 - i]
        start += n - 1 - i
        flat[i * n + i + 1:(i + 1) * n] = row
        flat[(i + 1) * n + i::n] = row
    return (ZERO, *map(values.__getitem__, order[zero:])), tuple(zip(*[iter(flat)] * n))


def parse_space_file(path: PathArg) -> UltrametricSpace:
    """Read and parse the `.ums` file at path (parse_space).

    The file is read by read_text: one builtin open in text mode with the
    default encoding and universal newlines, so CRLF and lone-CR line ends
    load as "\\n" ends do. A path that is not a str or an os.PathLike
    giving one raises TypeError. The OSError of a missing file or a
    directory, the UnicodeDecodeError of undecodable bytes, and
    parse_space's ParseError and SpaceValidationError propagate.
    """
    return parse_space(read_text(path))
