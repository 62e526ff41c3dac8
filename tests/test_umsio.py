import random
import tracemalloc
from itertools import chain

import pytest

from ultragh import (
    parse_space,
    parse_space_file,
    ramified_ball_approx,
    random_ultrametric,
    truncated_unramified_ring,
    umsio,
    validate_space,
    write_space,
    write_space_file,
    zq_delta,
)
from ultragh.errors import (
    ParseError,
    UltraGHError,
    UltrametricViolationError,
    ZeroOffDiagonalError,
)

from conftest import ev
from oracles import write_space_by_lines


def test_round_trip(z4, tmp_path):
    path = tmp_path / "z4.ums"
    write_space_file(z4, path)
    again = parse_space_file(path)
    assert again == z4
    # writer output is canonical: a second round trip is byte-identical
    assert write_space(again) == path.read_text()


def test_round_trip_inexact():
    from ultragh import ramified_ball_approx

    space = ramified_ball_approx(2, 2, 1, 0, 2, precision_bits=16)
    assert space.inexact
    assert parse_space(write_space(space)) == space


def test_format_content(x2):
    text = write_space(x2)
    assert text.splitlines() == ["ums 1", "points 2", "labels 0 1", "d 0 1 1/1"]


def test_missing_pair_is_parse_error():
    text = "ums 1\npoints 3\nlabels a b c\nd 0 1 1/1\nd 0 2 1/1\n"
    with pytest.raises(ParseError) as exc:
        parse_space(text)
    assert "missing pair" in str(exc.value)


def test_trailing_blank_lines_after_a_complete_file(x2):
    text = write_space(x2)
    for tail in ("\n", "  \n\n"):
        assert parse_space(text + tail) == x2
    incomplete = "ums 1\npoints 3\nlabels a b c\nd 0 2 1/1\nd 1 2 1/1\n\n  \n"
    with pytest.raises(ParseError) as exc:
        parse_space(incomplete)
    assert exc.value.reason == "missing pair line for (0, 1)"
    # blank lines in place of a header item still end the file early
    with pytest.raises(ParseError) as exc:
        parse_space("ums 1\npoints 2\n\n\n")
    assert exc.value.reason == "unexpected end of file"


def test_non_ultrametric_file_forwards_validation_error():
    text = (
        "ums 1\npoints 3\nlabels a b c\n"
        "d 0 1 1/1\nd 0 2 3/1\nd 1 2 1/1\n"
    )
    with pytest.raises(UltrametricViolationError):
        parse_space(text)


def test_strict_rational_form():
    base = "ums 1\npoints 2\nlabels a b\n"
    with pytest.raises(ParseError):
        parse_space(base + "d 0 1 2/4\n")  # not lowest terms
    with pytest.raises(ParseError):
        parse_space(base + "d 0 1 0.5\n")  # not a/b
    with pytest.raises(ParseError):
        parse_space(base + "d 0 1 1/1\nd 0 1 1/1\n")  # duplicate pair


def test_bad_header_and_counts():
    with pytest.raises(ParseError):
        parse_space("ums 2\npoints 1\nlabels a\n")
    with pytest.raises(ParseError):
        parse_space("ums 1\npoints 0\nlabels\n")
    with pytest.raises(ParseError):
        parse_space("ums 1\npoints 2\nlabels a\n")


@pytest.mark.parametrize("text, line, reason", [
    ("ums 1\npoints x\nlabels a\n", 2, "bad point count 'x'"),
    ("ums 1\npoints 0\nlabels\n", 2, "point count must be >= 1"),
    ("ums 1\npoints 2\nlabels a b\nd 0 1 1/0\n", 4, "denominator must be positive in '1/0'"),
    ("ums 1\npoints 3\nlabels a b c\nd 0 1 1/1\nd 0 2 -1/2\nd 1 2 1/1\n", 5,
     "distances must be nonnegative, got '-1/2'"),
    # A number is ASCII digits alone, though int() also reads a sign,
    # underscores and any Unicode decimal digits.
    ("ums 1\npoints 2\nlabels a b\nd 0 1 +1/2\n", 4, "expected rational a/b, got '+1/2'"),
    ("ums 1\npoints 2\nlabels a b\nd 0 1 1_0/3\n", 4, "expected rational a/b, got '1_0/3'"),
    ("ums 1\npoints 2\nlabels a b\nd 0 1 \u0661/\u0662\n", 4,
     "expected rational a/b, got '\u0661/\u0662'"),
    ("ums 1\npoints +2\nlabels a b\nd 0 1 1/2\n", 2, "bad point count '+2'"),
    ("ums 1\npoints 2\nlabels a b\nd 0 +1 1/2\n", 4, "bad indices in 'd 0 +1 1/2'"),
    # The header is read by one function, blank lines between its items
    # counted in the line it names.
    ("\nums 1\n\npoints 1_0\nlabels a b\nd 0 1 1/2\n", 4, "bad point count '1_0'"),
    ("ums 1\n \npoints 2\n\nlabels a\nd 0 1 1/2\n", 5, "expected 'labels' with 2 entries"),
    ("ums 1\r\n\r\npoints 2\r\nlabel a b\r\n", 4, "expected 'labels' with 2 entries"),
])
def test_bad_count_or_token_names_its_line(text, line, reason):
    with pytest.raises(ParseError) as exc:
        parse_space(text)
    assert (exc.value.line, exc.value.reason) == (line, reason)


def test_parse_values(z4):
    text = write_space(z4)
    again = parse_space(text)
    assert again.dist(0, 2) == ev("1/2")
    assert again.labels == ("0", "1", "2", "3")


def test_bad_token_fails_at_its_first_line():
    text = (
        "ums 1\npoints 3\nlabels a b c\n"
        "d 0 1 1/1\nd 0 2 2/4\nd 1 2 2/4\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_space(text)
    assert exc.value.line == 5 and "lowest terms" in exc.value.reason


def test_repeated_tokens_parse_to_the_written_space():
    space = truncated_unramified_ring(2, 1, 3)
    again = parse_space(write_space(space))
    assert again == space
    # each distinct token is built once and shared by all its entries
    assert again.dist(0, 1) is again.dist(2, 3)


def test_large_round_trip_is_byte_identical():
    space = truncated_unramified_ring(2, 1, 8, size_cap=256)
    text = write_space(space)
    again = parse_space(text)
    assert len(again) == 256 and again == space
    assert write_space(again) == text


def test_writer_matches_the_line_by_line_reference():
    pool = [ev(f"{k}/7") for k in range(1, 30)]
    spaces = [
        validate_space([[0]], labels=["only"]),
        validate_space([[0, 1], [1, 0]], labels=["b", "a"]),
        truncated_unramified_ring(2, 1, 8, size_cap=256),
        ramified_ball_approx(2, 2, 1, 1, 4),
        zq_delta(7, 3, 2),
        *(random_ultrametric(n, seed, pool, size_cap=256)
          for n in (3, 10, 131) for seed in (0, 1)),
    ]
    assert any(space.inexact for space in spaces)
    for space in spaces:
        assert write_space(space) == write_space_by_lines(space)


@pytest.mark.parametrize("bad", ["a b", ""])
def test_unreadable_label_is_rejected_before_writing(bad, tmp_path):
    space = validate_space([[0, 1], [1, 0]], labels=[bad, "c"])
    with pytest.raises(ValueError, match=repr(bad)):
        write_space(space)
    path = tmp_path / "out.ums"
    with pytest.raises(ValueError):
        write_space_file(space, path)
    assert not path.exists()


def reference_parse(text):
    """The line-by-line reader as it stood before bulk reading, with
    numbers read only from ASCII digits: every body line parsed on its own
    into an n x n matrix of ExactValues, then validate_space. parse_space
    must agree with it on every input."""
    from math import gcd
    from string import digits

    from ultragh import ExactValue, ZERO

    def number(word):
        """The int of a word of ASCII digits, else None."""
        return int(word) if word and set(word) <= set(digits) else None

    def rational(token, lineno):
        num_s, sep, den_s = token.partition("/")
        num, den = number(num_s.removeprefix("-")), number(den_s)
        if not sep or num is None or den is None:
            raise ParseError(lineno, f"expected rational a/b, got {token!r}")
        if den == 0:
            raise ParseError(lineno, f"denominator must be positive in {token!r}")
        if num_s.startswith("-"):
            raise ParseError(lineno, f"distances must be nonnegative, got {token!r}")
        if gcd(num, den) != 1:
            raise ParseError(lineno, f"{token!r} is not in lowest terms")
        return ExactValue(num, den)

    lines = text.splitlines()
    pos = 0

    def next_line():
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
    n = number(parts[1])
    if n is None:
        raise ParseError(lineno, f"bad point count {parts[1]!r}")
    if n < 1:
        raise ParseError(lineno, "point count must be >= 1")
    lineno, labels_line = next_line()
    parts = labels_line.split()
    if parts[0] != "labels" or len(parts) != n + 1:
        raise ParseError(lineno, f"expected 'labels' with {n} entries")
    labels = parts[1:]

    matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        matrix[i][i] = ZERO
    values = {}
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
        i, j = number(parts[1]), number(parts[2])
        if i is None or j is None:
            raise ParseError(lineno, f"bad indices in {line!r}")
        if not (0 <= i < j < n):
            raise ParseError(lineno, f"need 0 <= i < j < {n}, got {i}, {j}")
        row = matrix[i]
        if row[j] is not None:
            raise ParseError(lineno, f"duplicate pair ({i}, {j})")
        token = parts[3]
        value = values.get(token)
        if value is None:
            value = values[token] = rational(token, lineno)
        row[j] = value
        matrix[j][i] = value
        pairs += 1
    if pairs != n * (n - 1) // 2:
        missing = next(
            (i, j) for i in range(n) for j in range(i + 1, n) if matrix[i][j] is None
        )
        raise ParseError(len(lines), f"missing pair line for {missing}")
    return validate_space(matrix, labels, inexact=inexact)


def _outcome(parse, text):
    """What a reader makes of text: the space with its dendrogram and its
    written bytes, or the error's type, message, line and reason."""
    try:
        space = parse(text)
    except UltraGHError as err:
        return (type(err), str(err), getattr(err, "line", None), getattr(err, "reason", None))
    return (space, space._tree, write_space(space))


def _canonical_texts(sizes=range(1, 41)):
    """write_space output for each size, random and ring spaces, with and
    without `inexact true`."""
    pool = [ev("1/4"), ev("1/2"), ev(1), ev(2), ev("7/3")]
    for n in sizes:
        for seed in (n, 1000 + n):
            space = random_ultrametric(n, seed, pool)
            yield write_space(space)
            if seed % 2:
                yield write_space(validate_space(space.matrix(), space.labels, inexact=True))
    for depth in range(1, 6):
        yield write_space(truncated_unramified_ring(2, 1, depth))


def test_loader_agrees_with_line_reader_on_canonical_files():
    for text in _canonical_texts():
        got = _outcome(parse_space, text)
        assert got == _outcome(reference_parse, text)
        assert got[2] == text


@pytest.fixture
def bulk_only(monkeypatch):
    """Make any fallback to the line reader fail the test."""
    def refuse(*args):
        raise AssertionError("read line by line")

    monkeypatch.setattr(umsio, "_read_lines", refuse)


def test_canonical_files_are_read_in_bulk(bulk_only):
    # write_space's layout, also with trailing blank lines, CRLF line ends
    # or blank lines before and between the header items, never falls back
    # to the line reader.
    for text in _canonical_texts(range(1, 41, 3)):
        spaced = "\n" + text.replace("\n", "\n \n\n", 2)
        for variant in (text, text + "\n \n", text.replace("\n", "\r\n"),
                        spaced, spaced.replace("\n", "\r\n")):
            assert parse_space(variant) == reference_parse(variant)


@pytest.mark.parametrize("n", [64, 130])
def test_files_of_many_row_blocks_are_read_in_bulk(bulk_only, n):
    # Each point's pair lines are one block, cut out at the next point's
    # first line; a 130-point file holds 129 of them.
    pool = [ev("1/4"), ev("1/2"), ev(1), ev(2), ev("7/3")]
    space = random_ultrametric(n, n, pool, size_cap=n)
    for inexact in (False, True):
        text = write_space(validate_space(space.matrix(), space.labels, inexact=inexact))
        crlf = text.replace("\n", "\r\n")
        for variant in (text, crlf, text + "\n \n", crlf + "\r\n \r\n"):
            got = _outcome(parse_space, variant)
            assert got == _outcome(reference_parse, variant)
            assert got[0].inexact is inexact and got[2] == text


def test_zero_token_raises_the_line_readers_error(bulk_only):
    # The bulk reader takes 0/1 as a token like any other; the zero then
    # fails the space where the line reader fails it, at its own pair.
    rng = random.Random(23)
    for text in _canonical_texts([*range(2, 41, 3), 64]):
        lines = text.splitlines(keepends=True)
        pairs = [k for k, line in enumerate(lines) if line.startswith("d ")]
        for k in rng.sample(pairs, min(3, len(pairs))):
            _, i, j, _ = lines[k].split()
            variant = "".join([*lines[:k], f"d {i} {j} 0/1\n", *lines[k + 1:]])
            got = _outcome(parse_space, variant)
            assert got == _outcome(reference_parse, variant)
            assert got[:2] == (ZeroOffDiagonalError, str(ZeroOffDiagonalError(int(i), int(j))))


# The line breaks of str.splitlines besides "\n" and "\r\n".
OTHER_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", OTHER_BREAKS)
def test_other_line_breaks_agree_with_line_reader(brk):
    # The line reader splits lines on every break str.splitlines knows, so
    # "labels a\x85b c" is two lines, not three labels. A reader that cuts
    # lines only at "\n" must fall back on such a file rather than load it.
    rng = random.Random(ord(brk))
    x3 = write_space(truncated_unramified_ring(3, 1, 1))
    texts = [x3.replace("labels 0 1 2", "labels a b c"), *_canonical_texts([2, 5, 12, 40])]
    for text in texts:
        head, rest = text.split("labels ", 1)
        labels, body = rest.split("\n", 1)
        variants = [
            head + "labels " + labels.replace(" ", brk, 1) + "\n" + body,
            head + "labels " + labels + brk + "\n" + body,
            head.replace("points ", "points" + brk) + "labels " + rest,
        ]
        top = text[:len(text) - len(body)]
        lines = body.splitlines(keepends=True)
        pairs = [k for k, line in enumerate(lines) if line.startswith("d ")]
        for k in rng.sample(pairs, min(2, len(pairs))):
            line = lines[k]
            cut = line.rindex(" ")
            for new in (line.replace(" ", brk, 1), line.replace(" ", brk + " ", 1),
                        line[:cut] + brk + line[cut + 1:],
                        line[:-1] + brk, line[:-1] + brk + "\n", brk + line):
                variants.append(top + "".join([*lines[:k], new, *lines[k + 1:]]))
        for variant in variants:
            assert _outcome(parse_space, variant) == _outcome(reference_parse, variant), variant


def _layouts(text, rng):
    """Other layouts and damaged copies of one canonical file."""
    lines = text.splitlines()
    head, body = lines[:3], lines[3:]
    inexact = body[-1:] == ["inexact true"]
    pairs = body[:-1] if inexact else body
    tail = ["inexact true"] if inexact else []

    def joined(*parts):
        return "\n".join(chain(*parts)) + "\n"

    shuffled = pairs[:]
    rng.shuffle(shuffled)
    yield joined(head, shuffled, tail)
    yield joined(head, ["\t" + p.replace(" ", "\t", 1) for p in pairs], tail)
    yield joined(head, ["  " + p for p in pairs], tail)
    yield joined(head, [p + "  " for p in pairs], tail, ["", "   "])
    if not pairs:
        return
    at = rng.randrange(len(pairs) + 1)
    yield joined(head, pairs[:at], [""], pairs[at:], tail)
    yield joined(head, pairs[:at], ["inexact true"], pairs[at:])
    yield joined(head, pairs, ["inexact false"])
    yield joined(head, pairs, ["inexact true", "inexact true"])
    k = rng.randrange(len(pairs))
    d, i, j, token = pairs[k].split()
    edits = {
        "dup": [pairs[k]],
        "swap": [f"d {j} {i} {token}"],
        "self": [f"d {i} {i} {token}"],
        "plus": [f"d +{i} {j} {token}"],
        "underscore": [f"d {i} 0_{j} {token}"],
        "arabic": [f"d {i} {''.join(chr(0x660 + int(c)) for c in j)} {token}"],
        "zero-token": [f"d {i} {j} 0/1"],
        "padded-token": [f"d {i} {j} 0{token}"],
        "unreduced": [f"d {i} {j} 2/2"],
        "word": [f"d {i} {j} {token} extra"],
        "three": [f"d {i} {j}"],
        "other": [f"e {i} {j} {token}"],
        "big": [f"d {i} {j} 999/1"],
    }
    for name, new in edits.items():
        replace = name not in ("dup", "swap")
        yield joined(head, pairs[:k], new, pairs[k + replace:], tail)
    yield joined(head, pairs[:k], pairs[k + 1:], tail)  # missing pair
    if k + 1 < len(pairs):
        # A 3-word line then a 5-word line: the words still read in fours.
        a, b = pairs[k], pairs[k + 1]
        last = a.rpartition(" ")
        yield joined(head, pairs[:k], [last[0], last[2] + " " + b], pairs[k + 2:], tail)
        # A 5-word line then a 3-word line.
        first = b.rpartition(" ")
        yield joined(head, pairs[:k], [a + " " + first[0], first[2]], pairs[k + 2:], tail)
    # One pair's token on a line of its own: the words still read in fours.
    d_i_j, _, token = pairs[k].rpartition(" ")
    yield joined(head, pairs[:k], [d_i_j, token], pairs[k + 1:], tail)


def test_loader_agrees_with_line_reader_on_other_layouts():
    # A damaged file with every pair can fail the strong triangle test,
    # whose triple scan is O(n^3), so few sizes go past 12 points.
    rng = random.Random(19)
    for text in _canonical_texts([*range(1, 13), 20, 40]):
        for variant in _layouts(text, rng):
            assert _outcome(parse_space, variant) == _outcome(reference_parse, variant), variant


def test_loader_corner_cases_agree_with_line_reader():
    x3 = write_space(truncated_unramified_ring(3, 1, 1))
    head = "ums 1\npoints 3\nlabels a b c\n"
    texts = [
        # equal values from different tokens, and 0/1 off the diagonal
        head + "d 0 1 01/1\nd 0 2 1/1\nd 1 2 1/1\n",
        head + "d 0 1 0/1\nd 0 2 1/1\nd 1 2 1/1\n",
        head + "d 0 1 1/1\nd 0 2 1/1\nd 1 2 00/1\n",
        # a non-ultrametric triple, in both readers' layouts
        head + "d 0 1 1/1\nd 0 2 3/1\nd 1 2 1/1\n",
        head + "d 1 2 1/1\nd 0 2 3/1\nd 0 1 1/1\n",
        # a 3-word line followed by a 5-word line
        head + "d 0 1\n1/1 d 0 2 1/1\nd 1 2 1/1\n",
        # a token on a line of its own, in point 0's block
        head + "d 0 1\n1/2\nd 0 2 1/2\nd 1 2 1/4\n",
        # duplicate labels with a complete body, and with a bad line
        "ums 1\npoints 2\nlabels a a\nd 0 1 1/1\n",
        "ums 1\npoints 2\nlabels a a\nd 0 1 1/2/3\n",
        # the header only, and blank lines between header items
        "ums 1\npoints 1\nlabels a\n",
        "ums 1\npoints 1\nlabels a\ninexact true\n\n",
        "\n ums 1\n\npoints 2\n\nlabels a b\nd 0 1 1/1",
        x3.replace("\n", "\r\n"),
        x3.replace("\n", "\r"),
        x3 + "inexact true\nd 0 1 1/1\n",
        # the flag's two words on two lines, after a canonical body
        x3 + "inexact\ntrue\n",
        x3 + "\ninexact\r\ntrue\r\n",
    ]
    for text in texts:
        assert _outcome(parse_space, text) == _outcome(reference_parse, text), text


def test_header_for_many_points_needs_no_square_matrix():
    # A file that names 3,000 points but holds one pair line fails at its
    # end, as before, without an n x n matrix behind the error.
    labels = " ".join(f"p{i}" for i in range(3000))
    text = f"ums 1\npoints 3000\nlabels {labels}\nd 0 1 1/1\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            parse_space(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.line, exc.value.reason) == (4, "missing pair line for (0, 2)")
    assert peak < 5_000_000
    # An earlier bad line still wins over the missing pairs.
    with pytest.raises(ParseError) as exc:
        parse_space(text + "d 0 1 x\n")
    assert (exc.value.line, exc.value.reason) == (5, "duplicate pair (0, 1)")


def test_canonical_file_loads_without_a_line_list():
    # A canonical 256-point file is read block by block into the rank rows:
    # no list of its 32,640 pair lines, no padded triangle beside the rows.
    # The peak was 3.6-3.8 MB with those and is 1.4 MB without them on
    # Python 3.10-3.13, the finished space included.
    text = write_space(truncated_unramified_ring(2, 1, 8, size_cap=256))
    parse_space(text)
    tracemalloc.start()
    try:
        space = parse_space(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(space) == 256
    assert peak < 2_500_000
