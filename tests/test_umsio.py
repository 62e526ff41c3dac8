import pytest

from ultragh import (
    parse_space,
    parse_space_file,
    truncated_unramified_ring,
    validate_space,
    write_space,
    write_space_file,
)
from ultragh.errors import ParseError, UltrametricViolationError

from conftest import ev


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


@pytest.mark.parametrize("bad", ["a b", ""])
def test_unreadable_label_is_rejected_before_writing(bad, tmp_path):
    space = validate_space([[0, 1], [1, 0]], labels=[bad, "c"])
    with pytest.raises(ValueError, match=repr(bad)):
        write_space(space)
    path = tmp_path / "out.ums"
    with pytest.raises(ValueError):
        write_space_file(space, path)
    assert not path.exists()
