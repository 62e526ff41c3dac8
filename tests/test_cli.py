import json

import pytest

from ultragh import write_space_file, zq_delta, truncated_unramified_ring
from ultragh.cli import run


@pytest.fixture
def files(tmp_path):
    x3 = truncated_unramified_ring(3, 1, 1)
    yd = zq_delta(3, 2, 1)
    z4 = truncated_unramified_ring(2, 1, 2)
    paths = {}
    for name, space in (("x3", x3), ("yd", yd), ("z4", z4)):
        p = tmp_path / f"{name}.ums"
        write_space_file(space, p)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_dhat_json(files, capsys):
    code, doc = run_json(capsys, ["dhat", files["x3"], files["yd"], "--json"])
    assert code == 0
    assert doc["dhat"] == "3/2"
    assert doc["ratio"] == "6/1"
    assert doc["classical_dgh"] == "1/4"
    assert doc["agreement"] is True
    assert set(doc["methods"]) == {"shortcut_3b", "strong_correspondence"}


def test_dhat_human(files, capsys):
    assert run(["dhat", files["x3"], files["yd"]]) == 0
    out = capsys.readouterr().out
    assert "dhat: 3/2" in out
    assert "ratio: 6" in out


def test_dhat_method_selection(files, capsys):
    code, doc = run_json(capsys, ["dhat", files["x3"], files["x3"], "--method", "iso", "--json"])
    assert code == 0
    assert list(doc["methods"]) == ["isometry_scan"]
    assert doc["dhat"] == "0/1"


def test_gen_validate_round_trip(files, capsys):
    out_path = files["dir"] / "gen.ums"
    assert run(["gen", "zp", "--p", "2", "--depth", "2", "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["validate", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "valid: true" in out and "points: 4" in out


def test_gen_stdout_parses(files, capsys):
    assert run(["gen", "zqdelta", "--p", "5", "--q", "2", "--depth", "1"]) == 0
    text = capsys.readouterr().out
    from ultragh import parse_space

    space = parse_space(text)
    assert len(space) == 5


@pytest.mark.parametrize("e", ["0", "-3"])
def test_gen_ball_rejects_ramification_below_one(capsys, e):
    assert run(["gen", "ball", "--e", e]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must all be >= 1" in captured.err


def test_gen_ball_unramified_bytes(capsys):
    assert run(["gen", "ball", "--p", "2", "--s", "-1", "--depth", "2"]) == 0
    assert capsys.readouterr().out == (
        "ums 1\npoints 4\nlabels 0 1 2 3\n"
        "d 0 1 2/1\nd 0 2 1/1\nd 0 3 2/1\nd 1 2 2/1\nd 1 3 1/1\nd 2 3 2/1\n"
    )


def test_gen_random_deterministic(capsys):
    assert run(["gen", "random", "--n", "5", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "random", "--n", "5", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_spectra_output(files, capsys):
    assert run(["spectra", files["z4"]]) == 0
    assert capsys.readouterr().out.strip() == "1/2 1"


def test_lowerbound(files, capsys):
    code, doc = run_json(capsys, ["lowerbound", files["x3"], files["yd"], "--json"])
    assert code == 0 and doc["spectra_lower_bound"] == "3/2"


def test_dgh_and_ratio(files, capsys):
    code, doc = run_json(capsys, ["dgh", files["x3"], files["yd"], "--json"])
    assert code == 0 and doc["classical_dgh"] == "1/4" and doc["optimal"]
    code, doc = run_json(capsys, ["ratio", files["x3"], files["yd"], "--json"])
    assert code == 0 and doc["ratio"] == "6/1"
    code, doc = run_json(capsys, ["ratio", files["x3"], files["x3"], "--json"])
    assert code == 0 and doc["isometric"] is True


def test_net_and_split(files, capsys):
    code, doc = run_json(capsys, ["net", files["z4"], "--eps", "1", "--json"])
    assert code == 0 and doc["representatives"] == ["0", "1"]

    code, doc = run_json(
        capsys,
        ["split", files["z4"], files["x3"].replace("x3", "x3"), "--eps", "3/4", "--json"],
    )
    # Z4 against X3 admits no split
    assert code == 0 and doc["found"] is False


def test_split_found(files, capsys, tmp_path):
    x2 = truncated_unramified_ring(2, 1, 1)
    p = tmp_path / "x2.ums"
    write_space_file(x2, p)
    code, doc = run_json(capsys, ["split", files["z4"], str(p), "--eps", "3/4", "--json"])
    assert code == 0 and doc["found"] is True
    assert doc["classes"] == [["0", "2"], ["1", "3"]]


def test_chi_command(files, capsys, tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0\n0 1\n0 2\n1 0\n1 1\n1 2\n2 0\n2 1\n2 2\n")
    code, doc = run_json(
        capsys, ["chi", files["x3"], files["yd"], "--pairs", str(pairs), "--json"]
    )
    assert code == 0 and doc["strong"] is True and doc["entries"] == []

    partial = tmp_path / "partial.txt"
    partial.write_text("0 0\n1 1\n2 2\n")
    code, doc = run_json(
        capsys, ["chi", files["x3"], files["yd"], "--pairs", str(partial), "--json"]
    )
    assert code == 0 and doc["strong"] is False
    assert doc["counterexample"]["reason"] == "unequal"


def test_chi_nonempty_table(capsys, tmp_path):
    x3 = truncated_unramified_ring(3, 1, 1)
    a = tmp_path / "a.ums"
    b = tmp_path / "b.ums"
    write_space_file(x3, a)
    write_space_file(x3, b)
    pairs = tmp_path / "ident.txt"
    pairs.write_text("0 0\n1 1\n2 2\n")
    code, doc = run_json(capsys, ["chi", str(a), str(b), "--pairs", str(pairs), "--json"])
    assert code == 0 and doc["strong"] is True
    assert doc["chi_inf"] == "1/1" and doc["chi_sup"] == "1/1"
    assert len(doc["entries"]) == 6


def test_converge_manifest(files, capsys, tmp_path):
    x2 = truncated_unramified_ring(2, 1, 1)
    p2 = tmp_path / "x2.ums"
    write_space_file(x2, p2)
    manifest = tmp_path / "seq.txt"
    manifest.write_text(f"target {p2.name}\n{files['z4']}\n{files['z4']}\n")
    # paths inside a manifest resolve relative to the manifest directory
    code, doc = run_json(capsys, ["converge", str(manifest), "--json"])
    assert code == 0
    assert doc["classification"] == "constant"
    assert doc["dhat"] == ["1/2", "1/2"]
    assert doc["forced_from"] == 0


def test_sutb_manifest(files, capsys, tmp_path):
    manifest = tmp_path / "family.txt"
    manifest.write_text(f"{files['x3']}\n{files['z4']}\n")
    code, doc = run_json(
        capsys,
        ["sutb", str(manifest), "--eps", "2", "--max-net", "1", "--pool", "", "--json"],
    )
    assert code == 0 and doc["holds"] is True

    code, doc = run_json(
        capsys,
        ["sutb", str(manifest), "--eps", "1", "--max-net", "2", "--pool", "1/1", "--json"],
    )
    assert code == 0 and doc["holds"] is False


def test_exit_codes(files, capsys, tmp_path):
    bad = tmp_path / "bad.ums"
    bad.write_text("ums 1\npoints 3\nlabels a b c\nd 0 1 1/1\nd 0 2 3/1\nd 1 2 1/1\n")
    assert run(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err

    missing = tmp_path / "missing.ums"
    assert run(["validate", str(missing)]) == 2
    capsys.readouterr()

    big_a = tmp_path / "a.ums"
    big_b = tmp_path / "b.ums"
    write_space_file(truncated_unramified_ring(2, 1, 3), big_a)
    write_space_file(truncated_unramified_ring(3, 1, 2), big_b)
    assert run(["dhat", str(big_a), str(big_b)]) == 2  # over every cap
    capsys.readouterr()

    assert run(["dgh", files["z4"], str(big_b), "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert "budget exceeded" in out


def test_scan_budget_exits_3(files, capsys):
    assert run(["dhat", files["x3"], files["x3"], "--method", "iso", "--budget", "1"]) == 3
    assert "isometry scan exceeded 1 nodes" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["net", "{z4}", "--eps", "1/0"],
    ["gen", "random", "--n", "3", "--pool", "1/0,1"],
])
def test_zero_denominator_flag_exits_2(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([arg.format(**files) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid" in err and "Traceback" not in err


def test_reproducible_json(files, capsys):
    assert run(["dhat", files["x3"], files["yd"], "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["dhat", files["x3"], files["yd"], "--json"]) == 0
    assert capsys.readouterr().out == first
