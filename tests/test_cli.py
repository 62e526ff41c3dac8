import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultragh
from ultragh import (
    ExactValue,
    correspondences,
    random_ultrametric,
    truncated_unramified_ring,
    write_space_file,
    zq_delta,
)
from ultragh import cli
from ultragh.cli import run
from ultragh.errors import MethodDisagreementError

POOL = [ExactValue(1, 4), ExactValue(1, 2), ExactValue(1), ExactValue(2)]
BAD_UMS = "ums 1\npoints 3\nlabels a b c\nd 0 1 1/1\nd 0 2 3/1\nd 1 2 1/1\n"


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


def test_method_disagreement_exits_4(files, capsys, monkeypatch):
    # The exit code the module docstring and README give a
    # MethodDisagreementError, with its message on stderr.
    def disagreeing(*args, **kwargs):
        raise MethodDisagreementError("routes disagree")

    monkeypatch.setattr(cli, "dhat_gh", disagreeing)
    assert run(["dhat", files["x3"], files["yd"]]) == 4
    assert capsys.readouterr().err == "error: routes disagree\n"


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
    # ring takes the residue degree f: 2^2 residues at depth 1.
    assert run(["gen", "ring", "--p", "2", "--f", "2", "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["spectra", str(out_path)]) == 0
    assert capsys.readouterr().out == "1\n"
    assert run(["validate", str(out_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["points"] == 4


def test_gen_output_file_renders_once(files, capsys, monkeypatch):
    # gen -o renders the .ums text once and writes the bytes gen prints
    # without -o. The spy stands in for write_space wherever the CLI could
    # reach it.
    import ultragh.umsio as umsio

    rendered = []
    write_space = umsio.write_space

    def counting_write_space(space):
        rendered.append(1)
        return write_space(space)

    monkeypatch.setattr(cli, "write_space", counting_write_space)
    monkeypatch.setattr(umsio, "write_space", counting_write_space)
    argv = ["gen", "random", "--n", "6", "--seed", "3"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    rendered.clear()
    out_path = files["dir"] / "gen.ums"
    assert run(argv + ["-o", str(out_path)]) == 0
    assert rendered == [1]
    assert out_path.read_bytes() == printed.encode()


def test_gen_bad_label_writes_no_file(files, capsys, monkeypatch):
    # A label the labels line cannot hold fails before any file exists.
    spaced = ultragh.validate_space([[0, 1], [1, 0]], ["a b", "c"])
    monkeypatch.setattr(cli.generators, "random_ultrametric", lambda *a, **k: spaced)
    out_path = files["dir"] / "bad.ums"
    assert run(["gen", "random", "--n", "2", "-o", str(out_path)]) == 2
    assert "label 'a b'" in capsys.readouterr().err
    assert not out_path.exists()


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


@pytest.mark.parametrize("pool", ["", ","])
def test_gen_random_empty_pool_exits_2(capsys, pool):
    # An empty pool is an error, not a request for the default pool.
    assert run(["gen", "random", "--pool", pool]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "value_pool must be nonempty" in captured.err


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
    # Blank and comment lines are skipped.
    pairs.write_text("# all nine pairs\n0 0\n0 1\n0 2\n\n1 0\n1 1\n1 2\n  \n2 0\n2 1\n2 2\n")
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


@pytest.mark.parametrize("lines, strong", [
    ("0 0\n1 1\n2 2\n", False),
    ("0 0\n0 1\n0 2\n1 0\n1 1\n1 2\n2 0\n2 1\n2 2\n", True),
], ids=["not_strong", "strong"])
def test_chi_walks_the_partners_once(files, capsys, tmp_path, monkeypatch, lines, strong):
    # The verdict of a relation that is not strong comes with the error of
    # the one walk that builds the table of a strong one.
    calls = []
    walk = correspondences._partner_walk

    def spy(c):
        calls.append(c)
        return walk(c)

    monkeypatch.setattr(correspondences, "_partner_walk", spy)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(lines)
    code, doc = run_json(
        capsys, ["chi", files["x3"], files["yd"], "--pairs", str(pairs), "--json"]
    )
    assert code == 0 and doc["strong"] is strong and len(calls) == 1


@pytest.mark.parametrize("line", ["1 x", "1 2 3", "1.5 0", "+1 0", "1_0 0", "\u0663 0", "0 -1"])
def test_chi_malformed_pairs_line_exits_2(files, capsys, tmp_path, line):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(f"0 0\n{line}\n")
    assert run(["chi", files["x3"], files["yd"], "--pairs", str(pairs)]) == 2
    assert capsys.readouterr().err == f"error: pairs file: expected 'i j', got {line!r}\n"


def test_converge_manifest(files, capsys, tmp_path):
    x2 = truncated_unramified_ring(2, 1, 1)
    p2 = tmp_path / "x2.ums"
    write_space_file(x2, p2)
    manifest = tmp_path / "seq.txt"
    manifest.write_text(f"# the limit\n\ntarget {p2.name}\n{files['z4']}\n  # again\n{files['z4']}\n")
    # paths inside a manifest resolve relative to the manifest directory,
    # and blank and comment lines are skipped
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
    bad.write_text(BAD_UMS)
    assert run(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err

    missing = tmp_path / "missing.ums"
    assert run(["validate", str(missing)]) == 2
    capsys.readouterr()

    big_a = tmp_path / "a.ums"
    big_b = tmp_path / "b.ums"
    write_space_file(truncated_unramified_ring(2, 1, 3), big_a)
    write_space_file(truncated_unramified_ring(3, 1, 2), big_b)
    # Over every cap a call answers from the quotient route, budgeted or
    # not; the classical search that the ratio needs refuses the size.
    assert run(["dhat", str(big_a), str(big_b)]) == 0
    out = capsys.readouterr().out
    assert "dhat: 1\n" in out
    assert run(["dhat", str(big_a), str(big_b), "--budget", "100"]) == 0
    assert capsys.readouterr().out == out
    assert run(["ratio", str(big_a), str(big_b)]) == 2
    assert "classical search cap" in capsys.readouterr().err

    assert run(["dgh", files["z4"], str(big_b), "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert "budget exceeded" in out
    # The lower end is half the merge-height floor; the diameter gap is 0.
    assert "interval: [1/4, 1/2]" in out


@pytest.mark.parametrize("kind", ["missing", "directory", "empty name"])
def test_unusable_paths_exit_2(files, capsys, tmp_path, kind):
    # Every file the CLI reads or writes (a .ums file, gen -o, a chi pairs
    # file, a converge or sutb manifest, a file a manifest names) exits 2
    # with an error when its path is a missing file, a directory or "".
    bad = {"missing": str(tmp_path / "missing.txt"), "directory": str(tmp_path),
           "empty name": ""}[kind]
    out = str(tmp_path / "no" / "dir.ums") if kind == "missing" else bad
    manifest = tmp_path / "names.txt"
    manifest.write_text(f"{files['z4']}\n{bad or tmp_path / 'gone.ums'}\n")
    for argv in (["validate", bad],
                 ["gen", "zp", "--p", "2", "--depth", "1", "-o", out],
                 ["chi", files["z4"], files["z4"], "--pairs", bad],
                 ["converge", bad], ["sutb", bad, "--eps", "1", "--max-net", "1"],
                 ["converge", str(manifest)],
                 ["sutb", str(manifest), "--eps", "1", "--max-net", "1"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv


def test_pairs_and_manifest_paths_follow_pathlib_rules(files, tmp_path):
    # An int or bytes path raises TypeError, as pathlib.Path does, and an
    # int is never read as a file descriptor.
    manifest = tmp_path / "names.txt"
    manifest.write_text(f"{files['z4']}\n")
    assert cli._parse_manifest(str(manifest))[1] == [Path(files["z4"])]
    with open(manifest) as file:
        for read in (cli._parse_pairs_file, cli._parse_manifest):
            for bad in (file.fileno(), os.fsencode(manifest)):
                with pytest.raises(TypeError):
                    read(bad)


def test_empty_ums_file_exits_2_at_line_1(capsys, tmp_path):
    empty = tmp_path / "empty.ums"
    empty.write_text("")
    assert run(["validate", str(empty)]) == 2
    assert capsys.readouterr().err == "error: line 1: unexpected end of file\n"


def test_ratio_budget_exits_3(files, capsys, tmp_path):
    far = tmp_path / "far.ums"
    write_space_file(zq_delta(5, 2, 2), far)
    assert run(["ratio", files["z4"], str(far)]) == 0
    assert "ratio: 3" in capsys.readouterr().out
    assert run(["ratio", files["z4"], str(far), "--budget", "2"]) == 3
    captured = capsys.readouterr()
    assert "isometric" not in captured.out
    assert "classical search ran out of budget" in captured.err


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


MALFORMED_NUMBERS = ["+1/2", "1_0/3", "1 / 2", "\u0663", "-0", "1/+2"]


@pytest.mark.parametrize("argv, token", [
    (["net", "{z4}", "--eps", "abc"], "'abc'"),
    (["gen", "random", "--pool", "1/2,x"], "'x'"),
    (["dgh", "{z4}", "{z4}", "--budget", "abc"], "'abc'"),
    # --eps and --pool read their numbers by the digit rule of .ums files.
    *((["net", "{z4}", "--eps", bad], repr(bad)) for bad in MALFORMED_NUMBERS),
    *((["gen", "random", "--pool", f"1/4,{bad}"], repr(bad)) for bad in MALFORMED_NUMBERS),
    # So do the integer flags, which int() would not hold to: --s and
    # --seed take one leading '-' besides.
    (["dgh", "{z4}", "{z4}", "--budget", "1_0"], "'1_0'"),
    (["dgh", "{z4}", "{z4}", "--budget", " +2"], "' +2'"),
    (["gen", "zp", "--depth", "\u0662"], "'\u0662'"),
    (["gen", "zp", "--p", "+2"], "'+2'"),
    (["gen", "random", "--seed", "1_0"], "'1_0'"),
    (["gen", "ball", "--s", "+1"], "'+1'"),
    (["sutb", "{z4}", "--eps", "1", "--max-net", " 2"], "' 2'"),
])
def test_malformed_flag_value_names_token(files, capsys, argv, token):
    with pytest.raises(SystemExit) as exc:
        run([arg.format(**files) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert f"argument {argv[-2]}: invalid" in err and token in err
    assert "_arg" not in err


@pytest.mark.parametrize("argv", [
    ["net", "{z4}", "--eps", "0"],
    ["split", "{z4}", "{x3}", "--eps", "0/3"],
])
def test_eps_zero_exits_2(files, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([arg.format(**files) for arg in argv])
    assert exc.value.code == 2
    assert "argument --eps: eps must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dgh", "dhat"])
def test_negative_budget_exits_2(files, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command, files["z4"], files["z4"], "--budget", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "budget must not be negative" in err and "Traceback" not in err


def test_negative_seed_runs(capsys):
    # --seed, like --s, takes one leading '-'.
    assert run(["gen", "random", "--n", "3", "--seed", "-3"]) == 0
    assert capsys.readouterr().out.startswith("ums 1\npoints 3\n")


def test_budget_zero_at_the_floor_reports_the_value(files, capsys):
    # The full product of this pair is optimal, its distortion the
    # merge-height floor, so a budget of 0 still gives d_GH.
    paths = []
    for name, space in (("x", random_ultrametric(4, 1, POOL)),
                        ("y", random_ultrametric(2, 2, POOL))):
        paths.append(str(files["dir"] / f"{name}.ums"))
        write_space_file(space, paths[-1])
    assert run(["dgh", *paths, "--budget", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "classical_dgh: 1/4"


def test_deep_budgeted_search_exits_0(files, capsys):
    # A search 1200 left points deep keeps its levels on an explicit
    # stack: it runs, proves the floor optimal and prints d_GH.
    big, two = str(files["dir"] / "big.ums"), str(files["dir"] / "two.ums")
    write_space_file(random_ultrametric(1200, 1, POOL, size_cap=1200), big)
    write_space_file(random_ultrametric(2, 2, POOL), two)
    assert run(["dgh", big, two, "--budget", "5000"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "classical_dgh: 1/4" and err == ""


def test_reproducible_json(files, capsys):
    assert run(["dhat", files["x3"], files["yd"], "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["dhat", files["x3"], files["yd"], "--json"]) == 0
    assert capsys.readouterr().out == first


def python_m(module, *argv):
    """Run python -m module argv in a fresh interpreter that imports this
    checkout's ultragh."""
    src = str(Path(ultragh.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )


def test_module_entry_points(files, tmp_path):
    # Both python -m ultragh and python -m ultragh.cli run the CLI, with its
    # output and its exit codes.
    done = python_m("ultragh", "validate", files["z4"], "--json")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "valid": True, "points": 4, "diameter": "1/1", "inexact": False}
    bad = tmp_path / "bad.ums"
    bad.write_text(BAD_UMS)
    done = python_m("ultragh.cli", "validate", str(bad))
    assert done.returncode == 2
    assert done.stdout == "" and done.stderr.startswith("error: ")
