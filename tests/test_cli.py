import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from ramseydensity.cli import main


def run(args):
    return main(args)


class TestFEval:
    def test_lambda_one(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        assert run(["f-eval", "--lambda", "1", "--out", str(out)]) == 0
        text = out.read_text()
        assert "0.872260419" in text
        assert text.startswith("# command: f-eval")

    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "f.csv"
        run(["f-eval", "--lambda", "2", "--out", str(out)])
        row = out.read_text().strip().splitlines()[-1]
        lam, lower, upper, exact = row.split(",")
        assert lower == "0.6"
        assert upper == f"{(21 + math.sqrt(12)) / 33:.9g}"
        assert exact == ""


class TestFig1:
    def test_columns_and_anchors(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run(["fig1", "--out", str(out)]) == 0
        lines = [ln for ln in out.read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert lines[0] == "x,lower,upper,exact"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert rows["0"][1:] == ["1", "1", "1"]
        assert rows["1"][3] == f"{(12 + math.sqrt(8)) / 17:.9g}"
        assert rows["3"][2] == f"{2 / 3:.9g}"
        assert rows["1.5"][3] == ""  # exact only on [0, 1]
        assert len(lines) == 302

    def test_branch_point_continuity(self, tmp_path):
        from ramseydensity.lipschitz import f_closed
        low = (2 * 9 + 9 + 7 + 2 * 2) / (4 * 9 + 12 + 9)
        assert abs(low - f_closed(3.0).upper) < 1e-9


class TestMu:
    def test_karytree(self, tmp_path, capsys):
        out = tmp_path / "mu.json"
        assert run(["mu", "--family", "karytree:2", "--n", "3",
                    "--prefix-size", "127", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mu"] == 6
        assert capsys.readouterr().out.strip() == "6"

    def test_usage_error_on_bad_family(self, capsys):
        assert run(["mu", "--family", "bogus:1", "--n", "2"]) == 1


class TestArtifacts:
    def test_reproducible_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run(["adversary", "--s", "1", "--r", "1", "--n", "60",
                        "--g", "sigma:1:8", "--seed", "5",
                        "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_adversary_verifies_its_instance_once(self, tmp_path, monkeypatch):
        from ramseydensity import colorings
        calls = []
        original = colorings.verify_adversary
        monkeypatch.setattr(colorings, "verify_adversary",
                            lambda inst: calls.append(inst) or original(inst))
        out = tmp_path / "adv.json"
        assert run(["adversary", "--s", "1", "--r", "1", "--n", "60",
                    "--g", "sigma:1:8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        # adversary() raises on any violation, so its one check is the only one
        assert len(calls) == 1
        assert doc["invariants_ok"] is True and doc["violations"] == []

    def test_seed_env_override(self, tmp_path, monkeypatch):
        out = tmp_path / "o.json"
        monkeypatch.setenv("RDL_SEED", "99")
        run(["shade", "--coloring", "modular:3", "--n", "60", "--a", "3",
             "--min-count", "4", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["meta"]["seed"] == 99

    def test_meta_fields_present(self, tmp_path):
        out = tmp_path / "m.json"
        run(["mu", "--family", "pathpower:1", "--n", "2",
             "--prefix-size", "12", "--out", str(out)])
        meta = json.loads(out.read_text())["meta"]
        assert set(meta) >= {"command", "config", "seed", "version"}


class TestSubcommands:
    def test_mfmc_single_edge(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("1 1 1\n0 0\n")
        out = tmp_path / "cert.json"
        assert run(["mfmc", "--graph", str(graph), "--r", "2", "--s", "3",
                    "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["D"] == 2

    def test_findflow_on_leftmost_file(self, tmp_path):
        coloring = tmp_path / "c.txt"
        coloring.write_text("8 leftmost\nRBRBRBRB\n")
        out = tmp_path / "ff.json"
        assert run(["findflow", "--coloring", str(coloring), "--r", "1",
                    "--s", "1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["color"] in "RB" and doc["t"] >= 1

    def test_shade_exit_codes(self, tmp_path):
        out = tmp_path / "sh.json"
        rc = run(["shade", "--coloring", "modular:3", "--n", "90", "--a", "3",
                  "--min-count", "4", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["verify_passed"]

    def test_shade_records_n_only_for_a_modular_coloring(self, tmp_path):
        # a coloring file sets n itself, so --n is not part of its config
        coloring = tmp_path / "c.txt"
        coloring.write_text("8 leftmost\nRBRRBRBB\n")
        configs = []
        for spec in ("modular:3", str(coloring)):
            out = tmp_path / "sh.json"
            assert run(["shade", "--coloring", spec, "--n", "30", "--a", "2",
                        "--min-count", "1", "--out", str(out)]) == 0
            configs.append(json.loads(out.read_text())["meta"]["config"])
        assert configs[0]["n"] == "30" and "n" not in configs[1]

    def test_shade_verification_failure_exits_2(self, tmp_path):
        # a floor close to the host size cannot survive sampling slack
        coloring = tmp_path / "c.txt"
        n = 12
        chars = "".join("R" for u in range(n) for v in range(u + 1, n))
        coloring.write_text(f"{n} explicit\n{chars}\n")
        out = tmp_path / "sh.json"
        rc = run(["shade", "--coloring", str(coloring), "--n", str(n),
                  "--a", "2", "--min-count", "11", "--out", str(out)])
        assert rc == 2
        assert not json.loads(out.read_text())["verify_passed"]

    def test_embed_demo(self, tmp_path):
        out = tmp_path / "emb.json"
        rc = run(["embed", "--host-size", "30", "--copies", "3", "--r", "1",
                  "--s", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["verify_passed"] and not doc["incomplete"]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 25])
    def test_embed_host_masks_equal_its_red_pairs(self, n):
        # the host the embed demo plants: red unless both ends are left
        from ramseydensity.cli import _planted_host
        from ramseydensity.colorings import TwoColoring
        left = range(n // 2)
        red = [(u, v) for u in range(n) for v in range(u + 1, n)
               if not (u in left and v in left)]
        assert _planted_host(n) == TwoColoring(n, "explicit", red_edges=red)

    def test_treecut_command(self, tmp_path):
        forest = tmp_path / "f.txt"
        forest.write_text("4 3\n0 1\n0 2\n0 3\n")
        out = tmp_path / "tc.json"
        rc = run(["treecut", "--forest", str(forest), "--independent", "1,2,3",
                  "--lambda-prime", "1/2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["postconditions_ok"]

    def test_no_command_usage(self):
        assert run([]) == 1


class File:
    """A BAD_INPUTS argument that the test replaces by ``prefix`` and the
    path of a file holding ``text``."""

    def __init__(self, text, prefix=""):
        self.text = text
        self.prefix = prefix

    def __str__(self):
        return self.prefix + "file:" + self.text.replace("\n", "/")


def with_files(argv, tmp_path):
    """argv with each File replaced by its prefix and the path of a file
    holding its text."""
    out = []
    for k, arg in enumerate(argv):
        if isinstance(arg, File):
            path = tmp_path / f"input{k}.txt"
            path.write_text(arg.text)
            arg = arg.prefix + str(path)
        out.append(arg)
    return out


STAR = "4 3\n0 1\n0 2\n0 3\n"  # centre 0, leaves 1, 2 and 3

# inputs beyond a work bound, one row per bound
WORK_BOUND_ROWS = [
    ["mu", "--family", "pathpower:1", "--n", "2", "--prefix-size", "100000"],
    ["mu", "--family", "grid:8", "--n", "1", "--prefix-size", "2"],
    ["mu", "--family", "grid:10", "--n", "1", "--prefix-size", "4"],
    ["mu", "--family", "pathpower:1000000", "--n", "1", "--prefix-size", "10"],
    ["mu", "--family", "pathpower:1", "--n", "1500", "--prefix-size", "4000"],
    ["embed", "--host-size", "10001"],
    ["embed", "--copies", "7501", "--r", "1", "--s", "1"],
    ["embed", "--copies", "1", "--r", "142", "--s", "142"],
    ["embed", "--copies", "801", "--host-size", "10000"],
    ["findflow", "--coloring", File("40000 modular:3\n"), "--r", "1", "--s", "1"],
    ["shade", "--coloring", File("\n10001 leftmost\nR\n"), "--a", "2"],
    ["shade", "--coloring", "modular:3", "--n", "20000", "--a", "3"],
    ["shade", "--coloring", "modular:3", "--n", "60", "--a", "65"],
    ["shade", "--coloring", "modular:3", "--n", "60", "--a", "3", "--sample-size", "100000"],
    # a coloring file's sampling work is checked before the file is parsed
    ["shade", "--coloring", File("60 modular:3\n"), "--a", "2", "--sample-size", "2000",
     "--subset-cap", "100"],
    ["treecut", "--forest", File("100000 0\n"), "--independent", "0", "--lambda-prime", "1"],
    ["mu", "--family", File("200000 0\n", "explicit:"), "--n", "1", "--prefix-size", "10"],
    ["mfmc", "--graph", File("50000 50000 0\n"), "--r", "1", "--s", "1"],
    ["adversary", "--s", "1", "--r", "1", "--n", "100000"],
]

# graph files that break a rule, each naming the line and its shape
BAD_GRAPHS = [
    ("3\n", "line 1 '3': expected 'n m', got 1 fields"),
    ("\n3 x\n", "line 2 '3 x': expected 'n m', invalid literal"),
    ("-3 0\n", "header 'n m' must be nonnegative, got '-3 0'"),
    ("3 1\n0 1 2\n", "line 2 '0 1 2': expected 'u v', got 3 fields"),
    ("3 1\n0 x\n", "line 2 '0 x': expected 'u v', invalid literal"),
    ("3 1\n1 1\n", "line 2 '1 1': expected 'u v' with u != v and 0 <= u, v < 3"),
    ("3 1\n0 3\n", "line 2 '0 3': expected 'u v' with u != v and 0 <= u, v < 3"),
    ("3 1\n-1 0\n", "line 2 '-1 0': expected 'u v' with u != v and 0 <= u, v < 3"),
    ("3 2\n0 1\n\n1 0\n", "line 4 '1 0': repeats the edge on line 2"),
    ("3 2\n0 1\n0 1\n", "line 3 '0 1': repeats the edge on line 2"),
]

# treecut values that are no vertex list or no fraction, and the option each names
TREECUT_BAD_OPTIONS = [
    (["treecut", "--forest", File(STAR), "--independent", ",", "--lambda-prime", "2"],
     "--independent"),
    (["treecut", "--forest", File(STAR), "--independent", "1,x", "--lambda-prime", "2"],
     "--independent"),
    (["treecut", "--forest", File(STAR), "--independent", "1,2", "--lambda-prime", "x"],
     "--lambda-prime"),
    (["treecut", "--forest", File(STAR), "--independent", "1,2", "--lambda-prime", "2",
      "--delta", "x"], "--delta"),
]

BAD_INPUTS = [
    ["adversary", "--s", "1", "--r", "0", "--n", "40"],
    ["adversary", "--s", "0", "--r", "1", "--n", "40"],
    ["adversary", "--s", "-2", "--r", "1", "--n", "40"],
    ["fig1", "--step", "0"],
    ["fig1", "--step", "-1"],
    ["fig1", "--step", "inf"],
    ["f-eval", "--lambda", "nan"],
    ["f-eval", "--lambda", "-inf"],
    ["f-eval", "--lambda", "x"],
    ["f-eval", "--lambda", "3/2"],
    ["f-eval", "--lambda", ""],
    ["f-eval", "--lambda", "-1"],
    ["f-eval", "--lambda", "101"],
    ["adversary", "--s", "1"],
    ["fig1", "--step", "abc"],
    ["no-such-command"],
    ["adversary", "--s", "1", "--r", "1", "--n", "50", "--g", "sigma:1:900"],
    ["findflow", "--coloring", File("4 leftmost\nRRRR\n"), "--r", "0", "--s", "-3"],
    ["findflow", "--coloring", File("6 leftmost\n"), "--r", "1", "--s", "1"],
    ["shade", "--coloring", File("5 explicit\nRRB\n"), "--a", "3"],
    ["shade", "--coloring", File("2 explicit\n"), "--a", "2"],
    ["mfmc", "--graph", File(""), "--r", "1", "--s", "1"],
    ["mfmc", "--graph", File("2 2 3\n0 0\n1 1\n"), "--r", "1", "--s", "1"],
    ["mfmc", "--graph", File("2 2 1\n0 0\n1 1\n"), "--r", "1", "--s", "1"],
    ["treecut", "--forest", File(""), "--independent", "0", "--lambda-prime", "1"],
    [],
    ["shade", "--coloring", File("3 explicit\nRXZ\n"), "--a", "2"],
    ["shade", "--coloring", "modular:3", "--n", "30", "--a", "3", "--sample-size", "0"],
    ["shade", "--coloring", "modular:3", "--n", "30", "--a", "3", "--subset-cap", "0"],
    ["treecut", "--forest", File(STAR), "--independent", "-1", "--lambda-prime", "2"],
    ["treecut", "--forest", File(STAR), "--independent", "9", "--lambda-prime", "2"],
    ["treecut", "--forest", File(STAR), "--independent", "1,2,3", "--lambda-prime", "1/2",
     "--delta", "0"],
    ["treecut", "--forest", File(STAR), "--independent", "1,2,3", "--lambda-prime", "1/0"],
    ["treecut", "--forest", File(STAR), "--independent", "1,2,3", "--lambda-prime", "1/2",
     "--delta", "1/0"],
    ["treecut", "--forest", File(STAR), "--independent", "1,2,3", "--lambda-prime", "1/2",
     "--delta=-1/4"],
    ["treecut", "--forest", File(STAR), "--independent", "1,1", "--lambda-prime", "2"],
    *(argv for argv, _ in TREECUT_BAD_OPTIONS),
    ["treecut", "--forest", File("4 2\n0 1\n1 2\n2 3\n"), "--independent", "0,2",
     "--lambda-prime", "2"],
    ["embed", "--host-size", "0"],
    ["embed", "--copies", "0"],
    ["embed", "--r", "0"],
    ["embed", "--s", "-1"],
    ["embed", "--budget", "-1"],
    ["shade", "--coloring", "modular:3", "--n", "30", "--a", "3", "--min-count", "0"],
    ["shade", "--coloring", "modular:3", "--n", "30", "--a", "3", "--min-count", "-3"],
    ["findflow", "--coloring", File("4 leftmost\nRRRR\nBBBB\n"), "--r", "1", "--s", "1"],
    ["shade", "--coloring", File("3 explicit\nRRB\nBBB\n"), "--a", "2"],
    ["shade", "--coloring", File("3 modular:3\nRRR\n"), "--n", "30", "--a", "3"],
    ["treecut", "--forest", File("3 2\n0 1\n1 2\n"), "--independent", "0,2",
     "--lambda-prime", "3", "--delta", "1e-400"],
    ["mfmc", "--graph", File("-1 2 0\n"), "--r", "1", "--s", "1"],
    ["mfmc", "--graph", File("1 1 -1\n"), "--r", "1", "--s", "1"],
    ["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", "linear:nan"],
    ["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", "linear:inf"],
    ["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", "sigma:nan"],
    ["shade", "--coloring", "modular:1", "--n", "10", "--a", "2"],
    ["shade", "--coloring", "modular:", "--n", "10", "--a", "2"],
    ["shade", "--coloring", "modular:x", "--n", "10", "--a", "2"],
    ["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", "sigma:1:abc"],
    ["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", "linear:"],
    ["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", File("0 0\n1 1 5\n", "file:")],
    # a bare path is no function spec
    ["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", File("0 0\n1 1\n")],
    ["fig1", "--step", "1e-12"],
    ["mfmc", "--graph", File("2 2 2\n0 0\n0 0\n"), "--r", "1", "--s", "1"],
    ["mfmc", "--graph", File("2 2\n"), "--r", "1", "--s", "1"],
    ["mfmc", "--graph", File("2 2 1\n0 0 0\n"), "--r", "1", "--s", "1"],
    ["mfmc", "--graph", File("2 2 1\n0 x\n"), "--r", "1", "--s", "1"],
    ["mfmc", "--graph", File("2 2 1\n0 2\n"), "--r", "1", "--s", "1"],
    # four fields in all, but not two per row: line 2 is bad on its own
    ["mfmc", "--graph", File("2 2 2\n0 0 1\n1\n"), "--r", "1", "--s", "1"],
    ["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", "linear:5"],
    ["findflow", "--coloring", File("4 leftmost extra\nRRBB\n"), "--r", "1", "--s", "1"],
    ["findflow", "--coloring", File("4\nRRBB\n"), "--r", "1", "--s", "1"],
    ["findflow", "--coloring", File("4.0 leftmost\nRRBB\n"), "--r", "1", "--s", "1"],
    ["shade", "--coloring", File("6 modular:3 extra\n"), "--a", "2"],
    ["shade", "--coloring", File("6.0 modular:3\n"), "--a", "2"],
    ["shade", "--coloring", File("6 modular:x\n"), "--a", "2"],
    ["mu", "--family", "karytree:2", "--n", "0"],
    ["mu", "--family", "pathpower:", "--n", "2"],
    ["mu", "--family", "bogus:1", "--n", "2"],
    ["mu", "--family", "karytree:2", "--n", "3", "--prefix-size", "7"],
    ["mu", "--family", "karytree:x", "--n", "2"],
    ["mu", "--family", "grid:1.5", "--n", "2"],
    *WORK_BOUND_ROWS,
    *(["treecut", "--forest", File(text), "--independent", "0", "--lambda-prime", "1"]
      for text, _ in BAD_GRAPHS),
    ["mu", "--family", File("3 2\n0 1\n1 0\n", "omega:"), "--n", "1"],
    ["mu", "--family", File("2 1\n0 0\n", "explicit:"), "--n", "1"],
    # a line longer than 80 characters is cut in the message
    ["shade", "--coloring", File("R" * 100 + "\n"), "--a", "2"],
    ["mfmc", "--graph", File("2 2 1\n" + "0 " * 50 + "\n"), "--r", "1", "--s", "1"],
    ["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", File("0 0\n" + "x" * 90 + " 1\n",
                                                                      "file:")],
]


@pytest.mark.parametrize("argv", BAD_INPUTS,
                         ids=lambda argv: " ".join(map(str, argv)) or "no-subcommand")
def test_bad_input_exits_1_with_one_error_line(argv, tmp_path, capsys):
    assert run(with_files(argv, tmp_path)) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,option", [
    *TREECUT_BAD_OPTIONS,
    (["treecut", "--forest", File(STAR), "--independent", "1,2", "--lambda-prime", "1/0"],
     "--lambda-prime"),
    (["treecut", "--forest", File(STAR), "--independent", "1,2", "--lambda-prime", "2",
      "--delta", "1/0"], "--delta"),
], ids=lambda arg: " ".join(arg[3:]) if isinstance(arg, list) else arg)
def test_treecut_error_names_the_option(argv, option, tmp_path, capsys):
    assert run(with_files(argv, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} ") and "literal" not in err


# option values that f-eval and fig1 reject, each with the message naming the option
VALUE_ERRORS = [
    (["f-eval", "--lambda", "x"], "--lambda 'x' is not a number"),
    (["f-eval", "--lambda", "3/2"], "--lambda '3/2' is not a number"),
    (["f-eval", "--lambda", ""], "--lambda '' is not a number"),
    (["f-eval", "--lambda", "nan"], "--lambda 'nan': lam must be a number, not NaN"),
    (["f-eval", "--lambda", "-1"], "--lambda '-1': lam must be nonnegative"),
    (["f-eval", "--lambda", "101"], "--lambda '101': lam above 100 is unsupported"),
    (["fig1", "--step", "0"], "--step must be positive and finite, got 0.0"),
]


@pytest.mark.parametrize("argv,message", [pytest.param(argv, message, id=" ".join(argv))
                                          for argv, message in VALUE_ERRORS])
def test_value_error_names_the_option(argv, message, tmp_path, capsys):
    assert run([*argv, "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_f_eval_accepts_an_infinite_lambda(tmp_path):
    out = tmp_path / "out.csv"
    assert run(["f-eval", "--lambda", "inf", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[-1].startswith("inf,")


@pytest.mark.parametrize("argv,name", [
    (["embed", "--host-size", "0"], "--host-size"),
    (["embed", "--copies", "0"], "--copies"),
    (["embed", "--r", "0"], "--r"),
    (["embed", "--s", "-1"], "--s"),
    (["embed", "--budget", "-1"], "--budget"),
    (["shade", "--coloring", "modular:3", "--n", "30", "--a", "3", "--min-count", "0"],
     "--min-count"),
    (["shade", "--coloring", "modular:3", "--n", "0", "--a", "2"], "--n"),
    (["shade", "--coloring", "modular:3", "--n", "-5", "--a", "2"], "--n"),
    (["mu", "--family", "karytree:0", "--n", "1"], "family 'karytree:0': k"),
    (["mu", "--family", "grid:0", "--n", "1"], "family 'grid:0': d"),
    (["mu", "--family", "pathpower:1", "--n", "0"], "--n"),
    (["mu", "--family", "pathpower:1", "--n", "-5"], "--n"),
    (["mu", "--family", "pathpower:1", "--n", "1", "--prefix-size", "0"], "--prefix-size"),
    (["mu", "--family", "pathpower:1", "--n", "1", "--prefix-size", "-3"], "--prefix-size"),
    # a prefix with fewer boundary-interior candidates than --n: vertex 0's
    # neighbour 1 lies outside it
    (["mu", "--family", File("2 1\n0 1\n", "explicit:"), "--n", "1", "--prefix-size", "1"],
     "--prefix-size"),
    # candidates 0 and 1 of the path's prefix 0..3 are adjacent
    (["mu", "--family", "pathpower:1", "--n", "2", "--prefix-size", "4"], "--prefix-size"),
    (["adversary", "--s", "0", "--r", "1", "--n", "10"], "--s"),
    (["adversary", "--s", "1", "--r", "-1", "--n", "10"], "--r"),
    (["adversary", "--s", "1", "--r", "1", "--n", "3"], "--n"),
    (["mfmc", "--graph", File("2 2 1\n0 0\n"), "--r", "0", "--s", "1"], "--r"),
    (["mfmc", "--graph", File("2 2 1\n0 0\n"), "--r", "1", "--s", "0"], "--s"),
    (["findflow", "--coloring", File("3 leftmost\nRBR\n"), "--r", "0", "--s", "1"], "--r"),
    (["findflow", "--coloring", File("3 leftmost\nRBR\n"), "--r", "1", "--s", "-2"], "--s"),
    (["shade", "--coloring", "modular:3", "--n", "30", "--a", "1"], "--a"),
    (["shade", "--coloring", File("3 leftmost\nRBR\n"), "--a", "1"], "--a"),
    (["shade", "--coloring", "modular:3", "--n", "30", "--a", "2", "--sample-size", "0"],
     "--sample-size"),
    (["shade", "--coloring", "modular:3", "--n", "30", "--a", "2", "--subset-cap", "0"],
     "--subset-cap"),
])
def test_size_error_names_the_option(argv, name, tmp_path, capsys):
    assert run(with_files(argv, tmp_path)) == 1
    assert f"error: {name} must be at least" in capsys.readouterr().err


def test_family_constructor_error_names_the_spec(tmp_path, capsys):
    # the file reads as a graph, but an omega factor needs a vertex
    path = tmp_path / "graph.txt"
    path.write_text("0 0\n")
    assert run(["mu", "--family", f"omega:{path}", "--n", "1"]) == 1
    assert capsys.readouterr().err == f"error: family 'omega:{path}': factor must be nonempty\n"


@pytest.mark.parametrize("argv", WORK_BOUND_ROWS, ids=lambda argv: " ".join(map(str, argv)))
def test_work_bounds_exit_before_anything_is_built(argv, tmp_path, monkeypatch, capsys):
    from ramseydensity import cli, colorings, families, flows

    def unreachable(*args):
        raise AssertionError("built past a work bound")

    # each name on the module a command reads it from when it runs
    for module, names in ((cli, ("_planted_host", "edge_list_rows", "_parse_pl")),
                          (families, ("mu", "mu_bruteforce", "complete_bipartite")),
                          (colorings, ("clique_coloring", "adversary")),
                          (flows, ("CapacitatedBipartite",))):
        for name in names:
            monkeypatch.setattr(module, name, unreachable)
    monkeypatch.setattr(families.Grid, "_grow_to_radius", unreachable)
    monkeypatch.setattr(colorings.TwoColoring, "from_text", unreachable)
    monkeypatch.setattr(families.FiniteGraph, "from_text", unreachable)
    assert run(with_files(argv, tmp_path)) == 1
    assert "at most" in capsys.readouterr().err


def test_work_bounds_admit_their_limits(tmp_path, capsys):
    # at each bound the command runs, or fails for a reason of its own
    from ramseydensity import cli
    out = str(tmp_path / "out.json")
    for argv, code in [
            (["pathpower:1", "--n", "1", "--prefix-size", str(cli.MU_MAX_PREFIX)], 0),
            ([f"pathpower:{cli.MU_MAX_NEIGHBORS // 200}", "--n", "1", "--prefix-size", "100"],
             1),
            (["grid:10", "--n", "1", "--prefix-size", "1"], 1),  # a box of 3**10 points
            (["karytree:2", "--n", str(cli.MU_MAX_N), "--prefix-size", "127"], 1)]:
        assert run(["mu", "--family", *argv, "--out", out]) == code
        assert "at most" not in capsys.readouterr().err
    n = cli.COLORING_MAX_N
    for argv, code in [
            (["findflow", "--coloring", File(f"{n} modular:3\n"), "--r", "1", "--s", "1"],
             1),  # a modular coloring has no vertex colors
            (["shade", "--coloring", "modular:3", "--n", str(n), "--a", "1"], 1),
            (["shade", "--coloring", "modular:3", "--n", "60", "--a", str(cli.SHADE_MAX_A)], 0),
            # 4 (a - 1) * sample size * min(subset cap, n) at the bound; the file has n = 50
            (["shade", "--coloring", File("50 modular:3\n"), "--a", "2", "--subset-cap", "60",
              "--sample-size", str(cli.SHADE_MAX_SAMPLE_WORK // 200)], 2),
            (["embed", "--copies", str(cli.EMBED_MAX_PATTERN_VERTICES // 2), "--r", "1",
              "--s", "1"], 0),
            (["embed", "--copies", "1", "--r", "2", "--s", str(cli.EMBED_MAX_PATTERN_EDGES // 2)],
             0),
            (["embed", "--copies", str(cli.EMBED_MAX_PATTERN_VERTICES // 3), "--host-size",
              str(cli.EMBED_MAX_COPIES_HOST * 3 // cli.EMBED_MAX_PATTERN_VERTICES)], 0),
            (["treecut", "--forest", File(f"{cli.GRAPH_MAX_N} 0\n"), "--independent", "0",
              "--lambda-prime", "1"], 0),
            (["mu", "--family", File(f"{cli.GRAPH_MAX_N} 0\n", "omega:"), "--n", "1",
              "--prefix-size", "10"], 0),
            (["mfmc", "--graph", File(f"{cli.MFMC_MAX_VERTICES // 2} "
                                      f"{cli.MFMC_MAX_VERTICES // 2} 0\n"),
              "--r", "1", "--s", "1"], 0),
            (["adversary", "--s", "1", "--r", "1", "--n", str(cli.ADVERSARY_MAX_N),
              "--g", "linear:5"], 1)]:
        assert run(with_files(argv, tmp_path) + ["--out", out]) == code
        assert "at most" not in capsys.readouterr().err


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=" \t\n\r\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029\xa0ab1", max_size=12))
def test_first_line_is_the_first_nonblank_of_splitlines(text):
    from ramseydensity.cli import _first_line
    want = next(((k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()),
                (0, ""))
    assert _first_line(text) == want


@pytest.mark.parametrize("d,size", [(1, 1), (1, 30), (2, 9), (2, 10), (2, 121), (3, 27),
                                    (3, 28), (4, 2)])
def test_grid_box_counts_the_points_a_grid_prefix_builds(d, size):
    from ramseydensity.families import Grid, grid_box
    grid = Grid(d)
    for v in range(size):
        grid.neighbors(v)
    assert len(grid._coords) == grid_box(d, size)


@pytest.mark.parametrize("spec", ["modular:1", "modular:", "modular:x", "modular: 3"])
def test_modulus_error_names_the_coloring(spec, capsys):
    assert run(["shade", "--coloring", spec, "--n", "10", "--a", "2"]) == 1
    assert f"error: --coloring {spec}: the modulus must be" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["linear:nan", "linear:inf", "sigma:nan", "sigma:1:abc",
                                  "linear:", File("0 0\n1 1 5\n")], ids=str)
def test_non_finite_g_names_the_spec(spec, tmp_path, capsys):
    row = ""
    if isinstance(spec, File):
        path = tmp_path / "g.txt"
        path.write_text(spec.text)
        spec, row = f"file:{path}", "row 2 '1 1 5': "
    assert run(["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", spec]) == 1
    assert f"error: --g {spec}: {row}" in capsys.readouterr().err


def test_g_file_rows_break_where_splitlines_breaks(tmp_path):
    # a form feed separates two rows, as it does in a coloring or graph file
    path = tmp_path / "g.txt"
    out = []
    for text in ("0 0\f1 0.5\n", "0 0\n1 0.5\n"):
        path.write_text(text)
        out.append(tmp_path / f"adv{len(out)}.json")
        assert run(["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", f"file:{path}",
                    "--out", str(out[-1])]) == 0
    assert out[0].read_bytes() == out[1].read_bytes()


@pytest.mark.parametrize("header", ["3 explicit\nRRB\n", "6 modular:3\n"])
def test_findflow_rejects_a_file_without_vertex_colors_before_parsing_it(
        header, tmp_path, monkeypatch, capsys):
    from ramseydensity import colorings

    def unreachable(*args):
        raise AssertionError("parsed a coloring findflow cannot use")

    monkeypatch.setattr(colorings.TwoColoring, "from_text", unreachable)
    coloring = tmp_path / "c.txt"
    coloring.write_text(header)
    assert run(["findflow", "--coloring", str(coloring), "--r", "1", "--s", "1"]) == 1
    assert capsys.readouterr().err == "error: findflow needs vertex colors\n"


def test_seed_variable_overrides_the_seed_option(tmp_path, monkeypatch):
    argv = ["shade", "--coloring", "modular:3", "--n", "60", "--a", "3"]
    flag, env = tmp_path / "flag.json", tmp_path / "env.json"
    monkeypatch.delenv("RDL_SEED", raising=False)
    assert run(argv + ["--seed", "5", "--out", str(flag)]) == 0
    monkeypatch.setenv("RDL_SEED", "5")
    assert run(argv + ["--seed", "1", "--out", str(env)]) == 0
    assert env.read_bytes() == flag.read_bytes()


@pytest.mark.parametrize("argv,message", [
    (["shade", "--coloring", File("R" * 1830 + "\n"), "--a", "2"],
     f"header '{'R' * 60}...': expected '<n> <rule>', got 1 fields"),
    (["mfmc", "--graph", File("2 2 1\n" + "0 " * 200 + "\n"), "--r", "1", "--s", "1"],
     f"line 2 '{'0 ' * 30}...': expected 'i j', got 200 fields"),
    (["treecut", "--forest", File("3 1\n0 " + "1" * 100 + "\n"), "--independent", "0",
      "--lambda-prime", "1"],
     f"line 2 '0 {'1' * 58}...': expected 'u v' with u != v and 0 <= u, v < 3"),
    (["adversary", "--s", "1", "--r", "1", "--n", "40",
      "--g", File("0 0\n" + "9" * 400 + " 1\n", "file:")],
     f"row 2 '{'9' * 60}...': expected 'x y', {'9' * 60}... is not a finite number"),
], ids=["header", "fields", "range", "number"])
def test_error_lines_cut_a_long_input_line(argv, message, tmp_path, capsys):
    # the line is named and its first 60 characters shown, not all of it
    assert run(with_files(argv, tmp_path)) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("slope", ["5", "-5", "1.001"])
def test_steep_linear_g_names_the_spec(slope, capsys):
    assert run(["adversary", "--s", "1", "--r", "1", "--n", "40", "--g", f"linear:{slope}"]) == 1
    assert (capsys.readouterr().err
            == f"error: --g linear:{slope}: the slope must lie in [-1, 1]\n")


@pytest.mark.parametrize("text,message", [
    ("2 2 2\n0 0\n\n0 0\n", "line 4 '0 0': repeats the edge on line 2"),
    ("2 2\n", "line 1 '2 2': expected 'nx ny m', got 2 fields"),
    ("2 2 1\n0 0 0\n", "line 2 '0 0 0': expected 'i j', got 3 fields"),
    ("2 2 2\n0 0 1\n1\n", "line 2 '0 0 1': expected 'i j', got 3 fields"),
    ("2 2 1\n0 x\n", "line 2 '0 x': expected 'i j', invalid literal"),
    ("2 2 1\n0 2\n", "line 2 '0 2': expected 'i j' with 0 <= i < 2 and 0 <= j < 2"),
    ("2 2 1\n-1 0\n", "line 2 '-1 0': expected 'i j' with 0 <= i < 2"),
    ("2 2 1\n2 0\n", "line 2 '2 0': expected 'i j' with 0 <= i < 2"),
    # the bound comes before the row count
    ("50000 50000 5\n", "nx + ny = 100000 is too large: at most 10000"),
])
def test_mfmc_input_error_names_the_line_and_its_shape(text, message, tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    assert run(["mfmc", "--graph", str(graph), "--r", "1", "--s", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("kind", ["treecut", "omega", "explicit"])
@pytest.mark.parametrize("text,message", BAD_GRAPHS)
def test_graph_file_error_names_the_line_and_its_shape(kind, text, message, tmp_path, capsys):
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    if kind == "treecut":
        argv = ["treecut", "--forest", str(graph), "--independent", "0", "--lambda-prime", "1"]
    else:
        argv = ["mu", "--family", f"{kind}:{graph}", "--n", "1"]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("spec,shape", [("pathpower:", "'pathpower:<k>' with an integer k"),
                                        ("karytree:x", "'karytree:<k>' with an integer k"),
                                        ("grid:1.5", "'grid:<d>' with an integer d"),
                                        ("Grid:-", "'grid:<d>' with an integer d")])
def test_family_error_names_the_spec_and_its_shape(spec, shape, capsys):
    assert run(["mu", "--family", spec, "--n", "2"]) == 1
    assert capsys.readouterr().err == f"error: family {spec!r}: expected {shape}\n"


@pytest.mark.parametrize("kind", ["omega", "explicit"])
@pytest.mark.parametrize("text,n", [(STAR, 1), (STAR, 2), ("5 4\n0 1\n1 2\n2 3\n3 4\n", 2),
                                    ("6 5\n0 1\n0 2\n3 4\n4 5\n3 5\n", 1),
                                    ("3 0\n", 2)])
def test_mu_on_a_graph_file_equals_mu_bruteforce(kind, text, n, tmp_path, capsys):
    from ramseydensity.families import Explicit, FiniteGraph, OmegaFactor, mu_bruteforce
    graph = tmp_path / "g.txt"
    graph.write_text(text)
    family = (OmegaFactor if kind == "omega" else Explicit)(FiniteGraph.from_text(text))
    out = tmp_path / "mu.json"
    assert run(["mu", "--family", f"{kind}:{graph}", "--n", str(n), "--prefix-size", "24",
                "--out", str(out)]) == 0
    want = mu_bruteforce(family, n, 24)
    assert json.loads(out.read_text())["mu"] == want
    assert capsys.readouterr().out == f"{want}\n"


def test_fig1_step_bound_is_checked_before_any_row(monkeypatch, capsys):
    from ramseydensity import lipschitz

    def no_rows(x):
        raise AssertionError("fig1 started its row loop")

    monkeypatch.setattr(lipschitz, "f_closed", no_rows)
    assert run(["fig1", "--step", "1e-12"]) == 1
    assert "error: --step 1e-12 is too small" in capsys.readouterr().err


def test_treecut_size_bound_keeps_a_tiny_delta_that_fits_a_float(tmp_path):
    forest = tmp_path / "path.txt"
    forest.write_text("3 2\n0 1\n1 2\n")
    out = tmp_path / "cut.json"
    assert run(["treecut", "--forest", str(forest), "--independent", "0,2",
                "--lambda-prime", "3", "--delta", "1e-300", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["size_bound"] == "2e+300"


def test_one_parser_serves_every_call_like_a_fresh_one(tmp_path, capsys):
    from ramseydensity import cli
    forest = tmp_path / "forest.txt"
    forest.write_text("4 3\n0 1\n0 2\n0 3\n")
    coloring = tmp_path / "coloring.txt"
    coloring.write_text("6 leftmost\nRBBRBR\n")
    sequence = [
        ["mu", "--family", "karytree:2", "--n", "3", "--prefix-size", "127"],
        ["fig1", "--step", "0.5"],
        ["adversary", "--s", "1", "--r", "0", "--n", "40"],
        ["treecut", "--forest", str(forest), "--independent", "1,2,3",
         "--lambda-prime", "1/2"],
        ["shade", "--coloring", "modular:3", "--n", "30", "--a", "3", "--seed", "4"],
        ["findflow", "--coloring", str(coloring), "--r", "1", "--s", "2"],
        ["f-eval", "--lambda", "2"],
        ["mu", "--family", "pathpower:1", "--n", "2", "--prefix-size", "8"],
    ]

    def outcomes(fresh):
        got = []
        for k, argv in enumerate(sequence):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{fresh}_{k}.out"
            code = main(argv + ["--out", str(out)])
            got.append((code, out.read_text() if out.exists() else None,
                        capsys.readouterr()))
        return got

    cli.build_parser.cache_clear()
    shared = outcomes(False)
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 0, 0, 0, 0]
    assert shared == outcomes(True)


def test_verification_error_exits_2_naming_the_invariant(monkeypatch, capsys):
    from ramseydensity import colorings
    from ramseydensity.errors import VerificationError

    def broken(*args):
        raise VerificationError("phi block 3 mismatch")

    monkeypatch.setattr(colorings, "adversary", broken)
    assert run(["adversary", "--s", "1", "--r", "1", "--n", "40"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "phi block 3 mismatch" in lines[0]


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check may rely on one
    import ast
    import pathlib

    import ramseydensity
    for path in pathlib.Path(ramseydensity.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name} asserts at lines {asserts}"


# Run in a child interpreter: read a JSON list of argv lists on stdin, run
# each through cli.main in-process, and print the interpreter's optimize flag
# with each command's exit code, stdout and stderr, as JSON.
IN_PROCESS_CHILD = """
import contextlib, io, json, sys
from ramseydensity import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"optimize": sys.flags.optimize, "results": results}))
"""


def test_optimized_interpreter_gives_same_exit_codes_and_artifacts(tmp_path):
    import subprocess
    import sys

    import ramseydensity
    src = os.path.dirname(os.path.dirname(ramseydensity.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("RDL_SEED", None)
    forest = tmp_path / "forest.txt"
    forest.write_text("7 6\n0 1\n0 2\n0 3\n4 5\n4 6\n3 4\n")
    coloring = tmp_path / "coloring.txt"
    n = 24
    coloring.write_text(f"{n} explicit\n"
                        + "".join("R" if (v - u) % 2 == 0 else "B"
                                  for u in range(n) for v in range(u + 1, n)) + "\n")
    graph = tmp_path / "graph.txt"
    graph.write_text("4 3 6\n0 0\n0 1\n1 0\n2 1\n2 2\n3 2\n")
    host = tmp_path / "host.txt"
    host.write_text("12 leftmost\nRBBRRBRBBBRR\n")
    commands = {
        "adversary": ["adversary", "--s", "2", "--r", "1", "--n", "300",
                      "--g", "sigma:2:10"],
        "mfmc": ["mfmc", "--graph", str(graph), "--r", "2", "--s", "1"],
        "findflow": ["findflow", "--coloring", str(host), "--r", "3", "--s", "1"],
        "treecut": ["treecut", "--forest", str(forest), "--independent", "1,2,3,5,6",
                    "--lambda-prime", "3/2"],
        "shade": ["shade", "--coloring", str(coloring), "--a", "3", "--min-count", "3"],
        "embed": ["embed", "--host-size", "40", "--copies", "4", "--r", "1", "--s", "2"],
        "mu": ["mu", "--family", "grid:2", "--n", "4", "--prefix-size", "121"],
        "mu-omega": ["mu", "--family", f"omega:{forest}", "--n", "3", "--prefix-size", "21"],
    }
    # one command past each work bound that exit 1 before anything is built
    big = {"coloring": "40000 modular:3\n", "forest": "100000 0\n", "graph": "50000 50000 0\n"}
    for name, text in big.items():
        (tmp_path / f"big-{name}.txt").write_text(text)
    bounded = [
        ["findflow", "--coloring", str(tmp_path / "big-coloring.txt"), "--r", "1", "--s", "1"],
        ["shade", "--coloring", "modular:3", "--n", "20000", "--a", "3"],
        ["shade", "--coloring", "modular:3", "--n", "60", "--a", "65"],
        ["shade", "--coloring", "modular:3", "--n", "60", "--a", "3", "--sample-size", "100000"],
        ["embed", "--copies", "7501", "--r", "1", "--s", "1"],
        ["embed", "--copies", "1", "--r", "142", "--s", "142"],
        ["embed", "--copies", "801", "--host-size", "10000"],
        ["treecut", "--forest", str(tmp_path / "big-forest.txt"), "--independent", "0",
         "--lambda-prime", "1"],
        ["mu", "--family", f"explicit:{tmp_path / 'big-forest.txt'}", "--n", "1"],
        ["mfmc", "--graph", str(tmp_path / "big-graph.txt"), "--r", "1", "--s", "1"],
        ["adversary", "--s", "1", "--r", "1", "--n", "100000"],
    ]

    # one interpreter per flag runs every command in-process
    runs = {}
    for flags in ([], ["-O"]):
        argvs = [[*argv, "--out", str(tmp_path / f"{name}{''.join(flags)}.json")]
                 for name, argv in commands.items()] + bounded
        proc = subprocess.run([sys.executable, *flags, "-c", IN_PROCESS_CHILD],
                              input=json.dumps(argvs), env=env, capture_output=True,
                              text=True, timeout=240)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        child = json.loads(proc.stdout)
        assert child["optimize"] == len(flags)
        runs[tuple(flags)] = child["results"]
    plain, optimized = runs[()], runs[("-O",)]
    for k, name in enumerate(commands):
        results = []
        for flags, got in runs.items():
            doc = json.loads((tmp_path / f"{name}{''.join(flags)}.json").read_text())
            doc.pop("meta")
            results.append((got[k], doc))
        assert results[0] == results[1], name
        assert results[0][0][0] == 0 and results[0][0][2] == "", name
    for k, argv in enumerate(bounded, start=len(commands)):
        assert plain[k] == optimized[k], argv
        code, out, err = plain[k]
        assert code == 1 and out == "" and err.count("\n") == 1, argv
        assert err.startswith("error:") and "is too large: at most" in err, argv

    # the entry point passes main's exit code and error line on, once per flag
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "ramseydensity.cli", *bounded[-1]],
                              env=env, capture_output=True, text=True, timeout=120)
        assert [proc.returncode, proc.stdout, proc.stderr] == plain[-1], flags
