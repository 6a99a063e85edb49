"""A seeded fuzzer over the ``rdl`` command line.

Each case starts from the command a golden artifact records
(``test_golden.config_of``), run in a directory that holds copies of the
golden input files.  It mutates one or two input files (``mutations``) or
option values (0, -1, a value past the option's work bound, or 1000 or
10**6 where it has none, nan, inf, 1e400, 1/2, x and the empty string),
runs ``cli.main`` in-process and
checks the exit-code contract: the code is 0, 1 or 2 and no exception
escapes; exit 1 prints exactly one stderr line, starting ``error:`` and
shorter than 400 characters, and nothing on stdout; an artifact written on
exit 0 parses as JSON or CSV.

The seed is fixed and each case draws from its own generator, so a failing
case reruns alone by its index.  No value is drawn exactly at a work bound,
where a run can take over a second.  ``rdl mu``'s search is exponential in
``--n``: its goldens have n at most 6, and the values drawn for it are
below 1 or past its bound, where it exits before searching.
"""

import csv
import json
import random
import shutil
import time

from mutations import mutate
from ramseydensity import cli
from test_golden import ARTIFACTS, FLAG, GOLDEN, config_of

SEED = 5
CASES = 3000
BUDGET_S = 4.0
MAX_ERROR_LINE = 400  # an error names a bad line, it does not echo all of it
FILE_OPTIONS = ("coloring", "graph", "forest", "g", "family")
VALUES = ["0", "-1", "past", "nan", "inf", "1e400", "1/2", "x", ""]
# (command, option): a value just past the option's work bound
PAST = {
    ("adversary", "n"): cli.ADVERSARY_MAX_N + 1,
    ("mu", "n"): cli.MU_MAX_N + 1,
    ("mu", "prefix_size"): cli.MU_MAX_PREFIX + 1,
    ("shade", "n"): cli.COLORING_MAX_N + 1,
    ("shade", "a"): cli.SHADE_MAX_A + 1,
    ("shade", "sample_size"): cli.SHADE_MAX_SAMPLE_WORK + 1,
    ("embed", "host_size"): cli.EMBED_MAX_HOST + 1,
    ("embed", "copies"): cli.EMBED_MAX_PATTERN_VERTICES + 1,
    ("embed", "r"): cli.EMBED_MAX_PATTERN_EDGES + 1,
    ("embed", "s"): cli.EMBED_MAX_PATTERN_EDGES + 1,
    ("fig1", "step"): 3 / cli.FIG1_MAX_STEPS / 2,
}


def input_file(value):
    """The golden input file that an option value such as 'file:<name>'
    names, or None."""
    name = value.rpartition(":")[2]
    return name if name and (GOLDEN / name).is_file() else None


def mutated_value(rng, command, option, value):
    """A mutation of one option value; a spec such as 'sigma:2:8' may keep
    its head and have only its last part replaced."""
    new = rng.choice(VALUES)
    if new == "past":
        new = str(PAST.get((command, option), rng.choice(["1000", "1000000"])))
    if ":" in value and rng.random() < 0.5 and not input_file(value):
        return value.rpartition(":")[0] + ":" + new
    return new


def case_argv(case, tmp_path):
    """The argv and --out path of one seeded case, and the names of the
    input files it mutates in tmp_path."""
    rng = random.Random(SEED * 100003 + case)
    artifact = rng.choice(ARTIFACTS)
    config = config_of(artifact)
    command = config.pop("command")
    mutated = set()
    for _ in range(rng.choice([1, 1, 2])):
        option = rng.choice(sorted(config))
        name = input_file(config[option]) if option in FILE_OPTIONS else None
        if name:
            path = tmp_path / name
            # a cut at a random byte may split a UTF-8 sequence, and a second
            # mutation of the same file in this case reads those bytes back
            text = path.read_bytes().decode(errors="surrogateescape")
            data = mutate(rng, text, wild=True).encode(errors="surrogateescape")
            path.write_bytes(data[:rng.randrange(len(data) + 1)] if rng.random() < 0.1 else data)
            mutated.add(name)
        else:
            config[option] = mutated_value(rng, command, option, config[option])
    argv = [command]
    for option, value in config.items():
        argv += [FLAG.get(option, "--" + option.replace("_", "-")), value]
    out = tmp_path / ("out" + artifact.suffix)
    return argv + ["--out", str(out)], out, mutated


def check(argv, out, code, captured):
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, captured.err)
        assert len(lines[0]) < MAX_ERROR_LINE, (argv, captured.err)
        assert captured.out == "", (argv, captured.out)
    if code == 0:
        text = out.read_text(encoding="utf-8")
        if out.suffix == ".json":
            json.loads(text)
        else:
            rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
            assert rows and len(set(map(len, rows))) == 1, (argv, text)


def test_cli_keeps_its_exit_code_contract_on_mutated_golden_commands(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.delenv("RDL_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    for path in GOLDEN.glob("*.txt"):
        shutil.copy(path, tmp_path)
    start = time.perf_counter()
    codes = []
    for case in range(CASES):
        # the budget ends the loop only once every exit code has appeared
        if time.perf_counter() - start > BUDGET_S and {0, 1, 2} <= set(codes):
            break
        argv, out, mutated = case_argv(case, tmp_path)
        try:
            code = cli.main(argv)
        except Exception as exc:
            raise AssertionError(f"case {case}: {argv} raised {exc!r}") from exc
        check(argv, out, code, capsys.readouterr())
        codes.append(code)
        out.unlink(missing_ok=True)
        for name in mutated:
            shutil.copy(GOLDEN / name, tmp_path)
    assert {0, 1, 2} <= set(codes)
