"""Golden artifacts of the ``rdl`` commands.

Each ``golden/<name>.json`` or ``golden/<name>.csv`` is an artifact that an
``rdl`` command wrote when run from the ``golden`` directory; its ``meta``
(the ``# config:`` header line of a CSV) records the command and every
option, so an input file such as ``golden/<name>.txt`` is named relative to
that directory.  Rerunning the command there must give the same bytes,
``meta`` (the ``#`` header lines of a CSV) included.  To add a
golden, run the command from ``tests/golden`` with ``--out <name>.json``.
After an intended change of output, rewrite the artifacts with
``PYTHONPATH=src python tests/test_golden.py`` and say so in CHANGES.md.
"""

import json
import os
import pathlib
import sys

import pytest

from ramseydensity.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
ARTIFACTS = sorted([*GOLDEN.glob("*.json"), *GOLDEN.glob("*.csv")])
FLAG = {"lam": "--lambda", "lam_prime": "--lambda-prime"}


def config_of(artifact):
    """The ``meta.config`` an artifact records (all values are strings)."""
    text = artifact.read_text()
    if artifact.suffix == ".csv":
        line = next(ln for ln in text.splitlines() if ln.startswith("# config: "))
        return json.loads(line[len("# config: "):])
    return json.loads(text)["meta"]["config"]


def argv_of(artifact):
    """The ``rdl`` command line that ``artifact`` records, without --out."""
    config = config_of(artifact)
    argv = [config["command"]]
    for key, value in config.items():
        if key != "command":
            argv += [FLAG.get(key, "--" + key.replace("_", "-")), value]
    return argv


def rerun(artifact, out=None):
    """Run the command recorded in ``artifact`` from the golden directory,
    writing ``out`` (an absolute path), or stdout when it is None."""
    argv = argv_of(artifact)
    if out is not None:
        argv += ["--out", str(out)]
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        code = main(argv)
    finally:
        os.chdir(cwd)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")


def without_meta(artifact_text, suffix):
    if suffix == ".csv":
        return [ln for ln in artifact_text.splitlines() if not ln.startswith("#")]
    doc = json.loads(artifact_text)
    doc["meta"] = "masked"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda p: p.stem)
def test_artifact_matches_golden(artifact, tmp_path, monkeypatch):
    monkeypatch.delenv("RDL_SEED", raising=False)
    out = tmp_path / artifact.name
    rerun(artifact, out)
    assert (without_meta(out.read_text(), artifact.suffix)
            == without_meta(artifact.read_text(), artifact.suffix))
    # the same configuration and seed give the same file, meta included
    assert out.read_bytes() == artifact.read_bytes()


@pytest.mark.parametrize("artifact", ARTIFACTS, ids=lambda p: p.stem)
def test_stdout_without_out_equals_the_written_artifact(artifact, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.delenv("RDL_SEED", raising=False)
    out = tmp_path / artifact.name
    rerun(artifact, out)
    capsys.readouterr()
    rerun(artifact)
    written = out.read_text()
    if artifact.suffix == ".json" and config_of(artifact)["command"] == "mu":
        written += f"{json.loads(written)['mu']}\n"  # rdl mu also prints its value
    assert capsys.readouterr().out == written


def test_goldens_present():
    commands = [config_of(p)["command"] for p in ARTIFACTS]
    minimum = {"findflow": 7, "mfmc": 4, "fig1": 1, "adversary": 6, "shade": 3,
               "mu": 4, "embed": 1, "treecut": 1, "f-eval": 1}
    assert {c: min(commands.count(c), k) for c, k in minimum.items()} == minimum
    shaded = {config_of(p)["coloring"] for p in ARTIFACTS
              if config_of(p)["command"] == "shade"}
    assert "modular:3" in shaded
    rules = {(GOLDEN / name).read_text().split()[1] for name in shaded - {"modular:3"}}
    assert rules >= {"explicit", "leftmost"}
    inputs = [v.removeprefix("file:") for p in ARTIFACTS for v in config_of(p).values()
              if v.endswith(".txt")]
    assert all((GOLDEN / name).exists() for name in inputs)


if __name__ == "__main__":
    for path in ARTIFACTS:
        rerun(path, path.resolve())
        print(f"rewrote {path}", file=sys.stderr)
