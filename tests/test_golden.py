"""Golden artifacts of the flow layer.

Each ``golden/<name>.txt`` input has the artifact ``golden/<name>.json`` that
``rdl findflow`` or ``rdl mfmc`` wrote for it; the artifact's ``meta``
records the command and its --r, --s and --seed.  Rerunning the command must
give the same bytes outside ``meta``.  After an intended change of output,
rewrite the artifacts with ``PYTHONPATH=src python tests/test_golden.py``
and say so in CHANGES.md.
"""

import json
import os
import pathlib
import sys

import pytest

from ramseydensity.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
INPUT_FLAG = {"findflow": "--coloring", "mfmc": "--graph"}


def rerun(artifact, out):
    """Run the command recorded in ``artifact`` on its input, writing ``out``."""
    config = json.loads(artifact.read_text())["meta"]["config"]
    command = config["command"]
    argv = [command, INPUT_FLAG[command], os.path.relpath(artifact.with_suffix(".txt")),
            "--r", config["r"], "--s", config["s"], "--seed", config["seed"],
            "--out", str(out)]
    if main(argv) != 0:
        raise RuntimeError(f"{' '.join(argv)} failed")


def without_meta(text):
    doc = json.loads(text)
    doc["meta"] = "masked"
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("artifact", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_artifact_matches_golden(artifact, tmp_path, monkeypatch):
    monkeypatch.delenv("RDL_SEED", raising=False)
    out = tmp_path / artifact.name
    rerun(artifact, out)
    assert without_meta(out.read_text()) == without_meta(artifact.read_text())


def test_goldens_present():
    names = {p.stem for p in GOLDEN.glob("*.json")}
    assert sum(name.startswith("findflow_") for name in names) >= 6
    assert sum(name.startswith("mfmc_") for name in names) >= 4
    assert all((GOLDEN / f"{name}.txt").exists() for name in names)


if __name__ == "__main__":
    for path in sorted(GOLDEN.glob("*.json")):
        rerun(path, path)
        print(f"rewrote {path}", file=sys.stderr)
