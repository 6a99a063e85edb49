"""What starting ``rdl`` loads, and the package root's lazily served names.

Starting rdl and building its parser loads, of this package, only the root,
``cli`` and ``errors``; each command then loads the library modules it calls
and no others.  Each case runs in a fresh interpreter, since this process
has imported every module long before.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ramseydensity
from test_golden import ARTIFACTS, GOLDEN, argv_of, config_of

# the library modules each command loads, besides the root, cli and errors
LOADED = {
    "f-eval": {"lipschitz"},
    "fig1": {"lipschitz"},
    "mu": {"families"},
    "treecut": {"families"},
    "adversary": {"colorings", "lipschitz"},
    "mfmc": {"flows"},
    "findflow": {"flows", "colorings"},
    "shade": {"colorings"},
    "embed": {"embedder", "colorings", "families"},
}
STARTUP = {"ramseydensity", "ramseydensity.cli", "ramseydensity.errors"}

# Run in a child interpreter: import the cli and build its parser, then run
# the argv in sys.argv[1] (a JSON list, empty for none) and print the names
# of the package's loaded modules as JSON, on the last line of stdout.
CHILD = """
import json, sys
from ramseydensity import cli
cli.build_parser()
argv = json.loads(sys.argv[1])
if argv and cli.main(argv) != 0:
    raise SystemExit(f"{argv} failed")
print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "ramseydensity")))
"""

# one golden command per subcommand: the first golden that records it
GOLDEN_COMMANDS = {}
for artifact in ARTIFACTS:
    GOLDEN_COMMANDS.setdefault(config_of(artifact)["command"], argv_of(artifact))


def loaded_modules(argv, tmp_path):
    src = os.path.dirname(os.path.dirname(ramseydensity.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    env.pop("RDL_SEED", None)
    if argv:
        argv = [*argv, "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], cwd=GOLDEN, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_building_the_parser_loads_only_cli_and_errors(tmp_path):
    assert loaded_modules([], tmp_path) == STARTUP


def test_every_subcommand_has_a_golden_command():
    assert set(GOLDEN_COMMANDS) == set(LOADED)


@pytest.mark.parametrize("command", sorted(LOADED))
def test_a_command_loads_only_the_modules_it_calls(command, tmp_path):
    want = STARTUP | {f"ramseydensity.{module}" for module in LOADED[command]}
    assert loaded_modules(GOLDEN_COMMANDS[command], tmp_path) == want


# every name the package root served when it imported all its modules
ROOT_NAMES = {
    "errors": ["VerificationError"],
    "lipschitz": ["PLFunction", "GammaParam", "FBounds", "gamma_crossing", "ell_crossing",
                  "f_closed", "f_from_h", "h_upper_and_f", "sigma_g", "sigma_window",
                  "sigma_f_value", "sup_ratio", "canonicalize", "remove_extrema", "trace",
                  "s_good", "run_recurrence", "recurrence_discriminant", "rotate"],
    "families": ["FiniteGraph", "PathPower", "KAryTree", "Grid", "OmegaFactor", "Explicit",
                 "ExplicitForest", "mu", "mu_forest", "mu_bruteforce", "min_expansion",
                 "doubly_independent_sets", "expansion_ratio", "treecut",
                 "default_treecut_delta"],
    "colorings": ["TwoColoring", "AdversaryInstance", "Shading", "DensityReport", "adversary",
                  "clique_coloring", "density", "a_good_shading", "verify_shading",
                  "verify_adversary", "adversary_bound_chain",
                  "max_embedding_density_bruteforce", "RED", "BLUE"],
    "flows": ["CapacitatedBipartite", "FlowCertificate", "mfmc", "findflow"],
    "embedder": ["WStructure", "BipartitePiece", "IsolatedVertex", "HPrefixSpec",
                 "EmbeddingState", "build_W", "embed", "verify_embedding"],
}


@pytest.mark.parametrize("module,name", [(module, name) for module, names in ROOT_NAMES.items()
                                         for name in names])
def test_the_root_serves_each_name_of_its_module(module, name):
    namespace = {}
    exec(f"from ramseydensity import {name}", namespace)
    owner = importlib.import_module(f"ramseydensity.{module}")
    assert namespace[name] is getattr(owner, name) is getattr(ramseydensity, name)


def test_the_root_lists_its_names_and_rejects_others():
    listed = set(dir(ramseydensity))
    assert [name for names in ROOT_NAMES.values() for name in names if name not in listed] == []
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        ramseydensity.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        exec("from ramseydensity import nope", {})
