"""Density bounds, extremal colorings and embedding algorithms for
monochromatic subgraphs of the infinite complete graph, validated at desk
scale by brute-force oracles and closed-form constants.

The public names below are served lazily (PEP 562): ``ramseydensity.X``
imports X's module on first use, so ``import ramseydensity`` loads no
submodule."""

import importlib

__version__ = "0.1.0"

# name -> the module that defines it
_MODULE_OF = {name: module for module, names in (
    ("errors", "VerificationError"),
    ("lipschitz", "PLFunction GammaParam FBounds gamma_crossing ell_crossing f_closed f_from_h "
                  "h_upper_and_f sigma_g sigma_window sigma_f_value sup_ratio canonicalize "
                  "remove_extrema trace s_good run_recurrence recurrence_discriminant rotate"),
    ("families", "FiniteGraph PathPower KAryTree Grid OmegaFactor Explicit ExplicitForest "
                 "mu_bruteforce min_expansion doubly_independent_sets expansion_ratio treecut "
                 "default_treecut_delta"),
    ("colorings", "TwoColoring AdversaryInstance Shading DensityReport adversary "
                  "clique_coloring density a_good_shading verify_shading verify_adversary "
                  "adversary_bound_chain max_embedding_density_bruteforce RED BLUE"),
    ("flows", "CapacitatedBipartite FlowCertificate mfmc findflow"),
    ("embedder", "WStructure BipartitePiece IsolatedVertex HPrefixSpec EmbeddingState build_W "
                 "embed verify_embedding"),
) for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
