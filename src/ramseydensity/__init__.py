"""Density bounds, extremal colorings and embedding algorithms for
monochromatic subgraphs of the infinite complete graph, validated at desk
scale by brute-force oracles and closed-form constants."""

__version__ = "0.1.0"

from .errors import VerificationError
from .lipschitz import (PLFunction, GammaParam, FBounds, gamma_crossing,
                        ell_crossing, f_closed, f_from_h, h_upper_and_f,
                        sigma_g, sigma_window, sigma_f_value, sup_ratio,
                        canonicalize, remove_extrema, trace, s_good,
                        run_recurrence, recurrence_discriminant, rotate)
from .families import (FiniteGraph, PathPower, KAryTree, Grid, OmegaFactor,
                       Explicit, ExplicitForest, mu_bruteforce, min_expansion,
                       doubly_independent_sets, expansion_ratio, treecut,
                       default_treecut_delta)
from .colorings import (TwoColoring, AdversaryInstance, Shading, DensityReport,
                        adversary, clique_coloring, density, a_good_shading,
                        verify_shading, verify_adversary, adversary_bound_chain,
                        max_embedding_density_bruteforce, RED, BLUE)
from .flows import CapacitatedBipartite, FlowCertificate, mfmc, findflow
from .embedder import (WStructure, BipartitePiece, IsolatedVertex, HPrefixSpec,
                       EmbeddingState, build_W, embed, verify_embedding)
