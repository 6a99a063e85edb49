import random
from fractions import Fraction

import pytest

from ramseydensity.colorings import BLUE, RED, Shading, TwoColoring
from ramseydensity.embedder import (
    BipartitePiece, HPrefixSpec, IsolatedVertex, WStructure, build_W,
    embed, verify_embedding)
from ramseydensity.families import OmegaFactor, complete_bipartite, complete_graph, path_graph


def two_class_host(nl, nu, noise=0.0, seed=0):
    """Lower class blue among itself, everything else red, optional noise on
    within-class edges that the planted structure does not rely on."""
    rng = random.Random(seed)
    n = nl + nu
    red = set()
    for u in range(n):
        for v in range(u + 1, n):
            if u >= nl and v >= nl:       # upper-upper: red
                if rng.random() >= noise:
                    red.add((u, v))
            elif u < nl and v < nl:       # lower-lower: blue, noise makes red
                if rng.random() < noise:
                    red.add((u, v))
            else:                          # cross edges red (the backbone fuel)
                red.add((u, v))
    return TwoColoring(n, "explicit", red_edges=frozenset(red))


def low_shading(nl, n, red_index=1):
    assignment = tuple((BLUE, 1) if v < nl else (RED, red_index)
                       for v in range(n))
    return Shading(a=2, assignment=assignment, min_count=2)


class TestBuildW:
    def test_all_red_isolated_vertices(self):
        n = 10
        chi = TwoColoring(n, "explicit",
                          red_edges=frozenset((u, v) for u in range(n)
                                              for v in range(u + 1, n)))
        sh = Shading(a=2, assignment=tuple([(RED, 1)] * n), min_count=2)
        W = build_W(chi, sh, 1, 1)
        assert W.color == RED
        assert all(isinstance(c, IsolatedVertex) for c in W.components)
        assert W.density_surrogate(n) == 1

    def test_planted_pieces_recovered(self):
        chi = two_class_host(4, 8)
        sh = low_shading(4, 12)
        W = build_W(chi, sh, 2, 1)
        pieces = W.pieces()
        assert W.color == RED
        assert len(pieces) == 2  # four lower vertices feed two X-sides of size 2
        for piece in pieces:
            assert all(v < 4 for v in piece.X)
            assert all(v >= 4 for v in piece.Y)

    def test_no_structure_empty(self):
        n = 6
        chi = TwoColoring(n, "explicit", red_edges=frozenset())  # all blue
        sh = Shading(a=2, assignment=tuple([(BLUE, 1)] * n), min_count=2)
        W = build_W(chi, sh, 1, 1)
        assert W.color == BLUE  # red side has nothing at all
        assert len(W.components) == n

    def test_piece_cap(self):
        chi = two_class_host(6, 12)
        sh = low_shading(6, 18)
        W = build_W(chi, sh, 1, 1, max_pieces=2)
        assert len(W.pieces()) == 2

    def test_piece_wider_than_the_window_is_not_searched(self):
        # every cross edge is red, so any s of the window complete a piece;
        # s past the window used to walk all of its subsets
        from ramseydensity.embedder import _PIECE_WINDOW
        chi = two_class_host(2, 80, noise=0.0)
        sh = low_shading(2, 82)
        assert len(build_W(chi, sh, 1, _PIECE_WINDOW).pieces()) == 1
        assert build_W(chi, sh, 1, _PIECE_WINDOW + 1).pieces() == []


class TestHPrefixSpec:
    def test_omega_factor_bipartite_gets_two_colors(self):
        spec = HPrefixSpec.omega_factor(complete_bipartite(1, 2), 3, (1, 2))
        assert max(spec.psi) == 2
        assert spec.r == 2 and spec.s == 1

    def test_validation_rejects_bad_template(self):
        spec = HPrefixSpec.omega_factor(path_graph(2), 2, (0,))
        with pytest.raises(ValueError, match="template is not independent"):
            HPrefixSpec(family=spec.family, size=spec.size, psi=spec.psi,
                        templates={0: (0, 1)}, r=2, s=1)
        with pytest.raises(ValueError, match="template is not doubly independent"):
            HPrefixSpec(family=OmegaFactor(complete_graph(3)), size=3, psi=(1, 2, 3),
                        templates={0: (0,)}, r=1, s=2)
        spec = HPrefixSpec.omega_factor(complete_bipartite(2, 1), 2, (0, 1))
        with pytest.raises(ValueError, match="template repeats a vertex"):
            HPrefixSpec(family=spec.family, size=spec.size, psi=spec.psi,
                        templates={0: (0, 0, 1)}, r=2, s=1)

    def test_template_sets_hold_sorted_I_and_N_I_by_component(self):
        spec = HPrefixSpec.omega_factor(complete_bipartite(2, 1), 2, (1, 0))
        assert spec.template_sets == ((0, (0, 1), (2,)), (1, (3, 4), (5,)))
        shuffled = HPrefixSpec(family=spec.family, size=spec.size, psi=spec.psi,
                               templates={1: (4, 3), 0: (1, 0)}, r=2, s=1)
        assert shuffled.template_sets == spec.template_sets

    @pytest.mark.parametrize("templates", [{-1: (2,), 1: (2,)}, {5: (0,)}])
    def test_template_keys_must_be_component_ids(self, templates):
        spec = HPrefixSpec.omega_factor(path_graph(2), 2, (0,))
        with pytest.raises(ValueError, match="template key"):
            HPrefixSpec(family=spec.family, size=spec.size, psi=spec.psi,
                        templates=templates, r=1, s=1)

    def test_spec_is_frozen_after_its_check(self):
        spec = HPrefixSpec.omega_factor(path_graph(2), 2, (0,))
        with pytest.raises(TypeError):
            spec.templates[0] = (1,)
        listed = HPrefixSpec(family=spec.family, size=spec.size, psi=list(spec.psi),
                             templates=dict(spec.templates), r=1, s=1)
        assert isinstance(listed.psi, tuple) and listed == spec

    def test_one_prefix_and_one_check_per_spec(self, monkeypatch):
        from ramseydensity import embedder
        from ramseydensity.families import GraphFamily
        calls = {"prefix": 0, "validate": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GraphFamily, "prefix", counted("prefix", GraphFamily.prefix))
        monkeypatch.setattr(embedder.HPrefixSpec, "validate",
                            counted("validate", embedder.HPrefixSpec.validate))
        chi = two_class_host(10, 20)
        sh = low_shading(10, 30)
        spec = HPrefixSpec.omega_factor(complete_bipartite(1, 2), 4, (1, 2))
        W = build_W(chi, sh, spec.r, spec.s, max_pieces=3)
        state = embed(chi, sh, W, spec, budget=300)
        assert verify_embedding(state, chi, spec, W).passed
        assert calls == {"prefix": 1, "validate": 1}


class TestEmbed:
    def test_one_backbone_check_per_embedding(self, monkeypatch):
        from ramseydensity import embedder
        calls = []
        original = embedder.validate_w

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(embedder, "validate_w", counted)
        chi = two_class_host(10, 20)
        sh = low_shading(10, 30)
        spec = HPrefixSpec.omega_factor(complete_bipartite(1, 2), 4, (1, 2))
        W = build_W(chi, sh, spec.r, spec.s, max_pieces=3)
        state = embed(chi, sh, W, spec, budget=300)
        assert verify_embedding(state, chi, spec, W).passed
        assert len(calls) == 1

    def test_trivial_all_red_single_copy_components(self):
        n = 12
        chi = TwoColoring(n, "explicit",
                          red_edges=frozenset((u, v) for u in range(n)
                                              for v in range(u + 1, n)),
                          vertex_colors=tuple([RED] * n))
        sh = Shading(a=2, assignment=tuple([(RED, 1)] * n), min_count=2)
        spec = HPrefixSpec.omega_factor(path_graph(2), 4, (0,))
        W = build_W(chi, sh, 1, 1)
        state = embed(chi, sh, W, spec, budget=100)
        report = verify_embedding(state, chi, spec, W)
        assert not state.incomplete
        assert len(state.phi) == spec.size
        assert report.passed
        assert report.density.max_ratio >= Fraction(spec.size, n)

    def test_budget_zero_empty_state(self):
        chi = two_class_host(4, 8)
        sh = low_shading(4, 12)
        spec = HPrefixSpec.omega_factor(complete_bipartite(1, 2), 2, (1, 2))
        W = build_W(chi, sh, spec.r, spec.s)
        state = embed(chi, sh, W, spec, budget=0)
        assert state.phi == {}
        assert verify_embedding(state, chi, spec, W).passed

    def test_planted_pieces_consumed(self):
        chi = two_class_host(10, 20)
        sh = low_shading(10, 30)
        spec = HPrefixSpec.omega_factor(complete_bipartite(1, 2), 4, (1, 2))
        W = build_W(chi, sh, spec.r, spec.s, max_pieces=3)
        state = embed(chi, sh, W, spec, budget=300)
        report = verify_embedding(state, chi, spec, W)
        assert not state.incomplete
        assert len(state.phi) == spec.size
        assert report.passed
        assert sum(1 for c in state.consumed
                   if isinstance(c, BipartitePiece)) >= 1

    def test_top_shade_component_path(self):
        # red shade index equals a: the out-reachable set machinery runs
        chi = two_class_host(10, 12)
        sh = low_shading(10, 22, red_index=2)
        spec = HPrefixSpec.omega_factor(path_graph(2), 6, (0,))
        W = build_W(chi, sh, spec.r, spec.s, max_pieces=3)
        state = embed(chi, sh, W, spec, budget=300)
        report = verify_embedding(state, chi, spec, W)
        assert not state.incomplete and report.passed
        assert state.t_set_sizes  # the top-shade path was exercised
        H = spec.graph()
        delta = max(len(H.neighbors(v)) for v in range(H.n))
        assert all(t <= max(delta, 2) ** state.a for t in state.t_set_sizes)

    def test_corrupted_image_fails_verification(self):
        chi = two_class_host(10, 20)
        sh = low_shading(10, 30)
        spec = HPrefixSpec.omega_factor(complete_bipartite(1, 2), 4, (1, 2))
        W = build_W(chi, sh, spec.r, spec.s, max_pieces=3)
        state = embed(chi, sh, W, spec, budget=300)
        assert verify_embedding(state, chi, spec, W).passed
        # swap two images so that some pattern edge lands on a blue host edge
        blues = [v for v in range(10)]
        u, v = 0, 1  # pattern edge inside the first copy (leaf-center)
        state.phi[u], state.phi[v] = state.phi[v], state.phi[u]
        # find an actual pattern edge whose image is now wrong, else force one
        H = spec.graph()
        broken = verify_embedding(state, chi, spec, W)
        if broken.passed:
            # remap a center onto a lower-class vertex unused by the image
            free_low = next(x for x in blues if x not in state.phi.values())
            center = next(w for w in range(H.n)
                          if spec.psi[w] == 2 and w in state.phi)
            state.phi[center] = free_low
            broken = verify_embedding(state, chi, spec, W)
        assert not broken.passed

    def test_incomplete_flagged_when_pools_exhausted(self):
        # host too small to embed every copy
        chi = two_class_host(2, 4)
        sh = low_shading(2, 6)
        spec = HPrefixSpec.omega_factor(complete_bipartite(1, 2), 5, (1, 2))
        W = build_W(chi, sh, spec.r, spec.s, max_pieces=1)
        state = embed(chi, sh, W, spec, budget=300)
        assert state.incomplete
        assert verify_embedding(state, chi, spec, W).passed  # partial but valid

