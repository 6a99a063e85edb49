import dataclasses
import math
import random
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest

from ramseydensity.colorings import (
    BLUE, RED, Shading, TwoColoring, a_good_shading, adversary,
    adversary_bound_chain, clique_coloring, density,
    max_embedding_density_bruteforce, verify_adversary, verify_shading)
from ramseydensity.families import Explicit, PathPower, complete_graph
from ramseydensity.lipschitz import GammaParam, PLFunction, sigma_g

ZERO = PLFunction.zero()


def all_red(n, vertex_colors=None):
    return TwoColoring(n, "explicit",
                       red_edges=frozenset((u, v) for u in range(n)
                                           for v in range(u + 1, n)),
                       vertex_colors=vertex_colors)


class TestTwoColoring:
    def test_leftmost_rule(self):
        chi = TwoColoring(4, "leftmost", vertex_colors=("R", "B", "R", "B"))
        assert chi.color(0, 3) == RED
        assert chi.color(1, 2) == BLUE

    @pytest.mark.parametrize("colors", [("R", "B", "R"), ("R", "B", "R", "B", "R"),
                                        ("R", "X", "R", "B"), ("R", "", "RB", "B"),
                                        ("R", None, "R", "B"), ("R", "b", "R", "B")], ids=repr)
    def test_vertex_colors_must_be_n_entries_of_red_and_blue(self, colors):
        # the rule and the message AdversaryInstance has for its colors
        with pytest.raises(ValueError, match="^vertex_colors must be n entries of R/B$"):
            TwoColoring(4, "leftmost", vertex_colors=colors)
        inst = adversary(1, 1, ZERO, 4)
        with pytest.raises(ValueError, match="^vertex_colors must be n entries of R/B$"):
            dataclasses.replace(inst, vertex_colors=colors)

    def test_modular_rule(self):
        chi = clique_coloring(3, 6)
        assert chi.color(0, 2) == RED
        assert chi.color(0, 1) == BLUE

    def test_modular_two_is_all_red(self):
        chi = clique_coloring(2, 6)
        assert all(chi.color(u, v) == RED
                   for u in range(6) for v in range(u + 1, 6))

    def test_serialization_roundtrips(self):
        rng = random.Random(0)
        samples = [
            TwoColoring(5, "leftmost", vertex_colors=tuple(
                rng.choice("RB") for _ in range(5))),
            clique_coloring(4, 9),
            TwoColoring(6, "explicit", red_edges=frozenset(
                (u, v) for u in range(6) for v in range(u + 1, 6)
                if rng.random() < 0.5)),
        ]
        for chi in samples:
            text = chi.to_text()
            back = TwoColoring.from_text(text)
            assert back.n == chi.n
            assert back.to_text() == text  # bit-exact round trip
            for u in range(chi.n):
                for v in range(u + 1, chi.n):
                    assert back.color(u, v) == chi.color(u, v)

    def test_blue_graph_of_modular_is_residue_colorable(self):
        a, n = 4, 12
        chi = clique_coloring(a, n)
        classes = {v: v % (a - 1) for v in range(n)}
        for u in range(n):
            for v in range(u + 1, n):
                if chi.color(u, v) == BLUE:
                    assert classes[u] != classes[v]

    def test_red_graph_of_modular_is_residue_cliques(self):
        a, n = 4, 12
        chi = clique_coloring(a, n)
        for u in range(n):
            for v in range(u + 1, n):
                assert (chi.color(u, v) == RED) == (u % (a - 1) == v % (a - 1))


class TestDensity:
    def test_full_prefix(self):
        assert density(range(10), 10, (10,)).max_ratio == 1

    def test_evens(self):
        n = 200
        rep = density([v for v in range(n) if v % 2 == 0], n, (100, 200))
        assert abs(rep.max_ratio - Fraction(1, 2)) <= Fraction(1, 100)

    def test_residue_class_of_modular(self):
        a, n = 4, 300
        cls = [v for v in range(n) if v % (a - 1) == 0]
        rep = density(cls, n, (n,))
        assert abs(rep.max_ratio - Fraction(1, a - 1)) <= Fraction(1, n)


class TestAdversary:
    def test_flat_g_alternates(self):
        inst = adversary(1, 1, ZERO, 6)
        assert "".join(inst.vertex_colors) == "BRBRBR"

    def test_flat_g_first_blue_index(self):
        inst = adversary(1, 1, ZERO, 6)
        assert inst.beta[:1] == (1,)

    def test_identity_g_all_red(self):
        inst = adversary(1, 1, PLFunction.linear(1.0), 6)
        assert set(inst.vertex_colors) == {RED}

    def test_non_lipschitz_rejected(self):
        # a PLFunction is 1-Lipschitz, so a stand-in with its three fields
        # carries the slope-2 g
        bad = SimpleNamespace(breakpoints=(0.0, 1.0), values=(0.0, 2.0), tail_slope=2.0)
        with pytest.raises(ValueError, match="1-Lipschitz along integers"):
            adversary(1, 1, bad, 8)

    def test_invariants_on_sawtooth_instances(self):
        from ramseydensity.lipschitz import sigma_peak_levels
        for s, r in ((1, 1), (2, 1), (1, 2), (3, 2)):
            lam = s / r
            p = GammaParam.from_lambda(lam)
            n = 500
            periods = next(k for k in range(6, 40)
                           if sigma_peak_levels(p, k)[-2] > 3 * n)
            inst = adversary(s, r, sigma_g(p, periods), n)
            assert verify_adversary(inst) == []
            assert adversary_bound_chain(inst, i_min=10) == []

    def test_phi_blocks(self):
        p = GammaParam.from_lambda(2.0)
        inst = adversary(2, 1, sigma_g(p, 8), 300)
        for j, (a_j, b_j) in enumerate(zip(inst.alpha, inst.beta)):
            if a_j + b_j > inst.n:
                break
            block = set(inst.phi[:a_j + b_j])
            want = set(inst.red_positions[:a_j]) | set(inst.blue_positions[:b_j])
            assert block == want

    def test_permuted_coloring_consistent(self):
        p = GammaParam.from_lambda(2.0)
        inst = adversary(2, 1, sigma_g(p, 6), 40)
        chi = inst.permuted_coloring()
        base = inst.coloring
        for i in range(inst.n):
            for j in range(i + 1, inst.n):
                assert chi.color(i, j) == base.color(inst.phi[i], inst.phi[j])
        assert chi.vertex_colors == tuple(inst.vertex_colors[v] for v in inst.phi)


class TestShading:
    def test_all_red_single_shade(self):
        chi = all_red(20)
        sh = a_good_shading(chi, 2, 3)
        assert set(sh.assignment) == {(RED, 1)}
        assert sh.residual() == []

    def test_tiny_pool_all_residual(self):
        chi = all_red(10)
        sh = a_good_shading(chi, 2, 50)
        assert set(sh.assignment) == {("X", 0)}

    def test_modular_three_shape(self):
        chi = clique_coloring(3, 300)
        sh = a_good_shading(chi, 3, 12)
        assert len(sh.nonempty_shades(RED)) <= 2
        assert len(sh.nonempty_shades(BLUE)) <= 2
        assert len(sh.residual()) <= 12
        # at least two of (R_a u B_{a-1}), (B_a u R_{a-1}), X are empty
        groups = [sh.members(RED, 3) + sh.members(BLUE, 2),
                  sh.members(BLUE, 3) + sh.members(RED, 2),
                  sh.residual()]
        assert sum(1 for grp in groups if not grp) >= 2

    def test_loop_count_bounds_shades(self):
        for a in (2, 3, 4):
            chi = clique_coloring(a, 240)
            sh = a_good_shading(chi, a, 10)
            assert len(sh.nonempty_shades(RED)) <= a - 1 or \
                sh.nonempty_shades(RED)[-1] == a
            assert len(sh.nonempty_shades(RED)) + len(sh.nonempty_shades(BLUE)) \
                <= 2 * a - 2

    def test_verify_all_x_vacuous(self):
        chi = all_red(8)
        sh = Shading(a=2, assignment=tuple([("X", 0)] * 8), min_count=2)
        rep = verify_shading(chi, sh, 5, 2, 0)
        assert rep.passed and rep.samples == 0

    def test_verify_all_red(self):
        chi = all_red(30)
        sh = a_good_shading(chi, 2, 4)
        rep = verify_shading(chi, sh, 20, 3, 0)
        assert rep.passed
        assert rep.min_count_found >= 30 - 3 - 1 - 3  # pool minus sample slack

    def test_verify_catches_corruption(self):
        # all red except a planted blue star at its center; relabeling the
        # center into R_1 starves its red common neighborhoods
        n = 12
        center = 5
        red = {(u, v) for u in range(n) for v in range(u + 1, n)
               if center not in (u, v)}
        chi = TwoColoring(n, "explicit", red_edges=frozenset(red))
        assignment = [((RED, 1)) for _ in range(n)]
        sh = Shading(a=2, assignment=tuple(assignment), min_count=2)
        rep = verify_shading(chi, sh, 40, 3, 1)
        assert not rep.passed


def oracle_embedding_density(chi, pattern, colors=(RED, BLUE)):
    """Permutation-based independent reimplementation of the embedding oracle."""
    best, best_color = Fraction(0), None
    edges = list(pattern.edges)
    for color in colors:
        for img in permutations(range(chi.n), pattern.n):
            if all(chi.color(img[u], img[v]) == color for u, v in edges):
                d = Fraction(pattern.n, max(img) + 1)
                if d > best:
                    best, best_color = d, color
    return best, best_color


class TestEmbeddingOracle:
    def test_all_red_identity(self):
        chi = all_red(6)
        best, color = max_embedding_density_bruteforce(chi, PathPower(1), 6)
        assert best == 1 and color == RED

    def test_triangle_in_modular(self):
        chi = clique_coloring(3, 8)
        best, color = max_embedding_density_bruteforce(
            chi, Explicit(complete_graph(3)), 3)
        assert color == RED
        # triangles live inside residue classes {0,2,4,6} / {1,3,5,7}
        assert best == Fraction(3, 5)
        assert (best, color) == oracle_embedding_density(
            chi, complete_graph(3))

    def test_no_blue_edge_blue_zero(self):
        chi = all_red(5)
        best, color = max_embedding_density_bruteforce(
            chi, PathPower(1), 2, colors=(BLUE,))
        assert best == 0 and color is None

    def test_size_guard(self):
        with pytest.raises(ValueError):
            max_embedding_density_bruteforce(all_red(15), PathPower(1), 3)
