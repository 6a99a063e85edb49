import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramseydensity.families import (
    Explicit, ExplicitForest, FiniteGraph, Grid, KAryTree, OmegaFactor,
    PathPower, PrefixTooSmallError, complete_bipartite, complete_graph,
    components, default_treecut_delta, doubly_independent_sets, expansion_ratio,
    min_expansion, mu_bruteforce, neighborhood, parse_family, path_graph, treecut)
from treecut_reference import is_forest_union_find

STAR12 = complete_bipartite(1, 2)  # center 0, leaves 1 and 2


class TestFiniteGraph:
    def test_roundtrip_serialization(self):
        g = FiniteGraph(4, frozenset({(0, 1), (2, 3), (1, 2)}))
        assert FiniteGraph.from_text(g.to_text()) == g

    @pytest.mark.parametrize("text", ["4 2\n0 1\n1 2\n2 3\n", "4 3\n0 1\n1 2\n"])
    def test_from_text_rejects_a_row_count_other_than_the_header(self, text):
        with pytest.raises(ValueError, match="edge count does not match header"):
            FiniteGraph.from_text(text)

    def test_from_text_reads_rows_in_any_order_and_orientation(self):
        rng = random.Random(4)
        for n in (1, 2, 10, 60):
            edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2}
            rows = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in edges]
            rng.shuffle(rows)
            text = f"\n{n} {len(rows)}\n\n" + "\n".join(rows) + "\n"
            assert FiniteGraph.from_text(text) == FiniteGraph(n, frozenset(edges))

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            FiniteGraph(3, frozenset({(0, 3)}))
        with pytest.raises(ValueError):
            FiniteGraph(3, frozenset({(1, 1)}))

    def test_forest_detection(self):
        assert path_graph(5).is_forest()
        assert not complete_graph(3).is_forest()

    def test_is_forest_matches_union_find(self):
        # random small graphs with cycles, isolated vertices and n = 1
        rng = random.Random(11)
        outcomes = []
        for _ in range(600):
            n = rng.randint(1, 9)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(pairs, rng.randint(0, min(len(pairs), n + 1)))
            g = FiniteGraph(n, frozenset(edges))
            outcomes.append(g.is_forest())
            assert outcomes[-1] == is_forest_union_find(g), sorted(edges)
        assert 100 < sum(outcomes) < 500
        assert FiniteGraph(1, frozenset()).is_forest()
        cycle_and_isolated = FiniteGraph(6, frozenset({(0, 2), (2, 4), (0, 4), (1, 3)}))
        assert not cycle_and_isolated.is_forest()
        assert not is_forest_union_find(cycle_and_isolated)


class TestComponents:
    def test_components_ordering(self):
        h = FiniteGraph(5, frozenset({(0, 1), (3, 4)}))
        comps = components(h.adjacency(), range(h.n))
        assert [sorted(c) for c in comps] == [[0, 1], [2], [3, 4]]

    def test_induced_subgraph_of_dict_adjacency(self):
        # the path 0-1-2-3 without vertex 1, in the order of first vertices
        adj = {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}
        assert components(adj, [3, 0, 2]) == [{2, 3}, {0}]
        assert components(adj, []) == []


class TestPrefixes:
    def test_path_on_three(self):
        g = PathPower(1).prefix(3)
        assert sorted(g.edges) == [(0, 1), (1, 2)]

    def test_binary_tree_depth_two(self):
        g = KAryTree(2).prefix(7)
        assert sorted(g.edges) == [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]

    def test_grid_three_by_three(self):
        g = Grid(2).prefix(9)
        assert len(g.edges) == 12

    def test_prefix_monotone(self):
        families = [PathPower(2), KAryTree(3), Grid(2),
                    OmegaFactor(STAR12), Explicit(complete_graph(5))]
        for fam in families:
            top = 64 if fam.finite_size is None else fam.finite_size
            for n in range(1, top):
                small = fam.prefix(n)
                big = fam.prefix(n + 1)
                induced = {(u, v) for u, v in big.edges if u < n and v < n}
                assert small.edges == frozenset(induced)

    def test_explicit_prefix_capped(self):
        with pytest.raises(ValueError):
            Explicit(complete_graph(3)).prefix(4)

    def test_explicit_forest_requires_acyclic(self):
        with pytest.raises(ValueError):
            ExplicitForest(complete_graph(3))

    def test_parse_family(self):
        assert isinstance(parse_family("karytree:2"), KAryTree)
        assert isinstance(parse_family("grid:3"), Grid)
        with pytest.raises(ValueError):
            parse_family("nope:1")


class TestMuBruteforce:
    def test_binary_tree_pair(self):
        assert mu_bruteforce(KAryTree(2), 2, 31) == 4

    def test_path_triple(self):
        assert mu_bruteforce(PathPower(1), 3, 16) == 3

    def test_star_factor_pair(self):
        # the star is the (r, s) = (2, 1) join family: mu(2) = 1 * ceil(2/2)
        assert mu_bruteforce(OmegaFactor(STAR12), 2, 12) == 1

    def test_tree_formula(self):
        for k in (2, 3):
            prefix = (k ** 5 - 1) // (k - 1)  # complete to depth 4
            for n in range(1, 6):
                assert mu_bruteforce(KAryTree(k), n, prefix) == k * n

    def test_grid_lower_bound(self):
        for n in range(1, 7):
            assert mu_bruteforce(Grid(2), n, 81) >= n

    def test_small_prefix_gives_an_upper_bound(self):
        # prefix 63 holds no optimal boundary-interior 6-set of the binary tree
        small = mu_bruteforce(KAryTree(2), 6, 63)
        exact = mu_bruteforce(KAryTree(2), 6, 127)
        assert small >= exact == 2 * 6

    def test_prefix_too_small(self):
        with pytest.raises(PrefixTooSmallError):
            mu_bruteforce(KAryTree(2), 3, 7)


class TestExpansion:
    def test_min_expansion_bipartite(self):
        assert min_expansion(complete_bipartite(2, 3)) == Fraction(2, 3)

    def test_min_expansion_triangle(self):
        assert min_expansion(complete_graph(3)) == 2

    def test_min_expansion_edge(self):
        assert min_expansion(complete_graph(2)) == 1

    def test_bipartite_at_most_one(self):
        rng = random.Random(4)
        for _ in range(20):
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            edges = {(i, a + j) for i in range(a) for j in range(b)
                     if rng.random() < 0.7}
            for i in range(a):  # keep no isolated side empty of edges
                edges.add((i, a + rng.randrange(b)))
            g = FiniteGraph(a + b, frozenset(edges))
            assert min_expansion(g) <= 1

    def test_doubly_independent_star(self):
        assert (1, 2) in doubly_independent_sets(STAR12)

    def test_doubly_independent_triangle_empty(self):
        assert doubly_independent_sets(complete_graph(3)) == []

    def test_doubly_independent_five_cycle_singletons(self):
        c5 = FiniteGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}))
        sets = doubly_independent_sets(c5)
        assert all((v,) in sets for v in range(5))

    def test_ordering(self):
        sets = doubly_independent_sets(STAR12)
        assert sets == sorted(sets, key=lambda s: (len(s), s))

    def test_expansion_ratio_examples(self):
        assert expansion_ratio(path_graph(3), (0,)) == 1
        assert expansion_ratio(complete_bipartite(2, 3), (0, 1)) == Fraction(3, 2)
        with pytest.raises(ValueError):
            expansion_ratio(complete_graph(3), (0, 1))

    @pytest.mark.parametrize("I", [(-1,), (3,), (0, 7), (-3, 2)])
    def test_expansion_ratio_rejects_vertices_outside_the_graph(self, I):
        # -1 used to read vertex 2's neighbours: expansion_ratio(P3, [-1]) was 1
        with pytest.raises(ValueError, match="outside 0..2"):
            expansion_ratio(path_graph(3), I)

    def test_neighborhood_rejects_vertices_outside_the_adjacency(self):
        adj = path_graph(4).adjacency()
        assert neighborhood(adj, (1, 3)) == {0, 2}
        with pytest.raises(ValueError, match=r"vertices \[-2, 4\] lie outside 0..3"):
            neighborhood(adj, (1, -2, 4))

    def test_grid_checkerboard_window(self):
        # checkerboard of a 4x4 block: the enclosing-window count bounds the
        # ratio by (2k+2)^2 / ((2k)^2 / 2) - 1 = 3.5 at k = 2
        grid = Grid(2)
        grid.prefix(81)  # materialize enough shells for ids
        block = [grid.index((i, j)) for i in range(-2, 2) for j in range(-2, 2)
                 if (i + j) % 2 == 1]
        g = grid.prefix(max(block) + 60)
        ratio = expansion_ratio(g, block)
        assert ratio <= Fraction(7, 2)


def random_forest(rng, n):
    edges = set()
    for v in range(1, n):
        if rng.random() < 0.85:
            edges.add((rng.randrange(v), v))
    return FiniteGraph(n, frozenset(edges))


def random_independent_subset(rng, g):
    picked = []
    taken = set()
    for v in rng.sample(range(g.n), g.n):
        if v not in taken:
            picked.append(v)
            taken.add(v)
            taken |= g.neighbors(v)
    k = rng.randint(1, len(picked))
    return sorted(rng.sample(picked, k))


class TestTreecut:
    def test_star_leaves(self):
        star = complete_bipartite(1, 3)
        lam, lamp = Fraction(1, 3), Fraction(1, 2)
        delta = default_treecut_delta(lam, lamp)
        out = treecut(star, (1, 2, 3), lam, lamp, delta)
        assert 1 <= len(out) <= 2 / delta
        assert len(star.neighborhood(out)) <= lamp * len(out)

    def test_path_odd_vertices(self):
        g = path_graph(5)
        lam, lamp = Fraction(2, 3), Fraction(1)
        delta = default_treecut_delta(lam, lamp)
        out = treecut(g, (0, 2, 4), lam, lamp, delta)
        assert len(g.neighborhood(out)) <= lamp * len(out)

    def test_single_edge_identity(self):
        g = path_graph(2)
        out = treecut(g, (0,), Fraction(1), Fraction(3, 2),
                      default_treecut_delta(Fraction(1), Fraction(3, 2)))
        assert out == (0,)

    def test_inadmissible_delta_rejected(self):
        star = complete_bipartite(1, 3)
        with pytest.raises(ValueError):
            treecut(star, (1, 2, 3), Fraction(1, 3), Fraction(1, 2), Fraction(1, 4))

    @pytest.mark.parametrize("delta", [0, Fraction(-1, 4), -1])
    def test_nonpositive_delta_rejected(self, delta):
        star = complete_bipartite(1, 3)
        with pytest.raises(ValueError, match="delta must be positive"):
            treecut(star, (1, 2, 3), Fraction(1, 3), Fraction(1, 2), delta)

    @pytest.mark.parametrize("I", [(-1,), (4,), (1, 9)])
    def test_independent_set_outside_the_forest_rejected(self, I):
        star = complete_bipartite(1, 3)
        with pytest.raises(ValueError, match="outside 0..3"):
            treecut(star, I, Fraction(1), Fraction(2), Fraction(1, 100))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            treecut(complete_graph(3), (0,), Fraction(2), Fraction(3),
                    Fraction(1, 100))

    def test_default_delta_always_admissible(self):
        rng = random.Random(1)
        for _ in range(200):
            lam = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            lamp = lam + Fraction(rng.randint(1, 9), rng.randint(1, 5))
            delta = default_treecut_delta(lam, lamp)
            assert 2 * delta * (1 + lam) < 1
            assert delta + lam / (1 - 2 * delta * (1 + lam)) < lamp

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_postconditions_on_random_forests(self, seed):
        rng = random.Random(seed)
        g = random_forest(rng, rng.randint(2, 40))
        I = random_independent_subset(rng, g)
        lam = Fraction(len(g.neighborhood(I)), len(I))
        lamp = lam + Fraction(rng.randint(1, 4), 4)
        delta = default_treecut_delta(lam, lamp)
        out = treecut(g, I, lam, lamp, delta)
        assert set(out) <= set(I)
        assert len(out) >= 1
        assert len(out) <= 2 / delta
        assert len(g.neighborhood(out)) <= lamp * len(out)

    def test_feasibility_cross_check_small(self):
        # on small forests, brute force confirms a feasible subset exists and
        # the procedure's output is among the feasible ones
        rng = random.Random(5)
        from itertools import combinations
        for _ in range(40):
            g = random_forest(rng, rng.randint(2, 14))
            I = random_independent_subset(rng, g)
            lam = Fraction(len(g.neighborhood(I)), len(I))
            lamp = lam + Fraction(1, 2)
            delta = default_treecut_delta(lam, lamp)
            out = treecut(g, I, lam, lamp, delta)
            feasible = set()
            for k in range(1, len(I) + 1):
                if k > 2 / delta:
                    break
                for sub in combinations(I, k):
                    if len(g.neighborhood(sub)) <= lamp * len(sub):
                        feasible.add(tuple(sorted(sub)))
            assert feasible, "brute force found no feasible subset"
            assert tuple(out) in feasible
