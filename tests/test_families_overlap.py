"""Differential tests of the overlap-mask branch and bound in ``mu_bruteforce``
and of the ``itertools.product`` grid shells.

``families_reference.mu_bruteforce_masks`` is the search that tested every
later pool vertex at every node; the search that reads only the vertices
sharing a neighbor with I, once no other vertex can pass the cut, must return
the same values and raise ``PrefixTooSmallError`` in the same cases.
"""

import itertools
import random

import families_reference as ref
from ramseydensity.families import (Explicit, FiniteGraph, Grid, OmegaFactor,
                                    PrefixTooSmallError, mu_bruteforce, parse_family)

# the (family, prefix, n values) of the mu jobs in perfbench's expansion pass
BENCH_MU = (
    ("karytree:2", 127, (1, 2, 3, 4, 5, 6)), ("karytree:3", 121, (1, 2, 3, 4, 5)),
    ("pathpower:1", 30, (2, 3, 4, 5, 6)), ("pathpower:2", 48, (2, 3, 4, 5, 6)),
    ("pathpower:3", 72, (2, 3, 4, 5)), ("grid:2", 121, (2, 3, 4, 5)),
)


def outcome(fn, *args):
    try:
        return fn(*args)
    except PrefixTooSmallError as exc:
        return PrefixTooSmallError, str(exc)


def test_mu_equals_the_mask_reference_on_the_benchmark_sizes():
    raised = 0
    for spec, prefix, ns in BENCH_MU:
        for size in (prefix, prefix // 4, 7):
            for n in ns:
                want = outcome(ref.mu_bruteforce_masks, parse_family(spec), n, size)
                assert outcome(mu_bruteforce, parse_family(spec), n, size) == want, \
                    (spec, n, size)
                raised += isinstance(want, tuple)
    assert raised >= 10


def with_isolated(rng, n, p):
    """A random graph on n vertices with at least one vertex of degree 0."""
    lonely = rng.randrange(n)
    return FiniteGraph(n, frozenset(
        (i, j) for i, j in itertools.combinations(range(n), 2)
        if lonely not in (i, j) and rng.random() < p))


def test_mu_equals_the_mask_reference_with_degree_0_vertices():
    rng = random.Random(1616)
    counts = {"returned": 0, "raised": 0}
    for trial in range(40):
        graph = with_isolated(rng, rng.randint(1, 9), rng.choice((0.2, 0.5, 0.8)))
        family = OmegaFactor(graph) if trial % 2 else Explicit(graph)
        for n in range(1, 7):
            for size in (graph.n, 2 * graph.n + 1, 4 * graph.n):
                want = outcome(ref.mu_bruteforce_masks, family, n, size)
                assert outcome(mu_bruteforce, family, n, size) == want, (trial, n, size)
                counts["raised" if isinstance(want, tuple) else "returned"] += 1
    assert min(counts.values()) >= 50, counts


def test_shells_equal_the_recursive_reference():
    for d in (1, 2, 3):
        for r in range(6):
            assert Grid(d)._shell(r) == ref.grid_shell(d, r), (d, r)


def test_grid_neighbors_in_any_call_order():
    rng = random.Random(77)
    for d in (1, 2, 3):
        order = [pt for r in range(5) for pt in ref.grid_shell(d, r)]
        index = {pt: v for v, pt in enumerate(order)}
        inside = [v for v, pt in enumerate(order) if max(map(abs, pt)) <= 3]
        grid = Grid(d)
        for v in rng.sample(inside, len(inside)):
            pt = order[v]
            want = {index[pt[:i] + (pt[i] + step,) + pt[i + 1:]]
                    for i in range(d) for step in (-1, 1)}
            assert grid.neighbors(v) == want, (d, v)
            assert grid.coord(v) == pt and grid.index(pt) == v
