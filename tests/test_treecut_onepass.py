"""The one-pass treecut against the iterative reference.

``treecut_reference`` is treecut as it was before the post-order rewrite: it
recomputed components, descendant counts and a minimality test after every
cut.  Outputs and raised errors must be equal for the default delta, smaller
deltas and too-large deltas, at several lam' - lam gaps, on seeded random
recursive forests and on spiders, brooms and unions of spiders.  Only the
spider-like forests reach the big-component branch (the random recursive
ones never did), so the test asserts that branch ran on them.  The
benchmark's forests (n from 500 to 2000) and forests whose components tie
on |C cap J|/|C cap I| are checked against the reference as well.
"""

import random
from fractions import Fraction

import pytest

import treecut_reference as ref
from ramseydensity.errors import VerificationError
from ramseydensity.families import FiniteGraph, default_treecut_delta, treecut

GAPS = (Fraction(1, 8), Fraction(1, 2), Fraction(1), Fraction(3))
DELTA_SCALES = (Fraction(1), Fraction(1, 2), Fraction(1, 5), Fraction(3))


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return FiniteGraph(n, frozenset((perm[u], perm[v]) for u, v in edges))


def recursive_forest(rng):
    """Each vertex joins a uniform earlier vertex, or starts a new tree."""
    n = rng.randint(2, 60)
    p_root = rng.choice((0.0, 0.05, 0.2))
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() >= p_root]
    return relabel(rng, n, edges)


def spider_edges(start, legs, length):
    """Centre ``start`` with ``legs`` paths of ``length`` vertices each."""
    edges = []
    nxt = start + 1
    for _ in range(legs):
        prev = start
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return edges, nxt


def spider_like(rng):
    """A spider, a broom (a long handle ending in a star) or a union of spiders."""
    kind = rng.choice(("spider", "broom", "union"))
    if kind == "spider":
        edges, n = spider_edges(0, rng.randint(2, 40), rng.randint(1, 3))
    elif kind == "broom":
        handle = rng.randint(1, 12)
        edges = [(v, v + 1) for v in range(handle)]
        star, n = spider_edges(handle, rng.randint(2, 40), 1)
        edges += star
    else:
        edges, n = [], 0
        for _ in range(rng.randint(2, 4)):
            more, n = spider_edges(n, rng.randint(2, 25), rng.randint(1, 3))
            edges += more
    return relabel(rng, n, edges)


def independent_set(rng, g):
    """A random maximal independent set, or a random nonempty part of one."""
    adj = g.adjacency()
    picked, taken = [], set()
    for v in rng.sample(range(g.n), g.n):
        if v not in taken:
            picked.append(v)
            taken |= adj[v] | {v}
    if rng.random() < 0.5:
        picked = rng.sample(picked, rng.randint(1, len(picked)))
    return sorted(picked)


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, VerificationError) as exc:
        return type(exc), str(exc)


def compare(rng, g):
    """Run both treecuts on one forest at every gap and delta scale; return
    how many reference runs took the big-component branch."""
    I = independent_set(rng, g)
    lam = Fraction(len(g.neighborhood(I)), len(I))
    big = 0
    for gap in GAPS:
        lam_prime = lam + gap
        base = default_treecut_delta(lam, lam_prime)
        for scale in DELTA_SCALES:
            delta = base * scale
            want = outcome(ref.treecut, g, I, lam, lam_prime, delta)
            got = outcome(treecut, g, I, lam, lam_prime, delta)
            if isinstance(want[1], bool):
                want, took_big = want
                big += took_big
            assert got == want, (sorted(g.edges), I, lam_prime, delta)
    return big


@pytest.mark.parametrize("seed", range(5))
def test_random_recursive_forests_match_reference(seed):
    rng = random.Random(7100 + seed)
    for _ in range(60):
        compare(rng, recursive_forest(rng))


@pytest.mark.parametrize("seed", range(5))
def test_spiders_and_brooms_match_reference_and_reach_the_big_branch(seed):
    rng = random.Random(8200 + seed)
    big = sum(compare(rng, spider_like(rng)) for _ in range(30))
    assert big > 0


def test_inadmissible_delta_raises_the_same_error():
    g = FiniteGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    args = (g, (1, 2, 3), Fraction(1, 3), Fraction(1, 2), Fraction(1, 4))
    want = outcome(ref.treecut, *args)
    assert want[0] is ValueError
    assert outcome(treecut, *args) == want


def benchmark_forest(rng, n):
    """A forest like the benchmark's: each vertex joins a uniform earlier
    vertex with probability 0.85, and I is a maximal independent set built
    greedily in random order."""
    edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85]
    g = FiniteGraph(n, frozenset(edges))
    adj = g.adjacency()
    picked, taken = [], set()
    for v in rng.sample(range(n), n):
        if v not in taken:
            picked.append(v)
            taken |= adj[v] | {v}
    return g, sorted(picked)


def reference_agrees(g, I):
    """Both treecuts at the benchmark's gap of 1/2 and the default delta."""
    lam = Fraction(len(g.neighborhood(I)), len(I))
    lam_prime = lam + Fraction(1, 2)
    delta = default_treecut_delta(lam, lam_prime)
    want, _ = ref.treecut(g, I, lam, lam_prime, delta)
    got = treecut(g, I, lam, lam_prime, delta)
    assert got == want, (g.n, I, lam_prime, delta)
    return got


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_benchmark_size_forests_match_reference(n):
    rng = random.Random(9300 + n)
    for _ in range(3):
        reference_agrees(*benchmark_forest(rng, n))


@pytest.mark.parametrize("edges,I,want", [
    # stars centred in J: {5; 1, 2} and {0; 3, 4}, both at ratio 1/2; the
    # second is rooted later (at 3) but holds the least vertex, 0
    ({(5, 1), (5, 2), (0, 3), (0, 4)}, (1, 2, 3, 4), (3, 4)),
    # ratio 1/2 against 2/4: {9; 1, 2} and {0; 3, 4, 5} joined at 5 to {6; 5, 7}
    ({(9, 1), (9, 2), (0, 3), (0, 4), (0, 5), (6, 5), (6, 7)}, (1, 2, 3, 4, 5, 7),
     (3, 4, 5, 7)),
])
def test_tied_components_go_to_the_least_vertex(edges, I, want):
    g = FiniteGraph(max(max(e) for e in edges) + 1, frozenset(edges))
    assert reference_agrees(g, I) == want
