"""The one-pass treecut against the iterative reference.

``treecut_reference`` is treecut as it was before the post-order rewrite: it
recomputed components, descendant counts and a minimality test after every
cut.  Outputs and raised errors must be equal for the default delta, smaller
deltas and too-large deltas, at several lam' - lam gaps, on seeded random
recursive forests and on spiders, brooms and unions of spiders.  Only the
spider-like forests reach the big-component branch (the random recursive
ones never did), so the test asserts that branch ran on them.
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
