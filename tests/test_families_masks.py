"""Differential tests of the bitmask independent-set enumerators.

``families_reference`` keeps ``mu_bruteforce``, ``_independent_sets``,
``min_expansion`` and ``doubly_independent_sets`` as they were when N(I) was
a Python set; the mask code must return the same values and raise
``PrefixTooSmallError`` in the same cases.
"""

import random

import pytest

import families_reference as ref
from ramseydensity import families
from ramseydensity.families import (Explicit, FiniteGraph, Grid, KAryTree, OmegaFactor,
                                    PathPower, PrefixTooSmallError, mu_bruteforce)


def random_graph(rng, n, p):
    return FiniteGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                                    if rng.random() < p))


def outcome(fn, *args):
    try:
        return fn(*args)
    except PrefixTooSmallError:
        return PrefixTooSmallError


def mu_cases():
    """(label, family, n values, prefixes)."""
    cases = [(f"pathpower:{k}", PathPower(k), range(1, 6), (10, 18)) for k in (1, 2, 3)]
    cases += [("karytree:2", KAryTree(2), range(1, 5), (7, 15, 31)),
              ("karytree:3", KAryTree(3), range(1, 4), (4, 13, 40)),
              ("grid:2", Grid(2), range(1, 5), (9, 25, 49))]
    rng = random.Random(606)
    for trial in range(6):
        factor = random_graph(rng, rng.randint(1, 5), 0.5)
        cases.append((f"omega:{trial}", OmegaFactor(factor), range(1, 5),
                      (2 * factor.n, 5 * factor.n)))
    for trial in range(6):
        graph = random_graph(rng, rng.randint(4, 10), rng.choice((0.2, 0.4)))
        cases.append((f"explicit:{trial}", Explicit(graph), range(1, 6),
                      (graph.n // 2, graph.n)))
    return cases


MU_CASES = mu_cases()


@pytest.mark.parametrize("label,family,ns,prefixes", MU_CASES, ids=[c[0] for c in MU_CASES])
def test_mu_equals_the_set_based_reference(label, family, ns, prefixes):
    raised = returned = 0
    for prefix in prefixes:
        for n in ns:
            want = outcome(ref.mu_bruteforce, family, n, prefix)
            assert outcome(mu_bruteforce, family, n, prefix) == want, (n, prefix)
            raised += want is PrefixTooSmallError
            returned += want is not PrefixTooSmallError
    assert returned
    if label.startswith(("karytree", "grid", "explicit")):
        assert raised


def test_mu_upper_bound_below_the_exact_prefix():
    assert mu_bruteforce(KAryTree(2), 6, 63) == ref.mu_bruteforce(KAryTree(2), 6, 63) == 13


def test_enumerators_equal_the_set_based_reference():
    rng = random.Random(2718)
    doubly_found = 0
    for trial in range(320):
        F = random_graph(rng, 1 + trial % 10, rng.choice((0.1, 0.3, 0.5, 0.8)))
        masks = [sum(1 << w for w in nb) for nb in F.adjacency()]
        pairs = families._independent_sets(masks)
        assert [I for I, _ in pairs] == ref._independent_sets(F)
        for I, nbhd in pairs:
            assert {w for w in range(F.n) if nbhd >> w & 1} == F.neighborhood(I)
        assert families.min_expansion(F) == ref.min_expansion(F)
        doubly = families.doubly_independent_sets(F)
        assert doubly == ref.doubly_independent_sets(F)
        doubly_found += len(doubly) < len(pairs)
    # some sets are independent without being doubly independent
    assert doubly_found > 100
