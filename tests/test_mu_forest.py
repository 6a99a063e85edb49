"""Differential tests of the tree DP for mu on forests.

``families.mu_forest`` and ``families.mu``, the entry point ``rdl mu``
calls, must return what ``mu_bruteforce`` returns and raise
``PrefixTooSmallError`` with the same text in the same cases.  ``mu`` runs
the DP when the edges with an end in the boundary-interior pool form a
forest and the branch and bound otherwise; the closed forms at the end are
at sizes the branch and bound cannot reach.
"""

import json
import random

import pytest

from ramseydensity import families
from ramseydensity.cli import main
from ramseydensity.families import (Explicit, FiniteGraph, Grid, KAryTree, OmegaFactor,
                                    PathPower, PrefixTooSmallError, mu, mu_bruteforce,
                                    mu_forest)

STAR = "4 3\n0 1\n0 2\n0 3\n"
PATH = "4 3\n0 1\n1 2\n2 3\n"
WITH_ISOLATED = "3 1\n0 1\n"


def outcome(fn, *args):
    try:
        return fn(*args)
    except PrefixTooSmallError as exc:
        return f"PrefixTooSmallError: {exc}"


def random_forest(rng, n):
    """A forest on n shuffled vertices: each vertex after the first joins an
    earlier one with probability 3/4."""
    label = list(range(n))
    rng.shuffle(label)
    return FiniteGraph(n, frozenset((label[rng.randrange(v)], label[v]) for v in range(1, n)
                                    if rng.random() < 0.75))


def forest_cases():
    """(label, family, n values, prefixes)."""
    cases = [(f"karytree:{k}", KAryTree(k), range(1, 8), (13, 40, 63, 127)) for k in (2, 3)]
    cases.append(("pathpower:1", PathPower(1), range(1, 13), (2, 5, 12, 27)))
    cases += [(f"omega:{name}", OmegaFactor(FiniteGraph.from_text(text)), range(1, 7),
               (1, 4, 9, 16)) for name, text in (("star", STAR), ("path", PATH),
                                                 ("isolated", WITH_ISOLATED))]
    rng = random.Random(3131)
    for trial in range(40):
        graph = random_forest(rng, rng.randint(1, 12))
        cases.append((f"explicit:{trial}", Explicit(graph), range(1, 7),
                      (max(1, graph.n // 3), graph.n // 2 + 1, graph.n)))
    return cases


FOREST_CASES = forest_cases()


@pytest.mark.parametrize("label,family,ns,prefixes", FOREST_CASES,
                         ids=[c[0] for c in FOREST_CASES])
def test_the_dp_and_the_entry_point_equal_the_branch_and_bound(label, family, ns, prefixes):
    raised = set()
    returned = 0
    for prefix in prefixes:
        for n in ns:
            want = outcome(mu_bruteforce, family, n, prefix)
            assert outcome(mu_forest, family, n, prefix) == want, (n, prefix)
            assert outcome(mu, family, n, prefix) == want, (n, prefix)
            if isinstance(want, str):
                raised.add(want.split()[1])  # "only" or "no"
            else:
                returned += 1
    assert returned
    if label.startswith(("karytree", "pathpower")):
        assert raised == {"only", "no"}  # both texts, at the prefixes too small


def test_the_dp_keeps_the_upper_bound_of_a_small_prefix():
    assert mu_forest(KAryTree(2), 6, 63) == mu(KAryTree(2), 6, 63) == 13
    assert mu_forest(KAryTree(2), 6, 127) == 12


def test_the_dp_refuses_a_cycle_at_the_pool_and_the_entry_point_searches():
    for family, n, prefix, want in ((Grid(2), 3, 49, 8), (PathPower(2), 3, 20, 6)):
        with pytest.raises(ValueError, match="pool hold a cycle"):
            mu_forest(family, n, prefix)
        assert mu(family, n, prefix) == mu_bruteforce(family, n, prefix) == want


def test_the_dp_reads_only_the_edges_at_the_pool():
    # the path 0-1-2-3 into the triangle 3, 4, 5, with 5-6 past the prefix
    # of 6: the pool is {0, 1, 2}, and the triangle has no vertex in it
    graph = FiniteGraph(7, frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)}))
    assert not Explicit(graph).prefix(6).is_forest()
    for n in (1, 2):
        assert mu_forest(Explicit(graph), n, 6) == mu_bruteforce(Explicit(graph), n, 6)


def test_the_entry_point_checks_n_first():
    for fn in (mu, mu_forest):
        with pytest.raises(ValueError, match="n must be at least 1"):
            fn(PathPower(1), 0, 10)


def rdl_mu(family, n, prefix, tmp_path):
    out = tmp_path / "mu.json"
    assert main(["mu", "--family", family, "--n", str(n), "--prefix-size", str(prefix),
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())["mu"]


def test_rdl_mu_runs_the_dp_on_forests_and_the_search_on_cycles(tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("the branch and bound ran on a forest")

    factor = tmp_path / "star.txt"
    factor.write_text(STAR)
    search = families._mu_search
    monkeypatch.setattr(families, "mu_bruteforce", unreachable)
    monkeypatch.setattr(families, "_mu_search", unreachable)
    assert rdl_mu("karytree:2", 3, 127, tmp_path) == 6
    assert rdl_mu("pathpower:1", 5, 30, tmp_path) == 5
    assert rdl_mu(f"omega:{factor}", 2, 8, tmp_path) == 1  # two leaves of one star

    searched = []

    def recorded(nbrs, pool, n):
        searched.append(n)
        return search(nbrs, pool, n)

    monkeypatch.setattr(families, "_mu_search", recorded)
    assert rdl_mu("grid:2", 2, 121, tmp_path) == 6
    assert rdl_mu("pathpower:2", 3, 48, tmp_path) == 6
    assert searched == [2, 3]


@pytest.mark.parametrize("family,n,prefix,want", [
    ("pathpower:1", 24, 51, 24), ("pathpower:1", 48, 99, 48), ("pathpower:1", 64, 131, 64),
    ("karytree:2", 64, 10 ** 4, 128)])
def test_rdl_mu_gives_the_closed_form_where_the_search_cannot_reach(family, n, prefix, want,
                                                                     tmp_path):
    assert rdl_mu(family, n, prefix, tmp_path) == want
