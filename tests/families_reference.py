"""Reference copy of the set-based independent-set enumerators.

These are ``families.mu_bruteforce``, ``_independent_sets``,
``min_expansion`` and ``doubly_independent_sets`` as they were before N(I)
became one bitmask: the branch and bound carries N(I) twice, as ``nbhd`` and
``blocked``, and prunes with a bound loosened by the remaining depth; the
enumerators ask ``FiniteGraph.neighborhood`` (which rebuilds the adjacency)
and ``FiniteGraph.is_independent`` once per set.  Kept only as oracles for
the differential tests.

``mu_bruteforce_masks`` is ``families.mu_bruteforce`` as it was with N(I) as
one bitmask, before the loop read only the candidates that share a neighbor
with I; ``grid_shell(d, r)`` is ``Grid._shell`` as it was before it read
``itertools.product``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ramseydensity.families import FiniteGraph, PrefixTooSmallError


def mu_bruteforce(family, n, prefix_size):
    if n < 1:
        raise ValueError("n must be at least 1")
    if family.finite_size is not None:
        prefix_size = min(prefix_size, family.finite_size)
    nbrs = {v: family.neighbors(v) for v in range(prefix_size)}
    ring = {v for v in range(prefix_size) if any(w >= prefix_size for w in nbrs[v])}
    interior = set(range(prefix_size)) - ring
    pool = sorted(v for v in range(prefix_size) if nbrs[v] <= interior)
    if len(pool) < n:
        raise PrefixTooSmallError(
            f"only {len(pool)} boundary-interior candidates; increase prefix_size")

    best = math.inf
    chosen = []

    def extend(start, depth, nbhd, blocked):
        nonlocal best
        if depth == n:
            if len(nbhd) < best:
                best = len(nbhd)
            return
        for idx in range(start, len(pool) - (n - depth) + 1):
            v = pool[idx]
            if v in blocked:
                continue
            new_nbhd = (nbhd | nbrs[v]) - {v}
            if len(new_nbhd) - (n - depth - 1) >= best:
                continue
            extend(idx + 1, depth + 1, new_nbhd, blocked | nbrs[v])

    extend(0, 0, set(), set())
    if best == math.inf:
        raise PrefixTooSmallError("no independent boundary-interior set of the requested size")
    return int(best)


def _independent_sets(graph):
    adj = graph.adjacency()
    out = []

    def rec(start, current):
        if current:
            out.append(tuple(current))
        for v in range(start, graph.n):
            if all(v not in adj[u] for u in current):
                current.append(v)
                rec(v + 1, current)
                current.pop()

    rec(0, [])
    return out


def min_expansion(F: FiniteGraph):
    if F.n < 1:
        raise ValueError("graph must be nonempty")
    best = None
    for I in _independent_sets(F):
        ratio = Fraction(len(F.neighborhood(I)), len(I))
        if best is None or ratio < best:
            best = ratio
    return best


def doubly_independent_sets(F: FiniteGraph):
    out = [I for I in _independent_sets(F) if F.is_independent(F.neighborhood(I))]
    return sorted(out, key=lambda s: (len(s), s))


def mu_bruteforce_masks(family, n, prefix_size):
    """Minimum |N(I)| over the boundary-interior independent n-sets I of the
    prefix, with N taken in the infinite graph: an upper bound on mu(n), exact
    once the prefix is large enough to hold an optimal set.

    Only boundary-interior candidates are enumerated: I may not contain a
    vertex with a neighbor in the prefix's outermost ring (vertices that have
    neighbors outside the prefix), so the returned optimum's neighborhood is
    provably complete and ring-free.  A prefix too small for every optimal
    set gives a larger value (karytree:2 at n = 6: 13 at prefix 63, the exact
    12 at prefix 127).  Raises PrefixTooSmallError when no candidate exists.

    The search carries N(I) as one bitmask, the union of the chosen vertices'
    neighbor masks; a vertex extends I iff its bit is clear, so adding it only
    adds to N(I), and a branch whose N(I) has best or more vertices is cut.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if family.finite_size is not None:
        prefix_size = min(prefix_size, family.finite_size)
    nbrs = {v: family.neighbors(v) for v in range(prefix_size)}
    ring = {v for v in range(prefix_size) if any(w >= prefix_size for w in nbrs[v])}
    interior = set(range(prefix_size)) - ring
    pool = sorted(v for v in range(prefix_size) if nbrs[v] <= interior)
    if len(pool) < n:
        raise PrefixTooSmallError(
            f"only {len(pool)} boundary-interior candidates; increase prefix_size")
    masks = [sum(1 << w for w in nbrs[v]) for v in pool]

    best = math.inf

    def extend(start, depth, nbhd):
        nonlocal best
        if depth == n:
            best = nbhd.bit_count()  # the cut below passes only masks under best
            return
        for idx in range(start, len(pool) - (n - depth) + 1):
            new = nbhd | masks[idx]
            if not nbhd >> pool[idx] & 1 and new.bit_count() < best:
                extend(idx + 1, depth + 1, new)

    extend(0, 0, 0)
    if best == math.inf:
        raise PrefixTooSmallError("no independent boundary-interior set of the requested size")
    return best


def grid_shell(d, r):
    pts = []

    def rec(prefix):
        if len(prefix) == d:
            if max(abs(c) for c in prefix) == r:
                pts.append(tuple(prefix))
            return
        for c in range(-r, r + 1):
            rec(prefix + [c])

    rec([])
    return sorted(pts)
