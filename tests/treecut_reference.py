"""Reference copy of the iterative treecut and the union-find forest test.

This is ``families.treecut`` as it was before the one-pass rewrite: after
every single cut it recomputes the components, the live descendant counts and
an O(cands^2) minimality test, and it has its own component and piece
searches.  ``is_forest_union_find`` is ``FiniteGraph.is_forest`` as it was
before it counted components.  Both are kept only as oracles for the
differential tests.

``treecut`` returns ``(I_prime, big)`` where ``big`` records which branch
produced the output: True when the chosen component had more than 2/delta
I-vertices and was split at its deleted J-vertex.
"""

from __future__ import annotations

from fractions import Fraction

from ramseydensity.errors import VerificationError


def is_forest_union_find(graph):
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def treecut(forest, I, lam, lam_prime, delta):
    lam, lam_prime, delta = Fraction(lam), Fraction(lam_prime), Fraction(delta)
    I = sorted(set(I))
    if not I:
        raise ValueError("I must be nonempty")
    if not is_forest_union_find(forest):
        raise ValueError("input graph is not acyclic")
    if not forest.is_independent(I):
        raise ValueError("I is not independent")
    J = forest.neighborhood(I)
    if len(J) > lam * len(I):
        raise ValueError(f"|N(I)| <= lam*|I| fails: {len(J)} > {lam} * {len(I)}")
    if 2 * delta * (1 + lam) >= 1:
        raise ValueError(f"delta too large: 2*delta*(1+lam) = {2 * delta * (1 + lam)} >= 1")
    lam_dd = lam / (1 - 2 * delta * (1 + lam))
    if delta + lam_dd >= lam_prime:
        raise ValueError(
            f"delta too large: delta + lam/(1-2*delta*(1+lam)) = {delta + lam_dd} >= {lam_prime}")

    iset = set(I)
    jset = set(J)
    verts = sorted(iset | jset)
    adj = {v: set() for v in verts}
    full_adj = forest.adjacency()
    for v in iset:
        for w in full_adj[v] & jset:
            adj[v].add(w)
            adj[w].add(v)

    parent = {}
    order = []
    seen = set()
    for root in I:
        if root in seen:
            continue
        stack = [root]
        parent[root] = None
        seen.add(root)
        while stack:
            v = stack.pop()
            order.append(v)
            for w in sorted(adj[v]):
                if w not in seen:
                    seen.add(w)
                    parent[w] = v
                    stack.append(w)
    if set(order) != set(verts):
        raise VerificationError("treecut: rooting missed vertices of the I-N(I) forest")

    threshold = 1 / delta

    def components(removed):
        comp_of = {}
        comps = []
        for v in verts:
            if v in removed or v in comp_of:
                continue
            comp = set()
            stack = [v]
            comp_of[v] = len(comps)
            while stack:
                u = stack.pop()
                comp.add(u)
                for w in adj[u]:
                    if w not in removed and w not in comp_of:
                        comp_of[w] = len(comps)
                        stack.append(w)
            comps.append(comp)
        return comps

    def descendant_counts(removed):
        count = {v: 0 for v in verts if v not in removed}
        for v in reversed(order):
            if v in removed:
                continue
            p = parent[v]
            if p is not None and p not in removed:
                count[p] += count[v] + 1
        return count

    def is_live_ancestor(a, b, removed):
        p = parent[b]
        while p is not None and p not in removed:
            if p == a:
                return True
            p = parent[p]
        return False

    S = set()
    while True:
        comps = components(S)
        if all(len(c) < threshold for c in comps):
            break
        counts = descendant_counts(S)
        cands = {v for v, c in counts.items() if c >= threshold - 1}
        minimal = [v for v in cands
                   if not any(is_live_ancestor(v, w, S) for w in cands if w != v)]
        S.add(min(minimal))

    X = set(S)
    for v in S & jset:
        if parent[v] is not None:
            X.add(parent[v])

    comps = components(X & iset)
    scored = []
    for comp in comps:
        ci = comp & iset
        cj = comp & jset
        if ci:
            scored.append((Fraction(len(cj), len(ci)), min(comp), ci, cj, comp))
    scored.sort(key=lambda rec: (rec[0], rec[1]))
    ratio, _, ci, cj, comp = scored[0]
    if ratio > lam_dd:
        raise VerificationError("treecut: no component meets the averaged ratio bound")
    M = 2 / delta

    big = len(ci) > M
    if not big:
        i_prime = sorted(ci)
    else:
        inside = comp & X & jset
        if len(inside) != 1:
            raise VerificationError(
                "treecut: big component must contain exactly one deleted J-vertex")
        v = next(iter(inside))
        pieces = []
        seen2 = set()
        for u in sorted(comp - {v}):
            if u in seen2:
                continue
            piece = set()
            stack = [u]
            seen2.add(u)
            while stack:
                w = stack.pop()
                piece.add(w)
                for y in adj[w]:
                    if y in comp and y != v and y not in seen2:
                        seen2.add(y)
                        stack.append(y)
            pi, pj = piece & iset, piece & jset
            key = (0, Fraction(len(pj), len(pi))) if pi else (1, Fraction(0))
            pieces.append((key, min(piece), pi))
        pieces.sort(key=lambda rec: (rec[0], rec[1]))
        i_prime = []
        for _, _, pi in pieces:
            i_prime.extend(sorted(pi))
            if len(i_prime) >= threshold:
                break
        i_prime = sorted(i_prime)

    got = forest.neighborhood(i_prime)
    if len(i_prime) > M:
        raise VerificationError("treecut: output exceeds the size bound")
    if len(got) > lam_prime * len(i_prime):
        raise VerificationError("treecut: output exceeds the expansion bound")
    return tuple(i_prime), big
