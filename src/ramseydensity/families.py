"""Locally finite graph families and independent-set expansion.

Each family generates growing prefixes of an infinite graph under a canonical
vertex order chosen so that prefix(n) is an induced subgraph of prefix(n+1):
path powers by index, k-ary trees in heap (BFS) order, grids by expanding
max-norm boxes around the origin with lexicographic tie-break, and disjoint
unions copy by copy.  On top of the generators sit exact brute-force
computations: the expansion profile mu(n) = min |N(I)| over independent
n-sets, doubly independent set enumeration, exact rational expansion ratios,
and the forest procedure extracting a bounded-size subset of an independent
set with nearly the same expansion.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationError, edge_list_header, edge_list_rows


class PrefixTooSmallError(ValueError):
    """The requested computation cannot be certified inside the given prefix."""


def components(adj, vertices):
    """Connected components of the subgraph induced by ``vertices``, as sets in
    the order of their first vertex; ``adj[v]`` lists the neighbours of v (adj
    may be a list or a dict)."""
    inside = set(vertices)
    seen = set()
    comps = []
    for v in vertices:
        if v in seen:
            continue
        seen.add(v)
        stack = [v]
        comp = set()
        while stack:
            u = stack.pop()
            comp.add(u)
            for w in adj[u]:
                if w in inside and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def _count_components(adj):
    """Number of connected components of the graph on 0..len(adj)-1 whose
    vertex v has neighbours adj[v]."""
    seen = [False] * len(adj)
    count = 0
    for v in range(len(adj)):
        if seen[v]:
            continue
        count += 1
        seen[v] = True
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def _vertex_set(vertices, n):
    """set(vertices), rejecting the vertices outside 0..n-1."""
    vs = set(vertices)
    outside = sorted(v for v in vs if not 0 <= v < n)
    if outside:
        raise ValueError(f"vertices {outside} lie outside 0..{n - 1}")
    return vs


def neighborhood(adj, vertices):
    """N(S): vertices outside S with a neighbor in S; ``adj[v]`` lists the
    neighbors of v, for v in 0..len(adj)-1."""
    vs = _vertex_set(vertices, len(adj))
    out = set()
    for v in vs:
        out.update(adj[v])
    return out - vs


@dataclass(frozen=True)
class FiniteGraph:
    """Simple undirected graph on vertices 0..n-1 with an edge set of sorted pairs."""

    n: int
    edges: frozenset

    def __post_init__(self):
        edges = frozenset((u, v) if u < v else (v, u) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        for u, v in edges:  # u <= v
            if u == v:
                raise ValueError("self-loops are not allowed")
            if u < 0 or v >= self.n:
                raise ValueError("edge endpoint out of range")

    def neighbors(self, v):
        return {b if a == v else a for a, b in self.edges if v in (a, b)}

    def adjacency(self):
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def is_independent(self, vertices):
        vs = set(vertices)
        return all(not (u in vs and v in vs) for u, v in self.edges)

    def neighborhood(self, vertices):
        """N(S): vertices outside S with a neighbor in S, read off the edge set
        in one pass, with no adjacency built."""
        vs = _vertex_set(vertices, self.n)
        return {b if a in vs else a for a, b in self.edges if (a in vs) != (b in vs)}

    def is_forest(self):
        return len(self.edges) == self.n - _count_components(self.adjacency())

    def to_text(self):
        lines = [f"{self.n} {len(self.edges)}"]
        lines += [f"{u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """The graph of an edge-list text: 'n m', then m rows 'u v' with
        u != v and 0 <= u, v < n, no edge twice (u v and v u are one edge);
        blank lines are skipped, and an error names the line it is on."""
        lines = text.splitlines()
        k, (n, m) = edge_list_header(lines, "n m")

        def edge(u, v):
            return (u, v) if 0 <= u < v < n else (v, u) if 0 <= v < u < n else None

        return cls(n, edge_list_rows(lines, k, m, "u v", edge, f"u != v and 0 <= u, v < {n}"))


def complete_graph(n):
    return FiniteGraph(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(a, b):
    return FiniteGraph(a + b, frozenset((i, a + j) for i in range(a) for j in range(b)))


def path_graph(n):
    return FiniteGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


class GraphFamily:
    """Base class: a canonical vertex order plus infinite-graph neighborhoods."""

    finite_size = None  # None means infinite
    degree = 0  # the largest degree of a vertex

    def neighbors(self, v):
        raise NotImplementedError

    def prefix(self, n):
        """Induced subgraph on the first n vertices of the canonical order."""
        if n < 1:
            raise ValueError("n must be at least 1")
        if self.finite_size is not None and n > self.finite_size:
            raise ValueError("prefix larger than the underlying finite graph")
        edges = set()
        for v in range(n):
            for w in self.neighbors(v):
                if w < n:
                    edges.add((min(v, w), max(v, w)))
        return FiniteGraph(n, frozenset(edges))


class PathPower(GraphFamily):
    """Vertices 0, 1, 2, ...; x and y adjacent iff |x - y| <= k."""

    def __init__(self, k):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.degree = 2 * k

    def neighbors(self, v):
        return {w for w in range(max(0, v - self.k), v + self.k + 1) if w != v}


class KAryTree(GraphFamily):
    """Infinite rooted tree where every vertex has k children, in BFS order."""

    def __init__(self, k):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k
        self.degree = k + 1

    def neighbors(self, v):
        out = set(range(self.k * v + 1, self.k * v + self.k + 1))
        if v > 0:
            out.add((v - 1) // self.k)
        return out


class Grid(GraphFamily):
    """Z^d with edges at Euclidean distance 1, ordered by expanding max-norm
    boxes around the origin, lexicographic within a box shell."""

    def __init__(self, d):
        if d < 1:
            raise ValueError("d must be at least 1")
        self.d = d
        self.degree = 2 * d
        self._coords = []
        self._index = {}
        self._radius = -1  # nothing is built until a vertex is asked for
        self._inner = 0  # the vertices inside the outermost shell built

    def _shell(self, r):
        """The points of max-norm r in lexicographic order, which product yields."""
        return [pt for pt in itertools.product(range(-r, r + 1), repeat=self.d)
                if r in pt or -r in pt]

    def _grow_to_radius(self, r):
        while self._radius < r:
            self._radius += 1
            self._inner = len(self._coords)
            for pt in self._shell(self._radius):
                self._index[pt] = len(self._coords)
                self._coords.append(pt)

    def _grow_to_size(self, n):
        while len(self._coords) < n:
            self._grow_to_radius(self._radius + 1)

    def coord(self, v):
        self._grow_to_size(v + 1)
        return self._coords[v]

    def index(self, coord):
        coord = tuple(coord)
        self._grow_to_radius(max(abs(c) for c in coord))
        return self._index[coord]

    def neighbors(self, v):
        base = self.coord(v)
        if v >= self._inner:  # v lies on the outermost shell: build the next
            self._grow_to_radius(self._radius + 1)
        out = set()
        for i in range(self.d):
            for step in (-1, 1):
                other = base[:i] + (base[i] + step,) + base[i + 1:]
                out.add(self._index[other])
        return out


def grid_box(d, size):
    """The points a Grid(d) builds to give the neighbours of its first
    ``size`` vertices: the box one shell past the last one's."""
    side = 1
    while side ** d < size:
        side += 2
    return (side + 2) ** d


class OmegaFactor(GraphFamily):
    """Countably many disjoint copies of a finite graph F, copy by copy."""

    def __init__(self, factor: FiniteGraph):
        if factor.n < 1:
            raise ValueError("factor must be nonempty")
        self.factor = factor
        self._adj = factor.adjacency()
        self.degree = max(map(len, self._adj))

    def neighbors(self, v):
        copy, local = divmod(v, self.factor.n)
        return {copy * self.factor.n + w for w in self._adj[local]}


class Explicit(GraphFamily):
    """A fixed finite graph presented through the family interface."""

    def __init__(self, graph: FiniteGraph):
        self.graph = graph
        self.finite_size = graph.n
        self._adj = graph.adjacency()
        self.degree = max(map(len, self._adj), default=0)

    def neighbors(self, v):
        return set(self._adj[v])


class ExplicitForest(Explicit):
    def __init__(self, graph: FiniteGraph):
        if not graph.is_forest():
            raise ValueError("graph is not acyclic")
        super().__init__(graph)


def parse_family(spec_text):
    """CLI family syntax: pathpower:k, karytree:k, grid:d, omega:<file>, explicit:<file>.
    A family constructor's error is prefixed with the spec."""
    kind, _, arg = spec_text.partition(":")
    kind = kind.lower()
    sized = {"pathpower": (PathPower, "k"), "karytree": (KAryTree, "k"), "grid": (Grid, "d")}
    if kind in sized:
        family, letter = sized[kind]
        try:
            size = int(arg)
        except ValueError:
            raise ValueError(f"family {spec_text!r}: expected '{kind}:<{letter}>' with an "
                             f"integer {letter}") from None
        try:
            return family(size)
        except ValueError as exc:
            raise ValueError(f"family {spec_text!r}: {exc}") from None
    if kind in ("omega", "explicit"):
        with open(arg, encoding="utf-8") as fh:
            graph = FiniteGraph.from_text(fh.read())
        try:
            return OmegaFactor(graph) if kind == "omega" else Explicit(graph)
        except ValueError as exc:
            raise ValueError(f"family {spec_text!r}: {exc}") from None
    raise ValueError(f"unknown family {spec_text!r}")


def mu_bruteforce(family, n, prefix_size):
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
    A vertex whose neighborhood misses N(I) adds its whole degree, so once
    |N(I)| plus the least degree of the pool indices left reaches best, only
    the vertices that share a neighbor with I can pass the cut: the loop then
    reads only those, the bits of ``close``, the union of the ``near`` masks
    of the vertices of I.  best only falls, so this holds
    for the rest of the loop, and the search visits the nodes it would visit
    testing every vertex, in the same order.
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
    bits = [1 << v for v in pool]
    # near[i]: the pool indices whose neighborhood meets that of pool[i]
    holders = {}
    for i, v in enumerate(pool):
        for w in nbrs[v]:
            holders[w] = holders.get(w, 0) | 1 << i
    near = [functools.reduce(operator.or_, map(holders.get, nbrs[v]), 0) for v in pool]
    # least[i]: the least degree among pool indices i, i+1, ...
    least = list(itertools.accumulate(reversed([m.bit_count() for m in masks]), min))[::-1]

    best = math.inf

    def extend(start, depth, nbhd, close):
        nonlocal best
        stop = len(pool) - n + depth + 1
        size = nbhd.bit_count()
        last = depth + 1 == n  # the last level takes its minimum in the loop
        idx = start
        while idx < stop and size + least[idx] < best:
            if not nbhd & bits[idx]:
                new = nbhd | masks[idx]
                count = new.bit_count()
                if count < best:
                    if last:
                        best = count
                    else:
                        extend(idx + 1, depth + 1, new, close | near[idx])
            idx += 1
        # the bits of close from idx on; the body is written out twice, since
        # a shared inner call or a bit scan of every index was slower
        rest = close & (1 << stop) - (1 << idx)
        while rest:
            low = rest & -rest
            rest ^= low
            idx = low.bit_length() - 1
            if not nbhd & bits[idx]:
                new = nbhd | masks[idx]
                count = new.bit_count()
                if count < best:
                    if last:
                        best = count
                    else:
                        extend(idx + 1, depth + 1, new, close | near[idx])

    extend(0, 0, 0, 0)
    if best == math.inf:
        raise PrefixTooSmallError("no independent boundary-interior set of the requested size")
    return best


def _independent_sets(masks):
    """(I, N(I) as a bitmask) for each nonempty independent I, in lexicographic
    order, of the graph whose vertex v has neighbor mask masks[v]; N(I) is the
    union of I's masks, and a larger v extends I iff bit v of N(I) is clear."""
    out = []

    def rec(start, current, nbhd):
        if current:
            out.append((tuple(current), nbhd))
        for v in range(start, len(masks)):
            if not nbhd >> v & 1:
                current.append(v)
                rec(v + 1, current, nbhd | masks[v])
                current.pop()

    rec(0, [], 0)
    return out


def min_expansion(F: FiniteGraph):
    """Exact rational min over nonempty independent I of |N(I)| / |I|."""
    if F.n < 1:
        raise ValueError("graph must be nonempty")
    masks = [sum(1 << w for w in nb) for nb in F.adjacency()]
    return min(Fraction(nbhd.bit_count(), len(I)) for I, nbhd in _independent_sets(masks))


def doubly_independent_sets(F: FiniteGraph):
    """All nonempty independent I whose neighborhood is also independent,
    sorted by (size, lexicographic)."""
    masks = [sum(1 << w for w in nb) for nb in F.adjacency()]
    out = [I for I, nbhd in _independent_sets(masks)
           if not any(masks[w] & nbhd for w in range(F.n) if nbhd >> w & 1)]
    return sorted(out, key=lambda s: (len(s), s))


def expansion_ratio(G: FiniteGraph, I):
    """Exact |N(I)| / |I| for a nonempty independent set I."""
    I = sorted(set(I))
    if not I:
        raise ValueError("I must be nonempty")
    if not G.is_independent(I):
        raise ValueError("I is not independent")
    return Fraction(len(G.neighborhood(I)), len(I))


def default_treecut_delta(lam, lam_prime):
    """A delta that always satisfies delta + lam/(1 - 2*delta*(1+lam)) < lam_prime."""
    lam, lam_prime = Fraction(lam), Fraction(lam_prime)
    gap = lam_prime - lam
    if gap <= 0:
        raise ValueError("lam_prime must exceed lam")
    return min(Fraction(1, 4), gap / 4, gap / (2 * (2 * lam + gap) * (1 + lam)))


def _preorder_components(order, parent, removed, in_i):
    """Components of a rooted forest after deleting the vertices flagged in
    ``removed``, read off ``order``, a preorder of the part to split: a
    vertex joins its parent's component unless the parent is deleted or it
    has none (``parent[v] < 0``).  Returns the per-vertex component labels
    (-1 where none) and, per component, its number of vertices with and
    without an ``in_i`` flag and its least vertex."""
    label = [-1] * len(parent)
    count_i, count_j, least = [], [], []
    for v in order:
        if removed[v]:
            continue
        p = parent[v]
        if p < 0 or removed[p]:
            k = len(least)
            count_i.append(0)
            count_j.append(0)
            least.append(v)
        else:
            k = label[p]
            if v < least[k]:
                least[k] = v
        label[v] = k
        if in_i[v]:
            count_i[k] += 1
        else:
            count_j[k] += 1
    return label, count_i, count_j, least


def treecut(forest: FiniteGraph, I, lam, lam_prime, delta):
    """Extract I' subseteq I with |I'| <= 2/delta and |N(I')| <= lam_prime*|I'|
    from an independent set with |N(I)| <= lam*|I| in a forest.

    Procedure: root each component of the I-to-N(I) subforest at its least
    I-vertex; bottom-up, delete every vertex whose subtree, after the
    deletions below it, has at least 1/delta vertices; close the deleted set
    under parents of its N(I) part; pick the component of lowest
    |C cap J|/|C cap I| ratio (ties to the least vertex) in one linear scan;
    if it is big, split at its unique deleted-J vertex and take the shortest
    prefix of the pieces in increasing ratio order that collects at least
    1/delta I-vertices.
    """
    lam, lam_prime, delta = Fraction(lam), Fraction(lam_prime), Fraction(delta)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    I = sorted(set(I))
    if not I:
        raise ValueError("I must be nonempty")
    # built once per call for the forest test, N(I), the subforest and N(I');
    # kept on the graph, it would live as long as every forest a caller holds
    full_adj = forest.adjacency()
    if len(forest.edges) != forest.n - _count_components(full_adj):
        raise ValueError("input graph is not acyclic")
    if not forest.is_independent(I):
        raise ValueError("I is not independent")
    J = neighborhood(full_adj, I)
    if len(J) > lam * len(I):
        raise ValueError(f"|N(I)| <= lam*|I| fails: {len(J)} > {lam} * {len(I)}")
    if 2 * delta * (1 + lam) >= 1:
        raise ValueError(f"delta too large: 2*delta*(1+lam) = {2 * delta * (1 + lam)} >= 1")
    lam_dd = lam / (1 - 2 * delta * (1 + lam))
    if delta + lam_dd >= lam_prime:
        raise ValueError(
            f"delta too large: delta + lam/(1-2*delta*(1+lam)) = {delta + lam_dd} >= {lam_prime}")
    # sizes and counts are integers: size >= 1/delta iff size >= cut, and
    # count <= 2/delta iff count <= bound
    cut = math.ceil(1 / delta)
    bound = math.floor(2 / delta)

    # rooted structure: least I-vertex per component.  The subforest's edges
    # join I to J (I is independent), so w is a child of v iff exactly one
    # of them lies in I; in a forest the parents do not depend on the order
    # the children are pushed in
    n = forest.n
    in_i = [False] * n
    for v in I:
        in_i[v] = True
    parent = [-1] * n
    seen = [False] * n
    order = []
    for root in I:
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            side = in_i[v]
            for w in full_adj[v]:
                if in_i[w] != side and not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    stack.append(w)
    if len(order) != len(I) + len(J):
        raise VerificationError("treecut: rooting missed vertices of the I-N(I) forest")

    # reversed preorder visits children before parents; a cut vertex's
    # subtree is detached, so its size is not passed up.  X is the cut set
    # closed under parents of its J part (a J-vertex is never a root, and its
    # parent is an I-vertex); `removed` is X cap I
    size = [1] * n
    deleted_j = [False] * n
    removed = [False] * n
    for v in reversed(order):
        if size[v] >= cut:
            if in_i[v]:
                removed[v] = True
            else:
                deleted_j[v] = True
                removed[parent[v]] = True
        elif parent[v] >= 0:
            size[parent[v]] += size[v]

    label, count_i, count_j, least = _preorder_components(order, parent, removed, in_i)
    # lowest |C cap J|/|C cap I|, ties to the least vertex, by cross products
    best = -1
    for k, ci in enumerate(count_i):
        if not ci:
            continue
        if best < 0:
            best = k
            continue
        lhs, rhs = count_j[k] * count_i[best], count_j[best] * ci
        if lhs < rhs or (lhs == rhs and least[k] < least[best]):
            best = k
    if best < 0 or count_j[best] > lam_dd * count_i[best]:
        raise VerificationError("treecut: no component meets the averaged ratio bound")
    comp = [v for v in order if label[v] == best]

    if count_i[best] <= bound:
        i_prime = sorted(v for v in comp if in_i[v])
    else:
        inside = [v for v in comp if deleted_j[v]]
        if len(inside) != 1:
            raise VerificationError(
                "treecut: big component must contain exactly one deleted J-vertex")
        # the pieces of comp minus that vertex: remove it as well and label
        # comp, a preorder whose top has a removed parent or none
        removed[inside[0]] = True
        label, count_i, count_j, least = _preorder_components(comp, parent, removed, in_i)
        members = [[] for _ in least]
        for v in comp:
            if in_i[v]:
                members[label[v]].append(v)
        pieces = sorted(range(len(least)), key=lambda k: (
            (0, Fraction(count_j[k], count_i[k])) if count_i[k] else (1, 0), least[k]))
        i_prime = []
        for k in pieces:
            i_prime.extend(members[k])
            if len(i_prime) >= cut:
                break
        i_prime = sorted(i_prime)

    got = neighborhood(full_adj, i_prime)
    if len(i_prime) > bound:
        raise VerificationError("treecut: output exceeds the size bound")
    if len(got) > lam_prime * len(i_prime):
        raise VerificationError("treecut: output exceeds the expansion bound")
    return tuple(i_prime)

