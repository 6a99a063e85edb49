"""Capacitated bipartite flows with weighted vertex-cover certificates.

The core primitive is a max-flow/min-cut computation on a bipartite graph
where every X-vertex can carry r units and every Y-vertex s units; the
minimum cut converts into a vertex cover Z with r|Z cap X| + s|Z cap Y|
equal to the flow value, a weighted version of the classical matching/cover
duality.  On top of it, the flow finder picks, over every prefix length t
of a totally colored host and both colors, the flow between the first t
vertices of one color class and the whole other class with the largest
normalized value; that value is 1 at t = 1 on every host, so the finder
decides the color from vertex 0's edges and runs one ``mfmc``.

``mfmc`` runs on one integer-indexed residual network (``_Residual``) that
holds only the X and Y nodes and the x -> y arcs: each X node keeps its
unused capacity as supply and each Y node its unused capacity as room, so no
source or sink node is needed.  An augmenting path runs from an X node with
supply to a Y node with room.  A greedy pass first takes the direct paths
x -> y, then one shortest-augmenting-path routine (Edmonds-Karp) takes the
longer ones.  The greedy pass pushes on exactly the paths, in the order and
by the amounts, that Edmonds-Karp's breadth-first search would pick while a
direct path exists, and no direct path comes back after it; so the flow is
the Edmonds-Karp flow, and the search runs only for the longer paths and
for the last one that finds no path.  Supply and room only fall, since every
path takes from one of each; so a search starts from the X nodes that still
have supply, in X order, and an X node that runs out is dropped from that
list for good.  ``mfmc`` builds the network and augments to the end; the
order nodes and arcs are added in fixes the flow it returns.  Blocking-flow
methods (Dinic) would be faster still but pick a different flow, and so
different certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import VerificationError


@dataclass(frozen=True)
class CapacitatedBipartite:
    """Bipartite graph with disjoint integer vertex ids and uniform side
    capacities: r per X-vertex, s per Y-vertex."""

    X: tuple
    Y: tuple
    edges: frozenset
    r: int
    s: int

    def __post_init__(self):
        X, Y = tuple(self.X), tuple(self.Y)
        edges = frozenset(map(tuple, self.edges))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "edges", edges)
        xs, ys = set(X), set(Y)
        if xs & ys:
            raise ValueError("X and Y must be disjoint")
        if len(xs) != len(X) or len(ys) != len(Y):
            raise ValueError("duplicate vertices")
        for name, c in (("r", self.r), ("s", self.s)):
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ValueError(f"capacity {name} must be a positive integer, got {c!r}")
        if not set(map(len, edges)) <= {2}:
            raise ValueError("edges must be (x, y) pairs")
        if not (xs.issuperset(map(itemgetter(0), edges))
                and ys.issuperset(map(itemgetter(1), edges))):
            raise ValueError("edges must go from X to Y")


@dataclass(frozen=True)
class FlowCertificate:
    """Integral flow h of value D together with a vertex cover Z whose
    weighted size r|Z cap X| + s|Z cap Y| equals D."""

    D: int
    h: tuple            # sorted ((u, v), flow) pairs, positive flow only
    Z: tuple

    def to_json_dict(self):
        return {"D": self.D,
                "h": [[u, v, f] for (u, v), f in self.h],
                "Z": list(self.Z)}


class _Residual:
    """Residual network on integer nodes, X nodes with supply and Y nodes
    with room.

    supply[x] is what X node x can still send and room[y] what Y node y can
    still take; a node has one or the other.  Arc a runs to head[a] with
    residual capacity cap[a]; arcs are added in pairs, so a ^ 1 is its
    reverse.  out[u] lists u's arcs in the order they were added, which
    fixes the order a search scans them in.  roots lists the X nodes in the
    order they were added, less those whose supply ran out before a search.
    Each search leaves its marks in via (-2 for a root, -1 for a node it did
    not reach); one that finds no path has searched to the end, so its marks
    are exactly the nodes an X node with supply reaches along positive
    residual arcs.
    """

    def __init__(self):
        self.head = []
        self.cap = []
        self.out = []
        self.supply = []
        self.room = []
        self.roots = []
        self.via = []

    def add_node(self, supply, room):
        u = len(self.out)
        self.out.append([])
        self.supply.append(supply)
        self.room.append(room)
        if supply:
            self.roots.append(u)
        return u

    def add_arc(self, u, v, c):
        a = len(self.head)
        self.head += (v, u)
        self.cap += (c, 0)
        self.out[u].append(a)
        self.out[v].append(a + 1)
        return a

    def push_direct(self, arcs):
        """Push flow along each x -> y arc, in order and by
        min(supply[x], residual, room[y]); return the total pushed.

        While a direct path exists, ``augment`` takes the first one in
        (root, x's arc) insertion order, since its search pops every root
        before any y.  Supply and room only fall here, so x -> y arcs listed
        in that order, covering every direct path, get exactly the pushes
        ``augment`` would make and leave no direct path behind.
        """
        head, cap, supply, room = self.head, self.cap, self.supply, self.room
        total = 0
        for a in arcs:
            x, y = head[a ^ 1], head[a]
            if (pushed := min(supply[x], cap[a], room[y])) > 0:
                supply[x] -= pushed
                room[y] -= pushed
                cap[a] -= pushed
                cap[a ^ 1] += pushed
                total += pushed
        return total

    def augment(self):
        """Push flow along one shortest path of positive residual capacity
        from an X node with supply to a Y node with room, and return the
        amount pushed, 0 when there is no such path.

        The path is the one a breadth-first search from the roots, in order,
        scanning arcs in insertion order finds.  That search pops nodes in
        the order it discovers them, so the path's end is the first node it
        discovers with room; stopping there already fixes the path.
        """
        head, cap, out, supply, room = self.head, self.cap, self.out, self.supply, self.room
        roots = self.roots = [x for x in self.roots if supply[x] > 0]
        via = self.via = [-1] * len(out)
        for x in roots:
            via[x] = -2
        queue = roots.copy()
        for u in queue:
            for a in out[u]:
                v = head[a]
                if via[v] == -1 and cap[a] > 0:
                    via[v] = a
                    if room[v] > 0:
                        y, path = v, []
                        while (a := via[v]) != -2:
                            path.append(a)
                            v = head[a ^ 1]
                        pushed = min(supply[v], room[y], *(cap[a] for a in path))
                        supply[v] -= pushed
                        room[y] -= pushed
                        for a in path:
                            cap[a] -= pushed
                            cap[a ^ 1] += pushed
                        return pushed
                    queue.append(v)
        return 0


def mfmc(G: CapacitatedBipartite):
    """Integral max flow and matching weighted min vertex cover.

    Augments along shortest paths in the residual network (supply r per
    X node, X -> Y uncapacitated, room s per Y node): one greedy pass over
    every (x, y) arc, in X order and then arc order, takes the direct paths,
    then Edmonds-Karp takes the longer ones.  Its last search finds no path
    and marks the nodes the X nodes with supply reach, and the cover is the
    unmarked X-vertices plus the marked Y-vertices.  Nodes are added X
    first, in X order, and arcs in sorted edge order, which fixes the paths
    chosen and so the flow h.
    """
    net = _Residual()
    node = {x: net.add_node(G.r, 0) for x in G.X}
    node.update((y, net.add_node(0, G.s)) for y in G.Y)
    edges = sorted(G.edges)
    arcs = [net.add_arc(node[u], node[v], math.inf) for u, v in edges]

    D = net.push_direct(a for x in G.X for a in net.out[node[x]])
    while pushed := net.augment():
        D += pushed

    via = net.via  # the marks of the last search, which found no path
    Z = tuple(sorted([x for x in G.X if via[node[x]] == -1] +
                     [y for y in G.Y if via[node[y]] != -1]))
    # the residual capacity of a reverse arc is the flow on its edge
    h = tuple((e, net.cap[a ^ 1]) for e, a in zip(edges, arcs) if net.cap[a ^ 1] > 0)

    cert = FlowCertificate(D=D, h=h, Z=Z)
    _validate_certificate(G, cert)
    return cert


def _validate_certificate(G, cert):
    load = {v: 0 for v in (*G.X, *G.Y)}
    total = 0
    for (u, v), f in cert.h:
        if (u, v) not in G.edges or f <= 0:
            raise VerificationError("flow on a non-edge or nonpositive flow")
        load[u] += f
        load[v] += f
        total += f
    if total != cert.D:
        raise VerificationError("flow total differs from D")
    for x in G.X:
        if load[x] > G.r:
            raise VerificationError("X capacity exceeded")
    for y in G.Y:
        if load[y] > G.s:
            raise VerificationError("Y capacity exceeded")
    zs = set(cert.Z)
    for u, v in G.edges:
        if u not in zs and v not in zs:
            raise VerificationError("Z is not a vertex cover")
    weight = G.r * sum(1 for x in G.X if x in zs) + G.s * sum(1 for y in G.Y if y in zs)
    if weight != cert.D:
        raise VerificationError("cover weight differs from D")


@dataclass(frozen=True)
class FindFlowResult:
    t: int
    color: str
    h: tuple
    value: Fraction
    certificate: FlowCertificate


def _prefix_graph(chi, color, r, s):
    """Color C's network at prefix length 1: X is every C vertex, Y is
    vertex 0 if its color is C-bar (else empty), and x 0 is an edge iff it
    has color C, read off vertex 0's one C-neighbor mask."""
    colors = chi.vertex_colors
    X = tuple(v for v, c in enumerate(colors) if c == color)
    Y = () if colors[0] == color else (0,)
    mask = chi.neighbor_mask(0, color) if Y else 0
    return CapacitatedBipartite(X, Y, frozenset((x, 0) for x in X if mask >> x & 1), r, s)


def findflow(chi, r, s):
    """The flow maximizing |C cap [t]|/t + D/(s*t) over every prefix length
    t and both colors C, ties broken toward blue, then toward smaller t.

    For color C, X is every C vertex (capacity r), Y the C-bar vertices
    among the first t (capacity s), and D is the max flow on the C-colored
    edges between them: with C blue, a blue-edge flow between B and the
    first t reds; with C red, a red-edge flow between R and the first t
    blues.  The winner is always t = 1 with value 1:

    - value <= 1: D <= s |C-bar cap [t]|, so s |C cap [t]| + D <= s t; and
      at t = 1 the color of vertex 0 has Y empty and value 1.
    - Ties go to blue, then to the smaller t: blue wins at its least t with
      value 1 if it has one, else the color of vertex 0 (then red) at t = 1.
    - A blue 1 at some t > 1 means a blue 1 at t = 1: value 1 saturates
      every red y < t, vertex 0 among them when it is red, and that flow's
      edges into vertex 0 carry s in the t = 1 network, a star at vertex 0
      whose max flow is min(s, r k), for the k blue vertices joined to
      vertex 0 by a blue edge.

    So blue wins iff vertex 0 is blue or r k >= s, that is iff r k >= s |Y|
    in blue's t = 1 network.  The winner's flow h and cover come from one
    ``mfmc`` on its t = 1 graph, whose flow must fill Y.
    """
    from .colorings import BLUE, RED  # here, so that mfmc alone loads no colorings
    if chi.vertex_colors is None:
        raise ValueError("findflow needs vertex colors")
    color, G = BLUE, _prefix_graph(chi, BLUE, r, s)
    if r * len(G.edges) < s * len(G.Y):
        color, G = RED, _prefix_graph(chi, RED, r, s)
    cert = mfmc(G)
    if cert.D != s * len(G.Y):
        raise VerificationError(f"findflow: color {color} has flow {s * len(G.Y)} at t = 1 "
                                f"by the bound, but mfmc finds {cert.D}")
    return FindFlowResult(t=1, color=color, h=cert.h, value=Fraction(1), certificate=cert)


def bruteforce_max_flow(G: CapacitatedBipartite):
    """Independent exact oracle: maximize total flow by distributing each
    X-vertex's supply over its edges, with memoization on the Y residuals."""
    ys = list(G.Y)
    y_index = {y: i for i, y in enumerate(ys)}
    x_edges = {x: sorted(v for u, v in G.edges if u == x) for x in G.X}
    xs = list(G.X)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def solve(i, residual):
        if i == len(xs):
            return 0
        res = list(residual)
        targets = x_edges[xs[i]]
        best = 0

        def distribute(j, left, sent):
            nonlocal best
            if j == len(targets) or left == 0:
                best = max(best, sent + solve(i + 1, tuple(res)))
                return
            y = y_index[targets[j]]
            for amount in range(min(left, res[y]), -1, -1):
                res[y] -= amount
                distribute(j + 1, left - amount, sent + amount)
                res[y] += amount

        distribute(0, G.r, 0)
        return best

    return solve(0, tuple([G.s] * len(ys)))


def bruteforce_min_cover(G: CapacitatedBipartite):
    """Independent exact oracle: minimum of r|Z cap X| + s|Z cap Y| over all
    vertex covers Z, by subset enumeration."""
    verts = list(G.X) + list(G.Y)
    xset = set(G.X)
    best = None
    for mask in range(1 << len(verts)):
        Z = {verts[i] for i in range(len(verts)) if mask >> i & 1}
        if all(u in Z or v in Z for u, v in G.edges):
            w = sum(G.r if v in xset else G.s for v in Z)
            if best is None or w < best:
                best = w
    return best
