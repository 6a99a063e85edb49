"""Capacitated bipartite flows with weighted vertex-cover certificates.

The core primitive is a max-flow/min-cut computation on a bipartite graph
where every X-vertex can carry r units and every Y-vertex s units; the
minimum cut converts into a vertex cover Z with r|Z cap X| + s|Z cap Y|
equal to the flow value, a weighted version of the classical matching/cover
duality.  On top of it, the flow finder sweeps a prefix parameter t over a
totally colored host and extracts, for one of the two colors, a flow between
the first t vertices of one color class and the whole other class whose
normalized value certifies a dense structure.

Both run on one integer-indexed residual network (``_Residual``) that holds
only the X and Y nodes and the x -> y arcs: each X node keeps its unused
capacity as supply and each Y node its unused capacity as room, so no
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
order nodes and arcs are added in fixes the flow it returns.  The
sweep keeps one network per color and, as t grows, adds the new prefix
vertex to it and augments the flow it already carries, so it reads each
max flow value without recomputing it.  On a leftmost host the networks'
neighbourhoods are nested prefixes, and one left-to-right capacity pool
reads every max flow value with no network at all.  One final ``mfmc`` on
the winner's graph, read off the color-neighbor masks on every host, yields
its flow and cover.  Blocking-flow methods
(Dinic) would be faster still but pick a different flow, and so different
certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .colorings import BLUE, RED, other
from .errors import VerificationError
from .lipschitz import PLFunction


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
        if self.r < 1 or self.s < 1:
            raise ValueError("capacities must be at least 1")
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
class ColoredDegreeProfile:
    """Sorted blue degrees of the red vertices, with the piecewise-linear
    interpolation through (k, d_k), d_0 = 0, constant beyond the last."""

    degrees: tuple
    g: PLFunction


def colored_degree_profile(chi):
    """Blue-degree profile of the red vertices of a totally colored host:
    d_B(v) counts blue vertices w with vw blue."""
    reds = [v for v in range(chi.n) if chi.vertex_color(v) == RED]
    blue_set = sum(1 << w for w in range(chi.n) if chi.vertex_color(w) == BLUE)
    degs = sorted((chi.neighbor_mask(v, BLUE) & blue_set).bit_count() for v in reds)
    pts = [(0.0, 0.0)] + [(float(k), float(d)) for k, d in enumerate(degs, start=1)]
    g = PLFunction.from_points(pts, tail_slope=0.0, lipschitz=False)
    return ColoredDegreeProfile(degrees=tuple(degs), g=g)


@dataclass(frozen=True)
class FindFlowResult:
    t: int
    color: str
    h: tuple
    value: Fraction
    certificate: FlowCertificate | None


class _PrefixFlow:
    """Max flow of one color C as the prefix grows: X (supply r) is every
    vertex of color C, Y (room s) the other color's vertices added so far,
    and an added y's edges go to the X-vertices in its C-neighbor mask."""

    def __init__(self, chi, color, r, s):
        self.chi, self.color, self.s = chi, color, s
        self.D = 0
        self.net = _Residual()
        # x's node, in X order
        self.node = {x: self.net.add_node(r, 0)
                     for x, c in enumerate(chi.vertex_colors) if c == color}

    def add(self, y):
        """Add y to Y with its C-colored edges and augment back to a max flow.

        The previous flow stays feasible.  The flow into the old Y nodes is
        always a flow of the old network, whose maximum they already take,
        and an augmenting path lowers no Y node's inflow (it raises its end's
        only); so every augmenting path ends at y, and augmenting stops once
        y has no room left.  Since the old network had no augmenting path,
        every direct path is one of y's new arcs: a greedy pass over them in
        X order takes those, then Edmonds-Karp the longer paths.
        """
        net = self.net
        v = net.add_node(0, self.s)
        mask = self.chi.neighbor_mask(y, self.color)
        arcs = [net.add_arc(u, v, math.inf) for x, u in self.node.items() if mask >> x & 1]
        self.D += net.push_direct(arcs)
        while net.room[v] > 0 and (pushed := net.augment()):
            self.D += pushed


def _sweep_profile(chi, r, s):
    """D(t) for t = 1..n and both colors on any host: each color keeps one
    network, and going from t - 1 to t adds vertex t - 1 to the other
    color's network and augments the flow that network already carries."""
    sweeps = {color: _PrefixFlow(chi, color, r, s) for color in (BLUE, RED)}
    profile = {BLUE: [], RED: []}
    for y, c in enumerate(chi.vertex_colors):
        sweeps[other(c)].add(y)
        profile[BLUE].append(sweeps[BLUE].D)
        profile[RED].append(sweeps[RED].D)
    return profile


def _pool_profile(colors, r, s):
    """D(t) for t = 1..n and both colors on a leftmost host, in one scan.

    There the C-edges of a C-bar vertex y go to exactly the C vertices left
    of y, so the Y-side neighbourhoods of color C's network are prefixes,
    nested in Y order, and a greedy is a max flow (Glover 1967, matching in
    convex bipartite graphs): each C vertex adds r to pool[C], and each
    C-bar vertex takes min(s, pool[C]) from it, which D(t) for C gains.
    """
    pool = {BLUE: 0, RED: 0}
    D = {BLUE: 0, RED: 0}
    profile = {BLUE: [], RED: []}
    for c in colors:
        pool[c] += r
        color = other(c)
        take = min(s, pool[color])
        pool[color] -= take
        D[color] += take
        profile[BLUE].append(D[BLUE])
        profile[RED].append(D[RED])
    return profile


def _prefix_graph(chi, color, t, r, s):
    """Color C's network at prefix length t: X is every C vertex, Y the C-bar
    vertices below t, and x y an edge iff it has color C, read off y's one
    C-neighbor mask."""
    colors = chi.vertex_colors
    X = tuple(v for v, c in enumerate(colors) if c == color)
    Y = tuple(v for v in range(t) if colors[v] != color)
    masks = {y: chi.neighbor_mask(y, color) for y in Y}
    return CapacitatedBipartite(X, Y, frozenset((x, y) for y in Y for x in X
                                                if masks[y] >> x & 1), r, s)


def findflow(chi, r, s):
    """Sweep every prefix length t and both colors; return the flow maximizing
    |C cap [t]|/t + D/(s*t).

    For color C, the flow lives on the C-colored edges between the first t
    vertices of color C-bar restricted appropriately: with C blue, a blue-edge
    flow between B (capacity r) and the first t reds (capacity s); with C red,
    a red-edge flow between R (capacity r) and the first t blues (capacity s).
    Flow is positive only on C-colored edges with oppositely colored ends.
    Ties in value break toward blue, then toward smaller t.

    Three steps.  The profile: only the max flow value D(t) is read per
    (t, color), from one left-to-right capacity pool on a leftmost host
    (``_pool_profile``) and from the incremental sweep on other hosts
    (``_sweep_profile``).  The pick: a value (s |C cap [t]| + D)/(s t) is
    compared with the best so far by cross-multiplying.  The certificate:
    the winner's flow h and cover come from one from-scratch ``mfmc`` on its
    graph (``_prefix_graph``), whose value must equal the profile's D(t).
    """
    if chi.vertex_colors is None:
        raise ValueError("findflow needs vertex colors")
    if r < 1 or s < 1:
        raise ValueError("capacities must be at least 1")
    n = chi.n
    colors = chi.vertex_colors
    if RED not in colors or BLUE not in colors:
        color = RED if BLUE not in colors else BLUE
        return FindFlowResult(t=n, color=color, h=(), value=Fraction(1), certificate=None)

    profile = _pool_profile(colors, r, s) if chi.rule == "leftmost" else _sweep_profile(chi, r, s)

    in_prefix = {BLUE: 0, RED: 0}
    num, den, t, color = -1, 1, 0, RED  # below every value, so t = 1 replaces it
    for k, c in enumerate(colors):
        in_prefix[c] += 1
        den_k = s * (k + 1)
        for color_k in (BLUE, RED):
            num_k = s * in_prefix[color_k] + profile[color_k][k]
            ahead = num_k * den - num * den_k
            if ahead > 0 or ahead == 0 and color_k == BLUE and color == RED:
                num, den, t, color = num_k, den_k, k + 1, color_k

    D = profile[color][t - 1]
    cert = mfmc(_prefix_graph(chi, color, t, r, s))
    if cert.D != D:
        raise VerificationError(f"findflow: the sweep found flow {D} at t = {t}, "
                                f"color {color}, but mfmc finds {cert.D}")
    return FindFlowResult(t=t, color=color, h=cert.h, value=Fraction(num, den),
                          certificate=cert)


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
