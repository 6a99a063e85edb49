"""Capacitated bipartite flows with weighted vertex-cover certificates.

The core primitive is a max-flow/min-cut computation on a bipartite graph
where every X-vertex can carry r units and every Y-vertex s units; the
minimum cut converts into a vertex cover Z with r|Z cap X| + s|Z cap Y|
equal to the flow value, a weighted version of the classical matching/cover
duality.  On top of it, the flow finder sweeps a prefix parameter t over a
totally colored host and extracts, for one of the two colors, a flow between
the first t vertices of one color class and the whole other class whose
normalized value certifies a dense structure.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .colorings import RED, BLUE
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
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "edges", frozenset(tuple(e) for e in self.edges))
        if set(X) & set(Y):
            raise ValueError("X and Y must be disjoint")
        if len(set(X)) != len(X) or len(set(Y)) != len(Y):
            raise ValueError("duplicate vertices")
        if self.r < 1 or self.s < 1:
            raise ValueError("capacities must be at least 1")
        xs, ys = set(X), set(Y)
        for u, v in self.edges:
            if u not in xs or v not in ys:
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


def mfmc(G: CapacitatedBipartite):
    """Integral max flow and matching weighted min vertex cover.

    Augments along shortest paths in the residual network (source -> X at
    capacity r, X -> Y uncapacitated, Y -> sink at capacity s); the final
    residual reachability yields the cover as the unreachable X-vertices
    plus the reachable Y-vertices.
    """
    SRC, SNK = "src", "snk"
    cap = {}
    adj = {SRC: [], SNK: []}

    def add(u, v, c):
        cap[(u, v)] = c
        cap.setdefault((v, u), 0)
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for x in G.X:
        add(SRC, x, G.r)
    for y in G.Y:
        add(y, SNK, G.s)
    for u, v in sorted(G.edges):
        add(u, v, math.inf)

    def bfs():
        prev = {SRC: None}
        queue = deque([SRC])
        while queue:
            u = queue.popleft()
            if u == SNK:
                break
            for v in adj[u]:
                if v not in prev and cap[(u, v)] > 0:
                    prev[v] = u
                    queue.append(v)
        if SNK not in prev:
            return None
        path = []
        v = SNK
        while prev[v] is not None:
            path.append((prev[v], v))
            v = prev[v]
        return list(reversed(path))

    D = 0
    while True:
        path = bfs()
        if path is None:
            break
        bottleneck = min(cap[e] for e in path)
        for u, v in path:
            cap[(u, v)] -= bottleneck
            cap[(v, u)] += bottleneck
        D += bottleneck

    reach = {SRC}
    queue = deque([SRC])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in reach and cap[(u, v)] > 0:
                reach.add(v)
                queue.append(v)
    Z = tuple(sorted([x for x in G.X if x not in reach] +
                     [y for y in G.Y if y in reach]))

    h = []
    for u, v in sorted(G.edges):
        f = cap[(v, u)]  # residual of the reverse arc equals the flow
        if f > 0:
            h.append(((u, v), int(f)))

    cert = FlowCertificate(D=int(D), h=tuple(h), Z=Z)
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
    blues = [v for v in range(chi.n) if chi.vertex_color(v) == BLUE]
    degs = sorted(sum(1 for w in blues if chi.color(v, w) == BLUE) for v in reds)
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


def findflow(chi, r, s):
    """Sweep every prefix length t and both colors; return the flow maximizing
    |C cap [t]|/t + D/(s*t).

    For color C, the flow lives on the C-colored edges between the first t
    vertices of color C-bar restricted appropriately: with C blue, a blue-edge
    flow between B (capacity r) and the first t reds (capacity s); with C red,
    a red-edge flow between R (capacity r) and the first t blues (capacity s).
    Flow is positive only on C-colored edges with oppositely colored ends.
    Ties in value break toward blue, then toward smaller t.
    """
    if chi.vertex_colors is None:
        raise ValueError("findflow needs vertex colors")
    n = chi.n
    reds = [v for v in range(n) if chi.vertex_color(v) == RED]
    blues = [v for v in range(n) if chi.vertex_color(v) == BLUE]
    if not reds or not blues:
        color = RED if not blues else BLUE
        return FindFlowResult(t=n, color=color, h=(), value=Fraction(1), certificate=None)

    best = None
    for t in range(1, n + 1):
        for color in (BLUE, RED):
            if color == BLUE:
                side_full, side_pref = blues, [v for v in reds if v < t]
            else:
                side_full, side_pref = reds, [v for v in blues if v < t]
            edges = frozenset((u, v) for u in side_full for v in side_pref
                              if chi.color(u, v) == color)
            cert = mfmc(CapacitatedBipartite(tuple(side_full), tuple(side_pref),
                                             edges, r, s))
            in_prefix = sum(1 for v in range(t) if chi.vertex_color(v) == color)
            value = Fraction(in_prefix, t) + Fraction(cert.D, s * t)
            key = (value, 1 if color == BLUE else 0, -t)
            if best is None or key > best[0]:
                best = (key, FindFlowResult(t=t, color=color, h=cert.h,
                                            value=value, certificate=cert))
    return best[1]


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
