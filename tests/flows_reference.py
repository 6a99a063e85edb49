"""Reference copy of the dict-based max flow and the from-scratch flow sweep.

This is ``mfmc`` and ``findflow`` as they were before the integer-indexed
rewrite in ``ramseydensity.flows``.  It is kept only as the oracle for the
differential tests: the residual network is a dict keyed by vertex pairs,
and the sweep rebuilds every (t, colour) edge set through ``chi.color`` and
runs a fresh Edmonds-Karp on it.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

from ramseydensity.colorings import BLUE, RED
from ramseydensity.flows import (CapacitatedBipartite, FindFlowResult, FlowCertificate,
                                 _validate_certificate)


def mfmc(G: CapacitatedBipartite):
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
        f = cap[(v, u)]
        if f > 0:
            h.append(((u, v), int(f)))

    cert = FlowCertificate(D=int(D), h=tuple(h), Z=Z)
    _validate_certificate(G, cert)
    return cert


def sweep(chi, r, s):
    """Yield (t, colour, certificate, value) for every t and both colours,
    in the order the reference findflow visits them."""
    n = chi.n
    reds = [v for v in range(n) if chi.vertex_color(v) == RED]
    blues = [v for v in range(n) if chi.vertex_color(v) == BLUE]
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
            yield t, color, cert, value


def findflow(chi, r, s):
    if chi.vertex_colors is None:
        raise ValueError("findflow needs vertex colors")
    best = None
    for t, color, cert, value in sweep(chi, r, s):
        key = (value, 1 if color == BLUE else 0, -t)
        if best is None or key > best[0]:
            best = (key, FindFlowResult(t=t, color=color, h=cert.h,
                                        value=value, certificate=cert))
    return best[1]
