"""Reference copy of the embedder's edge-colour queries.

These are ``validate_w``, ``_find_piece``, ``build_W``, ``embed`` and
``verify_embedding`` as they were before the embedder read colour-neighbour
masks: every edge colour is asked one pair at a time through
``TwoColoring.color``, ``_find_piece`` carries the common neighbourhood as a
set, and ``verify_embedding`` lets ``color()`` raise on an edge whose two
ends map to one host vertex.  Kept only as the oracle for the differential
tests.  The one change since: ``build_W`` holds its candidates in the local
``Backbone`` record and returns the chosen one as a library ``WStructure``,
which needs the coloring, shading, r and s it was built for.  Shade
members and nonempty shades are rescans of ``sh.assignment`` (``members``,
``nonempty_shades``), so the oracle does not share ``Shading``'s index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ramseydensity.colorings import COLORS, density, other
from ramseydensity.embedder import (BipartitePiece, EmbeddingState, EmbedReport,
                                    HPrefixSpec, IsolatedVertex, WStructure)
from ramseydensity.families import components, neighborhood


class Backbone(NamedTuple):
    """A backbone candidate: the color and components of a WStructure."""

    color: str
    components: tuple

    def density_surrogate(self, n):
        return Fraction(len(set().union(*(c.vertices() for c in self.components))), n)


def members(sh, color, index):
    """Vertices of shade (color, index), rescanned from the assignment."""
    return [v for v, shade in enumerate(sh.assignment) if shade == (color, index)]


def nonempty_shades(sh, color):
    """Indices of the nonempty shades of one color, rescanned."""
    return sorted({idx for c, idx in sh.assignment if c == color})


def validate_w(chi, sh, W, r, s):
    """Check every backbone invariant against the host coloring and shading."""
    seen = set()
    for comp in W.components:
        vs = comp.vertices()
        if vs & seen:
            raise ValueError("backbone components are not disjoint")
        seen |= vs
        if isinstance(comp, IsolatedVertex):
            if sh.shade_of(comp.v) != (W.color, comp.shade_index):
                raise ValueError("isolated vertex shade mismatch")
        else:
            ci, cj = comp.shade_pair
            if len(comp.X) != r or len(comp.Y) != s:
                raise ValueError("piece side sizes mismatch")
            for y in comp.Y:
                if sh.shade_of(y) != (W.color, ci):
                    raise ValueError("piece Y-side shade mismatch")
            for x in comp.X:
                if sh.shade_of(x) != (other(W.color), cj):
                    raise ValueError("piece X-side shade mismatch")
            for x in comp.X:
                for y in comp.Y:
                    if chi.color(x, y) != W.color:
                        raise ValueError("piece edge has the wrong color")


def _find_piece(chi, color, xs_pool, ys_pool, r, s, window):
    """Lowest complete color-C piece: choose s Y-vertices ascending with
    bounded lookahead so that their common C-neighborhood in the X-pool has
    size at least r; returns (X, Y) or None."""
    ys_pool = ys_pool[:window]

    def rec(chosen, common, start):
        if len(chosen) == s:
            return sorted(common)[:r], list(chosen)
        for k in range(start, len(ys_pool)):
            y = ys_pool[k]
            new_common = {x for x in common if chi.color(x, y) == color}
            if len(new_common) >= r:
                got = rec(chosen + [y], new_common, k + 1)
                if got is not None:
                    return got
        return None

    return rec([], set(xs_pool), 0)


def build_W(chi, sh, r, s, window=64, max_pieces=None):
    """Greedy backbone packing: for each color and each shade pair, pack
    disjoint complete pieces (exhaustive search per piece over a bounded
    candidate window, optionally capped), then add every unused vertex of the
    color as an isolated component; keep the color with the denser result
    (ties red)."""
    best = None
    for color in COLORS:
        used = set()
        comps = []
        pieces = 0
        for ci in nonempty_shades(sh, color):
            for cj in nonempty_shades(sh, other(color)):
                while max_pieces is None or pieces < max_pieces:
                    ys_pool = [v for v in members(sh, color, ci) if v not in used]
                    xs_pool = [v for v in members(sh, other(color), cj) if v not in used]
                    if len(ys_pool) < s or len(xs_pool) < r:
                        break
                    got = _find_piece(chi, color, xs_pool, ys_pool, r, s, window)
                    if got is None:
                        break
                    X, Y = got
                    comps.append(BipartitePiece(tuple(X), tuple(Y), (ci, cj)))
                    used |= set(X) | set(Y)
                    pieces += 1
        for ci in nonempty_shades(sh, color):
            for v in members(sh, color, ci):
                if v not in used:
                    comps.append(IsolatedVertex(v, ci))
        comps.sort(key=lambda c: min(c.vertices()))
        W = Backbone(color=color, components=tuple(comps))
        if best is None or W.density_surrogate(chi.n) > best.density_surrogate(chi.n):
            best = W
    validate_w(chi, sh, best, r, s)
    return WStructure(best.color, best.components, chi, sh, r, s)


def embed(chi, sh, W, spec: HPrefixSpec, budget):
    """Alternate two operations for up to ``budget`` steps: define the image
    of the least unmapped pattern vertex, and absorb the next backbone
    component.

    Vertex images come from the shade dictated by the component's shade
    assignment kappa, adjacent in color C to every already-mapped neighbor;
    in top-shade components the whole out-reachable set is mapped first, in
    decreasing psi order.  Pieces absorb a fresh template (bijectively onto
    the opposite-shaded side, its neighborhood into the C-shaded side);
    isolated vertices and leftover C-side slots absorb fresh top-color
    pattern vertices with untouched neighborhoods.  An exhausted candidate
    pool flags the state incomplete and stops.
    """
    a = spec.validate()
    if a != sh.a:
        raise ValueError(f"psi uses {a} colors but the shading has a = {sh.a}")
    C = W.color
    validate_w(chi, sh, W, spec.r, spec.s)
    j_prime = nonempty_shades(sh, C)
    a_prime = max((len(nonempty_shades(sh, c)) for c in COLORS), default=0)
    if not (sh.a >= a_prime >= spec.b):
        raise ValueError("need a >= a' >= b")
    if not j_prime:
        raise ValueError("no nonempty shade of the backbone color")

    H = spec.graph()
    adj = H.adjacency()
    comps = components(adj, range(H.n))
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    kappa = {i: j_prime[i % len(j_prime)] for i in range(len(comps))}

    # only multi-vertex pieces are withheld from regular placement: an
    # isolated backbone vertex covered by a regular image is already absorbed
    reserved = set()
    for piece in W.pieces():
        reserved |= piece.vertices()
    phi = {}
    used = set()
    consumed = []
    t_sizes = []
    incomplete = False

    out_nbrs = {v: [w for w in adj[v] if spec.psi[w] > spec.psi[v]] for v in range(H.n)}

    def place(v, pool_shade, require_adj_to):
        for x in members(sh, *pool_shade):
            if x in used or x in reserved:
                continue
            if all(chi.color(x, t) == C for t in require_adj_to):
                phi[v] = x
                used.add(x)
                return True
        return False

    def vertex_op():
        nonlocal incomplete
        v = next((u for u in range(H.n) if u not in phi), None)
        if v is None:
            return False
        k = kappa[comp_of[v]]
        if k != a:
            targets = [phi[w] for w in adj[v] if w in phi]
            if not place(v, (C, k), targets):
                incomplete = True
            return True
        # top-shade component: map the out-reachable set, top psi first
        T = set()
        stack = [v]
        while stack:
            u = stack.pop()
            if u in T:
                continue
            T.add(u)
            stack.extend(w for w in out_nbrs[u] if w not in T)
        t_sizes.append(len(T))
        for w in sorted(T, key=lambda u: (-spec.psi[u], u)):
            if w in phi:
                continue
            if spec.psi[w] == a:
                ok = place(w, (C, a), [])
            else:
                targets = [phi[u] for u in out_nbrs[w] if u in phi]
                ok = place(w, (other(C), spec.psi[w]), targets)
            if not ok:
                incomplete = True
                return True
        return True

    def fresh_top_vertex(shade_index):
        for v in range(H.n):
            if spec.psi[v] != a or v in phi:
                continue
            if kappa[comp_of[v]] != shade_index:
                continue
            if all(w not in phi for w in adj[v]):
                return v
        return None

    def consume(comp):
        nonlocal incomplete
        if isinstance(comp, IsolatedVertex):
            if comp.v in used:
                return True  # already covered by a regular image
            w = fresh_top_vertex(comp.shade_index)
            if w is None:
                return False
            phi[w] = comp.v
            used.add(comp.v)
            return True
        ci, _ = comp.shade_pair
        for cid, template in sorted(spec.templates.items()):
            if kappa[cid] != ci:
                continue
            tset = sorted(template)
            nbhd = sorted(neighborhood(adj, tset))
            if any(u in phi for u in tset) or any(u in phi for u in nbhd):
                continue
            xs, ys = sorted(comp.X), sorted(comp.Y)
            for u, x in zip(tset, xs):
                phi[u] = x
                used.add(x)
            for u, y in zip(nbhd, ys):
                phi[u] = y
                used.add(y)
            reserved.difference_update(comp.vertices())
            for y in ys[len(nbhd):]:
                w = fresh_top_vertex(ci)
                if w is None:
                    incomplete = True
                    break
                phi[w] = y
                used.add(y)
            return True
        return False

    pending = list(W.components)
    steps = 0
    turn_vertex = True
    idle = 0
    while steps < budget and idle < 2 and not incomplete:
        did = False
        if turn_vertex:
            did = vertex_op()
        else:
            for comp in pending:
                if consume(comp):
                    pending.remove(comp)
                    consumed.append(comp)
                    did = True
                    break
        turn_vertex = not turn_vertex
        if did:
            steps += 1
            idle = 0
        else:
            idle += 1

    return EmbeddingState(color=C, a=a, phi=phi, kappa=kappa, comp_of=comp_of,
                          shading=sh, consumed=tuple(consumed),
                          incomplete=incomplete, steps=steps,
                          t_set_sizes=tuple(t_sizes))


def verify_embedding(state: EmbeddingState, chi, spec: HPrefixSpec, W):
    """Check injectivity, monochromatic edge images, the three progress
    conditions (on mapped vertices with unmapped neighbors), and containment
    of every consumed backbone component in the image; reports the image's
    density at the full host prefix."""
    failures = []
    H = spec.graph()
    adj = H.adjacency()
    a = state.a
    C = state.color
    sh = state.shading
    phi = state.phi

    if len(set(phi.values())) != len(phi):
        failures.append("phi is not injective")
    for u, v in H.edges:
        if u in phi and v in phi and chi.color(phi[u], phi[v]) != C:
            failures.append(f"edge {(u, v)} maps to a non-{C} edge")

    for v, x in phi.items():
        undef = [u for u in adj[v] if u not in phi]
        if not undef:
            continue
        k = state.kappa[state.comp_of[v]]
        shade = sh.shade_of(x)
        if k != a:
            if shade != (C, k):
                failures.append(f"vertex {v}: image shade {shade} != {(C, k)}")
        elif spec.psi[v] == a:
            if shade != (C, a):
                failures.append(f"vertex {v}: image shade {shade} != {(C, a)}")
        else:
            if shade != (other(C), spec.psi[v]):
                failures.append(f"vertex {v}: image shade {shade} != opposite {spec.psi[v]}")
            if any(spec.psi[u] >= spec.psi[v] for u in undef):
                failures.append(f"vertex {v}: an unmapped neighbor has psi >= psi(v)")

    image = set(phi.values())
    for comp in state.consumed:
        if not comp.vertices() <= image:
            failures.append("a consumed component is not inside the image")
            break

    density_report = density(sorted(image), chi.n, (chi.n,)) if image else None
    return EmbedReport(passed=not failures, failures=tuple(failures),
                       density=density_report)
