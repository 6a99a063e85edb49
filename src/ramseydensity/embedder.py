"""Monochromatic embedding machinery: backbone structures and the embedding
algorithm.

A backbone (WStructure) for color C is a vertex-disjoint union of isolated
C-shaded host vertices and complete bipartite pieces whose edges are all
color C, the size-s side C-shaded and the size-r side oppositely shaded,
each piece using one shade of each color.  The embedding algorithm maps a
prefix of an infinite pattern graph into the colored host so that every
edge lands on a color-C host edge, absorbing backbone components along the
way: pieces absorb designated doubly independent template sets together
with their neighborhoods, isolated vertices absorb fresh top-color pattern
vertices, and everything else is placed greedily inside the shade dictated
by the component's shade assignment, relying on the large common
neighborhoods the shading guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle
from types import MappingProxyType

from .colorings import COLORS, other, density
from .families import FiniteGraph, OmegaFactor, components, neighborhood

_PIECE_WINDOW = 64  # the Y-candidates a piece search looks ahead over


@dataclass(frozen=True)
class BipartitePiece:
    """Complete color-C bipartite piece: X is the size-r side shaded in the
    opposite color, Y the size-s side shaded in C; shade_pair holds
    (C shade index, opposite shade index)."""

    X: tuple
    Y: tuple
    shade_pair: tuple

    def vertices(self):
        return set(self.X) | set(self.Y)


@dataclass(frozen=True)
class IsolatedVertex:
    v: int
    shade_index: int

    def vertices(self):
        return {self.v}


@dataclass(frozen=True)
class WStructure:
    """Backbone for coloring chi, shading sh and piece sizes r, s, checked by
    validate_w once, at construction; equality is (color, components)."""

    color: str
    components: tuple
    chi: object = field(repr=False, compare=False)
    sh: object = field(repr=False, compare=False)
    r: int = field(compare=False)
    s: int = field(compare=False)

    def __post_init__(self):
        validate_w(self.chi, self.sh, self, self.r, self.s)

    def vertices(self):
        out = set()
        for comp in self.components:
            out |= comp.vertices()
        return out

    def pieces(self):
        return [c for c in self.components if isinstance(c, BipartitePiece)]

    def density_surrogate(self, n):
        return Fraction(len(self.vertices()), n)


def validate_w(chi, sh, W, r, s):
    """Check every backbone invariant against the host coloring and shading."""
    seen = set()
    for comp in W.components:
        vs = comp.vertices()
        if not all(0 <= v < chi.n for v in vs):
            raise ValueError("backbone vertex outside the host")
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
            if len(vs) != r + s:  # X and Y lie in different shades
                raise ValueError("piece side repeats a vertex")
            ys = sum(1 << y for y in comp.Y)
            for x in comp.X:
                if ys & ~chi.neighbor_mask(x, W.color):
                    raise ValueError("piece edge has the wrong color")


def _find_piece(nb, xs_pool, ys_pool, r, s, window):
    """Lowest complete color-C piece (nb holds the C-neighbor masks): choose
    s Y-vertices ascending with bounded lookahead so that their common mask
    keeps at least r of the ascending X-pool; X is the lowest r, or None.
    A branch stops where too few candidates are left to complete s."""
    ys_pool = ys_pool[:window]

    def rec(chosen, common, start):
        if len(chosen) == s:
            return [x for x in xs_pool if common >> x & 1][:r], list(chosen)
        for k in range(start, len(ys_pool) - s + len(chosen) + 1):
            y = ys_pool[k]
            new_common = common & nb[y]
            if new_common.bit_count() >= r:
                got = rec(chosen + [y], new_common, k + 1)
                if got is not None:
                    return got
        return None

    return rec([], sum(1 << x for x in xs_pool), 0)


def build_W(chi, sh, r, s, max_pieces=None):
    """Greedy backbone packing: for each color and each shade pair, pack
    disjoint complete pieces (exhaustive search per piece over a bounded
    candidate window, optionally capped), then add every unused vertex of the
    color as an isolated component; keep the color with the denser result
    (ties red)."""
    best = None  # (vertex count, color, components)
    for color in COLORS:
        nb = chi.neighbor_sets(color)
        taken = set()
        comps = []
        pieces = 0
        for ci in sh.nonempty_shades(color):
            for cj in sh.nonempty_shades(other(color)):
                while max_pieces is None or pieces < max_pieces:
                    ys_pool = [v for v in sh.members(color, ci) if v not in taken]
                    xs_pool = [v for v in sh.members(other(color), cj) if v not in taken]
                    if len(ys_pool) < s or len(xs_pool) < r:
                        break
                    got = _find_piece(nb, xs_pool, ys_pool, r, s, _PIECE_WINDOW)
                    if got is None:
                        break
                    X, Y = got
                    comps.append(BipartitePiece(tuple(X), tuple(Y), (ci, cj)))
                    taken |= set(X) | set(Y)
                    pieces += 1
        for ci in sh.nonempty_shades(color):
            for v in sh.members(color, ci):
                if v not in taken:
                    comps.append(IsolatedVertex(v, ci))
        comps.sort(key=lambda c: min(c.vertices()))
        size = sum(len(c.vertices()) for c in comps)
        if best is None or size > best[0]:
            best = size, color, tuple(comps)
    _, color, comps = best
    return WStructure(color, comps, chi, sh, r, s)


@dataclass(frozen=True)
class HPrefixSpec:
    """A prefix of an infinite pattern graph plus embedding metadata: a proper
    coloring psi into 1..a, one doubly independent template per component
    (|I| = r, |N(I)| <= s, psi constant a on N(I)), and the component floor b.
    Construction freezes psi and the templates, then builds the prefix graph,
    its adjacency and its components and validates, once per spec; validate
    keeps (id, sorted I, sorted N(I)) per template, by id, in template_sets."""

    family: object
    size: int
    psi: tuple
    templates: MappingProxyType  # any mapping cid -> template; stored read-only
    r: int
    s: int
    b: int = 1
    adj: tuple = field(init=False, repr=False, compare=False)
    comps: tuple = field(init=False, repr=False, compare=False)
    template_sets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = self.family.prefix(self.size)
        adj = tuple(map(frozenset, H.adjacency()))
        comps = tuple(map(frozenset, components(adj, range(H.n))))
        templates = {cid: tuple(t) for cid, t in self.templates.items()}
        for name, value in (("psi", tuple(self.psi)), ("templates", MappingProxyType(templates)),
                            ("_prefix", H), ("adj", adj), ("comps", comps)):
            object.__setattr__(self, name, value)
        self.validate()

    def graph(self):
        return self._prefix

    def validate(self):
        H = self.graph()
        a = max(self.psi)
        if len(self.psi) != self.size:
            raise ValueError("psi must color every prefix vertex")
        for u, v in H.edges:
            if self.psi[u] == self.psi[v]:
                raise ValueError("psi is not a proper coloring")
        template_sets = []
        for cid, template in self.templates.items():
            if cid not in range(len(self.comps)):
                raise ValueError(f"template key {cid!r} is not in 0..{len(self.comps) - 1}")
            tset = set(template)
            if len(tset) != len(template):
                raise ValueError("template repeats a vertex")
            if len(tset) != self.r:
                raise ValueError("template size differs from r")
            if not tset <= self.comps[cid]:
                raise ValueError("template leaves its component")
            if any(self.adj[v] & tset for v in tset):
                raise ValueError("template is not independent")
            nbhd = neighborhood(self.adj, tset)
            if len(nbhd) > self.s:
                raise ValueError("template neighborhood exceeds s")
            if any(self.adj[v] & nbhd for v in nbhd):
                raise ValueError("template is not doubly independent")
            if any(self.psi[w] != a for w in nbhd):
                raise ValueError("template neighborhood not colored a")
            template_sets.append((cid, tuple(sorted(tset)), tuple(sorted(nbhd))))
        object.__setattr__(self, "template_sets", tuple(sorted(template_sets)))
        return a

    @classmethod
    def omega_factor(cls, factor: FiniteGraph, copies, base_template):
        """Spec for countably many copies of a finite graph: the template and
        the coloring of one copy replicated; N(I) gets the top color a and the
        remaining vertices a greedy proper coloring below it."""
        fam = OmegaFactor(factor)
        tset = sorted(set(base_template))
        adj = fam._adj
        nbhd = neighborhood(adj, tset)
        rest = [v for v in range(factor.n) if v not in nbhd]
        base_psi = {}
        for v in rest:
            taken = {base_psi[w] for w in adj[v] if w in base_psi}
            base_psi[v] = next(k for k in range(1, factor.n + 2) if k not in taken)
        a = max(base_psi.values(), default=0) + 1
        for v in nbhd:
            base_psi[v] = a
        psi = tuple(base_psi[v % factor.n] for v in range(copies * factor.n))
        templates = {cid: tuple(v + cid * factor.n for v in tset)
                     for cid in range(copies)}
        return cls(family=fam, size=copies * factor.n, psi=psi,
                   templates=templates, r=len(tset), s=len(nbhd))


@dataclass
class EmbeddingState:
    """Partial injective map from pattern vertices to host vertices, plus the
    bookkeeping needed to verify the progress conditions."""

    color: str
    a: int
    phi: dict
    kappa: dict
    comp_of: dict
    shading: object
    consumed: tuple
    incomplete: bool
    steps: int
    t_set_sizes: tuple

    def to_json_dict(self):
        return {"pairs": sorted([int(v), int(x)] for v, x in self.phi.items()),
                "color": self.color,
                "consumed_components": len(self.consumed),
                "incomplete": self.incomplete}


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

    The host vertices no regular image may take are one set, ``taken``: the
    images so far and the vertices of every piece, consumed or not, so an
    unconsumed piece stays whole.  An isolated backbone vertex is not in it
    until some image covers it, and is then already absorbed.  Each operation
    returns None when it had nothing to do, else whether its pools sufficed.
    """
    a = max(spec.psi)
    if a != sh.a:
        raise ValueError(f"psi uses {a} colors but the shading has a = {sh.a}")
    C = W.color
    if (W.chi, W.sh, W.r, W.s) != (chi, sh, spec.r, spec.s):
        validate_w(chi, sh, W, spec.r, spec.s)
    j_prime = sh.nonempty_shades(C)
    a_prime = max((len(sh.nonempty_shades(c)) for c in COLORS), default=0)
    if not (sh.a >= a_prime >= spec.b):
        raise ValueError("need a >= a' >= b")
    if not j_prime:
        raise ValueError("no nonempty shade of the backbone color")

    adj, comps, psi = spec.adj, spec.comps, spec.psi
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    kappa = {i: j_prime[i % len(j_prime)] for i in range(len(comps))}
    out_nbrs = {v: [w for w in adj[v] if psi[w] > psi[v]] for v in range(spec.size)}
    nb = chi.neighbor_sets(C)
    phi = {}
    taken = set()
    for piece in W.pieces():
        taken |= piece.vertices()
    t_sizes = []

    def assign(v, x):
        phi[v] = x
        taken.add(x)

    def place(v, pool_shade, require_adj_to):
        allowed = (1 << chi.n) - 1
        for t in require_adj_to:
            allowed &= nb[t]
        for x in sh.members(*pool_shade):
            if x not in taken and allowed >> x & 1:
                assign(v, x)
                return True
        return False

    def vertex_op():
        v = next((u for u in range(spec.size) if u not in phi), None)
        if v is None:
            return None
        k = kappa[comp_of[v]]
        if k != a:
            return place(v, (C, k), [phi[w] for w in adj[v] if w in phi])
        # top-shade component: map the out-reachable set, top psi first
        T = {v}
        stack = [v]
        while stack:
            for w in out_nbrs[stack.pop()]:
                if w not in T:
                    T.add(w)
                    stack.append(w)
        t_sizes.append(len(T))
        for w in sorted(T, key=lambda u: (-psi[u], u)):
            if w in phi:
                continue
            if psi[w] == a:
                ok = place(w, (C, a), [])
            else:
                ok = place(w, (other(C), psi[w]), [phi[u] for u in out_nbrs[w] if u in phi])
            if not ok:
                return False
        return True

    def fresh_top_vertex(shade_index):
        for v in range(spec.size):
            if psi[v] != a or v in phi:
                continue
            if kappa[comp_of[v]] != shade_index:
                continue
            if all(w not in phi for w in adj[v]):
                return v
        return None

    def absorb(comp):
        if isinstance(comp, IsolatedVertex):
            if comp.v in taken:
                return True  # already covered by a regular image
            w = fresh_top_vertex(comp.shade_index)
            if w is None:
                return None
            assign(w, comp.v)
            return True
        ci, _ = comp.shade_pair
        for cid, tset, nbhd in spec.template_sets:
            pattern = tset + nbhd
            if kappa[cid] != ci or any(u in phi for u in pattern):
                continue
            slots = sorted(comp.X) + sorted(comp.Y)
            for u, x in zip(pattern, slots):
                assign(u, x)
            for y in slots[len(pattern):]:
                w = fresh_top_vertex(ci)
                if w is None:
                    return False
                assign(w, y)
            return True
        return None

    def component_op():
        for comp in pending:
            outcome = absorb(comp)
            if outcome is not None:
                pending.remove(comp)
                consumed.append(comp)
                return outcome
        return None

    pending = list(W.components)
    consumed = []
    ops = cycle((vertex_op, component_op))
    steps = idle = 0
    outcome = None
    while steps < budget and idle < 2 and outcome is not False:
        outcome = next(ops)()
        if outcome is None:
            idle += 1
        else:
            steps += 1
            idle = 0

    return EmbeddingState(color=C, a=a, phi=phi, kappa=kappa, comp_of=comp_of,
                          shading=sh, consumed=tuple(consumed),
                          incomplete=outcome is False, steps=steps,
                          t_set_sizes=tuple(t_sizes))


@dataclass(frozen=True)
class EmbedReport:
    passed: bool
    failures: tuple
    density: object


def verify_embedding(state: EmbeddingState, chi, spec: HPrefixSpec, W):
    """Check injectivity, monochromatic edge images, the three progress
    conditions (on mapped vertices with unmapped neighbors), and containment
    of every consumed backbone component in the image; reports the image's
    density at the full host prefix."""
    failures = []
    H = spec.graph()
    adj = spec.adj
    a = state.a
    C = state.color
    sh = state.shading
    phi = state.phi

    if len(set(phi.values())) != len(phi):
        failures.append("phi is not injective")
    image = {x for x in phi.values() if 0 <= x < chi.n}
    if len(image) != len(set(phi.values())):
        failures.append(f"phi maps outside the host 0..{chi.n - 1}")
    for u, v in H.edges:
        if {phi.get(u), phi.get(v)} <= image and not chi.neighbor_mask(phi[u], C) >> phi[v] & 1:
            failures.append(f"edge {(u, v)} maps to a non-{C} edge")

    for v, x in phi.items():
        undef = [u for u in adj[v] if u not in phi]
        if not undef or x not in image:
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

    for comp in state.consumed:
        if not comp.vertices() <= image:
            failures.append("a consumed component is not inside the image")
            break

    density_report = density(sorted(image), chi.n, (chi.n,)) if image else None
    return EmbedReport(passed=not failures, failures=tuple(failures),
                       density=density_report)
