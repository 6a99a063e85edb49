"""Edge colorings of complete graphs, extremal constructions, and shadings.

Three coloring rules: leftmost-endpoint (edges inherit the color of their
lower-indexed endpoint, driven by a list of vertex colors), modular (an edge
uv is red iff a-1 divides v-u, whose red graph is a-1 disjoint cliques), and
explicit matrices.  On top of these: the adversarial left-to-right coloring
steered by a 1-Lipschitz function, finite density reports, the shade
assignment algorithm producing 2a+1 vertex classes with large monochromatic
common neighborhoods, a sampling verifier for that property, and an
exhaustive toy oracle for the best achievable monochromatic embedding
density.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import VerificationError
from .lipschitz import GammaParam, gamma_crossings

RED, BLUE = "R", "B"
COLORS = (RED, BLUE)


def other(color):
    return BLUE if color == RED else RED


@dataclass(frozen=True)
class TwoColoring:
    """Red/blue edge coloring of the complete graph on vertices 0..n-1.

    rule is one of "leftmost" (requires vertex_colors), "modular" (requires
    modulus a >= 2) or "explicit" (requires red_edges).  vertex_colors may
    also accompany modular/explicit colorings when a total coloring is needed.
    """

    n: int
    rule: str
    vertex_colors: tuple | None = None
    modulus: int | None = None
    red_edges: frozenset | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.vertex_colors is not None:
            vc = tuple(self.vertex_colors)
            object.__setattr__(self, "vertex_colors", vc)
            if len(vc) != self.n or any(c not in COLORS for c in vc):
                raise ValueError("vertex_colors must be n entries of R/B")
        if self.rule == "leftmost":
            if self.vertex_colors is None:
                raise ValueError("leftmost rule requires vertex colors")
        elif self.rule == "modular":
            if self.modulus is None or self.modulus < 2:
                raise ValueError("modular rule requires a >= 2")
        elif self.rule == "explicit":
            if self.red_edges is None:
                raise ValueError("explicit rule requires red_edges")
            red = frozenset((min(u, v), max(u, v)) for u, v in self.red_edges)
            object.__setattr__(self, "red_edges", red)
            for u, v in red:
                if not (0 <= u < v < self.n):
                    raise ValueError("red edge out of range")
        else:
            raise ValueError(f"unknown rule {self.rule!r}")

    def color(self, u, v):
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("need two distinct vertices in range")
        if self.rule == "leftmost":
            return self.vertex_colors[min(u, v)]
        if self.rule == "modular":
            return RED if (v - u) % (self.modulus - 1) == 0 else BLUE
        return RED if (min(u, v), max(u, v)) in self.red_edges else BLUE

    def vertex_color(self, v):
        if self.vertex_colors is None:
            raise ValueError("coloring has no vertex colors")
        return self.vertex_colors[v]

    def neighbor_sets(self, color):
        """Precomputed color-neighborhood sets, one per vertex."""
        return [{w for w in range(self.n) if w != v and self.color(v, w) == color}
                for v in range(self.n)]

    def to_text(self):
        if self.rule == "leftmost":
            return f"{self.n} leftmost\n{''.join(self.vertex_colors)}\n"
        if self.rule == "modular":
            return f"{self.n} modular:{self.modulus}\n"
        chars = []
        for u in range(self.n):
            for v in range(u + 1, self.n):
                chars.append(self.color(u, v))
        return f"{self.n} explicit\n{''.join(chars)}\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty coloring text")
        n_str, rule = lines[0].split()
        n = int(n_str)
        if rule in ("leftmost", "explicit") and len(lines) < 2:
            raise ValueError(f"{rule} coloring has no color line")
        if rule == "leftmost":
            return cls(n, "leftmost", vertex_colors=tuple(lines[1].strip()))
        if rule.startswith("modular:"):
            return cls(n, "modular", modulus=int(rule.split(":")[1]))
        if rule == "explicit":
            chars = lines[1].strip()
            if len(chars) != n * (n - 1) // 2:
                raise ValueError(f"explicit coloring of {n} vertices needs "
                                 f"{n * (n - 1) // 2} edge colors, got {len(chars)}")
            red = set()
            k = 0
            for u in range(n):
                for v in range(u + 1, n):
                    if chars[k] == RED:
                        red.add((u, v))
                    k += 1
            return cls(n, "explicit", red_edges=frozenset(red))
        raise ValueError(f"unknown rule {rule!r}")


def clique_coloring(a, n):
    """Edge uv red iff a-1 divides v-u: the red graph is a-1 disjoint cliques
    (residue classes) and the blue graph is properly (a-1)-colorable."""
    if a < 2:
        raise ValueError("a must be at least 2")
    return TwoColoring(n, "modular", modulus=a)


@dataclass(frozen=True)
class DensityReport:
    """Prefix occupation ratios |S cap [m]| / m at the requested checkpoints."""

    checkpoints: tuple
    max_ratio: Fraction


def density(S, n, checkpoints):
    """Finite upper-density surrogate of S inside {0..n-1}: ratios at the
    given checkpoints and their maximum."""
    members = sorted(set(S))
    if members and not 0 <= members[0] <= members[-1] < n:
        raise ValueError("S must lie in range")
    rows = []
    for m in checkpoints:
        if not 1 <= m <= n:
            raise ValueError("checkpoints must lie in 1..n")
        count = sum(1 for v in members if v < m)
        rows.append((m, Fraction(count, m)))
    return DensityReport(tuple(rows), max(r for _, r in rows))


@dataclass(frozen=True)
class AdversaryInstance:
    """Left-to-right adversarial coloring steered by a 1-Lipschitz function.

    Among the leftmost m vertices there are exactly floor((m + g(m))/2) red
    ones; edges take the color of their leftmost endpoint.  alpha[i-1] is the
    least a such that the a-th red vertex has at most lam*(a - i) blue
    vertices to its left, beta is symmetric, and phi reorders the vertices
    so that each block {1..alpha_j+beta_j} consists of the first alpha_j reds
    and first beta_j blues.
    """

    s: int
    r: int
    n: int
    g: object
    vertex_colors: tuple
    red_positions: tuple
    blue_positions: tuple
    alpha: tuple
    beta: tuple
    phi: tuple

    @property
    def lam(self):
        return Fraction(self.s, self.r)

    @property
    def gamma_param(self):
        return GammaParam.from_lambda(float(self.lam))

    @property
    def coloring(self):
        return TwoColoring(self.n, "leftmost", vertex_colors=self.vertex_colors)

    def permuted_coloring(self):
        """Coloring where the edge ij takes the color of phi(i)phi(j)."""
        base = self.coloring
        red = frozenset((i, j) for i in range(self.n) for j in range(i + 1, self.n)
                        if base.color(self.phi[i], self.phi[j]) == RED)
        return TwoColoring(self.n, "explicit", red_edges=red,
                           vertex_colors=tuple(self.vertex_colors[self.phi[i]]
                                               for i in range(self.n)))


def _red_prefix_counts(g, n):
    """floor((m + g(m))/2) for m = 1..n: the number of red vertices among
    the leftmost m."""
    ys = g.values_at([float(m) for m in range(1, n + 1)])
    return [math.floor((m + y) / 2 + 1e-12) for m, y in zip(range(1, n + 1), ys)]


def _positions(colors, color):
    """Indices of the vertices of one color, in increasing order."""
    return tuple(i for i, c in enumerate(colors) if c == color)


def _left_counts(positions):
    """left[a-1] = vertices of the other color left of the a-th vertex in
    positions (which lists one color's vertices in increasing order)."""
    return [p - k for k, p in enumerate(positions)]


def _min_indices(left, s, r, count):
    """alpha_i for i = 1..count: least a with left[a-1] <= (s/r)*(a-i),
    tested as the integer inequality r*left[a-1] <= s*(a-i) and scanned
    incrementally (the valid set only shrinks as i grows)."""
    out = []
    a = 1
    m = len(left)
    for i in range(1, count + 1):
        while a <= m and r * left[a - 1] > s * (a - i):
            a += 1
        if a > m:
            break
        out.append(a)
    return out


def _joint_prefix(alpha, beta, n):
    """Number of leading indices j with alpha_j + beta_j <= n: the phi
    blocks that exist."""
    joint = 0
    for a_j, b_j in zip(alpha, beta):
        if a_j + b_j > n:
            break
        joint += 1
    return joint


def adversary(s, r, g, n):
    """Build the adversarial instance for lam = s/r on n vertices, steered by
    the 1-Lipschitz PLFunction g."""
    if n < 4:
        raise ValueError("n must be at least 4")
    for name, v in (("s", s), ("r", r)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    reds_so_far = 0
    colors = []
    for target in _red_prefix_counts(g, n):
        step = target - reds_so_far
        if step not in (0, 1):
            raise ValueError("g is not 1-Lipschitz along integers")
        colors.append(RED if step == 1 else BLUE)
        reds_so_far = target
    red_pos, blue_pos = _positions(colors, RED), _positions(colors, BLUE)

    alpha = tuple(_min_indices(_left_counts(red_pos), s, r, n))
    beta = tuple(_min_indices(_left_counts(blue_pos), s, r, n))

    # alpha and beta are non-decreasing, so the blocks are nested and block
    # j adds exactly the reds a_{j-1}..a_j - 1 and the blues b_{j-1}..b_j - 1
    joint = _joint_prefix(alpha, beta, n)
    phi = []
    a_prev = b_prev = 0
    for a_j, b_j in zip(alpha[:joint], beta[:joint]):
        phi += sorted(red_pos[a_prev:a_j] + blue_pos[b_prev:b_j])
        a_prev, b_prev = a_j, b_j
        if len(phi) != a_j + b_j:
            raise VerificationError("phi block sizes are inconsistent")
    phi += sorted(red_pos[a_prev:] + blue_pos[b_prev:])

    inst = AdversaryInstance(s=s, r=r, n=n, g=g, vertex_colors=tuple(colors),
                             red_positions=red_pos, blue_positions=blue_pos,
                             alpha=alpha, beta=beta, phi=tuple(phi))
    problems = verify_adversary(inst)
    if problems:
        raise VerificationError("adversary invariants fail: " + "; ".join(problems))
    return inst


def _prefix_reach(where, positions):
    """reach[k] = largest phi position among positions[:k] (-1 when k = 0)."""
    return list(accumulate(map(where.__getitem__, positions), max, initial=-1))


def verify_adversary(inst):
    """Re-check every structural invariant; returns a list of violations."""
    problems = []
    s, r, n = inst.s, inst.r, inst.n
    g = inst.g
    reds = 0
    for m, target in enumerate(_red_prefix_counts(g, n), start=1):
        if inst.vertex_colors[m - 1] == RED:
            reds += 1
        if reds != target:
            problems.append(f"red prefix count wrong at m={m}")
            break
    red_pos, blue_pos = inst.red_positions, inst.blue_positions
    if _positions(inst.vertex_colors, RED) != red_pos:
        problems.append("red positions inconsistent")
    if _positions(inst.vertex_colors, BLUE) != blue_pos:
        problems.append("blue positions inconsistent")

    def check_min(indices, left, name):
        prev = 1
        for i, a_i in enumerate(indices, start=1):
            if not 1 <= a_i <= len(left):
                problems.append(f"{name}_{i} = {a_i} is out of range")
                continue
            if r * left[a_i - 1] > s * (a_i - i):
                problems.append(f"{name}_{i} does not satisfy its inequality")
            # minimality: everything in [prev, a_i) fails for i; anything below
            # prev already failed for i-1 and the valid set only shrinks
            for a in range(prev, a_i):
                if r * left[a - 1] <= s * (a - i):
                    problems.append(f"{name}_{i} = {a_i} is not minimal (a={a} works)")
                    break
            prev = a_i

    check_min(inst.alpha, _left_counts(red_pos), "alpha")
    check_min(inst.beta, _left_counts(blue_pos), "beta")

    if any(b2 <= b1 for b1, b2 in zip(inst.beta, inst.beta[1:])):
        problems.append("beta is not strictly increasing")

    # Block j asks set(phi[:k]) == reds[:a_j] | blues[:b_j] with k = a_j + b_j.
    # When phi is a permutation and the positions partition the vertices,
    # both sides have k elements, so the block matches exactly when every
    # vertex it wants sits before position k in phi.
    phi = inst.phi
    everything = list(range(n))
    is_perm = sorted(phi) == everything
    reach = None
    if is_perm and sorted([*red_pos, *blue_pos]) == everything:
        where = [0] * n
        for k, v in enumerate(phi):
            where[v] = k
        reach = (_prefix_reach(where, red_pos), _prefix_reach(where, blue_pos))
    for j in range(_joint_prefix(inst.alpha, inst.beta, n)):
        a_j, b_j = inst.alpha[j], inst.beta[j]
        k = a_j + b_j
        if reach and 0 <= a_j <= len(red_pos) and 0 <= b_j <= len(blue_pos):
            ok = max(reach[0][a_j], reach[1][b_j]) < k
        else:
            ok = set(phi[:k]) == set(red_pos[:a_j]) | set(blue_pos[:b_j])
        if not ok:
            problems.append(f"phi block {j + 1} mismatch")
    if not is_perm:
        problems.append("phi is not a permutation")
    return problems


def adversary_bound_chain(inst, i_min=50, tol=1e-6):
    """Check alpha_i <= (1-gamma) z+ / 2 + w/2 and the symmetric +2 bound for
    beta_i at every index i >= i_min with alpha_i + beta_i <= n; returns
    violations (an infinite crossing means g was built too small for n).

    The levels w grow with i, so each sign's crossings come from one sweep
    over the tilted breakpoints."""
    p = inst.gamma_param
    lam = float(inst.lam)
    gamma = p.gamma
    problems = []
    indices = range(i_min, _joint_prefix(inst.alpha, inst.beta, inst.n) + 1)
    ws = [(2 / (1 + lam)) * (lam * i + 2 * lam + 2) for i in indices]
    zps = gamma_crossings(inst.g, p, ws, 1)
    zms = gamma_crossings(inst.g, p, ws, -1)
    for i, w, zp, zm in zip(indices, ws, zps, zms):
        if not (math.isfinite(zp) and math.isfinite(zm)):
            problems.append(f"crossing infinite at i={i}")
            continue
        if inst.alpha[i - 1] > (1 - gamma) * zp / 2 + w / 2 + tol:
            problems.append(f"alpha bound fails at i={i}")
        if inst.beta[i - 1] > (1 - gamma) * zm / 2 + w / 2 + 2 + tol:
            problems.append(f"beta bound fails at i={i}")
    return problems


@dataclass(frozen=True)
class Shading:
    """Assignment of each vertex to a shade R_1..R_a, B_1..B_a or X.

    assignment[v] is (color, index) with color "R"/"B" and 1 <= index <= a,
    or ("X", 0).  min_count records the surrogate floor used at construction
    time (the verifier's pass threshold).
    """

    a: int
    assignment: tuple
    min_count: int
    theta: float = 0.0

    def members(self, color, index):
        return [v for v, sh in enumerate(self.assignment) if sh == (color, index)]

    def residual(self):
        return [v for v, sh in enumerate(self.assignment) if sh[0] == "X"]

    def nonempty_shades(self, color):
        return sorted({idx for c, idx in self.assignment if c == color})

    def shade_of(self, v):
        return self.assignment[v]


def a_good_shading(chi, a, theta, min_count):
    """Shade-assigning algorithm with a finite surrogate for "infinite":
    a set counts as large when it has at least max(theta * |pool|, min_count)
    members.

    Each round colors the unshaded vertices greedily (every vertex takes the
    color keeping the running common neighborhood large, preferring the
    larger survivor, ties toward red), then freezes the dominant color as the
    next shade of that color.  Reaching shade a-1 dumps the rest into the
    opposite color's shade a; too-small pools and leftovers end in X.
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if not 0 < theta < 0.5:
        raise ValueError("theta must lie in (0, 1/2)")
    n = chi.n
    red_nb = chi.neighbor_sets(RED)
    blue_nb = chi.neighbor_sets(BLUE)
    shades = [None] * n
    used = {RED: set(), BLUE: set()}
    remaining = list(range(n))
    for _ in range(2 * a - 3):
        if len(remaining) < min_count:
            break
        pool = remaining
        tau = max(math.ceil(theta * len(pool)), min_count)
        K = set(pool)
        col = {}
        for v in pool:
            kr = (K & red_nb[v]) - {v}
            kb = (K & blue_nb[v]) - {v}
            r_ok, b_ok = len(kr) >= tau, len(kb) >= tau
            if r_ok and not b_ok:
                pick = RED
            elif b_ok and not r_ok:
                pick = BLUE
            else:
                pick = RED if len(kr) >= len(kb) else BLUE
            col[v] = pick
            K = kr if pick == RED else kb
        counts = {c: sum(1 for u in K if col[u] == c) for c in COLORS}
        dom = RED if counts[RED] >= counts[BLUE] else BLUE
        idx = next(i for i in range(1, a + 1) if i not in used[dom])
        used[dom].add(idx)
        for v in pool:
            if col[v] == dom:
                shades[v] = (dom, idx)
        remaining = [v for v in pool if col[v] != dom]
        if idx == a - 1:
            oth = other(dom)
            used[oth].add(a)
            for v in remaining:
                shades[v] = (oth, a)
            remaining = []
            break
    for v in remaining:
        shades[v] = ("X", 0)
    return Shading(a=a, assignment=tuple(shades), min_count=min_count, theta=theta)


@dataclass(frozen=True)
class ShadingReport:
    """Sampling verification of the large-common-neighborhood properties."""

    min_count_found: int | None
    samples: int
    passed: bool
    failures: tuple


def verify_shading(chi, sh, sample_size, subset_cap, seed):
    """Sample finite subsets S per property and count common color-C
    neighbors in the target shade.

    Property one: S inside C_i, targets C_i itself.  Property two: S inside
    C_a together with the higher opposite shades, targets the opposite
    color's shade i (the common neighborhoods the embedding consumes).
    Passes iff the smallest count found is at least the construction floor.
    """
    rng = random.Random(seed)
    nb = {RED: chi.neighbor_sets(RED), BLUE: chi.neighbor_sets(BLUE)}
    min_found = None
    samples = 0
    failures = []

    def common_count(S, color, target):
        common = set(target) - set(S)
        for v in S:
            common &= nb[color][v]
        return len(common)

    for color in COLORS:
        for i in range(1, sh.a):
            same = sh.members(color, i)
            upper = list(sh.members(color, sh.a))
            for j in range(i + 1, sh.a):
                upper += sh.members(other(color), j)
            cases = []
            if same:
                cases.append((same, same, "within-shade"))
            opp_target = sh.members(other(color), i)
            if upper and opp_target:
                cases.append((upper, opp_target, "upper-into-opposite"))
            for pool, target, label in cases:
                for _ in range(sample_size):
                    k = rng.randint(1, min(subset_cap, len(pool)))
                    S = rng.sample(pool, k)
                    cnt = common_count(S, color, target)
                    samples += 1
                    if min_found is None or cnt < min_found:
                        min_found = cnt
                    if cnt < sh.min_count:
                        failures.append((color, i, label, tuple(sorted(S)), cnt))
    return ShadingReport(min_count_found=min_found, samples=samples,
                         passed=not failures, failures=tuple(failures))


def max_embedding_density_bruteforce(chi, family, h_size, colors=COLORS):
    """Exhaustive toy oracle: best density of a monochromatic injective copy
    of prefix(family, h_size) inside the colored host.

    The density of an image is |image| / (max(image) + 1), the occupation of
    the shortest host prefix containing it.  Returns (best, color); ties keep
    the earlier color in ``colors``.
    """
    if chi.n > 14:
        raise ValueError("host too large for exhaustive search")
    if h_size > chi.n:
        raise ValueError("pattern larger than host")
    H = family.prefix(h_size)
    adj = H.adjacency()
    best = Fraction(0)
    best_color = None
    for color in colors:
        host_ok = [[chi.color(u, v) == color if u != v else False
                    for v in range(chi.n)] for u in range(chi.n)]
        image = [None] * h_size
        used = [False] * chi.n

        def rec(v):
            nonlocal best, best_color
            if v == h_size:
                dens = Fraction(h_size, max(image) + 1)
                if dens > best:
                    best, best_color = dens, color
                return
            for x in range(chi.n):
                if used[x]:
                    continue
                if all(image[u] is None or host_ok[x][image[u]] for u in adj[v]):
                    image[v] = x
                    used[x] = True
                    rec(v + 1)
                    image[v] = None
                    used[x] = False

        rec(0)
    return best, best_color
