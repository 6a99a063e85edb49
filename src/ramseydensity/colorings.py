"""Edge colorings of complete graphs, extremal constructions, and shadings.

A coloring holds one red-neighbor bitmask per vertex (bit w of v's mask is
set iff vw is red; blue is the complement without v), built by one of three
rules: leftmost-endpoint (edges take the color of their lower endpoint; only
the red vertices' mask is kept), modular (uv red iff a-1 divides v-u) and
explicit.  On top of these: the adversarial left-to-right coloring steered by
a 1-Lipschitz function, finite density reports, the shade assignment
algorithm producing 2a+1 vertex classes with large monochromatic common
neighborhoods, a sampling verifier for that property, and an exhaustive toy
oracle for the best achievable monochromatic embedding density.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import le, lt, sub

from .errors import VerificationError, fields, shown

RED, BLUE = "R", "B"
COLORS = (RED, BLUE)
_CHAIN_TOL = 1e-6  # slack of adversary_bound_chain's float comparisons


def other(color):
    return BLUE if color == RED else RED


def _set_colors(obj, n):
    """Store obj.vertex_colors as a tuple and return them as one str,
    raising unless they are n entries of R/B."""
    colors = tuple(obj.vertex_colors)
    object.__setattr__(obj, "vertex_colors", colors)
    try:
        if len(colors) == n and set(colors) <= set(COLORS):
            return "".join(colors)
    except TypeError:           # an unhashable entry, or one equal to R or B but no str
        pass
    raise ValueError("vertex_colors must be n entries of R/B")


def _check_sizes(s, r, n):
    """Raise unless n is an int of at least 4 and s and r are positive ints
    (a bool is not an int here)."""
    for name, v, least, want in (("n", n, 4, "an integer of at least 4"),
                                 ("s", s, 1, "a positive integer"),
                                 ("r", r, 1, "a positive integer")):
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            raise ValueError(f"{name} must be {want}, got {v!r}")


@dataclass(frozen=True)
class TwoColoring:
    """Red/blue edge coloring of the complete graph on vertices 0..n-1.

    rule is one of "leftmost" (requires vertex_colors), "modular" (requires
    modulus a >= 2) or "explicit" (requires red_edges, vertex pairs read only
    at construction).  vertex_colors may also accompany modular/explicit
    colorings when a total coloring is needed.  Explicit and modular colorings
    store their n red-neighbor masks in red_masks, a leftmost one only the
    mask of its red vertices in red_vertices.  from_text reads an explicit
    colour line straight into red_masks, without a list of red pairs, and
    _from_masks takes masks a caller has built.
    """

    n: int
    rule: str
    vertex_colors: tuple | None = None
    modulus: int | None = None
    red_edges: InitVar[object] = None
    red_masks: tuple | None = field(init=False, default=None, repr=False)
    red_vertices: int = field(init=False, default=0, repr=False)

    def __post_init__(self, red_edges):
        n = self.n
        if n < 1:
            raise ValueError("n must be positive")
        if self.vertex_colors is not None:
            text = _set_colors(self, n)
        if self.rule == "leftmost":
            if self.vertex_colors is None:
                raise ValueError("leftmost rule requires vertex colors")
            object.__setattr__(self, "red_vertices", int(text[::-1].translate(_COLOR_BITS), 2))
            return
        if self.rule == "modular":
            if self.modulus is None or self.modulus < 2:
                raise ValueError("modular rule requires a >= 2")
            step = self.modulus - 1
            classes = [sum(1 << w for w in range(c, n, step)) for c in range(min(step, n))]
            masks = [classes[v % step] ^ (1 << v) for v in range(n)]
        elif self.rule == "explicit":
            if red_edges is None:
                raise ValueError("explicit rule requires red_edges")
            masks = [0] * n
            for u, v in red_edges:
                if u == v or not (0 <= u < n and 0 <= v < n):
                    raise ValueError("red edge out of range")
                masks[u] |= 1 << v
                masks[v] |= 1 << u
        else:
            raise ValueError(f"unknown rule {self.rule!r}")
        object.__setattr__(self, "red_masks", tuple(masks))

    def neighbor_mask(self, v, color):
        """Bitmask of the vertices w != v with color(v, w) == color."""
        full = (1 << self.n) - 1
        if self.red_masks is None:  # leftmost: the lower endpoint's color decides
            above = full >> (v + 1) << (v + 1) if self.red_vertices >> v & 1 else 0
            red = self.red_vertices & ((1 << v) - 1) | above
        else:
            red = self.red_masks[v]
        return red if color == RED else full ^ red ^ (1 << v)

    def color(self, u, v):
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError("need two distinct vertices in range")
        return RED if self.neighbor_mask(u, RED) >> v & 1 else BLUE

    def vertex_color(self, v):
        if self.vertex_colors is None:
            raise ValueError("coloring has no vertex colors")
        return self.vertex_colors[v]

    def neighbor_sets(self, color):
        """Color-neighborhood masks, one per vertex, in one pass over the
        stored red masks (a leftmost coloring asks neighbor_mask per vertex)."""
        if self.red_masks is None:
            return [self.neighbor_mask(v, color) for v in range(self.n)]
        if color == RED:
            return list(self.red_masks)
        full = (1 << self.n) - 1
        return [full ^ m ^ (1 << v) for v, m in enumerate(self.red_masks)]

    def to_text(self):
        if self.rule == "leftmost":
            return f"{self.n} leftmost\n{''.join(self.vertex_colors)}\n"
        if self.rule == "modular":
            return f"{self.n} modular:{self.modulus}\n"
        rows = "".join(format(self.red_masks[u] >> (u + 1), f"0{self.n - u - 1}b")[::-1]
                       for u in range(self.n - 1))
        return f"{self.n} explicit\n{rows.replace('1', RED).replace('0', BLUE)}\n"

    @classmethod
    def _from_masks(cls, n, masks, vertex_colors=None):
        """The explicit coloring with these red-neighbor masks, which the
        caller builds symmetric and without any vertex's own bit."""
        chi = cls(n, "explicit", vertex_colors=vertex_colors,
                  red_edges=())  # checks n and the colors; the masks come next
        object.__setattr__(chi, "red_masks", tuple(masks))
        return chi

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty coloring text")
        n, rule = fields("header", lines[0], "<n> <rule>", int, str)
        if rule == "leftmost" and len(lines) < 2:
            raise ValueError("leftmost coloring has no color line")
        if rule == "leftmost":
            chi = cls(n, "leftmost", vertex_colors=tuple(lines[1].strip()))
        elif rule.startswith("modular:"):
            chi = cls(n, "modular", modulus=modulus_of(rule, f"header {shown(lines[0])!r}"))
        elif rule == "explicit":
            chars = lines[1].strip() if len(lines) > 1 else ""  # n = 1 writes an empty line
            if len(chars) != n * (n - 1) // 2:
                raise ValueError(f"explicit coloring of {n} vertices needs "
                                 f"{n * (n - 1) // 2} edge colors, got {len(chars)}")
            if chars.count(RED) + chars.count(BLUE) != len(chars):
                raise ValueError("explicit coloring may only contain R and B")
            chi = cls._from_masks(n, _masks_from_upper_triangle(n, chars))
        else:
            raise ValueError(f"unknown rule {rule!r}")
        if len(lines) > (1 if chi.rule == "modular" else 2):
            where = "header" if chi.rule == "modular" else "color line"
            raise ValueError(f"{rule} coloring has extra lines after its {where}")
        return chi


def modulus_of(rule, where):
    """The a of the rule 'modular:<a>', written in decimal digits and at least
    2: the one reading of the rule for coloring files and rdl shade
    --coloring.  An error message starts with where, the place the rule came
    from."""
    modulus = rule.partition(":")[2]
    if not (modulus.isdecimal() and int(modulus) >= 2):
        raise ValueError(f"{where}: the modulus must be an integer at least 2")
    return int(modulus)


_COLOR_BITS = str.maketrans(RED + BLUE, "10")
_MASK_BLOCK = 512  # columns per block of _masks_from_upper_triangle


def _masks_from_upper_triangle(n, chars):
    """Red-neighbor masks from the colors of the pairs (u, v), u < v, listed
    row by row, as bits (red 1).  Row v gives mask v's bits above v; its
    bits below v are column v, read in blocks of up to _MASK_BLOCK columns
    lo..hi-1: rows 0 to hi-1 cut to those columns, padded on the left with
    zeros, form a grid of width hi - lo, so column v down to the diagonal is
    a strided slice of it.  Only one block's rows and grid are held at a
    time, not an n x n string."""
    starts = list(accumulate(range(n - 1, 0, -1), initial=0))  # row u's offset in chars
    masks = []
    for lo in range(0, n, _MASK_BLOCK):
        hi = min(lo + _MASK_BLOCK, n)
        width = hi - lo
        rows = [chars[s:s + n - u - 1].translate(_COLOR_BITS)
                for u, s in zip(range(lo, hi), starts[lo:hi])]
        grid = "".join([chars[s + lo - u - 1:s + hi - u - 1].translate(_COLOR_BITS)
                        for u, s in zip(range(lo), starts)]
                       + [row[:hi - u - 1].rjust(width, "0") for u, row in enumerate(rows, lo)])
        masks += [int((grid[v - lo:(v + 1) * width:width] + row)[::-1], 2)
                  for v, row in enumerate(rows, lo)]
    return tuple(masks)


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
    and first beta_j blues.  ``adversary`` lists each block's new vertices
    in increasing order.  alpha and beta are strictly increasing, so each
    block after the first adds at least one red and one blue; along a
    stretch of blocks that add exactly one of each, the next vertex of one
    run of each color, phi reads r, b, r+1, b+1, ... (r < b, or the other
    way round).

    Construction checks the shape: s and r positive ints, n an int of at
    least 4, n colors of R/B, int entries in alpha and beta, and phi a
    permutation of 0..n-1.  The positions of each color are derived from
    the colors, and the inverse of phi is kept for ``permuted_coloring``
    and for the verifier's per-block check.
    """

    s: int
    r: int
    n: int
    g: object
    vertex_colors: tuple
    alpha: tuple
    beta: tuple
    phi: tuple
    red_positions: tuple = field(init=False, repr=False, compare=False)
    blue_positions: tuple = field(init=False, repr=False, compare=False)
    _where: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n
        _check_sizes(self.s, self.r, n)
        is_red = _set_colors(self, n).encode().translate(_IS_RED)
        for name in ("alpha", "beta"):
            bad = _first_non_integer(name, getattr(self, name))
            if bad:
                raise ValueError(bad)
        where = _inverse(self.phi, n)
        if where is None:
            raise ValueError("phi is not a permutation of the vertices")
        object.__setattr__(self, "red_positions", _positions(is_red, 1))
        object.__setattr__(self, "blue_positions", _positions(is_red, 0))
        object.__setattr__(self, "_where", where)

    @property
    def lam(self):
        return Fraction(self.s, self.r)

    @property
    def gamma_param(self):
        from .lipschitz import GammaParam  # here, so that shading loads no lipschitz
        return GammaParam.from_lambda(float(self.lam))

    @property
    def coloring(self):
        return TwoColoring(self.n, "leftmost", vertex_colors=self.vertex_colors)

    def permuted_coloring(self):
        """Coloring where the edge ij takes the color of phi(i)phi(j).

        That edge is red iff the smaller of phi(i) and phi(j) is red, so the
        masks are built in one pass over u = phi(i) in increasing order: i's
        red neighbours are the positions of the red vertices below u, and
        when u is red also those of every vertex above u.
        """
        n, phi, colors = self.n, self.phi, self.vertex_colors
        full = (1 << n) - 1
        masks = [0] * n
        reds_below = upto = 0  # positions of the red vertices below u; of 0..u
        for u, i in enumerate(self._where):
            upto |= 1 << i
            if colors[u] == RED:
                masks[i] = reds_below | (full ^ upto)
                reds_below |= 1 << i
            else:
                masks[i] = reds_below
        return TwoColoring._from_masks(n, masks, tuple(colors[v] for v in phi))


def _count_pieces(g, n):
    """The red prefix counts floor((m + g(m))/2) for m = 1..n, the number of
    red vertices among the leftmost m, as (length, piece) for each piece of
    g in turn, the piece being what ``_piece_counts`` gives: a list, a range
    or a repeat.  g is walked with the arithmetic ``values_at`` applies to
    float(m), so every value evaluated is the same float.  The tail is the
    piece with run dx = 1.0: dividing by 1.0 changes no float."""
    bp, vals = g.breakpoints, g.values
    m = 1
    for lo in range(len(bp) - 1):
        stop = min(max(m, math.ceil(bp[lo + 1])), n + 1)
        x0, y0 = bp[lo], vals[lo]
        yield stop - m, _piece_counts(x0, y0, bp[lo + 1] - x0, vals[lo + 1] - y0, m, stop)
        m = stop
    yield n + 1 - m, _piece_counts(bp[-1], vals[-1], 1.0, g.tail_slope, m, n + 1)


def _red_prefix_counts(g, n):
    """The red prefix counts for m = 1..n as one list."""
    out = []
    for _, piece in _count_pieces(g, n):
        out += piece
    return out


_SLOPE_TOL = 1e-9           # how far F's slope may be from 0 or 1 for a bulk fill
_FILL_MARGIN = 2.0 ** -40   # E per unit of M; the rounding error stays under 2^-49 M


def _piece_counts(x0, y0, dx, dy, m, stop):
    """floor(F(x)) for the floats x of m..stop-1, where F(x) is
    (x + (y0 + dy * (x - x0) / dx)) / 2 + 1e-12 in floats: the red prefix
    counts on one piece of g, as a list, a range or a repeat.

    The slope of F is B = (1 + dy/dx)/2: 0 on a piece of slope -1, where
    the counts are one value c (a blue run), and 1 on a piece of slope 1,
    where they are x + c (a red run).  When B is within _SLOPE_TOL of k in
    {0, 1}, H(x) = F(x) - k*x in exact arithmetic on the float inputs is
    linear, so on the piece it lies between its values at the two ends.

    The margin E.  Let M = |x0| + |y0| + 2*stop + 2.  As 0 <= x - x0 < stop
    and |dy/dx| <= 1 + 2e-9, x - x0, the quotient, the two sums and F are at
    most 1.01*M in magnitude, and the product is the quotient times dx.
    The chain rounds seven times (x - x0, the product, the quotient, the
    two sums, the halving, which is exact above the subnormals, and the
    last sum), each by at most 2^-53 of one of those quantities (the
    product's error shrinks with the division by dx), so the chain is
    within 7 * 2^-53 * 1.01*M < 2^-50*M of F at every x.  Each end value,
    with one more rounding for subtracting k*x, is within 2^-49*M of H.
    E = 2^-40*M covers both and the rounding of lo and hi: when [lo, hi],
    the end values widened by E, holds no integer, the chain's value less
    k*x lies in it at every x, so every count is c + k*x with c = floor(lo).

    Any other piece (another slope, a range that meets an integer, an end
    value that is not finite, or fewer than three vertices) is evaluated
    vertex by vertex, so every value still evaluated is the float it was,
    and every error the same."""
    floor = math.floor
    slope = (1 + dy / dx) / 2
    k = slope > 0.5
    if stop - m > 2 and abs(slope - k) <= _SLOPE_TOL:  # two vertices cost what two ends do
        a, b = [(x + (y0 + dy * (x - x0) / dx)) / 2 + 1e-12 - k * x
                for x in (float(m), float(stop - 1))]
        e = _FILL_MARGIN * (abs(x0) + abs(y0) + 2 * stop + 2)
        lo, hi = min(a, b) - e, max(a, b) + e
        if hi - lo < 1:             # false unless both are finite
            c = floor(lo)
            if hi < c + 1:
                return range(m + c, stop + c) if k else repeat(c, stop - m)
    return [floor((x + (y0 + dy * (x - x0) / dx)) / 2 + 1e-12)
            for x in map(float, range(m, stop))]


def _left_counts(positions):
    """left[a-1] = vertices of the other color left of the a-th vertex in
    positions (which lists one color's vertices in increasing order)."""
    return list(map(sub, positions, range(len(positions))))


def _min_indices(left, s, r):
    """alpha_i for i = 1, 2, ...: least a with left[a-1] <= (s/r)*(a-i),
    tested as the integer inequality r*left[a-1] <= s*(a-i) and scanned
    incrementally (the valid set only shrinks as i grows).  a >= i, so the
    scan ends by i = len(left)."""
    out = []
    a = i = 1
    m = len(left)
    while True:
        while a <= m and r * left[a - 1] > s * (a - i):
            a += 1
        if a > m:
            return out
        out.append(a)
        i += 1


def _run_indices(bits, s, r):
    """alpha and beta of the coloring whose vertex v is red iff bits[v] is 1,
    read off its runs of one color.

    In a run the left count L of the run's color is constant, so its index a
    works for i iff a - i >= c = ceil(r*L/s), and a - c climbs by one per
    vertex; between runs c only grows.  alpha_i (beta_i) is the least a of
    its color with a - c >= i, so each run that lifts the running maximum
    of a - c adds one chunk of its first index and one chunk of consecutive
    indices."""
    out = ([], [])              # indexed by bit: beta, alpha
    seen = [0, 0]               # vertices of each color so far
    top = [0, 0]                # largest a - c so far, per color
    start, n = 0, len(bits)
    while start < n:
        bit = bits[start]
        stop = bits.find(bit ^ 1, start)
        if stop < 0:
            stop = n
        first, last = seen[bit] + 1, seen[bit] + stop - start
        c = -(-r * seen[bit ^ 1] // s)
        lo = top[bit] + 1
        if last - c >= lo:
            out[bit].extend(repeat(first, first - c - lo + 1))
            out[bit].extend(range(max(lo + c, first + 1), last + 1))
            top[bit] = last - c
        seen[bit] = last
        start = stop
    return tuple(out[1]), tuple(out[0])


def _rises(seq):
    """Whether seq is strictly increasing."""
    return all(map(lt, seq, seq[1:]))


def _joint_prefix(alpha, beta, n, rising=False):
    """Number of leading indices j with alpha_j + beta_j <= n: the phi
    blocks that exist.  When the caller knows alpha and beta to be strictly
    increasing (rising), so is alpha_j + beta_j, and the count is found by
    bisection; any other lists are walked."""
    if rising:
        return bisect_right(range(min(len(alpha), len(beta))), n,
                            key=lambda j: alpha[j] + beta[j])
    joint = 0
    for a_j, b_j in zip(alpha, beta):
        if a_j + b_j > n:
            break
        joint += 1
    return joint


def _stretch_end(alpha, beta, j, stop, red_pos=None, blue_pos=None):
    """The end e of the stretch that starts at index j < stop: the largest
    e <= stop such that alpha_t - t and beta_t - t are constant for
    j <= t < e and, when the positions are given, so are
    red_pos[alpha_t - 1] - alpha_t and blue_pos[beta_t - 1] - beta_t (the
    red and the blue vertex that index t names move by one per index, so
    they stay inside one run of their color).

    alpha and beta must be strictly increasing ints on j..stop-1, and the
    positions strictly increasing with alpha_t and beta_t naming entries of
    them.  Then each of those differences never decreases in t, so they all
    equal their values at j exactly on a prefix of j..stop-1, whose end is
    found by doubling a step from j and then bisecting: about 2 log2(e - j)
    probes."""
    if red_pos is None:
        def key(t):
            return alpha[t] - t, beta[t] - t
    else:
        def key(t):
            a, b = alpha[t], beta[t]
            return a - t, b - t, red_pos[a - 1] - a, blue_pos[b - 1] - b
    want = key(j)
    lo, step = j, 1                 # key(lo) == want
    while lo + step < stop and key(lo + step) == want:
        lo += step
        step *= 2
    hi = min(lo + step, stop)       # key(hi) != want, or hi == stop
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if key(mid) == want:
            lo = mid
        else:
            hi = mid
    return hi


_BIT_COLOR = bytes.maketrans(b"\x00\x01", b"BR")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_IS_RED = bytes(c == ord(RED) for c in range(256))


def _red_bits(g, n):
    """bits[m-1] = 1 if vertex m-1 is red, else 0: the steps of the red
    prefix counts, the count at m less the count at m-1 (0 before vertex
    0), as bytes; None when a step is not 0 or 1.

    The steps are built per piece of the counts: a range piece steps by 1
    and a repeat piece by 0 after its first step, so only the first step of
    each piece, and the pieces evaluated vertex by vertex, are differenced.
    Every piece is evaluated, so a g whose counts raise raises as it does
    in ``_red_prefix_counts``."""
    parts, prev, ok = [], 0, True
    for size, piece in _count_pieces(g, n):
        if not size:
            continue
        if isinstance(piece, range):
            first, last, body = piece[0], piece[-1], b"\x01" * (size - 1)
        elif isinstance(piece, list):
            first, last = piece[0], piece[-1]
            try:
                body = bytes(map(sub, piece[1:], piece))
            except ValueError:  # a step below 0 or above 255
                ok, body = False, b""
        else:                   # a repeat: one count throughout
            first = last = next(piece)
            body = bytes(size - 1)
        ok = ok and first - prev in (0, 1)
        if ok:
            parts += (bytes((first - prev,)), body)
        prev = last
    bits = b"".join(parts)
    return bits if ok and not bits.translate(None, b"\x00\x01") else None


def _positions(bits, bit):
    """The vertices v with bits[v] == bit, in increasing order:
    tuple(compress(range(n), bits)) for bit 1, listed one run at a time as
    a chain of ranges, each run's ends found with ``bytes.find``."""
    runs = []
    start, n = bits.find(bit), len(bits)
    while start >= 0:
        stop = bits.find(bit ^ 1, start)
        if stop < 0:
            stop = n
        runs.append(range(start, stop))
        start = bits.find(bit, stop)
    return tuple(chain.from_iterable(runs))


def adversary(s, r, g, n):
    """Build the adversarial instance for lam = s/r on n vertices, steered by
    the 1-Lipschitz PLFunction g."""
    _check_sizes(s, r, n)
    bits = _red_bits(g, n)
    if bits is None:
        raise ValueError("g is not 1-Lipschitz along integers")
    red_pos, blue_pos = _positions(bits, 1), _positions(bits, 0)
    alpha, beta = _run_indices(bits, s, r)

    # alpha and beta are strictly increasing, so the blocks are nested and
    # block j adds exactly the reds a_{j-1}..a_j - 1 and the blues
    # b_{j-1}..b_j - 1; alpha_j counts reds and beta_j blues, so every block
    # fits in n.  A stretch of blocks that each add one red and one blue,
    # the next vertex of one run of each color, adds r, b, r+1, b+1, ... for
    # its first red r and blue b: two interleaved ranges.  Other blocks are
    # sorted.
    phi = []
    stop = min(len(alpha), len(beta))
    a_prev = b_prev = j = 0
    while j < stop:
        a_j, b_j = alpha[j], beta[j]
        if j and a_j - a_prev == 1 == b_j - b_prev:
            end = _stretch_end(alpha, beta, j, stop, red_pos, blue_pos)
            size = end - j
            lo, hi = sorted((red_pos[a_j - 1], blue_pos[b_j - 1]))
            k = len(phi)
            phi += repeat(0, 2 * size)
            phi[k::2] = range(lo, lo + size)
            phi[k + 1::2] = range(hi, hi + size)
            a_j, b_j, j = alpha[end - 1], beta[end - 1], end
        else:
            phi += sorted(red_pos[a_prev:a_j] + blue_pos[b_prev:b_j])
            j += 1
        a_prev, b_prev = a_j, b_j
        if len(phi) != a_j + b_j:
            raise VerificationError("phi block sizes are inconsistent")
    phi += sorted(red_pos[a_prev:] + blue_pos[b_prev:])

    inst = AdversaryInstance(s=s, r=r, n=n, g=g,
                             vertex_colors=tuple(bits.translate(_BIT_COLOR).decode()),
                             alpha=alpha, beta=beta, phi=tuple(phi))
    problems = verify_adversary(inst)
    if problems:
        raise VerificationError("adversary invariants fail: " + "; ".join(problems))
    return inst


def _first_wrong_count(is_red, targets):
    """Least m whose red count among is_red[:m] differs from targets[m-1],
    or None.  Its lists die with the call, so the verifier's later lists do
    not add to their peak memory."""
    counts = list(accumulate(is_red))
    if counts == targets:
        return None
    return next(m for m, (c, t) in enumerate(zip(counts, targets), start=1) if c != t)


def _fits_runs(indices, positions, is_color, s, r, rises):
    """Whether ``indices`` equals the scan ``_min_indices`` over
    ``positions``: the run check of ``verify_adversary``.  ``positions``
    lists the vertices v with is_color[v] = 1, in order, and rises says
    whether indices is strictly increasing.  Each run of the color costs
    one ``find`` in is_color and one bisect into ``indices``."""
    k, m = len(indices), len(positions)
    if k and not (rises and 1 <= indices[0] and indices[-1] <= m):
        return False
    a = j = 0           # a: vertices of the color before the run; j: entries <= a
    while a < m:
        v = positions[a]
        c = -(-r * (v - a) // s)
        end = is_color.find(0, v)
        last = a + (end if end >= 0 else len(is_color)) - v
        if j < k and indices[j] <= last and indices[j] - j - 1 < c:
            return False
        j = bisect_right(indices, last, j)
        if last - c > j:
            return False
        a = last
    return True


def _index_problems(name, indices, positions, is_color, s, r, rises):
    """Violations of alpha (or beta): ``indices`` against the incremental
    scan ``_min_indices`` over ``positions``, the vertices v with
    is_color[v] = 1.  The run check ``_fits_runs`` passes a list equal to
    the scan; any other list is compared with the scan, whose length is
    reported when it differs, and the per-index check names each index
    that is out of range, breaks its inequality or is not minimal.  That
    check reports at least the first index where a list of the scan's
    length differs from it."""
    if _fits_runs(indices, positions, is_color, s, r, rises):
        return []
    left = _left_counts(positions)
    want = _min_indices(left, s, r)
    problems = []
    if len(indices) != len(want):
        problems.append(f"{name} has {len(indices)} entries, want {len(want)}")
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
    return problems


def _inverse(phi, n):
    """where[v] = the position of v in phi if phi is a permutation of
    0..n-1, else None.  n writes that all land in 0..n-1 and leave no slot
    unwritten make a permutation; this costs less than sorting phi."""
    if len(phi) != n:
        return None
    where = [-1] * n
    try:
        if min(phi, default=0) < 0:
            return None
        for k, v in enumerate(phi):
            where[v] = k
    except (IndexError, TypeError):     # an entry past n-1, or not an int
        return None
    return None if -1 in where else where


def _prefix_reach(where, positions):
    """reach[k] = largest phi position among positions[:k] (-1 when k = 0).
    A plain loop: ``accumulate`` with ``max`` costs about three times as
    much per vertex."""
    reach = [-1]
    top = -1
    for v in positions:
        k = where[v]
        if k > top:
            top = k
        reach.append(top)
    return reach


def _first_non_integer(name, entries):
    """The message "<name>_<k> is not an integer" for the first entry that
    is not an int, with k counted from 1 as in alpha_i, or None.  A bool is an int
    here as in Python, True being 1.  A sum of ints is an int, and anything
    else in the sum makes it another type or raises, so the entries are
    walked only when the sum says one is bad."""
    try:
        if type(sum(entries)) is int:
            return None
    except TypeError:
        pass
    for k, v in enumerate(entries, start=1):
        if not isinstance(v, int):
            return f"{name}_{k} is not an integer"
    return None


def verify_adversary(inst):
    """Re-check the paper's invariants; returns a list of violations.

    The instance is well formed by construction, so the check compares the
    color bytes with the red steps ``_red_bits`` builds per piece of g,
    reads alpha and beta once per run of their color, and the phi blocks
    once per stretch.  Messages are built only for what fails: when the
    bytes differ from the steps, or g has a step outside {0, 1}, the red
    prefix counts are compared vertex by vertex to name the first wrong m.

    The run check.  For the a-th red vertex let left(a) be the blue vertices
    to its left and key(a) = a - ceil(r*left(a)/s), so that a works for i,
    r*left(a) <= s*(a - i), iff key(a) >= i, and alpha_i is the least a with
    key(a) >= i (beta likewise).  left is constant on a red run and never
    decreases, so key rises by exactly 1 per index inside a run and by at
    most 1 between runs.  With m red vertices, a list A equals alpha iff
      1. A is strictly increasing inside [1, m];
      2. key(A_i) >= i for every i;
      3. key(a) <= #{i : A_i <= a} for every a in [1, m].
    alpha satisfies them: the prefix maximum of key rises by at most 1, so
    alpha_i <= a iff that maximum at a is at least i.  Conversely, 2 puts
    alpha_i at or before A_i, and 3 with i <= key(alpha_i) puts A_i at or
    before alpha_i; an entry past the last alpha_i breaks 2, and a missing
    one breaks 3 at the a with the largest key.  A_i - i never decreases,
    so in a run 2 needs only the run's first entry of A; and key(a) minus
    the count never decreases inside a run, so 3 needs only its last index.
    A list that fails is compared with the scan, and the per-index check
    names every bad index.

    The phi blocks.  Block j asks set(phi[:k]) == reds[:a_j] | blues[:b_j]
    with k = a_j + b_j.  When alpha and beta are strictly increasing and
    their blocks name vertices of their color, the blocks are checked per
    stretch (``_blocks_match``), which suffices: if phi[:p] holds reds[:a]
    and blues[:b], p = a + b, block j matches exactly when phi[p:k] holds
    the reds a..a_j - 1 and the blues b..b_j - 1, so by induction the
    blocks match when each block's new part does.  A block outside the
    stretches is compared sorted.  Along a stretch of blocks j..e-1, block
    t adds the red r + t - j and the blue b + t - j (``_stretch_end``: the
    differences it keeps constant never decrease, so a bisection finds
    where they change), so its new part is right when phi's entries p,
    p+2, ... are min(r, b), min(r, b) + 1, ... and its entries p+1, p+3,
    ... are max(r, b), max(r, b) + 1, ...: two slice comparisons for the
    whole stretch.  That check may fail on a valid phi that lists a block
    in another order, and proves nothing when it fails; the blocks are then
    checked one by one with prefix reaches.  phi is a permutation and the
    positions partition the vertices, so when a_j and b_j lie in
    0..(vertices of their color) both sides have k elements, and the block
    matches exactly when every vertex it wants sits before position k in
    phi.  Any other index is a mismatch: past the end its wanted set has
    fewer than k vertices, and below 0 it counts no vertices."""
    problems = []
    s, r, n = inst.s, inst.r, inst.n
    alpha, beta = inst.alpha, inst.beta
    red_pos, blue_pos = inst.red_positions, inst.blue_positions
    is_red = "".join(inst.vertex_colors).encode().translate(_IS_RED)
    if _red_bits(inst.g, n) != is_red:
        m = _first_wrong_count(is_red, _red_prefix_counts(inst.g, n))
        problems.append(f"red prefix count wrong at m={m}")
    alpha_rises, beta_rises = _rises(alpha), _rises(beta)
    problems += _index_problems("alpha", alpha, red_pos, is_red, s, r, alpha_rises)
    problems += _index_problems("beta", beta, blue_pos, is_red.translate(_FLIP), s, r,
                                beta_rises)
    if not beta_rises:
        problems.append("beta is not strictly increasing")
    rising = alpha_rises and beta_rises
    joint = _joint_prefix(alpha, beta, n, rising)
    if rising and _blocks_match(inst, joint):
        return problems
    reach_red = _prefix_reach(inst._where, red_pos)
    reach_blue = _prefix_reach(inst._where, blue_pos)
    n_red, n_blue = len(red_pos), len(blue_pos)
    for j, (a_j, b_j) in enumerate(zip(alpha[:joint], beta[:joint]), start=1):
        k = a_j + b_j
        if not (0 <= a_j <= n_red and 0 <= b_j <= n_blue
                and reach_red[a_j] < k and reach_blue[b_j] < k):
            problems.append(f"phi block {j} mismatch")
    return problems


def _blocks_match(inst, joint):
    """Whether the first joint phi blocks hold the vertices they want,
    checked per stretch as the ``verify_adversary`` docstring proves: True
    proves that every block matches, False proves nothing.  alpha and beta
    must be strictly increasing; blocks that name no vertex of their color
    give False."""
    alpha, beta = inst.alpha, inst.beta
    red_pos, blue_pos = inst.red_positions, inst.blue_positions
    phi = tuple(inst.phi)       # its slices are compared with tuples
    if joint and not (0 <= alpha[0] and 0 <= beta[0] and alpha[joint - 1] <= len(red_pos)
                      and beta[joint - 1] <= len(blue_pos)):
        return False
    a_prev = b_prev = j = 0
    while j < joint:
        a_j, b_j, p = alpha[j], beta[j], a_prev + b_prev
        if j and a_j - a_prev == 1 == b_j - b_prev:
            end = _stretch_end(alpha, beta, j, joint, red_pos, blue_pos)
            size = end - j
            lo, hi = sorted((red_pos[a_j - 1], blue_pos[b_j - 1]))
            if (phi[p:p + 2 * size:2] != tuple(range(lo, lo + size))
                    or phi[p + 1:p + 2 * size:2] != tuple(range(hi, hi + size))):
                return False
            a_j, b_j, j = alpha[end - 1], beta[end - 1], end
        else:
            if sorted(phi[p:a_j + b_j]) != sorted(red_pos[a_prev:a_j] + blue_pos[b_prev:b_j]):
                return False
            j += 1
        a_prev, b_prev = a_j, b_j
    return True


def adversary_bound_chain(inst, i_min=50):
    """Check alpha_i <= (1-gamma) z+ / 2 + w/2 and the symmetric +2 bound for
    beta_i at every index i >= i_min >= 1 with alpha_i + beta_i <= n; returns
    violations (an infinite crossing means g was built too small for n).

    When alpha and beta are strictly increasing the bounds are checked per
    cell (``_chain_holds``): a stretch of indices, along which alpha_i - i
    and beta_i - i are constant (``_stretch_end``), cut where the level w
    moves on to the next tilted piece of g.  A cell is proven by its two
    ends.  What the cells do not prove is decided by the per-index pass:
    the levels w grow with i, so each sign's crossings come from one pass
    over the tilted pieces of g, each bound is computed once per index, and
    all the comparisons are tested in one pass; the per-index loop runs
    only to name the indices that fail.

    Affine slack.  In a cell the per-index pass computes, from float
    constants that do not depend on i (c = 2/(1+lam), lam, 2*lam, the
    piece's x0, y0 and slope m, h = 1-gamma, e = 0 for alpha and 2 for
    beta),
      w_i = c*((lam*i + 2*lam) + 2),  z_i = x0 + (w_i - y0)/m,
      top_i = ((h*z_i/2 + w_i/2) + e) + tol
    (z_i = x0 on the piece before the first vertex; the tail has m its
    slope).  Rounding is monotone, so w_i never decreases in i and the
    crossing vertex of each w_i is the one the pass's sweep finds; the cell
    ends at the last i of the stretch whose w_i is at most that vertex's
    value.  The same chain in exact arithmetic, T(i), is affine in i, and
    on a stretch alpha_i - i is constant, so the slack T(i) - alpha_i is
    affine and lies between its values at the cell's ends.

    The margin.  Let u = 2^-53 and, with q = (w - y0)/m in floats at the
    cell's ends a and b (q = 0, and no division, before the first vertex),
      M = |x0| + |q_a| + |q_b| + (w_b + |y0|)/m + w_b + 4.
    4M must be finite, so no step overflows and every step rounds by at
    most u of its result (the +4 absorbs underflow).  In the cell w_i <= w_b,
    and |(w_i - y0)/m| is at most about |q_a| + |q_b|, being affine in i up
    to the rounding below.  w_i rounds four times, each by at most u of a
    positive quantity at most w_b: it is within 5u*w_b of exact.  The
    subtraction and the division add 2u*M after dividing that error by m,
    so q_i is within 7u*M of exact and z_i within 8u*M.  The product with
    h < 2 doubles that and adds 2u*M, the halving is exact, w_i/2 adds
    3u*M and the three sums at most 6u*M: top_i is within 20u*M of T(i)
    at every i of the cell.  A float slack top - alpha_i at an end of at
    least E = _CHAIN_MARGIN*M = 2^13*u*M puts alpha_i below 2M, so its
    subtraction rounds by at most 4u*M, and the exact slack there is at
    least E - 24u*M.  So is the affine T(i) - alpha_i at every i of the
    cell, and top_i - alpha_i >= E - 44u*M > 0: alpha_i <= top_i holds, as
    an int compared with a float, and every crossing is finite.  Likewise
    for beta.  A cell where a crossing is infinite, 4M is not finite, or a
    slack is below E, is left to the per-index pass."""
    if i_min < 1:
        raise ValueError(f"i_min must be at least 1, got {i_min}")
    from .lipschitz import gamma_crossings
    p = inst.gamma_param
    lam = float(inst.lam)
    gamma = p.gamma
    rising = _rises(inst.alpha) and _rises(inst.beta)
    joint = _joint_prefix(inst.alpha, inst.beta, inst.n, rising)
    if rising and _chain_holds(inst, gamma, lam, i_min, joint):
        return []
    indices = range(i_min, joint + 1)
    ws = [(2 / (1 + lam)) * (lam * i + 2 * lam + 2) for i in indices]
    zps = gamma_crossings(inst.g, p, ws, 1)
    zms = gamma_crossings(inst.g, p, ws, -1)
    alpha_tops = [(1 - gamma) * zp / 2 + w / 2 + _CHAIN_TOL for w, zp in zip(ws, zps)]
    beta_tops = [(1 - gamma) * zm / 2 + w / 2 + 2 + _CHAIN_TOL for w, zm in zip(ws, zms)]
    window = slice(i_min - 1, indices.stop - 1)
    if (all(map(math.isfinite, zps)) and all(map(math.isfinite, zms))
            and all(map(le, inst.alpha[window], alpha_tops))
            and all(map(le, inst.beta[window], beta_tops))):
        return []
    problems = []
    for i, zp, zm, a_top, b_top in zip(indices, zps, zms, alpha_tops, beta_tops):
        if not (math.isfinite(zp) and math.isfinite(zm)):
            problems.append(f"crossing infinite at i={i}")
            continue
        if inst.alpha[i - 1] > a_top:
            problems.append(f"alpha bound fails at i={i}")
        if inst.beta[i - 1] > b_top:
            problems.append(f"beta bound fails at i={i}")
    return problems


_CHAIN_MARGIN = 2.0 ** -40  # E per unit of M; a top's rounding error stays under 2^-48 M


def _chain_holds(inst, gamma, lam, i_min, joint):
    """Whether every alpha_i and beta_i, i_min <= i <= joint, is proven to
    pass the per-index pass's comparison by the ends of each cell, as the
    ``adversary_bound_chain`` docstring proves; False proves nothing.
    alpha and beta must be strictly increasing."""
    from .lipschitz import _tilted
    alpha, beta, g = inst.alpha, inst.beta, inst.g
    c = 2 / (1 + lam)

    def level(i):
        return c * (lam * i + 2 * lam + 2)

    stretches = []              # (first, last) 1-based indices of each stretch
    t = i_min - 1
    while t < joint:
        end = _stretch_end(alpha, beta, t, joint)
        stretches.append((t + 1, end))
        t = end
    for sign, seq, extra in ((1, alpha, 0), (-1, beta, 2)):
        xs, ys, tail = _tilted(g, gamma, sign)
        last, k = len(xs), 0
        for first, final in stretches:
            i = first
            while i <= final:
                w = level(i)
                while k < last and ys[k] < w:
                    k += 1
                if k == last:
                    b = final
                else:                           # the last i whose level vertex k reaches
                    b = i - 1 + bisect_right(range(i, final + 1), ys[k], key=level)
                w_b = level(b)
                if k == 0:                      # below the first vertex: z = xs[0]
                    x0 = z_a = z_b = xs[0]
                    size = 0.0
                else:
                    if k < last:
                        x0, y0 = xs[k - 1], ys[k - 1]
                        m = (ys[k] - y0) / (xs[k] - x0)
                    elif tail > 0:
                        x0, y0, m = xs[-1], ys[-1], tail
                    else:
                        return False            # an infinite crossing
                    q_a, q_b = (w - y0) / m, (w_b - y0) / m
                    z_a, z_b = x0 + q_a, x0 + q_b
                    size = abs(q_a) + abs(q_b) + (w_b + abs(y0)) / m
                big = abs(x0) + size + w_b + 4     # M
                if not math.isfinite(4 * big):     # so every z_i and top_i is finite
                    return False
                for z, v, a in ((z_a, w, i), (z_b, w_b, b)):
                    top = (1 - gamma) * z / 2 + v / 2 + extra + _CHAIN_TOL
                    if not top - seq[a - 1] >= _CHAIN_MARGIN * big:
                        return False
                i = b + 1
    return True


@dataclass(frozen=True)
class Shading:
    """Assignment of each vertex to a shade R_1..R_a, B_1..B_a or X.

    assignment[v] is (color, index) with color "R"/"B" and 1 <= index <= a,
    or ("X", 0).  min_count records the surrogate floor used at construction
    time (the verifier's pass threshold).  Construction indexes the vertices
    of each shade once, in increasing order; equality and hashing ignore the
    index.
    """

    a: int
    assignment: tuple
    min_count: int
    _members: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {}
        for v, sh in enumerate(self.assignment):
            index.setdefault(sh, []).append(v)
        object.__setattr__(self, "_members", index)

    def members(self, color, index):
        return list(self._members.get((color, index), ()))

    def residual(self):
        return sorted(v for (c, _), vs in self._members.items() if c == "X" for v in vs)

    def nonempty_shades(self, color):
        return sorted(idx for c, idx in self._members if c == color)

    def shade_of(self, v):
        return self.assignment[v]


def a_good_shading(chi, a, min_count):
    """Shade-assigning algorithm with a finite surrogate for "infinite".

    Each round colors the unshaded vertices greedily (every vertex takes the
    color keeping the larger running common neighborhood, ties toward red),
    then freezes the dominant color as the next shade of that color.  Reaching
    shade a-1 dumps the rest into the opposite color's shade a; pools of
    fewer than min_count vertices and leftovers end in X.
    """
    if a < 2:
        raise ValueError("a must be at least 2")
    if min_count < 1:
        raise ValueError(f"min_count must be at least 1, got {min_count}")
    red_nb, blue_nb = chi.neighbor_sets(RED), chi.neighbor_sets(BLUE)
    shades = [None] * chi.n
    used = {RED: 0, BLUE: 0}
    remaining = list(range(chi.n))
    for _ in range(2 * a - 3):
        if len(remaining) < min_count:
            break
        pool = remaining
        K = sum(1 << v for v in pool)
        picked_red = 0
        for v in pool:
            kr, kb = K & red_nb[v], K & blue_nb[v]
            pick_red = kr.bit_count() >= kb.bit_count()
            picked_red |= pick_red << v
            K = kr if pick_red else kb
        reds = (K & picked_red).bit_count()
        dom = RED if reds >= K.bit_count() - reds else BLUE
        in_dom = picked_red if dom == RED else ~picked_red
        used[dom] += 1
        idx = used[dom]
        for v in pool:
            if in_dom >> v & 1:
                shades[v] = (dom, idx)
        remaining = [v for v in pool if not in_dom >> v & 1]
        if idx == a - 1:
            for v in remaining:
                shades[v] = (other(dom), a)
            remaining = []
            break
    for v in remaining:
        shades[v] = ("X", 0)
    return Shading(a=a, assignment=tuple(shades), min_count=min_count)


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
    for name, value in (("sample_size", sample_size), ("subset_cap", subset_cap)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    rng = random.Random(seed)
    nb = {color: chi.neighbor_sets(color) for color in COLORS}
    min_found = None
    samples = 0
    failures = []

    def common_count(S, color, common):
        # S is nonempty and no vertex is its own neighbor, so S drops out
        for v in S:
            common &= nb[color][v]
        return common.bit_count()

    for color in COLORS:
        for i in range(1, sh.a):
            same = sh.members(color, i)
            upper = list(sh.members(color, sh.a))
            for j in range(i + 1, sh.a):
                upper += sh.members(other(color), j)
            cases = []
            if same:
                cases.append((same, sum(1 << v for v in same), "within-shade"))
            opp_target = sh.members(other(color), i)
            if upper and opp_target:
                cases.append((upper, sum(1 << v for v in opp_target), "upper-into-opposite"))
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
        nb = chi.neighbor_sets(color)
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
                if all(image[u] is None or nb[x] >> image[u] & 1 for u in adj[v]):
                    image[v] = x
                    used[x] = True
                    rec(v + 1)
                    image[v] = None
                    used[x] = False

        rec(0)
    return best, best_color
