"""Reference copy of the set-based shading code and the per-rule edge colour.

``neighbor_sets``, ``a_good_shading`` and ``verify_shading`` are the
``colorings`` functions as they were before the coloring became one
red-neighbour bitmask per vertex: neighbourhoods are Python sets built from
O(n^2) ``color()`` calls, and common neighbourhoods are set intersections
with ``- {v}`` and ``- set(S)`` corrections.  ``rule_color`` is the rule
dispatch ``TwoColoring.color`` used to do, ``from_text`` the parse that
read an explicit file into its list of red pairs before building the masks,
and ``masks_from_upper_triangle`` the mask build that went through one
n x n string.
Shade members are rescans of ``sh.assignment`` (``members``), so the oracle
does not share ``Shading``'s index.  They are kept only as oracles for the
differential tests.
"""

from __future__ import annotations

import math
import random

from ramseydensity.colorings import (BLUE, COLORS, RED, Shading, ShadingReport, TwoColoring,
                                     other)

_COLOR_BITS = str.maketrans(RED + BLUE, "10")


def members(sh, color, index):
    """Vertices of shade (color, index), rescanned from the assignment."""
    return [v for v, shade in enumerate(sh.assignment) if shade == (color, index)]


def from_text(text):
    """Coloring text to TwoColoring; an explicit colour line becomes its
    list of red pairs (u, v), u < v, handed to ``red_edges``.  Lines past
    the one the rule needs are ignored."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty coloring text")
    n_str, rule = lines[0].split()
    n = int(n_str)
    if rule == "leftmost" and len(lines) < 2:
        raise ValueError("leftmost coloring has no color line")
    if rule == "leftmost":
        return TwoColoring(n, "leftmost", vertex_colors=tuple(lines[1].strip()))
    if rule.startswith("modular:"):
        return TwoColoring(n, "modular", modulus=int(rule.split(":")[1]))
    if rule == "explicit":
        chars = lines[1].strip() if len(lines) > 1 else ""
        if len(chars) != n * (n - 1) // 2:
            raise ValueError(f"explicit coloring of {n} vertices needs "
                             f"{n * (n - 1) // 2} edge colors, got {len(chars)}")
        if set(chars) - set(COLORS):
            raise ValueError("explicit coloring may only contain R and B")
        pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
        return TwoColoring(n, "explicit", red_edges=[p for p, c in zip(pairs, chars) if c == RED])
    raise ValueError(f"unknown rule {rule!r}")


def masks_from_upper_triangle(n, chars):
    """Red-neighbor masks from the colors of the pairs (u, v), u < v, listed
    row by row: row u is padded on the left with u+1 blues into an n x n
    string, so column v above the diagonal is the strided slice big[v:v*n:n]."""
    rows, start = [], 0
    for u in range(n):
        rows.append(chars[start:start + n - u - 1])
        start += n - u - 1
    big = "".join(BLUE * (u + 1) + row for u, row in enumerate(rows))
    return tuple(int((big[v:v * n:n] + BLUE + rows[v])[::-1].translate(_COLOR_BITS), 2)
                 for v in range(n))


def rule_color(chi, red_edges, u, v):
    """Colour of uv by the rule of ``chi``; ``red_edges`` is the set of red
    pairs an explicit coloring was built from (unused by the other rules)."""
    if chi.rule == "leftmost":
        return chi.vertex_colors[min(u, v)]
    if chi.rule == "modular":
        return RED if (v - u) % (chi.modulus - 1) == 0 else BLUE
    return RED if (min(u, v), max(u, v)) in red_edges else BLUE


def neighbor_sets(chi, color):
    """Precomputed color-neighborhood sets, one per vertex."""
    return [{w for w in range(chi.n) if w != v and chi.color(v, w) == color}
            for v in range(chi.n)]


def a_good_shading(chi, a, theta, min_count):
    if a < 2:
        raise ValueError("a must be at least 2")
    if not 0 < theta < 0.5:
        raise ValueError("theta must lie in (0, 1/2)")
    n = chi.n
    red_nb = neighbor_sets(chi, RED)
    blue_nb = neighbor_sets(chi, BLUE)
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
    return Shading(a=a, assignment=tuple(shades), min_count=min_count)


def verify_shading(chi, sh, sample_size, subset_cap, seed):
    rng = random.Random(seed)
    nb = {RED: neighbor_sets(chi, RED), BLUE: neighbor_sets(chi, BLUE)}
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
            same = members(sh, color, i)
            upper = list(members(sh, color, sh.a))
            for j in range(i + 1, sh.a):
                upper += members(sh, other(color), j)
            cases = []
            if same:
                cases.append((same, same, "within-shade"))
            opp_target = members(sh, other(color), i)
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
