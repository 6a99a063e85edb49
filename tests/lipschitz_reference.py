"""Reference copy of the per-level crossing scan, ``sup_ratio``, ``trace``
and ``canonicalize``.

These are the ``lipschitz`` functions as they were before every first
crossing went through one sweep: ``_first_crossing`` scans the tilted
vertices from the start for each level, ``sup_ratio`` calls it four times
per critical level and rebuilds the tilted arrays on each call, and
``trace`` checks the closed formula and the level identity with O(n^2)
``Fraction`` double loops.  ``canonicalize`` is the tracker as it was before
its crossing walk: each piece rebuilds the list of breakpoints right of its
start and evaluates g at every one of them.  They are kept only as oracles
for the differential tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ramseydensity.lipschitz import (BreakpointTrace, ConsistencyError, PLFunction,
                                     UnboundedCandidateError, _crossings)

INF = math.inf


def _crossing_at(xs, ys, tail_slope, t, k):
    """Crossing of level t given k, the index of the first vertex that
    reaches it (len(xs) when none does): the vertex itself, the exact linear
    solve on the segment ending there, or the tail; inf when never reached."""
    if k == 0:
        return xs[0]
    if k < len(xs):
        slope = (ys[k] - ys[k - 1]) / (xs[k] - xs[k - 1])
        return xs[k - 1] + (t - ys[k - 1]) / slope
    if tail_slope > 0:
        return xs[-1] + (t - ys[-1]) / tail_slope
    return INF


def _first_crossing(xs, ys, tail_slope, t, strict=False):
    """Least x with f(x) >= t (or > t when strict) for the piecewise function
    with vertices (xs, ys) and the given tail slope; inf when never reached.

    For strict crossings the returned point is the limit of the non-strict
    crossing from above, which is what the supremum enumeration needs.
    """
    for k, y in enumerate(ys):
        if (y > t) if strict else (y >= t):
            return _crossing_at(xs, ys, tail_slope, t, k)
    return _crossing_at(xs, ys, tail_slope, t, len(xs))


def _tilted(g, gamma, sign):
    xs = g.breakpoints
    ys = tuple(gamma * x + sign * y for x, y in zip(xs, g.values))
    return xs, ys, gamma + sign * g.tail_slope


def gamma_crossing(g, p, t, sign, strict=False):
    """First x where gamma*x + sign*g(x) reaches level t; inf if never.

    ``sign`` is +1 or -1.  Requires t >= 0.  The root on the crossing segment
    is found by an exact linear solve.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if t < 0:
        raise ValueError("t must be nonnegative")
    xs, ys, tail = _tilted(g, p.gamma, sign)
    return _first_crossing(xs, ys, tail, t, strict=strict)


def sup_ratio(g, p, t_lo, t_hi):
    """sup over t in [t_lo, t_hi] of (crossing+ + crossing-)/t, exactly.

    Both crossings are piecewise linear in t between critical levels (the
    tilted images of g's breakpoints), and the ratio is monotone on each
    piece, so the supremum is attained at a critical level or as a right
    limit there; right limits are evaluated with strict crossings.
    """
    if not 0 < t_lo < t_hi:
        raise ValueError("need 0 < t_lo < t_hi")
    for sign in (1, -1):
        if gamma_crossing(g, p, t_hi, sign) == INF:
            raise UnboundedCandidateError(
                f"crossing with sign {sign:+d} is infinite at t = {t_hi}")
    levels = {t_lo, t_hi}
    for sign in (1, -1):
        for x, y in zip(g.breakpoints, g.values):
            v = p.gamma * x + sign * y
            if t_lo <= v <= t_hi:
                levels.add(v)
    best = -INF
    for t in sorted(levels):
        r = (gamma_crossing(g, p, t, 1) + gamma_crossing(g, p, t, -1)) / t
        if r > best:
            best = r
        if t < t_hi:
            r = (gamma_crossing(g, p, t, 1, strict=True)
                 + gamma_crossing(g, p, t, -1, strict=True)) / t
            if r > best:
                best = r
    return best


def trace(g, p):
    """Exact breakpoint trace of an alternating +-1 function, cross-checked
    in rational arithmetic against the closed formula expressing each piece
    end in terms of the crossing levels."""
    if not g.is_alternating_unit():
        raise ValueError("input must have alternating +-1 slopes starting with +1")
    gamma = Fraction(p.gamma)
    xs = [Fraction(b) for b in g.breakpoints]
    ell = [b - a for a, b in zip(xs, xs[1:])]
    ends, gvals, ts = [], [], []
    x = Fraction(0)
    y = Fraction(0)
    for i, l in enumerate(ell, start=1):
        x += l
        y += l if i % 2 == 1 else -l
        ends.append(x)
        gvals.append(y)
        ts.append(gamma * x + (y if i % 2 == 1 else -y))
    # closed formula x_i = t_i/(1+gamma) + sum_{j<i} 2/(1-gamma^2) q^(i-j) t_j
    q = (1 - gamma) / (1 + gamma)
    c = 2 / (1 - gamma * gamma)
    for i, xi in enumerate(ends, start=1):
        acc = ts[i - 1] / (1 + gamma)
        for j in range(1, i):
            acc += c * q ** (i - j) * ts[j - 1]
        if xi == 0:
            ok = acc == 0
        else:
            ok = abs(acc - xi) <= Fraction(1, 10 ** 9) * abs(xi)
        if not ok:
            raise ConsistencyError(f"piece end {i}: closed formula {acc} != {xi}")
    # identity t_i = sum_j (gamma + (-1)^(j-i)) ell_j
    for i in range(1, len(ell) + 1):
        acc = sum((gamma + (1 if (j - i) % 2 == 0 else -1)) * ell[j - 1]
                  for j in range(1, i + 1))
        if acc != ts[i - 1]:
            raise ConsistencyError(f"level identity failed at {i}")
    return BreakpointTrace(tuple(float(l) for l in ell),
                           tuple(float(x) for x in ends),
                           tuple(float(t) for t in ts))


def canonicalize(g, span):
    if span <= 0:
        raise ValueError("span must be positive")
    if span > 1e14:
        raise ValueError("span too large for distance-1 tracking in float64")
    pts = [(0.0, 0.0)]
    x0, y0, slope = 0.0, 0.0, 1.0
    while x0 < span:
        # first x > x0 where slope * (tracker - g) reaches +1
        xs = [x0] + [b for b in g.breakpoints if b > x0]
        ys = [slope * (y0 + slope * (x - x0) - g(x)) for x in xs]
        tail = 1 - slope * g.tail_slope
        nxt = _crossings(xs, ys, tail, [1.0])[0]
        if nxt >= span or nxt == INF:
            pts.append((span, y0 + slope * (span - x0)))
            break
        if nxt <= x0:
            raise ValueError("tracker made no progress; span too large for float64")
        y0 = y0 + slope * (nxt - x0)
        x0 = nxt
        pts.append((x0, y0))
        slope = -slope
    return PLFunction.from_points(pts, tail_slope=slope)
