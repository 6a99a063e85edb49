"""Piecewise-linear machinery for the crossing-functional variational problem.

The density bound f(lambda) is driven by first-crossing functionals of the
tilted functions gamma*x + g(x) and gamma*x - g(x), minimized over 1-Lipschitz
candidates g with g(0) = 0.  This module represents candidates as piecewise
linear functions with a declared tail slope, computes crossings exactly by
linear solves on segments, evaluates the supremum ratio by enumerating the
finitely many critical levels (never by grid sampling), and carries the
supporting apparatus: the self-similar sawtooth construction, the distance-1
canonicalization tracker, peak/valley removal, breakpoint traces, the
level-sequence recurrence, and the 45-degree rotation change of variables.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationError

INF = math.inf

_LIP_TOL = 1e-9
_ID_TOL = 1e-12
_S_GOOD_TOL = 1e-9  # relative slack of s_good's inequality
_SIGMA_F_PERIODS = 10  # the sawtooth's periods in sigma_f_value
_LEVEL_FLOOR = 1.0  # the least level increasing_levels keeps


class UnboundedCandidateError(ValueError):
    """A crossing is infinite somewhere in the requested level window."""


class ConsistencyError(VerificationError):
    """An internal cross-check (closed formula vs direct computation) failed."""


@dataclass(frozen=True)
class PLFunction:
    """Piecewise-linear function on [0, oo).

    ``breakpoints`` is strictly increasing and starts at 0; ``values`` gives
    the function there (value 0 at 0); beyond the last breakpoint the function
    continues with slope ``tail_slope``.  Every breakpoint and value is
    finite, and every segment slope and the tail lie in [-1, 1]: the function
    is 1-Lipschitz, as every candidate g of the variational problem is.
    """

    breakpoints: tuple
    values: tuple
    tail_slope: float = 0.0

    def __post_init__(self):
        bp, vals = tuple(self.breakpoints), tuple(self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) != len(vals) or not bp:
            raise ValueError("breakpoints and values must be nonempty and equal length")
        if any(map(math.isnan, bp + vals + (self.tail_slope,))):
            raise ValueError("breakpoints, values and tail slope must not be NaN")
        if not all(map(math.isfinite, bp + vals)):
            raise ValueError("breakpoints and values must be finite")
        if bp[0] != 0:
            raise ValueError("first breakpoint must be 0")
        if vals[0] != 0:
            raise ValueError("value at 0 must be 0")
        for a, b in zip(bp, bp[1:]):
            if not b > a:
                raise ValueError("breakpoints must be strictly increasing")
        for (x0, y0), (x1, y1) in zip(zip(bp, vals), zip(bp[1:], vals[1:])):
            if abs(y1 - y0) > (x1 - x0) * (1 + 1e-12) + _LIP_TOL:
                raise ValueError(f"segment [{x0},{x1}] violates the 1-Lipschitz bound")
        if abs(self.tail_slope) > 1 + _LIP_TOL:
            raise ValueError("tail slope outside [-1, 1]")

    @classmethod
    def zero(cls):
        return cls((0.0,), (0.0,), 0.0)

    @classmethod
    def linear(cls, slope):
        if abs(slope) > 1 + _LIP_TOL:
            raise ValueError("the slope must lie in [-1, 1]")
        return cls((0.0,), (0.0,), float(slope))

    @classmethod
    def from_points(cls, points, tail_slope=0.0):
        xs, ys = zip(*points)
        return cls(tuple(float(x) for x in xs), tuple(float(y) for y in ys), float(tail_slope))

    def __call__(self, x):
        if x < 0:
            raise ValueError("domain is [0, oo)")
        bp, vals = self.breakpoints, self.values
        if x >= bp[-1]:
            return vals[-1] + self.tail_slope * (x - bp[-1])
        lo = bisect_right(bp, x) - 1
        x0, x1 = bp[lo], bp[lo + 1]
        y0, y1 = vals[lo], vals[lo + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)

    def values_at(self, xs):
        """[self(x) for x in xs], bit for bit, for a non-decreasing sequence
        xs >= 0: each segment's points are found by bisection and evaluated
        with the same formula, so the cost is O(len(xs) + breakpoints)."""
        if any(map(operator.gt, xs, xs[1:])) or (xs and xs[0] < 0):
            raise ValueError("points must be nonnegative and non-decreasing")
        bp, vals = self.breakpoints, self.values
        out = []
        i = 0
        for lo in range(len(bp) - 1):
            j = bisect_left(xs, bp[lo + 1], i)
            x0, y0 = bp[lo], vals[lo]
            dx, dy = bp[lo + 1] - x0, vals[lo + 1] - y0
            out += [y0 + dy * (x - x0) / dx for x in xs[i:j]]
            i = j
        x0, y0, tail = bp[-1], vals[-1], self.tail_slope
        out += [y0 + tail * (x - x0) for x in xs[i:]]
        return out

    @property
    def span(self):
        return self.breakpoints[-1]

    def slopes(self):
        """Per-piece slopes, tail excluded."""
        bp, vals = self.breakpoints, self.values
        return [(y1 - y0) / (x1 - x0)
                for x0, x1, y0, y1 in zip(bp, bp[1:], vals, vals[1:])]

    def is_alternating_unit(self):
        """True iff slopes alternate +1, -1, +1, ... within tolerance."""
        sl = self.slopes()
        if not sl:
            return False
        want = 1.0
        for s in sl:
            if abs(s - want) > 1e-7:
                return False
            want = -want
        return True

    def refine(self, points):
        """Insert extra breakpoints without changing the function."""
        extra = [float(x) for x in points
                 if 0 < x < self.span and x not in self.breakpoints]
        bp = sorted(set(self.breakpoints) | set(extra))
        return PLFunction(tuple(bp), tuple(self(x) for x in bp), self.tail_slope)


@dataclass(frozen=True)
class GammaParam:
    """Tilt parameter pair: gamma in (-1, 1) and lam = (1+gamma)/(1-gamma)."""

    gamma: float
    lam: float

    def __post_init__(self):
        if not -1 < self.gamma < 1:
            raise ValueError("gamma must lie in (-1, 1)")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if abs(self.lam - (1 + self.gamma) / (1 - self.gamma)) > _ID_TOL * max(1.0, self.lam) \
                or abs(self.gamma - (self.lam - 1) / (self.lam + 1)) > _ID_TOL:
            raise ValueError("gamma and lam are not a matching pair")

    @classmethod
    def from_gamma(cls, gamma):
        gamma = float(gamma)
        return cls(gamma, (1 + gamma) / (1 - gamma))

    @classmethod
    def from_lambda(cls, lam):
        lam = float(lam)
        if lam <= 0:
            raise ValueError("lam must be positive and finite here")
        return cls((lam - 1) / (lam + 1), lam)


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


def _crossings(xs, ys, tail_slope, levels, strict=False):
    """First crossings of the piecewise function with vertices (xs, ys) and
    the given tail slope, for every level in the non-decreasing, nonnegative
    ``levels``: the least x with f(x) >= t (or > t when strict); inf when
    never reached.

    The work is per tilted piece, not per level.  The first vertex k that
    reaches a level only moves right as the level grows, so one walk over
    the vertices finds it for each piece in turn; the levels that piece
    serves are those up to ys[k] (below it when strict), found by bisecting
    the levels.  Each piece's share is evaluated in one comprehension with
    ``_crossing_at``'s formula, so every crossing is the float a per-level
    call gives.

    For strict crossings the returned point is the limit of the non-strict
    crossing from above, which is what the supremum enumeration needs.
    """
    if levels and not (0 <= levels[0] and all(map(operator.le, levels, levels[1:]))):
        raise ValueError("levels must be nonnegative and non-decreasing")
    share = bisect_left if strict else bisect_right
    out = []
    k, last, lo, count = 0, len(xs), 0, len(levels)
    while lo < count:
        t = levels[lo]
        while k < last and ((ys[k] <= t) if strict else (ys[k] < t)):
            k += 1
        hi = share(levels, ys[k], lo) if k < last else count
        if k == 0:
            out += [xs[0]] * (hi - lo)
        elif k < last:
            x0, y0 = xs[k - 1], ys[k - 1]
            slope = (ys[k] - y0) / (xs[k] - x0)
            out += [x0 + (t - y0) / slope for t in levels[lo:hi]]
        elif tail_slope > 0:
            x0, y0 = xs[-1], ys[-1]
            out += [x0 + (t - y0) / tail_slope for t in levels[lo:hi]]
        else:
            out += [INF] * (hi - lo)
        lo = hi
    return out


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
    return gamma_crossings(g, p, [t], sign, strict=strict)[0]


def gamma_crossings(g, p, levels, sign, strict=False):
    """gamma_crossing(g, p, t, sign, strict) for every t in the
    non-decreasing, nonnegative ``levels``, in one sweep."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _crossings(*_tilted(g, p.gamma, sign), levels, strict=strict)


def _check_profile(g):
    vals = g.values
    if any(v < -_LIP_TOL for v in vals) or g.tail_slope < -_LIP_TOL:
        raise ValueError("g must be nonnegative")
    if any(b < a - _LIP_TOL for a, b in zip(vals, vals[1:])):
        raise ValueError("g must be non-decreasing")


def ell_crossing(g, lam, t, sign):
    """First-crossing functionals in the untilted coordinates.

    sign +1: least x with g(lam*x) - x >= t.
    sign -1: least x with x - g(x)/lam >= t.
    Requires lam > 0, t > 0 and g nonnegative non-decreasing.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if lam <= 0 or t <= 0:
        raise ValueError("lam and t must be positive")
    _check_profile(g)
    if sign == 1:
        xs = tuple(b / lam for b in g.breakpoints)
        ys = tuple(v - b / lam for b, v in zip(g.breakpoints, g.values))
        tail = lam * g.tail_slope - 1
    else:
        xs = g.breakpoints
        ys = tuple(b - v / lam for b, v in zip(g.breakpoints, g.values))
        tail = 1 - g.tail_slope / lam
    return _crossings(xs, ys, tail, [t])[0]


@dataclass(frozen=True)
class FBounds:
    """Lower/upper bounds for f at one argument; exact value when known."""

    lower: float
    upper: float
    exact: float | None


def f_closed(lam):
    """Closed-form bounds on f(lam); exact on [0, 1] and at 0 and +inf."""
    if math.isnan(lam):
        raise ValueError("lam must be a number, not NaN")
    if lam == INF:
        return FBounds(0.5, 0.5, 0.5)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam > 100:
        raise ValueError("lam above 100 is unsupported")
    lower = (lam + 1) / (2 * lam + 1)
    if lam < 3:
        upper = (2 * lam * lam + 3 * lam + 7 + 2 * math.sqrt(lam + 1)) / (4 * lam * lam + 4 * lam + 9)
    else:
        upper = (lam + 1) / (2 * lam)
    exact = upper if lam <= 1 else None
    return FBounds(lower, upper, exact)


def f_from_h(h, lam):
    """Turn a value of the ratio supremum h at gamma=(lam-1)/(lam+1) into f(lam)."""
    return 1 - 1 / ((2 * lam / (1 + lam) ** 2) * h + 2 * lam / (1 + lam))


def h_upper_and_f(p):
    """Best-known upper bound for the ratio supremum at gamma, and the f value
    obtained by substituting it: the sawtooth value below 1/2, the flat-candidate
    value 2/gamma from 1/2 on."""
    gamma = p.gamma
    if gamma < 0.5:
        h_upper = (2 * gamma * gamma + 2 * gamma + 8 + math.sqrt(32 * (1 - gamma))) / (1 + gamma) ** 3
    else:
        h_upper = 2 / gamma
    return h_upper, f_from_h(h_upper, p.lam)


def sigma_ratio(p):
    """Geometric ratio of the sawtooth zeros for gamma < 1/2."""
    gamma = p.gamma
    if gamma >= 0.5:
        raise ValueError("sawtooth construction requires gamma < 1/2 (use g = 0 above)")
    return (1 - gamma + math.sqrt(2 * (1 - gamma))) / (1 + gamma)


def sigma_g(p, periods):
    """Self-similar sawtooth: zeros at sigma^i for i = 0..periods, slopes
    alternating +-1, nonnegative on [sigma^i, sigma^(i+1)) for odd i.

    The infinite construction oscillates all the way down to 0; here the
    window starts at sigma^0 = 1 with a flat run-in to the origin so that
    g(0) = 0 holds, which leaves the tail behaviour untouched.
    """
    if periods < 2:
        raise ValueError("periods must be at least 2")
    sigma = sigma_ratio(p)
    pts = [(0.0, 0.0), (1.0, 0.0)]
    lo = 1.0
    for i in range(periods):
        hi = lo * sigma
        mid = (lo + hi) / 2
        if not math.isfinite(mid):
            raise ValueError(f"periods = {periods} overflows: the breakpoints of "
                             f"period {i + 1} exceed the float range (sigma = {sigma:.9g})")
        sign = 1.0 if i % 2 == 1 else -1.0
        pts.append((mid, sign * (hi - lo) / 2))
        pts.append((hi, 0.0))
        lo = hi
    tail = 1.0 if periods % 2 == 1 else -1.0
    return PLFunction.from_points(pts, tail_slope=tail)


def sigma_peak_levels(p, periods):
    """Tilted peak levels of the sawtooth: level of tooth i under the
    functional that peaks there (odd teeth for +, even for -)."""
    sigma = sigma_ratio(p)
    levels = []
    lo = 1.0
    for _ in range(periods):
        hi = lo * sigma
        levels.append(p.gamma * (lo + hi) / 2 + (hi - lo) / 2)
        lo = hi
    return levels


def sigma_window(p, periods):
    """A level window over which the sawtooth supremum equals its tail value:
    interior peak levels with two more teeth of headroom on each side."""
    if periods < 6:
        raise ValueError("need at least 6 periods for an interior window")
    levels = sigma_peak_levels(p, periods)
    return 0.999 * levels[periods - 5], levels[periods - 3]


def sup_ratio(g, p, t_lo, t_hi):
    """sup over t in [t_lo, t_hi] of (crossing+ + crossing-)/t, exactly.

    Both crossings are piecewise linear in t between critical levels (the
    tilted images of g's breakpoints), and the ratio is monotone on each
    piece, so the supremum is attained at a critical level or as a right
    limit there; right limits are evaluated with strict crossings.  The
    levels are sorted once, and each sign's crossings, strict or not, are
    one sweep over them.
    """
    if not 0 < t_lo < t_hi:
        raise ValueError("need 0 < t_lo < t_hi")
    tilted = [_tilted(g, p.gamma, sign) for sign in (1, -1)]
    levels = sorted({t_lo, t_hi}.union(*(
        [v for v in ys if t_lo <= v <= t_hi] for _, ys, _ in tilted)))
    at = [_crossings(*f, levels) for f in tilted]
    for sign, crossings in zip((1, -1), at):
        if crossings[-1] == INF:
            raise UnboundedCandidateError(
                f"crossing with sign {sign:+d} is infinite at t = {t_hi}")
    # finite at t_hi bounds every crossing below it, so no ratio is NaN
    below = levels[:-1]
    right = [_crossings(*f, below, strict=True) for f in tilted]
    return max(max((a + b) / t for a, b, t in zip(*at, levels)),
               max((a + b) / t for a, b, t in zip(*right, below)))


def sigma_f_value(lam):
    """Empirical f(lam) through the sawtooth pipeline: build the sawtooth,
    evaluate the ratio supremum on an interior window, substitute into f."""
    p = GammaParam.from_lambda(lam)
    g = sigma_g(p, _SIGMA_F_PERIODS)
    t_lo, t_hi = sigma_window(p, _SIGMA_F_PERIODS)
    h = sup_ratio(g, p, t_lo, t_hi)
    return f_from_h(h, lam)


def random_alternating_candidate(rng, p, max_pieces=40, span_cap=1e9):
    """Random alternating +-1 candidate with geometric-ish tooth growth tuned
    around the sawtooth ratio, canonicalized and extrema-reduced; the growth
    keeps both tilted functions unbounded so tail windows exist."""
    growth = sigma_ratio(p) * rng.uniform(0.75, 1.4)
    pts = [(0.0, 0.0)]
    x = y = 0.0
    slope = 1.0
    ell = rng.uniform(0.5, 2.0)
    for _ in range(max_pieces):
        x += ell
        y += slope * ell
        pts.append((x, y))
        slope = -slope
        ell *= growth * rng.uniform(0.8, 1.25)
        if x > span_cap:
            break
    g = PLFunction.from_points(pts, tail_slope=slope)
    return remove_extrema(canonicalize(g, span=x), p)


def candidate_window(g, p):
    """The full level window a candidate supports: [1, 95% of the joint
    crossing capacity].  Measuring the ratio supremum here gives the
    candidate every jump it owns, and is dominated by its true limit
    superior (which is infinite past the capacity).  Returns None when the
    capacity does not even reach level 1."""
    cap_p = max(p.gamma * x + y for x, y in zip(g.breakpoints, g.values))
    cap_m = max(p.gamma * x - y for x, y in zip(g.breakpoints, g.values))
    cap = 0.95 * min(cap_p, cap_m)
    if cap <= 1.0:
        return None
    return 1.0, cap


def canonicalize(g, span):
    """Distance-1 tracker: replace g by a function with slopes alternating
    +1, -1 starting at +1, staying within sup-distance 1 of g on [0, span].

    The tracker moves with slope +1 until it sits 1 above g, then with slope
    -1 until 1 below, and so on; pieces after the first have length >= 1 and
    the first has length >= 1/2 (the final piece may be cut at span).
    """
    if span <= 0:
        raise ValueError("span must be positive")
    if span > 1e14:
        raise ValueError("span too large for distance-1 tracking in float64")
    pts = [(0.0, 0.0)]
    x0, y0, slope = 0.0, 0.0, 1.0
    bp, j = g.breakpoints, 0
    while x0 < span:
        j = bisect_right(bp, x0, j)     # bp[j:] lie right of x0
        # first x > x0 where slope * (tracker - g) reaches +1
        nxt = _tracker_crossing(g, x0, y0, slope, j)
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


def _tracker_crossing(g, x0, y0, slope, j):
    """The first crossing of level 1 by slope * (tracker - g), the tracker
    leaving (x0, y0) with the given slope: what ``_crossings`` gives on x0
    and the breakpoints bp[j:] right of it, with the same float
    expressions, but each vertex is computed only when the walk gets there.
    The walk stops at the crossing, where the next piece starts, so a
    canonicalization reads O(breakpoints + pieces) values, not breakpoints
    for every piece."""
    def gap(x):
        return slope * (y0 + slope * (x - x0) - g(x))

    bp = g.breakpoints
    xs, ys = [x0], [gap(x0)]
    while ys[-1] < 1.0 and j < len(bp):
        xs.append(bp[j])
        ys.append(gap(bp[j]))
        j += 1
    k = len(xs) - 1 if not ys[-1] < 1.0 else len(xs)
    return _crossing_at(xs, ys, 1 - slope * g.tail_slope, 1.0, k)


def remove_extrema(g, p):
    """Delete dominated peaks and valleys of an alternating +-1 function.

    A peak (odd vertex) whose tilted value gamma*x + g(x) does not exceed the
    previous peak's can never be a first crossing; it is removed by extending
    the neighbouring descending and ascending lines until they meet (and
    symmetrically for valleys under gamma*x - g(x)).  Repeats on the first
    removable extremum until none remains.
    """
    if not g.is_alternating_unit():
        raise ValueError("input must have alternating +-1 slopes starting with +1")
    xs, ys = list(g.breakpoints), list(g.values)
    gamma = p.gamma
    changed = True
    while changed:
        changed = False
        m = len(xs)
        for i in range(2, m - 2):
            peak = i % 2 == 1
            sign = 1.0 if peak else -1.0
            if gamma * xs[i] + sign * ys[i] <= gamma * xs[i - 2] + sign * ys[i - 2]:
                xstar = (xs[i - 1] + xs[i + 1] + sign * (ys[i - 1] - ys[i + 1])) / 2
                ystar = ys[i - 1] - sign * (xstar - xs[i - 1])
                xs[i - 1:i + 2] = [xstar]
                ys[i - 1:i + 2] = [ystar]
                changed = True
                break
    return PLFunction(tuple(xs), tuple(ys), g.tail_slope)


@dataclass(frozen=True)
class BreakpointTrace:
    """Piece lengths, piece ends and tilted crossing levels of an alternating
    +-1 function; the first piece always has slope +1."""

    piece_lengths: tuple
    ends: tuple
    crossing_values: tuple
    first_slope: int = 1


def _recurrence_constants(gamma):
    """q = (1-gamma)/(1+gamma), c = 2/(1-gamma^2) and d = 2/(1+gamma), the
    constants of the level recurrence, in gamma's own arithmetic (float or
    Fraction)."""
    return (1 - gamma) / (1 + gamma), 2 / (1 - gamma * gamma), 2 / (1 + gamma)


def _piece_levels(ell, gamma):
    """Piece ends x_i and levels t_i = gamma*x_i +- g(x_i) (sign + on the
    rising pieces) of the alternating +-1 function with piece lengths ell."""
    ends, ts = [], []
    x = Fraction(0)
    y = Fraction(0)
    for i, l in enumerate(ell, start=1):
        x += l
        y += l if i % 2 == 1 else -l
        ends.append(x)
        ts.append(gamma * x + (y if i % 2 == 1 else -y))
    return ends, ts


def trace(g, p):
    """Exact breakpoint trace of an alternating +-1 function, cross-checked
    in rational arithmetic against the closed formula expressing each piece
    end in terms of the crossing levels.  The formula is an identity in
    gamma, so each end must equal it exactly."""
    if not g.is_alternating_unit():
        raise ValueError("input must have alternating +-1 slopes starting with +1")
    gamma = Fraction(p.gamma)
    xs = [Fraction(b) for b in g.breakpoints]
    ell = [b - a for a, b in zip(xs, xs[1:])]
    ends, ts = _piece_levels(ell, gamma)
    # closed formula x_i = t_i/(1+gamma) + c*S_i with c = 2/(1-gamma^2) and
    # S_i = sum_{j<i} q^(i-j) t_j, kept as S_i = q*(S_{i-1} + t_{i-1})
    q, c, _ = _recurrence_constants(gamma)
    S = Fraction(0)
    for i, (xi, t) in enumerate(zip(ends, ts), start=1):
        acc = t / (1 + gamma) + c * S
        if acc != xi:
            raise ConsistencyError(f"piece end {i}: closed formula {acc} != {xi}")
        S = q * (S + t)
    # identity t_i = sum_{j<=i} (gamma + (-1)^(j-i)) ell_j
    #              = gamma*(total length) + (same-parity lengths) - (other-parity lengths)
    total = Fraction(0)
    by_parity = [Fraction(0), Fraction(0)]
    for i, l in enumerate(ell, start=1):
        total += l
        by_parity[i % 2] += l
        if gamma * total + by_parity[i % 2] - by_parity[1 - i % 2] != ts[i - 1]:
            raise ConsistencyError(f"level identity failed at {i}")
    return BreakpointTrace(tuple(float(l) for l in ell),
                           tuple(float(x) for x in ends),
                           tuple(float(t) for t in ts))


def increasing_levels(ts):
    """The subsequence of levels that are >= _LEVEL_FLOOR and strict running
    maxima; the reduction under which only these levels matter for the
    supremum."""
    out, best = [], -INF
    for t in ts:
        if t >= _LEVEL_FLOOR and t > best:
            out.append(t)
            best = t
    return out


def s_good(ts, S, p):
    """Whether the increasing level sequence certifies value S: for every
    checkable i, S*t_i dominates the closed lower-bound expression built from
    t_1..t_{i+1} (t_0 = 0).  A single-entry sequence is vacuously good."""
    q, c, d = _recurrence_constants(p.gamma)
    full = [0.0] + list(ts)
    for i in range(1, len(ts)):
        rhs = d * full[i]
        for j in range(1, i + 2):
            rhs += c * q ** (i - j + 2) * (full[j] + full[j - 1])
        if S * full[i] < rhs - _S_GOOD_TOL * max(1.0, abs(rhs)):
            return False
    return True


@dataclass(frozen=True)
class RecurrenceRun:
    """Trajectory of the level recurrence at a candidate value S.

    ``T`` holds the float-representable prefix (the scan itself continues on
    a rescaled state, so huge trajectories do not overflow);
    ``first_nonpositive`` is the 1-based index of the first entry <= 0, if
    any; ``discriminant`` belongs to the characteristic polynomial
    x^2 + alpha*x + beta of the equivalent three-term recurrence.
    """

    S: float
    T: tuple
    first_nonpositive: int | None
    discriminant: float
    alpha: float
    beta: float


def recurrence_discriminant(S, p):
    """Discriminant of x^2 + alpha*x + beta for the three-term form of the
    level recurrence at S; its sign flips exactly at the sawtooth value."""
    q, c, d = _recurrence_constants(p.gamma)
    alpha = -(S - d - c * q) / (c * q)
    beta = (S - d) / c
    return alpha * alpha - 4 * beta, alpha, beta


def run_recurrence(t1, S, p, N):
    """Run the level recurrence T_1 = t1, T_{i+1} defined by the equality case
    of the certificate inequality, for N steps.

    Growth is geometric, so the linear state (T_i, running sum) is rescaled
    uniformly whenever it gets large; rescaling preserves signs and ratios.
    """
    if t1 <= 0:
        raise ValueError("t1 must be positive")
    if N < 2:
        raise ValueError("N must be at least 2")
    q, c, d = _recurrence_constants(p.gamma)
    disc, alpha, beta = recurrence_discriminant(S, p)

    stored = [float(t1)]
    cur = float(t1)        # rescaled T_i
    acc = q * q * cur      # rescaled running sum_{j<=i} q^(i-j+2) (T_j + T_{j-1})
    scale = 1.0            # stored value = rescaled value * scale while storing
    first_np = None
    for i in range(2, N + 1):
        nxt = ((S - d) * cur - c * acc) / (c * q) - cur
        if not math.isfinite(nxt):
            raise OverflowError(f"recurrence overflowed at index {i}")
        if nxt <= 0 and first_np is None:
            first_np = i
            stored.append(nxt * scale if abs(nxt * scale) < 1e280 else nxt)
            break
        acc = q * acc + q * q * (nxt + cur)
        cur = nxt
        true_mag = abs(cur) * scale
        if true_mag < 1e280:
            stored.append(cur * scale)
        if abs(cur) > 1e200:
            cur *= 1e-200
            acc *= 1e-200
            scale *= 1e200
    return RecurrenceRun(S=float(S), T=tuple(stored), first_nonpositive=first_np,
                         discriminant=disc, alpha=alpha, beta=beta)


def rotate(g):
    """Change of variables z(x) = g(y) - y at the unique y with x = g(y) + y.

    Requires g non-decreasing (then x -> g(x) + x is strictly increasing and
    the difference quotients of g and the identity never have opposite signs,
    which is what makes z 1-Lipschitz); z(0) = 0 and the image is computed
    segment by segment in closed form.
    """
    for s in g.slopes() + [g.tail_slope]:
        if abs(s + 1) <= _ID_TOL:
            raise ValueError("a segment of slope -1 makes the parameterization non-invertible")
        if s < 0:
            raise ValueError("rotation requires a non-decreasing function")
    xs = tuple(y + v for y, v in zip(g.breakpoints, g.values))
    zs = tuple(v - y for y, v in zip(g.breakpoints, g.values))
    tail = (g.tail_slope - 1) / (g.tail_slope + 1)
    return PLFunction(xs, zs, tail)
