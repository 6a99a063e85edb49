"""The crossing sweep, ``sup_ratio`` and ``trace`` against the per-level reference.

``lipschitz_reference`` keeps the scan that searched every level from the
first vertex, the ``sup_ratio`` that called it four times per critical level,
and the ``trace`` that checked its closed formula with O(n^2) double loops.
Every result here must be ``==`` to the reference's, and every
``UnboundedCandidateError`` must carry the same message.
"""

import math
import random
from fractions import Fraction

import pytest

import lipschitz_reference as lref
from ramseydensity import lipschitz
from ramseydensity.lipschitz import (ConsistencyError, GammaParam, PLFunction,
                                     UnboundedCandidateError,
                                     _crossings, candidate_window,
                                     random_alternating_candidate, sigma_g, sigma_window,
                                     sup_ratio, trace)

LAMBDAS = (0.2, 0.5, 1.0, 1.5, 2.0, 2.5)


def outcome(f, *args):
    """f(*args), or the type and message of the UnboundedCandidateError it raises."""
    try:
        return f(*args)
    except UnboundedCandidateError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_sweep_equals_scan_on_arbitrary_vertices(seed, strict):
    # vertices in any order of height, as ell_crossing and canonicalize build them
    rng = random.Random(seed)
    for _ in range(20):
        m = rng.randint(1, 30)
        xs = [0.0]
        for _ in range(m - 1):
            xs.append(xs[-1] + rng.uniform(0.1, 3.0))
        ys = [rng.uniform(-5, 5) for _ in range(m)]
        ys[rng.randrange(m)] = ys[rng.randrange(m)]  # a repeated height
        tail = rng.choice([rng.uniform(-1, 1), 0.0, 1.0])
        levels = sorted([rng.uniform(0, 8) for _ in range(50)]
                        + [y for y in ys if y >= 0] + [0.0])
        assert _crossings(xs, ys, tail, levels, strict=strict) \
            == [lref._first_crossing(xs, ys, tail, t, strict=strict) for t in levels]


@pytest.mark.parametrize("periods", [6, 10, 30])
@pytest.mark.parametrize("lam", LAMBDAS)
def test_sup_ratio_on_sawtooths_equals_reference(lam, periods):
    p = GammaParam.from_lambda(lam)
    g = sigma_g(p, periods)
    window = sigma_window(p, periods)
    assert sup_ratio(g, p, *window) == lref.sup_ratio(g, p, *window)


@pytest.mark.parametrize("lam", LAMBDAS)
def test_sup_ratio_on_random_candidates_equals_reference(lam):
    p = GammaParam.from_lambda(lam)
    rng = random.Random(int(10 * lam))
    raised = []
    for _ in range(12):
        g = random_alternating_candidate(rng, p, max_pieces=rng.randint(4, 40), span_cap=1e7)
        windows = [] if candidate_window(g, p) is None else [candidate_window(g, p)]
        # the joint capacity: both crossings are finite at levels up to it
        cap = max(1.0, min(max(p.gamma * x + sign * y for x, y in zip(g.breakpoints, g.values))
                           for sign in (1, -1)))
        for _ in range(6):
            t_lo = rng.uniform(0.05, cap)
            windows.append((t_lo, rng.uniform(1.01 * t_lo, 1.2 * cap)))
        for window in windows:
            new = outcome(sup_ratio, g, p, *window)
            assert new == outcome(lref.sup_ratio, g, p, *window)
            raised.append(isinstance(new, tuple))
    assert any(raised) and not all(raised)  # some windows, not all, reach past the capacity


def test_unbounded_messages_name_the_same_sign():
    p = GammaParam.from_gamma(0.0)
    for g in (PLFunction.zero(), PLFunction.linear(1.0), PLFunction.linear(-1.0)):
        new = outcome(sup_ratio, g, p, 1.0, 2.0)
        assert new == outcome(lref.sup_ratio, g, p, 1.0, 2.0)
        assert new[0] is UnboundedCandidateError


@pytest.mark.parametrize("lam", (0.2, 0.5, 1.0, 1.3, 2.0, 2.5))
def test_trace_equals_reference(lam):
    p = GammaParam.from_lambda(lam)
    rng = random.Random(int(100 * lam))
    for pieces in (5, 20, 60):
        g = random_alternating_candidate(rng, p, max_pieces=pieces, span_cap=1e9)
        assert trace(g, p) == lref.trace(g, p)


def test_trace_names_the_piece_where_a_check_fails(monkeypatch):
    # both checks compare two exact forms of one rational, so no input can
    # fail them; the fault is put into the piece levels by hand instead
    p = GammaParam.from_lambda(0.5)
    g = PLFunction((0.0, 2.0, 3.0, 5.0, 6.0), (0.0, 2.0, 1.0, 3.0, 2.0))
    honest = lipschitz._piece_levels

    def moved_end(ell, gamma):
        ends, ts = honest(ell, gamma)
        ends[2] += 1
        return ends, ts

    monkeypatch.setattr(lipschitz, "_piece_levels", moved_end)
    with pytest.raises(ConsistencyError, match=r"^piece end 3: closed formula 5 != 6$"):
        trace(g, p)

    def moved_last_level(ell, gamma):
        # the last end moves with its level, so the closed formula still holds
        ends, ts = honest(ell, gamma)
        ts[-1] += 1
        ends[-1] += 1 / (1 + gamma)
        return ends, ts

    monkeypatch.setattr(lipschitz, "_piece_levels", moved_last_level)
    with pytest.raises(ConsistencyError, match=r"^level identity failed at 4$"):
        trace(g, p)


def test_trace_checks_its_closed_formula_exactly(monkeypatch):
    # the formula is an identity in gamma, so a piece end moved by one part
    # in 10^12, far inside any relative tolerance, must still be caught
    p = GammaParam.from_lambda(0.5)
    g = PLFunction((0.0, 2.0, 3.0, 5.0, 6.0), (0.0, 2.0, 1.0, 3.0, 2.0))
    honest = lipschitz._piece_levels

    def nudged_end(ell, gamma):
        ends, ts = honest(ell, gamma)
        ends[2] *= 1 + Fraction(1, 10 ** 12)
        return ends, ts

    monkeypatch.setattr(lipschitz, "_piece_levels", nudged_end)
    with pytest.raises(ConsistencyError, match=r"^piece end 3: closed formula 5 != "):
        trace(g, p)


def test_nan_inputs_are_rejected():
    # a NaN vertex or level is never below a level, so the sweep could not skip it
    with pytest.raises(ValueError, match="NaN"):
        PLFunction((0.0, 1.0), (0.0, math.nan))
    with pytest.raises(ValueError, match="NaN"):
        PLFunction((0.0,), (0.0,), tail_slope=math.nan)
    with pytest.raises(ValueError, match="non-decreasing"):
        _crossings((0.0,), (0.0,), 1.0, [1.0, math.nan])


def random_profile(rng, pieces):
    """A PL function with the given number of pieces, dx in [0.05, 4] and
    slopes in [-1, 1] (0 and +-1 among them)."""
    pts = [(0.0, 0.0)]
    for _ in range(pieces):
        dx = rng.uniform(0.05, 4.0)
        slope = rng.choice([rng.uniform(-1.0, 1.0), 0.0, 1.0, -1.0])
        x, y = pts[-1]
        pts.append((x + dx, y + slope * dx))
    return PLFunction.from_points(pts, tail_slope=rng.uniform(-1.0, 1.0))


def canonicalize_outcome(f, g, span):
    try:
        return f(g, span)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(6))
def test_canonicalize_equals_reference(seed):
    # the tracker's crossing walk evaluates the reference's float
    # expressions, so every breakpoint and value is the same float; spans
    # end before, at and after g's last breakpoint
    rng = random.Random(seed)
    p = GammaParam.from_lambda(LAMBDAS[seed])
    cases = [(random_profile(rng, rng.randint(1, 120)), rng.choice([0.5, 1.0, 1.5]))
             for _ in range(40)]
    cases += [(sigma_g(p, periods), 1.0) for periods in (4, 9)]
    cases += [(random_alternating_candidate(rng, p, max_pieces=30, span_cap=1e6), 1.0)
              for _ in range(3)]
    cases += [(g, 1.0) for g in (PLFunction.zero(), PLFunction.linear(1.0),
                                 PLFunction.linear(-1.0), PLFunction.linear(0.5))]
    for g, scale in cases:
        for span in (scale * max(g.span, 3.0), g.span + 2.0, rng.uniform(0.1, 3.0)):
            got = canonicalize_outcome(lipschitz.canonicalize, g, span)
            assert got == canonicalize_outcome(lref.canonicalize, g, span)
            assert isinstance(got, PLFunction)


def test_canonicalize_rejects_spans_like_reference():
    g = random_profile(random.Random(1), 5)
    for span in (0.0, -1.0, 2e14):
        got = canonicalize_outcome(lipschitz.canonicalize, g, span)
        assert got == canonicalize_outcome(lref.canonicalize, g, span)
        assert isinstance(got, str)


@pytest.mark.parametrize("y1", [0.0328, 0.03280632784038988, 0.02123576525162417])
def test_canonicalize_reaches_the_level_at_a_vertex(y1):
    # the first piece's gap x - g(x) is exactly 1 at the breakpoint x = 1,
    # where the crossing is solved on the segment ending there, not read off
    # the vertex, as the reference does
    g = PLFunction.from_points([(0, 0), (0.1, y1), (1.0, 0.0), (4.0, -0.5)])
    assert lipschitz.canonicalize(g, 6.0) == lref.canonicalize(g, 6.0)
