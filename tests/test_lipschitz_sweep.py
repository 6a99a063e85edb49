"""The crossing sweep, ``sup_ratio`` and ``trace`` against the per-level reference.

``lipschitz_reference`` keeps the scan that searched every level from the
first vertex, the ``sup_ratio`` that called it four times per critical level,
and the ``trace`` that checked its closed formula with O(n^2) double loops.
Every result here must be ``==`` to the reference's, and every
``UnboundedCandidateError`` must carry the same message.
"""

import math
import random

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


def test_nan_inputs_are_rejected():
    # a NaN vertex or level is never below a level, so the sweep could not skip it
    with pytest.raises(ValueError, match="NaN"):
        PLFunction((0.0, 1.0), (0.0, math.nan))
    with pytest.raises(ValueError, match="NaN"):
        PLFunction((0.0,), (0.0,), tail_slope=math.nan)
    with pytest.raises(ValueError, match="non-decreasing"):
        _crossings((0.0,), (0.0,), 1.0, [1.0, math.nan])
