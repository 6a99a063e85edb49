import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ramseydensity.lipschitz import (
    ConsistencyError, GammaParam, PLFunction, UnboundedCandidateError,
    canonicalize, ell_crossing, f_closed, f_from_h, gamma_crossing,
    h_upper_and_f, increasing_levels, random_alternating_candidate,
    recurrence_discriminant, remove_extrema, rotate, run_recurrence, s_good,
    sigma_f_value, sigma_g, sigma_peak_levels, sigma_ratio, sigma_window, sup_ratio,
    candidate_window, trace)

ZERO = PLFunction.zero()
IDENT = PLFunction.linear(1.0)
G0 = GammaParam.from_gamma(0.0)


def random_lipschitz(rng, pieces=6, tail=None):
    xs = [0.0]
    ys = [0.0]
    for _ in range(pieces):
        dx = rng.uniform(0.3, 2.5)
        xs.append(xs[-1] + dx)
        ys.append(ys[-1] + rng.uniform(-1, 1) * dx)
    return PLFunction(tuple(xs), tuple(ys),
                      rng.uniform(-1, 1) if tail is None else tail)


class TestPLFunction:
    def test_interpolation_and_tail(self):
        g = PLFunction((0.0, 2.0), (0.0, 1.0), tail_slope=-0.5)
        assert g(1.0) == 0.5
        assert g(2.0) == 1.0
        assert g(4.0) == 0.0

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PLFunction((0.0, 1.0), (0.1, 0.0))        # g(0) != 0
        with pytest.raises(ValueError):
            PLFunction((0.5, 1.0), (0.0, 0.0))        # first breakpoint != 0
        with pytest.raises(ValueError):
            PLFunction((0.0, 1.0), (0.0, 1.5))        # slope 1.5
        with pytest.raises(ValueError):
            PLFunction((0.0, 1.0, 1.0), (0.0, 0.5, 0.5))  # not increasing

    def test_steep_pieces_rejected_by_every_constructor(self):
        segment, tail = "violates the 1-Lipschitz bound", r"tail slope outside \[-1, 1\]"
        slope = r"the slope must lie in \[-1, 1\]"
        for build, message in [
                (lambda: PLFunction((0.0, 1.0), (0.0, 1.001)), segment),
                (lambda: PLFunction((0.0,), (0.0,), -1.001), tail),
                (lambda: PLFunction.from_points([(0, 0), (2, -2), (3, -0.999)]), segment),
                (lambda: PLFunction.from_points([(0, 0), (1, 1)], tail_slope=1.001), tail),
                (lambda: PLFunction.linear(1.001), slope),
                (lambda: PLFunction.linear(-1.001), slope)]:
            with pytest.raises(ValueError, match=message):
                build()
        # slopes of exactly +-1 are 1-Lipschitz
        assert PLFunction.linear(-1.0)(2.0) == -2.0
        assert PLFunction.from_points([(0, 0), (2, -2), (3, -1)], tail_slope=1.0)(4.0) == 0.0

    def test_infinite_breakpoints_and_values_rejected(self):
        # an infinite segment made the Lipschitz test vacuous, and g(1) NaN
        for build in (lambda: PLFunction((0.0, math.inf), (0.0, math.inf)),
                      lambda: PLFunction.from_points([(0, 0), (1, 1), (math.inf, 1)]),
                      lambda: PLFunction((0.0, 1.0), (0.0, -math.inf))):
            with pytest.raises(ValueError, match="breakpoints and values must be finite"):
                build()
        with pytest.raises(ValueError, match="NaN"):
            PLFunction((0.0, math.inf), (0.0, math.nan))
        with pytest.raises(ValueError, match=r"tail slope outside \[-1, 1\]"):
            PLFunction((0.0,), (0.0,), math.inf)


class TestGammaParam:
    def test_roundtrip(self):
        p = GammaParam.from_lambda(3.0)
        assert p.gamma == pytest.approx(0.5, abs=1e-12)
        q = GammaParam.from_gamma(-1 / 3)
        assert q.lam == pytest.approx(0.5, abs=1e-12)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GammaParam(0.5, 2.0)


class TestGammaCrossing:
    def test_flat_g_tilt_only(self):
        p = GammaParam.from_gamma(0.5)
        assert gamma_crossing(ZERO, p, 1.0, 1) == 2.0

    def test_identity_g(self):
        assert gamma_crossing(IDENT, G0, 3.0, 1) == 3.0

    def test_no_crossing_is_inf(self):
        assert gamma_crossing(IDENT, G0, 1.0, -1) == math.inf

    def test_t_zero_crosses_at_origin(self):
        assert gamma_crossing(ZERO, G0, 0.0, 1) == 0.0

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            gamma_crossing(ZERO, G0, -1.0, 1)

    @given(st.integers(0, 10 ** 6), st.floats(0.1, 5.0), st.floats(0.2, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_t_and_refinement_invariant(self, seed, t1, dt):
        rng = random.Random(seed)
        g = random_lipschitz(rng)
        p = GammaParam.from_gamma(rng.uniform(-0.8, 0.8))
        for sign in (1, -1):
            a = gamma_crossing(g, p, t1, sign)
            b = gamma_crossing(g, p, t1 + dt, sign)
            assert b >= a - 1e-12
            refined = g.refine([x + 0.1 for x in g.breakpoints[:-1]])
            assert gamma_crossing(refined, p, t1, sign) == pytest.approx(
                a, rel=1e-9, abs=1e-9) or (a == math.inf
                                           and gamma_crossing(refined, p, t1, sign) == math.inf)


class TestEllCrossing:
    def test_identity_plus(self):
        assert ell_crossing(IDENT, 2.0, 1.0, 1) == 1.0

    def test_flat_minus(self):
        assert ell_crossing(ZERO, 1.0, 5.0, -1) == 5.0

    def test_identity_minus_never(self):
        assert ell_crossing(IDENT, 1.0, 1.0, -1) == math.inf

    def test_decreasing_g_rejected(self):
        g = PLFunction((0.0, 1.0, 2.0), (0.0, 1.0, 0.5), tail_slope=0.0)
        with pytest.raises(ValueError):
            ell_crossing(g, 1.0, 1.0, 1)

    def test_negative_g_rejected(self):
        g = PLFunction((0.0,), (0.0,), tail_slope=-0.5)
        with pytest.raises(ValueError):
            ell_crossing(g, 1.0, 1.0, 1)


class TestFClosed:
    def test_lambda_one_exact(self):
        b = f_closed(1.0)
        assert b.exact == pytest.approx((12 + math.sqrt(8)) / 17, abs=1e-12)

    def test_lambda_zero(self):
        b = f_closed(0.0)
        assert b.lower == b.upper == b.exact == 1.0

    def test_lambda_two_bounds(self):
        b = f_closed(2.0)
        assert b.upper == pytest.approx((21 + math.sqrt(12)) / 33, abs=1e-12)
        assert b.lower == pytest.approx(0.6, abs=1e-12)
        assert b.exact is None

    def test_branch_continuity_at_three(self):
        lo = f_closed(3.0 - 1e-9).upper
        hi = f_closed(3.0).upper
        assert hi == pytest.approx(2 / 3, abs=1e-9)
        assert lo == pytest.approx(hi, abs=1e-6)

    def test_infinity(self):
        b = f_closed(math.inf)
        assert b.exact == 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f_closed(-0.5)

    def test_monotone_and_numerically_continuous(self):
        xs = [k * 1e-3 for k in range(10001)]
        prev = None
        for x in xs:
            b = f_closed(x)
            if prev is not None:
                assert b.lower <= prev[0] + 1e-12
                assert b.upper <= prev[1] + 1e-12
                assert abs(b.lower - prev[0]) < 1e-2
                assert abs(b.upper - prev[1]) < 1e-2
            prev = (b.lower, b.upper)


class TestSigma:
    def test_ratio_at_gamma_zero(self):
        assert sigma_ratio(G0) == pytest.approx(1 + math.sqrt(2), abs=1e-12)

    def test_zeros_at_powers(self):
        g = sigma_g(G0, 6)
        s = 1 + math.sqrt(2)
        for i in range(7):
            assert g(s ** i) == pytest.approx(0.0, abs=1e-9 * s ** i)

    def test_output_is_lipschitz_alternating_teeth(self):
        g = sigma_g(GammaParam.from_gamma(-1 / 3), 5)
        slopes = g.slopes()
        assert slopes[0] == 0.0  # flat run-in to the origin
        assert all(abs(abs(x) - 1) < 1e-12 for x in slopes[1:])

    def test_gamma_above_half_rejected(self):
        with pytest.raises(ValueError):
            sigma_g(GammaParam.from_gamma(0.5), 4)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1, 1.5, 2])
    def test_f_value_pipeline_equals_the_closed_upper_bound(self, lam):
        assert abs(sigma_f_value(lam) - f_closed(lam).upper) <= 1e-12

    def test_overflow_names_the_period_count(self):
        # at gamma = 0 the breakpoints of period 805 leave the float range
        sigma_g(G0, 800)
        with pytest.raises(ValueError, match=r"periods = 900 overflows.*period 805"):
            sigma_g(G0, 900)


class TestSupRatio:
    def test_flat_candidate_constant_ratio(self):
        p = GammaParam.from_gamma(0.5)
        assert sup_ratio(ZERO, p, 1.0, 7.0) == pytest.approx(4.0, abs=1e-12)

    def test_sigma_pipeline_matches_closed_form(self):
        for lam in (0.2, 0.5, 1.0):
            p = GammaParam.from_lambda(lam)
            g = sigma_g(p, 10)
            h = sup_ratio(g, p, *sigma_window(p, 10))
            target, _ = h_upper_and_f(p)
            assert h == pytest.approx(target, abs=1e-6 * max(1, target))

    def test_lower_bound_two_over_gamma_plus_one(self):
        rng = random.Random(7)
        for _ in range(25):
            p = GammaParam.from_gamma(rng.uniform(-0.6, 0.45))
            g = random_alternating_candidate(rng, p, max_pieces=20, span_cap=1e6)
            w = candidate_window(g, p)
            if w is None:
                continue
            assert sup_ratio(g, p, *w) >= 2 / (p.gamma + 1) - 1e-9

    def test_unbounded_candidate_rejected(self):
        with pytest.raises(UnboundedCandidateError):
            sup_ratio(ZERO, G0, 1.0, 2.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            sup_ratio(ZERO, GammaParam.from_gamma(0.5), 2.0, 1.0)


class TestCanonicalize:
    def test_zero_gives_unit_sawtooth_within_distance_one(self):
        g2 = canonicalize(ZERO, 10.0)
        assert g2.is_alternating_unit()
        assert max(abs(g2(0.1 * k)) for k in range(101)) <= 1 + 1e-9

    def test_slopes_alternate_from_plus_one(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_lipschitz(rng)
            g2 = canonicalize(g, g.span + 2)
            assert g2.is_alternating_unit()
            dist = max(abs(g2(x) - g(x))
                       for x in [g.span * k / 200 for k in range(201)])
            assert dist <= 1 + 1e-9

    def test_interior_pieces_at_least_one(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_lipschitz(rng, pieces=8)
            g2 = canonicalize(g, g.span + 4)
            bp = g2.breakpoints
            assert bp[1] - bp[0] >= 0.5 - 1e-9
            for a, b in zip(bp[1:-2], bp[2:-1]):
                assert b - a >= 1 - 1e-9

    def test_crossing_shift_bound(self):
        # the distance-1 bound, hence the shift bound, holds on the tracked span
        rng = random.Random(11)
        for trial in range(30):
            g = random_lipschitz(rng)
            span = g.span + 2
            g2 = canonicalize(g, span)
            p = GammaParam.from_gamma(rng.uniform(-0.7, 0.7))
            for t in (1.0, 1.7, 2.9, 4.2):
                for sign in (1, -1):
                    lhs = gamma_crossing(g2, p, t, sign)
                    if lhs > span:
                        continue
                    assert lhs >= gamma_crossing(g, p, t - 1, sign) - 1e-9


class TestRemoveExtrema:
    def test_increasing_levels_unchanged(self):
        g = PLFunction((0.0, 1.0, 4.0, 9.0, 16.0), (0.0, 1.0, -2.0, 3.0, -4.0),
                       tail_slope=1.0)
        out = remove_extrema(g, G0)
        assert out.breakpoints == g.breakpoints
        assert out.values == g.values

    def test_dominated_second_peak_removed(self):
        # valleys descend (not removable); the second peak is dominated
        g = PLFunction((0.0, 1.0, 3.0, 4.0, 6.0, 8.0),
                       (0.0, 1.0, -1.0, 0.0, -2.0, 0.0), tail_slope=1.0)
        out = remove_extrema(g, G0)
        peaks = sum(1 for i in range(1, len(out.values) - 1)
                    if out.values[i] > out.values[i - 1]
                    and out.values[i] > out.values[i + 1])
        assert peaks == 1
        # pure peak removal leaves the plus-crossings untouched
        for t in (0.3, 0.9, 1.0, 1.5, 2.4, 3.1):
            assert gamma_crossing(out, G0, t, 1) == pytest.approx(
                gamma_crossing(g, G0, t, 1), rel=1e-12)
        for t in (0.3, 0.9, 1.5, 2.4):
            assert gamma_crossing(out, G0, t, -1) \
                <= gamma_crossing(g, G0, t, -1) + 1e-12

    def test_crossings_never_increase(self):
        rng = random.Random(23)
        for _ in range(25):
            p = GammaParam.from_gamma(rng.uniform(-0.5, 0.45))
            g = canonicalize(random_lipschitz(rng, pieces=10), 12.0)
            out = remove_extrema(g, p)
            for t in (0.5, 1.0, 2.0, 3.5):
                for sign in (1, -1):
                    assert gamma_crossing(out, p, t, sign) \
                        <= gamma_crossing(g, p, t, sign) + 1e-9

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            remove_extrema(ZERO, G0)


class TestTrace:
    def test_consistency_error_survives_optimized_runs(self):
        from ramseydensity.errors import VerificationError
        assert issubclass(ConsistencyError, VerificationError)
        assert not issubclass(ConsistencyError, AssertionError)

    def test_levels_one_to_four(self):
        # gamma = 0 turns the closed formula into x_i = t_i + 2 sum_{j<i} t_j
        g = PLFunction((0.0, 1.0, 4.0, 9.0, 16.0), (0.0, 1.0, -2.0, 3.0, -4.0),
                       tail_slope=1.0)
        tr = trace(g, G0)
        assert tr.ends == (1.0, 4.0, 9.0, 16.0)
        assert tr.crossing_values == (1.0, 2.0, 3.0, 4.0)
        assert tr.first_slope == 1

    def test_single_piece(self):
        g = PLFunction((0.0, 5.0), (0.0, 5.0), tail_slope=-1.0)
        tr = trace(g, G0)
        assert tr.ends == (5.0,)
        assert tr.crossing_values == (5.0,)

    def test_nonzero_gamma_consistency(self):
        rng = random.Random(77)
        for _ in range(10):
            p = GammaParam.from_gamma(rng.uniform(-0.6, 0.6))
            g = canonicalize(random_lipschitz(rng, pieces=7), 9.0)
            tr = trace(g, p)  # raises ConsistencyError on formula mismatch
            assert len(tr.piece_lengths) == len(g.breakpoints) - 1


class TestIncreasingLevels:
    def test_running_maxima_only(self):
        assert increasing_levels([0.5, 2.0, 1.0, 3.0, 2.5]) == [2.0, 3.0]


class TestSGood:
    def test_recurrence_is_equality_case(self):
        p = G0
        run = run_recurrence(1.0, 14.0, p, 12)
        assert s_good(run.T, 14.0, p)

    def test_bumped_sequence_fails(self):
        p = G0
        run = run_recurrence(1.0, 13.66, p, 10)
        ts = list(run.T)
        ts[4] *= 1.1
        assert not s_good(ts, 13.0, p)

    def test_single_entry_vacuous(self):
        assert s_good([1.0], 1.0, G0)


class TestRecurrence:
    def test_below_boundary_dies(self):
        run = run_recurrence(1.0, 13.65, G0, 10 ** 4)
        assert run.first_nonpositive is not None

    def test_above_boundary_survives(self):
        run = run_recurrence(1.0, 13.67, G0, 10 ** 4)
        assert run.first_nonpositive is None

    def test_three_term_consistency(self):
        for gamma in (0.0, 0.3, -0.4):
            p = GammaParam.from_gamma(gamma)
            S = 1.05 * h_upper_and_f(p)[0]
            run = run_recurrence(1.0, S, p, 9)
            q = (1 - gamma) / (1 + gamma)
            c = 2 / (1 - gamma * gamma)
            d = 2 / (1 + gamma)
            for i in range(2, 8):
                expect = ((S - d - c * q) * run.T[i - 1]
                          - q * (S - d) * run.T[i - 2]) / (c * q)
                assert run.T[i] == pytest.approx(expect, rel=1e-9)

    def test_defining_equation_residual(self):
        # every stored T_{i+1} satisfies the defining equality, with the
        # running sum recomputed from scratch
        for gamma, S in ((0.0, 13.9), (0.25, 9.0), (-0.5, 120.0)):
            p = GammaParam.from_gamma(gamma)
            run = run_recurrence(1.0, S, p, 10)
            q = (1 - gamma) / (1 + gamma)
            c = 2 / (1 - gamma * gamma)
            d = 2 / (1 + gamma)
            T = (0.0,) + run.T
            for i in range(1, len(run.T) - 1):
                rhs = d * T[i] + c * sum(
                    q ** (i - j + 2) * (T[j] + T[j - 1])
                    for j in range(1, i + 2))
                assert S * T[i] == pytest.approx(rhs, rel=1e-9)

    def test_discriminant_boundary_matches_sawtooth_value(self):
        for gamma in (0.0, 0.2, -0.3):
            p = GammaParam.from_gamma(gamma)
            target = h_upper_and_f(p)[0]
            lo, hi = target - 1.0, target + 1.0
            for _ in range(80):
                mid = (lo + hi) / 2
                if recurrence_discriminant(mid, p)[0] < 0:
                    lo = mid
                else:
                    hi = mid
            assert hi == pytest.approx(target, abs=1e-9 * max(1, target))

    def test_positivity_bisection_matches_discriminant(self):
        lo, hi = 13.0, 14.5
        for _ in range(40):
            mid = (lo + hi) / 2
            if run_recurrence(1.0, mid, G0, 10 ** 4).first_nonpositive is None:
                hi = mid
            else:
                lo = mid
        assert hi == pytest.approx(8 + math.sqrt(32), abs=1e-4)


class TestRotate:
    def test_zero_becomes_negative_identity(self):
        z = rotate(ZERO)
        assert z(2.0) == -2.0

    def test_identity_becomes_zero(self):
        z = rotate(IDENT)
        assert z(5.0) == 0.0

    def test_slope_minus_one_rejected(self):
        g = PLFunction((0.0, 1.0), (0.0, -1.0), tail_slope=0.0)
        with pytest.raises(ValueError):
            rotate(g)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_output_is_lipschitz(self, seed):
        rng = random.Random(seed)
        xs, ys = [0.0], [0.0]
        for _ in range(5):
            dx = rng.uniform(0.3, 2.0)
            xs.append(xs[-1] + dx)
            ys.append(ys[-1] + rng.uniform(0.0, 1.0) * dx)
        g = PLFunction(tuple(xs), tuple(ys), rng.uniform(0.0, 1.0))
        rotate(g)  # constructor enforces the 1-Lipschitz invariant

    def test_rotation_identities(self):
        rng = random.Random(99)
        for _ in range(25):
            # nonnegative nondecreasing candidates with growing tails
            xs, ys = [0.0], [0.0]
            for _ in range(5):
                dx = rng.uniform(0.4, 2.0)
                xs.append(xs[-1] + dx)
                ys.append(ys[-1] + rng.uniform(0.0, 1.0) * dx)
            lam = rng.choice([2.0, 3.0])
            g = PLFunction(tuple(xs), tuple(ys), rng.uniform(1 / lam + 0.1, 1.0))
            z = rotate(g)
            gamma = (lam - 1) / (lam + 1)
            for t in (0.7, 1.3, 2.9):
                y_t = ell_crossing(g, lam, t, 1)
                if y_t != math.inf:
                    x_t = g(lam * y_t) + lam * y_t
                    assert gamma * x_t + z(x_t) == pytest.approx(
                        2 * lam * t / (1 + lam), abs=1e-9 * max(1, x_t))
                y_t = ell_crossing(g, lam, t, -1)
                if y_t != math.inf:
                    x_t = g(y_t) + y_t
                    assert gamma * x_t - z(x_t) == pytest.approx(
                        2 * lam * t / (1 + lam), abs=1e-9 * max(1, x_t))


class TestHUpperAndF:
    def test_gamma_zero(self):
        h, f = h_upper_and_f(G0)
        assert h == pytest.approx(8 + math.sqrt(32), abs=1e-12)
        assert f == pytest.approx((12 + math.sqrt(8)) / 17, abs=1e-12)
        assert f == pytest.approx(f_closed(1.0).exact, abs=1e-12)

    def test_gamma_half(self):
        h, f = h_upper_and_f(GammaParam.from_gamma(0.5))
        assert h == pytest.approx(4.0, abs=1e-12)
        assert f == pytest.approx(2 / 3, abs=1e-12)

    def test_dominates_lower_bound_on_grid(self):
        for k in range(-98, 99):
            p = GammaParam.from_gamma(k / 100)
            _, f = h_upper_and_f(p)
            assert f >= f_closed(p.lam).lower - 1e-9
