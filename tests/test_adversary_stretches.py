"""Stretches: phi blocks and the bound chain checked per run of indices.

A stretch is a run of indices j along which alpha_j - j and beta_j - j stay
constant (and, for phi, each block's new red and blue vertex stays inside
one run of its color).  ``adversary`` writes a stretch of phi as two
interleaved ranges, ``verify_adversary`` checks it with two slice
comparisons, and ``adversary_bound_chain`` checks each stretch and tilted
piece of g at its two ends, with a float-error margin.  These tests compare
all three with ``adversary_reference`` (per-block sets, per-index Fraction
and crossing arithmetic): phi on seeded random candidates and sawtooths up
to n = 8000, the verifier's messages on phi swaps inside and across blocks,
and the chain on entries set to the floor of their bound and one above, at
the ends of stretches and inside them.  A counting test checks that the
number of stretches, not n, sets the work: the stretch helper's calls stay
within the coloring's run count while n grows eightfold, and no per-index
fallback runs.
"""

import dataclasses
import math
import random

import pytest

import adversary_reference as ref
import lipschitz_reference as lref
from ramseydensity import colorings, lipschitz
from ramseydensity.colorings import (_joint_prefix, _stretch_end, adversary,
                                     adversary_bound_chain, verify_adversary)
from ramseydensity.lipschitz import (GammaParam, PLFunction, random_alternating_candidate,
                                     sigma_g)

# s/r in 1..5 with gamma = (lam - 1)/(lam + 1) < 1/2, i.e. lam < 3
SMALL_LAMBDAS = [(s, r) for s in range(1, 6) for r in range(1, 6) if s < 3 * r]


def random_pl(rng, n):
    """A 1-Lipschitz PL function over 0..n with 1-12 pieces of any slope in
    [-1, 1], so that colour runs are short and blocks uneven."""
    pts = [(0.0, 0.0)]
    for _ in range(rng.randint(1, 12)):
        x, y = pts[-1]
        dx = rng.uniform(0.5, n / 3 + 1)
        pts.append((x + dx, y + rng.choice([rng.uniform(-1, 1), 1.0, -1.0, 0.0]) * dx))
    return PLFunction.from_points(pts, tail_slope=rng.uniform(-1, 1))


def random_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        s, r = rng.choice(SMALL_LAMBDAS)
        n = rng.randint(4, 400)
        p = GammaParam.from_lambda(s / r)
        if rng.random() < 0.75:
            g = random_alternating_candidate(rng, p, max_pieces=rng.randint(2, 30),
                                             span_cap=rng.choice([50.0, 500.0, 1e4]))
        else:
            g = random_pl(rng, n)
        yield s, r, g, n


@pytest.mark.parametrize("seed", range(4))
def test_phi_equals_the_reference_on_random_candidates(seed):
    # 4 x 260 seeded candidates; every instance also passes both verifiers
    for s, r, g, n in random_cases(260, seed):
        old = ref.adversary(s, r, g, n)
        new = adversary(s, r, g, n)
        assert (new.alpha, new.beta, new.phi) == (old.alpha, old.beta, old.phi)
        assert verify_adversary(new) == []


@pytest.mark.parametrize("n", [2000, 4000, 8000])
def test_phi_equals_the_reference_on_the_sawtooth(n):
    p = GammaParam.from_lambda(1.0)
    g = sigma_g(p, 20)
    old, new = ref.adversary(1, 1, g, n), adversary(1, 1, g, n)
    assert (new.alpha, new.beta, new.phi) == (old.alpha, old.beta, old.phi)


def blocks(inst):
    """(j, k, kind) for each phi block j (from 1) ending at position k,
    kind "pair" for a block that adds one red and one blue, else "big"."""
    joint = _joint_prefix(inst.alpha, inst.beta, inst.n)
    out, prev = [], (0, 0)
    for j, (a, b) in enumerate(zip(inst.alpha[:joint], inst.beta[:joint]), start=1):
        pair = j > 1 and (a - prev[0], b - prev[1]) == (1, 1)
        out.append((j, a + b, "pair" if pair else "big"))
        prev = (a, b)
    return out


@pytest.fixture(scope="module", params=[(1, 1), (2, 1), (1, 2), (3, 2)])
def base(request):
    s, r = request.param
    return adversary(s, r, sigma_g(GammaParam.from_lambda(s / r), 12), 400)


def swapped(inst, u, v):
    phi = list(inst.phi)
    phi[u], phi[v] = phi[v], phi[u]
    return dataclasses.replace(inst, phi=tuple(phi))


def test_swap_inside_a_block_still_verifies(base):
    # a pair block's two vertices, and the first and last vertex of a big
    # block, swapped: every block holds the same set, so both verifiers pass
    starts = {j: k for j, k, _ in blocks(base)}
    kinds = {kind: j for j, _, kind in reversed(blocks(base)) if j > 1}
    assert set(kinds) == {"pair", "big"}
    for kind, j in kinds.items():
        lo, hi = starts[j - 1], starts[j] - 1
        bad = swapped(base, lo, hi)
        assert bad.phi != base.phi
        assert verify_adversary(bad) == ref.verify_adversary(bad) == []


def test_swap_across_blocks_gives_the_reference_messages(base):
    # the last vertex of block j trades places with the first and with the
    # second vertex after it, and the one before it with the first, at pair
    # blocks (inside stretches and at their ends) and at big ones
    seen = set()
    for (j, k, kind), (_, _, after) in zip(blocks(base), blocks(base)[1:]):
        if k + 1 >= base.n:
            continue
        for here, other in ((k - 1, k), (k - 1, k + 1), (k - 2, k)):
            bad = swapped(base, here, other)
            problems = verify_adversary(bad)
            assert problems == ref.verify_adversary(bad)
            assert f"phi block {j} mismatch" in problems
        seen.add((kind, after))
    assert {("pair", "pair"), ("big", "pair"), ("pair", "big")} <= seen


def chain_top(inst, field, i):
    """The float the chain compares alpha_i (or beta_i) with, from the
    reference's per-level crossing."""
    p, lam = inst.gamma_param, float(inst.lam)
    w = (2 / (1 + lam)) * (lam * i + 2 * lam + 2)
    z = lref.gamma_crossing(inst.g, p, w, 1 if field == "alpha" else -1)
    return (1 - p.gamma) * z / 2 + w / 2 + (2 if field == "beta" else 0) + 1e-6


def chain_stretches(inst, i_min):
    """(first, last) 1-based indices of the chain's stretches."""
    joint = _joint_prefix(inst.alpha, inst.beta, inst.n)
    out, t = [], i_min - 1
    while t < joint:
        end = _stretch_end(inst.alpha, inst.beta, t, joint)
        out.append((t + 1, end))
        t = end
    return out


@pytest.mark.parametrize("s,r", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_chain_entries_at_their_bound_match_the_reference(s, r, monkeypatch):
    # an entry set to floor(top) (passes) or floor(top) + 1 (fails) at the
    # first, a middle and the last index of each long stretch; and every
    # entry from a stretch's first index on raised by the least room any
    # of them has below the floor of its bound, and by one more, which
    # keeps the stretches and leaves at least one entry on its floor (or,
    # as alpha_j + beta_j grows, moves it past the last index checked)
    inst = adversary(s, r, sigma_g(GammaParam.from_lambda(s / r), 30), 1200)
    joint = _joint_prefix(inst.alpha, inst.beta, inst.n)
    long = [(a, b) for a, b in chain_stretches(inst, 1) if b - a >= 4][-3:]
    assert long
    fast = []
    holds = colorings._chain_holds
    monkeypatch.setattr(colorings, "_chain_holds", lambda *args: fast.append(holds(*args))
                        or fast[-1])
    outcomes = set()
    for field in ("alpha", "beta"):
        seq = getattr(inst, field)
        floors = [math.floor(chain_top(inst, field, i)) for i in range(1, joint + 1)]
        for first, last in long:
            for i in (first, (first + last) // 2, last):
                for extra in (0, 1):
                    entries = list(seq)
                    entries[i - 1] = floors[i - 1] + extra
                    bad = dataclasses.replace(inst, **{field: tuple(entries)})
                    got = adversary_bound_chain(bad, i_min=1)
                    assert got == ref.adversary_bound_chain(bad, i_min=1)
                    outcomes.add((extra, bool(got)))
            room = min(f - a for f, a in zip(floors[first - 1:], seq[first - 1:joint]))
            for extra in (0, 1):
                entries = list(seq)
                entries[first - 1:] = [a + room + extra for a in seq[first - 1:]]
                bad = dataclasses.replace(inst, **{field: tuple(entries)})
                assert adversary_bound_chain(bad, i_min=1) == ref.adversary_bound_chain(bad, i_min=1)
    # an entry on its floor passes; one above it fails unless alpha_i +
    # beta_i now passes n, which ends the indices checked before it
    assert {(0, False), (1, True)} <= outcomes and (0, True) not in outcomes
    # the stretch check proved some of the tight cases, and failed on every
    # list that breaks a bound (it answers only for rising lists)
    assert True in fast and False in fast


@pytest.mark.parametrize("s,r", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_each_index_pushed_just_past_its_bound_fails_as_in_the_reference(s, r):
    # for each index i, every entry from i's stretch on is raised by the
    # least amount that puts entry i above the floor of its bound: the
    # stretches stay, and the entries that fail sit at the first or the
    # last index of a cell, or inside one
    inst = adversary(s, r, sigma_g(GammaParam.from_lambda(s / r), 30), 300)
    joint = _joint_prefix(inst.alpha, inst.beta, inst.n)
    first_of = {}
    for first, last in chain_stretches(inst, 1):
        first_of.update(dict.fromkeys(range(first, last + 1), first))
    for field in ("alpha", "beta"):
        seq = getattr(inst, field)
        for i in range(1, joint + 1):
            shift = math.floor(chain_top(inst, field, i)) - seq[i - 1] + 1
            start = first_of[i] - 1
            entries = seq[:start] + tuple(a + shift for a in seq[start:])
            bad = dataclasses.replace(inst, **{field: entries})
            assert adversary_bound_chain(bad, i_min=1) == ref.adversary_bound_chain(bad, i_min=1)


@pytest.mark.parametrize("seed", range(6))
def test_a_sloped_bound_is_decided_at_both_ends_of_each_cell(seed):
    # on the sawtooth the bound rises by exactly 1 per index, as alpha_i
    # does along a stretch; a g whose pieces have slopes in [-0.3, 0.3]
    # makes the slack rise or fall inside each cell.  alpha and beta are
    # one stretch, i + d, with d the least room below the floors of the
    # bounds, and one more: an entry fails only at the end of a cell
    rng = random.Random(seed)
    pts = [(0.0, 0.0)]
    for _ in range(12):
        x, y = pts[-1]
        dx = rng.uniform(5, 60)
        pts.append((x + dx, y + rng.uniform(-0.3, 0.3) * dx))
    inst = adversary(2, 1, PLFunction.from_points(pts, tail_slope=0.0), 2000)
    size = 300
    rooms = {field: min(math.floor(chain_top(inst, field, i)) - i for i in range(1, size + 1))
             for field in ("alpha", "beta")}
    outcomes = []
    for field in ("alpha", "beta"):
        for extra in (0, 1):
            entries = {name: tuple(range(1 + room, size + 1 + room))
                       for name, room in rooms.items()}
            entries[field] = tuple(range(1 + rooms[field] + extra, size + 1 + rooms[field] + extra))
            bad = dataclasses.replace(inst, **entries)
            got = adversary_bound_chain(bad, i_min=1)
            assert got == ref.adversary_bound_chain(bad, i_min=1)
            outcomes.append(bool(got))
    assert outcomes == [False, True, False, True]


def test_an_entry_past_n_ends_the_blocks(base):
    # alpha_j + beta_j > n in the middle of a list that no longer rises:
    # the blocks end before j, as the walk over the sums finds; a bisection
    # over them would step past j
    j = len(blocks(base)) // 3
    alpha = list(base.alpha)
    alpha[j - 1] = base.n
    bad = dataclasses.replace(base, alpha=tuple(alpha))
    assert _joint_prefix(bad.alpha, bad.beta, bad.n) == j - 1
    problems = verify_adversary(bad)
    assert f"alpha_{j} = {base.n} is out of range" in problems
    assert not any(line.startswith("phi block") for line in problems)
    assert _joint_prefix(base.alpha, base.beta, base.n, rising=True) == \
        _joint_prefix(base.alpha, base.beta, base.n) == len(blocks(base))


def run_count(inst):
    colors = inst.vertex_colors
    return 1 + sum(a != b for a, b in zip(colors, colors[1:]))


def test_stretch_count_follows_the_runs_not_n(monkeypatch):
    # sigma:1:12 at n = 2000 and 16000: the builder, the verifier and the
    # chain each call the stretch helper at most once per colour run, and
    # no per-index fallback (prefix reach, swept crossings) runs
    calls = []
    original = colorings._stretch_end

    def counted(*args):
        calls[-1] += 1
        return original(*args)

    def fallback(*args, **kwargs):
        raise AssertionError("per-index fallback ran")

    monkeypatch.setattr(colorings, "_stretch_end", counted)
    monkeypatch.setattr(colorings, "_prefix_reach", fallback)
    monkeypatch.setattr(lipschitz, "gamma_crossings", fallback)
    g = sigma_g(GammaParam.from_lambda(1.0), 12)
    counts, runs = {}, {}
    for n in (2000, 16000):
        calls.append(0)
        inst = adversary(1, 1, g, n)
        calls.append(0)
        assert verify_adversary(inst) == []
        calls.append(0)
        assert adversary_bound_chain(inst) == []
        built_and_checked, checked, chain = calls[-3:]
        counts[n] = (built_and_checked - checked, checked, chain)
        runs[n] = run_count(inst)
        assert 0 < max(counts[n]) <= runs[n]
    # n grows eightfold; the sawtooth's teeth add runs, and the calls grow
    # by no more than those
    for before, after in zip(counts[2000], counts[16000]):
        assert after - before <= runs[16000] - runs[2000]
