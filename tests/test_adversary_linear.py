"""The linear-time adversary layer against the quadratic Fraction reference.

Differential tests compare alpha, beta, phi, the verifier's messages and the
bound chain with ``adversary_reference`` (the construction as it was before
the rewrite) on seeded random candidates and sawtooths; mutation tests
corrupt valid instances one way at a time and check that the verifier names
the broken invariant and its index, exactly as the reference does, besides
the line for an alpha or beta of the wrong length, which the reference does
not have.  The bound chain's failure paths, entries raised above their
bounds and a sawtooth too short for n, give the reference's lines, and the
swept crossings reject a NaN level wherever it stands.
"""

import dataclasses
import math
import random

import pytest

import adversary_reference as ref
import lipschitz_reference as lref
from ramseydensity.colorings import (_joint_prefix, adversary, adversary_bound_chain,
                                     verify_adversary)
from ramseydensity.lipschitz import (GammaParam, PLFunction, gamma_crossing,
                                     gamma_crossings, random_alternating_candidate,
                                     sigma_g)

LAMBDAS = ((1, 1), (2, 1), (1, 2), (3, 2))


def candidates(s, r, seed):
    """The sawtooth and one seeded random alternating candidate at s/r."""
    p = GammaParam.from_lambda(s / r)
    rng = random.Random(seed)
    return p, [sigma_g(p, 12),
               random_alternating_candidate(rng, p, max_pieces=40, span_cap=1e8)]


@pytest.mark.parametrize("n", [40, 500, 2000])
@pytest.mark.parametrize("s,r", LAMBDAS)
def test_instances_match_reference(s, r, n):
    _, gs = candidates(s, r, seed=1000 * s + 10 * r + n)
    for g in gs:
        old = ref.adversary(s, r, g, n)
        new = adversary(s, r, g, n)
        assert (new.alpha, new.beta, new.phi) == (old.alpha, old.beta, old.phi)
        assert new == old
        assert verify_adversary(new) == ref.verify_adversary(old) == []
        assert adversary_bound_chain(new, i_min=1) == ref.adversary_bound_chain(old, i_min=1)


@pytest.mark.parametrize("s,r", LAMBDAS)
def test_short_candidate_chain_matches_reference(s, r):
    # a candidate too short for n makes the chain report infinite crossings
    p = GammaParam.from_lambda(s / r)
    g = random_alternating_candidate(random.Random(7 * s + r), p, max_pieces=6)
    inst = adversary(s, r, g, 2000)
    chain = adversary_bound_chain(inst, i_min=1)
    assert chain == ref.adversary_bound_chain(inst, i_min=1)
    assert any(msg.startswith("crossing infinite") for msg in chain)


def chain_top(inst, field, i):
    """The bound the chain tests alpha_i (or beta_i) against, from the
    reference's per-level crossing."""
    p, lam = inst.gamma_param, float(inst.lam)
    w = (2 / (1 + lam)) * (lam * i + 2 * lam + 2)
    z = lref.gamma_crossing(inst.g, p, w, 1 if field == "alpha" else -1)
    return (1 - p.gamma) * z / 2 + w / 2 + (2 if field == "beta" else 0) + 1e-6


RAISED = {"alpha": [("alpha", 1)], "beta": [("beta", 1)],
          "both-at-one-index": [("alpha", 1), ("beta", 1)],
          "spread": [("alpha", 1), ("beta", 2), ("alpha", 3)]}


@pytest.mark.parametrize("s,r", LAMBDAS)
@pytest.mark.parametrize("where", RAISED.values(), ids=RAISED.keys())
def test_raised_indices_fail_the_chain_as_in_the_reference(s, r, where):
    # each (field, k) raises that entry at the k-th quarter of the blocks to
    # the least integer above its bound; the blocks stay as they were
    inst = adversary(s, r, sigma_g(GammaParam.from_lambda(s / r), 12), 400)
    joint = _joint_prefix(inst.alpha, inst.beta, inst.n)
    entries = {"alpha": list(inst.alpha), "beta": list(inst.beta)}
    raised = []
    for field, quarter in where:
        i = joint * quarter // 4
        entries[field][i - 1] = math.floor(chain_top(inst, field, i)) + 1
        raised.append(f"{field} bound fails at i={i}")
    bad = dataclasses.replace(inst, alpha=tuple(entries["alpha"]), beta=tuple(entries["beta"]))
    assert _joint_prefix(bad.alpha, bad.beta, bad.n) == joint
    chain = adversary_bound_chain(bad, i_min=1)
    assert chain == ref.adversary_bound_chain(bad, i_min=1)
    assert set(raised) <= set(chain)


@pytest.mark.parametrize("s,r", LAMBDAS)
def test_sawtooth_cut_short_gives_the_reference_chain(s, r):
    # the instance's sawtooth cut to 2-11 periods: an odd count's tail
    # leaves the minus crossing infinite past its last valley, an even
    # count's the plus crossing; where no bound fails, the chain is its
    # infinite lines alone
    p = GammaParam.from_lambda(s / r)
    inst = adversary(s, r, sigma_g(p, 12), 400)
    only_infinite = set()
    for periods in range(2, 12):
        bad = dataclasses.replace(inst, g=sigma_g(p, periods))
        chain = adversary_bound_chain(bad, i_min=1)
        assert chain == ref.adversary_bound_chain(bad, i_min=1)
        if chain and all(line.startswith("crossing infinite") for line in chain):
            only_infinite.add(periods % 2)
    assert only_infinite == {0, 1}


@pytest.mark.parametrize("i_min", [0, -3])
def test_chain_needs_a_first_index(i_min):
    # alpha_i is indexed from 1: at i = 0 the chain would read alpha[-1]
    inst = adversary(1, 1, sigma_g(GammaParam.from_lambda(1.0), 12), 400)
    with pytest.raises(ValueError, match=f"i_min must be at least 1, got {i_min}"):
        adversary_bound_chain(inst, i_min=i_min)


# non-strict cases are named by their bare seed, so their test ids stay stable
SWEEP_CASES = ([pytest.param(seed, False, id=str(seed)) for seed in range(6)]
               + [pytest.param(seed, True, id=f"strict-{seed}") for seed in range(6)])


@pytest.mark.parametrize("seed,strict", SWEEP_CASES)
def test_swept_crossings_equal_per_level_crossings(seed, strict):
    rng = random.Random(seed)
    s, r = LAMBDAS[seed % 4]
    p, gs = candidates(s, r, seed)
    for g in gs + [PLFunction.zero(), PLFunction.linear(-1.0)]:
        for sign in (1, -1):
            tilted = [p.gamma * x + sign * y for x, y in zip(g.breakpoints, g.values)]
            top = max(max(tilted), 1.0) * 1.3
            levels = [rng.uniform(0, top) for _ in range(300)]
            levels += [t for t in tilted if t >= 0] + [0.0, top, top]
            levels.sort()
            scanned = [lref.gamma_crossing(g, p, t, sign, strict=strict) for t in levels]
            assert gamma_crossings(g, p, levels, sign, strict=strict) == scanned
            assert [gamma_crossing(g, p, t, sign, strict=strict) for t in levels] == scanned


def test_swept_crossings_reject_bad_levels():
    p = GammaParam.from_lambda(1.0)
    g = sigma_g(p, 8)
    with pytest.raises(ValueError):
        gamma_crossings(g, p, [2.0, 1.0], 1)
    with pytest.raises(ValueError):
        gamma_crossings(g, p, [-1.0, 1.0], 1)
    with pytest.raises(ValueError):
        gamma_crossings(g, p, [1.0], 0)
    # a NaN level compares false both ways, first, in the middle or last
    for levels in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]):
        for strict in (False, True):
            with pytest.raises(ValueError, match="nonnegative and non-decreasing"):
                gamma_crossings(g, p, levels, 1, strict=strict)


@pytest.mark.parametrize("seed", range(4))
def test_values_at_equals_pointwise_calls(seed):
    s, r = LAMBDAS[seed]
    rng = random.Random(seed)
    _, gs = candidates(s, r, seed)
    for g in gs + [PLFunction.zero(), PLFunction.linear(0.5)]:
        xs = sorted([rng.uniform(0, 2 * g.span + 10) for _ in range(500)]
                    + list(g.breakpoints) + [float(m) for m in range(200)])
        assert g.values_at(xs) == [g(x) for x in xs]
    with pytest.raises(ValueError):
        PLFunction.zero().values_at([1.0, 0.5])


# ------------------------------------------------------------- mutations

@pytest.fixture(scope="module", params=LAMBDAS)
def base(request):
    s, r = request.param
    p = GammaParam.from_lambda(s / r)
    return adversary(s, r, sigma_g(p, 12), 400)


def length_lines(inst):
    """The verifier's lines for an alpha or beta whose length is not the
    reference scan's, which the reference does not report."""
    lines = []
    for name, positions in (("alpha", inst.red_positions), ("beta", inst.blue_positions)):
        scan = ref._min_indices(positions, lambda a: positions[a - 1] - (a - 1), inst.lam, inst.n)
        if len(scan) != len(getattr(inst, name)):
            lines.append(f"{name} has {len(getattr(inst, name))} entries, want {len(scan)}")
    return lines


def mutated(inst, **changes):
    """The verifier's messages on inst with these changes, checked against
    the reference's, or only for the indices that name no vertex of their
    color when there are such."""
    bad = dataclasses.replace(inst, **changes)
    problems = verify_adversary(bad)
    out_of_range = [f"{name}_{i} = {a} is out of range"
                    for name, pos in (("alpha", bad.red_positions), ("beta", bad.blue_positions))
                    for i, a in enumerate(getattr(bad, name), start=1)
                    if not 1 <= a <= len(pos)]
    if out_of_range:
        # the reference fails here: an IndexError, or a wrapped index at 0
        assert set(out_of_range) <= set(problems)
    else:
        lengths = length_lines(bad)
        assert [p for p in problems if p not in lengths] == ref.verify_adversary(bad)
        assert [p for p in problems if p in lengths] == lengths
    return problems


def test_flipped_vertex_color(base):
    # vertex k and the nearest vertex j of the other color, after k if there
    # is one, swap colors: each color keeps its count, so every index still
    # names a vertex the reference can read
    colors = list(base.vertex_colors)
    k = base.n // 3
    j = min((v for v, c in enumerate(colors) if c != colors[k]),
            key=lambda v: (v < k, abs(v - k)))
    colors[k], colors[j] = colors[j], colors[k]
    problems = mutated(base, vertex_colors=tuple(colors))
    assert problems[0] == f"red prefix count wrong at m={min(j, k) + 1}"


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_index_moved_up_is_not_minimal(base, field):
    seq = list(getattr(base, field))
    i = len(seq) // 2
    seq[i - 1] += 1
    problems = mutated(base, **{field: tuple(seq)})
    assert f"{field}_{i} = {seq[i - 1]} is not minimal (a={seq[i - 1] - 1} works)" in problems


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_index_moved_down_fails_its_inequality(base, field):
    seq = list(getattr(base, field))
    i = next(i for i in range(len(seq) // 2, len(seq) + 1) if seq[i - 1] >= 2)
    seq[i - 1] -= 1
    problems = mutated(base, **{field: tuple(seq)})
    assert f"{field}_{i} does not satisfy its inequality" in problems


def test_beta_made_non_increasing(base):
    beta = list(base.beta)
    i = len(beta) // 2
    beta[i] = beta[i - 1]
    problems = mutated(base, beta=tuple(beta))
    assert "beta is not strictly increasing" in problems


def test_phi_swap_across_block_boundary(base):
    j = len(base.alpha) // 4
    k = base.alpha[j - 1] + base.beta[j - 1]
    assert k < base.n
    phi = list(base.phi)
    phi[k - 1], phi[k] = phi[k], phi[k - 1]
    problems = mutated(base, phi=tuple(phi))
    assert f"phi block {j} mismatch" in problems
    assert "phi is not a permutation" not in problems


@pytest.mark.parametrize("seed", range(20))
def test_random_corruptions_match_reference(seed):
    rng = random.Random(seed)
    s, r = LAMBDAS[seed % 4]
    p = GammaParam.from_lambda(s / r)
    inst = adversary(s, r, sigma_g(p, 10), rng.choice([60, 150, 300]))
    changes = {}
    for field in rng.sample(["alpha", "beta", "phi", "vertex_colors"], rng.randint(1, 2)):
        seq = list(getattr(inst, field))
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(seq))
            if field == "vertex_colors":
                # flip k and a vertex of the other color, keeping the counts
                other = rng.choice([v for v, c in enumerate(seq) if c != seq[k]])
                seq[k], seq[other] = seq[other], seq[k]
            elif field == "phi" or rng.random() < 0.3:
                other = rng.randrange(len(seq))
                seq[k], seq[other] = seq[other], seq[k]
            else:
                seq[k] += rng.choice([-1, 1])
        changes[field] = tuple(seq)
    mutated(inst, **changes)


def test_index_out_of_range_is_reported(base):
    alpha = list(base.alpha)
    alpha[-1] = len(base.red_positions) + 1
    alpha[0] = 0
    problems = verify_adversary(dataclasses.replace(base, alpha=tuple(alpha)))
    assert "alpha_1 = 0 is out of range" in problems
    assert f"alpha_{len(alpha)} = {alpha[-1]} is out of range" in problems
