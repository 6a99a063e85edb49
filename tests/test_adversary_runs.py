"""The run-based adversary builder and the one-pass verifier.

``adversary`` reads alpha and beta off the coloring's runs of one color.
Builder and verifier are compared with ``adversary_reference`` (the
quadratic Fraction construction) on colorings cut into many short runs:
linear g with a slope strictly between -1 and 1, and seeded random PL
functions whose pieces have any slope in [-1, 1], with non-integer and with
integer breakpoints.  ``_red_prefix_counts`` fills a piece of slope +-1 as
one range or repeat when a margin proves it, and evaluates every other
piece vertex by vertex.  Its counts are compared with the ``values_at`` form
on those functions, on sawtooths of 8-31 periods up to n = 8000 and one at
the CLI's largest n, on seeded random alternating candidates, and on near
ties: g = 0, slopes +-1, integer breakpoints, and a seeded search's case
where the float chain floors apart from the exact line, so that a fill
without the margin is wrong.  Fills are checked to happen only on pieces of
slope +-1 and to cover all but a few vertices of the sawtooths and
candidates.  The red steps, built per piece of those counts, are compared
with the differenced counts on the same functions, and stand-ins for g
whose counts step by 2 or by -1, inside a piece or at its start, are
rejected by the builder and reported by the verifier as the reference
reports them.  Each color's positions, listed one run at a time, are
compared with ``compress`` on seeded bytes.

An ``AdversaryInstance`` checks its shape when it is built: each malformed
field raises a ``ValueError`` that names it, and the positions of each
color are derived from the colors, as the reference builder computes them.
The length mutations check the messages for an alpha or beta of the wrong
length, which the reference does not have.  ``permuted_coloring`` builds
its masks directly and is compared with the coloring built from the list
of red pairs.

The run check, by which the verifier tests alpha and beta once per run of
their color, rests on two facts that are checked on the reference builder's
indices: they are strictly increasing, and key rises by at most 1 per index.
Its verdict is compared with the reference scan on seeded mutations of alpha
and beta, and its messages with the reference's.
"""

import dataclasses
import itertools
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import adversary_reference as ref
from ramseydensity import cli, colorings
from ramseydensity.colorings import (BLUE, RED, TwoColoring, _red_prefix_counts, adversary,
                                     verify_adversary)
from ramseydensity.lipschitz import GammaParam, PLFunction, random_alternating_candidate, sigma_g

LAMBDAS = ((1, 1), (2, 1), (1, 2), (3, 2), (5, 3), (1, 4))
SIZES = (4, 5, 17, 60, 301, 1000)


def random_pl(rng, integer):
    """A PL function with 1-30 pieces, slopes in [-1, 1] (0, +-1/2 and +-1
    among them) and breakpoints that are integers or not."""
    pts = [(0.0, 0.0)]
    for _ in range(rng.randint(1, 30)):
        dx = rng.randint(1, 60) if integer else rng.uniform(0.3, 60)
        slope = rng.choice([rng.uniform(-1, 1), 0.0, 0.5, -0.5, 1.0, -1.0])
        x, y = pts[-1]
        pts.append((x + dx, y + slope * dx))
    return PLFunction.from_points(pts, tail_slope=rng.uniform(-1, 1))


def functions(seed):
    """Linear functions with slopes strictly inside (-1, 1) and random PL
    functions with non-integer and with integer breakpoints."""
    rng = random.Random(seed)
    slopes = [rng.uniform(-0.99, 0.99), rng.choice([-0.5, 0.5, 1 / 3, -0.2, 0.0, 0.9])]
    return ([PLFunction.linear(m) for m in slopes]
            + [random_pl(rng, integer=False) for _ in range(2)]
            + [random_pl(rng, integer=True) for _ in range(2)])


def outcome(build, s, r, g, n):
    try:
        return build(s, r, g, n)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("s,r", LAMBDAS)
def test_fragmented_instances_match_reference(s, r, n):
    for g in functions(seed=100 * s + 10 * r + n):
        new = outcome(adversary, s, r, g, n)
        assert new == outcome(ref.adversary, s, r, g, n)
        if not isinstance(new, str):
            assert verify_adversary(new) == ref.verify_adversary(new) == []


# A seeded search's near tie: on the falling piece (x + g(x))/2 + 1e-12 is
# 34.999999999999 + 1e-12, just below 35 on the exact line, so the exact line
# floors to 34 there and the float chain mostly to 35, but not at every vertex.
NEAR_TIE = PLFunction.from_points(
    [(0.0, 0.0), (34.999999999999, 34.999999999999), (179.12097581932287, -109.12097581932487)],
    tail_slope=1.0)


def near_ties():
    """Functions whose counts sit on or next to an integer: g = 0, slopes
    +-1 through the origin, integer breakpoints with slopes 0 and +-1, and
    NEAR_TIE."""
    steps = PLFunction.from_points([(0, 0), (10, 10), (20, 0), (25, 0), (40, -15), (41, -14),
                                    (60, 5), (70, 5), (71, 4), (90, -15)], tail_slope=1.0)
    return [PLFunction.zero(), PLFunction.linear(1.0), PLFunction.linear(-1.0), steps, NEAR_TIE]


def prefix_count_cases(seed):
    """(g, n) pairs for one of the LAMBDAS: the fragmented functions at
    every size; the sawtooths of 8-31 periods, at sizes up to 8000; four
    random alternating candidates; and the near ties."""
    s, r = LAMBDAS[seed]
    p = GammaParam.from_lambda(s / r)
    rng = random.Random(seed)
    cases = [(g, n) for g in functions(seed) + near_ties() for n in SIZES]
    cases += [(sigma_g(p, periods), n) for periods in range(8, 32) for n in (61, 2000, 8000)]
    cases += [(random_alternating_candidate(rng, p, max_pieces=40, span_cap=1e8), n)
              for n in (301, 2000, 5000, 8000)]
    return cases


@pytest.mark.parametrize("seed", range(6))
def test_prefix_counts_equal_values_at_form(seed):
    cases = prefix_count_cases(seed)
    if seed == 0:
        cases.append((sigma_g(GammaParam.from_lambda(1.0), 12), cli.ADVERSARY_MAX_N))
    for g, n in cases:
        ys = g.values_at([float(m) for m in range(1, n + 1)])
        want = [math.floor((m + y) / 2 + 1e-12) for m, y in zip(range(1, n + 1), ys)]
        assert _red_prefix_counts(g, n) == want


def test_near_tie_floors_apart_from_the_exact_line():
    # NEAR_TIE is the case a fill with no margin gets wrong: on the falling
    # piece the float chain floors apart from the exact line, and not to one
    # value, so no single count fits the piece
    bp, vals = NEAR_TIE.breakpoints, NEAR_TIE.values
    x0, y0 = Fraction(bp[1]), Fraction(vals[1])
    slope = (Fraction(vals[2]) - y0) / (Fraction(bp[2]) - x0)
    falling = range(math.ceil(bp[1]), math.ceil(bp[2]))
    exact = [math.floor((m + y0 + slope * (m - x0)) / 2 + Fraction(1e-12)) for m in falling]
    ys = NEAR_TIE.values_at([float(m) for m in falling])
    chain = [math.floor((m + y) / 2 + 1e-12) for m, y in zip(falling, ys)]
    assert set(exact) == {34} and set(chain) == {34, 35}


def spy_on_pieces(monkeypatch):
    """A list that gets (dx, dy, counts) for each piece, as
    ``_red_prefix_counts`` asks ``_piece_counts`` for it."""
    pieces = []
    piece_counts = colorings._piece_counts

    def spy(x0, y0, dx, dy, m, stop):
        counts = piece_counts(x0, y0, dx, dy, m, stop)
        pieces.append((dx, dy, counts))
        return counts

    monkeypatch.setattr(colorings, "_piece_counts", spy)
    return pieces


def test_only_unit_slope_pieces_are_filled(monkeypatch):
    # the margin E is derived for |slope| <= 1 + 2e-9: a piece of any other
    # slope is evaluated vertex by vertex, even where a fill would be right
    pieces = spy_on_pieces(monkeypatch)
    for seed in range(6):
        for g, n in prefix_count_cases(seed):
            _red_prefix_counts(g, n)
    filled = [(dx, dy) for dx, dy, counts in pieces if not isinstance(counts, list)]
    assert len(filled) > 1000
    assert all(abs(abs(dy / dx) - 1) <= 2e-9 for dx, dy in filled)


def test_unit_slope_pieces_are_filled_in_bulk(monkeypatch):
    # pieces of slope +-1 and three or more vertices are filled as a range
    # or a repeat; only short pieces and ties are evaluated vertex by vertex
    pieces = spy_on_pieces(monkeypatch)
    rng = random.Random(1)
    for s, r in LAMBDAS:
        p = GammaParam.from_lambda(s / r)
        for g in [sigma_g(p, 12), sigma_g(p, 31)] + [
                random_alternating_candidate(rng, p, max_pieces=40, span_cap=1e8)
                for _ in range(4)]:
            pieces.clear()
            _red_prefix_counts(g, 8000)
            assert sum(len(c) for _, _, c in pieces if isinstance(c, list)) <= 40, (s, r, g)


def test_linear_slopes_give_short_runs():
    # the builder's chunks are exercised by runs of length one and two
    inst = adversary(1, 1, PLFunction.linear(0.5), 60)
    colors = "".join(inst.vertex_colors)
    assert "BB" not in colors and "RRRR" not in colors
    assert inst == ref.adversary(1, 1, PLFunction.linear(0.5), 60)


class StandIn(SimpleNamespace):
    """A g with a PLFunction's three fields and its evaluation, but none of
    its checks, so that the red prefix counts may step by 2 or by -1."""

    __call__ = PLFunction.__call__


# (stand-in, the step outside 0 and 1 its counts take): inside a piece
# evaluated vertex by vertex, and at a piece's first vertex
STEEP = {
    "step-2-in-the-tail": (StandIn(breakpoints=(0.0,), values=(0.0,), tail_slope=3.0), 2),
    "step-2-at-a-piece-start": (StandIn(breakpoints=(0.0, 4.0, 4.5), values=(0.0, 0.0, 3.0),
                                        tail_slope=0.0), 2),
    "step-minus-1-in-a-piece": (StandIn(breakpoints=(0.0, 4.0, 10.0),
                                        values=(0.0, 0.0, -18.0), tail_slope=0.0), -1),
    "step-minus-1-at-a-piece-start": (StandIn(breakpoints=(0.0, 4.0, 5.0),
                                              values=(0.0, 0.0, -3.0), tail_slope=0.0), -1),
}


@pytest.mark.parametrize("seed", range(6))
def test_steps_equal_the_differenced_counts(seed):
    # the steps are built per piece: a range steps by 1 and a repeat by 0,
    # and only first steps and the pieces evaluated vertex by vertex are
    # differenced; NEAR_TIE's counts fall by 1 where the float chain
    # flickers, so it has no steps at sizes that reach its falling piece
    outcomes = set()
    for g, n in prefix_count_cases(seed):
        counts = _red_prefix_counts(g, n)
        diffs = list(map(operator.sub, counts, [0, *counts]))
        want = bytes(diffs) if set(diffs) <= {0, 1} else None
        assert colorings._red_bits(g, n) == want
        outcomes.add(want is None)
    assert outcomes == {False, True}


@pytest.mark.parametrize("g,step", STEEP.values(), ids=STEEP.keys())
def test_steps_outside_zero_one_are_rejected(g, step):
    counts = _red_prefix_counts(g, 20)
    assert step in map(operator.sub, counts, [0, *counts])
    assert colorings._red_bits(g, 20) is None
    with pytest.raises(ValueError, match="^g is not 1-Lipschitz along integers$"):
        adversary(1, 1, g, 20)


@pytest.mark.parametrize("g,step", STEEP.values(), ids=STEEP.keys())
def test_steep_stand_in_gets_the_reference_prefix_line(g, step):
    # an instance whose g steps outside 0 and 1 is reported, not raised on:
    # the verifier counts vertex by vertex when the steps do not match
    inst = dataclasses.replace(adversary(1, 1, PLFunction.zero(), 20), g=g)
    problems = verify_adversary(inst)
    assert problems == ref.verify_adversary(inst)
    assert problems and problems[0].startswith("red prefix count wrong at m=")


def seeded_bits(seed):
    """0/1 bytes: empty, one colour only, single-vertex runs at both ends,
    and seeded random ones of any density."""
    rng = random.Random(seed)
    cases = [b"", b"\x00", b"\x01", bytes(7), b"\x01" * 7, b"\x01" + bytes(5) + b"\x01",
             b"\x00" + b"\x01" * 5 + b"\x00", b"\x01\x00" * 4, b"\x00\x01" * 4]
    for _ in range(60):
        density = rng.random()
        cases.append(bytes(rng.random() < density for _ in range(rng.randint(1, 300))))
    return cases


@pytest.mark.parametrize("seed", range(3))
def test_positions_equal_the_compressed_range(seed):
    for bits in seeded_bits(seed):
        flipped = bytes(1 - b for b in bits)
        assert colorings._positions(bits, 1) == tuple(itertools.compress(range(len(bits)), bits))
        assert colorings._positions(bits, 0) == tuple(
            itertools.compress(range(len(bits)), flipped))


def pair_built_permuted_coloring(inst):
    """``permuted_coloring`` as it was: the list of every red pair i < j."""
    red, phi = inst.coloring.neighbor_sets(RED), inst.phi
    return TwoColoring(inst.n, "explicit", red_edges=[
        (i, j) for i in range(inst.n) for j in range(i + 1, inst.n)
        if red[phi[i]] >> phi[j] & 1],
        vertex_colors=tuple(inst.vertex_colors[v] for v in phi))


@pytest.mark.parametrize("n", SIZES[:-1])
@pytest.mark.parametrize("s,r", LAMBDAS[:3])
def test_permuted_coloring_equals_the_pair_built_one(s, r, n):
    for g in (sigma_g(GammaParam.from_lambda(s / r), 6), PLFunction.linear(0.5)):
        inst = adversary(s, r, g, n)
        got, want = inst.permuted_coloring(), pair_built_permuted_coloring(inst)
        assert got.red_masks == want.red_masks
        assert got.vertex_colors == want.vertex_colors
        assert got == want


# ------------------------------------------------- shape and length mutations

@pytest.fixture(scope="module", params=LAMBDAS[:4])
def base(request):
    s, r = request.param
    return adversary(s, r, sigma_g(GammaParam.from_lambda(s / r), 12), 400)


def with_entry(entries, k, value):
    return entries[:k] + (value,) + entries[k + 1:]


# (field, change to base's value, the message); base has n = 400
MALFORMED = {
    "s-zero": ("s", lambda inst: 0, "s must be a positive integer, got 0"),
    "s-bool": ("s", lambda inst: True, "s must be a positive integer, got True"),
    "s-float": ("s", lambda inst: 1.5, "s must be a positive integer, got 1.5"),
    "r-negative": ("r", lambda inst: -1, "r must be a positive integer, got -1"),
    "r-str": ("r", lambda inst: "1", "r must be a positive integer, got '1'"),
    "n-three": ("n", lambda inst: 3, "n must be an integer of at least 4, got 3"),
    "n-float": ("n", lambda inst: float(inst.n),
                "n must be an integer of at least 4, got 400.0"),
    **{f"colors-{name}": ("vertex_colors", change, "vertex_colors must be n entries of R/B")
       for name, change in (
           ("short", lambda inst: inst.vertex_colors[:-1]),
           ("long-red", lambda inst: inst.vertex_colors + (RED,)),
           ("long-blue", lambda inst: inst.vertex_colors + (BLUE,)),
           ("empty-and-two", lambda inst: inst.vertex_colors[:-2] + ("", "RB")),
           ("two-and-empty", lambda inst: inst.vertex_colors[:-2] + ("RB", "")),
           *((name, lambda inst, bad=bad: with_entry(inst.vertex_colors, 200, bad))
             for name, bad in (("X", "X"), ("none", None), ("int", 1), ("two-chars", "RR"),
                               ("non-ascii", "é"), ("empty", ""), ("lower", "r"))))},
    "alpha-str": ("alpha", lambda inst: with_entry(inst.alpha, 3, "3"),
                  "alpha_4 is not an integer"),
    "alpha-floats": ("alpha", lambda inst: tuple(map(float, inst.alpha)),
                     "alpha_1 is not an integer"),
    "beta-none": ("beta", lambda inst: with_entry(inst.beta, 2, None),
                  "beta_3 is not an integer"),
    **{f"phi-{name}": ("phi", change, "phi is not a permutation of the vertices")
       for name, change in (
           ("duplicate", lambda inst: with_entry(inst.phi, inst.n // 2, inst.phi[0])),
           ("past", lambda inst: with_entry(inst.phi, inst.n // 3, inst.n)),
           ("negative", lambda inst: with_entry(inst.phi, inst.n // 3, -1)),
           # a negative index naming the slot of the entry it replaces
           ("wrapped", lambda inst: with_entry(inst.phi, inst.n // 3,
                                               inst.phi[inst.n // 3] - inst.n)),
           ("float", lambda inst: with_entry(inst.phi, 5, float(inst.phi[5]))),
           ("short", lambda inst: inst.phi[:-1]),
           ("constant", lambda inst: (0,) * inst.n))},
}


@pytest.mark.parametrize("case", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_fields_are_rejected_at_construction(base, case):
    field, change, message = case
    assert message.startswith(field)
    with pytest.raises(ValueError) as info:
        dataclasses.replace(base, **{field: change(base)})
    assert str(info.value) == message


@pytest.mark.parametrize("s,r,n,name", [
    (1, 1, 10.0, "n"), (1, 1, True, "n"), (1, 1, "8", "n"), (1, 1, 3, "n"),
    (0, 1, 10, "s"), (True, 1, 10, "s"), (1, 0, 10, "r"), (1, 2.0, 10, "r"),
], ids=repr)
def test_adversary_names_a_malformed_size(s, r, n, name):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        adversary(s, r, PLFunction.zero(), n)


def test_positions_are_derived_as_the_reference_builder_computes_them(base):
    # the reference builder lists each color's vertices itself; construction
    # derives the same positions from the colors, also from colors that no
    # builder made
    rng = random.Random(base.s * 10 + base.r)
    old = ref.adversary(base.s, base.r, base.g, base.n)
    assert old == base
    for inst in (base, old):
        colors = list(inst.vertex_colors)
        for _ in range(3):
            for k in rng.sample(range(inst.n), 5):
                colors[k] = BLUE if colors[k] == RED else RED
            for got in (inst, dataclasses.replace(inst, vertex_colors=tuple(colors))):
                assert got.red_positions == tuple(
                    i for i, c in enumerate(got.vertex_colors) if c == RED)
                assert got.blue_positions == tuple(
                    i for i, c in enumerate(got.vertex_colors) if c == BLUE)


@pytest.mark.parametrize("field", ["alpha", "beta"])
@pytest.mark.parametrize("keep", [0, 1, -1])
def test_truncated_indices_are_reported(base, field, keep):
    full = getattr(base, field)
    short = full[:keep]
    problems = verify_adversary(dataclasses.replace(base, **{field: short}))
    assert problems[0] == f"{field} has {len(short)} entries, want {len(full)}"
    # a prefix of the scan breaks no inequality, and the phi blocks it
    # leaves out are not checked
    assert problems == [problems[0]]


@pytest.mark.parametrize("field", ["alpha", "beta"])
def test_long_indices_are_reported(base, field):
    full = getattr(base, field)
    bad = dataclasses.replace(base, **{field: full + (full[-1],)})
    problems = verify_adversary(bad)
    want = f"{field} has {len(full) + 1} entries, want {len(full)}"
    assert problems == [want] + ref.verify_adversary(bad)
    assert len(problems) >= 2


# ------------------------------------------------------------ the run check

def reference_scan(positions, s, r, n):
    """The reference builder's alpha (or beta) over ``positions``: the scan
    with the inequality in Fractions."""
    return ref._min_indices(positions, lambda a: positions[a - 1] - (a - 1), Fraction(s, r), n)


def keys(positions, s, r):
    """key(a) = a - ceil(r*left(a)/s) for a = 1..m, in Fractions."""
    return [a - math.ceil(Fraction(r * (v - a + 1), s)) for a, v in enumerate(positions, start=1)]


def run_instances(s, r, sizes, seed, randoms):
    """A sawtooth and ``randoms`` seeded random alternating candidates at
    each size."""
    p = GammaParam.from_lambda(s / r)
    rng = random.Random(seed)
    for n in sizes:
        for g in [sigma_g(p, 12)] + [random_alternating_candidate(rng, p, max_pieces=40,
                                                                  span_cap=1e8)
                                     for _ in range(randoms)]:
            yield adversary(s, r, g, n)


@pytest.mark.parametrize("s,r", LAMBDAS)
def test_keys_rise_by_at_most_one(s, r):
    # the facts the run check rests on, on the reference builder's indices:
    # alpha and beta are strictly increasing, key rises by exactly 1 inside
    # a run and by at most 1 between runs, and the scan's length is the
    # largest key (0 if none is positive)
    for inst in run_instances(s, r, (60, 400, 2000), seed=s * 10 + r, randoms=2):
        for positions, indices in ((inst.red_positions, inst.alpha),
                                   (inst.blue_positions, inst.beta)):
            want = reference_scan(positions, s, r, inst.n)
            assert tuple(want) == indices
            assert all(map(operator.lt, want, want[1:]))
            key = keys(positions, s, r)
            steps = list(map(operator.sub, key[1:], key))
            assert max(steps, default=1) <= 1
            assert all(d == 1 for d, u, v in zip(steps, positions, positions[1:]) if v == u + 1)
            assert len(want) == max([0, *key])


MUTATIONS = ("none", "+1", "-1", "+2", "-2", "drop", "duplicate", "insert", "truncate", "extend")


def mutate(rng, indices, m, kind):
    """indices with one seeded change of the given kind ("none" makes
    none); None when the change does not apply (an empty list)."""
    out = list(indices)
    if not out and kind not in ("none", "insert", "extend"):
        return None
    k = rng.randrange(len(out)) if out else 0
    if kind == "none":
        pass
    elif kind[0] in "+-":
        out[k] += int(kind)
    elif kind == "drop":
        del out[k]
    elif kind == "duplicate":
        out.insert(k, out[k])
    elif kind == "insert":
        out.insert(k, rng.randint(1, m))
    elif kind == "truncate":
        out = out[:k]
    else:
        out.append(rng.randint(out[-1] if out else 1, m))
    return tuple(out)


@pytest.mark.parametrize("n", (60, 400, 2000))
@pytest.mark.parametrize("s,r", LAMBDAS)
def test_run_check_equals_scan_on_mutations(s, r, n):
    # the run check's verdict is list(A) == scan; every message is the
    # reference's, after the length line for a length other than the scan's
    # (the reference's phi blocks cost O(n^2), so messages are compared up
    # to n = 400; the reference reads an index past the positions wrongly,
    # so they are compared when every entry is a vertex of the color)
    rng = random.Random(1000 * n + 10 * s + r)
    verdicts = set()
    for inst in run_instances(s, r, (n,), seed=n + s + r, randoms=1):
        for field, color, positions in (("alpha", RED, inst.red_positions),
                                        ("beta", BLUE, inst.blue_positions)):
            scan = reference_scan(positions, s, r, n)
            is_color = bytes(c == color for c in inst.vertex_colors)
            for kind in MUTATIONS:
                bad = mutate(rng, getattr(inst, field), len(positions), kind)
                if bad is None:
                    continue
                verdict = list(bad) == scan
                verdicts.add(verdict)
                rises = colorings._rises(bad)
                assert colorings._fits_runs(bad, positions, is_color, s, r, rises) == verdict
                problems = verify_adversary(dataclasses.replace(inst, **{field: bad}))
                assert (problems == []) == verdict
                if n <= 400 and all(1 <= a <= len(positions) for a in bad):
                    want = ref.verify_adversary(dataclasses.replace(inst, **{field: bad}))
                    if len(bad) != len(scan):
                        want.insert(0, f"{field} has {len(bad)} entries, want {len(scan)}")
                    assert problems == want
    assert verdicts == {False, True}


def test_bool_entries_count_as_integers():
    # True is the int 1, as in Python: a beta that starts with True where
    # the scan has 1 passes
    inst = adversary(1, 1, PLFunction.zero(), 40)
    assert inst.beta[0] == 1
    assert verify_adversary(dataclasses.replace(inst, beta=(True,) + inst.beta[1:])) == []


def test_scan_is_capped_at_n():
    # a_i >= i, so the scan ends by i = m <= n without a cap: an alpha one
    # entry longer than the scan is reported, with its entry past the reds
    inst = adversary(1, 1, PLFunction.linear(1.0), 20)
    assert inst.alpha == tuple(range(1, 21)) and inst.beta == ()
    bad = dataclasses.replace(inst, alpha=inst.alpha + (21,))
    assert verify_adversary(bad) == ["alpha has 21 entries, want 20",
                                     "alpha_21 = 21 is out of range"]


def test_s_and_r_need_not_be_in_lowest_terms():
    # lam = 4/2 is lam = 2: an instance built for 2/1 passes as one for 4/2
    inst = adversary(2, 1, sigma_g(GammaParam.from_lambda(2.0), 12), 60)
    assert verify_adversary(dataclasses.replace(inst, s=4, r=2)) == []
