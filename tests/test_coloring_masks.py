"""The bitmask coloring core against the per-rule formula and the set-based
shading code.

``shading_reference`` keeps ``neighbor_sets``, ``a_good_shading`` and
``verify_shading`` as they were when neighbourhoods were Python sets, and the
rule dispatch ``color()`` used to do.  Shadings and verification reports,
failures included, must be equal on seeded modular, random explicit,
relabelled modular and leftmost colorings; every edge colour and every
neighbour mask must agree with the rule.
"""

import random

import pytest

import shading_reference as ref
from ramseydensity.colorings import (BLUE, COLORS, RED, TwoColoring, a_good_shading,
                                     adversary, clique_coloring, verify_shading)
from ramseydensity.lipschitz import GammaParam, sigma_g


def random_explicit(rng, n, p_red):
    red = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p_red}
    return TwoColoring(n, "explicit", red_edges=red), red


def relabelled_modular(rng, a, n):
    perm = list(range(n))
    rng.shuffle(perm)
    red = {(u, v) for u in range(n) for v in range(u + 1, n)
           if (perm[v] - perm[u]) % (a - 1) == 0}
    return TwoColoring(n, "explicit", red_edges=red), red


def random_leftmost(rng, n):
    return TwoColoring(n, "leftmost", vertex_colors=tuple(rng.choice(COLORS) for _ in range(n)))


def hosts():
    """(label, coloring, red pairs of an explicit coloring or None)."""
    rng = random.Random(5)
    out = []
    for a in (2, 3, 4, 5):
        for n in (53, 97):
            out.append((f"modular:{a} n={n}", clique_coloring(a, n), None))
    for p_red in (0.2, 0.5, 0.8):
        for n in (40, 75):
            out.append((f"explicit p={p_red} n={n}", *random_explicit(rng, n, p_red)))
    for a in (3, 4):
        out.append((f"relabelled modular:{a}", *relabelled_modular(rng, a, 70)))
    for n in (30, 64, 90):
        out.append((f"leftmost n={n}", random_leftmost(rng, n), None))
    return out


HOSTS = hosts()


@pytest.mark.parametrize("label,chi,red", HOSTS, ids=[h[0] for h in HOSTS])
def test_shading_and_report_equal_the_set_based_reference(label, chi, red):
    rng = random.Random(label)
    outcomes = set()
    for a in (2, 3, 4, 5):
        for theta, min_count in ((0.1, 2), (0.3, 4), (0.05, 6)):
            sh = a_good_shading(chi, a, min_count)
            assert sh == ref.a_good_shading(chi, a, theta, min_count), (a, theta, min_count)
            for sample_size, subset_cap in ((15, 3), (6, 1), (10, 5)):
                seed = rng.randrange(10 ** 6)
                report = verify_shading(chi, sh, sample_size, subset_cap, seed)
                assert report == ref.verify_shading(chi, sh, sample_size, subset_cap, seed)
                outcomes.add(report.passed)
    # both outcomes are compared: failing reports with their failures
    if label.startswith(("relabelled", "explicit p=0.5")):
        assert False in outcomes
    if label.startswith("modular"):
        assert True in outcomes


def property_hosts():
    rng = random.Random(11)
    out = []
    for n in (1, 2, 3, 7, 31, 64, 65):
        out.append((random_leftmost(rng, n), None))
        out.append(random_explicit(rng, n, rng.choice((0.2, 0.5, 0.8))))
        for a in (2, 3, 4, 7):
            out.append((clique_coloring(a, n), None))
    return out


@pytest.mark.parametrize("chi,red", property_hosts())
def test_color_and_neighbor_masks_follow_the_rule(chi, red):
    for v in range(chi.n):
        masks = {c: chi.neighbor_mask(v, c) for c in COLORS}
        for c in COLORS:
            assert not masks[c] >> v & 1
            want = {w for w in range(chi.n) if w != v and chi.color(v, w) == c}
            assert {w for w in range(chi.n) if masks[c] >> w & 1} == want
        assert masks[RED] >> chi.n == masks[BLUE] >> chi.n == 0
        for w in range(chi.n):
            if w != v:
                assert chi.color(v, w) == chi.color(w, v) == ref.rule_color(chi, red, v, w)
    for c in COLORS:
        assert chi.neighbor_sets(c) == [chi.neighbor_mask(v, c) for v in range(chi.n)]


@pytest.mark.parametrize("chi,red", property_hosts())
def test_text_round_trip(chi, red):
    back = TwoColoring.from_text(chi.to_text())
    assert back.to_text() == chi.to_text()
    assert back == chi


def test_explicit_pairs_in_either_order_give_one_coloring():
    a = TwoColoring(4, "explicit", red_edges={(0, 1), (2, 3)})
    b = TwoColoring(4, "explicit", red_edges=[(1, 0), (3, 2), (2, 3)])
    assert a == b and hash(a) == hash(b)
    for bad in ({(0, 4)}, {(2, 2)}, {(-1, 2)}):
        with pytest.raises(ValueError, match="red edge out of range"):
            TwoColoring(4, "explicit", red_edges=bad)


def test_leftmost_coloring_keeps_one_mask():
    p = GammaParam.from_lambda(2.0)
    inst = adversary(2, 1, sigma_g(p, 12), 8000)
    chi = inst.coloring
    assert chi.red_masks is None
    assert chi.red_vertices == sum(1 << v for v in inst.red_positions)


@pytest.mark.parametrize("name", ["sample_size", "subset_cap"])
def test_verify_shading_needs_samples(name):
    chi = clique_coloring(3, 30)
    sh = a_good_shading(chi, 3, 4)
    args = {"sample_size": 20, "subset_cap": 3, name: 0}
    with pytest.raises(ValueError, match=name):
        verify_shading(chi, sh, args["sample_size"], args["subset_cap"], 0)
