import random
from fractions import Fraction

import pytest

from ramseydensity.colorings import BLUE, RED, TwoColoring
from ramseydensity.flows import (
    CapacitatedBipartite, FindFlowResult, FlowCertificate, bruteforce_max_flow,
    bruteforce_min_cover, findflow, mfmc)


def random_instance(rng):
    nx, ny = rng.randint(1, 5), rng.randint(1, 5)
    r, s = rng.randint(1, 3), rng.randint(1, 3)
    edges = frozenset((i, nx + j) for i in range(nx) for j in range(ny)
                      if rng.random() < 0.55)
    return CapacitatedBipartite(tuple(range(nx)), tuple(range(nx, nx + ny)),
                                edges, r, s)


class TestMfmc:
    def test_single_edge(self):
        G = CapacitatedBipartite((0,), (1,), frozenset({(0, 1)}), 2, 3)
        cert = mfmc(G)
        assert cert.D == 2
        assert cert.Z == (0,)

    def test_no_edges(self):
        G = CapacitatedBipartite((0, 1), (2,), frozenset(), 1, 1)
        cert = mfmc(G)
        assert cert.D == 0 and cert.Z == ()

    # the first search finds no path, so the cover comes from its marks
    @pytest.mark.parametrize("X,Y", [((), (0, 1)), ((0, 1), ()), ((), ())],
                             ids=["empty-X", "empty-Y", "both-empty"])
    def test_empty_side(self, X, Y):
        cert = mfmc(CapacitatedBipartite(X, Y, frozenset(), 2, 3))
        assert cert.D == 0 and cert.h == () and cert.Z == ()

    def test_k22_tight_y_side(self):
        G = CapacitatedBipartite((0, 1), (2, 3),
                                 frozenset({(0, 2), (0, 3), (1, 2), (1, 3)}), 3, 1)
        cert = mfmc(G)
        assert cert.D == 2
        assert cert.Z == (2, 3)

    def test_duality_against_bruteforce(self):
        rng = random.Random(42)
        for _ in range(120):
            G = random_instance(rng)
            cert = mfmc(G)
            assert cert.D == bruteforce_max_flow(G)
            assert cert.D == bruteforce_min_cover(G)

    def test_certificate_json_shape(self):
        G = CapacitatedBipartite((0,), (1,), frozenset({(0, 1)}), 1, 1)
        doc = mfmc(G).to_json_dict()
        assert set(doc) == {"D", "h", "Z"}
        assert doc["h"] == [[0, 1, 1]]

    @pytest.mark.parametrize("h,Z,message", [
        ((((0, 2), 1),), (0,), "flow on a non-edge"),
        ((((0, 1), 2),), (0,), "flow total differs from D"),
        ((((0, 1), 1),), (), "Z is not a vertex cover"),
    ])
    def test_corrupt_certificate_raises_verification_error(self, h, Z, message):
        from dataclasses import replace
        from ramseydensity.errors import VerificationError
        from ramseydensity.flows import _validate_certificate
        G = CapacitatedBipartite((0,), (1, 2), frozenset({(0, 1)}), 1, 3)
        cert = replace(mfmc(G), h=h, Z=Z)
        with pytest.raises(VerificationError, match=message):
            _validate_certificate(G, cert)

    @pytest.mark.parametrize("r,s,name", [(1.5, 1, "r"), (1, 2.5, "s"), (True, 1, "r"),
                                          (1, "2", "s"), (0, 1, "r")])
    def test_capacities_must_be_positive_ints(self, r, s, name):
        with pytest.raises(ValueError, match=f"capacity {name} must be a positive integer"):
            CapacitatedBipartite((0,), (1,), frozenset({(0, 1)}), r, s)

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError):
            CapacitatedBipartite((0, 1), (1, 2), frozenset(), 1, 1)

    @pytest.mark.parametrize("edges,message", [
        ({(2, 0)}, "edges must go from X to Y"),
        ({(0, 2), (1, 5)}, "edges must go from X to Y"),
        ({(0, 2), (7, 3)}, "edges must go from X to Y"),
        ({(0, 2), (1, 3, 4)}, r"edges must be \(x, y\) pairs"),
        ({(0,)}, r"edges must be \(x, y\) pairs"),
    ])
    def test_edges_off_the_sides_rejected(self, edges, message):
        with pytest.raises(ValueError, match=message):
            CapacitatedBipartite((0, 1), (2, 3), edges, 1, 1)


def exhaustive_best(chi, r, s):
    """The largest (value, blue?, -t) over every prefix length t and colour,
    each max flow found by ``bruteforce_max_flow``."""
    n, vc = chi.n, chi.vertex_colors
    best = None
    for t in range(1, n + 1):
        for color in (BLUE, RED):
            full = [v for v in range(n) if vc[v] == color]
            pref = [v for v in range(t) if vc[v] != color]
            edges = frozenset((u, v) for u in full for v in pref if chi.color(u, v) == color)
            d = bruteforce_max_flow(CapacitatedBipartite(tuple(full), tuple(pref), edges, r, s))
            in_prefix = sum(1 for v in range(t) if vc[v] == color)
            key = (Fraction(in_prefix, t) + Fraction(d, s * t), color == BLUE, -t)
            best = key if best is None else max(best, key)
    return best


class TestFindFlow:
    def test_all_red_short_circuit(self):
        n = 8
        chi = TwoColoring(n, "explicit",
                          red_edges=frozenset((u, v) for u in range(n)
                                              for v in range(u + 1, n)),
                          vertex_colors=tuple([RED] * n))
        res = findflow(chi, 1, 1)
        assert (res.t, res.color, res.value, res.h) == (1, RED, 1, ())
        assert res.certificate == FlowCertificate(D=0, h=(), Z=())

    def test_bullets_hold(self):
        rng = random.Random(3)
        for _ in range(15):
            n = rng.randint(6, 12)
            vc = tuple(rng.choice((RED, BLUE)) for _ in range(n))
            red = frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.5)
            chi = TwoColoring(n, "explicit", red_edges=red, vertex_colors=vc)
            if len(set(vc)) == 1:
                continue
            r, s = rng.randint(1, 2), rng.randint(1, 2)
            res = findflow(chi, r, s)
            load = {}
            for (u, v), f in res.h:
                assert f > 0
                assert chi.color(u, v) == res.color
                assert chi.vertex_color(u) != chi.vertex_color(v)
                load[u] = load.get(u, 0) + f
                load[v] = load.get(v, 0) + f
            for v, tot in load.items():
                cap = r if chi.vertex_color(v) == res.color else s
                assert tot <= cap
            in_prefix = sum(1 for v in range(res.t)
                            if chi.vertex_color(v) == res.color)
            d = sum(f for _, f in res.h)
            assert res.value == Fraction(in_prefix, res.t) + Fraction(d, s * res.t)

    def test_half_and_half_complete_red_bipartite(self):
        n = 12
        vc = tuple(RED if v < 6 else BLUE for v in range(n))
        red = frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                        if (u < 6) != (v < 6))
        chi = TwoColoring(n, "explicit", red_edges=red, vertex_colors=vc)
        # vertex 0 is red and its edges to the blues are red, so blue's
        # network at t = 1 has no edge and red wins there with no flow
        assert findflow(chi, 1, 1) == FindFlowResult(
            t=1, color=RED, h=(), value=Fraction(1), certificate=FlowCertificate(D=0, h=(), Z=()))

    def test_matches_exhaustive_oracle_on_planted(self):
        # sparse planted instance; the oracle enumerates t and colors and uses
        # the DP flow maximizer, fully independent of the augmenting paths
        n = 12
        vc = tuple(RED if v % 2 == 0 else BLUE for v in range(n))
        rng = random.Random(9)
        red = set()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    red.add((u, v))
        chi = TwoColoring(n, "explicit", red_edges=frozenset(red), vertex_colors=vc)
        r, s = 2, 1
        res = findflow(chi, r, s)
        assert (res.value, res.color == BLUE, -res.t) == exhaustive_best(chi, r, s)

    def test_small_hosts_match_the_exhaustive_maximum_at_t_1(self):
        rng = random.Random(24)
        rules = ("leftmost", "modular", "explicit")
        colors_won = {rule: set() for rule in rules}
        for k in range(240):
            rule = rules[k % 3]
            n = rng.randint(1, 8)
            vc = tuple(rng.choice((RED, BLUE)) for _ in range(n))
            red = frozenset((u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.5)
            extra = {"leftmost": {}, "modular": {"modulus": rng.randint(2, 4)},
                     "explicit": {"red_edges": red}}[rule]
            chi = TwoColoring(n, rule, vertex_colors=vc, **extra)
            r, s = rng.randint(1, 3), rng.randint(1, 3)
            res = findflow(chi, r, s)
            assert (res.t, res.value) == (1, 1)
            assert (res.value, res.color == BLUE, -res.t) == exhaustive_best(chi, r, s)
            colors_won[rule].add((vc[0], res.color))
        # vertex 0 red with blue winning occurs off the leftmost rule only
        assert colors_won["leftmost"] == {(RED, RED), (BLUE, BLUE)}
        assert colors_won["modular"] == colors_won["explicit"] == {
            (RED, RED), (BLUE, BLUE), (RED, BLUE)}

    def test_requires_vertex_colors(self):
        chi = TwoColoring(4, "modular", modulus=2)
        with pytest.raises(ValueError):
            findflow(chi, 1, 1)
