import random
from fractions import Fraction

import pytest

from ramseydensity.colorings import BLUE, RED, TwoColoring
from ramseydensity.flows import (
    CapacitatedBipartite, bruteforce_max_flow, bruteforce_min_cover,
    colored_degree_profile, findflow, mfmc)


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


class TestColoredDegreeProfile:
    def test_profile_interpolates_sorted_degrees(self):
        n = 6
        vc = tuple(RED if v < 3 else BLUE for v in range(n))
        # blue edges: (0,3), (1,3), (1,4) between classes; rest red
        blue = {(0, 3), (1, 3), (1, 4)}
        red = {(u, v) for u in range(n) for v in range(u + 1, n)
               if (u, v) not in blue}
        chi = TwoColoring(n, "explicit", red_edges=frozenset(red),
                          vertex_colors=vc)
        prof = colored_degree_profile(chi)
        assert prof.degrees == (0, 1, 2)
        assert prof.g(0.0) == 0.0
        assert prof.g(1.5) == 0.5
        assert prof.g(10.0) == 2.0  # constant beyond the class size
        assert all(b <= a for a, b in zip(prof.g.values, prof.g.values[1:])) is False


class TestFindFlow:
    def test_all_red_short_circuit(self):
        n = 8
        chi = TwoColoring(n, "explicit",
                          red_edges=frozenset((u, v) for u in range(n)
                                              for v in range(u + 1, n)),
                          vertex_colors=tuple([RED] * n))
        res = findflow(chi, 1, 1)
        assert res.t == n and res.color == RED and res.value == 1

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
        res = findflow(chi, 1, 1)
        assert res.value >= 1 - Fraction(1, n)
        # this instance admits the closed-form target at lam = 1
        from ramseydensity.lipschitz import f_closed
        assert res.value >= f_closed(1.0).exact - 0.2

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

        best = Fraction(0)
        for t in range(1, n + 1):
            for color in (BLUE, RED):
                if color == BLUE:
                    full = [v for v in range(n) if vc[v] == BLUE]
                    pref = [v for v in range(n) if vc[v] == RED and v < t]
                else:
                    full = [v for v in range(n) if vc[v] == RED]
                    pref = [v for v in range(n) if vc[v] == BLUE and v < t]
                edges = frozenset((u, v) for u in full for v in pref
                                  if chi.color(u, v) == color)
                G = CapacitatedBipartite(tuple(full), tuple(pref), edges, r, s)
                d = bruteforce_max_flow(G)
                in_prefix = sum(1 for v in range(t) if vc[v] == color)
                best = max(best, Fraction(in_prefix, t) + Fraction(d, s * t))
        assert res.value >= best - Fraction(1, 10 ** 9)
        assert res.value == best

    def test_requires_vertex_colors(self):
        chi = TwoColoring(4, "modular", modulus=2)
        with pytest.raises(ValueError):
            findflow(chi, 1, 1)
