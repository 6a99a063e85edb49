"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantity and elapsed time.  Run with `pytest -v -s`."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from ramseydensity.colorings import (
    BLUE, RED, Shading, TwoColoring, adversary, adversary_bound_chain,
    max_embedding_density_bruteforce, verify_adversary)
from ramseydensity.embedder import (
    BipartitePiece, HPrefixSpec, build_W, embed, verify_embedding)
from ramseydensity.families import (
    FiniteGraph, Grid, KAryTree, OmegaFactor, PathPower,
    complete_bipartite, default_treecut_delta, mu_bruteforce, treecut)
from ramseydensity.flows import (
    CapacitatedBipartite, bruteforce_max_flow, bruteforce_min_cover, mfmc)
from ramseydensity.lipschitz import (
    GammaParam, PLFunction, UnboundedCandidateError, f_closed, f_from_h,
    h_upper_and_f, random_alternating_candidate, recurrence_discriminant,
    run_recurrence, sigma_g, sigma_peak_levels, sigma_window, sup_ratio,
    candidate_window)


def report(num, label, detail, t0, budget):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"
    print(f"criterion {num} ({label}): PASS [{detail}; {elapsed:.2f}s]")


def test_criterion_1_f_one_constant():
    t0 = time.time()
    target = (12 + math.sqrt(8)) / 17
    p = GammaParam.from_lambda(1.0)
    g = sigma_g(p, 10)
    h = sup_ratio(g, p, *sigma_window(p, 10))
    f_pipeline = f_from_h(h, 1.0)
    _, f_formula = h_upper_and_f(p)
    assert abs(f_pipeline - target) < 1e-6
    assert abs(f_formula - target) < 1e-12
    report(1, "f(1) constant", f"pipeline {f_pipeline:.9f} vs {target:.9f}",
           t0, 1.0)


def test_criterion_2_exactness_on_unit_interval():
    t0 = time.time()
    worst_margin = math.inf
    for lam in (0.2, 0.5, 1.0):
        p = GammaParam.from_lambda(lam)
        g = sigma_g(p, 10)
        h_sigma = sup_ratio(g, p, *sigma_window(p, 10))
        f_sigma = f_from_h(h_sigma, lam)
        closed = (2 * lam * lam + 3 * lam + 7 + 2 * math.sqrt(lam + 1)) \
            / (4 * lam * lam + 4 * lam + 9)
        assert abs(f_sigma - closed) < 1e-6
        rng = random.Random(20240 + int(lam * 10))
        evaluated = 0
        for _ in range(200):
            cand = random_alternating_candidate(rng, p, max_pieces=40,
                                                span_cap=1e9)
            window = candidate_window(cand, p)
            if window is None:
                continue  # unbounded-surrogate candidate: cannot compete
            try:
                h_cand = sup_ratio(cand, p, *window)
            except UnboundedCandidateError:
                continue
            evaluated += 1
            worst_margin = min(worst_margin, h_cand - h_sigma)
            assert h_cand >= h_sigma - 1e-9
            assert f_from_h(h_cand, lam) >= f_sigma - 1e-9
        assert evaluated >= 150
    report(2, "exactness on [0,1]",
           f"worst candidate margin {worst_margin:+.4f}", t0, 30.0)


def test_criterion_3_recurrence_boundary():
    t0 = time.time()
    p = GammaParam.from_gamma(0.0)
    target = 8 + math.sqrt(32)

    lo, hi = 13.0, 14.5
    for _ in range(40):
        mid = (lo + hi) / 2
        if run_recurrence(1.0, mid, p, 10 ** 4).first_nonpositive is None:
            hi = mid
        else:
            lo = mid
    positivity_boundary = hi
    assert abs(positivity_boundary - target) < 1e-4

    lo, hi = 13.0, 14.5
    for _ in range(60):
        mid = (lo + hi) / 2
        if recurrence_discriminant(mid, p)[0] < 0:
            lo = mid
        else:
            hi = mid
    disc_boundary = hi
    assert abs(disc_boundary - target) < 1e-9
    report(3, "recurrence boundary",
           f"positivity {positivity_boundary:.6f}, discriminant "
           f"{disc_boundary:.10f} vs {target:.10f}", t0, 10.0)


def test_criterion_4_weighted_cover_duality():
    t0 = time.time()
    rng = random.Random(4242)
    for trial in range(300):
        nx, ny = rng.randint(1, 5), rng.randint(1, 5)
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        edges = frozenset((i, nx + j) for i in range(nx) for j in range(ny)
                          if rng.random() < 0.55)
        G = CapacitatedBipartite(tuple(range(nx)), tuple(range(nx, nx + ny)),
                                 edges, r, s)
        cert = mfmc(G)
        assert cert.D == bruteforce_max_flow(G), f"flow mismatch, trial {trial}"
        assert cert.D == bruteforce_min_cover(G), f"cover mismatch, trial {trial}"
    report(4, "weighted cover duality", "300 instances exact", t0, 20.0)


def test_criterion_5_mu_formulas():
    t0 = time.time()
    for k in (2, 3):
        prefix = (k ** 5 - 1) // (k - 1)
        for n in range(1, 6):
            assert mu_bruteforce(KAryTree(k), n, prefix) == k * n
    # n = 6 needs a deeper prefix: karytree:2 at prefix 63 gives 13
    assert mu_bruteforce(KAryTree(2), 6, 127) == 12
    assert mu_bruteforce(KAryTree(3), 6, 364) == 18
    for n in range(1, 9):
        assert mu_bruteforce(PathPower(1), n, 24) == n
    for n in range(9, 13):
        assert mu_bruteforce(PathPower(1), n, 30) == n
    for r in (1, 2, 3):
        for s in (1, 2, 3):
            # join of an empty r-set with a complete s-set
            edges = set()
            verts = r + s
            for i in range(r):
                for j in range(r, verts):
                    edges.add((i, j))
            for i in range(r, verts):
                for j in range(i + 1, verts):
                    edges.add((i, j))
            F = FiniteGraph(verts, frozenset(edges))
            fam = OmegaFactor(F)
            for n in range(1, 7):
                want = s * math.ceil(n / r)
                copies = n + 1
                assert mu_bruteforce(fam, n, copies * verts) == want, (r, s, n)
    report(5, "mu formulas", "trees, path, factor family all exact", t0, 60.0)


def test_criterion_6_adversary_structural_suite():
    t0 = time.time()
    rng = random.Random(6006)
    n = 2000
    checked = 0
    for s, r in ((1, 1), (2, 1), (1, 2), (3, 2)):
        p = GammaParam.from_lambda(s / r)
        for _ in range(25):
            g = random_alternating_candidate(rng, p, max_pieces=40,
                                             span_cap=1e8)
            inst = adversary(s, r, g, n)
            assert verify_adversary(inst) == []
            assert adversary_bound_chain(inst, i_min=50) == []
            checked += 1
    assert checked == 100
    report(6, "adversary structural suite",
           f"{checked} instances at n={n}, bounds hold for i >= 50", t0, 60.0)


def test_criterion_7_toy_density_oracle():
    t0 = time.time()
    inst = adversary(1, 1, PLFunction.zero(), 12)
    chi = inst.permuted_coloring()
    pattern = PathPower(1)
    h_size = 5  # a path with four edges
    best, color = max_embedding_density_bruteforce(chi, pattern, h_size)
    assert best <= 1

    # independent exhaustive reimplementation over raw injections
    H = pattern.prefix(h_size)
    edges = list(H.edges)
    oracle_best, oracle_color = Fraction(0), None
    for c in (RED, BLUE):
        for img in permutations(range(chi.n), h_size):
            if all(chi.color(img[u], img[v]) == c for u, v in edges):
                d = Fraction(h_size, max(img) + 1)
                if d > oracle_best:
                    oracle_best, oracle_color = d, c
    assert (best, color) == (oracle_best, oracle_color)
    report(7, "toy density oracle",
           f"best {best} in {color}, oracle agrees exactly", t0, 30.0)


def _two_class_host(nl, nu, noise, rng):
    n = nl + nu
    red = set()
    for u in range(n):
        for v in range(u + 1, n):
            if u >= nl and v >= nl:
                if rng.random() >= noise:
                    red.add((u, v))
            elif u < nl and v < nl:
                if rng.random() < noise:
                    red.add((u, v))
            else:
                red.add((u, v))
    return TwoColoring(n, "explicit", red_edges=frozenset(red))


def test_criterion_8_embedding_validity():
    t0 = time.time()
    failures = []
    for seed in range(1000):
        rng = random.Random(seed)
        r, s = rng.choice(((1, 1), (1, 2), (2, 1)))
        copies = rng.randint(3, 5)
        nl = rng.randint(8, 12)
        nu = rng.randint(14, 20)
        n = nl + nu
        chi = _two_class_host(nl, nu, noise=0.05, rng=rng)
        top_shade = rng.choice((1, 2))  # 2 exercises the out-reachable path
        sh = Shading(a=2, assignment=tuple(
            (BLUE, 1) if v < nl else (RED, top_shade) for v in range(n)),
            min_count=2)
        if top_shade == 2 and r != 1:
            r, s = 1, r  # keep the low-shade pool demand modest
        spec = HPrefixSpec.omega_factor(complete_bipartite(r, s), copies,
                                        tuple(range(r)))
        W = build_W(chi, sh, spec.r, spec.s, max_pieces=max(1, copies // 2))
        state = embed(chi, sh, W, spec, budget=400)
        rep = verify_embedding(state, chi, spec, W)
        if not rep.passed:
            failures.append((seed, rep.failures[:1]))
            continue
        # backbone density transfer: a' = b = 1, so the image must keep the
        # backbone's density up to the unconsumed-component slack
        d = W.density_surrogate(n)
        unconsumed = len(W.components) - len(state.consumed)
        if rep.density is not None:
            slack = Fraction((spec.r + spec.s) * unconsumed, n)
            if rep.density.max_ratio < d - slack:
                failures.append((seed, "density transfer"))
    assert not failures, f"failing seeds: {failures[:5]}"
    report(8, "embedding validity", "1000 seeded runs verified", t0, 120.0)


def _random_forest(rng, n):
    edges = set()
    for v in range(1, n):
        if rng.random() < 0.85:
            edges.add((rng.randrange(v), v))
    return FiniteGraph(n, frozenset(edges))


def _random_independent(rng, g):
    picked, taken = [], set()
    for v in rng.sample(range(g.n), g.n):
        if v not in taken:
            picked.append(v)
            taken.add(v)
            taken |= g.neighbors(v)
    k = rng.randint(1, len(picked))
    return sorted(rng.sample(picked, k))


def test_criterion_9_treecut():
    t0 = time.time()
    rng = random.Random(909)
    for trial in range(500):
        g = _random_forest(rng, rng.randint(2, 60))
        I = _random_independent(rng, g)
        lam = Fraction(len(g.neighborhood(I)), len(I))
        lamp = lam + Fraction(rng.randint(1, 4), 4)
        delta = default_treecut_delta(lam, lamp)
        out = treecut(g, I, lam, lamp, delta)
        assert len(out) <= 2 / delta, f"size bound fails at trial {trial}"
        assert len(g.neighborhood(out)) <= lamp * len(out), \
            f"expansion bound fails at trial {trial}"
        if g.n <= 18:
            feasible = False
            for k in range(1, len(I) + 1):
                if k > 2 / delta or feasible:
                    break
                for sub in combinations(I, k):
                    if len(g.neighborhood(sub)) <= lamp * len(sub):
                        feasible = True
                        break
            assert feasible and tuple(out)  # output is itself a witness
    report(9, "treecut", "500 forests, both bounds always hold", t0, 60.0)


def test_criterion_10_cli_reproducibility(tmp_path):
    t0 = time.time()
    from ramseydensity.cli import main
    jobs = [
        (["fig1", "--seed", "7"], "fig1.csv"),
        (["adversary", "--s", "2", "--r", "1", "--n", "80",
          "--g", "sigma:2:8", "--seed", "7"], "adv.json"),
        (["shade", "--coloring", "modular:3", "--n", "90", "--a", "3",
          "--min-count", "4", "--seed", "7"], "shade.json"),
        (["mu", "--family", "karytree:2", "--n", "2", "--prefix-size", "31",
          "--seed", "7"], "mu.json"),
    ]
    for args, name in jobs:
        first = tmp_path / f"a_{name}"
        second = tmp_path / f"b_{name}"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
    report(10, "cli reproducibility", "4 commands byte-identical", t0, 60.0)
