"""Seeded job streams for the four benchmark workloads.

A workload's job list is one *pass*: a fixed mix of job kinds and sizes
whose inputs come from the random stream ``Random(f"{workload}:{seed}")``,
so the same seed always yields the same inputs.  Building the pass (drawing
candidates, writing input files) is the benchmark's own work and is never
timed.  The mix of each pass is chosen so that the median and the tail rank
of its job times fall inside groups of jobs of similar cost, not in a gap
between two such groups, where a small change would make them jump.

Each job has a timed ``call`` into the program (library functions through
their modules, or ``cli.main`` in-process) and an untimed ``check`` that
turns the raw result into ``(payload, problems)``.  The payload feeds the
output digest; any problem (a failed verifier flag, a nonzero exit code, a
violation list, or disagreement with an oracle or closed form) fails the job.
Library functions are always looked up on their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable

from ramseydensity import cli, colorings, embedder, families, flows, lipschitz

RED, BLUE = "R", "B"


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    sweep: tuple | None = None      # (traced function, n) on a doubling sweep


@dataclass
class PassStats:
    """Input-generation bookkeeping reported next to the metrics."""

    candidates_drawn: int = 0
    candidates_rejected: int = 0


class Files:
    """Input and artifact files of one run, inside the run's work directory."""

    def __init__(self, root):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def write(self, name, text):
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def path(self, name):
        return os.path.join(self.root, name)


def cli_job(kind, argv, out_path, check_doc, sweep=None):
    """A job that runs ``rdl <argv> --out out_path`` through ``cli.main``.

    The check requires exit code 0, drops the artifact's ``meta`` block and
    hands the rest to ``check_doc``, which returns a list of problems.
    """

    def call():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--out", out_path])
        return rc, err.getvalue()

    def check(raw):
        rc, err = raw
        if rc != 0:
            return None, [f"exit code {rc}: {err.strip()[:200]}"]
        with open(out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc.pop("meta")
        return doc, check_doc(doc)

    return Job(kind, call, check, sweep)


# ---------------------------------------------------------------- adversary

LAMBDAS = ((1, 1), (2, 1), (1, 2), (3, 2))     # (s, r): lam = 1, 2, 1/2, 3/2


def chain_top_level(lam, n):
    """Highest level ``adversary_bound_chain`` reads at size n.  The chain
    runs i up to the joint prefix, and alpha_i, beta_i >= i bounds that by
    n/2."""
    return (2 / (1 + lam)) * (lam * (n // 2) + 2 * lam + 2)


def reaches(g, p, level):
    """Whether both tilted functions gamma*x +- g(x) reach ``level``."""
    for sign in (1, -1):
        if p.gamma + sign * g.tail_slope > 0:
            continue
        if max(p.gamma * x + sign * y for x, y in zip(g.breakpoints, g.values)) < level:
            return False
    return True


def sawtooth_h(gamma):
    """Closed-form ratio supremum of the sawtooth (gamma < 1/2)."""
    return (2 * gamma ** 2 + 2 * gamma + 8 + math.sqrt(32 * (1 - gamma))) / (1 + gamma) ** 3


def sawtooth_f(lam):
    """f(lam) the sawtooth certifies: the exact value on [0, 1] (where
    f(1) = (12 + sqrt 8)/17), the upper bound from its ratio above."""
    if lam <= 1:
        return (2 * lam ** 2 + 3 * lam + 7 + 2 * math.sqrt(lam + 1)) / (4 * lam ** 2 + 4 * lam + 9)
    gamma = (lam - 1) / (lam + 1)
    return 1 - 1 / ((2 * lam / (1 + lam) ** 2) * sawtooth_h(gamma) + 2 * lam / (1 + lam))


def red_prefix(g, m):
    """Red vertices among the first m by the adversary's defining rule."""
    return math.floor((m + g(float(m))) / 2 + 1e-12)


def adversary_job(rng, s, r, n, stats, sawtooth):
    """adversary + verify_adversary + bound chain + exact sup_ratio on the
    candidate's window, plus leftmost-rule queries on a sample of edges.

    The candidate is the sawtooth sigma_g, or a random alternating one drawn
    with acceptance criterion 6's settings.  The sawtooth also runs the f
    pipeline (sup_ratio on its interior window, then f), checked against
    the closed form; at lam = 1 that is f(1) = (12 + sqrt 8)/17.

    Input rule: a candidate is kept only if both tilted functions reach the
    highest level the bound chain reads at this n.  The sawtooth gets the
    fewest periods that do; a random candidate whose span falls short is
    rejected, counted, and redrawn from the same stream.
    """
    lam = s / r
    p = lipschitz.GammaParam.from_lambda(lam)
    if sawtooth:
        periods = sawtooth_periods(p, lam, n)
        g = lipschitz.sigma_g(p, periods)
    else:
        while True:
            g = lipschitz.random_alternating_candidate(rng, p, max_pieces=40, span_cap=1e8)
            stats.candidates_drawn += 1
            if reaches(g, p, chain_top_level(lam, n)):
                break
            stats.candidates_rejected += 1
    pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(64)})
    want = [RED if red_prefix(g, u + 1) > red_prefix(g, u) else BLUE for u, _ in pairs]

    def call():
        inst = colorings.adversary(s, r, g, n)
        violations = colorings.verify_adversary(inst)
        chain = colorings.adversary_bound_chain(inst)
        h = lipschitz.sup_ratio(g, p, *lipschitz.candidate_window(g, p))
        chi = inst.coloring
        got = [chi.color(u, v) for u, v in pairs]
        f = None
        if sawtooth:
            f = lipschitz.f_from_h(
                lipschitz.sup_ratio(g, p, *lipschitz.sigma_window(p, periods)), lam)
        return inst, violations, chain, h, got, f

    def check(raw):
        inst, violations, chain, h, got, f = raw
        problems = list(violations) + list(chain)
        if sawtooth and not abs(f - sawtooth_f(lam)) < 1e-6:
            problems.append(f"f({lam}) = {f} != {sawtooth_f(lam)}")
        if got != want:
            problems.append("leftmost rule disagrees on sampled edges")
        if not (math.isfinite(h) and h > 0):
            problems.append(f"sup_ratio {h} not finite and positive")
        elif lam <= 1 and h < sawtooth_h(p.gamma) - 1e-9:
            problems.append(f"candidate ratio {h} beats the sawtooth on [0, 1]")
        payload = {"alpha": inst.alpha, "beta": inst.beta, "phi": inst.phi,
                   "h": repr(h), "f": repr(f)}
        return payload, problems

    kind = "adversary.sawtooth" if sawtooth else "adversary.random"
    return Job(kind, call, check, ("colorings.adversary", n))


def sawtooth_periods(p, lam, n):
    """Fewest sawtooth periods (at least 8) that pass the input rule at n."""
    periods = 8
    while not reaches(lipschitz.sigma_g(p, periods), p, chain_top_level(lam, n)):
        periods += 1
    return periods


def adversary_cli_job(rng, k, s, r, n, files, tag):
    """``rdl adversary --g sigma:lam:periods`` with the fewest periods whose
    sawtooth reaches the bound chain's top level at this n."""
    lam = s / r
    p = lipschitz.GammaParam.from_lambda(lam)
    periods = sawtooth_periods(p, lam, n)
    g = lipschitz.sigma_g(p, periods)
    ms = sorted(rng.sample(range(1, n + 1), 32))
    want = [red_prefix(g, m) for m in ms]
    argv = ["adversary", "--s", str(s), "--r", str(r), "--n", str(n),
            "--g", f"sigma:{lam!r}:{periods}", "--seed", str(k)]

    def check_doc(doc):
        problems = list(doc["violations"])
        if doc["invariants_ok"] is not True:
            problems.append("invariants_ok is false")
        colors = doc["colors"]
        if len(colors) != n or len(doc["phi"]) != n:
            problems.append("artifact sizes differ from n")
        elif [colors[:m].count(RED) for m in ms] != want:
            problems.append("red prefix counts disagree with the sawtooth")
        return problems

    return cli_job("adversary.cli", argv, files.path(f"adv_{tag}.json"), check_doc,
                   ("colorings.adversary", n))


def adversary_pass(rng, files, stats, mix):
    """Random candidates at the smallest size, sawtooths at every size and
    a share of sawtooths through the CLI.  A random candidate's cost at
    fixed n and lam varies by about 40% with the seed, so the median and the
    tail rank fall on sawtooth jobs, whose cost does not depend on it."""
    jobs = []
    for n, lams in mix["random"]:
        jobs += [adversary_job(rng, s, r, n, stats, sawtooth=False) for s, r in lams]
    for n, lams in mix["sawtooth"]:
        jobs += [adversary_job(rng, s, r, n, stats, sawtooth=True) for s, r in lams]
    for i, (n, (s, r)) in enumerate(mix["cli"]):
        jobs.append(adversary_cli_job(rng, i, s, r, n, files, str(i)))
    return jobs


# ---------------------------------------------------------------- flow-sweep

def check_flow(pairs, edges, caps_x, caps_y):
    """Problems with an integral flow given as [u, v, f] rows."""
    problems = []
    load = {}
    for u, v, f in pairs:
        if (u, v) not in edges or not isinstance(f, int) or f <= 0:
            problems.append(f"bad flow row {(u, v, f)}")
        load[u] = load.get(u, 0) + f
        load[v] = load.get(v, 0) + f
    for side, cap in ((caps_x, "r"), (caps_y, "s")):
        if any(load.get(v, 0) > c for v, c in side.items()):
            problems.append(f"capacity {cap} exceeded")
    return problems


def findflow_job(rng, k, n, files, tag):
    """``rdl findflow`` on a random leftmost host; the certificate is
    re-checked against the host and the reported value recomputed."""
    while True:
        vc = "".join(rng.choice((RED, BLUE)) for _ in range(n))
        if RED in vc and BLUE in vc:
            break
    r, s = rng.randint(1, 3), rng.randint(1, 3)
    path = files.write(f"host_{tag}.txt", f"{n} leftmost\n{vc}\n")
    argv = ["findflow", "--coloring", path, "--r", str(r), "--s", str(s), "--seed", str(k)]

    def check_doc(doc):
        t, color = doc["t"], doc["color"]
        if not 1 <= t <= n or color not in (RED, BLUE):
            return [f"bad prefix {t} or color {color}"]
        full = [v for v in range(n) if vc[v] == color]
        pref = [v for v in range(t) if vc[v] != color]
        edges = {(u, v) for u in full for v in pref if vc[min(u, v)] == color}
        rows = [tuple(row) for row in doc["h"]]
        problems = check_flow(rows, edges, {u: r for u in full}, {v: s for v in pref})
        D = sum(f for _, _, f in rows)
        value = Fraction(vc[:t].count(color), t) + Fraction(D, s * t)
        if doc["value"] != f"{float(value):.9g}":
            problems.append(f"value {doc['value']} != {float(value):.9g}")
        return problems

    return cli_job("flow.findflow", argv, files.path(f"flow_{tag}.json"), check_doc,
                   ("flows.findflow", n))


def mfmc_job(rng, k, nx, files, tag):
    """``rdl mfmc`` on a random bipartite file; the flow and cover are
    re-checked and their weights compared (equal weights prove both
    optimal)."""
    ny = nx
    r, s = rng.randint(1, 3), rng.randint(1, 3)
    edges = sorted({(i, j) for i in range(nx) for j in rng.sample(range(ny), rng.randint(1, 4))})
    text = f"{nx} {ny} {len(edges)}\n" + "".join(f"{i} {j}\n" for i, j in edges)
    path = files.write(f"bip_{tag}.txt", text)
    ids = {(i, nx + j) for i, j in edges}
    argv = ["mfmc", "--graph", path, "--r", str(r), "--s", str(s), "--seed", str(k)]

    def check_doc(doc):
        rows = [tuple(row) for row in doc["h"]]
        problems = check_flow(rows, ids, {x: r for x in range(nx)},
                              {y: s for y in range(nx, nx + ny)})
        Z = set(doc["Z"])
        if any(u not in Z and v not in Z for u, v in ids):
            problems.append("Z is not a vertex cover")
        weight = sum(r if z < nx else s for z in Z)
        D = sum(f for _, _, f in rows)
        if not weight == D == doc["D"]:
            problems.append(f"cover weight {weight}, flow {D}, D {doc['D']} differ")
        return problems

    return cli_job("flow.mfmc", argv, files.path(f"cert_{tag}.json"), check_doc,
                   ("flows.mfmc", nx))


def small_mfmc_job(rng):
    """Library mfmc on a small instance, checked against both brute-force
    oracles."""
    nx, ny = rng.randint(1, 5), rng.randint(1, 5)
    r, s = rng.randint(1, 3), rng.randint(1, 3)
    edges = frozenset((i, nx + j) for i in range(nx) for j in range(ny) if rng.random() < 0.55)
    G = flows.CapacitatedBipartite(tuple(range(nx)), tuple(range(nx, nx + ny)), edges, r, s)

    def call():
        return flows.mfmc(G)

    def check(cert):
        flow, cover = flows.bruteforce_max_flow(G), flows.bruteforce_min_cover(G)
        problems = [] if cert.D == flow == cover else [
            f"mfmc {cert.D}, brute-force flow {flow}, cover {cover}"]
        return cert.to_json_dict(), problems

    return Job("flow.mfmc_oracle", call, check)


def flow_pass(rng, files, stats, mix):
    """The median falls among the findflow jobs at the smallest n and the
    tail rank among findflow at the middle n and mfmc at the largest nx,
    which cost about the same."""
    jobs = []
    for n, count in mix["findflow"]:
        jobs += [findflow_job(rng, i, n, files, f"{n}_{i}") for i in range(count)]
    for nx, count in mix["mfmc"]:
        jobs += [mfmc_job(rng, i, nx, files, f"{nx}_{i}") for i in range(count)]
    jobs += [small_mfmc_job(rng) for _ in range(mix["oracles"])]
    return jobs


# ---------------------------------------------------------------- shade-embed

def parity_red(u, v):
    """The modular:3 rule: uv is red iff v - u is even."""
    return (v - u) % 2 == 0


def shade_check(n, min_count, rng):
    """Check a shade artifact: the verifier passed, every vertex is shaded,
    and on a seeded sample of subsets S of each shade the common
    same-colour neighbourhood inside the shade, counted with the parity
    rule, meets the floor."""
    seed = rng.randrange(2 ** 32)

    def check_doc(doc):
        problems = [] if doc["verify_passed"] is True else ["verify_passed is false"]
        shades = {}
        for v, label in enumerate(doc["assignment"]):
            shades.setdefault(label, []).append(v)
        if len(doc["assignment"]) != n:
            problems.append("assignment does not cover every vertex")
        pick = random.Random(seed)
        for label, members in sorted(shades.items()):
            if label[0] not in (RED, BLUE):
                continue
            want_red = label[0] == RED
            for _ in range(4):
                S = pick.sample(members, min(3, len(members)))
                common = [w for w in members if w not in S
                          and all(parity_red(min(w, x), max(w, x)) == want_red for x in S)]
                if len(common) < min_count:
                    problems.append(f"shade {label}: {len(common)} common neighbours")
        return problems

    return check_doc


def shade_modular_job(rng, n, files, tag):
    min_count = 12
    argv = ["shade", "--coloring", "modular:3", "--n", str(n), "--a", "3",
            "--min-count", str(min_count), "--seed", str(rng.randrange(10 ** 6))]
    return cli_job("shade.modular", argv, files.path(f"shade_{tag}.json"),
                   shade_check(n, min_count, rng), ("colorings.a_good_shading", n))


def shade_explicit_job(rng, n_range, files, tag):
    """``rdl shade`` on a stored explicit coloring file (the modular:3
    colours, upper triangle row by row) of seeded size in ``n_range``."""
    n = rng.randint(*n_range)
    min_count = 12
    chars = "".join(RED if parity_red(u, v) else BLUE
                    for u in range(n) for v in range(u + 1, n))
    path = files.write(f"explicit_{tag}.txt", f"{n} explicit\n{chars}\n")
    argv = ["shade", "--coloring", path, "--a", "3", "--min-count", str(min_count),
            "--seed", str(rng.randrange(10 ** 6))]
    return cli_job("shade.explicit", argv, files.path(f"shade_x_{tag}.json"),
                   shade_check(n, min_count, rng))


def two_class_host(nl, nu, noise, rng):
    """Red across the classes, blue inside the first, red inside the second,
    each inner edge flipped with probability ``noise``."""
    n = nl + nu
    red = set()
    for u in range(n):
        for v in range(u + 1, n):
            if u >= nl:
                inner_red = rng.random() >= noise
            elif v < nl:
                inner_red = rng.random() < noise
            else:
                inner_red = True
            if inner_red:
                red.add((u, v))
    return red


def embed_job(rng):
    """build_W + embed + verify_embedding on a noisy two-class host, as in
    acceptance criterion 8 with larger hosts and patterns."""
    r, s = rng.choice(((1, 1), (1, 2), (2, 1)))
    copies = rng.randint(16, 24)
    nl, nu = rng.randint(40, 60), rng.randint(80, 120)
    n = nl + nu
    red = two_class_host(nl, nu, 0.05, rng)
    chi = colorings.TwoColoring(n, "explicit", red_edges=frozenset(red))
    top = rng.choice((1, 2))
    if top == 2 and r != 1:
        r, s = 1, r
    sh = colorings.Shading(a=2, assignment=tuple(
        (BLUE, 1) if v < nl else (RED, top) for v in range(n)), min_count=2)
    factor = families.complete_bipartite(r, s)

    def call():
        spec = embedder.HPrefixSpec.omega_factor(factor, copies, tuple(range(r)))
        W = embedder.build_W(chi, sh, spec.r, spec.s, max_pieces=max(1, copies // 2))
        state = embedder.embed(chi, sh, W, spec, budget=4000)
        return spec, W, state, embedder.verify_embedding(state, chi, spec, W)

    def check(raw):
        spec, W, state, rep = raw
        problems = list(rep.failures)
        phi = state.phi
        size = r + s
        for c in range(copies):
            for i in range(r):
                for j in range(r, size):
                    u, v = c * size + i, c * size + j
                    if u in phi and v in phi:
                        x, y = sorted((phi[u], phi[v]))
                        if ((x, y) in red) != (state.color == RED):
                            problems.append(f"pattern edge {(u, v)} lands on the wrong colour")
        if rep.density is not None:
            slack = Fraction(size * (len(W.components) - len(state.consumed)), n)
            if rep.density.max_ratio < W.density_surrogate(n) - slack:
                problems.append("backbone density not transferred")
        return state.to_json_dict(), problems

    return Job("embed", call, check)


def shade_pass(rng, files, stats, mix):
    """The embeddings take a few milliseconds, so the median falls among the
    modular shadings at the smallest n and the tail rank among the middle
    ones and the explicit colorings, which cost about the same."""
    jobs = []
    for n, count in mix["shade_n"]:
        jobs += [shade_modular_job(rng, n, files, f"{n}_{i}") for i in range(count)]
    jobs += [shade_explicit_job(rng, mix["explicit_n"], files, str(i))
             for i in range(mix["explicit"])]
    jobs += [embed_job(rng) for _ in range(mix["embeds"])]
    return jobs


# ---------------------------------------------------------------- expansion

@lru_cache(maxsize=None)
def grid2_mu(n):
    """Independent oracle for mu(n) on Z^2, n <= 5: enumerate the n-sets of
    one parity class (independent by construction) that contain the origin
    and lie in the box |x|, |y| <= 3."""
    pts = [(x, y) for x in range(-3, 4) for y in range(-3, 4)
           if (x + y) % 2 == 0 and (x, y) != (0, 0)]
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    best = math.inf
    for rest in combinations(pts, n - 1):
        nbhd = {(x + dx, y + dy) for x, y in ((0, 0),) + rest for dx, dy in steps}
        best = min(best, len(nbhd))
    return best


def closed_form(spec):
    """mu(n) as a function of n: k*n on karytree:k and pathpower:k
    (acceptance criterion 5), the enumeration oracle on grid:2."""
    kind, arg = spec.split(":")
    return grid2_mu if kind == "grid" else (lambda n, k=int(arg): k * n)


# (family spec, prefix size, n values), in cost groups: under 6 ms, 10-14 ms,
# ten runs of grid:2 at n = 4 (about 16 ms; the median falls among them:
# shorter CLI jobs are dominated by argument parsing and file writes,
# which follow the reference speed less well), and 20-125 ms (beside the
# largest treecut jobs, where the tail rank falls).  Prefix sizes are large
# enough for every n used: a prefix that is too small makes mu_bruteforce
# return more than mu(n).
MU_CASES = (
    ("karytree:2", 127, (1, 2, 3)), ("karytree:3", 121, (1, 2, 3, 4, 5)),
    ("pathpower:1", 30, (2, 3, 4)), ("pathpower:2", 48, (2, 3)),
    ("pathpower:3", 72, (2, 3)), ("grid:2", 121, (2,)),
    ("grid:2", 121, (3,)), ("karytree:2", 127, (4,)), ("pathpower:1", 30, (5,)),
    ("pathpower:2", 48, (4,)),
    ("grid:2", 121, (4,) * 10),
    ("karytree:2", 127, (5, 6)), ("pathpower:1", 30, (6,)), ("pathpower:2", 48, (5, 6)),
    ("pathpower:3", 72, (4, 5)), ("grid:2", 121, (5,)),
)


def mu_job(k, spec, n, prefix, want, files, tag):
    argv = ["mu", "--family", spec, "--n", str(n), "--prefix-size", str(prefix),
            "--seed", str(k)]

    def check_doc(doc):
        return [] if doc["mu"] == want else [f"mu({spec}, {n}) = {doc['mu']} != {want}"]

    return cli_job("expansion.mu", argv, files.path(f"mu_{tag}.json"), check_doc)


def random_forest(rng, n):
    """Random recursive forest (each vertex joins a random earlier one with
    probability 0.85), its adjacency, and a maximal independent set built
    greedily in random order."""
    adj = [set() for _ in range(n)]
    edges = []
    for v in range(1, n):
        if rng.random() < 0.85:
            u = rng.randrange(v)
            edges.append((u, v))
            adj[u].add(v)
            adj[v].add(u)
    picked, taken = [], set()
    for v in rng.sample(range(n), n):
        if v not in taken:
            picked.append(v)
            taken.add(v)
            taken |= adj[v]
    return edges, adj, sorted(picked)


def nbhd_size(adj, S):
    S = set(S)
    return len(set().union(*(adj[v] for v in S)) - S)


def treecut_problems(I, adj, out, lam_prime, delta):
    if not out or not set(out) <= set(I):
        return ["output is empty or leaves I"]
    problems = []
    if len(out) > 2 / delta:
        problems.append("size bound fails")
    if nbhd_size(adj, out) > lam_prime * len(out):
        problems.append("expansion bound fails")
    return problems


def treecut_job(rng, n, files, tag, through_cli):
    edges, adj, I = random_forest(rng, n)
    lam = Fraction(nbhd_size(adj, I), len(I))
    lam_prime = lam + Fraction(1, 2)
    sweep = ("families.treecut", n)
    if through_cli:
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        path = files.write(f"forest_{tag}.txt", text)
        argv = ["treecut", "--forest", path, "--independent", ",".join(map(str, I)),
                "--lambda-prime", str(lam_prime)]

        def check_doc(doc):
            problems = [] if doc["postconditions_ok"] is True else ["postconditions_ok is false"]
            return problems + treecut_problems(I, adj, doc["I_prime"], lam_prime,
                                               Fraction(doc["delta"]))

        return cli_job("expansion.treecut_cli", argv, files.path(f"cut_{tag}.json"),
                       check_doc, sweep)

    forest = families.FiniteGraph(n, frozenset(edges))
    delta = families.default_treecut_delta(lam, lam_prime)

    def call():
        return families.treecut(forest, I, lam, lam_prime, delta)

    def check(out):
        return list(out), treecut_problems(I, adj, out, lam_prime, delta)

    return Job("expansion.treecut", call, check, sweep)


def small_factor_job(rng):
    """min_expansion and doubly_independent_sets on a small random graph,
    against enumeration of all vertex subsets."""
    n = rng.randint(6, 9)
    edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35)
    F = families.FiniteGraph(n, edges)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def independent(S):
        return all(v not in adj[u] for u, v in combinations(S, 2))

    indep = [S for k in range(1, n + 1) for S in combinations(range(n), k) if independent(S)]
    want_min = min(Fraction(nbhd_size(adj, S), len(S)) for S in indep)
    want_doubly = sorted((S for S in indep if independent(
        sorted(set().union(*(adj[v] for v in S)) - set(S)))), key=lambda S: (len(S), S))

    def call():
        return families.min_expansion(F), families.doubly_independent_sets(F)

    def check(raw):
        got_min, got_doubly = raw
        problems = []
        if got_min != want_min:
            problems.append(f"min_expansion {got_min} != {want_min}")
        if [tuple(S) for S in got_doubly] != want_doubly:
            problems.append("doubly independent sets differ from enumeration")
        return [str(got_min), [list(S) for S in got_doubly]], problems

    return Job("expansion.factor", call, check)


def expansion_pass(rng, files, stats, mix):
    """The median falls among the mu jobs on grid:2 at n = 4, whose cost
    does not depend on the seed, and the tail rank among the treecuts at the
    largest n and the largest mu jobs."""
    cases = [(spec, prefix, n) for spec, prefix, ns in mix["mu"] for n in ns]
    jobs = [mu_job(i, spec, n, prefix, closed_form(spec)(n), files, str(i))
            for i, (spec, prefix, n) in enumerate(cases)]
    for n, count, cli_count in mix["treecut"]:
        jobs += [treecut_job(rng, n, files, f"{n}_{i}", through_cli=i < cli_count)
                 for i in range(count)]
    jobs += [small_factor_job(rng) for _ in range(mix["factors"])]
    return jobs


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    mix: dict            # job counts and sizes of one pass
    smoke: dict          # minimal mix for the smoke test


LAMBDAS_ABOVE_HALF = tuple(lam for lam in LAMBDAS if lam != (1, 2))

WORKLOADS = {w.name: w for w in (
    Workload("adversary", adversary_pass,
             {"random": ((2000, LAMBDAS * 2),),
              "sawtooth": ((2000, LAMBDAS), (4000, LAMBDAS_ABOVE_HALF * 4), (8000, LAMBDAS)),
              "cli": ((4000, (2, 1)), (8000, (1, 1)))},
             {"random": ((100, LAMBDAS[:1]),), "sawtooth": ((200, LAMBDAS[:1]),),
              "cli": ((100, (1, 1)),)}),
    Workload("flow-sweep", flow_pass,
             {"findflow": ((32, 12), (64, 6), (128, 2)),
              "mfmc": ((100, 12), (200, 4), (400, 6)), "oracles": 8},
             {"findflow": ((8, 1),), "mfmc": ((10, 1),), "oracles": 1}),
    Workload("shade-embed", shade_pass,
             {"shade_n": ((250, 8), (500, 4), (1000, 2)), "explicit": 8,
              "explicit_n": (280, 320), "embeds": 16},
             {"shade_n": ((60, 1),), "explicit": 1, "explicit_n": (40, 50), "embeds": 1}),
    Workload("expansion", expansion_pass,
             {"mu": MU_CASES, "factors": 14,
              "treecut": ((500, 2, 1), (1000, 2, 1), (2000, 24, 2))},
             {"mu": MU_CASES[:2], "treecut": ((50, 2, 1),), "factors": 1}),
)}


def build_pass(name, seed, files, smoke=False):
    """The workload's job list for ``seed`` and its input statistics."""
    w = WORKLOADS[name]
    stats = PassStats()
    rng = random.Random(f"{name}:{seed}")
    jobs = w.build(rng, files, stats, w.smoke if smoke else w.mix)
    return jobs, stats
