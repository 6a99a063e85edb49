"""Command-line surface: reproducible CSV/JSON artifacts for every subsystem.

Every artifact embeds the command, the full configuration, the seed and the
library version; identical configuration and seed produce byte-identical
files.  Numeric output is printed with 9 significant digits.  The RDL_SEED
environment variable overrides the --seed flag.

Exit codes: 0 success, 1 usage error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from itertools import chain

from . import __version__
from .errors import VerificationError, edge_list_header, edge_list_rows, fields, shown

# Each command imports the library modules it calls when it runs, so that
# starting rdl and building its parser load none of them.

NINE = "{:.9g}"
FIG1_MAX_STEPS = 10 ** 6  # rdl fig1 writes one row per step, plus x = 0
# rdl mu work bounds, checked before anything is built, the same whichever
# path runs.  When the edges with an end in the boundary-interior pool form a
# forest, the tree DP of families.mu_forest takes about prefix * n**2 steps
# and holds arrays of at most n + 1 entries; otherwise mu_bruteforce's search
# recurses once per vertex of I and holds two masks per candidate, about
# prefix**2 / 8 bytes in all.  The family lists prefix * degree neighbours,
# about 70 bytes each; a grid:d builds every point of the box that holds its
# prefix's neighbours, about 280 bytes each.
MU_MAX_N = 64
MU_MAX_PREFIX = 10 ** 4
MU_MAX_NEIGHBORS = 2 * 10 ** 5
MU_MAX_GRID_POINTS = 10 ** 5
EMBED_MAX_HOST = 10 ** 4  # the planted host's masks take about host**2 / 16 bytes
# The pattern rdl embed builds has copies * (r + s) vertices and
# copies * r * s edges, up to about 1 KB each, and its backbone search scans
# the host once per piece, for up to copies / 2 pieces.
EMBED_MAX_PATTERN_VERTICES = 15 * 10 ** 3
EMBED_MAX_PATTERN_EDGES = 2 * 10 ** 4
EMBED_MAX_COPIES_HOST = 8 * 10 ** 6  # copies * host size
# The other commands' size bounds, checked the same way.  A modular or
# explicit coloring of n vertices holds n masks of n bits, and rdl shade
# builds two more lists of them; rdl mfmc, treecut and adversary hold a few
# hundred bytes per vertex.  At each bound a run peaks under 50 MB (Python
# 3.11; the import alone takes about 17 MB), except on an explicit coloring
# file, whose colour line holds n**2 / 2 characters.
COLORING_MAX_N = 10 ** 4  # a coloring file's n, and rdl shade --n
MFMC_MAX_VERTICES = 10 ** 4  # nx + ny
GRAPH_MAX_N = 10 ** 4  # a graph file's n: a forest, or an omega: or explicit: family
ADVERSARY_MAX_N = 5 * 10 ** 4
# rdl shade shades in up to 2a - 3 rounds over all n vertices, about 10 ms a
# round at n = 10**4, and its verifier draws --sample-size subsets of at most
# min(--subset-cap, n) vertices for each of up to four cases per class i < a.
SHADE_MAX_A = 64
SHADE_MAX_SAMPLE_WORK = 4 * 10 ** 5  # 4 (a - 1) * sample size * min(subset cap, n)


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, Fraction):
        x = float(x)
    return NINE.format(x)


def _seed_of(args):
    env = os.environ.get("RDL_SEED")
    return int(env) if env is not None else args.seed


def _meta(args, command):
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out") and v is not None}
    config["seed"] = _seed_of(args)
    return {"command": command, "config": {k: str(v) for k, v in config.items()},
            "seed": _seed_of(args), "version": __version__}


def _emit(path, text):
    """Write an artifact to path, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, meta, header, rows):
    lines = [f"# command: {meta['command']}",
             f"# config: {json.dumps(meta['config'], sort_keys=True)}",
             f"# seed: {meta['seed']}",
             f"# version: {meta['version']}",
             ",".join(header)]
    lines += [",".join(row) for row in rows]
    _emit(path, "\n".join(lines) + "\n")


_KEY = json.encoder.encode_basestring_ascii


def _flat(values):
    """Whether no value is a dict, list or tuple."""
    return not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values)))


def _indented(obj, nl):
    """json.dumps(obj, indent=2, sort_keys=True) for a document with str keys
    placed after the newline-and-indent nl.  json's C encoder runs only when
    indent is not set, so a flat list or dict is one C call with item
    separator ',' + the next level's nl, and a list of non-empty flat rows
    one call at its items' level, split where '],' + newline ends a row (an
    encoded string holds no raw newline)."""
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if _flat(obj.values()):
            body = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))[1:-1]
        else:
            body = ("," + inner).join(f"{_KEY(k)}: {_indented(v, inner)}"
                                      for k, v in sorted(obj.items()))
        return "{" + inner + body + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _flat(obj):
            body = json.dumps(obj, separators=("," + inner, ": "))[1:-1]
        elif (all(issubclass(t, (list, tuple)) for t in set(map(type, obj))) and all(obj)
              and _flat(chain.from_iterable(obj))):
            row = inner + "  "
            body = "[" + row + json.dumps(obj, separators=("," + row, ": "))[2:-2].replace(
                "]," + row + "[", inner + "]," + inner + "[" + row) + inner + "]"
        else:
            body = ("," + inner).join(_indented(v, inner) for v in obj)
        return "[" + inner + body + nl + "]"
    # the conversions json.dumps makes, without its per-call set-up
    if type(obj) is str:
        return _KEY(obj)
    if type(obj) is int:  # not bool, which is written true or false
        return int.__repr__(obj)
    return json.dumps(obj)


def _write_json(path, meta, payload):
    _emit(path, _indented({"meta": meta, **payload}, "\n") + "\n")


def _check_bound(name, value, limit):
    """Reject a size beyond its work bound, before anything is built."""
    if value > limit:
        raise ValueError(f"{name} {value} is too large: at most {limit}")


def _check_least(option, value, least):
    """Reject a size below its least value, naming the option."""
    if value < least:
        raise ValueError(f"{option} must be at least {least}, got {value}")


_NONBLANK = re.compile(r"\S")
_LINE_BREAK = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")  # str.splitlines'


def _first_line(text):
    """(k, line): text's first nonblank line and its number in
    text.splitlines(), counted from 1, or (0, '') for blank text.  Only the
    blank text before it is split, so a large file is not copied."""
    found = _NONBLANK.search(text)
    if found is None:
        return 0, ""
    start = found.start()
    lead = (text[:start] + "x").splitlines()  # "x" stands for the rest of the line
    end = _LINE_BREAK.search(text, start)
    return len(lead), lead[-1][:-1] + text[start:end.start() if end else len(text)]


def _read_sized(path, where, shape, kinds, limit, name):
    """The text of an input file and the fields of its first nonblank line
    (None for a blank file), once the size they open with is within limit;
    the line is read as its parser reads it (``where`` may hold its number
    as {k})."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    k, head = _first_line(text)
    if not head:
        return text, None
    sizes = fields(where.format(k=k), head, shape, *kinds)
    _check_bound(name, sizes[0], limit)
    return text, sizes


def _coloring_text(path):
    """The text of a coloring file and its header's n and rule (None for a
    blank file), once n is within COLORING_MAX_N."""
    return _read_sized(path, "header", "<n> <rule>", (int, str), COLORING_MAX_N,
                       "the coloring's n =")


def _graph_text(path):
    """The text of a graph file, once its n is within GRAPH_MAX_N."""
    return _read_sized(path, "line {k}", "n m", (int, int), GRAPH_MAX_N, "the graph's n =")[0]


def _fraction(name, text):
    """Fraction(text), the value of option ``name``; text that is no
    fraction, or has a zero denominator, is reported naming the option."""
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"{name} {shown(text)!r} is not a fraction") from None
    except ZeroDivisionError:
        raise ValueError(f"{name} has a zero denominator in {shown(text)!r}") from None


def _number(text, kind=float):
    """kind(text), rejecting text that is no number and numbers that are not finite."""
    try:
        x = kind(text)
    except ValueError:
        raise ValueError(f"{shown(text)!r} is not {'an integer' if kind is int else 'a number'}") \
            from None
    if not math.isfinite(x):
        raise ValueError(f"{shown(text)} is not a finite number")
    return x


def _parse_pl(spec_text):
    """zero | linear:slope | sigma:lambda:periods | file:<path with 'x y' rows>;
    every ValueError it raises names the spec, and a file's names the row."""
    from .lipschitz import GammaParam, PLFunction, sigma_g
    kind, _, rest = spec_text.partition(":")
    try:
        if kind == "zero":
            return PLFunction.zero()
        if kind == "linear":
            return PLFunction.linear(_number(rest))
        if kind == "sigma":
            lam_s, _, periods_s = rest.partition(":")
            return sigma_g(GammaParam.from_lambda(_number(lam_s)),
                           _number(periods_s, int) if periods_s else 8)
        if kind == "file":
            with open(rest, encoding="utf-8") as fh:
                pts = [fields(f"row {k}", line, "x y", _number, _number)
                       for k, line in enumerate(fh.read().splitlines(), start=1)
                       if line.strip()]
            if not pts:
                raise ValueError("the file has no 'x y' rows")
            return PLFunction.from_points(pts)
    except ValueError as exc:
        raise ValueError(f"--g {spec_text}: {exc}") from None
    raise ValueError(f"unknown function spec {spec_text!r}")


def cmd_f_eval(args):
    from .lipschitz import f_closed
    try:
        lam = float(args.lam)
    except ValueError:
        raise ValueError(f"--lambda {shown(args.lam)!r} is not a number") from None
    try:
        b = f_closed(lam)
    except ValueError as exc:
        raise ValueError(f"--lambda {shown(args.lam)!r}: {exc}") from None
    meta = _meta(args, "f-eval")
    rows = [[_fmt(lam), _fmt(b.lower), _fmt(b.upper), _fmt(b.exact)]]
    _write_csv(args.out, meta, ["lambda", "lower", "upper", "exact"], rows)
    return 0


def cmd_fig1(args):
    from .lipschitz import f_closed
    if not (args.step > 0 and math.isfinite(args.step)):
        raise ValueError(f"--step must be positive and finite, got {args.step!r}")
    if 3.0 / args.step > FIG1_MAX_STEPS + 0.5:  # round(3/step) > FIG1_MAX_STEPS, inf included
        raise ValueError(f"--step {args.step!r} is too small: [0, 3] would take more than "
                         f"{FIG1_MAX_STEPS} steps; use a step of at least {3 / FIG1_MAX_STEPS:g}")
    meta = _meta(args, "fig1")
    rows = []
    steps = int(round(3.0 / args.step))
    for k in range(steps + 1):
        x = k * args.step
        b = f_closed(x)
        rows.append([_fmt(x), _fmt(b.lower), _fmt(b.upper), _fmt(b.exact)])
    _write_csv(args.out, meta, ["x", "lower", "upper", "exact"], rows)
    return 0


def cmd_mu(args):
    from .families import Grid, PrefixTooSmallError, grid_box, mu, parse_family
    _check_least("--n", args.n, 1)
    _check_least("--prefix-size", args.prefix_size, 1)
    kind, _, path = args.family.partition(":")
    if kind.lower() in ("omega", "explicit"):
        _graph_text(path)  # parse_family reads the file again, within the bound
    fam = parse_family(args.family)
    size = args.prefix_size if fam.finite_size is None else min(args.prefix_size,
                                                                  fam.finite_size)
    _check_bound("--n", args.n, MU_MAX_N)
    _check_bound("--prefix-size", size, MU_MAX_PREFIX)
    if size * fam.degree > MU_MAX_NEIGHBORS:
        raise ValueError(f"{args.family} at --prefix-size {size} would list "
                         f"{size * fam.degree} neighbours: at most {MU_MAX_NEIGHBORS}")
    if isinstance(fam, Grid) and grid_box(fam.d, size) > MU_MAX_GRID_POINTS:
        raise ValueError(f"{args.family} at --prefix-size {size} would build "
                         f"{grid_box(fam.d, size)} points: at most {MU_MAX_GRID_POINTS}")
    try:
        value = mu(fam, args.n, args.prefix_size)
    except PrefixTooSmallError as exc:
        raise ValueError(f"--prefix-size must be at least large enough to hold --n {args.n} "
                         f"independent boundary-interior vertices, got {args.prefix_size}: "
                         f"{exc}") from None
    meta = _meta(args, "mu")
    _write_json(args.out, meta, {"family": args.family, "n": args.n,
                                 "prefix_size": args.prefix_size, "mu": value})
    print(value)
    return 0


def cmd_adversary(args):
    from .colorings import adversary
    _check_least("--s", args.s, 1)
    _check_least("--r", args.r, 1)
    _check_least("--n", args.n, 4)
    _check_bound("--n", args.n, ADVERSARY_MAX_N)
    g = _parse_pl(args.g)
    inst = adversary(args.s, args.r, g, args.n)  # raises on any violated invariant
    meta = _meta(args, "adversary")
    _write_json(args.out, meta, {
        "s": args.s, "r": args.r, "n": args.n,
        "colors": "".join(inst.vertex_colors),
        "alpha": list(inst.alpha), "beta": list(inst.beta),
        "phi": list(inst.phi),
        "invariants_ok": True,
        "violations": [],
    })
    return 0


def cmd_mfmc(args):
    from .flows import CapacitatedBipartite, mfmc
    _check_least("--r", args.r, 1)
    _check_least("--s", args.s, 1)
    with open(args.graph, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k, (nx, ny, m) = edge_list_header(lines, "nx ny m")
    _check_bound("nx + ny =", nx + ny, MFMC_MAX_VERTICES)
    edges = edge_list_rows(lines, k, m, "i j",
                           lambda i, j: (i, nx + j) if 0 <= i < nx and 0 <= j < ny else None,
                           f"0 <= i < {nx} and 0 <= j < {ny}")
    G = CapacitatedBipartite(tuple(range(nx)), tuple(range(nx, nx + ny)),
                             edges, args.r, args.s)
    cert = mfmc(G)
    meta = _meta(args, "mfmc")
    _write_json(args.out, meta, cert.to_json_dict())
    return 0


def cmd_findflow(args):
    from .colorings import TwoColoring
    from .flows import findflow
    _check_least("--r", args.r, 1)
    _check_least("--s", args.s, 1)
    text, head = _coloring_text(args.coloring)
    if head and head[1] != "leftmost":  # only a leftmost file lists vertex colors
        raise ValueError("findflow needs vertex colors")
    res = findflow(TwoColoring.from_text(text), args.r, args.s)
    meta = _meta(args, "findflow")
    _write_json(args.out, meta, {
        "t": res.t, "color": res.color, "value": _fmt(res.value),
        "h": [[u, v, f] for (u, v), f in res.h]})
    return 0


def cmd_shade(args):
    from .colorings import (TwoColoring, a_good_shading, clique_coloring, modulus_of,
                            verify_shading)
    modular = args.coloring.startswith("modular:")
    if modular:
        modulus = modulus_of(args.coloring, f"--coloring {args.coloring}")
        _check_least("--n", args.n, 1)
        _check_bound("--n", args.n, COLORING_MAX_N)
        n = args.n
    else:
        text, head = _coloring_text(args.coloring)
        n = head[0] if head else 0
        args.n = None  # the file sets n, so the artifact's config records no --n
    _check_least("--a", args.a, 2)
    _check_least("--min-count", args.min_count, 1)
    _check_least("--sample-size", args.sample_size, 1)
    _check_least("--subset-cap", args.subset_cap, 1)
    _check_bound("--a", args.a, SHADE_MAX_A)
    _check_bound("the sampling work 4 (a - 1) * sample size * min(subset cap, n) =",
                 4 * (args.a - 1) * args.sample_size * min(args.subset_cap, n),
                 SHADE_MAX_SAMPLE_WORK)
    chi = clique_coloring(modulus, n) if modular else TwoColoring.from_text(text)
    sh = a_good_shading(chi, args.a, args.min_count)
    report = verify_shading(chi, sh, args.sample_size, args.subset_cap, _seed_of(args))
    meta = _meta(args, "shade")
    _write_json(args.out, meta, {
        "a": args.a,
        "assignment": ["".join(map(str, s)) for s in sh.assignment],
        "residual_size": len(sh.residual()),
        "verify_min_count": report.min_count_found,
        "verify_samples": report.samples,
        "verify_passed": report.passed,
    })
    return 0 if report.passed else 2


def _planted_host(n):
    """The coloring ``rdl embed`` plants: an edge is blue iff both ends lie in
    the left class 0..n//2-1.  A left vertex's red neighbours are the right
    class and a right vertex's are all other vertices, so the red-neighbour
    masks are built directly, without a set of red pairs."""
    from .colorings import TwoColoring
    half = n // 2
    full = (1 << n) - 1
    right = full ^ ((1 << half) - 1)
    return TwoColoring._from_masks(n, [right] * half + [full ^ (1 << v) for v in range(half, n)])


def cmd_embed(args):
    from .colorings import Shading
    from .embedder import HPrefixSpec, build_W, embed, verify_embedding
    from .families import complete_bipartite
    for option, value, least in (("--host-size", args.host_size, 1), ("--copies", args.copies, 1),
                                 ("--r", args.r, 1), ("--s", args.s, 1), ("--budget", args.budget, 0)):
        _check_least(option, value, least)
    n = args.host_size
    _check_bound("--host-size", n, EMBED_MAX_HOST)
    _check_bound("the pattern's vertices --copies * (--r + --s) =",
                 args.copies * (args.r + args.s), EMBED_MAX_PATTERN_VERTICES)
    _check_bound("the pattern's edges --copies * --r * --s =",
                 args.copies * args.r * args.s, EMBED_MAX_PATTERN_EDGES)
    _check_bound("--copies * --host-size =", args.copies * n, EMBED_MAX_COPIES_HOST)
    chi = _planted_host(n)
    assignment = tuple(("B", 1) if v < n // 2 else ("R", 1) for v in range(n))
    sh = Shading(a=2, assignment=assignment, min_count=2)
    spec = HPrefixSpec.omega_factor(complete_bipartite(args.r, args.s),
                                    args.copies, tuple(range(args.r)))
    W = build_W(chi, sh, args.r, args.s, max_pieces=max(1, args.copies // 2))
    state = embed(chi, sh, W, spec, budget=args.budget)
    report = verify_embedding(state, chi, spec, W)
    meta = _meta(args, "embed")
    payload = state.to_json_dict()
    payload["verify_passed"] = report.passed
    payload["failures"] = list(report.failures)
    if report.density is not None:
        payload["density"] = _fmt(report.density.max_ratio)
    _write_json(args.out, meta, payload)
    return 0 if report.passed else 2


def cmd_treecut(args):
    from .families import FiniteGraph, default_treecut_delta, treecut
    forest = FiniteGraph.from_text(_graph_text(args.forest))
    try:
        I = tuple(int(x) for x in args.independent.split(","))
    except ValueError:
        raise ValueError(f"--independent {shown(args.independent)!r} is not a comma-separated "
                         "list of vertex ids") from None
    if len(set(I)) != len(I):
        raise ValueError("--independent lists a vertex twice")
    # treecut builds the one adjacency the job needs; N(S) is read off the edges
    lam = Fraction(len(forest.neighborhood(I)), len(I))
    lam_prime = _fraction("--lambda-prime", args.lam_prime)
    delta = (_fraction("--delta", args.delta) if args.delta
             else default_treecut_delta(lam, lam_prime))
    result = treecut(forest, I, lam, lam_prime, delta)  # raises on a failed postcondition
    try:
        size_bound = _fmt(2 / delta)
    except OverflowError:
        raise ValueError("delta is too small: the size bound 2/delta does not fit "
                         "in a float") from None
    meta = _meta(args, "treecut")
    _write_json(args.out, meta, {
        "I_prime": list(result),
        "neighborhood_size": len(forest.neighborhood(result)),
        "size_bound": size_bound,
        "delta": str(delta),
        "postconditions_ok": True,
    })
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ValueError, so that main prints one
    error line and exits 1; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser():
    """The rdl parser, built on the first call; parse_args leaves it unchanged."""
    ap = _Parser(prog="rdl", description=__doc__)
    sub = ap.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="artifact path (default stdout)")

    p = sub.add_parser("f-eval", help="closed-form bounds for f at one point")
    p.add_argument("--lambda", dest="lam", required=True)
    common(p)
    p.set_defaults(func=cmd_f_eval)

    p = sub.add_parser("fig1", help="CSV of f bounds over [0, 3]")
    p.add_argument("--step", type=float, default=0.01)
    common(p)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("mu", help="exact expansion profile value")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prefix-size", dest="prefix_size", type=int, default=64)
    common(p)
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("adversary", help="left-to-right adversarial coloring")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", default="zero")
    common(p)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("mfmc", help="max flow / weighted cover certificate")
    p.add_argument("--graph", required=True, help="file: 'nx ny m' then edge rows 'i j'")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_mfmc)

    p = sub.add_parser("findflow",
                       help="whole-host maximum of the flow ratio, reached at t = 1")
    p.add_argument("--coloring", required=True, help="coloring file (leftmost rule)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_findflow)

    p = sub.add_parser("shade", help="shade assignment plus sampling verification")
    p.add_argument("--coloring", required=True, help="'modular:a' or a coloring file")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--min-count", dest="min_count", type=int, default=5)
    p.add_argument("--sample-size", dest="sample_size", type=int, default=20)
    p.add_argument("--subset-cap", dest="subset_cap", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_shade)

    p = sub.add_parser("embed", help="run the embedding on a planted two-class host")
    p.add_argument("--host-size", dest="host_size", type=int, default=40)
    p.add_argument("--copies", type=int, default=4)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--budget", type=int, default=500)
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("treecut", help="bounded-size low-expansion subset in a forest")
    p.add_argument("--forest", required=True, help="edge-list file")
    p.add_argument("--independent", required=True, help="comma-separated vertex ids")
    p.add_argument("--lambda-prime", dest="lam_prime", required=True)
    p.add_argument("--delta", default=None)
    common(p)
    p.set_defaults(func=cmd_treecut)

    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if not getattr(args, "func", None):
            raise ValueError("no subcommand given")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 2


def __getattr__(name):
    # adversary() runs verify_adversary and raises on any violation, so no
    # command calls it again; it stays readable from this module
    if name == "verify_adversary":
        from .colorings import verify_adversary
        return verify_adversary
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
