"""Span tracing of ramseydensity's layers, wrapped from outside the library.

The traced benchmark run replaces selected public functions and methods of
the six layer modules with thin wrappers while it runs, and puts the
originals back afterwards; the library itself is never edited and the
untraced runs never see a wrapper.  A wrapper records a span (name, start,
end, parent, job id) or counts a call only while a job is running, so
building inputs and checking outputs stays out of the trace.  Functions
called millions of times are only counted, and in passes of their own: a
counting wrapper's cost would otherwise land in the self time of the spans
that call them.

Self time is a span's duration minus the union of its children's intervals;
a layer's self time is the sum over its spans.  Span times are scaled to the
reference speed with the factor of the job they belong to (see run.py).
Self times and calls are reported per pass of the workload's job list.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "ramseydensity"
LAYERS = ("lipschitz", "families", "colorings", "flows", "embedder", "cli")

# (module, attribute path, span name); every name starts with its layer.
SPANNED = (
    ("cli", "main", "cli.main"),
    ("lipschitz", "sup_ratio", "lipschitz.sup_ratio"),
    ("lipschitz", "sigma_g", "lipschitz.sigma_g"),
    ("lipschitz", "sigma_window", "lipschitz.sigma_window"),
    ("lipschitz", "candidate_window", "lipschitz.candidate_window"),
    ("colorings", "adversary", "colorings.adversary"),
    ("colorings", "verify_adversary", "colorings.verify_adversary"),
    ("colorings", "adversary_bound_chain", "colorings.adversary_bound_chain"),
    ("colorings", "a_good_shading", "colorings.a_good_shading"),
    ("colorings", "verify_shading", "colorings.verify_shading"),
    ("colorings", "clique_coloring", "colorings.clique_coloring"),
    ("colorings", "TwoColoring.neighbor_sets", "colorings.neighbor_sets"),
    ("colorings", "TwoColoring.from_text", "colorings.TwoColoring.from_text"),
    ("flows", "findflow", "flows.findflow"),
    ("flows", "mfmc", "flows.mfmc"),
    ("embedder", "build_W", "embedder.build_W"),
    ("embedder", "embed", "embedder.embed"),
    ("embedder", "verify_embedding", "embedder.verify_embedding"),
    ("embedder", "validate_w", "embedder.validate_w"),
    ("embedder", "HPrefixSpec.validate", "embedder.HPrefixSpec.validate"),
    ("embedder", "HPrefixSpec.omega_factor", "embedder.HPrefixSpec.omega_factor"),
    ("families", "mu_bruteforce", "families.mu_bruteforce"),
    ("families", "treecut", "families.treecut"),
    ("families", "min_expansion", "families.min_expansion"),
    ("families", "doubly_independent_sets", "families.doubly_independent_sets"),
    ("families", "parse_family", "families.parse_family"),
    ("families", "FiniteGraph.from_text", "families.FiniteGraph.from_text"),
    ("families", "FiniteGraph.adjacency", "families.FiniteGraph.adjacency"),
    ("families", "FiniteGraph.neighborhood", "families.FiniteGraph.neighborhood"),
    ("families", "GraphFamily.prefix", "families.GraphFamily.prefix"),
)

COUNTED = (
    ("lipschitz", "gamma_crossing", "lipschitz.gamma_crossing"),
    ("colorings", "TwoColoring.color", "colorings.TwoColoring.color"),
)

@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the parent span in the span list, -1 at top level
    job: int


class Tracer:
    """Context manager that installs span and count wrappers on the library
    and holds what they record.  ``job`` is the id of the running job, or
    None between jobs.  ``spanned`` and ``counted`` select the wrappers, as
    tuples like SPANNED and COUNTED."""

    def __init__(self, spanned=SPANNED, counted=COUNTED):
        self.spanned, self.counted = spanned, counted
        self.spans = []
        self.job = None
        self._stack = []
        self._restore = []
        self._cells = {}

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = Span(name, clock(), math.nan, stack[-1] if stack else -1, self.job)
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, name, fn):
        cell = [0]
        self._cells[name] = cell

        def counted(*args, **kwargs):
            if self.job is not None:
                cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module_name, path, make):
        modules = {n: m for n, m in sys.modules.items()
                   if n == PACKAGE or n.startswith(PACKAGE + ".")}
        owner = modules[f"{PACKAGE}.{module_name}"]
        *classes, attr = path.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        if classes:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        # a module-level function is patched in every module that imported it
        raw = getattr(owner, attr)
        new = make(raw)
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._restore.append((module, key, raw))
                    setattr(module, key, new)

    @property
    def counts(self):
        """Calls of each counted function while the wrappers were installed."""
        return {name: cell[0] for name, cell in self._cells.items()}

    def __enter__(self):
        for module_name, path, name in self.spanned:
            self._patch(module_name, path, lambda fn, n=name: self._span_wrapper(n, fn))
        for module_name, path, name in self.counted:
            self._patch(module_name, path, lambda fn, n=name: self._count_wrapper(n, fn))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)
        return False


def covered_length(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def fit_exponent(points):
    """Least-squares slope of log(time) against log(n) over (n, time) pairs,
    one median time per distinct n; 0.0 when fewer than two sizes were run."""
    by_n = defaultdict(list)
    for n, t in points:
        if n > 0 and t > 0:
            by_n[n].append(t)
    if len(by_n) < 2:
        return 0.0
    xs = [math.log(n) for n in sorted(by_n)]
    ys = [math.log(statistics.median(by_n[n])) for n in sorted(by_n)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def layer_metrics(names, spans, counts, sweeps, passes=1, scale=None):
    """Values of the per-layer metrics ``names`` from one traced run.

    ``spans`` come from ``passes`` passes of the job list, and self times
    and span calls are divided by ``passes``; ``counts`` are calls in one
    pass.  ``sweeps`` maps job id to (swept function name, n) for jobs on a
    doubling sweep; a function's time in a job is the summed duration of its
    outermost spans there.  ``scale`` maps job id to the factor that scales
    that job's times to the reference speed (1 when absent).  A name is
    ``<span or layer>.self_s``, ``<span or counter>.calls``,
    ``<span>.exponent`` or ``flows.mfmc_per_findflow``; other names are
    left out.
    """
    scale = scale or {}
    own = self_times(spans)
    self_by_name = defaultdict(float)
    calls = Counter()
    for span, t in zip(spans, own):
        self_by_name[span.name] += t * scale.get(span.job, 1.0) / passes
        calls[span.name] += 1
    per_pass = {name: c / passes for name, c in calls.items()}
    per_pass.update(counts)

    per_job = defaultdict(float)
    for i, span in enumerate(spans):
        if span.job in sweeps and sweeps[span.job][0] == span.name \
                and not _has_ancestor(spans, i, span.name):
            per_job[span.job] += (span.end - span.start) * scale.get(span.job, 1.0)
    points = defaultdict(list)
    for job, (name, n) in sweeps.items():
        if job in per_job:
            points[name].append((n, per_job[job]))

    nested_mfmc = sum(1 for i, s in enumerate(spans)
                      if s.name == "flows.mfmc" and _has_ancestor(spans, i, "flows.findflow"))

    out = {}
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if kind == "self_s":
            if base in LAYERS:
                out[metric] = sum((t for name, t in self_by_name.items()
                                   if name.split(".", 1)[0] == base), 0.0)
            else:
                out[metric] = self_by_name.get(base, 0.0)
        elif kind == "calls":
            out[metric] = per_pass.get(base, 0)
        elif kind == "exponent":
            out[metric] = fit_exponent(points.get(base, ()))
    if "flows.mfmc_per_findflow" in names:
        findflows = calls["flows.findflow"]
        out["flows.mfmc_per_findflow"] = nested_mfmc / findflows if findflows else 0.0
    return out
