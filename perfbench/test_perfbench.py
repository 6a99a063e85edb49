"""Tests of the benchmark itself: the trace arithmetic, the wrappers, and a
smoke run of every workload on its minimal job list."""

import contextlib
import io
import json
import math
import sys

import pytest

import run

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import jobs  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, covered_length, fit_exponent, layer_metrics, self_times  # noqa: E402

with open(run.SPEC, encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_covered_length_merges_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([], 0, 10) == 0
    assert covered_length([(-5, 2), (2, 3)], 0, 10) == 3


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        Span("colorings.adversary", 0.0, 10.0, -1, 0),
        Span("colorings.verify_adversary", 1.0, 4.0, 0, 0),
        Span("lipschitz.sup_ratio", 3.0, 6.0, 0, 0),    # overlaps its sibling
        Span("families.FiniteGraph.adjacency", 2.0, 3.0, 1, 0),
        Span("flows.mfmc", 20.0, 21.5, -1, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0, 1.5]
    values = layer_metrics(PER_LAYER, spans, {}, {})
    assert values["colorings.self_s"] == 7.0
    assert values["colorings.adversary.self_s"] == 5.0
    assert values["colorings.verify_adversary.calls"] == 1
    assert values["lipschitz.self_s"] == 3.0
    assert values["families.self_s"] == 1.0
    assert values["flows.mfmc.calls"] == 1
    assert values["flows.mfmc_per_findflow"] == 0.0
    assert "trace.overhead_frac" not in values      # run.py measures it


def test_self_time_and_calls_are_per_pass():
    one = [Span("flows.findflow", 0.0, 4.0, -1, 0), Span("flows.mfmc", 1.0, 2.0, 0, 0)]
    two = one + [Span(s.name, s.start + 10, s.end + 10, s.parent + 2 * (s.parent >= 0), 1)
                 for s in one]
    counts = {"colorings.TwoColoring.color": 5}
    assert layer_metrics(PER_LAYER, two, counts, {}, passes=2) \
        == layer_metrics(PER_LAYER, one, counts, {}, passes=1)


def test_two_traced_passes_give_the_calls_of_one(tmp_path):
    job_list, _ = jobs.build_pass("expansion", 3, jobs.Files(str(tmp_path)), smoke=True)
    calls = []
    for passes in (1, 2):
        with tracing.Tracer() as tracer:
            records, done = run.run_passes(job_list, 0, run.Clock(), tracer, passes=passes)
        assert done == passes and not any(r.problems for r in records)
        values = layer_metrics(PER_LAYER, tracer.spans, {}, {}, done)
        calls.append({m: v for m, v in values.items() if m.endswith(".calls")})
    assert calls[0] == calls[1]
    assert any(calls[0].values())


def test_fit_exponent_recovers_power_law():
    points = [(n, 3e-6 * n ** 2.5) for n in (100, 200, 400) for _ in range(3)]
    assert math.isclose(fit_exponent(points), 2.5)
    assert fit_exponent([(100, 1.0)]) == 0.0


def test_wrapped_nested_calls_and_restore():
    from ramseydensity import cli, colorings, lipschitz
    original = colorings.verify_adversary
    tracer = tracing.Tracer()
    with tracer:
        assert colorings.verify_adversary is not original
        assert cli.verify_adversary is colorings.verify_adversary
        inst = colorings.adversary(1, 1, lipschitz.PLFunction.zero(), 40)  # untraced: no job
        assert tracer.spans == []
        tracer.job = 7
        colorings.adversary(1, 1, lipschitz.PLFunction.zero(), 40)
        inst.coloring.color(0, 1)
        tracer.job = None
    assert colorings.verify_adversary is original and cli.verify_adversary is original
    names = [s.name for s in tracer.spans]
    assert names == ["colorings.adversary", "colorings.verify_adversary"]
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1 and {outer.job, inner.job} == {7}
    own = self_times(tracer.spans)
    assert math.isclose(own[0], (outer.end - outer.start) - (inner.end - inner.start))
    assert tracer.counts["colorings.TwoColoring.color"] == 1     # only while in a job


def test_counting_and_spanning_wrappers_are_separable():
    from ramseydensity import colorings, lipschitz
    with tracing.Tracer(counted=()) as spans_only:
        spans_only.job = 0
        inst = colorings.adversary(1, 1, lipschitz.PLFunction.zero(), 40)
        inst.coloring.color(0, 1)
    assert spans_only.counts == {} and spans_only.spans
    with tracing.Tracer(spanned=()) as counts_only:
        counts_only.job = 0
        colorings.adversary(1, 1, lipschitz.PLFunction.zero(), 40).coloring.color(0, 1)
    assert counts_only.spans == [] and counts_only.counts["colorings.TwoColoring.color"] == 1


def _smoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--smoke"])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_workload(workload):
    plain = _smoke(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    traced = _smoke(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == PER_LAYER
