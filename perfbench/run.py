"""Benchmark for ramseydensity: seeded, oracle-checked job streams.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the library is imported from ``src/``).  One
process, one thread, a closed loop with a single client: each job starts
when the previous one has been checked.  The workload's job list (one pass,
built from the seed; see jobs.py) is run pass after pass until S seconds of
job wall time have been spent, always finishing the pass in progress.

Times are scaled to a reference speed.  The machine this benchmark was
defined on is shared, and how fast it runs Python drifts by up to 1.8x over
seconds to minutes, with CPU time drifting with wall time (the process is
slowed, not descheduled).  So a fixed reference loop is timed before and
after every job, and every PROBE_INTERVAL seconds during it (from a SIGALRM
handler, whose time is taken out of the job's); the job's time is
multiplied by REF_SECONDS / (the mean reference time): its time had the
machine run at the speed where the loop takes REF_SECONDS, which is about
its time on an unloaded core there.  Raw wall-clock figures are printed too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the passes
that fit in S/2 seconds with spans around every layer's public functions
(see tracing.py), one pass that only counts the calls of the hottest
functions, then as many passes as were spanned unwrapped, and prints the
per-layer metrics (per pass) plus the tracing overhead; its spans go to
``.perfbench/spans-<workload>-<seed>.jsonl``.  The metric names and units
are those ``BENCHMARK.json`` lists.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

REF_SECONDS = 0.002           # reference loop time at the reference speed
REF_LOOPS = 12000             # iterations of the loop around each job
PROBE_LOOPS = 3000            # iterations of the loop inside a job
PROBE_INTERVAL = 0.05
SETUP_RUNS = 30


def reference_loop(loops):
    """Seconds per iteration of a fixed piece of interpreter work (dict,
    set and integer operations)."""
    t0 = time.perf_counter()
    seen, table, acc = set(), {}, 0
    for i in range(loops):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        if key in seen:
            acc += key
        else:
            seen.add(key)
    return (time.perf_counter() - t0) / loops


class Clock:
    """Times calls and scales them to the reference speed."""

    def __init__(self):
        self.before = reference_loop(REF_LOOPS)
        self.during = []
        self.paused = 0.0

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        self.during.append(reference_loop(PROBE_LOOPS))
        self.paused += time.perf_counter() - t0

    def measure(self, call):
        """Run ``call()``; return (result, error text or None, raw seconds,
        scaled seconds)."""
        self.during, self.paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        t0 = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:          # a raising job is a failed job
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - self.paused
        after = reference_loop(REF_LOOPS)
        speed = statistics.fmean([self.before, *self.during, after])
        self.before = after
        return result, error, raw, raw * REF_SECONDS / (REF_LOOPS * speed)


# Run by a fresh interpreter: it times its own import of ramseydensity and
# building the parser, between two runs of the reference loop (it may run on
# the other core).  It imports nothing else first, so that no module the
# library needs is loaded before the clock starts.
SETUP_CODE = f"""import time
{inspect.getsource(reference_loop)}
before = reference_loop({REF_LOOPS})
t0 = time.perf_counter()
import ramseydensity.cli
ramseydensity.cli.build_parser()
seconds = time.perf_counter() - t0
print(seconds, (before + reference_loop({REF_LOOPS})) / 2)
"""


def measure_setup():
    """Median over SETUP_RUNS fresh interpreters of the time to import
    ramseydensity and build the CLI parser, after one unmeasured run that
    writes bytecode.  Returns the scaled and the raw median."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", SETUP_CODE]
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                             text=True).stdout
        seconds, speed = map(float, out.split())
        if i:
            raw.append(seconds)
            scaled.append(seconds * REF_SECONDS / (REF_LOOPS * speed))
    return statistics.median(scaled), statistics.median(raw)


def payload_digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Record:
    job: object
    raw: float          # wall seconds, probes excluded
    scaled: float       # seconds at the reference speed
    problems: list
    digest: str | None


def run_job(job, job_id, clock, tracer):
    """Time ``job.call`` (traced under ``job_id`` when a tracer is given),
    then check its result outside the timed region."""
    if tracer is not None:
        tracer.job = job_id
    result, error, seconds, scaled = clock.measure(job.call)
    if tracer is not None:
        tracer.job = None
    if error is not None:
        return Record(job, seconds, scaled, [error], None)
    try:
        payload, problems = job.check(result)
    except Exception as exc:          # a malformed result fails its job
        return Record(job, seconds, scaled, [f"check raised {type(exc).__name__}: {exc}"], None)
    return Record(job, seconds, scaled, problems, payload_digest(payload))


def run_passes(jobs, seconds, clock, tracer=None, passes=None):
    """Closed loop over the pass: stop after ``passes`` passes, or once
    ``seconds`` of job wall time are spent (finishing the pass in progress)."""
    records = []
    busy = 0.0
    done = 0
    while (done < passes) if passes is not None else (done == 0 or busy < seconds):
        for job in jobs:
            rec = run_job(job, len(records), clock, tracer)
            busy += rec.raw
            records.append(rec)
        done += 1
    return records, done


def job_medians(records, per_pass, attr):
    """Each job's median time over the passes run."""
    return [statistics.median(getattr(r, attr) for r in records[j::per_pass])
            for j in range(per_pass)]


def tail(times):
    """The highest percentile with at least ten samples beyond it (the
    maximum for ten samples or fewer); returns (value, percentile)."""
    ordered = sorted(times)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(records, per_pass, attr):
    """jobs_per_s, job_p50_s and job_tail_s (with its percentile) from each
    job's median time over the passes; a job counts as verified only if it
    passed every check in every pass."""
    times = job_medians(records, per_pass, attr)
    verified = sum(1 for j in range(per_pass)
                   if not any(r.problems for r in records[j::per_pass]))
    tail_value, tail_pct = tail(times)
    return verified / sum(times), statistics.median(times), tail_value, tail_pct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal job list (the smallest sizes, one job of each kind)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ramseydensity", "__init__.py")):
        print(f"error: no ramseydensity sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import jobs as jobs_mod
    import tracing
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.workload not in jobs_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobs_mod.WORKLOADS)}", file=sys.stderr)
        return 2

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_1m": os.getloadavg()[0], "seed": args.seed,
           "workload": args.workload, "trace": args.trace}
    print("env " + json.dumps(env, sort_keys=True))
    clock = Clock()
    if args.trace == 0:
        setup_s, setup_raw = measure_setup()

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    files = jobs_mod.Files(workdir)
    try:
        job_list, stats = jobs_mod.build_pass(args.workload, args.seed, files, args.smoke)
        if args.trace:
            with tracing.Tracer(counted=()) as tracer:
                traced, passes = run_passes(job_list, args.seconds / 2, clock, tracer)
            with tracing.Tracer(spanned=()) as counter:
                counted, _ = run_passes(job_list, 0, clock, counter, passes=1)
            plain, _ = run_passes(job_list, 0, clock, passes=passes)
            records = traced + counted + plain
        else:
            records, passes = run_passes(job_list, args.seconds, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_pass = len(job_list)
    failed = [r for r in records if r.problems]
    digest = hashlib.sha256("".join(r.digest or "-" for r in records[:per_pass]).encode())
    print(f"workload {args.workload} seed {args.seed}: {passes} pass(es) of {per_pass} jobs, "
          f"{len(records)} attempted, {len(failed)} failed")
    print(f"fail_frac {len(failed) / len(records):.6g}")
    if stats.candidates_drawn:
        print(f"candidates rejected by the span rule: {stats.candidates_rejected} of "
              f"{stats.candidates_drawn} ({stats.candidates_rejected / stats.candidates_drawn:.3f})")
    print(f"digest {args.workload} {digest.hexdigest()[:16]} (first pass, meta excluded)")
    for rec in failed[:5]:
        print(f"FAILED {rec.job.kind}: {'; '.join(map(str, rec.problems))[:300]}")

    if args.trace:
        sweeps = {i: rec.job.sweep for i, rec in enumerate(traced) if rec.job.sweep}
        scale = {i: rec.scaled / rec.raw for i, rec in enumerate(traced) if rec.raw > 0}
        values = tracing.layer_metrics(units, tracer.spans, counter.counts, sweeps, passes,
                                       scale)
        values["trace.overhead_frac"] = (sum(r.scaled for r in traced)
                                         / sum(r.scaled for r in plain) - 1)
        os.makedirs(WORK, exist_ok=True)
        with open(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"), "w",
                  encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job]) + "\n")
    else:
        jobs_per_s, p50, tail_value, tail_pct = end_to_end(records, per_pass, "scaled")
        raw = end_to_end(records, per_pass, "raw")
        values = {
            "jobs_per_s": jobs_per_s,
            "job_p50_s": p50,
            "job_tail_s": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        print(f"job_tail_s is the p{tail_pct:.1f} of {per_pass} job times, each the "
              f"median of {passes} pass(es)")
        print(f"raw wall clock: jobs_per_s {raw[0]:.6g} job_p50_s {raw[1]:.6g} "
              f"job_tail_s {raw[2]:.6g} setup_s {setup_raw:.6g}")

    metrics = {}
    for name, unit in units.items():
        print(f"metric {name} {values[name]!r} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
