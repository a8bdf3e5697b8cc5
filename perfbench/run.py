#!/usr/bin/env python3
"""Benchmark of qorbits.

    python3 perfbench/run.py --workload {scan,curvature,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program under test is the
checkout's src/qorbits (nothing is installed).  One client drives the
workload in a closed loop in this process, with BLAS threads pinned to 1.
Every output that is timed is also checked (see workloads.py); an operation
fails if it raises or if its output fails a check.

--trace 0 repeats the workload's cycle of operations for --seconds and
reports the end-to-end metrics.  Timings take the fastest repeat of each
operation: on a shared host the other repeats mostly measure the
neighbours.  A shared host also runs at about 1.5x lower speed, in
stretches from a fraction of a second to half a minute, which can cover a
whole run.  So a fixed reference kernel (no qorbits code), about as long
as an operation, is timed after every operation, and each timing is scaled
to the reference speed by the faster of the two reference runs on either
side of it (see scaled_latencies).
--trace 1 ignores --seconds, so that its counts repeat exactly.  It runs the
first TRACE_OPS operations of the workload untraced, then the same
operations with span tracing installed (tracing.py), checks that the two
passes give bit-identical outputs, writes the spans to
perfbench/out/spans-<workload>.tsv and reports the per-layer metrics and the
tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# set-up is timed in this many fresh processes; setup_s is their median
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
# the traced run covers this many operations from the start of the cycle,
# untraced and then traced
TRACE_OPS = 12
# About the time of one iteration of reference_kernel(), in ms, at full
# speed on the host the bounds were set on (2 shared vCPUs of an Intel Xeon
# VM).  When that host ran slower, reference_kernel() and the qorbits
# operations slowed by about the same factor, so scaled timings are those
# of the host at full speed.
REF_MS_PER_ITERATION = 0.01
# iterations of each reference run around a set-up probe, and the number of
# such runs timed before, and again after, the probe
SETUP_REF_ITERATIONS = 200
SETUP_REF_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "oracle_digits": "digits",
}
# What each generic end-to-end metric is called on each workload.
ALIASES = {
    "scan": {
        "ops_per_s": ("points_per_s", "points/s"),
        "op_ms_p50": ("scan_ms_p50", "ms/grid"),
        "op_ms_p90": ("scan_ms_p90", "ms/grid"),
        "oracle_digits": ("concurrence_digits", "digits"),
    },
    "curvature": {
        "ops_per_s": ("curvatures_per_s", "calls/s"),
        "op_ms_p50": ("curvature_ms_p50", "ms/call"),
        "op_ms_p90": ("curvature_ms_p90", "ms/call"),
        "oracle_digits": ("curvature_digits", "digits"),
    },
    "verify": {
        "ops_per_s": ("verify_runs_per_s", "runs/s"),
        "op_ms_p50": ("verify_ms_p50", "ms/run"),
        "op_ms_p90": ("verify_ms_p90", "ms/run"),
        "oracle_digits": ("metric_digits", "digits"),
    },
}


def load_program():
    """Import qorbits from the checkout's src/, refusing any other copy."""
    package = SRC / "qorbits"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no qorbits source at {package}")
    sys.path.insert(0, str(SRC))
    import qorbits
    import qorbits.cli  # noqa: F401

    if Path(qorbits.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported qorbits from {qorbits.__file__}")


def set_up(workload, seed):
    """Import qorbits and qorbits.cli and build the workload's inputs."""
    load_program()
    import workloads

    return workloads.WORKLOADS[workload](seed)


def probe_setup(workload, seed) -> float:
    """Set-up time of one fresh process, as that process measures it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def reference_kernel(iterations) -> float:
    """Fixed work of the same kind as qorbits' (small LAPACK calls and
    interpreted arithmetic), independent of the program under test.
    numpy is imported here, not at the top, so that set-up probes time its
    import as part of importing qorbits."""
    import numpy as np

    a = np.random.default_rng(0).normal(size=(4, 4))
    total = 0.0
    for i in range(iterations):
        w, _ = np.linalg.eigh(a + a.T + i * 1e-3)
        total += float(w[0]) + sum(j * 0.5 for j in range(20))
    return total


def time_reference(iterations) -> float:
    t0 = time.perf_counter()
    reference_kernel(iterations)
    return time.perf_counter() - t0


def reference_scale(ref_seconds: float, iterations) -> float:
    """Factor that takes a timing made while reference_kernel(iterations)
    took ref_seconds to the reference speed REF_MS_PER_ITERATION."""
    return REF_MS_PER_ITERATION * iterations / (1e3 * ref_seconds)


def scaled_latencies(latencies, reference, iterations):
    """Each timing scaled by the faster of the reference runs just before
    and just after it.  The host's speed changes within a fraction of a
    second, so only adjacent runs track it, and a reference run as long as
    the operation sees the same mix of fast and slow stretches.  Taking the
    faster of the two keeps one slow reference run from making an operation
    look fast."""
    return [
        t * reference_scale(min(reference[max(k - 1, 0):k + 1]), iterations)
        for k, t in enumerate(latencies)
    ]


class Pass:
    """Latencies, failures and output digests of one pass."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.problems = []
        self.digests = []
        # reference_kernel() times, one after each operation if asked for
        self.reference = []


def drive(wl, ops, deadline=None, tracer=None, reference=0) -> Pass:
    """Closed loop over `ops`: the whole list once, then cycling on until
    `deadline` (perf_counter) if given.  Only wl.run is timed (and traced);
    the check of each output follows it, then, if `reference` is not 0, a
    timed run of the reference kernel with that many iterations."""
    result = Pass()
    i = 0
    while i < len(ops) or (deadline is not None and time.perf_counter() < deadline):
        op = ops[i % len(ops)]
        i += 1
        if tracer:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            out = wl.run(op)
        except Exception as exc:
            out, problems = None, [f"{op!r:.80}: raised {exc!r}"]
        finally:
            dt = time.perf_counter() - t0
            if tracer:
                tracer.recording = False
        result.latencies.append(dt)
        if out is not None:
            try:
                problems, fingerprint = wl.check(op, out)
            except Exception as exc:
                problems, fingerprint = [f"check raised {exc!r}"], None
            result.digests.append(
                hashlib.blake2b(fingerprint).digest() if fingerprint else None
            )
        else:
            result.digests.append(None)
        if problems:
            result.failed += 1
            result.problems.extend(problems[: 5 - len(result.problems)])
        if reference:
            result.reference.append(time_reference(reference))
    return result


def fastest(latencies, n_ops):
    """Fastest repeat of each of the n_ops operations of a cycle."""
    return [min(latencies[j::n_ops]) for j in range(n_ops)]


def scaled_setup(workload, seed) -> tuple[float, float]:
    """(raw, reference-scaled) set-up time of one fresh process.  The probe
    is a single draw, not a fastest repeat, so it is scaled by the median
    of the reference runs just before and just after it."""
    n, repeats = SETUP_REF_ITERATIONS, SETUP_REF_REPEATS
    before = [time_reference(n) for _ in range(repeats)]
    raw = probe_setup(workload, seed)
    after = [time_reference(n) for _ in range(repeats)]
    return raw, raw * reference_scale(statistics.median(before + after), n)


def end_to_end(wl, args) -> tuple[Pass, dict]:
    setup = [scaled_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    run = drive(wl, wl.ops(), deadline=time.perf_counter() + args.seconds,
                reference=wl.reference_iterations)
    sweep = drive(wl, wl.sweep())
    ops = wl.ops()
    raw_best = fastest(run.latencies, len(ops))
    best = fastest(scaled_latencies(run.latencies, run.reference, wl.reference_iterations),
                   len(ops))
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "ops_per_s": sum(wl.units(op) for op in ops) / sum(best),
        "op_ms_p50": 1e3 * statistics.median(best),
        # the cycle's operations are the whole population, so interpolate
        # within them rather than extrapolate past the slowest
        "op_ms_p90": 1e3 * (
            statistics.quantiles(best, n=10, method="inclusive")[8] if len(best) > 1 else best[0]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_digits": wl.accuracy().get("oracle_digits", 0.0),
    }
    report(args.workload, f"{len(ops)} operations, each repeated "
           f"{len(run.latencies) // len(ops)} or more times in {sum(run.latencies):.3f} s; "
           f"{len(sweep.latencies)} more run once for accuracy; "
           f"raw set-up probes {', '.join(f'{raw:.4f}' for raw, _ in setup)} s")
    full_speed = 1e-3 * REF_MS_PER_ITERATION * wl.reference_iterations
    report(args.workload, f"reference runs of {wl.reference_iterations} iterations took "
           f"{1e3 * min(run.reference):.4f} to {1e3 * max(run.reference):.4f} ms, "
           f"{1e3 * full_speed:.4f} ms at the reference speed; raw median op "
           f"{1e3 * statistics.median(raw_best):.6g} ms")
    run.latencies += sweep.latencies
    run.failed += sweep.failed
    run.problems += sweep.problems
    for name, value in metrics.items():
        alias, unit = ALIASES[args.workload].get(name, (name, END_TO_END_UNITS[name]))
        report(args.workload, f"{alias} = {value:.6g} {unit}   [{name}]")
    if args.workload == "curvature":
        report(args.workload, f"metric_digits = {wl.accuracy()['metric_digits']:.6g} digits")
    return run, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def traced(wl, make, workload) -> tuple[Pass, dict]:
    """Untraced pass over the first TRACE_OPS operations of `wl`, then a
    traced pass over the same operations of a twin built by `make()` after
    the wrappers are installed (so that metric fields bind them)."""
    import tracing
    import workloads

    plain = drive(wl, wl.ops()[:TRACE_OPS])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        twin = make()
        try:
            spans = drive(twin, twin.ops()[:TRACE_OPS], tracer=tracer)
        finally:
            twin.close()
    finally:
        tracer.uninstall()
    mismatched = sum(a != b for a, b in zip(plain.digests, spans.digests))
    if mismatched:
        spans.failed += mismatched
        spans.problems.append(f"{mismatched} traced outputs differ from untraced")
    run = Pass()
    run.latencies = plain.latencies + spans.latencies
    run.failed = plain.failed + spans.failed
    run.problems = plain.problems + spans.problems
    workloads.OUT_DIR.mkdir(exist_ok=True)
    path = workloads.OUT_DIR / f"spans-{workload}.tsv"
    tracer.write_spans(path)
    values = tracer.layer_metrics()
    values["trace.overhead_frac"] = sum(spans.latencies) / sum(plain.latencies) - 1.0
    values["fubini_study.metric_digits"] = wl.accuracy().get("metric_digits", 0.0)
    units = tracing.layer_metric_units()
    report(workload, f"{len(plain.latencies)} ops untraced, then traced; "
           f"{len(tracer.span_name)} spans written to {path}")
    for name, unit in units.items():
        report(workload, f"{name} = {values[name]:.6g} {unit}")
    return run, {name: (values[name], unit) for name, unit in units.items()}


def report(workload, line):
    print(f"[{workload}] {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up in this process, print seconds, exit")
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"

    t0 = time.perf_counter()
    wl = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.perf_counter() - t0))
        wl.close()
        return 0
    try:
        if args.trace:
            import workloads

            def make():
                return workloads.WORKLOADS[args.workload](args.seed)

            run, metrics = traced(wl, make, args.workload)
        else:
            run, metrics = end_to_end(wl, args)
    finally:
        wl.close()
    attempted = len(run.latencies)
    report(args.workload, f"error_rate = {run.failed / attempted:.6g} "
           f"({run.failed} of {attempted} operations failed)")
    for problem in run.problems:
        report(args.workload, f"FAILED: {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
