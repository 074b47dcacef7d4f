"""The repository benchmark: one command, every metric, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fuzz_campaign --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints every end-to-end
metric named in ``BENCHMARK.json``.  ``--trace 1`` runs it traced and
prints the per-layer metrics instead: cProfile self time per ``repro``
layer, entry-point busy seconds and calls, and deterministic work
counters; it also writes the spans of the traced round as one Perfetto
file under ``perfbench/out/`` and checks it with
``python -m repro.obs validate``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
(prefixed ``#``) record the host, versions, digests and tail
percentiles.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import NoReturn

T_START = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: set-up is repeated in this many fresh processes besides the measuring
#: one, and ``setup_s`` is the median of all of them
SETUP_PROBES = 4


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        _fail(f"{path} not found")
    with open(path) as fh:
        return json.load(fh)


def _import_paths() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _fail("src/repro not found: run from a checkout of the repository")
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def tail(samples):
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, sample count)``."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"{n} latency samples; the tail needs at least 11")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def environment() -> dict:
    import hashlib
    import platform

    import numpy

    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    sha = "none"  # a checkout made without git has no sha
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or sha
        except OSError:
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_sha": sha,
            "src_sha256": digest.hexdigest()}


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: host-speed calibration: a fixed pure-Python kernel timed between
#: rounds.  On a shared host the interpreter's speed swings by half
#: within minutes, and every workload here swings with it (a report
#: round and the kernel, timed back to back, correlate at 0.8).  Gated
#: timings are therefore given in *reference seconds*: host seconds
#: times REFERENCE_KERNEL_S over the kernel's time measured around them,
#: i.e. seconds on a host where the kernel takes REFERENCE_KERNEL_S (the
#: build host's quiet-phase figure).  Raw figures are printed beside.
REFERENCE_KERNEL_S = 0.09
#: rounds shorter than this share the calibration samples around them
CALIBRATE_EVERY_S = 2.0


def kernel_s() -> float:
    """Time the calibration kernel once, garbage collection off so that
    the benchmark's own heap does not bill it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(400_000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
            acc ^= key * 3
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_samples(args, own: float) -> list:
    """Set-up time in reference seconds: this process's and that of
    SETUP_PROBES fresh processes, each scaled by a kernel timed right
    after it."""
    samples = [own * REFERENCE_KERNEL_S / kernel_s()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_round(workload, **kwargs):
    # the previous round's garbage is the benchmark's, not the round's
    gc.collect()
    return workload.run_round(**kwargs)


def run_window(workload, seconds: float) -> list:
    """Rounds while another round still fits in ``seconds`` (at least
    one), with the calibration kernel timed before the first round, then
    whenever CALIBRATE_EVERY_S has passed and after the last round.  Each
    round's ``kernel_s`` is the mean of the samples on either side."""
    start = time.perf_counter()
    rounds, pending = [], []
    before, last = kernel_s(), time.perf_counter()
    while True:
        pending.append(run_round(workload, index=len(rounds)))
        rounds.append(pending[-1])
        fits = time.perf_counter() - start + rounds[-1].wall_s <= seconds
        if not fits or time.perf_counter() - last >= CALIBRATE_EVERY_S:
            after = kernel_s()
            for r in pending:
                r.kernel_s = (before + after) / 2
            pending, before, last = [], after, time.perf_counter()
        if not fits:
            return rounds


def end_to_end(rounds, setup, request: str) -> dict:
    """The gated metrics; raw rates, round wall times and request
    latencies are printed beside them (see README: their spread on a
    shared host reaches the largest bound allowed)."""
    walls = [r.wall_s for r in rounds]
    latencies = [x for r in rounds for x in r.latencies_s]
    tail_value, tail_pct, count = tail(latencies)
    print(f"# raw legs_per_s "
          f"{statistics.median(r.legs / r.wall_s for r in rounds):.3f}, "
          f"kernel_s {statistics.median(r.kernel_s for r in rounds):.4f}")
    print(f"# wall_s {statistics.median(walls):.4f} (median of "
          f"{len(rounds)} round(s): "
          + " ".join(f"{w:.4f}" for w in walls) + ")")
    print(f"# latency_p50_ms {1000.0 * statistics.median(latencies):.3f} "
          f"latency_tail_ms {1000.0 * tail_value:.3f} "
          f"(p{tail_pct:.1f} of {count} requests; a request is {request})")
    return {
        "setup_s": statistics.median(setup),
        "legs_per_ref_s": statistics.median(
            r.legs / r.wall_s * r.kernel_s / REFERENCE_KERNEL_S
            for r in rounds),
        "peak_rss_mb": peak_rss_mb(),
    }


def probed_round(workload):
    """One round with the entry points wrapped, spans recorded and the
    campaign telemetry collected: ``(round, metrics, span tracer)``.

    The metrics are entry-point busy seconds and calls, per-section busy
    seconds, and the deterministic work counters.
    """
    from perfbench.instrument import ENTRY_POINTS, Probe
    from repro.obs import telemetry

    label = f"perfbench {workload.name}"
    tracer = telemetry.SpanTracer(process=label)
    probe = Probe(tracer)
    with telemetry.collect(process=label) as scope:
        with probe.installed(), tracer.span(f"{workload.name}.round"):
            probed = workload.run_round(probe)
    tracer.merge_from(scope.spans)

    metrics = {}
    for entry in ENTRY_POINTS:
        metrics[f"{entry}.busy_s"] = probe.busy.get(entry, 0.0)
        metrics[f"{entry}.calls"] = probe.calls.get(entry, 0)
    for name in ("sim.cycles", "sim.instructions", "sim.ticks",
                 "sim.fastforward_cycles", "sim.batch.BatchRunner.run.lanes"):
        metrics[name] = probe.counts.get(name, 0)
    for slug, busy in probed.sections.items():
        metrics[f"report.section.{slug}.busy_s"] = busy
    metrics.update(telemetry_counters(scope.metrics))
    serve = workload.counters()
    for name in ("cache_hits", "cache_misses", "coalesced", "executed"):
        metrics[f"serve.{name}"] = serve.get(name, 0)
    lookups = metrics["serve.cache_hits"] + metrics["serve.cache_misses"]
    metrics["serve.hit_ratio"] = (metrics["serve.cache_hits"] / lookups
                                  if lookups else 0.0)
    return probed, metrics, tracer


def traced(workload, args, section_names):
    """The traced run: an untraced baseline round, a probed round, then
    cProfile rounds; returns ``(metrics, rounds, spans valid)``."""
    from perfbench.instrument import LAYERS, profiling_all_threads, \
        self_time_by_layer
    from repro.obs.cli import main as obs_main

    baseline = run_round(workload)
    gc.collect()
    probed, metrics, tracer = probed_round(workload)
    for name in section_names:  # zero outside paper_report
        metrics.setdefault(name, 0.0)

    profiles = []
    profiled = []
    start = time.perf_counter()
    while not profiled or time.perf_counter() - start < args.seconds / 2:
        gc.collect()
        with profiling_all_threads(profiles, workload.threaded):
            profiled.append(workload.run_round())
    self_s = self_time_by_layer(profiles)
    total = sum(self_s.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / total if total else 0.0
    print(f"# layer shares sum to "
          f"{sum(metrics[f'{layer}.share'] for layer in LAYERS):.6f}")
    metrics["trace_overhead"] = (statistics.median(
        r.wall_s for r in profiled) / baseline.wall_s)

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        OUT_DIR, f"{workload.name}-seed{args.seed}.trace.json")
    tracer.write_perfetto(trace_path, label=f"perfbench {workload.name}")
    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for results
        trace_ok = obs_main(["validate", trace_path]) == 0
    print(f"# spans: {os.path.relpath(trace_path, ROOT)} ({len(tracer)} "
          f"spans, {'valid' if trace_ok else 'INVALID'})")
    return metrics, [baseline, probed] + profiled, trace_ok


def telemetry_counters(reg) -> dict:
    """Deterministic counters from the traced round's telemetry scope."""
    import re

    fallback = {"prefetch": 0.0, "speculation": 0.0, "other": 0.0}
    for key, value in reg.counter_family("batch/fallback").items():
        reason = re.search(r'reason="(.*)"', key)
        text = reason.group(1) if reason else ""
        if text == "hardware prefetching enabled":
            fallback["prefetch"] += value
        elif text == "speculative loads enabled":
            fallback["speculation"] += value
        else:
            fallback["other"] += value
    lanes = reg.counter_value("batch/jobs")
    memo = reg.counter_family("batch/compile_memo")
    hits = sum(v for k, v in memo.items() if 'result="hit"' in k)
    out = {
        "verify.legs": reg.counter_value("verify/legs"),
        "sim.batch.lanes_fallback": sum(fallback.values()),
        "sim.batch.lanes_batched": lanes - sum(fallback.values()),
        "sim.batch.compile_memo_hit_ratio": (hits / sum(memo.values())
                                             if memo else 0.0),
        "sim.sweep.queue_wait_s": reg.gauge_value(
            "sweep/queue_wait_seconds") or 0.0,
    }
    for reason, value in fallback.items():
        out[f"sim.batch.lanes_fallback.{reason}"] = value
    return out


def tally(rounds, problems):
    """``(attempted, failed)`` over the rounds; every check problem and
    every round whose digest differs from the first round on the same
    inputs counts as failed."""
    first = {}
    differing = 0
    for r in rounds:
        differing += first.setdefault(r.inputs, r.digest) != r.digest
    print(f"# digest {rounds[0].digest[:16]}"
          + (f" ({differing} round(s) DIFFER)" if differing else ""))
    for problem in problems:
        print(f"# check failed: {problem}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + len(problems) + differing
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = _load_spec()
    _import_paths()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"available: {sorted(WORKLOADS)}")
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    cls = WORKLOADS[args.workload]
    # the traced run is several times slower per round, so it runs a
    # smaller input set; its counters repeat exactly all the same
    workload = cls(args.seed, workdir,
                   tests=cls.trace_tests if args.trace else cls.tests)
    try:
        workload.setup()
        own_setup = time.perf_counter() - T_START
        if args.setup_probe:
            print(own_setup * REFERENCE_KERNEL_S / kernel_s())
            return 0
        workload.prepare()
        print("# env " + json.dumps(environment(), sort_keys=True))
        if args.workload == "paper_report":
            print("# seed unused: paper_report's inputs are the paper's "
                  "fixed examples")
        problems = []
        if args.trace:
            names = spec["per_layer"]
            metrics, rounds, trace_ok = traced(
                workload, args, [m["name"] for m in names
                                 if m["name"].startswith("report.section.")])
            if not trace_ok:
                problems.append("the span file failed validation")
        else:
            names = spec["end_to_end"]
            setup = setup_samples(args, own_setup)
            rounds = run_window(workload, args.seconds)
            metrics = end_to_end(rounds, setup, workload.request)
        problems += workload.check()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = tally(rounds, problems)
    metrics["fail_ratio"] = failed / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
