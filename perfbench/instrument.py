"""Traced-run tooling: entry-point wrappers, spans and cProfile layers.

Everything here wraps ``repro``'s public entry points from outside;
nothing inside ``src/`` is edited or traced.  The wrappers record busy
seconds and call counts per entry point, a span per call on a
:class:`repro.obs.telemetry.SpanTracer`, and the deterministic work
counters (cycles, instructions, kernel ticks) read off each result.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: cProfile self time is summed per layer; the first matching prefix of
#: the file's path below ``src/repro/`` names the layer
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("sim/batch/engine.py", "sim.batch.engine"),
    ("sim/batch/coherence.py", "sim.batch.coherence"),
    ("sim/batch/compile.py", "sim.batch.compile"),
    ("sim/batch/", "sim.batch.runner"),
    ("sim/sweep.py", "sim.sweep"),
    ("sim/", "sim"),
    ("analysis/axiomatic/", "analysis.axiomatic"),
    ("analysis/", "analysis"),
    ("cpu/", "cpu"),
    ("memory/", "memory"),
    ("coherence/", "coherence"),
    ("core/", "core"),
    ("isa/", "isa"),
    ("consistency/", "consistency"),
    ("verify/", "verify"),
    ("obs/", "obs"),
    ("serve/", "serve"),
    ("system/", "system"),
    ("workloads/", "workloads"),
    ("baselines/", "baselines"),
    ("", "report"),  # top-level modules: repro/report.py, repro/run.py
)

#: every layer, in reporting order; ``bench`` is this benchmark's own
#: code and ``other`` the standard library, numpy and builtins
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([layer for _p, layer in LAYER_PREFIXES]
                  + ["bench", "other"]))

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
_SRC_DIR = os.path.join(os.path.dirname(_BENCH_DIR), "src", "repro")

#: the entry points the traced run times
ENTRY_POINTS: Tuple[str, ...] = (
    "system.run_workload",
    "sim.batch.BatchRunner.run",
    "consistency.LitmusTest.outcomes",
    "analysis.axiomatic.axiomatic_outcomes",
    "verify.generate_litmus",
    "serve.store.get",
    "serve.store.put",
    "serve.execute",
)


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    path = os.path.abspath(filename)
    if path.startswith(_BENCH_DIR + os.sep):
        return "bench"
    if not path.startswith(_SRC_DIR + os.sep):
        return "other"
    rel = os.path.relpath(path, _SRC_DIR).replace(os.sep, "/")
    return next(layer for prefix, layer in LAYER_PREFIXES
                if rel.startswith(prefix))


@contextmanager
def profiling_all_threads(profiles: List[object], threaded: bool
                          ) -> Iterator[None]:
    """cProfile the block, appending one profile per thread to
    ``profiles``.

    A ``threaded`` workload (the serve ones) runs the server, its
    executor and the callers on threads of its own while this thread
    only waits for them: then every thread started inside the block is
    profiled by thread CPU time, so time blocked on a socket or a lock
    adds nothing, and this thread is not profiled.  Otherwise this
    thread is profiled with cProfile's own clock, which costs less than
    half as much as the CPU-time clock.
    """
    import cProfile

    def bootstrap(*_args) -> None:
        sys.setprofile(None)
        profile = cProfile.Profile(time.thread_time)
        profiles.append(profile)
        profile.enable()

    if threaded:
        threading.setprofile(bootstrap)
        try:
            yield
        finally:
            threading.setprofile(None)  # type: ignore[arg-type]
        return
    main = cProfile.Profile()
    profiles.append(main)
    main.enable()
    try:
        yield
    finally:
        main.disable()


def self_time_by_layer(profiles: List[object]) -> Dict[str, float]:
    """Sum cProfile ``tottime`` per layer (every layer present, zeros
    included), so the shares over all layers sum to 1."""
    import pstats

    totals = {layer: 0.0 for layer in LAYERS}
    stats = pstats.Stats(*profiles).stats  # type: ignore[attr-defined]
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in \
            stats.items():
        totals[layer_of(filename)] += tottime
    return totals


# ----------------------------------------------------------------------
# Patching helpers
# ----------------------------------------------------------------------

@contextmanager
def patch_everywhere(original: Callable, replacement: Callable
                     ) -> Iterator[None]:
    """Rebind every ``repro`` module attribute that *is* ``original``.

    Modules import entry points by name (``from ..system.machine import
    run_workload``), so patching one module would miss the others.  A
    module first imported inside the block binds ``replacement``, so the
    restore sweeps every module again.
    """
    def rebind(old: Callable, new: Callable) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)

    rebind(original, replacement)
    try:
        yield
    finally:
        rebind(replacement, original)


@contextmanager
def patch_class_attr(cls: type, attr: str, replacement: Callable
                     ) -> Iterator[None]:
    original = cls.__dict__[attr]
    setattr(cls, attr, replacement)
    try:
        yield
    finally:
        setattr(cls, attr, original)


# ----------------------------------------------------------------------
# The probe: entry-point timers, spans, work counters
# ----------------------------------------------------------------------

class Probe:
    """Records one traced round: per-entry busy seconds and calls, one
    span per call, and deterministic counters read off results."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` timed as entry point ``name``."""
        with self.tracer.span(name):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.busy[name] += time.perf_counter() - t0
                self.calls[name] += 1

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` timed as entry point ``name``; ``after(result, *args,
        **kwargs)`` reads counters off each result."""
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def timed_store(self, store_cls: type, root: str):
        """A ``ResultStore`` subclass instance timing ``get``/``put``."""
        probe = self

        class TimedStore(store_cls):  # type: ignore[misc, valid-type]
            def get(self, sha):
                return probe.call("serve.store.get", super().get, sha)

            def put(self, sha, request, result):
                return probe.call("serve.store.put", super().put, sha,
                                  request, result)

        return TimedStore(root)

    # -- counters read off results ----------------------------------------

    def _count_run(self, result, *_args, **_kwargs) -> None:
        stats = result.stats
        self.counts["sim.cycles"] += result.cycles
        self.counts["sim.instructions"] += _retired(stats)
        profile = stats.counters("host/profile/")
        self.counts["sim.ticks"] += profile.get("host/profile/ticks", 0)
        self.counts["sim.fastforward_cycles"] += profile.get(
            "host/profile/fastforward/cycles", 0)

    def _count_batch(self, results, _runner, jobs) -> None:
        self.counts["sim.batch.BatchRunner.run.lanes"] += len(jobs)
        for res in results:
            # scalar-routed jobs were counted by the run_workload wrapper
            if res.backend == "batched":
                self.counts["sim.cycles"] += res.cycles
                self.counts["sim.instructions"] += _retired(res.stats)

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap the library-wide entry points for the duration."""
        from repro.analysis import axiomatic
        from repro.consistency.litmus import LitmusTest
        from repro.sim.batch import BatchRunner
        from repro.system import machine
        from repro.verify import generator

        run_workload = machine.run_workload

        def profiled_run(*args, **kwargs):
            # the kernel's HostProfiler supplies ticks and fast-forward
            kwargs.setdefault("profile", True)
            return run_workload(*args, **kwargs)

        with patch_everywhere(run_workload, self.wrap(
                "system.run_workload", profiled_run, self._count_run)), \
                patch_everywhere(axiomatic.axiomatic_outcomes, self.wrap(
                    "analysis.axiomatic.axiomatic_outcomes",
                    axiomatic.axiomatic_outcomes)), \
                patch_everywhere(generator.generate_litmus, self.wrap(
                    "verify.generate_litmus", generator.generate_litmus)), \
                patch_class_attr(LitmusTest, "outcomes", self.wrap(
                    "consistency.LitmusTest.outcomes",
                    LitmusTest.outcomes)), \
                patch_class_attr(BatchRunner, "run", self.wrap(
                    "sim.batch.BatchRunner.run", BatchRunner.run,
                    self._count_batch)):
            yield


def _retired(stats) -> int:
    return sum(v for k, v in stats.counters().items()
               if k.endswith("/instructions_retired"))
