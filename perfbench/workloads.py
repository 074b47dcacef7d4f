"""The benchmark's workloads, driven only through ``repro``'s public API.

Each workload runs *rounds* of work while the harness in ``run.py``
keeps time; a round is the unit the harness repeats until the measuring
window is spent.  ``paper_report`` and ``serve_warm`` repeat the same
inputs every round.  The other litmus workloads draw fresh tests per
round from the benchmark seed: a test's cost varies several-fold, so a
run's figure is steadier over many draws than over one.  Every round
returns a digest of its per-leg (outcome, cycles), or of the report
text, and rounds on the same inputs must agree.

Generated litmus tests are stratified by CPU count (test ``i`` has
``2 + i % 3`` CPUs).  The default generator draws 2-4 CPUs uniformly,
so the mix is the same; stratifying only removes the run-to-run
swing of how many 4-CPU tests (about twice the cost of a 2-CPU test)
a seed happens to draw.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: sha256 of ``repro.report.generate([])``: the report is byte-deterministic
REPORT_SHA256 = (
    "0dad099de809fbe69dc292c8c22a3b8b0b2cbff98685b5a30a5e521b9973605f")

Answer = Tuple[object, object]  # (outcome, cycles) of one simulator leg


@dataclass
class Round:
    """What one round of a workload did."""

    wall_s: float
    #: simulator legs completed (detailed runs: scalar legs + batched lanes)
    legs: int
    #: one latency per request (see each workload's ``request`` text)
    latencies_s: List[float]
    attempted: int
    failed: int
    digest: str
    #: per-section busy seconds (paper_report only)
    sections: Dict[str, float] = field(default_factory=dict)
    #: which inputs the round ran; rounds with equal inputs must agree
    inputs: int = 0
    #: the calibration kernel's time around the round (see run.py)
    kernel_s: float = 0.0


def digest_of(items: Sequence[object]) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def stratified_tests(seed: int, count: int, stream: str):
    """``count`` (derived seed, GeneratorConfig) pairs, CPU-stratified."""
    from repro.sim.sweep import derive_seed
    from repro.verify import GeneratorConfig

    return [(derive_seed(seed, i, stream),
             GeneratorConfig(min_cpus=2 + i % 3, max_cpus=2 + i % 3))
            for i in range(count)]


def harness_legs(techniques_off_only: bool = False):
    """The fuzz harness's (model, prefetch, speculation, run config)
    axis, in its order: 4 models x 4 technique combos x 4 configs."""
    from repro.verify import (DEFAULT_RUN_CONFIGS, MODEL_NAMES,
                              TECHNIQUE_COMBOS)

    combos = ((False, False),) if techniques_off_only else TECHNIQUE_COMBOS
    return [(model, prefetch, speculation, rc)
            for model in MODEL_NAMES
            for prefetch, speculation in combos
            for rc in DEFAULT_RUN_CONFIGS]


def legs_to_jobs(test, legs):
    """One ``BatchJob`` per leg, set up as the fuzz harness does; also
    returns the test's audit map (litmus register -> memory slot)."""
    from repro.memory.types import CacheConfig
    from repro.sim.batch import BatchJob

    addresses = test.addresses()
    nthreads = len(test.threads)
    programs_by_skew: Dict[tuple, tuple] = {}
    jobs = []
    audit_map: Dict[str, int] = {}
    for model, prefetch, speculation, rc in legs:
        skew = tuple(rc.skew[t % len(rc.skew)] for t in range(nthreads))
        if skew not in programs_by_skew:
            programs_by_skew[skew] = test.to_programs(delays=skew)
        programs, audit_map = programs_by_skew[skew]
        warm = ()
        if rc.warm_shared:
            warm = tuple((cpu, addr, False) for cpu in range(nthreads)
                         for addr in addresses.values())
        jobs.append(BatchJob(
            programs=programs, model_name=model, prefetch=prefetch,
            speculation=speculation, miss_latency=rc.miss_latency,
            initial_memory={a: 0 for a in addresses.values()},
            warm_lines=warm, cache=CacheConfig(line_size=rc.line_size),
            max_cycles=rc.max_cycles))
    return jobs, audit_map


def batch_answer(res, audit_map: Dict[str, int]) -> Answer:
    """(outcome, cycles) of one ``BatchResult``; errors answer by type."""
    if res.error is not None:
        return ("error", type(res.error).__name__)
    outcome = tuple(sorted((reg, res.read_word(slot))
                           for reg, slot in audit_map.items()))
    return (outcome, res.cycles)


def local_answers(tests, legs) -> List[List[Answer]]:
    """Every leg of every test answered in-process by one lockstep
    ``BatchRunner`` call (technique legs fall back to the scalar kernel
    inside the runner): the local campaign's reference."""
    from repro.sim.batch import BatchRunner

    jobs, maps = [], []
    for test in tests:
        test_jobs, audit_map = legs_to_jobs(test, legs)
        jobs.extend(test_jobs)
        maps.append(audit_map)
    results = BatchRunner().run(jobs)
    n = len(legs)
    return [[batch_answer(res, maps[t]) for res in results[t * n:(t + 1) * n]]
            for t in range(len(tests))]


class Workload:
    """Base: subclasses fill in ``setup``/``run_round``/``check``."""

    name = ""
    #: what one latency sample measures
    request = ""
    #: generated litmus tests per round, untraced and traced
    tests = trace_tests = 0
    #: rounds run the system on threads of their own (see profiling)
    threaded = False

    def __init__(self, seed: int, workdir: str, tests: int = 0) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tests = tests or self.tests

    def setup(self) -> None:
        """Build inputs and services; timed as ``setup_s``."""

    def prepare(self) -> None:
        """Untimed preconditions that are not set-up (serve_warm's
        priming pass); not part of ``setup_s``."""

    def run_round(self, probe=None, index: int = 0) -> Round:
        """One timed round; ``index`` counts rounds within the window, and
        only workloads that draw fresh inputs per round read it."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Post-window output checks; returns problems (empty = ok)."""
        return []

    def counters(self) -> Dict[str, float]:
        """Workload-reported deterministic counters of the last round."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# paper_report
# ----------------------------------------------------------------------

def section_slug(name: str) -> str:
    """``"E11 Stall breakdown (example1)"`` -> ``e11_stall_breakdown_example1``."""
    out = "".join(c if c.isalnum() else "_" for c in name.lower())
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")


class PaperReport(Workload):
    """Every E1-E11, A1-A7 and S1-S2 table via ``repro.report.generate``.

    The inputs are the paper's fixed examples, so the seed is unused.
    """

    name = "paper_report"
    request = "one report section (a SECTIONS builder call)"

    def setup(self) -> None:
        from repro import report
        from repro.system import machine

        self.report = report
        self.machine = machine

    def run_round(self, probe=None, index: int = 0) -> Round:
        from perfbench.instrument import patch_everywhere

        sections: Dict[str, float] = {}
        legs = [0]
        original_run = self.machine.run_workload

        def counting_run(*args, **kwargs):
            legs[0] += 1
            return original_run(*args, **kwargs)

        def timed(name, builder):
            slug = section_slug(name)

            def section():
                t0 = time.perf_counter()
                try:
                    if probe is None:
                        return builder()
                    with probe.tracer.span(f"report.section.{slug}"):
                        return builder()
                finally:
                    sections[slug] = time.perf_counter() - t0
            return section

        saved = list(self.report.SECTIONS)
        self.report.SECTIONS[:] = [(n, timed(n, b)) for n, b in saved]
        try:
            with patch_everywhere(original_run, counting_run):
                t0 = time.perf_counter()
                text = self.report.generate([], verbose=False)
                wall = time.perf_counter() - t0
        finally:
            self.report.SECTIONS[:] = saved
        digest = hashlib.sha256(text.encode()).hexdigest()
        return Round(wall_s=wall, legs=legs[0],
                     latencies_s=list(sections.values()), attempted=1,
                     failed=int(digest != REPORT_SHA256), digest=digest,
                     sections=sections)


# ----------------------------------------------------------------------
# fuzz_campaign
# ----------------------------------------------------------------------

class FuzzCampaign(Workload):
    """``repro.verify --oracle all --backend batched`` with one worker:
    ``run_sweep(..., chunk_worker=check_seed_chunk)`` over derived seeds.
    Each round is a fresh campaign (round ``r`` uses the seed stream
    ``fuzz<r>``)."""

    name = "fuzz_campaign"
    request = ("one test; it completes with its sweep chunk, so its "
               "latency is that chunk's wall time")
    tests = trace_tests = 12

    def setup(self) -> None:
        from repro.sim.batch import BatchRunner
        from repro.verify import generator

        self.generator = generator
        self.runner_cls = BatchRunner
        self.legs_per_test = len(harness_legs())

    def run_round(self, probe=None, index: int = 0) -> Round:
        from perfbench.instrument import patch_class_attr, patch_everywhere
        from repro.analysis.axiomatic import clear_caches
        from repro.sim.sweep import SweepError, run_sweep
        from repro.verify.harness import check_seed_chunk

        # the legs' (outcome, cycles) for the digest: check_seed_chunk
        # generates a chunk's tests in order, then hands all their legs
        # to one BatchRunner.run call, test after test
        generated: List[object] = []
        answers: List[Answer] = []
        original_generate = self.generator.generate_litmus
        original_run = self.runner_cls.run

        def recording_generate(*args, **kwargs):
            test = original_generate(*args, **kwargs)
            generated.append(test)
            return test

        def recording_run(runner, jobs):
            results = original_run(runner, jobs)
            tests = list(generated)
            generated.clear()
            per_test = len(results) // max(1, len(tests))
            for t, test in enumerate(tests):
                audit_map = test.to_programs()[1]
                for res in results[t * per_test:(t + 1) * per_test]:
                    answers.append(batch_answer(res, audit_map))
            if per_test * len(tests) != len(results):
                answers.append(("misaligned", len(results)))
            return results

        items = [(i, s, {"generator": cfg.to_dict(), "oracle": "all",
                         "backend": "batched"})
                 for i, (s, cfg) in enumerate(stratified_tests(
                     self.seed, self.tests, f"fuzz{index}"))]
        chunk_done: List[float] = []
        # start with the process-wide memos empty, as a CLI run does: the
        # axiomatic checker's caches are the only ones that outlive a call
        clear_caches()
        with patch_everywhere(original_generate, recording_generate), \
                patch_class_attr(self.runner_cls, "run", recording_run):
            t0 = time.perf_counter()
            sweep = run_sweep(
                None, items, jobs=1, on_error="record",
                chunk_worker=check_seed_chunk,
                progress=lambda done, total: chunk_done.append(
                    time.perf_counter()))
            wall = time.perf_counter() - t0

        latencies: List[float] = []
        prev = t0
        for stamp, size in zip(chunk_done, _chunk_sizes(sweep)):
            latencies.extend([stamp - prev] * size)
            prev = stamp
        # failures: divergences, oracle disagreements, leg errors (a
        # test whose check raised fails all its legs)
        legs = failed = 0
        for result in sweep.results:
            if isinstance(result, SweepError):
                failed += self.legs_per_test
                continue
            legs += result.num_runs
            failed += (len(result.divergences)
                       + len(result.oracle_disagreements))
        failed += sum(1 for a in answers if a[0] in ("error", "misaligned"))
        return Round(wall_s=wall, legs=legs, latencies_s=latencies,
                     attempted=len(items) * self.legs_per_test,
                     failed=failed, digest=digest_of(answers), inputs=index)


def _chunk_sizes(sweep) -> List[int]:
    total = len(sweep.results)
    return [min(sweep.chunk_size, total - lo)
            for lo in range(0, total, sweep.chunk_size)]


# ----------------------------------------------------------------------
# lockstep_legs
# ----------------------------------------------------------------------

class LockstepLegs(Workload):
    """The fuzzer's technique-off legs as one ``BatchRunner().run`` call:
    generated tests x 4 models x the 4 default run configs.

    Each round draws fresh tests (round ``r`` uses the seed stream
    ``lockstep<r>``).  A 512-lane engine group runs until its slowest
    lane halts, so a call's time follows a few long tests; repeating one
    draw would keep its luck for the whole run.
    """

    name = "lockstep_legs"
    request = ("one test; its lanes finish with the BatchRunner.run call, "
               "so its latency is that call's wall time")
    tests, trace_tests = 180, 60

    def setup(self) -> None:
        from repro.sim.batch import BatchRunner
        from repro.verify import generate_litmus

        self.runner_cls = BatchRunner
        self.generate = generate_litmus
        self.legs = harness_legs(techniques_off_only=True)
        self.first: Optional[Tuple[list, List[Answer]]] = None

    def run_round(self, probe=None, index: int = 0) -> Round:
        tests = [self.generate(s, cfg) for s, cfg in stratified_tests(
            self.seed, self.tests, f"lockstep{index}")]
        jobs: List[object] = []
        maps: List[Dict[str, int]] = []
        for test in tests:
            test_jobs, audit_map = legs_to_jobs(test, self.legs)
            jobs.extend(test_jobs)
            maps.append(audit_map)
        t0 = time.perf_counter()
        results = self.runner_cls().run(jobs)
        wall = time.perf_counter() - t0
        n = len(self.legs)
        answers = [batch_answer(res, maps[i // n])
                   for i, res in enumerate(results)]
        if index == 0:
            self.first = (tests, answers)
        return Round(wall_s=wall, legs=len(results),
                     latencies_s=[wall] * len(tests), attempted=len(jobs),
                     failed=sum(1 for a in answers if a[0] == "error"),
                     digest=digest_of(answers), inputs=index)

    def check(self) -> List[str]:
        """Every outcome of the first round is one the enumerator permits
        (checking every round would take as long as the window)."""
        from repro.consistency.models import get_model

        problems = []
        tests, answers = self.first or ([], [])
        n = len(self.legs)
        for t, test in enumerate(tests):
            permitted = {m: test.outcomes(get_model(m))
                         for m in {leg[0] for leg in self.legs}}
            for (model, _p, _s, rc), answer in zip(
                    self.legs, answers[t * n:(t + 1) * n]):
                if answer[0] not in permitted[model]:
                    problems.append(f"{test.name} {model} {rc.name}: "
                                    f"outcome {answer[0]} not permitted")
        return problems


# ----------------------------------------------------------------------
# serve_cold / serve_warm
# ----------------------------------------------------------------------

def serve_jobs(test, legs) -> List[Dict[str, object]]:
    """One protocol job per leg, shaped as ``repro.verify --server``
    submits them (the test travels inline)."""
    from repro.verify import litmus_to_dict

    litmus = litmus_to_dict(test)
    return [{"test": {"litmus": litmus}, "model": model,
             "prefetch": prefetch, "speculation": speculation,
             "run_config": {"miss_latency": rc.miss_latency,
                            "skew": list(rc.skew),
                            "warm_shared": rc.warm_shared,
                            "line_size": rc.line_size,
                            "max_cycles": rc.max_cycles}}
            for model, prefetch, speculation, rc in legs]


class _Serve(Workload):
    """An in-process ``ServeServer`` (serial executor, ledger and request
    log off, store in a temp dir) answering up to ``nproc`` (at most 2)
    closed-loop callers; each caller submits one test's 64 legs
    pipelined and waits for every reply before taking the next test."""

    request = "one test: its 64 legs submitted pipelined, until the last reply"
    threaded = True
    #: the server counters the last round reported
    COUNTERS = ("cache_hits", "cache_misses", "coalesced", "executed")

    def __init__(self, seed: int, workdir: str, tests: int = 0,
                 executor: Optional[Callable] = None) -> None:
        super().__init__(seed, workdir, tests)
        #: replaces the serial executor (tests inject leg errors here)
        self.executor = executor

    def setup(self) -> None:
        from repro import serve
        from repro.obs import telemetry
        from repro.verify import generate_litmus

        self.serve = serve
        self.telemetry = telemetry
        self.generate = generate_litmus
        self.callers = max(1, min(2, len(os.sched_getaffinity(0))))
        self.legs = harness_legs()
        os.makedirs(self.workdir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        #: every round's (tests, answers) that check() verifies
        self.served: List[Tuple[list, List[List[Answer]]]] = []
        self.server_counters: Dict[str, int] = {}
        self.problems: List[str] = []
        # server start/stop is part of set-up; rounds start their own
        root = os.path.join(self.tmp, "setup")
        self._stop_server(self._start_server(self.serve.ResultStore(root)))

    def _draw(self, stream: str) -> list:
        return [self.generate(s, cfg) for s, cfg in
                stratified_tests(self.seed, self.tests, stream)]

    def _start_server(self, store, probe=None):
        executor = self.executor or self.serve.make_executor("serial")
        if probe is not None:
            executor = probe.wrap("serve.execute", executor)
        before = self.telemetry.enabled()
        handle = self.serve.ServerThread(self.serve.ServeServer(
            store=store, executor=executor, ledger=False,
            request_log=False))
        host, port = handle.start()
        return handle, host, port, before

    def _stop_server(self, started) -> Dict[str, int]:
        handle, host, port, before = started
        with self.serve.ServeClient(host, port) as client:
            counters = client.stats()["counters"]
        handle.stop()
        if any(t.name.startswith("serve-") for t in threading.enumerate()):
            self.problems.append("a server thread did not stop")
        if self.telemetry.enabled() != before:
            self.problems.append("telemetry enable leaked past server stop")
            self.telemetry.enable(before)
        return {name: int(counters.get(name, 0)) for name in self.COUNTERS}

    def _store(self, root: str, probe=None):
        if probe is None:
            return self.serve.ResultStore(root)
        return probe.timed_store(self.serve.ResultStore, root)

    def _pass(self, tests, store, probe=None,
              index: int = 0) -> Tuple[Round, List[List[Answer]]]:
        """One closed-loop pass over ``tests`` on a fresh server."""
        jobs = [serve_jobs(test, self.legs) for test in tests]
        started = self._start_server(store, probe)
        host, port = started[1], started[2]
        answers: List[Optional[List[Answer]]] = [None] * len(jobs)
        latencies: List[float] = []
        errors = [0]
        lock = threading.Lock()
        queue = list(range(len(jobs)))
        clients = [self.serve.ServeClient(host, port)
                   for _ in range(self.callers)]

        def caller(client) -> None:
            while True:
                with lock:
                    if not queue:
                        return
                    t = queue.pop(0)
                t0 = time.perf_counter()
                results = client.submit_many(jobs[t])
                dt = time.perf_counter() - t0
                got = [(r.outcome(), r.cycles) if r.ok
                       else ("error", str(r.error)) for r in results]
                with lock:
                    latencies.append(dt)
                    answers[t] = got
                    errors[0] += sum(1 for r in results if not r.ok)

        threads = [threading.Thread(target=caller, args=(c,))
                   for c in clients]
        try:
            t0 = time.perf_counter()
            for th in threads:
                th.start()
            for th in threads:
                th.join(120.0)
            wall = time.perf_counter() - t0
        finally:
            for client in clients:
                client.close()
            self.server_counters = self._stop_server(started)
        if any(th.is_alive() for th in threads):
            raise RuntimeError("a serve caller did not finish")
        done = [a or [] for a in answers]
        legs = sum(len(a) for a in done)
        attempted = len(jobs) * len(self.legs)
        round_ = Round(wall_s=wall, legs=legs, latencies_s=latencies,
                       attempted=attempted,
                       failed=errors[0] + attempted - legs,
                       digest=digest_of(done), inputs=index)
        return round_, done

    def counters(self) -> Dict[str, float]:
        return dict(self.server_counters)

    def check(self) -> List[str]:
        """Every served outcome is permitted by the enumerator, and the
        first round's answers equal the local campaign's, leg for leg."""
        from repro.consistency.models import get_model

        problems = list(self.problems)
        for tests, answers in self.served:
            for test, per_leg in zip(tests, answers):
                permitted = {m: test.outcomes(get_model(m))
                             for m in {leg[0] for leg in self.legs}}
                if any(answer[0] not in permitted[leg[0]]
                       for leg, answer in zip(self.legs, per_leg)):
                    problems.append(
                        f"{test.name}: served outcome not permitted")
        if self.served:
            tests, answers = self.served[0]
            if answers != local_answers(tests, self.legs):
                problems.append("served answers differ from local runs")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


class ServeCold(_Serve):
    """Every leg misses: simulate, then ``put`` into an empty store.

    Each round serves fresh tests (round ``r`` uses the seed stream
    ``serve<r>``) to a fresh server on a fresh store.
    """

    name = "serve_cold"
    tests, trace_tests = 8, 4

    def run_round(self, probe=None, index: int = 0) -> Round:
        tests = self._draw(f"serve{index}")
        root = tempfile.mkdtemp(prefix="cold-", dir=self.tmp)
        try:
            round_, answers = self._pass(tests, self._store(root, probe),
                                         probe, index)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        self.served.append((tests, answers))
        return round_


class ServeWarm(_Serve):
    """A re-run: a fresh server on the store a cold pass filled, so every
    leg is a ``get``; each answer must equal its cold answer."""

    name = "serve_warm"
    tests, trace_tests = 8, 4

    def prepare(self) -> None:
        self.tests_served = self._draw("serve")
        self.store_root = os.path.join(self.tmp, "store")
        round_, answers = self._pass(
            self.tests_served, self.serve.ResultStore(self.store_root))
        if round_.failed:
            self.problems.append("priming pass failed")
        self.served.append((self.tests_served, answers))

    def run_round(self, probe=None, index: int = 0) -> Round:
        round_, answers = self._pass(
            self.tests_served, self._store(self.store_root, probe), probe)
        cold = self.served[0][1]
        round_.failed += sum(sum(1 for a, b in zip(warm, was) if a != b)
                             for warm, was in zip(answers, cold))
        return round_


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (PaperReport, FuzzCampaign, LockstepLegs, ServeCold, ServeWarm)
}
