"""The benchmark's own tests: ``python -m pytest -q perfbench``.

They run the workloads in-process on a few generated tests, so they
check the benchmark's plumbing, not its figures.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import run

run._import_paths()

from perfbench.instrument import layer_of  # noqa: E402
from perfbench.workloads import WORKLOADS, ServeCold  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_and_workload_names_use_the_allowed_characters():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def _probed(name, tmp_path, tests):
    workload = WORKLOADS[name](5, str(tmp_path / name), tests=tests)
    workload.setup()
    workload.prepare()
    try:
        probed, metrics, _tracer = run.probed_round(workload)
    finally:
        workload.close()
    # everything but the busy seconds is a count that must repeat, save
    # how many executor batches the server's dispatcher formed: that
    # depends on how many legs had arrived when it woke
    counters = {k: v for k, v in metrics.items()
                if not k.endswith("busy_s") and k != "serve.execute.calls"}
    return probed.digest, counters


@pytest.mark.parametrize("name, tests", [
    ("fuzz_campaign", 3), ("lockstep_legs", 3), ("serve_cold", 1),
    ("serve_warm", 1)])
def test_deterministic_counters_repeat_exactly(name, tmp_path, tests):
    first = _probed(name, tmp_path / "a", tests)
    second = _probed(name, tmp_path / "b", tests)
    assert first == second
    digest, counters = first
    assert counters["sim.cycles"] > 0 or counters["serve.cache_hits"] > 0


def test_counters_come_from_every_leg(tmp_path):
    _digest, counters = _probed("fuzz_campaign", tmp_path, 3)
    legs = 3 * 64
    assert counters["verify.legs"] == legs
    assert (counters["sim.batch.lanes_batched"]
            + counters["sim.batch.lanes_fallback"]) == legs
    assert counters["system.run_workload.calls"] == (
        counters["sim.batch.lanes_fallback"])


def _raising_executor(specs, telemetry=None):
    raise RuntimeError("injected leg error")


def test_fail_ratio_is_nonzero_when_a_leg_errors(tmp_path, capsys):
    workload = ServeCold(5, str(tmp_path), tests=1,
                         executor=_raising_executor)
    workload.setup()
    try:
        rounds = [workload.run_round()]
    finally:
        workload.close()
    attempted, failed = run.tally(rounds, [])
    assert attempted == 64
    assert failed == 64


def test_a_differing_round_digest_counts_as_failed(tmp_path, capsys):
    workload = WORKLOADS["lockstep_legs"](5, str(tmp_path), tests=1)
    workload.setup()
    rounds = [workload.run_round(), workload.run_round()]
    assert run.tally(rounds, []) == (32, 0)
    rounds[1].digest = "0" * 64
    assert run.tally(rounds, []) == (32, 1)
    assert "DIFFER" in capsys.readouterr().out


def test_tail_is_the_eleventh_largest_sample():
    value, percentile, count = run.tail(list(range(40)))
    assert (value, count) == (29, 40)
    assert percentile == 75.0
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


def test_layers_follow_the_source_tree():
    src = os.path.join(run.ROOT, "src", "repro")
    assert layer_of(os.path.join(src, "cpu", "lsu.py")) == "cpu"
    assert layer_of(os.path.join(src, "sim", "batch", "engine.py")) == \
        "sim.batch.engine"
    assert layer_of(os.path.join(src, "sim", "batch", "jobs.py")) == \
        "sim.batch.runner"
    assert layer_of(os.path.join(src, "sim", "kernel.py")) == "sim"
    assert layer_of(os.path.join(src, "analysis", "axiomatic",
                                 "checker.py")) == "analysis.axiomatic"
    assert layer_of(os.path.join(src, "report.py")) == "report"
    assert layer_of(run.__file__) == "bench"
    assert layer_of(json.__file__) == "other"
    assert layer_of("~") == "other"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_round_is_scaled_by_a_kernel_sample_around_it(tmp_path):
    workload = WORKLOADS["lockstep_legs"](5, str(tmp_path), tests=1)
    workload.setup()
    rounds = run.run_window(workload, seconds=0.5)
    assert rounds and all(r.kernel_s > 0 for r in rounds)
