"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

import run
from probe import SpeedProbe

BENCHMARK = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench("--workload", "interactive", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    # the traced run must print exactly what the untraced one does
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(run.WORKLOADS["interactive"])


@pytest.mark.parametrize("traced", [False, True])
def test_wrong_expected_output_counts_as_failed(traced):
    ops = [op for op in run.WORKLOADS["interactive"] if op.name in ("mukai-v212-d3-p2", "lowrank-k4-r3")]
    expected = run.load_expected(ops)
    expected["mukai-v212-d3-p2"] = expected["mukai-v212-d3-p2"].replace(b"primitive: no", b"primitive: yes")
    with SpeedProbe() as probe:
        done = run.run_pass(ops, expected, random.Random(0), traced, run.child_env(), time.perf_counter() + 60, probe)
    assert (done.attempted, done.failed) == (2, 1)


def test_wrong_exit_code_counts_as_failed():
    (op,) = [op for op in run.WORKLOADS["interactive"] if op.name == "lowrank-k4-r3"]
    wrong = run.Op(op.name, op.argv, op.expected_path, expected_code=1)
    with SpeedProbe() as probe:
        done = run.run_pass([wrong], run.load_expected([op]), random.Random(0), False, run.child_env(),
                            time.perf_counter() + 60, probe)
    assert (done.attempted, done.failed) == (1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_hung_op_is_killed_at_the_run_limit():
    start = time.perf_counter()
    with SpeedProbe() as probe, pytest.raises(run.BenchError):
        run.spawn([sys.executable, "-c", "import time; time.sleep(60)"], run.child_env(), start + 0.5, probe)
    assert time.perf_counter() - start < 10


def test_ops_run_on_the_probe_cpu_and_get_a_speed_factor():
    with SpeedProbe() as probe:
        done = run.spawn([sys.executable, "-c", "import os; print(sorted(os.sched_getaffinity(0)))"],
                         run.child_env(), time.perf_counter() + 60, probe)
        probe_pid = probe._pid
    assert done.code == 0 and done.stdout.decode().strip() == str([probe.cpu])
    assert 0 < done.factor < 100 and done.ref_s > 0
    with pytest.raises(ChildProcessError):  # the probe was stopped and reaped
        os.waitpid(probe_pid, os.WNOHANG)
