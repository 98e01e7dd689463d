"""logchern benchmark: fixed CLI workloads with checked outputs and per-layer traces.

Run from the root of a checkout (no build step; the package is imported
from ``src``):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each op is one ``python -m logchern ...`` invocation in a fresh interpreter,
run by a closed loop with one client: the next op starts when the previous
one has exited.  The seed only shuffles the op order of each pass; every
seed checks against the same expected outputs.  Every op's exit code and
stdout are compared with the outputs recorded in ``perfbench/expected`` (or
``tests/golden`` for the three golden-file commands); a mismatch counts as
failed.

Every op runs pinned to one CPU next to a speed probe (``probe.py``), and
times are reported as reference times: CPU time scaled by the probe's rate,
which takes the shared host's changing speed out of them.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced passes with passes run through
``trace_op.py`` and reports the per-layer metrics.  ``--workload all`` runs
every workload in turn and prefixes each metric with its workload name.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from probe import SpeedProbe
from trace_op import MARKER, TRACED

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
GOLDEN = CHECKOUT / "tests" / "golden"
EXPECTED = BENCH_DIR / "expected"

SETUP_SAMPLES = 15  # fresh-interpreter imports timed per run, spread over the run
RUN_LIMIT_S = 150  # a run still busy after this long is killed and gives no result


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    expected_path: Path
    expected_code: int = 0


def _op(name: str, args: str, golden: str | None = None) -> Op:
    path = GOLDEN / golden if golden else EXPECTED / f"{name}.out"
    return Op(name, tuple(args.split()), path)


WORKLOADS: dict[str, tuple[Op, ...]] = {
    # Many small products: 257 verification records plus the claim table.
    "sweep": (_op("verify-r6-s8", "verify --max-rank 6 --max-size 8"),),
    # Few but huge products: large-rank oracle evaluation and discriminants.
    "high_rank": (
        _op("ch-r16-p31-d5-oracle", "ch --rank 16 --partition 3,1 --max-degree 5 --method oracle"),
        _op("delta-r12-p21-k5", "delta --rank 12 --partition 2,1 --k 5"),
    ),
    # Short commands: start-up, import and the scalar hc-check grid.
    "interactive": (
        _op("ch-r2-p2-d2-both", "ch --rank 2 --partition 2 --max-degree 2 --method both", "ch_sym2_rank2.txt"),
        _op("ch-r4-p21-d3-oracle-json", "ch --rank 4 --partition 2,1 --max-degree 3 --format json --method oracle"),
        _op("delta-r2-p2-k2", "delta --rank 2 --partition 2 --k 2", "delta_sym2_rank2.txt"),
        _op("delta4-r3-m2", "delta4 --rank 3 --m 2"),
        _op("lowrank-k4-r3", "lowrank --k 4 --rank 3"),
        _op("mukai-v212-d3-p2", "mukai --v 2,1,2 --d 3 --partition 2", "mukai_sym2_d3.txt"),
        _op("hc-check-k2-r4", "hc-check --k 2 --rank 4"),
        _op("hc-check-k3-r4", "hc-check --k 3 --rank 4"),
        _op("ch-r6-p221-d3-both", "ch --rank 6 --partition 2,2,1 --max-degree 3 --method both"),
    ),
}

END_TO_END_UNITS = {"pass_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in TRACED for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "ring.GradedPoly.mul.calls": "count",
    "ring.GradedPoly.peak_terms": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """No result: the checkout lacks the program or its expected outputs, or a run hung."""


@dataclass
class Run:
    """Outcome of one child process."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    factor: float  # probe rate while it ran, over probe.REFERENCE_RATE
    rss_mb: float

    @property
    def ref_s(self) -> float:
        """CPU time scaled to the probe's reference speed."""
        return self.cpu_s * self.factor


@dataclass
class Pass:
    """One pass over a workload's ops."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    layers: Counter = field(default_factory=Counter)


def child_env() -> dict[str, str]:
    """The caller's environment without its PYTHON* settings, importing from ``src``.

    Dropping them keeps settings such as PYTHONDONTWRITEBYTECODE or
    PYTHONUNBUFFERED from changing what is measured.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str], deadline: float, probe: SpeedProbe) -> Run:
    """Run argv to completion in the checkout on the probe's CPU; time it and read its peak RSS.

    A child still running at ``deadline`` (a ``perf_counter`` value) is killed
    and reaped, and BenchError is raised.
    """
    start = time.perf_counter()
    killed = False
    proc = subprocess.Popen(argv, cwd=CHECKOUT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            preexec_fn=lambda: os.sched_setaffinity(0, {probe.cpu}))
    # not before Popen: the probe has the CPU to itself until the child is there
    probe.start()
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0 and not killed:
                    proc.kill()
                    killed = True
                for key, _ in sel.select(None if killed else remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        # wait4, not Popen.wait, so the child's own peak RSS comes back with it
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        factor = probe.stop()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    if killed:
        raise BenchError(f"{' '.join(argv[1:])} was still running after the {RUN_LIMIT_S} s run limit")
    return Run(proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
               wall, usage.ru_utime + usage.ru_stime, factor, usage.ru_maxrss / 1024)


def load_expected(ops) -> dict[str, bytes]:
    if not (SRC / "logchern" / "cli.py").is_file():
        raise BenchError(f"no logchern package under {SRC}")
    try:
        return {op.name: op.expected_path.read_bytes() for op in ops}
    except OSError as exc:
        raise BenchError(f"missing expected output: {exc}") from exc


def parse_trace(stderr: bytes) -> dict | None:
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(MARKER + " "):
            return json.loads(line[len(MARKER) + 1:])
    return None


def run_pass(ops, expected: dict[str, bytes], rng: random.Random, traced: bool, env, deadline: float,
             probe: SpeedProbe) -> Pass:
    """Run every op once in a seeded order; count and never raise on mismatches."""
    order = list(ops)
    rng.shuffle(order)
    out = Pass()
    for op in order:
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "trace_op.py"), *op.argv]
        else:
            argv = [sys.executable, "-m", "logchern", *op.argv]
        run = spawn(argv, env, deadline, probe)
        trace = parse_trace(run.stderr) if traced else None
        out.attempted += 1
        out.wall_s += run.wall_s
        out.cpu_s += run.cpu_s
        out.ref_s += run.ref_s
        out.rss_mb = max(out.rss_mb, run.rss_mb)
        ok = run.code == op.expected_code and run.stdout == expected[op.name]
        if not ok or (traced and trace is None):
            out.failed += 1
            print(f"FAILED {op.name}: exit {run.code}, stdout "
                  f"{'matches' if run.stdout == expected[op.name] else 'differs'}", file=sys.stderr)
        if trace is not None:
            add_trace(out.layers, trace, run.factor)
    return out


def add_trace(layers: Counter, trace: dict, factor: float) -> None:
    """Add one traced op's counts, and its self times scaled like ``Run.ref_s``."""
    for name, (self_s, calls) in trace["functions"].items():
        layers[f"{name}.self_s"] += self_s * factor
        layers[f"{name}.calls"] += calls
    layers["ring.GradedPoly.mul.calls"] += trace["mul_calls"]
    layers["ring.GradedPoly.peak_terms"] = max(layers["ring.GradedPoly.peak_terms"], trace["peak_terms"])


def time_setup(env, deadline: float, probe: SpeedProbe) -> float:
    run = spawn([sys.executable, "-c", "import logchern.cli"], env, deadline, probe)
    if run.code != 0:
        raise BenchError(f"import logchern.cli failed: {run.stderr.decode(errors='replace').strip()}")
    return run.ref_s


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run rounds of passes for about ``seconds``; return the result object."""
    ops = WORKLOADS[workload]
    expected = load_expected(ops)
    with SpeedProbe() as probe:
        return _measure(workload, ops, expected, random.Random(seed), seconds, trace, probe)


def _measure(workload, ops, expected, rng, seconds, trace, probe) -> dict:
    env = child_env()
    deadline = time.perf_counter() + RUN_LIMIT_S
    time_setup(env, deadline, probe)  # untimed: lets the interpreter write bytecode caches first
    setup: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    rounds: list[float] = []

    def time_setup_due(elapsed: float) -> None:
        while len(setup) < 1 + SETUP_SAMPLES * min(elapsed / seconds, 1):
            setup.append(time_setup(env, deadline, probe))

    # a round starts only if it is expected to end by the deadline, give or take half a round
    while not rounds or time.perf_counter() - start + statistics.median(rounds) / 2 < seconds:
        round_start = time.perf_counter()
        time_setup_due(round_start - start)
        # alternate which side goes first
        for is_traced in ((False, True) if len(rounds) % 2 == 0 else (True, False)) if trace else (False,):
            (traced if is_traced else plain).append(run_pass(ops, expected, rng, is_traced, env, deadline, probe))
        rounds.append(time.perf_counter() - round_start)
    time_setup_due(seconds)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for label, values in (("wall", [p.wall_s for p in plain]), ("CPU", [p.cpu_s for p in plain]),
                          ("reference", [p.ref_s for p in plain])):
        q1, med, q3 = quartiles(values)
        print(f"{workload}: pass {label} time median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f}, "
              f"n={len(values)}: {' '.join(f'{v:.4f}' for v in values)}")
    pass_ref = statistics.median(p.ref_s for p in plain)
    if trace:
        # counts repeat exactly, so median_low keeps them whole numbers
        metrics = {name: (statistics.median_low if unit == "count" else statistics.median)(
                       [p.layers[name] for p in traced])
                   for name, unit in PER_LAYER_UNITS.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = statistics.median(p.ref_s for p in traced) - pass_ref
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "pass_ref_s": pass_ref,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(p.rss_mb for p in plain),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{workload}: {name} = {value} {units[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
