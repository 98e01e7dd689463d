"""The one table of pinned outputs: every pinned command prints exactly its file.

Each file in ``tests/golden`` and ``perfbench/expected`` is the recorded
stdout of one command, and each is compared with that command's stdout here,
through ``cli.main`` in-process, by exactly one case.  Most cases are the ops
of the benchmark: ``perfbench/run.py`` counts an op as failed when its stdout
differs from its file, and its ``WORKLOADS`` table is parsed here, never
imported, so a text drift fails the test suite too, not only the benchmark.
The rest are the pinned commands the benchmark does not run.

The table imports ``logchern`` from wherever the interpreter finds it, so it
also checks an installed package when run from outside the checkout:

    cd /tmp && python3 -m pytest <checkout>/tests/test_benchmark_outputs.py
"""

import ast
from pathlib import Path

import pytest

from logchern.cli import main

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
EXPECTED = ROOT / "perfbench" / "expected"
GOLDEN = ROOT / "tests" / "golden"


def benchmark_ops():
    """(argv, expected-output path), with the op name as id, per ``_op(...)`` in WORKLOADS."""
    tree = ast.parse(RUN_PY.read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "WORKLOADS"
    )
    ops = []
    for call in ast.walk(table):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_op":
            name, args, *golden = (ast.literal_eval(arg) for arg in call.args)
            path = GOLDEN / golden[0] if golden else EXPECTED / f"{name}.out"
            ops.append(pytest.param(args.split(), path, id=name))
    return ops


def _pin(name, args, golden):
    return pytest.param(args.split(), GOLDEN / golden, id=name)


PINS = benchmark_ops() + [
    # many-row partitions, whose Giambelli determinant is only as large as the Durfee square
    _pin("delta-14-rows", "delta --rank 16 --partition 14,5,5,5,5,5,5,5,4,3,3,2,2,1 --k 5", "delta_14_rows.txt"),
    _pin("delta-12-rows", "delta --rank 16 --partition 12,11,9,8,6,5,4,3,2,2,1,1 --k 5", "delta_12_rows.txt"),
    # the JSON of the claim table, with the whitelist's flags
    _pin("verify-r2-s2-json", "verify --max-rank 2 --max-size 2 --format json", "verify_r2_s2.json"),
]


def test_the_workloads_are_found():
    assert len(benchmark_ops()) == 12


def test_every_pinned_file_is_read_by_exactly_one_case():
    pinned = sorted([*GOLDEN.iterdir(), *EXPECTED.iterdir()])
    assert len(pinned) == 15
    assert sorted(pin.values[1] for pin in PINS) == pinned


@pytest.mark.parametrize("argv, expected", PINS)
def test_op_prints_its_expected_output(capsys, argv, expected):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == expected.read_bytes(), f"output drifted from {expected.name}"
