"""Every benchmark op prints exactly its recorded output.

``perfbench/run.py`` counts an op as failed when its stdout differs from its
file in ``perfbench/expected`` (or ``tests/golden``).  This test runs the same
ops through ``cli.main`` in-process, so a text drift fails the test suite
too, not only the benchmark.  The ops are read from the ``WORKLOADS`` table
of ``run.py``, which is parsed, never imported.
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


def test_the_workloads_are_found():
    assert len(benchmark_ops()) == 12


@pytest.mark.parametrize("argv, expected", benchmark_ops())
def test_op_prints_its_expected_output(capsys, argv, expected):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode() == expected.read_bytes(), f"output drifted from {expected.name}"
