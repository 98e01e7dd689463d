"""Every library function the benchmark's tracer wraps must still exist.

``perfbench/trace_op.py`` names its spans as ``<module>.<function>`` and
looks each one up when it installs them, so a renamed or deleted function
makes every traced benchmark op fail.  The file is parsed, never imported.
"""

import ast
import importlib
from pathlib import Path

TRACE_OP = Path(__file__).resolve().parent.parent / "perfbench" / "trace_op.py"


def traced_names():
    tree = ast.parse(TRACE_OP.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED tuple in trace_op.py")


def test_traced_names_resolve_to_callables():
    names = traced_names()
    assert len(names) == 14
    for qualname in names:
        module, func = qualname.split(".")
        target = getattr(importlib.import_module(f"logchern.{module}"), func, None)
        assert callable(target), qualname
