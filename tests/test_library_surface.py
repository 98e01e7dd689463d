"""The library's public surface is what the library itself uses.

Every public module-level function and class in ``src/logchern`` must be
referenced somewhere in the package outside its own definition; a helper
that only the tests call belongs in ``tests/``.  Imports and ``__all__``
entries are not references.  The functions the benchmark's tracer wraps
(``TRACED`` in ``perfbench/trace_op.py``) are exempt: the root-ring witness
is test-only, but the benchmark looks it up by name.  The sources are
parsed, never imported.
"""

import ast
from pathlib import Path

from test_perfbench_names import traced_names

SRC = Path(__file__).resolve().parent.parent / "src" / "logchern"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions():
    """``<module>.<name>`` of each public definition nothing else refers to."""
    defined = []
    # name -> {(module, enclosing top-level definition or None)} that refer to it
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, DEFINITIONS) else None
            if owner and not owner.startswith("_"):
                defined.append((path.stem, owner))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    uses.setdefault(node.id, set()).add((path.stem, owner))
                elif isinstance(node, ast.Attribute):
                    uses.setdefault(node.attr, set()).add((path.stem, owner))
    return [
        f"{module}.{name}"
        for module, name in defined
        if not uses.get(name, set()) - {(module, name)}
    ]


def test_every_public_definition_is_used_by_the_library():
    exempt = set(traced_names())
    unused = [q for q in unreferenced_definitions() if q not in exempt]
    assert unused == [], f"public but unused by the library: {unused}"
