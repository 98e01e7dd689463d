"""The library's public surface, and the oracle's independence.

Every module-level function and class in ``src/logchern``, public or
underscore-prefixed, must be referenced somewhere in the package outside its
own definition; a helper that only the tests call belongs in ``tests/``.
Imports and ``__all__`` entries are not references.  The public functions
the benchmark's tracer wraps (``TRACED`` in ``perfbench/trace_op.py``) are
exempt: the root-ring witness is test-only, but the benchmark looks it up by
name.  Each method of the package's classes that is not a dunder must be
referenced too: some attribute access ``.name``, or a string constant
``"name"`` (as in ``getattr``), must refer to it outside its own body.  The
sources are
parsed, never imported, except to check ``__all__`` against the package.

The oracle is the side of every ``verify`` check that knows only the
definitions, so no chain of the package's imports may lead from
``oracle.py`` to a closed formula or to the code that compares against one.
"""

import ast
from pathlib import Path

from test_perfbench_names import traced_names

SRC = Path(__file__).resolve().parent.parent / "src" / "logchern"
METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*METHODS, ast.ClassDef)


def unreferenced_definitions():
    """``<module>.<name>`` of each definition nothing else refers to."""
    defined = []
    # name -> {(module, enclosing top-level definition or None)} that refer to it
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = top.name if isinstance(top, DEFINITIONS) else None
            if owner:
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
    unused = [q for q in unreferenced_definitions() if not _is_private(q) and q not in exempt]
    assert unused == [], f"public but unused by the library: {unused}"


def test_every_private_definition_is_used_by_the_library():
    unused = [q for q in unreferenced_definitions() if _is_private(q)]
    assert unused == [], f"private but unused by the library: {unused}"


def unreferenced_methods():
    """``<module>.<class>.<method>`` of each non-dunder method nothing else refers to."""
    methods = []
    owner = {}  # id of each node inside a method -> that method
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    for module, tree in trees.items():
        classes = (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef))
        for cls in classes:
            for item in cls.body:
                if isinstance(item, METHODS) and not _is_dunder(item.name):
                    qualname = f"{module}.{cls.name}.{item.name}"
                    methods.append((qualname, item.name))
                    owner.update((id(node), qualname) for node in ast.walk(item))
    # name -> {method whose body refers to it, or None}
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(owner.get(id(node)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses.setdefault(node.value, set()).add(owner.get(id(node)))
    return [q for q, name in methods if not uses.get(name, set()) - {q}]


def test_every_method_is_used_by_the_library():
    unused = unreferenced_methods()
    assert unused == [], f"methods unused by the library: {unused}"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_private(qualname):
    return qualname.partition(".")[2].startswith("_")


def test_all_is_what_a_star_import_binds():
    import logchern

    assert [name for name in logchern.__all__ if not hasattr(logchern, name)] == []
    namespace = {}
    exec("from logchern import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(logchern.__all__)


def package_imports(module):
    """The modules of the package that ``<module>.py`` imports anywhere in its source.

    The package itself counts as its ``__init__``.
    """
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is one of the package's own: from . import x, from .x import y
            names = [".".join(filter(None, ("logchern", node.module))) if node.level else node.module]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "logchern":
                found.add(rest.partition(".")[0] or "__init__")
    return found


def test_oracle_imports_reach_no_closed_formula():
    reached, todo = set(), ["oracle"]
    while todo:
        new = package_imports(todo.pop()) - reached
        reached |= new
        todo += new
    assert sorted(reached & {"formulas", "mukai", "report", "cli"}) == []
