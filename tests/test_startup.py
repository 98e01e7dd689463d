"""Start-up cost: what importing the CLI loads.

Every command runs in a fresh interpreter, so a module the package imports
is paid for on every run.  ``dataclasses`` drags in ``inspect`` and its
``ast``/``dis``/``tokenize`` chain, and ``importlib.resources`` drags in
pathlib, tempfile and shutil; the package needs none of them.  The package
never imports ``random``, and imports ``json`` only for JSON output and for
the whitelist ``verify`` reads.  The command line is read by the CLI's own
table-driven parser, not by ``argparse``, which with the ``gettext`` it
imports cost more start-up time than most commands' own work.  The check runs under ``-S`` so that modules
a site ``.pth`` file preloads cannot hide a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
UNWANTED = (
    "dataclasses", "inspect", "typing", "importlib.resources", "random", "json", "argparse", "gettext",
)


def test_cli_import_loads_no_heavy_stdlib_module():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    code = f"import sys, logchern.cli; print(sorted(m for m in {UNWANTED!r} if m in sys.modules))"
    run = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
