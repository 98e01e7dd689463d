"""Entry point of ``python -m logchern`` and of the installed ``logchern`` script."""

import gc
import sys

from logchern.cli import main


def run() -> int:
    """Run the command in ``sys.argv`` and return its exit code, with the collector frozen.

    The process ends right after this returns, so ``gc.freeze()`` moves every
    live object into the permanent generation, which the collections during
    interpreter finalization never visit.  Exit behaves as before: stdout and
    stderr are flushed and ``atexit`` handlers run.  The freeze relies on one
    condition: the package writes only to stdout and stderr, so no open file is
    left in a frozen cycle whose close, and last write, would be skipped.
    Long-lived callers (tests, library users) call ``cli.main``, which never
    freezes, since frozen garbage would stay for the life of their process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
