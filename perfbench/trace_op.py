"""Run one logchern CLI invocation with spans around each layer's public functions.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``:

    python3 perfbench/trace_op.py <logchern arguments...>

Stdout and the exit code are those of ``python -m logchern <arguments>``.
When the command returns, one line ``perfbench-trace <json>`` goes to stderr
with each traced function's self time and call count, the number of
``GradedPoly`` products and the term count of the largest product.

The wrappers live here, not in the library: each traced function is replaced
in every ``logchern`` namespace that binds it, because ``oracle``, ``report``
and ``cli`` bind names with ``from ... import`` and would keep calling the
original if only the defining module were patched.
"""

from __future__ import annotations

import functools
import json
import sys
import time

MARKER = "perfbench-trace"

# <module>.<function> of the library functions that get a span.
TRACED = (
    "symfunc.schur_in_roots",
    "symfunc.sym_to_power_sums",
    "characters.discriminants",
    "characters.delta_k",
    "characters.delta4t",
    "oracle.base_in_roots",
    "oracle.char_to_roots",
    "formulas.schur_ch3",
    "formulas.sym_power_ch",
    "formulas.ext_power_ch3",
    "formulas.hc_shift_check",
    "report.build_report",
    "mukai.mukai_schur",
    "ring.proportion",
)
# Root span around ``cli.main``; its self time is argument parsing,
# formatting, printing and every library function not in TRACED.
ROOT = "cli"


class Tracer:
    """In-memory spans plus the ring's product counters for one process."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1); filled in when a span ends
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.mul_calls = 0
        self.peak_terms = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever the package binds it, and count products."""
        modules = [m for n, m in sys.modules.items() if n == "logchern" or n.startswith("logchern.")]
        for qualname in TRACED:
            module, func = qualname.split(".")
            original = getattr(sys.modules[f"logchern.{module}"], func)
            wrapped = self.wrap(qualname, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)

        from logchern.ring import GradedPoly

        product = GradedPoly.__mul__

        def counted(a, b):
            out = product(a, b)
            if isinstance(b, GradedPoly):
                self.mul_calls += 1
                self.peak_terms = max(self.peak_terms, len(out.terms))
            return out

        GradedPoly.__mul__ = counted

    def summary(self) -> dict:
        """Self time and call count per span name, plus the product counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions = {name: [0.0, 0] for name in (*TRACED, ROOT)}
        for idx, (name, start, end, _) in enumerate(self.spans):
            functions[name][0] += end - start - child_time[idx]
            functions[name][1] += 1
        return {
            "functions": functions,
            "mul_calls": self.mul_calls,
            "peak_terms": self.peak_terms,
        }


def main(argv: list[str]) -> int:
    import logchern  # noqa: F401  -- the package __init__ imports every module
    from logchern.cli import main as cli_main

    tracer = Tracer()
    tracer.install()
    code = tracer.wrap(ROOT, cli_main)(argv)
    sys.stdout.flush()
    print(MARKER, json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
