"""Command-line surface: compute characters and discriminants, verify, report.

The command line is read against one table, ``COMMANDS``: each command's
help line, handler and options, each option with its converter and its
default or ``_REQUIRED``.  An option is ``--opt value`` or ``--opt=value``;
the token after a flag is its value even when it starts with ``-`` (so
``--t -7/2`` works), but never when it starts with ``--``.  A unique prefix
of a flag stands for it, and a repeated option keeps its last value.
``-h``/``--help`` prints the program's or one command's help from the same
table.  Every command runs in a fresh interpreter, which is why the parser is
not ``argparse``: importing and building that cost more than most commands'
own work.

Exit codes: 0 success, 1 verification failure, 2 usage error (one line,
``error: <reason>``, on stderr), 141 (128 + SIGPIPE) when the reader of
stdout goes away before the output is written.  Rationals are always
printed exactly as num/den; there is no floating point output.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
from math import comb
from types import SimpleNamespace

from logchern.characters import (
    delta_k,
    from_chern_classes,
    generic_discriminants,
    modified_delta,
    normal_form,
)
from logchern.formulas import hc_shift_check, schur_ch3, sym_power_ch
from logchern.mukai import MukaiVector, is_primitive, mukai_schur
from logchern.oracle import (
    MAX_SWEEP_RANK,
    MAX_SWEEP_SIZE,
    oracle_schur_ch,
    sweep,
    verify_delta4_proportionality,
)
from logchern.report import build_report, judge
from logchern.ring import GradedPoly, PolyRing, graded_generators, proportion
from logchern.symfunc import INT_RE, Partition

MAX_DEGREE = 5
# Largest rank ch, delta, delta4, lowrank, mukai and hc-check accept.  The
# oracle's cost does not grow with the rank, but a partition may have up to
# rank parts, and the Jacobi-Trudi determinant's expansion grows with its
# rows.  It takes the shorter of the partition and its conjugate, which can
# still have as many rows as the rank: 12,11,9,8,6,5,4,3,2,2,1,1 (size 64)
# takes 12 and the hook 16,1^15 takes 16.  The costliest pinned command,
# delta --rank 16 --partition 12,11,9,8,6,5,4,3,2,2,1,1 --k 5, makes 4,062
# products (about 0.5 s of CPU in a fresh process, Python 3.11 on a 2-CPU
# VM).  The Weyl dimension product grows like a superfactorial of the rank,
# and hc-check evaluates its O(r) polynomials at each of the C(r+k, k)
# simplex points.  Rank 16 is the largest any documented command uses.
MAX_RANK = 16
# Largest partition size ch and delta accept, and largest m for delta4:
# Newton's recurrence takes O(|alpha|^2) products of growing fractions
# (size 300 takes about 4 s at degree 5 on one core of a 2-CPU VM).
MAX_SIZE = 64
# delta4 --t is an integer or p/q with at most this many digits in p and in q.
# Fraction() alone would also read decimals and exponents, and build a
# million-digit integer from "1e1000000".
MAX_T_DIGITS = 50
# compiled on first use, by re's own cache: only delta4 --t reads it
_RATIONAL = r"\s*-?([0-9]+)(?:/([0-9]+))?\s*"
# Exit status when stdout's reader goes away: 128 + SIGPIPE, as a shell
# reports a process that SIGPIPE killed.
EXIT_BROKEN_PIPE = 141


def _in_range(name: str, value: int, top: int) -> int:
    if not 1 <= value <= top:
        raise ValueError(f"{name} must lie in 1..{top}, got {value}")
    return value


def _rank(r: int) -> int:
    return _in_range("rank", r, MAX_RANK)


def _size(n: int) -> int:
    if n > MAX_SIZE:
        raise ValueError(f"partition size must be at most {MAX_SIZE}, got {n}")
    return n


def _partition(text: str, r: int) -> Partition:
    alpha = Partition.parse(text)
    _size(alpha.size)
    if len(alpha) > r:
        raise ValueError(f"partition {alpha} has {len(alpha)} parts, more than the rank {r}")
    return alpha


def _fraction(text: str) -> Fraction:
    """Option converter for an exact rational: an integer or p/q, such as 3 or 7/2."""
    match = re.fullmatch(_RATIONAL, text)
    if match is not None and max(len(digits) for digits in match.groups("")) > MAX_T_DIGITS:
        raise ValueError(f"more than {MAX_T_DIGITS} digits: {text!r}")
    if match is None or match[2] is not None and int(match[2]) == 0:
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(text)


def _character_lines(ch: GradedPoly) -> list[str]:
    lines = [f"rank: {ch.constant()}"]
    for k in range(1, ch.ring.truncation + 1):
        comp = ch.component(k)
        if not comp.is_zero():
            lines.append(f"ch{k}: {comp.text()}")
    return lines


def _character_json(ch: GradedPoly) -> dict:
    comps = ((k, ch.component(k)) for k in range(1, ch.ring.truncation + 1))
    ch_k = {str(k): comp.compact() for k, comp in comps if not comp.is_zero()}
    return {"rank": str(ch.constant()), "D": ch.ring.truncation, "ch": ch_k}


def _closed_character(alpha: Partition, r: int, degree: int) -> GradedPoly:
    """The closed formula's character, in normal form like the oracle's."""
    if len(alpha) <= 1:
        return normal_form(sym_power_ch(alpha.size, r, degree), r)
    if degree > 3:
        raise ValueError(
            "closed formulas for general partitions cover degree <= 3 only "
            "(single rows go through the symmetric-power sum); use --method oracle"
        )
    if degree > 2 and r < 3:
        raise ValueError(
            "the degree-3 closed table degenerates for rank <= 2 (factor r-2); "
            "use --method oracle or --max-degree 2"
        )
    return schur_ch3(alpha, r, up_to=degree)


def cmd_ch(args) -> int:
    r = _rank(args.rank)
    alpha = _partition(args.partition, r)
    degree = args.max_degree
    out: dict = {}
    if args.method in ("closed", "both"):
        out["closed"] = _closed_character(alpha, r, degree)
    if args.method in ("oracle", "both"):
        out["oracle"] = oracle_schur_ch(alpha, r, degree)
    if args.method == "both":
        out["match"] = out["closed"] == out["oracle"]
    if args.format == "json":
        # only JSON output needs json, and its import costs every command start-up
        import json

        doc = {
            key: (_character_json(val) if isinstance(val, GradedPoly) else val)
            for key, val in out.items()
        }
        print(json.dumps(doc if args.method == "both" else doc[args.method], indent=2))
    else:
        for key in ("closed", "oracle"):
            if key in out:
                if args.method == "both":
                    print(f"[{key}]")
                print("\n".join(_character_lines(out[key])))
        if "match" in out:
            print(f"match: {'yes' if out['match'] else 'NO'}")
    return 0 if out.get("match", True) else 1


def cmd_delta(args) -> int:
    r, k = _rank(args.rank), args.k
    alpha = _partition(args.partition, r)
    d_schur = delta_k(oracle_schur_ch(alpha, r, k), k)
    d_base = generic_discriminants(r, k)[k - 1]
    print(f"Delta_{k}(S^({alpha}) E) = {d_schur.text()}")
    print(f"Delta_{k}(E) = {d_base.text()}")
    ok, lam = proportion(d_schur, d_base)
    if ok and lam is not None:
        print(f"factor: {lam}")
    elif ok:
        print("factor: both classes vanish")
    else:
        print(f"not a scalar multiple of Delta_{k}(E)")
    return 0


def cmd_verify(args) -> int:
    report = sweep(
        _in_range("--max-rank", args.max_rank, MAX_SWEEP_RANK),
        _in_range("--max-size", args.max_size, MAX_SWEEP_SIZE),
        args.max_degree,
    )
    rows = build_report()
    flags, unexpected = judge(rows)
    failed = report.failed > 0 or bool(unexpected)
    if args.format == "json":
        import json

        fields = ("claim", "paper_location", "printed_value", "measured_value", "status")
        doc = {
            **report.to_json_dict(),
            "discrepancies": [{name: getattr(row, name) for name in fields} for row in rows],
        }
        if unexpected:
            doc["unexpected"] = unexpected
        print(json.dumps(doc, indent=2))
        return 1 if failed else 0
    print(
        f"sweep: {report.cases} cases, {report.passed} passed, {report.failed} failed"
    )
    for rec in report.records:
        for chk in rec.failures():
            print(
                f"  FAIL alpha=({rec.alpha}) r={rec.r}: {chk.claim}\n"
                f"       lhs: {chk.measured_value}\n       rhs: {chk.printed_value}"
            )
    print()
    print("claim table (printed vs measured):")
    for row, flag in zip(rows, flags):
        print(
            f"[{flag}] {row.claim}\n    where:    {row.paper_location}\n"
            f"    printed:  {row.printed_value}\n    measured: {row.measured_value}"
        )
    if unexpected:
        print()
        noun = "discrepancy" if len(unexpected) == 1 else "discrepancies"
        print(f"{len(unexpected)} {noun} the whitelist does not account for -- failing")
        for line in unexpected:
            print(f"  {line}")
    return 1 if failed else 0


def cmd_delta4(args) -> int:
    r = _rank(args.rank)
    res = verify_delta4_proportionality(_size(args.m), r, args.t)
    print(f"Delta_(4,{res.t})(S^{args.m} V) vs Delta_(4,{res.t})(V) at rank {args.rank}:")
    if res.is_proportional:
        print(f"proportional: yes, ratio {res.lam}")
    else:
        print("proportional: NO")
    print(f"printed coefficient f4*(r_m/r)^4: {res.printed}")
    return 0


def cmd_lowrank(args) -> int:
    k, r = args.k, _rank(args.rank)
    ring = PolyRing(graded_generators("c", k), k)
    classes = [ring.gen(f"c{i}") for i in range(1, min(r, k) + 1)]
    bundle = from_chern_classes(r, classes, ring)
    md = modified_delta(bundle, k)
    label = f"modified Delta_{k} at rank {r}"
    if md.is_zero():
        print(f"{label}: vanishes identically")
    else:
        print(f"{label}: {md.text()}")
    return 0


def cmd_mukai(args) -> int:
    parts = args.v.split(",")
    if len(parts) != 3 or not all(INT_RE.fullmatch(x) for x in parts):
        raise ValueError(f"cannot parse Mukai vector {args.v!r}; expected r,c,s")
    r, c, s = (int(x) for x in parts)
    v = MukaiVector(_rank(r), c, Fraction(s), args.d)
    alpha = _partition(args.partition, r)
    out = mukai_schur(v, alpha)
    print(f"v(E) = {v}, H^2 = {2 * args.d}")
    print(f"v(S^({alpha}) E) = {out}")
    if out.s.denominator == 1:
        print(f"primitive: {'yes' if is_primitive(out) else 'no'}")
    else:
        print("primitive: not applicable (vector is not integral)")
    return 0


def cmd_hc_check(args) -> int:
    k, r = args.k, _rank(args.rank)
    failures = hc_shift_check(k, r)
    simplex = f"{comb(r + k, k)} points of the degree-{k} simplex"
    if failures:
        print(f"FAILED on the {simplex}:")
        for f in failures:
            print(f"  {f}")
        return 1
    if r <= 4:
        # the proof covers the grid {-3..3}^r, and the benchmark's expected
        # outputs pin these lines
        print(f"shift and translation identities hold on {7**r} grid points (k={k}, r={r})")
    else:
        print(f"shift and translation identities hold: proved on the {simplex} (k={k}, r={r})")
    return 0


# The command table: name -> (help line, handler, options).  An option is
# (flag, converter, default, note): the converter is int, str or _fraction,
# or the tuple or range of the values the option accepts, each converted
# like the first; the default _REQUIRED makes the option mandatory.
_REQUIRED = object()
_RANK = ("--rank", int, _REQUIRED, f"1 to {MAX_RANK}")
COMMANDS = {
    "ch": ("Chern character of a Schur functor", cmd_ch, (
        _RANK,
        ("--partition", str, _REQUIRED, "e.g. 2,1 (empty or 0 for the trivial functor)"),
        ("--max-degree", range(1, MAX_DEGREE + 1), 3, ""),
        ("--method", ("closed", "oracle", "both"), "both", ""),
        ("--format", ("text", "json"), "text", ""),
    )),
    "delta": ("discriminant of a Schur functor and its scaling factor", cmd_delta, (
        _RANK,
        ("--partition", str, _REQUIRED, ""),
        ("--k", range(1, MAX_DEGREE + 1), 2, ""),
    )),
    "verify": ("oracle-vs-closed sweep plus the measured claim table", cmd_verify, (
        ("--max-rank", int, 5, f"1 to {MAX_SWEEP_RANK}"),
        ("--max-size", int, 6, f"1 to {MAX_SWEEP_SIZE}"),
        ("--max-degree", (1, 2, 3), 3, ""),
        ("--format", ("text", "json"), "text", ""),
    )),
    "delta4": ("degree-4 proportionality for a symmetric power", cmd_delta4, (
        _RANK,
        ("--m", int, _REQUIRED, ""),
        ("--t", _fraction, None, "parameter t, an integer or p/q (default: rank)"),
    )),
    "lowrank": ("modified degree-4/5 class of a generic low-rank bundle", cmd_lowrank, (
        ("--k", (4, 5), _REQUIRED, ""),
        _RANK,
    )),
    "mukai": ("Mukai vector of a Schur bundle on a K3 surface", cmd_mukai, (
        ("--v", str, _REQUIRED, "input vector r,c,s"),
        ("--d", int, _REQUIRED, "H^2 = 2d"),
        ("--partition", str, _REQUIRED, ""),
    )),
    "hc-check": ("shifted-variable and translation identities", cmd_hc_check, (
        ("--k", (2, 3), _REQUIRED, ""),
        _RANK,
    )),
}


class _UsageError(Exception):
    """A malformed command line; main prints it as one line and exits 2."""


def _help(command: str | None) -> str:
    """The help text of one command, or of the program when command is None."""
    if command is None:
        width = max(map(len, COMMANDS))
        return "\n".join([
            "usage: logchern <command> [--option value | --option=value ...]",
            "",
            "Exact Chern characters and discriminants of Schur functors,",
            "with brute-force verification.",
            "",
            "commands:",
            *(f"  {name:<{width}}  {summary}" for name, (summary, _, _) in COMMANDS.items()),
            "",
            "Run 'logchern <command> --help' for the options of a command.",
            "",
        ])
    summary, _, options = COMMANDS[command]
    width = max(len(flag) for flag, *_ in options)
    rows = []
    for flag, convert, default, note in options:
        about = [note] if note else []
        if isinstance(convert, (tuple, range)):
            about.append(f"one of {', '.join(map(str, convert))}")
        if default is _REQUIRED:
            about.append("required")
        elif default is not None:
            about.append(f"default {default}")
        rows.append(f"  {flag:<{width}}  {'; '.join(about)}")
    return "\n".join(
        [f"usage: logchern {command} [--option value ...]", "", summary, "", "options:", *rows, ""]
    )


def _print(text: str) -> int:
    sys.stdout.write(text)
    return 0


def _flag(token: str, flags) -> str:
    """The flag or --help that token's name before any '=' is, or uniquely begins."""
    name = token.partition("=")[0]
    if name == "-h":
        return "--help"
    if name.startswith("--") and name != "--":
        if name in flags:
            return name
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) == 1:
            return matches[0]
        if matches:
            raise _UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
    raise _UsageError(f"unrecognized arguments: {token}")


def _value(flag: str, convert, text: str):
    """text converted for flag's option; a usage error when it does not fit."""
    choices = convert if isinstance(convert, (tuple, range)) else None
    if choices is not None:
        convert = type(choices[0])
    if convert is int and not INT_RE.fullmatch(text):
        # int() alone would also read "1_0", "+3" and non-ASCII digits
        raise _UsageError(f"argument {flag}: invalid int value: {text!r}")
    try:
        value = convert(text)
    except ValueError as exc:
        raise _UsageError(f"argument {flag}: {exc}") from None
    if choices is not None and value not in choices:
        listed = ", ".join(map(str, choices))
        raise _UsageError(f"argument {flag}: invalid choice: {text!r} (choose from {listed})")
    return value


def _parse(argv: list[str]):
    """(handler, argument) for argv: a command's handler and its options as
    attributes, or _print and a help text."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        if command.startswith("-"):
            _flag(command, ("--help",))  # a usage error unless it asks for help
            return _print, _help(None)
        got = f", got {command!r}" if argv else ""
        raise _UsageError(f"expected a command, one of {', '.join(COMMANDS)}{got}")
    tokens = iter(argv[1:])
    _, handler, options = COMMANDS[command]
    spec = {flag: (convert, default) for flag, convert, default, _ in options}
    values = {}
    for token in tokens:
        flag = _flag(token, (*spec, "--help"))
        if flag == "--help":
            return _print, _help(command)
        _, joined, text = token.partition("=")
        if not joined:
            # the next token is the value even when it starts with "-", as
            # "--t -7/2" does, but no flag is ever taken as one
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise _UsageError(f"argument {flag}: expected one value")
        values[flag] = _value(flag, spec[flag][0], text)
    missing = [flag for flag, (_, default) in spec.items() if default is _REQUIRED and flag not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(
        **{flag[2:].replace("-", "_"): values.get(flag, default) for flag, (_, default) in spec.items()}
    )


def main(argv=None) -> int:
    try:
        try:
            handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
            code = handler(args)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            raise SystemExit(2) from None
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        finally:
            # also when a usage error leaves by SystemExit, so that buffered
            # output into a closed stdout fails here, not at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader went away: send what is still buffered to devnull,
        # so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
