"""Command-line surface: compute characters and discriminants, verify, report.

The command line is read against one table, ``COMMANDS``: each command's
help line, handler and options, each option with its converter and its
default or ``_REQUIRED``.  A converter that is a tuple gives the option's
choices, a ``range`` its bounds, and a function reads a text format (a
partition, a Mukai vector, a rational), which the package reads nowhere
else.  ``--help`` prints the choices and bounds from the table alone.  An
option is ``--opt value`` or ``--opt=value``; the token after a flag is its
value even when it starts with ``-`` (so ``--t -7/2`` works), but never when
it starts with ``--``.  A unique prefix of a flag stands for it.  One pass
keeps each option's last text and stops at ``-h``/``--help``, whatever else
the line holds; then the missing options are named, and then each given
text is converted once, in table order.  Every command runs in a fresh
interpreter, which is why the parser is not ``argparse``: importing and
building that cost more than most commands' own work.

Exit codes: 0 success, 1 verification failure, 2 for every refusal (one
line, ``error: <reason>``, on stderr; ``main`` returns 2 and never raises
``SystemExit``), 141 (128 + SIGPIPE) when the reader of stdout goes away
before the output is written.  Rationals are always printed exactly as
num/den; there is no floating point output.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from logchern.characters import delta_k, from_chern_classes, generic_discriminants, modified_delta
from logchern.formulas import closed_ch, hc_shift_check
from logchern.mukai import MukaiVector, is_primitive, mukai_schur
from logchern.oracle import oracle_schur_ch
from logchern.report import (
    MAX_SWEEP_RANK,
    MAX_SWEEP_SIZE,
    build_report,
    judge,
    sweep,
    verify_delta4_proportionality,
)
from logchern.ring import GradedPoly, PolyRing, graded_generators, proportion
from logchern.symfunc import Partition

MAX_DEGREE = 5
# Largest rank ch, delta, delta4, lowrank, mukai and hc-check accept.  The
# oracle's cost does not grow with the rank: a partition may have up to rank
# parts, but Giambelli's determinant is only as large as its Durfee square,
# at most 8x8 at size 64.  The costliest known command is
# ch --rank 2 --partition 64 --max-degree 5 --method oracle, bounded by its
# Newton family up to h_64; it and the many-row deltas at rank 16 have their
# product counts pinned in test_slowest_command_product_count.
# The Weyl dimension product grows like a superfactorial of the rank,
# and hc-check expands its polynomials over r + 1 free generators, about
# C(r+k, k) terms each.  Rank 16 is the largest any documented command uses.
MAX_RANK = 16
# Largest partition size ch and delta accept, and largest m for delta4:
# Newton's recurrence takes O(|alpha|^2) products of polynomials with integer
# numerators over one denominator.  oracle_schur_ch((m,), 2, 5), timed by
# time.process_time() in a fresh Python 3.11 process on a 2-CPU VM (median
# of five runs), took 0.07 s at m = 64 and 1.3 s at m = 300.
MAX_SIZE = 64
# One integer as the command line writes it (an int option, a partition's
# parts, a Mukai vector's entries, delta4 --t's p and q): an optional minus
# sign and at most MAX_DIGITS ASCII digits, far past every stated bound and
# far below the interpreter's 4300-digit limit on int(), whose error would
# leak.  int() alone would also read "1_0" as 10, "+2" as 2 and "\u0663" as 3.
MAX_DIGITS = 50
INT_RE = re.compile(rf"\s*-?[0-9]{{1,{MAX_DIGITS}}}\s*")
# compiled on first use, by re's own cache: only delta4 --t reads it.
# Fraction() alone would also read decimals and exponents, and build a
# million-digit integer from "1e1000000".
_RATIONAL = r"\s*-?([0-9]+)(?:/([0-9]+))?\s*"
# Exit status when stdout's reader goes away: 128 + SIGPIPE, as a shell
# reports a process that SIGPIPE killed.
EXIT_BROKEN_PIPE = 141


def _shown(text: str) -> str:
    """text as a refusal quotes it: its first 60 characters, then ... if it goes on."""
    return text if len(text) <= 60 else text[:60] + "..."


def _partition(text: str) -> Partition:
    """Option converter for a partition of size at most MAX_SIZE: 2,1, say, or empty or 0."""
    text = text.strip()
    fields = text.split(",") if text not in ("", "0") else []
    if not all(INT_RE.fullmatch(field) for field in fields):
        raise ValueError(f"cannot parse partition {_shown(text)!r}")
    try:
        alpha = Partition(tuple(map(int, fields)))
    except ValueError as exc:  # a negative part, or a part after a smaller one
        raise ValueError(_shown(str(exc))) from None
    if alpha.size > MAX_SIZE:
        raise ValueError(f"partition size must be at most {MAX_SIZE}, got {alpha.size}")
    return alpha


def _within_rank(alpha: Partition, r: int) -> Partition:
    if len(alpha) > r:
        raise ValueError(f"partition {alpha} has {len(alpha)} parts, more than the rank {r}")
    return alpha


def _mukai_vector(text: str) -> tuple[int, int, int]:
    """Option converter for a Mukai vector r,c,s of integers, the rank r in 1..MAX_RANK."""
    fields = text.split(",")
    if len(fields) != 3 or not all(INT_RE.fullmatch(field) for field in fields):
        raise ValueError(f"cannot parse Mukai vector {_shown(text)!r}; expected r,c,s")
    r, c, s = map(int, fields)
    if not 1 <= r <= MAX_RANK:
        raise ValueError(f"rank must lie in 1..{MAX_RANK}, got {r}")
    return r, c, s


def _fraction(text: str) -> Fraction:
    """Option converter for an exact rational: an integer or p/q, such as 3 or 7/2."""
    match = re.fullmatch(_RATIONAL, text)
    if match is not None and max(len(digits) for digits in match.groups("")) > MAX_DIGITS:
        raise ValueError(f"more than {MAX_DIGITS} digits: {_shown(text)!r}")
    if match is None or match[2] is not None and int(match[2]) == 0:
        raise ValueError(f"not an exact rational: {_shown(text)!r}")
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


def cmd_ch(args) -> int:
    r, degree = args.rank, args.max_degree
    alpha = _within_rank(args.partition, r)
    out: dict = {}
    if args.method in ("closed", "both"):
        out["closed"] = closed_ch(alpha, r, degree)
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
    r, k = args.rank, args.k
    alpha = _within_rank(args.partition, r)
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
    report = sweep(args.max_rank, args.max_size)
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
    res = verify_delta4_proportionality(args.m, args.rank, args.t)
    print(f"Delta_(4,{res.t})(S^{args.m} V) vs Delta_(4,{res.t})(V) at rank {args.rank}:")
    if res.is_proportional:
        print(f"proportional: yes, ratio {res.lam}")
    else:
        print("proportional: NO")
    print(f"printed coefficient f4*(r_m/r)^4: {res.printed}")
    return 0


def cmd_lowrank(args) -> int:
    k, r = args.k, args.rank
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
    r, c, s = args.v
    v = MukaiVector(r, c, Fraction(s), args.d)
    alpha = _within_rank(args.partition, r)
    out = mukai_schur(v, alpha)
    print(f"v(E) = {v}, H^2 = {2 * args.d}")
    print(f"v(S^({alpha}) E) = {out}")
    print(f"primitive: {'yes' if is_primitive(out) else 'no'}")
    return 0


def cmd_hc_check(args) -> int:
    k, r = args.k, args.rank
    residual = hc_shift_check(k, r)
    if residual:
        print(f"FAILED: nonzero residual (k={k}, r={r}):")
        for line in residual:
            print(f"  {line}")
        return 1
    if r <= 4:
        # the proof covers the grid {-3..3}^r, and the benchmark's expected
        # outputs pin these lines
        print(f"shift and translation identities hold on {7**r} grid points (k={k}, r={r})")
    else:
        print(f"shift and translation identities hold: proved by symbolic expansion (k={k}, r={r})")
    return 0


# The command table: name -> (help line, handler, options).  An option is
# (flag, converter, default, note): the converter is int or a function from
# the text to the value, a tuple of the option's choices, each converted like
# the first, or a range of the integers it accepts, its bounds; the default
# _REQUIRED makes the option mandatory.
_REQUIRED = object()
_RANK = ("--rank", range(1, MAX_RANK + 1), _REQUIRED, "")
_RANK_FROM_2 = ("--rank", range(2, MAX_RANK + 1), _REQUIRED, "")
COMMANDS = {
    "ch": ("Chern character of a Schur functor", cmd_ch, (
        _RANK,
        ("--partition", _partition, _REQUIRED, "e.g. 2,1 (empty or 0 for the trivial functor)"),
        ("--max-degree", tuple(range(1, MAX_DEGREE + 1)), 3, ""),
        ("--method", ("closed", "oracle", "both"), "both", ""),
        ("--format", ("text", "json"), "text", ""),
    )),
    "delta": ("discriminant of a Schur functor and its scaling factor", cmd_delta, (
        _RANK,
        ("--partition", _partition, _REQUIRED, ""),
        ("--k", tuple(range(1, MAX_DEGREE + 1)), 2, ""),
    )),
    "verify": ("oracle-vs-closed sweep plus the measured claim table", cmd_verify, (
        ("--max-rank", range(1, MAX_SWEEP_RANK + 1), 5, ""),
        ("--max-size", range(1, MAX_SWEEP_SIZE + 1), 6, ""),
        ("--format", ("text", "json"), "text", ""),
    )),
    "delta4": ("degree-4 proportionality for a symmetric power", cmd_delta4, (
        _RANK_FROM_2,
        ("--m", range(MAX_SIZE + 1), _REQUIRED, ""),
        ("--t", _fraction, None, "parameter t, an integer or p/q (default: rank)"),
    )),
    "lowrank": ("modified degree-4/5 class of a generic low-rank bundle", cmd_lowrank, (
        ("--k", (4, 5), _REQUIRED, ""),
        _RANK,
    )),
    "mukai": ("Mukai vector of a Schur bundle on a K3 surface", cmd_mukai, (
        ("--v", _mukai_vector, _REQUIRED, "input vector r,c,s"),
        ("--d", int, _REQUIRED, "H^2 = 2d"),
        ("--partition", _partition, _REQUIRED, ""),
    )),
    "hc-check": ("shifted-variable and translation identities", cmd_hc_check, (
        ("--k", (2, 3), _REQUIRED, ""),
        _RANK_FROM_2,
    )),
}


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
        if isinstance(convert, range):
            about.append(f"{convert[0]} to {convert[-1]}")
        elif isinstance(convert, tuple):
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
            raise ValueError(f"ambiguous option: {name} could match {', '.join(matches)}")
    raise ValueError(f"unrecognized arguments: {_shown(token)}")


def _value(flag: str, convert, text: str):
    """text converted for flag's option; a ValueError naming flag when it does not fit."""
    allowed = convert if isinstance(convert, (tuple, range)) else None
    convert = type(allowed[0]) if allowed else convert
    if convert is int and not INT_RE.fullmatch(text):
        raise ValueError(f"argument {flag}: invalid int value: {_shown(text)!r}")
    try:
        value = convert(text)
    except ValueError as exc:
        raise ValueError(f"argument {flag}: {exc}") from None
    if allowed is None or value in allowed:
        return value
    if isinstance(allowed, range):
        raise ValueError(f"{flag} must lie in {allowed[0]}..{allowed[-1]}, got {value}")
    listed = ", ".join(map(str, allowed))
    raise ValueError(f"argument {flag}: invalid choice: {_shown(text)!r} (choose from {listed})")


def _parse(argv: list[str]):
    """(handler, argument) for argv: a command's handler and its options as
    attributes, or _print and a help text."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        if command.startswith("-"):
            _flag(command, ("--help",))  # a usage error unless it asks for help
            return _print, _help(None)
        got = f", got {_shown(command)!r}" if argv else ""
        raise ValueError(f"expected a command, one of {', '.join(COMMANDS)}{got}")
    _, handler, options = COMMANDS[command]
    flags = (*(flag for flag, *_ in options), "--help")
    texts = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag = _flag(token, flags)
        if flag == "--help":
            return _print, _help(command)
        _, joined, text = token.partition("=")
        if not joined:
            # the next token is the value even when it starts with "-", as
            # "--t -7/2" does, but no flag is ever taken as one
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                raise ValueError(f"argument {flag}: expected one value")
        texts[flag] = text
    missing = [flag for flag, _, default, _ in options if default is _REQUIRED and flag not in texts]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    return handler, SimpleNamespace(**{
        flag[2:].replace("-", "_"): _value(flag, convert, texts[flag]) if flag in texts else default
        for flag, convert, default, _ in options
    })


def main(argv=None) -> int:
    try:
        try:
            handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
            code = handler(args)
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        finally:
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
