"""Command-line surface: compute characters and discriminants, verify, report.

Exit codes: 0 success, 1 verification failure, 2 usage error, 141 (128 +
SIGPIPE) when the reader of stdout goes away before the output is written.
Rationals are always printed exactly as num/den; there is no floating point
output.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from math import comb

from logchern.characters import (
    delta_k,
    from_chern_classes,
    generic_bundle,
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
from logchern.report import build_report, format_table, unexpected_discrepancies
from logchern.ring import GradedPoly, PolyRing, graded_generators, proportion
from logchern.symfunc import INT_RE, Partition

MAX_DEGREE = 5
# Largest rank ch, delta, delta4, mukai and hc-check accept.  The oracle's
# cost does not grow with the rank, but a partition may have up to rank parts,
# and the Jacobi-Trudi determinant's cofactor expansion doubles with each row
# (it takes the shorter of the partition and its conjugate, so at most 8 rows
# within MAX_SIZE).  The Weyl dimension product grows like a superfactorial of
# the rank, and hc-check evaluates its O(r) polynomials at each of the
# C(r+k, k) simplex points.  Rank 16 is the largest any documented command uses.
MAX_RANK = 16
# Largest partition size ch and delta accept, and largest m for delta4:
# Newton's recurrence takes O(|alpha|^2) products of growing fractions
# (size 300 takes about 4 s at degree 5 on one core of a 2-CPU VM).
MAX_SIZE = 64
# delta4 --t is an integer or p/q with at most this many digits in p and in q.
# Fraction() alone would also read decimals and exponents, and build a
# million-digit integer from "1e1000000".
MAX_T_DIGITS = 50
_RATIONAL_RE = re.compile(r"\s*-?(\d+)(?:/(\d+))?\s*")
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
    """argparse type for an exact rational: an integer or p/q, such as 3 or 7/2."""
    match = _RATIONAL_RE.fullmatch(text)
    if match is not None and max(len(digits) for digits in match.groups("")) > MAX_T_DIGITS:
        raise argparse.ArgumentTypeError(f"more than {MAX_T_DIGITS} digits: {text!r}")
    if match is None or match[2] is not None and int(match[2]) == 0:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")
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
    d_base = delta_k(generic_bundle(r, k), k)
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
    unexpected = unexpected_discrepancies(rows)
    failed = report.failed > 0 or bool(unexpected)
    if args.format == "json":
        import json

        doc = {
            **report.to_json_dict(),
            "discrepancies": [row.to_json_dict() for row in rows],
        }
        if unexpected:
            doc["unexpected"] = unexpected
        print(json.dumps(doc, indent=2))
        return 1 if failed else 0
    print(
        f"sweep: {report.cases} cases, {report.passed} passed, {report.failed} failed"
    )
    for rec in report.records:
        if not rec.ok:
            for chk in rec.failures():
                print(
                    f"  FAIL alpha=({rec.alpha}) r={rec.r}: {chk.name}\n"
                    f"       lhs: {chk.lhs}\n       rhs: {chk.rhs}"
                )
    print()
    print("claim table (printed vs measured):")
    print(format_table(rows))
    if unexpected:
        print()
        print(f"{len(unexpected)} discrepancies the whitelist does not account for -- failing")
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


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads an argument that starts with "-" as an option unless
        # it looks like a negative number, which it takes to be -7 or -3.5;
        # also accept -7/2, so that "delta4 --t -7/2" works like "--t=-7/2"
        self._negative_number_matcher = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")

    def print_help(self, file=None):
        # argparse's own writer drops a write error; let a closed stdout raise
        # BrokenPipeError, as every other command's output does
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="logchern",
        description="Exact Chern characters and discriminants of Schur functors, "
        "with brute-force verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ch", help="Chern character of a Schur functor")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--partition", required=True, help="e.g. 2,1 (empty or 0 for the trivial functor)")
    p.add_argument("--max-degree", type=int, default=3, choices=range(1, MAX_DEGREE + 1))
    p.add_argument("--method", choices=("closed", "oracle", "both"), default="both")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_ch)

    p = sub.add_parser("delta", help="discriminant of a Schur functor and its scaling factor")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--k", type=int, default=2, choices=range(1, MAX_DEGREE + 1))
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("verify", help="oracle-vs-closed sweep plus the measured claim table")
    p.add_argument("--max-rank", type=int, default=5)
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--max-degree", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("delta4", help="degree-4 proportionality for a symmetric power")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=_fraction, default=None, help="parameter t (default: rank)")
    p.set_defaults(func=cmd_delta4)

    p = sub.add_parser("lowrank", help="modified degree-4/5 class of a generic low-rank bundle")
    p.add_argument("--k", type=int, required=True, choices=(4, 5))
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_lowrank)

    p = sub.add_parser("mukai", help="Mukai vector of a Schur bundle on a K3 surface")
    p.add_argument("--v", required=True, help="input vector r,c,s")
    p.add_argument("--d", type=int, required=True, help="H^2 = 2d")
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_mukai)

    p = sub.add_parser("hc-check", help="shifted-variable and translation identities")
    p.add_argument("--k", type=int, required=True, choices=(2, 3))
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=cmd_hc_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            code = args.func(args)
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        finally:
            # also when --help or a usage error leaves by SystemExit, so that
            # buffered help text into a closed stdout fails here, not at exit
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
