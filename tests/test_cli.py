import contextlib
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logchern.cli import _REQUIRED, COMMANDS, MAX_DIGITS, MAX_RANK, MAX_SIZE, main
from logchern.report import MAX_SWEEP_RANK, MAX_SWEEP_SIZE

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def ranged_options(command):
    """(flag, range) of each option of command whose table entry gives its bounds."""
    return [(flag, convert) for flag, convert, *_ in COMMANDS[command][2] if isinstance(convert, range)]


def lowest_rank(command):
    """The least rank that command's table entry accepts."""
    return dict(ranged_options(command))["--rank"][0]


class TestCh:
    def test_determinant_rank_one(self, capsys):
        code, out = run(
            capsys, "ch", "--rank", "3", "--partition", "1,1,1",
            "--max-degree", "2", "--method", "oracle",
        )
        assert code == 0
        assert out.splitlines()[0] == "rank: 1"

    def test_json_round_trips_schema(self, capsys):
        from logchern.characters import ch_ring
        from logchern.oracle import oracle_schur_ch

        code, out = run(
            capsys, "ch", "--rank", "4", "--partition", "2,1",
            "--max-degree", "3", "--format", "json", "--method", "oracle",
        )
        assert code == 0
        doc = json.loads(out)
        ring = ch_ring(doc["D"])
        parts = (ring.parse(text) for text in doc["ch"].values())
        parsed = sum(parts, ring.parse(doc["rank"]))
        assert parsed == oracle_schur_ch((2, 1), 4, 3)

    def test_closed_refuses_high_degree_for_general_partition(self, capsys):
        code = main(
            ["ch", "--rank", "4", "--partition", "2,1", "--max-degree", "4",
             "--method", "closed"]
        )
        assert code == 2
        assert "degree <= 3" in capsys.readouterr().err

    def test_closed_names_the_degree_before_the_rank_two_rule(self, capsys):
        code = main(
            ["ch", "--rank", "2", "--partition", "1,1", "--max-degree", "4",
             "--method", "closed"]
        )
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "degree <= 3" in err and "oracle" in err

    @pytest.mark.parametrize("method", ["closed", "both"])
    def test_closed_refuses_degree_three_at_rank_two(self, capsys, method):
        err = usage_error(
            capsys, "ch", "--rank", "2", "--partition", "1,1", "--max-degree", "3", "--method", method
        )
        assert "degenerates for rank <= 2" in err

    def test_single_row_closed_full_degree(self, capsys):
        code, out = run(
            capsys, "ch", "--rank", "3", "--partition", "4",
            "--max-degree", "5", "--method", "both",
        )
        assert code == 0
        assert "match: yes" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("rank", ["1", "2"])
    def test_both_blocks_identical_above_the_rank(self, capsys, rank, fmt):
        code, out = run(
            capsys, "ch", "--rank", rank, "--partition", "2",
            "--max-degree", "4", "--method", "both", "--format", fmt,
        )
        assert code == 0
        if fmt == "json":
            doc = json.loads(out)
            assert doc["closed"] == doc["oracle"]
            assert doc["match"] is True
        else:
            closed, oracle = out.removeprefix("[closed]\n").split("[oracle]\n")
            assert oracle == closed + "match: yes\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_mismatch_exits_one(self, capsys, monkeypatch, fmt):
        import logchern.cli

        closed = logchern.cli.closed_ch
        monkeypatch.setattr(logchern.cli, "closed_ch", lambda *args: closed(*args).scale(2))
        code, out = run(
            capsys, "ch", "--rank", "3", "--partition", "2,1",
            "--max-degree", "3", "--method", "both", "--format", fmt,
        )
        assert code == 1
        if fmt == "json":
            assert json.loads(out)["match"] is False
        else:
            assert out.endswith("match: NO\n")

    def test_usage_error_exit_two(self):
        assert main(["ch", "--rank", "2"]) == 2


class TestDelta:
    def test_wedge_factor(self, capsys):
        code, out = run(capsys, "delta", "--rank", "4", "--partition", "1,1", "--k", "2")
        assert code == 0
        assert "factor: 3" in out


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out = run(capsys, "verify", "--max-rank", "2", "--max-size", "2")
        assert code == 0
        assert "sweep: 3 cases, 3 passed, 0 failed" in out
        assert "typo-suspected, whitelisted" in out


class TestOthers:
    def test_lowrank_nonzero_at_rank_equal_k(self, capsys):
        code, out = run(capsys, "lowrank", "--k", "4", "--rank", "4")
        assert code == 0
        assert "vanishes" not in out

    def test_lowrank_rejects_other_k(self):
        assert main(["lowrank", "--k", "3", "--rank", "2"]) == 2

    def test_mukai_primitive_case(self, capsys):
        code, out = run(
            capsys, "mukai", "--v", "2,1,2", "--d", "4", "--partition", "2"
        )
        assert code == 0
        assert "(3, 3*H, 7)" in out and "primitive: yes" in out

    def test_delta4_not_proportional(self, capsys):
        code, out = run(capsys, "delta4", "--rank", "4", "--m", "2", "--t", "0")
        assert code == 0
        assert out == (
            "Delta_(4,0)(S^2 V) vs Delta_(4,0)(V) at rank 4:\n"
            "proportional: NO\n"
            "printed coefficient f4*(r_m/r)^4: 500/7\n"
        )

    def test_mukai_parse_error(self, capsys):
        code = main(["mukai", "--v", "2;1;2", "--d", "3", "--partition", "2"])
        assert code == 2

    def test_hc_check(self, capsys):
        code, out = run(capsys, "hc-check", "--k", "2", "--rank", "2")
        assert code == 0
        assert "49 grid points" in out

    @pytest.mark.parametrize("rank", [4, 5])
    def test_hc_check_failure_prints_residual_terms(self, capsys, monkeypatch, rank):
        from logchern import formulas

        printed = formulas._DELTA_DOT[2]
        monkeypatch.setitem(formulas._DELTA_DOT, 2, lambda a, r: printed(a, r) + 1)
        code, out = run(capsys, "hc-check", "--k", "2", "--rank", str(rank))
        assert code == 1
        assert out == f"FAILED: nonzero residual (k=2, r={rank}):\n  shift residual term: -1\n"


def run_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    return code, err


def usage_error(capsys, *argv):
    """The one stderr line of a usage error, which exits 2 with nothing on stdout."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) <= 200
    return err


class TestParser:
    DELTA = ("delta", "--rank", "3", "--partition", "2", "--k", "2")

    def test_unique_prefix_of_a_flag(self, capsys):
        full = run(capsys, "verify", "--max-rank", "2", "--max-size", "2", "--format", "json")
        short = run(capsys, "verify", "--max-r", "2", "--max-s=2", "--f", "json")
        assert short == full
        assert short[0] == 0

    def test_ambiguous_prefix(self, capsys):
        err = usage_error(capsys, "verify", "--max", "3")
        assert err == "error: ambiguous option: --max could match --max-rank, --max-size\n"

    def test_value_joined_by_equals(self, capsys):
        assert run(capsys, "delta", "--rank=3", "--partition=2", "--k=2") == run(capsys, *self.DELTA)

    def test_repeated_option_takes_its_last_value(self, capsys):
        assert run(capsys, "delta", "--rank", "9", "--partition", "1", *self.DELTA[1:]) == run(
            capsys, *self.DELTA
        )
        assert run(capsys, *self.DELTA, "--rank", "2")[1].startswith("Delta_2(S^(2) E) = 6*e1^2 - 24*e2\n")
        # only the last value is converted, so an earlier malformed one is never read
        assert run(capsys, "delta", "--rank", "x", "--partition", "1,,1", *self.DELTA[1:]) == run(
            capsys, *self.DELTA
        )

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (("delta", "--rank", "3", "--partition"), "argument --partition: expected one value"),
            (("delta", "--rank", "--partition", "2"), "argument --rank: expected one value"),
            (("delta", "--partition", "2"), "the following arguments are required: --rank"),
            # the missing options are named before any value is converted
            (("delta", "--rank", "x"), "the following arguments are required: --partition"),
            (("mukai",), "the following arguments are required: --v, --d, --partition"),
            (("delta", "--rank", "3", "--partition", "2", "2"), "unrecognized arguments: 2"),
            (("delta", "--rank", "3", "--partition", "2", "--"), "unrecognized arguments: --"),
            (("delta", "--rank", "3", "--partition", "2", "--kk", "2"), "unrecognized arguments: --kk"),
            # verify checks through degree 3 and takes no degree
            (("verify", "--max-degree", "2"), "unrecognized arguments: --max-degree"),
            (("delta", "--rank", "x", "--partition", "2"), "argument --rank: invalid int value: 'x'"),
            (("ch", "--rank", "x", "--partition", "2"), "argument --rank: invalid int value: 'x'"),
            # int() alone would read "1_0" as 10, "+3" as 3 and the
            # Arabic-Indic digits "\u0662" and "\u0663" as 2 and 3
            (("ch", "--rank", "1_0", "--partition", "1"), "argument --rank: invalid int value: '1_0'"),
            (("ch", "--rank", "+3", "--partition", "1"), "argument --rank: invalid int value: '+3'"),
            (
                ("ch", "--rank", "\u0663", "--partition", "2", "--max-degree", "1", "--method", "oracle"),
                "argument --rank: invalid int value: '\u0663'",
            ),
            (
                ("ch", "--rank", "3", "--partition", "1", "--max-degree", "\u0662"),
                "argument --max-degree: invalid int value: '\u0662'",
            ),
            (
                ("mukai", "--v", "2,1,2", "--d", "1_0", "--partition", "2"),
                "argument --d: invalid int value: '1_0'",
            ),
            (("delta4", "--rank", "3", "--m", "+2"), "argument --m: invalid int value: '+2'"),
            (("verify", "--max-rank", "\u0662"), "argument --max-rank: invalid int value: '\u0662'"),
            (
                ("delta", "--rank", "3", "--partition", "2", "--k", "6"),
                "argument --k: invalid choice: '6' (choose from 1, 2, 3, 4, 5)",
            ),
            (("deltas",), "expected a command, one of " + ", ".join(COMMANDS) + ", got 'deltas'"),
            ((), "expected a command, one of " + ", ".join(COMMANDS)),
            (("--rank", "3"), "unrecognized arguments: --rank"),
            # a refusal quotes at most the first 60 characters of a word
            (("ch", "--" + "x" * 4998), "unrecognized arguments: --" + "x" * 58 + "..."),
            (("x" * 5000,), "expected a command, one of " + ", ".join(COMMANDS) + f", got {'x' * 60 + '...'!r}"),
            (
                ("ch", "--rank", "2", "--partition", "9" * 300),
                f"argument --partition: cannot parse partition {'9' * 60 + '...'!r}",
            ),
            (
                ("mukai", "--v", "2,1,2", "--d", "9" * 60, "--partition", "2"),
                f"argument --d: invalid int value: {'9' * 60!r}",
            ),
            (
                ("ch", "--rank", "3", "--partition", "2,1", "--max-degree", "4", "--method", "closed"),
                "the Schur table covers degree <= 3 only, not degree 4; the oracle covers every degree",
            ),
            # a rank-1 bundle is a line bundle, whose vector is (1, c, c^2 d + 1)
            (
                ("mukai", "--v", "1,1,3", "--d", "1", "--partition", "2"),
                "a rank-1 Mukai vector (1, c, s) is a line bundle's: s must be c^2 d + 1",
            ),
        ],
        ids=[
            "missing-value", "flag-as-value", "missing-required", "missing-before-malformed",
            "all-missing", "stray-word",
            "double-dash", "unknown-flag", "verify-max-degree",
            "bad-int", "bad-int-ch", "int-underscore", "int-plus", "int-arabic",
            "int-choice-arabic", "int-mukai-d", "int-delta4-m", "int-verify-max-rank", "bad-choice",
            "unknown-command",
            "no-command", "option-before-command", "long-flag", "long-command",
            "long-partition", "long-mukai-d", "closed-degree-4", "mukai-rank-1-s",
        ],
    )
    def test_usage_errors(self, capsys, argv, reason):
        assert usage_error(capsys, *argv) == f"error: {reason}\n"

    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_program_help_names_every_command(self, capsys, flag):
        code, out = run(capsys, flag)
        assert code == 0
        listed = [line.split()[0] for line in out.split("commands:\n")[1].split("\n\n")[0].splitlines()]
        assert listed == list(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_help_names_every_option(self, capsys, command):
        # help wins over the required options that are missing
        code, out = run(capsys, command, "--help")
        assert code == 0
        options = COMMANDS[command][2]
        rows = out.split("options:\n")[1].splitlines()
        assert [row.split()[0] for row in rows] == [flag for flag, *_ in options]
        for (_, convert, default, _), row in zip(options, rows):
            if isinstance(convert, range):
                assert f"{convert[0]} to {convert[-1]}" in row
            elif isinstance(convert, tuple):
                assert f"one of {', '.join(map(str, convert))}" in row
            if default is _REQUIRED:
                assert row.endswith("required")
            elif default is not None:
                assert row.endswith(f"default {default}")


class TestInputBounds:
    @pytest.mark.parametrize("rank", ["0", "-2", str(MAX_RANK + 1), "99999999999999999999"])
    @pytest.mark.parametrize(
        "command",
        [
            ("ch", "--partition", "0", "--method", "oracle"),
            ("ch", "--partition", "1"),
            ("delta", "--partition", "1"),
            ("delta4", "--m", "2"),
            ("lowrank", "--k", "4"),
            ("hc-check", "--k", "3"),
        ],
    )
    def test_rank_out_of_range(self, capsys, command, rank):
        code, err = run_error(capsys, *command, "--rank", rank)
        assert code == 2
        assert err == f"error: --rank must lie in {lowest_rank(command[0])}..{MAX_RANK}, got {rank}\n"

    @pytest.mark.parametrize("command", [name for name in COMMANDS if ranged_options(name)])
    def test_every_rank_option_is_bounded(self, capsys, command):
        # every other option takes a valid value, so only the one under test is refused
        valid = {"--partition": "1"}
        required = [
            (flag, str(convert[0]) if isinstance(convert, (tuple, range)) else valid[flag])
            for flag, convert, default, _ in COMMANDS[command][2]
            if default is _REQUIRED
        ]
        for flag, bounds in ranged_options(command):
            for value in (bounds[0] - 1, bounds[-1] + 1):
                argv = [command, *(token for pair in required for token in pair), flag, str(value)]
                code = main(argv)
                out, err = capsys.readouterr()
                expected = f"error: {flag} must lie in {bounds[0]}..{bounds[-1]}, got {value}\n"
                assert (code, out, err) == (2, "", expected), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ("ch", "--rank", str(MAX_RANK + 1)),
            ("ch", "--rank", "x"),
            ("ch", "--rank", "1" * (MAX_DIGITS + 1)),
            ("ch", "--rank", "2", "--partition", "2", "--max-degree", "9"),
            ("ch", "--rank", "2", "--partition", "1,,1"),
            ("delta4", "--rank", "3", "--m", "2", "--t", "abc"),
            ("mukai", "--v", "2,1"),
        ],
        ids=["rank-17", "rank-x", "rank-51-digits", "max-degree-9", "partition-1,,1", "t-abc", "v-2,1"],
    )
    def test_help_wins_over_any_value(self, capsys, argv):
        code, out = run(capsys, *argv, "--help")
        assert code == 0
        assert out == run(capsys, argv[0], "--help")[1]
        assert out.startswith(f"usage: logchern {argv[0]} ")

    @pytest.mark.parametrize(
        "vector", ["2,1_0,2", "+2,1,2", "2,+1,2", "2,1,2,3", "2,,2", "2,1.0,2", "\u0662,1,2"]
    )
    def test_mukai_vector_needs_three_plain_integers(self, capsys, vector):
        # int() alone would read "1_0" as 10 and "+2" as 2
        code, err = run_error(
            capsys, "mukai", f"--v={vector}", "--d", "3", "--partition", "2"
        )
        assert code == 2
        assert err == f"error: argument --v: cannot parse Mukai vector {vector!r}; expected r,c,s\n"

    def test_mukai_vector_allows_signs_and_spaces(self, capsys):
        code, out = run(capsys, "mukai", "--v", " 2, -1 ,2", "--d", "3", "--partition", "2")
        assert code == 0
        assert out.startswith("v(E) = (2, -1*H, 2), H^2 = 6\n")

    @pytest.mark.parametrize("rank", ["0", "-2", str(MAX_RANK + 1), "1000"])
    def test_mukai_rank_out_of_range(self, capsys, rank):
        code, err = run_error(
            capsys, "mukai", f"--v={rank},1,2", "--d", "3", "--partition", "2"
        )
        assert code == 2
        assert err == f"error: argument --v: rank must lie in 1..{MAX_RANK}, got {rank}\n"

    @pytest.mark.parametrize("d", ["3", "9" * 4000], ids=["d-3", "d-4000-digits"])
    def test_long_integer_refusal_prints_nothing_on_stdout(self, capsys, d):
        # with a 4000-digit c, v(S^(2,1) E) holds integers past the
        # interpreter's 4300-digit limit on str(int), so an answer would fail
        # only after v(E) had reached stdout
        argv = ["mukai", "--v", f"2,{'9' * 4000},2", "--d", d, "--partition", "2,1"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize(
        "command",
        [
            ("ch", "--rank", "2", "--partition", str(MAX_SIZE + 1)),
            ("ch", "--rank", "2", "--partition", f"{MAX_SIZE},1", "--method", "oracle"),
            ("delta", "--rank", "3", "--partition", str(MAX_SIZE + 1)),
            ("delta", "--rank", "3", "--partition", f"{MAX_SIZE},1"),
            ("mukai", "--v", "2,1,2", "--d", "3", "--partition", str(MAX_SIZE + 1)),
        ],
    )
    def test_size_above_max(self, capsys, command):
        code, err = run_error(capsys, *command)
        assert code == 2
        assert err == f"error: argument --partition: partition size must be at most {MAX_SIZE}, got {MAX_SIZE + 1}\n"

    @pytest.mark.parametrize(
        "command, argv, flag, low, high",
        [
            ("delta4", ("--rank", "3", "--m", "-1"), "--m", 0, MAX_SIZE),
            ("delta4", ("--rank", "3", "--m", str(MAX_SIZE + 1)), "--m", 0, MAX_SIZE),
            ("delta4", ("--rank", "1", "--m", "2"), "--rank", 2, MAX_RANK),
            ("hc-check", ("--k", "2", "--rank", "1"), "--rank", 2, MAX_RANK),
        ],
    )
    def test_refusal_names_the_option_and_its_stated_range(self, capsys, command, argv, flag, low, high):
        code, err = run_error(capsys, command, *argv)
        value = argv[argv.index(flag) + 1]
        assert (code, err) == (2, f"error: {flag} must lie in {low}..{high}, got {value}\n")
        _, out = run(capsys, command, "--help")
        row = next(line.split(None, 1) for line in out.splitlines() if line.startswith(f"  {flag} "))
        assert row[1].startswith(f"{low} to {high};")

    @pytest.mark.parametrize(
        "flag, value, top",
        [
            ("--max-rank", 0, MAX_SWEEP_RANK),
            ("--max-rank", MAX_SWEEP_RANK + 1, MAX_SWEEP_RANK),
            ("--max-size", 0, MAX_SWEEP_SIZE),
            ("--max-size", MAX_SWEEP_SIZE + 1, MAX_SWEEP_SIZE),
        ],
    )
    def test_verify_range_names_the_flag(self, capsys, flag, value, top):
        code, err = run_error(capsys, "verify", flag, str(value))
        assert code == 2
        assert err == f"error: {flag} must lie in 1..{top}, got {value}\n"

    def test_max_size_accepted(self, capsys):
        code, out = run(
            capsys, "delta", "--rank", "1", "--partition", str(MAX_SIZE), "--k", "1"
        )
        assert code == 0
        assert out.endswith(f"factor: {MAX_SIZE}\n")

    def test_max_rank_accepted(self, capsys):
        code, out = run(
            capsys, "ch", "--rank", str(MAX_RANK), "--partition", "1",
            "--max-degree", "1", "--method", "oracle",
        )
        assert code == 0
        assert out.splitlines()[0] == f"rank: {MAX_RANK}"

    @pytest.mark.parametrize(
        "command",
        [
            ("ch", "--rank", "2"),
            ("delta", "--rank", "2"),
            ("mukai", "--v", "2,1,2", "--d", "3"),
        ],
        ids=["ch", "delta", "mukai"],
    )
    def test_partition_longer_than_rank(self, capsys, command):
        code, err = run_error(capsys, *command, "--partition", "1,1,1")
        assert code == 2
        assert err == "error: partition 1,1,1 has 3 parts, more than the rank 2\n"

    @pytest.mark.parametrize(
        "command, text",
        [
            (("ch", "--rank", "2", "--partition", "1,,1"), "1,,1"),
            (("delta", "--rank", "2", "--partition", "2.5"), "2.5"),
            (("ch", "--rank", "2", "--partition", "1_0"), "1_0"),
            (("delta", "--rank", "2", "--partition", "+2"), "+2"),
            (("mukai", "--v", "2,1,2", "--d", "3", "--partition", "x"), "x"),
            (("ch", "--rank", "3", "--partition", "\u0662", "--method", "oracle"), "\u0662"),
        ],
    )
    def test_unparsable_partition(self, capsys, command, text):
        code, err = run_error(capsys, *command)
        assert code == 2
        assert err == f"error: argument --partition: cannot parse partition {text!r}\n"

    @pytest.mark.parametrize("text, shown", [("2,1", "2,1"), (" 2 , 1 ", "2,1"), ("", "0"), ("0", "0")])
    def test_partition_text(self, capsys, text, shown):
        code, out = run(capsys, "delta", "--rank", "3", "--partition", text, "--k", "1")
        assert code == 0
        assert out.startswith(f"Delta_1(S^({shown}) E) = ")

    @pytest.mark.parametrize("text", ["1,0,1", "0,2"])
    def test_zero_before_a_part(self, capsys, text):
        code, err = run_error(
            capsys, "ch", "--rank", "3", "--partition", text,
            "--method", "oracle", "--max-degree", "1",
        )
        assert code == 2
        parts = ", ".join(text.split(","))
        assert err == f"error: argument --partition: parts not weakly decreasing: ({parts})\n"

    # Fraction() reads exponents: 1e1000000 would build a million-digit
    # integer, and 1e5000 fails in int() past Python's digit limit
    @pytest.mark.parametrize("t", ["1/0", "abc", "3.5", "1e1000000", "1e5000", "\u0663"])
    def test_delta4_bad_t_is_a_usage_error(self, capsys, t):
        assert main(["delta4", "--rank", "3", "--m", "2", "--t", t]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"not an exact rational: {t!r}" in err

    @pytest.mark.parametrize("t", ["1" * (MAX_DIGITS + 1), "1/" + "7" * (MAX_DIGITS + 1)])
    def test_delta4_t_digit_bound(self, capsys, t):
        assert main(["delta4", "--rank", "3", "--m", "2", "--t", t]) == 2
        assert f"more than {MAX_DIGITS} digits: {t!r}" in capsys.readouterr().err
        code, out = run(capsys, "delta4", "--rank", "3", "--m", "2", "--t", t[:-1])
        assert code == 0

    def test_delta4_rational_t(self, capsys):
        code, out = run(capsys, "delta4", "--rank", "3", "--m", "2", "--t", "7/2")
        assert code == 0
        assert out.startswith("Delta_(4,7/2)(S^2 V)")

    def test_delta4_negative_t_as_a_separate_argument(self, capsys):
        # the token after a flag is its value, also when it starts with "-"
        spaced = run(capsys, "delta4", "--rank", "3", "--m", "2", "--t", "-7/2")
        joined = run(capsys, "delta4", "--rank", "3", "--m", "2", "--t=-7/2")
        assert spaced == joined
        assert spaced[0] == 0
        assert "ratio -224" in spaced[1]

    @pytest.mark.parametrize("option", [("--samples", "50"), ("--seed", "7")])
    def test_hc_check_has_no_sample_options(self, capsys, option):
        # the symbolic proof needs no sample, so these are unknown options
        code = main(["hc-check", "--k", "2", "--rank", "4", *option])
        err = capsys.readouterr().err
        assert code == 2
        assert "unrecognized arguments" in err
        assert "Traceback" not in err

    # Costly commands inside the bounds: each runs in well under a
    # second, so a return of a 7^r grid walk or of the 2^16-subset
    # determinant shows up as a stalled suite.
    def test_hc_check_at_max_rank(self, capsys):
        code, out = run(capsys, "hc-check", "--k", "3", "--rank", str(MAX_RANK))
        assert code == 0
        assert out == (
            "shift and translation identities hold: proved by symbolic expansion"
            f" (k=3, r={MAX_RANK})\n"
        )

    def test_ch_of_max_rank_parts(self, capsys):
        partition = ",".join(["4"] * MAX_RANK)
        code, out = run(
            capsys, "ch", "--rank", str(MAX_RANK), "--partition", partition,
            "--max-degree", "5", "--method", "oracle",
        )
        assert code == 0
        assert out.splitlines()[0] == "rank: 1"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ("ch", "--rank", "2", "--partition", "2"),
        ("verify", "--max-rank", "2", "--max-size", "2", "--format", "json"),
        ("--help",),
        ("ch", "--help"),
    ],
    ids=["ch", "verify", "help", "ch-help"],
)
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    # stdout is a pipe whose read end is already closed, so every write fails:
    # mid-command when unbuffered, in the final flush when buffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "logchern", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def python(*argv):
    """Run the interpreter on argv with the checkout's src first on the path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=120)


class TestEntryPoint:
    def test_module_prints_the_golden_text(self):
        proc = python("-m", "logchern", "ch", "--rank", "2", "--partition", "2", "--max-degree", "2", "--method", "both")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == (GOLDEN / "ch_sym2_rank2.txt").read_bytes()

    def test_module_usage_error_exits_2_with_one_line(self):
        proc = python("-m", "logchern", "lowrank", "--k", "4", "--rank", "17")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1

    def test_main_in_process_leaves_the_collector_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert main(["ch", "--rank", "2", "--partition", "2"]) == 0
        assert main(["lowrank", "--k", "4", "--rank", "17"]) == 2
        assert gc.get_freeze_count() == before

    def test_importing_the_entry_module_runs_nothing(self):
        proc = python("-c", "import logchern.__main__")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")

    def test_script_target_is_callable(self):
        # read with a regex: tomllib needs Python 3.11 and the package supports 3.10
        target = re.search(r'^logchern = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
        module, name = target.groups()
        assert callable(getattr(importlib.import_module(module), name))


README = ROOT / "README.md"


def readme_section(title):
    text = README.read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_commands():
    block = readme_section("Command line").split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("logchern ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_0(capsys, argv):
    assert main(argv) == 0


def test_readme_library_example_runs():
    block = readme_section("Library").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})


def test_readme_quotes_the_cli_bounds():
    quoted = re.findall(r"(\d+)\s+\(`logchern\.cli\.(MAX_\w+)`\)", readme_section("Command line"))
    assert {name: int(value) for value, name in quoted} == {
        "MAX_RANK": MAX_RANK,
        "MAX_SIZE": MAX_SIZE,
        "MAX_DIGITS": MAX_DIGITS,
    }
    assert len(quoted) == 3


# Option values per subcommand: small in-range values, out-of-range ones and
# junk.  None leaves the option out.  Each drawn command runs in well under a
# second (no rank-16 determinant, no full sweep).
# 60 digits pass the digit bound and 5000 pass the interpreter's own limit on
# int(), whose message must not leak.
LONG = ("9" * 60, "9" * 5000)
# Longest refusal line: a quoted value is cut to 60 characters, and the
# longest fixed text, the unknown-command one, takes under 100 more.
MAX_ERROR_LINE = 200
RANKS = ("-1", "0", "1", "2", "3", str(MAX_RANK + 1), "x", *LONG)
PARTITIONS = ("", "0", "1", "2", "1,1", "2,1", "3,1", "1,2", "2,-1", str(MAX_SIZE + 1), "a", *LONG)
CLI_OPTIONS = {
    "ch": (
        ("--rank", RANKS),
        ("--partition", PARTITIONS),
        ("--max-degree", ("0", "1", "2", "3", "5", "6")),
        ("--method", ("closed", "oracle", "both", "other")),
        ("--format", ("text", "json")),
    ),
    "delta": (
        ("--rank", RANKS),
        ("--partition", PARTITIONS),
        ("--k", ("0", "1", "3", "5", "6")),
    ),
    "verify": (
        ("--max-rank", ("-1", "0", "1", "2", "7")),
        ("--max-size", ("0", "1", "2", "9")),
        ("--format", ("text", "json")),
    ),
    "delta4": (
        ("--rank", RANKS),
        ("--m", ("-1", "0", "1", "2", str(MAX_SIZE + 1), "x", *LONG)),
        ("--t", ("0", "-3", "7/2", "1/0", "x", "1e1000000")),
    ),
    "lowrank": (
        ("--k", ("3", "4", "5")),
        ("--rank", RANKS),
    ),
    "mukai": (
        ("--v", (
            "2,1,2", "3,-1,0", "0,1,2", f"{MAX_RANK + 1},1,2", "2;1;2", "2,1", "2,1_0,2", "+2,1,2",
            *(f"2,{digits},2" for digits in LONG),
        )),
        ("--d", ("-1", "0", "3", *LONG)),
        ("--partition", PARTITIONS),
    ),
    "hc-check": (
        ("--k", ("1", "2", "3")),
        ("--rank", RANKS),
        # no longer options: junk that must be refused as a usage error
        ("--samples", ("-1", "0", "1", "50", "2001")),
        ("--seed", ("0", "7")),
    ),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(CLI_OPTIONS)))
    argv = [command]
    for flag, values in CLI_OPTIONS[command]:
        value = draw(st.sampled_from((None,) + values))
        if value is not None:
            argv += [flag, value]
    return argv


@given(cli_argv())
@settings(max_examples=300, deadline=None)
def test_every_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
        # a refusal quotes at most the first 60 characters of a value
        assert len(err.getvalue()) <= MAX_ERROR_LINE, (argv, err.getvalue())
        assert out.getvalue() == "", argv
