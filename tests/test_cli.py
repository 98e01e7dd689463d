import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logchern.cli import MAX_RANK, MAX_SAMPLES, MAX_SIZE, main
from logchern.oracle import MAX_SWEEP_RANK, MAX_SWEEP_SIZE

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def check_golden(name, text):
    path = GOLDEN / name
    assert text == path.read_text(), f"output drifted from {name}"


class TestCh:
    def test_both_matching_golden(self, capsys):
        code, out = run(
            capsys, "ch", "--rank", "2", "--partition", "2",
            "--max-degree", "2", "--method", "both",
        )
        assert code == 0
        check_golden("ch_sym2_rank2.txt", out)

    def test_determinant_rank_one(self, capsys):
        code, out = run(
            capsys, "ch", "--rank", "3", "--partition", "1,1,1",
            "--max-degree", "2", "--method", "oracle",
        )
        assert code == 0
        assert out.splitlines()[0] == "rank: 1"

    def test_json_round_trips_schema(self, capsys):
        from logchern.characters import BundleCharacter, ch_ring
        from logchern.oracle import oracle_schur_ch

        code, out = run(
            capsys, "ch", "--rank", "4", "--partition", "2,1",
            "--max-degree", "3", "--format", "json", "--method", "oracle",
        )
        assert code == 0
        doc = json.loads(out)
        ring = ch_ring(doc["D"])
        parts = (ring.parse(text) for text in doc["ch"].values())
        parsed = BundleCharacter(sum(parts, ring.scalar(doc["rank"])))
        assert parsed == oracle_schur_ch((2, 1), 4, 3)

    def test_closed_refuses_high_degree_for_general_partition(self, capsys):
        code = main(
            ["ch", "--rank", "4", "--partition", "2,1", "--max-degree", "4",
             "--method", "closed"]
        )
        assert code == 2
        assert "degree <= 3" in capsys.readouterr().err

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

        closed = logchern.cli._closed_character
        monkeypatch.setattr(
            logchern.cli, "_closed_character", lambda *args: closed(*args).scale(2)
        )
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
        with pytest.raises(SystemExit) as exc:
            main(["ch", "--rank", "2"])
        assert exc.value.code == 2


class TestDelta:
    def test_sym_square_factor_golden(self, capsys):
        code, out = run(capsys, "delta", "--rank", "2", "--partition", "2", "--k", "2")
        assert code == 0
        check_golden("delta_sym2_rank2.txt", out)

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

    def test_json_schema(self, capsys):
        code, out = run(
            capsys, "verify", "--max-rank", "2", "--max-size", "2",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["cases", "passed", "failed", "discrepancies"]
        assert data["cases"] == 3
        assert data["failed"] == 0
        assert data["discrepancies"]
        for row in data["discrepancies"]:
            assert list(row) == [
                "claim",
                "paper_location",
                "printed_value",
                "measured_value",
                "status",
            ]
            assert row["status"] in ("confirmed", "typo-suspected")


class TestOthers:
    def test_lowrank_vanishes(self, capsys):
        code, out = run(capsys, "lowrank", "--k", "4", "--rank", "3")
        assert code == 0
        assert out == "modified Delta_4 at rank 3: vanishes identically\n"

    def test_lowrank_nonzero_at_rank_equal_k(self, capsys):
        code, out = run(capsys, "lowrank", "--k", "4", "--rank", "4")
        assert code == 0
        assert "vanishes" not in out

    def test_lowrank_rejects_other_k(self):
        with pytest.raises(SystemExit) as exc:
            main(["lowrank", "--k", "3", "--rank", "2"])
        assert exc.value.code == 2

    def test_mukai_golden(self, capsys):
        code, out = run(
            capsys, "mukai", "--v", "2,1,2", "--d", "3", "--partition", "2"
        )
        assert code == 0
        check_golden("mukai_sym2_d3.txt", out)

    def test_mukai_primitive_case(self, capsys):
        code, out = run(
            capsys, "mukai", "--v", "2,1,2", "--d", "4", "--partition", "2"
        )
        assert code == 0
        assert "(3, 3*H, 7)" in out and "primitive: yes" in out

    def test_mukai_parse_error(self, capsys):
        code = main(["mukai", "--v", "2;1;2", "--d", "3", "--partition", "2"])
        assert code == 2

    def test_delta4_output(self, capsys):
        code, out = run(capsys, "delta4", "--rank", "3", "--m", "2")
        assert code == 0
        assert "proportional: yes, ratio 88" in out
        assert "88/3" in out

    def test_hc_check(self, capsys):
        code, out = run(capsys, "hc-check", "--k", "2", "--rank", "2")
        assert code == 0
        assert "49 grid points" in out

    def test_hc_check_samples_covering_the_grid(self, capsys):
        # 500 >= 7^3, so the whole grid runs and the label says so
        code, out = run(
            capsys, "hc-check", "--k", "2", "--rank", "3", "--samples", "500"
        )
        assert code == 0
        assert out == "shift and translation identities hold on 343 grid points (k=2, r=3)\n"

    def test_hc_check_sampled(self, capsys):
        code, out = run(
            capsys, "hc-check", "--k", "3", "--rank", "4", "--samples", "50"
        )
        assert code == 0
        assert "50 sampled points" in out


def run_error(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    return code, err


class TestInputBounds:
    @pytest.mark.parametrize("rank", ["0", "-2", str(MAX_RANK + 1)])
    @pytest.mark.parametrize(
        "command",
        [
            ("ch", "--partition", "0", "--method", "oracle"),
            ("ch", "--partition", "1"),
            ("delta", "--partition", "1"),
            ("delta4", "--m", "2"),
            ("hc-check", "--k", "3"),
        ],
    )
    def test_rank_out_of_range(self, capsys, command, rank):
        code, err = run_error(capsys, *command, "--rank", rank)
        assert code == 2
        assert err == f"error: rank must lie in 1..{MAX_RANK}, got {rank}\n"

    @pytest.mark.parametrize(
        "vector", ["2,1_0,2", "+2,1,2", "2,+1,2", "2,1,2,3", "2,,2", "2,1.0,2"]
    )
    def test_mukai_vector_needs_three_plain_integers(self, capsys, vector):
        # int() alone would read "1_0" as 10 and "+2" as 2
        code, err = run_error(
            capsys, "mukai", f"--v={vector}", "--d", "3", "--partition", "2"
        )
        assert code == 2
        assert err == f"error: cannot parse Mukai vector {vector!r}; expected r,c,s\n"

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
        assert err == f"error: rank must lie in 1..{MAX_RANK}, got {rank}\n"

    @pytest.mark.parametrize(
        "command",
        [
            ("ch", "--rank", "2", "--partition", str(MAX_SIZE + 1)),
            ("ch", "--rank", "2", "--partition", f"{MAX_SIZE},1", "--method", "oracle"),
            ("delta", "--rank", "3", "--partition", str(MAX_SIZE + 1)),
            ("delta4", "--rank", "3", "--m", str(MAX_SIZE + 1)),
            ("mukai", "--v", "2,1,2", "--d", "3", "--partition", str(MAX_SIZE + 1)),
        ],
    )
    def test_size_above_max(self, capsys, command):
        code, err = run_error(capsys, *command)
        assert code == 2
        assert err == f"error: partition size must be at most {MAX_SIZE}, got {MAX_SIZE + 1}\n"

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
        ],
    )
    def test_unparsable_partition(self, capsys, command, text):
        code, err = run_error(capsys, *command)
        assert code == 2
        assert err == f"error: cannot parse partition {text!r}\n"

    @pytest.mark.parametrize("text", ["1,0,1", "0,2"])
    def test_zero_before_a_part(self, capsys, text):
        code, err = run_error(
            capsys, "ch", "--rank", "3", "--partition", text,
            "--method", "oracle", "--max-degree", "1",
        )
        assert code == 2
        parts = ", ".join(text.split(","))
        assert err == f"error: parts not weakly decreasing: ({parts})\n"

    @pytest.mark.parametrize("t", ["1/0", "abc"])
    def test_delta4_bad_t_is_a_usage_error(self, capsys, t):
        with pytest.raises(SystemExit) as exc:
            main(["delta4", "--rank", "3", "--m", "2", "--t", t])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"not an exact rational: {t!r}" in err

    def test_delta4_rational_t(self, capsys):
        code, out = run(capsys, "delta4", "--rank", "3", "--m", "2", "--t", "7/2")
        assert code == 0
        assert out.startswith("Delta_(4,7/2)(S^2 V)")

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_hc_check_refuses_empty_sample(self, capsys, samples):
        code, err = run_error(
            capsys, "hc-check", "--k", "2", "--rank", "4", "--samples", samples
        )
        assert code == 2
        assert err == f"error: --samples must be at least 1, got {samples}\n"


    def test_hc_check_refuses_oversized_sample(self, capsys):
        samples = str(MAX_SAMPLES + 1)
        code, err = run_error(
            capsys, "hc-check", "--k", "2", "--rank", "4", "--samples", samples
        )
        assert code == 2
        assert err == f"error: --samples must be at most {MAX_SAMPLES}, got {samples}\n"

    def test_hc_check_default_sample_at_rank_five(self, capsys):
        code, out = run(capsys, "hc-check", "--k", "2", "--rank", "5")
        assert code == 0
        assert f"{MAX_SAMPLES} sampled points" in out

    # The slowest commands inside the bounds: each runs in well under a
    # second, so a return of the O(r^3) Fraction grid or of the 2^16-subset
    # determinant shows up as a stalled suite.
    def test_hc_check_at_max_rank(self, capsys):
        code, out = run(capsys, "hc-check", "--k", "3", "--rank", str(MAX_RANK))
        assert code == 0
        assert out == (
            f"shift and translation identities hold on {MAX_SAMPLES} sampled points"
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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
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


README = Path(__file__).parent.parent / "README.md"


def readme_section(title):
    text = README.read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def readme_commands():
    block = readme_section("Command line").split("```")[1]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("logchern ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_exits_0(capsys, argv):
    assert main(argv) == 0


def test_readme_quotes_the_cli_bounds():
    quoted = re.findall(r"(\d+)\s+\(`logchern\.cli\.(MAX_\w+)`\)", readme_section("Command line"))
    assert {name: int(value) for value, name in quoted} == {
        "MAX_RANK": MAX_RANK,
        "MAX_SIZE": MAX_SIZE,
        "MAX_SAMPLES": MAX_SAMPLES,
    }
    assert len(quoted) == 3


# Option values per subcommand: small in-range values, out-of-range ones and
# junk.  None leaves the option out.  Each drawn command runs in well under a
# second (no rank-16 determinant, no full sweep, no rank >= 4 hc-check grid).
RANKS = ("-1", "0", "1", "2", "3", str(MAX_RANK + 1), "x")
PARTITIONS = ("", "0", "1", "2", "1,1", "2,1", "3,1", "1,2", "2,-1", str(MAX_SIZE + 1), "a")
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
        ("--max-degree", ("0", "1", "3", "4")),
        ("--format", ("text", "json")),
    ),
    "delta4": (
        ("--rank", RANKS),
        ("--m", ("-1", "0", "1", "2", str(MAX_SIZE + 1), "x")),
        ("--t", ("0", "-3", "7/2", "1/0", "x")),
    ),
    "lowrank": (
        ("--k", ("3", "4", "5")),
        ("--rank", RANKS),
    ),
    "mukai": (
        ("--v", (
            "2,1,2", "3,-1,0", "0,1,2", f"{MAX_RANK + 1},1,2", "2;1;2", "2,1", "2,1_0,2", "+2,1,2",
        )),
        ("--d", ("-1", "0", "3")),
        ("--partition", PARTITIONS),
    ),
    "hc-check": (
        ("--k", ("1", "2", "3")),
        ("--rank", RANKS),
        ("--samples", ("-1", "0", "1", "50", str(MAX_SAMPLES + 1))),
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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
