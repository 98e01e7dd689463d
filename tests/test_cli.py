import json
from pathlib import Path

import pytest

from logchern.cli import MAX_RANK, main

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
        from logchern.characters import BundleCharacter
        from logchern.oracle import oracle_schur_ch

        code, out = run(
            capsys, "ch", "--rank", "4", "--partition", "2,1",
            "--max-degree", "3", "--format", "json", "--method", "oracle",
        )
        assert code == 0
        parsed = BundleCharacter.from_json_dict(json.loads(out))
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
        assert set(data) == {"cases", "passed", "failed", "discrepancies"}
        assert data["failed"] == 0


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
        ],
    )
    def test_rank_out_of_range(self, capsys, command, rank):
        code, err = run_error(capsys, *command, "--rank", rank)
        assert code == 2
        assert err == f"error: rank must lie in 1..{MAX_RANK}, got {rank}\n"

    def test_max_rank_accepted(self, capsys):
        code, out = run(
            capsys, "ch", "--rank", str(MAX_RANK), "--partition", "1",
            "--max-degree", "1", "--method", "oracle",
        )
        assert code == 0
        assert out.splitlines()[0] == f"rank: {MAX_RANK}"

    @pytest.mark.parametrize("command", ["ch", "delta"])
    def test_partition_longer_than_rank(self, capsys, command):
        code, err = run_error(capsys, command, "--rank", "2", "--partition", "1,1,1")
        assert code == 2
        assert err == "error: partition 1,1,1 has 3 parts, more than the rank 2\n"

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

