"""Command-line surface: output formats, exit codes, bench report."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from marketsplit.cli import BenchRecord, BenchReport, main

EXAMPLE = "2 3\n1 2 3 3\n2 1 3 3\n"


@pytest.fixture
def example_path(tmp_path) -> str:
    path = tmp_path / "example.txt"
    path.write_text(EXAMPLE)
    return str(path)


class TestSolveCommand:
    def test_all_solutions_output(self, example_path, capsys):
        code = main(["solve", example_path, "--all"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out == ["FEASIBLE", "001", "110"]

    def test_infeasible_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n2 2 3\n")
        code = main(["solve", str(path)])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == "INFEASIBLE"

    def test_first_mode_prints_one_solution(self, example_path, capsys):
        code = main(["solve", example_path])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "FEASIBLE" and len(out) == 2
        assert out[1] in ("001", "110")

    def test_reduce_out_of_range(self, example_path, capsys):
        code = main(["solve", example_path, "--reduce", "99"])
        assert code == 2
        assert "r out of range" in capsys.readouterr().err

    def test_unreadable_file(self, capsys):
        assert main(["solve", "/nonexistent/inst.txt"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("2 3\n1 2 3\n")
        assert main(["solve", str(path)]) == 2
        assert "row 1: expected 4 values, found 3" in capsys.readouterr().err

    def test_stats_record(self, example_path, capsys):
        code = main(["solve", example_path, "--all", "--stats"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        record = json.loads(out[-1])
        assert record["verdict"] == "feasible"
        assert record["solutions"] == 2
        assert record["instance"] == example_path
        # the exact schema: removing or adding a key is a deliberate act
        assert set(record) == {
            "instance", "verdict", "seconds", "solutions",
            "batches", "validate_calls", "candidates_left", "candidates_right",
            "hash_hits", "exact_hits", "max_batch_pairs", "peak_table_entries",
            "peak_window_pairs", "windows", "progress", "t_build", "t_enumerate",
            "t_validate", "t_total", "fallback", "engine",
        }

    def test_solver_flags_accepted(self, example_path):
        assert (
            main(
                [
                    "solve",
                    example_path,
                    "--all",
                    "--backend",
                    "serial",
                    "--workers",
                    "2",
                    "--pipeline-depth",
                    "4",
                    "--chunk-pairs",
                    "64",
                ]
            )
            == 0
        )


class TestVerifyCommand:
    def test_valid(self, example_path, capsys):
        assert main(["verify", example_path, "110"]) == 0
        assert capsys.readouterr().out.strip() == "VALID"

    def test_invalid(self, example_path, capsys):
        assert main(["verify", example_path, "100"]) == 1
        assert capsys.readouterr().out.strip() == "INVALID"

    def test_length_mismatch(self, example_path, capsys):
        assert main(["verify", example_path, "11"]) == 2
        assert "length" in capsys.readouterr().err

    def test_bad_characters(self, example_path, capsys):
        assert main(["verify", example_path, "1x0"]) == 2


class TestGenerateCommand:
    def test_writes_expected_files(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        code = main(
            [
                "generate", "--m", "3", "--K", "100",
                "--seed", "1", "--count", "4", "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.glob("*.txt"))
        assert files == [
            "msp_m3_n20_K100_s1.txt",
            "msp_m3_n20_K100_s2.txt",
            "msp_m3_n20_K100_s3.txt",
            "msp_m3_n20_K100_s4.txt",
        ]

    def test_regeneration_is_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for out in (d1, d2):
            main(["generate", "--m", "2", "--K", "13", "--seed", "9",
                  "--count", "2", "--out-dir", str(out)])
        for p1 in d1.glob("*.txt"):
            assert p1.read_bytes() == (d2 / p1.name).read_bytes()

    def test_invalid_m(self, tmp_path, capsys):
        code = main(["generate", "--m", "1", "--K", "10", "--seed", "0",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "m must be" in capsys.readouterr().err


class TestBenchCommand:
    def test_report_and_stats(self, tmp_path, capsys):
        main(["generate", "--m", "2", "--K", "10", "--seed", "5",
              "--count", "3", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code = main(["bench", str(tmp_path), "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(2, 10, 10)" in out
        assert "Average" in out
        records = [json.loads(line) for line in out.splitlines()
                   if line.startswith("{")]
        assert len(records) == 3
        assert all(r["class"] == "(2, 10, 10)" for r in records)

    def test_timeout_record_carries_partial_stats(self, tmp_path, capsys):
        main(["generate", "--m", "3", "--K", "100", "--seed", "2",
              "--count", "1", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code = main(["bench", str(tmp_path), "--time-limit", "0.000001", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        (record,) = [json.loads(line) for line in out.splitlines()
                     if line.startswith("{")]
        assert record["verdict"] == "timeout"
        assert record["class"] == "(3, 20, 100)"
        assert record["peak_table_entries"] == 4 * 2**5
        assert record["t_total"] > 0 and "progress" in record

    def test_time_limit_marks_dash(self, tmp_path, capsys):
        main(["generate", "--m", "3", "--K", "100", "--seed", "2",
              "--count", "1", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code = main(["bench", str(tmp_path), "--time-limit", "0.000001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "time limit" in out
        assert "-" in out.splitlines()[-2] or "-" in out.splitlines()[-1]

    def test_reduced_class_is_starred(self, tmp_path, capsys):
        main(["generate", "--m", "3", "--K", "10", "--seed", "3",
              "--count", "1", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        code = main(["bench", str(tmp_path), "--reduce", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(3, 20, 10)*" in out

    @pytest.mark.parametrize("r", ["0", "-3"])
    def test_reduce_below_one_rejected(self, tmp_path, capsys, r):
        main(["generate", "--m", "2", "--K", "10", "--seed", "1",
              "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["bench", str(tmp_path), "--reduce", r]) == 2
        captured = capsys.readouterr()
        assert "r out of range" in captured.err
        assert captured.out == ""  # nothing was solved

    def test_multiple_classes_grouped(self, tmp_path, capsys):
        main(["generate", "--m", "2", "--K", "10", "--seed", "1",
              "--count", "2", "--out-dir", str(tmp_path)])
        main(["generate", "--m", "2", "--K", "50", "--seed", "1",
              "--count", "2", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert main(["bench", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "(2, 10, 10)" in out and "(2, 10, 50)" in out

    def test_empty_directory(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path)]) == 2
        assert "no instance files" in capsys.readouterr().err

    def test_not_a_directory(self, capsys):
        assert main(["bench", "/nonexistent/dir"]) == 2

    def test_report_average_is_arithmetic_mean(self):
        def rec(label, seconds, timed_out=False):
            return BenchRecord(Path("x.txt"), label, timed_out, seconds, None)

        report = BenchReport(
            records=[
                rec("a", 1.0), rec("a", 2.0), rec("a", 3.0), rec("a", 4.0),
                rec("b", 5.0), rec("b", 99.0, timed_out=True),
                rec("c", 7.0, timed_out=True),
            ]
        )
        assert report.class_average("a") == pytest.approx(2.5)
        assert report.class_average("b") == pytest.approx(5.0)
        assert report.class_average("c") is None
        assert report.timeouts() == 2
        assert sum(len(v) for v in report.by_class().values()) == 7


class TestSolveVerifyClosure:
    def test_every_printed_solution_verifies(self, tmp_path, capsys):
        for seed in range(4):
            main(["generate", "--m", "2", "--K", "8", "--seed", str(seed),
                  "--out-dir", str(tmp_path)])
        capsys.readouterr()
        for path in sorted(tmp_path.glob("*.txt")):
            code = main(["solve", str(path), "--all"])
            lines = capsys.readouterr().out.splitlines()
            if code == 1:
                assert lines == ["INFEASIBLE"]
                continue
            assert code == 0 and lines[0] == "FEASIBLE"
            # solutions print in encoding order, which is string order
            assert lines[1:] == sorted(lines[1:])
            for sol in lines[1:]:
                assert main(["verify", str(path), sol]) == 0
                capsys.readouterr()
