"""`tools/ab.py`, the in-process A/B timer, on the smoke and held-out
instances."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOISE_NOTE = "within in-process noise; confirm with alternating perfbench pairs"


def run_ab(*args: str, change: Path = ROOT / "src") -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), src, str(change),
         "--workload", "reduced-m5", *args],
        capture_output=True, text=True, timeout=300,
    )


def _doubled_validate_calls(tmp_path: Path) -> Path:
    """A copy of `src` whose solves report twice their validate calls and
    every other counter as before."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    solver = src / "marketsplit" / "solver.py"
    line = "stats.validate_calls += vstats.calls"
    text = solver.read_text()
    assert text.count(line) == 1
    solver.write_text(text.replace(line, "stats.validate_calls += 2 * vstats.calls"))
    return src


def test_tree_against_itself():
    out = run_ab("--smoke", "--rounds", "3")
    assert out.returncode == 0, out.stderr
    out = out.stdout
    assert "seeds 27, 3 rounds; same answers and counters in every round" in out
    lines = [line for line in out.splitlines() if line != NOISE_NOTE]
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        "parent", "change", "ratio", "traced peak per seed (MB, untimed tracemalloc pass)"
    ]
    for line in lines[1:3]:  # each tree's median minor page faults per round
        assert re.search(r"; minor faults \d+ per round$", line), line
    # one traced solve per tree and seed; the same code peaks alike
    peaks = re.fullmatch(
        r"traced peak per seed \(MB, untimed tracemalloc pass\): "
        r"parent s27 (\d+\.\d\d); change s27 (\d+\.\d\d)", lines[-1]
    )
    assert peaks, lines[-1]
    assert 0 < float(peaks[1]) == float(peaks[2])


def test_near_parity_is_flagged_as_noise(capsys):
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    for ratios, noted in (([0.98, 1.0, 1.03], True), ([0.90, 0.96, 0.97], False)):
        ab.report_ratios(ratios)
        assert (NOISE_NOTE in capsys.readouterr().out) is noted, ratios
    # one tree against itself: the note follows the ratio line exactly
    # when the timed median is within 3% of 1, as it almost always is
    # (a run's median can stray further, so the timing is not asserted)
    out = run_ab("--rounds", "6")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    ratio = next(i for i, line in enumerate(lines) if line.startswith(" ratio:"))
    median = float(lines[ratio].split()[2])
    assert (lines[ratio + 1] == NOISE_NOTE) is (abs(median - 1) <= 0.03), out.stdout


def test_allocator_neutral_reexecutes():
    # the flag's settings reach the re-executed process, which names them
    # in the header line; one tree against itself still passes
    out = run_ab("--smoke", "--rounds", "2", "--allocator-neutral")
    assert out.returncode == 0, out.stderr
    header = out.stdout.splitlines()[0]
    assert header.endswith(
        "same answers and counters in every round; allocator-neutral: "
        "MALLOC_TRIM_THRESHOLD_=1073741824, MALLOC_MMAP_THRESHOLD_=33554432"
    ), header
    assert "change faster in" in out.stdout
    # without the flag the header names no allocator settings
    plain = run_ab("--smoke", "--rounds", "1")
    assert plain.returncode == 0 and "allocator-neutral" not in plain.stdout


def test_held_out_seeds():
    out = run_ab("--held-out", "--rounds", "1")
    assert out.returncode == 0, out.stderr
    # reduced-m5's held-out seeds, read from perfbench/workloads.py
    assert "seeds 18,25, 1 rounds; same answers" in out.stdout
    # a traced peak for each tree and seed
    assert re.search(r"parent s18 [\d.]+, s25 [\d.]+; change s18 [\d.]+, s25 [\d.]+$",
                     out.stdout.splitlines()[-1])


def test_seed_choices_exclude_each_other():
    out = run_ab("--held-out", "--smoke")
    assert out.returncode == 2 and "exclude each other" in out.stderr


def test_expected_change_is_reported(tmp_path):
    change = _doubled_validate_calls(tmp_path)
    out = run_ab("--smoke", "--rounds", "2", change=change)
    assert out.returncode == 1 and "answers or counters differ" in out.stderr
    out = run_ab("--smoke", "--rounds", "2", "--expect-changed", "validate_calls",
                 change=change)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "same answers and counters, except validate_calls, in every round" in lines[0]
    assert "validate_calls: parent 1, change 2 (per round, all seeds)" in lines


def test_other_counters_still_checked(tmp_path):
    change = _doubled_validate_calls(tmp_path)
    out = run_ab("--smoke", "--rounds", "1", "--expect-changed", "batches,windows",
                 change=change)
    assert out.returncode == 1 and "answers or counters differ" in out.stderr


def test_expect_changed_takes_counters_only():
    for names in ("t_total", "validate_calls,bogus"):
        out = run_ab("--smoke", "--rounds", "1", "--expect-changed", names)
        assert out.returncode == 1
        bad = names.split(",")[-1]
        assert f"not a SolveStats counter of the parent tree: {bad}" in out.stderr
