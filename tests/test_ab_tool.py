"""`tools/ab.py`, the in-process A/B timer, on the smoke and held-out
instances."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_ab(*args: str) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), src, src,
         "--workload", "reduced-m5", *args],
        capture_output=True, text=True, timeout=300,
    )


def test_tree_against_itself():
    out = run_ab("--smoke", "--rounds", "3")
    assert out.returncode == 0, out.stderr
    out = out.stdout
    assert "seeds 27, 3 rounds; same answers and counters in every round" in out
    lines = out.splitlines()
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["parent", "change", "ratio"]


def test_held_out_seeds():
    out = run_ab("--held-out", "--rounds", "1")
    assert out.returncode == 0, out.stderr
    # reduced-m5's held-out seeds, read from perfbench/workloads.py
    assert "seeds 18,25, 1 rounds; same answers" in out.stdout


def test_seed_choices_exclude_each_other():
    out = run_ab("--held-out", "--smoke")
    assert out.returncode == 2 and "exclude each other" in out.stderr
