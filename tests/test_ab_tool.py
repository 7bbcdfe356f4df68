"""`tools/ab.py`, the in-process A/B timer, on the smoke instance."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tree_against_itself():
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), src, src,
         "--workload", "reduced-m5", "--smoke", "--rounds", "3"],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    assert "seeds 27, 3 rounds; same answers and counters in every round" in out
    lines = out.splitlines()
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["parent", "change", "ratio"]
