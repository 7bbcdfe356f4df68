"""The library's public names, and those the frozen benchmark
(`perfbench/`) calls, still work.

Each workload's smoke configuration runs once, traced, which reaches the
most library names (the tracer's replay stages among them).  The
benchmark's own tests live in `perfbench/tests`.
"""

import sys
from pathlib import Path

import pytest

import marketsplit

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_workload_runs_correct(name):
    out = run.run_workload(WORKLOADS[name].smoke(), seed=1, seconds=0, trace=1)
    assert out["result"]["correct"]
    assert out["result"]["failed"] == 0


def test_public_exports_resolve():
    missing = [name for name in marketsplit.__all__ if not hasattr(marketsplit, name)]
    assert not missing
    assert len(set(marketsplit.__all__)) == len(marketsplit.__all__)
    namespace: dict = {}
    exec("from marketsplit import *", namespace)
    assert set(marketsplit.__all__) <= set(namespace)
