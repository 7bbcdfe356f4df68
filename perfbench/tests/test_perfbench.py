"""Tests of the benchmark itself (not collected by the repository's suite).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import copy
import hashlib
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import marketsplit as ms
import run
import workloads
from calibrate import KERNEL_BASELINE_S, Calibrator
from workloads import INSTANCE_DIR, K, WORKLOADS, all_instance_keys, instance_name

ROOT = run.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_instance_bytes_are_deterministic():
    reference = workloads.load_reference()
    for m, seed in all_instance_keys():
        name = instance_name(m, seed)
        text = ms.write_instance(ms.generate_instance(m, K, seed))
        assert text == ms.write_instance(ms.generate_instance(m, K, seed))
        data = (INSTANCE_DIR / name).read_bytes()
        assert data == text.encode("utf-8"), name
        assert hashlib.sha256(data).hexdigest() == reference["instances"][name]["sha256"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_configuration_runs_to_completion(name, trace):
    out = run.run_workload(WORKLOADS[name].smoke(), seed=1, seconds=0, trace=trace)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert set(result["metrics"]) == set(units)
    assert (out["spans"] is not None) == bool(trace)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    assert out["env"]["engines"] == ["python/none"]
    assert not out["env"]["engine_differs_from_baseline"]


def test_times_are_scaled_by_the_calibration_kernel():
    class TwiceAsSlow(Calibrator):
        def burst(self):
            return 2 * KERNEL_BASELINE_S

    reference = workloads.load_reference()
    name = instance_name(3, 27)
    text = workloads.load_text(3, 27, reference)
    items = [run.Item(name, text, ms.parse_instance(text), reference["instances"][name])]
    out = run.timed_run(ms, WORKLOADS["all-m5"].smoke(), items, 1, 0, TwiceAsSlow())
    assert out["metrics"]["wall_s"] == pytest.approx(out["raw"]["wall_s"] / 2)
    assert out["metrics"]["solve_s_max"] == pytest.approx(out["raw"]["solve_s_max"] / 2)


def _corrupt(reference, workload):
    bad = copy.deepcopy(reference)
    entry = bad["instances"][instance_name(workload.m, workload.seeds[0])]
    if workload.mode == "all":
        flipped = "1" if entry["solutions"][0][0] == "0" else "0"
        entry["solutions"][0] = flipped + entry["solutions"][0][1:]
    else:
        entry["verdict"] = "infeasible"
    return bad


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_reference_raises_fail_rate(name, monkeypatch):
    workload = WORKLOADS[name].smoke()
    bad = _corrupt(workloads.load_reference(), workload)
    monkeypatch.setattr(run, "load_reference", lambda: bad)
    result = run.run_workload(workload, seed=1, seconds=0, trace=0)["result"]
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_equivalence_check_flags_a_different_batch_count():
    workload = WORKLOADS["first-m6"]
    inst = ms.parse_instance((INSTANCE_DIR / instance_name(3, 27)).read_text())
    result = ms.solve(inst, workload.config(ms))
    traced = (result.verdict, result.solutions, result.stats.batches)
    assert run.equivalence_failure(result, traced, workload) is None
    shifted = (result.verdict, result.solutions, result.stats.batches + 1)
    assert run.equivalence_failure(result, shifted, workload)
    assert run.equivalence_failure(result, ("infeasible", [], traced[2]), workload)


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all-m5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no marketsplit package" in proc.stderr
