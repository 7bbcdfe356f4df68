"""Benchmark of the marketsplit solver: one workload per process.

    python3 perfbench/run.py --workload first-m6 --seed 1 --seconds 26 --trace 0

Run it from the root of a checkout; it imports the library from that
checkout's `src/` and nothing else.  With `--trace 0` it times
`marketsplit.solve()` over the workload's frozen instances in a closed
loop and reports the end-to-end metrics.  With `--trace 1` it makes one
pass that solves each instance through `solve()` and again through the
traced loop in `tracer.py`, checks that both agree, and reports the
per-layer metrics.  `--seed` fixes the order in which a pass visits the
instances (the instances themselves are the frozen seeds, or those
given with `--instance-seeds`).  Every answer is checked against
`reference.json`; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from workloads import (
    INSTANCE_DIR,
    K,
    SOLVE_TIME_LIMIT,
    WORKLOADS,
    check_answer,
    instance_name,
    load_reference,
    load_text,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is timed this many times in fresh interpreters; the median is reported.
SETUP_REPEATS = 9

# No native thread pools beyond what the pinned config asks for.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# What a user pays before the first solve: interpreter start, importing
# numpy and marketsplit, and parsing the workload's instance files.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy, marketsplit
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        marketsplit.parse_instance(fh.read())
"""

E2E_UNITS = {"wall_s": "s", "solve_s_max": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "instances.parse_s": "s",
    "instances.reduce_s": "s",
    "instances.verify_s": "s",
    "instances.verify_calls": "count",
    "enumerate1d.build_s": "s",
    "enumerate1d.table_entries": "count",
    "enumerate1d.next_batch_s": "s",
    "enumerate1d.next_batch_us_p50": "us",
    "enumerate1d.next_batch_us_p98": "us",
    "enumerate1d.batches": "count",
    "enumerate1d.pairs": "count",
    "enumerate1d.pairs_per_s": "1/s",
    "enumerate1d.batch_pairs_max": "count",
    "enumerate1d.heap_peak": "count",
    "validate.chunked_s": "s",
    "validate.pairs_per_s": "1/s",
    "validate.calls": "count",
    "validate.call_us_p50": "us",
    "validate.residuals_s": "s",
    "validate.hash_s": "s",
    "validate.sort_s": "s",
    "validate.match_s": "s",
    "validate.hash_hits": "count",
    "validate.exact_hits": "count",
    "validate.hit_precision": "ratio",
    "validate.right_filtered_frac": "ratio",
    "solver.enumerate_s": "s",
    "solver.validate_s": "s",
    "solver.other_s": "s",
    "solver.overlap": "ratio",
    "trace.overhead_s": "s",
}


class Item(NamedTuple):
    name: str
    text: str
    inst: object
    entry: dict


class Outcome(NamedTuple):
    seconds: float
    result: object  # SolveResult, or None when the solve raised
    failure: str | None


def parse_seeds(value: str) -> tuple[int, ...]:
    return tuple(int(s) for s in value.split(","))


def parse_args(argv) -> argparse.Namespace:
    held_out = "; ".join(f"{w.name}: {','.join(map(str, w.held_out))}" for w in WORKLOADS.values())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="order of instances within a pass")
    p.add_argument("--seconds", type=float, required=True, help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--instance-seeds",
        type=parse_seeds,
        help=f"comma-separated instance seeds (default: the frozen ones); held-out sets: {held_out}",
    )
    return p.parse_args(argv)


def import_library():
    """Import marketsplit from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import marketsplit

    if SRC.resolve() not in Path(marketsplit.__file__).resolve().parents:
        raise ImportError(f"marketsplit imported from {marketsplit.__file__}, not {SRC}")
    return marketsplit


def measure_setup(paths: list[Path]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, paths)],
            check=True,
            stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def solve_checked(ms, item: Item, workload, cfg) -> Outcome:
    t0 = time.perf_counter()
    try:
        result = ms.solve(item.inst, cfg, time_limit=SOLVE_TIME_LIMIT)
    except ms.SolveTimeout:
        return Outcome(time.perf_counter() - t0, None, f"timeout after {SOLVE_TIME_LIMIT}s")
    except Exception as exc:  # a crashing solve is a failed solve, not a crashed benchmark
        return Outcome(time.perf_counter() - t0, None, f"error: {exc!r}")
    seconds = time.perf_counter() - t0
    return Outcome(seconds, result, check_answer(result, item.inst, item.entry, workload.mode, ms))


def report_failure(item: Item, reason: str) -> None:
    print(f"perfbench: FAILED {item.name}: {reason}", file=sys.stderr)


def timed_run(ms, workload, items: list[Item], seed: int, seconds: float, cal) -> dict:
    """Closed loop over passes until another pass would overrun `seconds`.

    Each solve is bracketed by calibration bursts; its time is reported
    both raw and scaled to the baseline machine speed (see calibrate.py).
    """
    cfg = workload.config(ms)
    rng = random.Random(seed)
    passes, raw_passes, engines = [], [], set()
    attempted = failed = 0
    start = time.perf_counter()
    kernel_before = cal.burst()
    bursts = [kernel_before]
    while True:
        order = list(items)
        rng.shuffle(order)
        times, raw = [], []
        for item in order:
            out = solve_checked(ms, item, workload, cfg)
            kernel_after = cal.burst()
            bursts.append(kernel_after)
            raw.append(out.seconds)
            times.append(out.seconds * cal.scale(kernel_before, kernel_after))
            kernel_before = kernel_after
            attempted += 1
            if out.result is not None:
                engines.add(f"{out.result.stats.engine}/{out.result.stats.fallback}")
            if out.failure:
                failed += 1
                report_failure(item, out.failure)
        passes.append(times)
        raw_passes.append(raw)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(map(sum, passes)),
        "solve_s_max": statistics.median(map(max, passes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_metrics = {
        "wall_s": statistics.median(map(sum, raw_passes)),
        "solve_s_max": statistics.median(map(max, raw_passes)),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "engines": engines,
            "passes": len(passes), "raw": raw_metrics,
            "calibration": {"bursts": bursts, "solves": raw_passes}}


def equivalence_failure(result, traced, workload) -> str | None:
    """Why the traced loop did not measure the program solve() ran, if it did not."""
    verdict, solutions, batches = traced
    if (verdict, solutions) != (result.verdict, result.solutions):
        return "traced loop answers differ from solve()"
    # A first-solution pipeline may enumerate up to pipeline_depth batches
    # into the buffer, plus one per worker, past the batch that solves it.
    slack = 0
    if workload.mode == "first" and (workload.pipeline_depth, workload.worker_count) != (1, 1):
        slack = workload.pipeline_depth + workload.worker_count
    if not batches <= result.stats.batches <= batches + slack:
        return f"traced loop drained {batches} batches, solve() {result.stats.batches}"
    return None


def traced_run(ms, workload, items: list[Item], seed: int) -> dict:
    """One pass: each instance through solve(), then through the traced loop."""
    from tracer import Tracer, layer_metrics, traced_solve

    cfg = workload.config(ms)
    order = list(items)
    random.Random(seed).shuffle(order)
    tr = Tracer()
    solve_stats, engines = [], set()
    untraced_wall = traced_wall = 0.0
    attempted = failed = 0
    for item in order:
        out = solve_checked(ms, item, workload, cfg)
        untraced_wall += out.seconds
        t0 = time.perf_counter()
        try:
            with tr.span("solve"):
                traced = traced_solve(ms, tr, item.text, cfg)
        except Exception as exc:  # counted as a failure like a crashing solve()
            traced, traced_failure = None, f"traced loop error: {exc!r}"
        else:
            traced_failure = check_answer(
                ms.SolveResult(traced[0], traced[1], None), item.inst, item.entry, workload.mode, ms
            )
        traced_wall += time.perf_counter() - t0
        attempted += 2
        if out.result is not None:
            solve_stats.append(out.result.stats)
            engines.add(f"{out.result.stats.engine}/{out.result.stats.fallback}")
        equivalence = None
        if out.result is not None and traced is not None:
            equivalence = equivalence_failure(out.result, traced, workload)
        for failure in (out.failure, traced_failure, equivalence):
            if failure:
                failed += 1
                report_failure(item, failure)
    metrics = layer_metrics(tr, solve_stats, traced_wall, untraced_wall)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "engines": engines,
            "passes": 1, "spans": tr.summary()}


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True, stdin=subprocess.DEVNULL,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out[1] if Path(out[0]).resolve() == ROOT else "unknown"


def environment(ms, workload, run: dict, reference: dict, seed: int, trace: int) -> dict:
    import numpy
    from marketsplit import fastenum, fastval

    digest = hashlib.sha256()
    for path in sorted((SRC / "marketsplit").glob("*.py")):
        digest.update(path.read_bytes())
    baseline = reference["baseline_engine"]
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "fastenum_compiled": fastenum.available(),
        "fastval_compiled": fastval.available(),
        "engines": sorted(run["engines"]),
        "baseline_engine": baseline,
        "engine_differs_from_baseline": any(e.split("/")[0] != baseline for e in run["engines"]),
        "config": {
            "m": workload.m,
            "K": K,
            **dataclasses.asdict(workload.config(ms)),
            "time_limit_s": SOLVE_TIME_LIMIT,
        },
        "instance_seeds": list(workload.seeds),
        "passes": run["passes"],
        "raw_seconds": run.get("raw"),
        "calibration": run.get("calibration"),
    }


def run_workload(workload, seed: int, seconds: float, trace: int) -> dict:
    """Set up, measure and check one workload; returns env, spans and result."""
    reference = load_reference()
    names = [instance_name(workload.m, s) for s in workload.seeds]
    texts = [load_text(workload.m, s, reference) for s in workload.seeds]
    if not trace:
        from calibrate import Calibrator

        cal = Calibrator()
        kernel_before = cal.burst()
        setup_raw = statistics.median(measure_setup([INSTANCE_DIR / name for name in names]))
        setup_s = setup_raw * cal.scale(kernel_before, cal.burst())
    ms = import_library()
    items = [
        Item(name, text, ms.parse_instance(text), reference["instances"][name])
        for name, text in zip(names, texts)
    ]
    if trace:
        run = traced_run(ms, workload, items, seed)
    else:
        run = timed_run(ms, workload, items, seed, seconds, cal)
        run["metrics"]["setup_s"] = setup_s
        run["raw"]["setup_s"] = setup_raw
    env = environment(ms, workload, run, reference, seed, trace)
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "env": env,
        "spans": run.get("spans"),
        "result": {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {k: {"value": run["metrics"][k], "unit": u} for k, u in units.items()},
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_ENV)
    if not (SRC / "marketsplit" / "__init__.py").is_file():
        print(f"perfbench: no marketsplit package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.instance_seeds:
        workload = dataclasses.replace(workload, seeds=args.instance_seeds)
    out = run_workload(workload, args.seed, args.seconds, args.trace)
    env = out["env"]
    if env["engine_differs_from_baseline"]:
        print(
            f"perfbench: WARNING engines {env['engines']} differ from the baseline's "
            f"{env['baseline_engine']!r}; do not compare these numbers with it",
            file=sys.stderr,
        )
    result = out["result"]
    print(
        f"perfbench: fail_rate {result['failed'] / result['attempted']:.4f} ratio "
        f"({result['failed']} of {result['attempted']} solves failed)",
        file=sys.stderr,
    )
    print(json.dumps({"env": env}))
    if out["spans"]:
        print(json.dumps({"spans": out["spans"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
