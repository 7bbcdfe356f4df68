"""In-process A/B timing of two checkouts' solvers on one perfbench workload.

    python tools/ab.py PARENT_SRC CHANGE_SRC --workload NAME [--rounds N]
                       [--seeds 1,3 | --held-out | --smoke]
                       [--expect-changed FIELD[,FIELD]] [--allocator-neutral]

PARENT_SRC and CHANGE_SRC are `src` directories, each holding a
`marketsplit` package.  Both packages are loaded into this one process
under their own module names (every import inside the package is
relative), so they run with the same interpreter, heap and CPU state;
timings of two checkouts run as separate processes also differ by how
the files happen to lie in memory, which can hide a gain or loss of a
few percent.

The instances and the pinned solver configuration come from
`perfbench/workloads.py`, read only; `--held-out` runs the workload's
held-out seeds, which were never used while tuning, so a claim can be
checked on instances it was not fitted to.  An untimed warm-up round
checks both trees' answers against the frozen reference; every round
then asserts that the two trees return the same solutions and the same
`SolveStats` counters (every field but the `t_*` timings), except the
counters named by `--expect-changed`, which a change may move on
purpose; the report gives their totals over the seeds per round for
each tree.  Each round solves the workload's seeds back to back with
each tree, alternating which tree goes first.  The report gives each
tree's median and quartiles of the round times and its median minor
page faults per round (`resource.getrusage`; a change in how long large
arrays live can move wall time through the allocator returning memory
to the system and faulting it back in), and the median and
interquartile range of the per-round ratios change / parent, with a
note when that median is within `NOISE` of 1.  A last,
untimed pass solves each seed once per tree under `tracemalloc` and
reports each tree's traced peak per seed: the resident-set peak that
perfbench reports cannot be split between two trees in one process,
and it also moves with how much freed memory the allocator keeps.

`--allocator-neutral` takes that allocator effect out of the timings:
the script re-executes itself with glibc's `MALLOC_TRIM_THRESHOLD_`
and `MALLOC_MMAP_THRESHOLD_` raised (see `ALLOCATOR_NEUTRAL`), so freed
heap is kept rather than returned to the system and faulted back in,
and large arrays come from the heap rather than from fresh mappings.
glibc reads the two variables only at start-up, hence the re-execution;
the report's header line names them with the values the run was given.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: A median ratio this close to 1 is no verdict: two near-identical
#: trees have read 0.977 (9/10 rounds) and 1.030 (2/10) on the same
#: batches, depending on the allocator settings.
NOISE = 0.03

#: glibc tunables set by `--allocator-neutral`: trim only above 1 GiB of
#: free heap top, and serve requests below 32 MiB from the heap.
ALLOCATOR_NEUTRAL = {
    "MALLOC_TRIM_THRESHOLD_": str(2**30),
    "MALLOC_MMAP_THRESHOLD_": str(2**25),
}


def load_package(src: Path, name: str):
    """The `marketsplit` package under `src`, imported as module `name`."""
    pkg = src / "marketsplit"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    if spec is None or spec.loader is None:
        raise ImportError(f"no marketsplit package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def counters(stats, skip=()) -> dict:
    """Every `SolveStats` field but the timings and those in `skip`."""
    return {
        k: v for k, v in dataclasses.asdict(stats).items()
        if not k.startswith("t_") and k not in skip
    }


class Tree:
    """One checkout's package with the workload's instances parsed by it."""

    def __init__(self, label: str, src: Path, workload, texts: list[str]):
        self.label = label
        self.ms = load_package(src, f"marketsplit_{label}")
        self.cfg = workload.config(self.ms)
        self.instances = [self.ms.parse_instance(text) for text in texts]
        self.times: list[float] = []
        self.faults: list[int] = []
        # per round, the totals over the seeds of the --expect-changed counters
        self.changed: list[tuple[int, ...]] = []

    def run(self) -> tuple[float, list]:
        """Seconds to solve every instance back to back, and the results;
        the pass's minor page faults are appended to `faults`."""
        gc.collect()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        results = [self.ms.solve(inst, self.cfg) for inst in self.instances]
        seconds = time.perf_counter() - t0
        self.faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        return seconds, results

    def traced_peaks(self) -> list[int]:
        """Per instance, the peak bytes `tracemalloc` traces while one
        solve runs (untimed: tracing slows every allocation)."""
        peaks = []
        for inst in self.instances:
            gc.collect()
            tracemalloc.start()
            try:
                self.ms.solve(inst, self.cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report_ratios(ratios: list[float]) -> None:
    """Print the median, quartiles and win count of the per-round ratios
    change / parent, and a note when the median is within `NOISE` of 1."""
    q1, q2, q3 = quartiles(ratios)
    wins = sum(x < 1 for x in ratios)
    print(
        f" ratio: median {q2:.3f}  IQR {q3 - q1:.3f}  (quartiles {q1:.3f}, {q3:.3f}); "
        f"change faster in {wins}/{len(ratios)} rounds"
    )
    if abs(q2 - 1) <= NOISE:
        print("within in-process noise; confirm with alternating perfbench pairs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src", type=Path, help="src directory of the parent checkout")
    p.add_argument("change_src", type=Path, help="src directory of the changed checkout")
    p.add_argument("--workload", required=True, help="a perfbench workload name")
    p.add_argument("--rounds", type=int, default=10, help="timed rounds (default 10)")
    p.add_argument(
        "--seeds",
        type=lambda s: tuple(int(x) for x in s.split(",")),
        help="comma-separated instance seeds (default: the workload's frozen ones)",
    )
    p.add_argument(
        "--held-out",
        action="store_true",
        help="the workload's held-out seeds, never used while tuning",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="the workload's configuration on the (3,20,100) smoke instance",
    )
    p.add_argument(
        "--allocator-neutral",
        action="store_true",
        help="re-execute with glibc's trim and mmap thresholds raised "
        "(see ALLOCATOR_NEUTRAL)",
    )
    p.add_argument(
        "--expect-changed",
        type=lambda s: tuple(s.split(",")),
        default=(),
        metavar="FIELD[,FIELD]",
        help="SolveStats counters the change may move; their totals are reported",
    )
    args = p.parse_args(argv)
    if sum(map(bool, (args.seeds, args.held_out, args.smoke))) > 1:
        p.error("--seeds, --held-out and --smoke exclude each other")
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    return args


def allocator_neutral(argv: list[str]) -> str:
    """Under `ALLOCATOR_NEUTRAL`, the header note naming its settings.
    If this process started without them, it is replaced by one that has
    them (glibc reads them only at start-up), run with the same `argv`."""
    if any(os.environ.get(k) != v for k, v in ALLOCATOR_NEUTRAL.items()):
        os.execve(
            sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
            {**os.environ, **ALLOCATOR_NEUTRAL},
        )
    return "; allocator-neutral: " + ", ".join(
        f"{k}={os.environ[k]}" for k in ALLOCATOR_NEUTRAL
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    note = allocator_neutral(argv) if args.allocator_neutral else ""
    sys.path.insert(0, str(PERFBENCH))
    from workloads import (
        WORKLOADS, check_answer, instance_name, load_reference, load_text,
    )

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    seeds = args.seeds or (workload.held_out if args.held_out else workload.seeds)
    reference = load_reference()
    texts = [load_text(workload.m, s, reference) for s in seeds]
    entries = [reference["instances"][instance_name(workload.m, s)] for s in seeds]
    parent = Tree("parent", args.parent_src.resolve(), workload, texts)
    change = Tree("change", args.change_src.resolve(), workload, texts)
    moving = args.expect_changed
    for tree in (parent, change):
        unknown = set(moving) - set(counters(tree.ms.SolveStats()))
        if unknown:
            raise SystemExit(
                f"--expect-changed: not a SolveStats counter of the {tree.label} "
                f"tree: {', '.join(sorted(unknown))}"
            )

    # warm-up, untimed: both trees must match the frozen reference
    for tree in (parent, change):
        _, results = tree.run()
        tree.faults.clear()
        for seed, inst, entry, result in zip(seeds, tree.instances, entries, results):
            reason = check_answer(result, inst, entry, workload.mode, tree.ms)
            if reason is not None:
                raise SystemExit(f"{tree.label}, seed {seed}: {reason}")

    ratios = []
    for r in range(args.rounds):
        order = (parent, change) if r % 2 == 0 else (change, parent)
        outcomes = {}
        for tree in order:
            seconds, results = tree.run()
            tree.times.append(seconds)
            outcomes[tree.label] = [
                (res.solutions, counters(res.stats, moving)) for res in results
            ]
            tree.changed.append(tuple(
                sum(getattr(res.stats, k) for res in results) for k in moving
            ))
        for seed, got, expected in zip(seeds, outcomes["change"], outcomes["parent"]):
            if got != expected:
                raise SystemExit(f"round {r}, seed {seed}: answers or counters differ")
        ratios.append(change.times[-1] / parent.times[-1])

    others = ", except " + ", ".join(moving) + "," if moving else ""
    print(
        f"workload {workload.name}, seeds {','.join(map(str, seeds))}, "
        f"{args.rounds} rounds; same answers and counters{others} in every round"
        f"{note}"
    )
    for tree in (parent, change):
        q1, q2, q3 = quartiles(tree.times)
        print(
            f"{tree.label:>6}: median {q2:.4f} s  (quartiles {q1:.4f}, {q3:.4f}); "
            f"minor faults {statistics.median(tree.faults):.0f} per round"
        )
    for i, name in enumerate(moving):
        totals = []
        for tree in (parent, change):
            low, high = min(t[i] for t in tree.changed), max(t[i] for t in tree.changed)
            totals.append(f"{low}" if low == high else f"{low}–{high}")
        print(f"{name}: parent {totals[0]}, change {totals[1]} (per round, all seeds)")
    report_ratios(ratios)
    peaks = [
        f"{tree.label} " + ", ".join(
            f"s{seed} {peak / 2**20:.2f}" for seed, peak in zip(seeds, tree.traced_peaks())
        )
        for tree in (parent, change)
    ]
    print(f"traced peak per seed (MB, untimed tracemalloc pass): {'; '.join(peaks)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
