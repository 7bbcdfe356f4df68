"""Command-line front end: solve, generate, verify, bench.

Exit codes are the scripting contract: solve returns 0 when feasible,
1 when infeasible, 2 on error; verify returns 0/1/2 for valid, invalid,
error; generate and bench return 0 on success and 2 on error.  With
--stats, one self-describing JSON record per instance is written to
stdout after the human-readable output (schema documented in README).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .instances import (
    ParseError,
    ReductionOverflowError,
    generate_instance,
    parse_instance,
    solution_from_string,
    solution_to_string,
    verify_solution,
    write_instance,
)
from .solver import SolveTimeout, SolverConfig, solve

_CLASS_RE = re.compile(r"^msp_m(\d+)_n(\d+)_K(\d+)_s\d+$")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--reduce", type=int, default=1, metavar="R",
                   help="merge the first R constraint rows before solving (default 1 = off)")
    p.add_argument("--chunk-pairs", type=int, default=None, metavar="N",
                   help="validation chunk size in pairs (default: from memory budget)")
    p.add_argument("--workers", type=int, default=0, metavar="T",
                   help="validating threads, the calling thread included; "
                        "0 = one per CPU (default)")
    p.add_argument("--pipeline-depth", type=int, default=1, metavar="P",
                   help="most batches enumerated but not yet validated (default 1)")
    p.add_argument("--backend", choices=("serial", "parallel"), default="parallel",
                   help="validation backend (default parallel)")
    p.add_argument("--stats", action="store_true",
                   help="also emit one machine-readable JSON record per instance")


def _config_from_args(args, mode: str) -> SolverConfig:
    return SolverConfig(
        mode=mode,
        reduce_rows=args.reduce,
        chunk_pairs=args.chunk_pairs,
        backend=args.backend,
        pipeline_depth=args.pipeline_depth,
        worker_count=args.workers,
    )


def _load_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh)


def _stats_record(path: str, result, seconds: float) -> dict:
    record = {
        "instance": path,
        "verdict": result.verdict,
        "seconds": round(seconds, 6),
        "solutions": len(result.solutions),
    }
    record.update(result.stats.as_dict())
    return record


def cmd_solve(args) -> int:
    try:
        inst = _load_instance(args.instance)
        if args.reduce != 1 and not (2 <= args.reduce <= inst.m):
            print(f"error: r out of range: --reduce {args.reduce} needs "
                  f"2 <= r <= m={inst.m}", file=sys.stderr)
            return 2
        cfg = _config_from_args(args, "all" if args.all else "first")
        t0 = time.perf_counter()
        result = solve(inst, cfg)
        seconds = time.perf_counter() - t0
    except (OSError, ParseError, ReductionOverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("FEASIBLE" if result.feasible else "INFEASIBLE")
    for x in result.solutions:
        print(solution_to_string(x))
    if args.stats:
        print(json.dumps(_stats_record(args.instance, result, seconds)))
    return 0 if result.feasible else 1


def cmd_generate(args) -> int:
    try:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            seed = args.seed + i
            inst = generate_instance(args.m, args.K, seed)
            name = f"msp_m{args.m}_n{inst.n}_K{args.K}_s{seed}.txt"
            path = out_dir / name
            path.write_text(write_instance(inst), encoding="utf-8")
            print(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(args) -> int:
    try:
        inst = _load_instance(args.instance)
        x = solution_from_string(args.solution)
        if len(x) != inst.n:
            print(f"error: solution has length {len(x)}, instance has n={inst.n}",
                  file=sys.stderr)
            return 2
        ok = verify_solution(inst, x)
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("VALID" if ok else "INVALID")
    return 0 if ok else 1


def _class_label(path: Path, reduced: bool) -> str:
    match = _CLASS_RE.match(path.stem)
    if match:
        m, n, k = match.group(1), match.group(2), match.group(3)
        label = f"({m}, {n}, {k})"
    else:
        label = path.stem
    return label + ("*" if reduced else "")


@dataclass
class BenchRecord:
    path: Path
    class_label: str
    timed_out: bool
    seconds: float
    result: object  # SolveResult, or None on timeout


@dataclass
class BenchReport:
    """Per-instance records plus per-class time averages.

    Timed-out instances are excluded from averages; a class with no
    solved instance averages to None.
    """

    records: list[BenchRecord]

    def by_class(self) -> dict[str, list[BenchRecord]]:
        classes: dict[str, list[BenchRecord]] = {}
        for rec in self.records:
            classes.setdefault(rec.class_label, []).append(rec)
        return classes

    def class_average(self, label: str) -> float | None:
        solved = [r.seconds for r in self.by_class()[label] if not r.timed_out]
        if not solved:
            return None
        return sum(solved) / len(solved)

    def timeouts(self) -> int:
        return sum(1 for r in self.records if r.timed_out)


def cmd_bench(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 2
    paths = sorted(directory.glob("*.txt"))
    if not paths:
        print(f"error: no instance files (*.txt) in {directory}", file=sys.stderr)
        return 2
    if args.reduce < 1:
        print(f"error: r out of range: --reduce {args.reduce} needs r >= 1",
              file=sys.stderr)
        return 2

    cfg = _config_from_args(args, "first")
    reduced = cfg.reduce_rows > 1
    report = BenchReport(records=[])
    for path in paths:
        label = _class_label(path, reduced)
        try:
            inst = _load_instance(str(path))
        except (OSError, ParseError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        try:
            result = solve(inst, cfg, time_limit=args.time_limit)
            seconds = time.perf_counter() - t0
            rec = BenchRecord(path, label, False, seconds, result)
            print(f"{path.name}: {result.verdict} in {seconds:.3f}s")
            out = _stats_record(str(path), result, seconds)
        except SolveTimeout as exc:
            seconds = time.perf_counter() - t0
            rec = BenchRecord(path, label, True, seconds, None)
            print(f"{path.name}: time limit of {args.time_limit}s hit")
            # the partial stats show how far the solve got
            out = {"instance": str(path), "verdict": "timeout",
                   "seconds": round(seconds, 6), **exc.stats.as_dict()}
        except (ReductionOverflowError, ValueError) as exc:
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            return 2
        report.records.append(rec)
        if args.stats:
            out["class"] = label
            print(json.dumps(out))

    print()
    classes = report.by_class()
    width = max(len(c) for c in classes) + 2
    print(f"{'Class':<{width}} {'Instance times (s)':<40} Average")
    for label in sorted(classes):
        cells = [
            "-" if rec.timed_out else f"{rec.seconds:.3f}"
            for rec in classes[label]
        ]
        avg = report.class_average(label)
        avg_cell = f"{avg:.3f}" if avg is not None else "-"
        print(f"{label:<{width}} {'  '.join(cells):<40} {avg_cell}")
    if report.timeouts():
        print(f"\n{report.timeouts()} instance(s) hit the time limit "
              f"(shown as '-', excluded from averages)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketsplit",
        description="Exact feasibility solver for market split instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("instance", help="instance file path")
    p.add_argument("--all", action="store_true",
                   help="enumerate every solution instead of stopping at the first")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="write random benchmark instances")
    p.add_argument("--m", type=int, required=True, help="constraint rows (>= 2)")
    p.add_argument("--K", type=int, required=True,
                   help="coefficients drawn uniformly from [0, K)")
    p.add_argument("--seed", type=int, required=True, help="seed of the first instance")
    p.add_argument("--count", type=int, default=1,
                   help="number of instances (seeds seed..seed+count-1)")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check a 0/1 solution string against an instance")
    p.add_argument("instance", help="instance file path")
    p.add_argument("solution", help="candidate solution, e.g. 0110")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="solve a directory of instances, report per class")
    p.add_argument("directory", help="directory of instance .txt files")
    p.add_argument("--time-limit", type=float, default=None, metavar="S",
                   help="per-instance limit in seconds (default: none)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
