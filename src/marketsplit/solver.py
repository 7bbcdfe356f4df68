"""End-to-end solve: reduction, enumeration, validation, termination.

The driver applies an optional surrogate reduction, builds the four
block tables for the (possibly merged) first row, and streams candidate
batches from the sumset enumerator into the batch validator.  Each
batch is a pair-budgeted run of consecutive alphas (see
`SumsetEnumerator`), validated in one call and counted by its common
alphas and their pair counts, so `batches`, `max_batch_pairs` and
`progress` read as they would for the heap's per-alpha stream;
`validate_calls` counts the calls.  Tiny instances skip the table machinery entirely and go straight
to the brute-force oracle.  Enumeration is inherently serial; validation
runs on `worker_count` validators, the calling thread and helper threads,
each of which refills a bounded batch buffer from the enumerator when it
finds it empty and then takes the next batch.  No thread only
enumerates, so one validator runs on the calling thread alone.

First-solution mode stops as soon as one verified solution exists
(cancellation is cooperative at chunk-pair granularity).  It returns the
first solution of the smallest batch that has any, which has the
smallest alpha of that batch ((right, left) order within one chunk
pair), for every pipeline depth and worker count, and counts no alpha
past that one.  All-solutions mode always runs to exhaustion and its
result set is independent of pipeline depth, worker count, backend, and
chunk size.  Every reported solution is re-verified against the
original, unreduced system.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .enumerate1d import SumsetEnumerator, build_quarter_tables, permuted_rhs
from .instances import (
    MspInstance,
    SolutionVector,
    solution_encoding,
    surrogate_reduce,
    verify_solution,
)
from .oracle import brute_force_all
from .validate import (
    DEFAULT_MEMORY_BUDGET,
    JoinScratch,
    ValidationStats,
    default_chunk_pairs,
    get_backend,
    validate_chunked,
)

# Below this many variables the table machinery costs more than sweeping
# all assignments, so the oracle solves directly (it is also the only
# route for n < 4, where a four-way block split does not exist).
BRUTE_FORCE_MAX_N = 12

_MODES = ("first", "all")


class _Deadline:
    """Time-limit check, polled by the run loop's stop test.  It stays
    fired, so the caller can tell that work was abandoned."""

    def __init__(self, at: float | None):
        self.at, self.fired = at, False

    def __call__(self) -> bool:
        if self.at is not None and time.perf_counter() > self.at:
            self.fired = True
        return self.fired


@dataclass
class SolverConfig:
    """Solve knobs.

    mode: "first" returns on the first verified solution, "all" runs to
    exhaustion.  reduce_rows r merges the first r constraint rows into
    one before solving (1 = no reduction).  chunk_pairs None sizes chunks
    from memory_budget_bytes, the bytes one validation chunk pair may
    hold (see `default_chunk_pairs`).  backend names the validation
    backend: "parallel" (production) or "serial" (the pure-Python
    reference).  worker_count is the number of validating
    threads, the calling thread included; 0 means one per CPU.
    pipeline_depth bounds the batches enumerated but not yet validated:
    a validator that finds the buffer empty refills it with up to that
    many.
    """

    mode: str = "first"
    reduce_rows: int = 1
    chunk_pairs: int | None = None
    backend: str = "parallel"
    pipeline_depth: int = 1
    worker_count: int = 0
    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET

    def validated(self) -> "SolverConfig":
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.reduce_rows < 1:
            raise ValueError("reduce_rows must be >= 1")
        if self.chunk_pairs is not None and self.chunk_pairs < 1:
            raise ValueError("chunk_pairs must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.worker_count < 0:
            raise ValueError("worker_count must be >= 0")
        if self.memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be >= 1")
        get_backend(self.backend)
        return self


@dataclass
class SolveStats:
    """Counters and timings of one solve (fields are listed in README).

    With one validator every counter is independent of thread timing.
    With several, `batches`, `max_batch_pairs` and `progress` still count
    no alpha past the solving one, but `windows`, the candidate counts
    and the other validation counters may include work on batches past
    it that a validator swept or checked before the solution was found.
    """

    batches: int = 0
    validate_calls: int = 0
    candidates_left: int = 0
    candidates_right: int = 0
    hash_hits: int = 0
    exact_hits: int = 0
    max_batch_pairs: int = 0
    peak_table_entries: int = 0
    peak_window_pairs: int = 0
    windows: int = 0
    progress: float = 0.0
    t_build: float = 0.0
    t_enumerate: float = 0.0
    t_validate: float = 0.0
    t_total: float = 0.0
    fallback: str = "none"
    engine: str = "none"

    def as_dict(self) -> dict:
        """Every field in declaration order, times and progress rounded."""
        fields = asdict(self).items()
        return {k: round(v, 6) if isinstance(v, float) else v for k, v in fields}


class SolveTimeout(Exception):
    """Raised when a time limit expires before a verdict is reached.

    `stats` holds the partial SolveStats of the abandoned solve, with
    `t_total` set and the validation counters of every batch checked so
    far merged in.
    """

    def __init__(self, message: str, stats: SolveStats | None = None):
        super().__init__(message)
        self.stats = stats if stats is not None else SolveStats()


@dataclass
class SolveResult:
    verdict: str
    solutions: list[SolutionVector]
    stats: SolveStats

    @property
    def feasible(self) -> bool:
        return self.verdict == "feasible"


def solve(
    inst: MspInstance,
    cfg: SolverConfig | None = None,
    time_limit: float | None = None,
) -> SolveResult:
    """Solve an instance under the given configuration.

    Raises SolveTimeout, carrying the partial stats, if `time_limit`
    (seconds) elapses first; the check is cooperative, so granularity is
    one sweep window / chunk pair.
    """
    cfg = (cfg or SolverConfig()).validated()
    t_start = time.perf_counter()
    deadline = t_start + time_limit if time_limit is not None else None
    stats = SolveStats()

    work = inst
    if cfg.reduce_rows > 1:
        work = surrogate_reduce(inst, cfg.reduce_rows)

    if cfg.mode == "first" and not inst.d.any():
        zero = (0,) * inst.n
        assert verify_solution(inst, zero)
        stats.fallback = "zero-rhs"
        stats.t_total = time.perf_counter() - t_start
        return SolveResult("feasible", [zero], stats)

    if work.n <= BRUTE_FORCE_MAX_N:
        found = brute_force_all(work)
        _check_verified(inst, found)
        if cfg.mode == "first":
            found = found[:1]
        stats.fallback = "brute-force"
        stats.exact_hits = len(found)
        stats.t_total = time.perf_counter() - t_start
        if deadline is not None and time.perf_counter() > deadline:
            raise SolveTimeout(f"time limit of {time_limit}s exceeded", stats)
        return SolveResult("feasible" if found else "infeasible", found, stats)

    t0 = time.perf_counter()
    tables = build_quarter_tables(work, 0)
    stats.t_build = time.perf_counter() - t0
    stats.peak_table_entries = sum(t.size for t in tables)
    d_perm = permuted_rhs(work, tables)
    target = int(work.d[0])
    chunk = cfg.chunk_pairs or default_chunk_pairs(work.m, cfg.memory_budget_bytes)
    enumerator = SumsetEnumerator(tables, target)
    stats.engine = "python"
    workers = cfg.worker_count or os.cpu_count() or 1

    try:
        found = _run(
            enumerator, tables, work, inst, cfg, chunk, d_perm, stats, deadline, workers
        )
    except SolveTimeout as exc:
        _enumerator_stats(stats, enumerator, finished=False)
        stats.t_total = time.perf_counter() - t_start
        exc.stats = stats
        raise

    _enumerator_stats(stats, enumerator, finished=cfg.mode == "all" or not found)
    if cfg.mode == "all":
        found.sort(key=solution_encoding)
        if len(set(found)) != len(found):
            raise RuntimeError("internal error: duplicate solutions emitted")
    elif found:
        found = found[:1]
    stats.t_total = time.perf_counter() - t_start
    return SolveResult("feasible" if found else "infeasible", found, stats)


def _enumerator_stats(stats: SolveStats, enumerator, finished: bool) -> None:
    """The sweep's window peak and window count, and progress 1.0 once
    the sweep is exhausted and every batch was validated (`finished`)."""
    stats.peak_window_pairs = enumerator.peak_window_pairs
    stats.windows = enumerator.windows
    if finished and enumerator.exhausted:
        stats.progress = 1.0


def _check_verified(original: MspInstance, sols) -> None:
    for x in sols:
        if not verify_solution(original, x):
            raise RuntimeError(
                "internal error: candidate failed original-system verification"
            )


def _solving_alpha(cfg: SolverConfig, work: MspInstance, tables, sols) -> int | None:
    """In first mode, the alpha (left weight) of a validated batch's first
    solution, which has the smallest alpha of the batch's solutions."""
    if cfg.mode != "first" or not sols:
        return None
    cols = tables[0].var_indices + tables[1].var_indices
    return sum(int(work.a[0, c]) for c in cols if sols[0][c])


def _batch_counts(batch, last_alpha: int | None) -> tuple[int, int, int]:
    """A validated batch counted per alpha, as the batches of a per-alpha
    stream would count, but no alpha past `last_alpha` (the solving one,
    where a first-solution solve stops): the alphas, the most pairs of
    one alpha and the last alpha."""
    alphas = batch.alphas
    k = len(alphas)
    if last_alpha is not None:
        # a Python int would be compared as a float64, inexact past 2^53
        k = int(alphas.searchsorted(np.uint64(last_alpha), side="right"))
    pairs = batch.left_counts[:k] + batch.right_counts[:k]
    return k, int(pairs.max()), int(alphas[k - 1])


def _merge_vstats(stats: SolveStats, vstats: ValidationStats) -> None:
    stats.candidates_left += vstats.candidates_left
    stats.candidates_right += vstats.candidates_right
    stats.hash_hits += vstats.hash_hits
    stats.exact_hits += vstats.exact_hits
    stats.validate_calls += vstats.calls


def _run(
    enumerator,
    tables,
    work: MspInstance,
    original: MspInstance,
    cfg: SolverConfig,
    chunk: int,
    d_perm: np.ndarray,
    stats: SolveStats,
    deadline: float | None,
    workers: int,
) -> list[SolutionVector]:
    """Validate the sweep's batches on `workers` validators: the calling
    thread and `workers - 1` helper threads.  No thread only enumerates.

    A validator that finds the buffer empty refills it, under one lock,
    with up to `pipeline_depth` batches, then takes one; so the depth
    bounds the batches enumerated but not yet validated, and one
    validator starts no thread at any depth.  The helpers start when the
    second batch is enumerated, so a one-batch sweep starts none.
    Batches are numbered in sweep order and taken in that order.  In
    first mode, solutions in batch k stop the batches after k and let
    those before k finish; the solutions returned first are those of the
    smallest batch that has any, as with one validator, and no alpha past
    the solving one is counted.  The deadline and the first exception
    stop every validator at its next poll (between chunk pairs, and
    between sweep windows while refilling); the caller joins its helpers
    and raises.
    """
    expired = _Deadline(deadline)
    backend = get_backend(cfg.backend)  # stateless: shared by the validators
    fill, lock = threading.Lock(), threading.Lock()
    buffer: deque = deque()
    numbered = 0  # batches enumerated so far
    solved: float = math.inf  # first mode: the smallest batch with solutions
    counts: list[tuple[int, tuple[int, int, int]]] = []
    results: list[tuple[int, list[SolutionVector]]] = []
    errors: list[BaseException] = []

    def stopped(seq: float = math.inf) -> bool:
        """Batch `seq` is dropped: a smaller batch has solutions, an error
        was raised, or the deadline passed.  Without `seq` (refilling),
        any batch with solutions stops the sweep."""
        return seq > solved or bool(errors) or expired()

    def take(start_helpers=None):
        nonlocal numbered
        with fill:
            if not buffer:
                t0, before = time.perf_counter(), numbered
                while len(buffer) < cfg.pipeline_depth and not stopped():
                    batch = enumerator.next_batch(stopped)
                    if batch is None:
                        break
                    buffer.append((numbered, batch))
                    numbered += 1
                stats.t_enumerate += time.perf_counter() - t0  # written under fill only
                if start_helpers and before < 2 <= numbered:  # a second batch
                    start_helpers()
            if stopped():  # what is left follows the solving batch, or the solve ends
                buffer.clear()
            return buffer.popleft() if buffer else None

    def validate(seq: int, batch, vstats: ValidationStats, scratch: JoinScratch) -> None:
        nonlocal solved
        t0 = time.perf_counter()
        sols = validate_chunked(
            batch, tables, work, chunk, backend, d_perm, vstats,
            should_stop=lambda: stopped(seq), scratch=scratch,
        )
        elapsed = time.perf_counter() - t0
        counted = _batch_counts(batch, _solving_alpha(cfg, work, tables, sols))
        _check_verified(original, sols)
        with lock:
            stats.t_validate += elapsed
            counts.append((seq, counted))
            if sols:
                results.append((seq, sols))
                if cfg.mode == "first":
                    solved = min(solved, seq)

    def validator(vstats: ValidationStats, scratch: JoinScratch, start_helpers=None) -> None:
        try:
            while (item := take(start_helpers)) is not None:
                validate(*item, vstats, scratch)
                del item  # released before the next refill
        except BaseException as exc:  # stops every validator; the caller raises it
            with lock:
                errors.append(exc)

    def start_helpers() -> None:
        """Passed to `take`, not named in it: no closure cycle keeps a
        finished solve's tables alive until a garbage collection."""
        for i, v in enumerate(vstats[1:], 1):
            t = threading.Thread(
                target=validator, args=(v, JoinScratch()), name=f"validate-{i}",
                daemon=True,
            )
            t.start()
            helpers.append(t)

    vstats = [ValidationStats() for _ in range(workers)]
    helpers: list[threading.Thread] = []
    validator(vstats[0], JoinScratch(), start_helpers)
    for t in helpers:
        t.join()

    for v in vstats:
        _merge_vstats(stats, v)
    target = enumerator.target
    for seq, (k, pairs, last) in counts:
        if seq <= solved:
            stats.batches += k
            stats.max_batch_pairs = max(stats.max_batch_pairs, pairs)
            stats.progress = max(stats.progress, last / target if target else 1.0)
    if errors:
        raise errors[0]
    if expired.fired:
        raise SolveTimeout("time limit exceeded")
    results.sort(key=lambda item: item[0])
    return [x for _, sols in results for x in sols]
