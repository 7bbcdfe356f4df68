"""Spans and counters around the benchmark's own calls into each layer.

Nothing under src/ is instrumented.  `traced_solve` re-drives the solve
path (reduce -> build_quarter_tables -> next_batch -> validate_chunked)
through the public functions the way the solver's sequential loop does,
and records one span per call; `run.py` checks that it reaches the same
answers and batch count as `solve()`, so the trace measures the same
program.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from marketsplit.validate import ValidationStats, default_chunk_pairs, sort_encoded


class Tracer:
    """In-memory spans (name, start, end, parent) plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._starts)
        self._name_ids.append(nid)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0.0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        try:
            yield
        finally:
            self._ends[idx] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: int) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def durations(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(0)
        mask = np.frombuffer(self._name_ids, dtype=np.int32) == self._ids[name]
        return (np.frombuffer(self._ends) - np.frombuffer(self._starts))[mask]

    def total(self, name: str) -> float:
        return float(self.durations(name).sum())

    def summary(self) -> dict:
        """Per span name: count, total seconds, and self seconds (total
        minus the time covered by its child spans)."""
        dur = np.frombuffer(self._ends) - np.frombuffer(self._starts)
        parents = np.frombuffer(self._parents, dtype=np.int32)
        names = np.frombuffer(self._name_ids, dtype=np.int32)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float((dur[mask] - child[mask]).sum()),
            }
        return out


def traced_solve(ms, tr: Tracer, text: str, cfg):
    """Parse and solve one instance with a span around every layer call.

    Returns (verdict, solutions, batches).  Solutions are re-verified
    against the unreduced instance, as `solve()` does.
    """
    with tr.span("instances.parse"):
        inst = ms.parse_instance(text)
    with tr.span("instances.reduce"):
        work = ms.surrogate_reduce(inst, cfg.reduce_rows) if cfg.reduce_rows > 1 else inst
    with tr.span("enumerate1d.build"):
        tables = ms.build_quarter_tables(work, 0)
    tr.count("enumerate1d.table_entries", sum(t.size for t in tables))
    d_perm = ms.permuted_rhs(work, tables)
    chunk = cfg.chunk_pairs or default_chunk_pairs(work.m, cfg.memory_budget_bytes)
    enumerator = ms.PairSumEnumerator(tables, int(work.d[0]))
    backend = ms.get_backend(cfg.backend)
    vstats = ValidationStats()
    found = []
    batches = 0
    while True:
        with tr.span("enumerate1d.next_batch"):
            batch = enumerator.next_batch()
        if batch is None:
            break
        batches += 1
        pairs = batch.n_left + batch.n_right
        tr.count("enumerate1d.pairs", pairs)
        tr.peak("enumerate1d.batch_pairs_max", pairs)
        with tr.span("validate.chunked"):
            sols = ms.validate_chunked(batch, tables, work, chunk, backend, d_perm, vstats)
        with tr.span("validate.replay"):
            _replay(ms, tr, batch, tables, work, chunk, backend, d_perm)
        if sols:
            with tr.span("instances.verify"):
                for x in sols:
                    if not ms.verify_solution(inst, x):
                        raise RuntimeError("traced loop: solution fails the unreduced instance")
            tr.count("instances.verify_calls", len(sols))
        found.extend(sols)
        if cfg.mode == "first" and found:
            break
    tr.count("enumerate1d.batches", batches)
    tr.peak("enumerate1d.heap_peak", enumerator.peak_h1 + enumerator.peak_h2)
    for field in dataclasses.fields(vstats):
        tr.count(f"validate.{field.name}", getattr(vstats, field.name))
    if cfg.mode == "all":
        found.sort(key=ms.solution_encoding)
    else:
        found = found[:1]
    return ("feasible" if found else "infeasible"), found, batches


def _replay(ms, tr: Tracer, batch, tables, work, chunk, backend, d_perm) -> None:
    """Run a just-validated batch again stage by stage, for stage times.

    Replaying right after validation means the batch stream is never
    stored.  The chunk pairs are the ones `validate_chunked` uses.
    """
    for ls in range(0, max(batch.n_left, 1), chunk):
        for rs in range(0, max(batch.n_right, 1), chunk):
            piece = dataclasses.replace(
                batch,
                left_pairs=batch.left_pairs[ls : ls + chunk],
                right_pairs=batch.right_pairs[rs : rs + chunk],
            )
            with tr.span("validate.residuals"):
                left, right = ms.compute_residuals(piece, tables, d_perm)
            with tr.span("validate.hash"):
                left_hashes = ms.encode_batch(left.vectors)
                ms.encode_batch(right.vectors)
            with tr.span("validate.sort"):
                sort_encoded(ms.EncodedSet(hashes=left_hashes))
            with tr.span("validate.match"):
                ms.match_batch(left, right, work, tables, backend)


def _percentile_us(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1e6 if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, solve_stats: list, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer values from the traced loop and from solve()'s own stats."""
    c = tr.counters
    next_batch = tr.durations("enumerate1d.next_batch")
    chunked = tr.durations("validate.chunked")
    next_batch_s = float(next_batch.sum())
    chunked_s = float(chunked.sum())
    validated = c["validate.candidates_left"] + c["validate.candidates_right"]
    t_enum = sum(s.t_enumerate for s in solve_stats)
    t_val = sum(s.t_validate for s in solve_stats)
    t_total = sum(s.t_total for s in solve_stats)
    t_build = sum(s.t_build for s in solve_stats)
    return {
        "instances.parse_s": tr.total("instances.parse"),
        "instances.reduce_s": tr.total("instances.reduce"),
        "instances.verify_s": tr.total("instances.verify"),
        "instances.verify_calls": c["instances.verify_calls"],
        "enumerate1d.build_s": tr.total("enumerate1d.build"),
        "enumerate1d.table_entries": c["enumerate1d.table_entries"],
        "enumerate1d.next_batch_s": next_batch_s,
        "enumerate1d.next_batch_us_p50": _percentile_us(next_batch, 50),
        "enumerate1d.next_batch_us_p98": _percentile_us(next_batch, 98),
        "enumerate1d.batches": c["enumerate1d.batches"],
        "enumerate1d.pairs": c["enumerate1d.pairs"],
        "enumerate1d.pairs_per_s": _ratio(c["enumerate1d.pairs"], next_batch_s),
        "enumerate1d.batch_pairs_max": tr.peaks["enumerate1d.batch_pairs_max"],
        "enumerate1d.heap_peak": tr.peaks["enumerate1d.heap_peak"],
        "validate.chunked_s": chunked_s,
        "validate.pairs_per_s": _ratio(validated, chunked_s),
        "validate.calls": len(chunked),
        "validate.call_us_p50": _percentile_us(chunked, 50),
        "validate.residuals_s": tr.total("validate.residuals"),
        "validate.hash_s": tr.total("validate.hash"),
        "validate.sort_s": tr.total("validate.sort"),
        "validate.match_s": tr.total("validate.match"),
        "validate.hash_hits": c["validate.hash_hits"],
        "validate.exact_hits": c["validate.exact_hits"],
        "validate.hit_precision": _ratio(c["validate.exact_hits"], c["validate.hash_hits"]),
        "validate.right_filtered_frac": _ratio(
            c["validate.filtered_residuals"], c["validate.candidates_right"]
        ),
        "solver.enumerate_s": t_enum,
        "solver.validate_s": t_val,
        "solver.other_s": t_total - t_build - t_enum - t_val,
        "solver.overlap": _ratio(t_enum + t_val, t_total),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
