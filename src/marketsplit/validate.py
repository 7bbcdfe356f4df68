"""Batch candidate validation: linear residual hashes and a bitmap join.

A batch pairs every left candidate (weight alpha) with every right
candidate (weight beta).  Rather than comparing the quadratic product,
each pair stands for one m-vector residual: the left residual is the
summed contribution vector of its A and B entries, the right residual
is the right-hand side d minus the summed contribution of its C and D
entries.  A left/right pair solves the full system exactly when their
residuals are equal.

Residuals are hashed with the linear hash h(v) = sum_j r_j v_j mod 2^64
(`encode_vector`).  Linearity means the residual vectors are never
built: every table entry carries its hash, a left pair hashes to
HA[a] + HB[b] and a right pair to h(d) - HC[c] - HD[d'], two 1-D
gathers per side.  A right pair that overshoots d in some coordinate
wraps below zero; it simply hashes as that wrapped vector, which no
left residual can equal, so no filtering pass is needed.

`join_hashes` finds the equal-hash pairs.  It marks the low `bits` of
the smaller side's hashes in a byte bitmap, keeps the larger side's
hashes that land on a mark, marks those survivors and filters the
smaller side against them, and sorts only what survives both filters to
find exact 64-bit hits.  `bits` comes from the batch: bit_length of the
smaller side plus 3, clamped to [10, 24], so the bitmap holds at least
eight slots per marked hash and never exceeds 16 MiB.  Hash equality is
never trusted: every hit is confirmed by exact residual comparison and
a full re-verification of the assembled solution, so the hash affects
speed only.

Backend "parallel" is the production path; "serial" is the pure-Python
reference, which hashes built residuals and joins by sort and bisection.
Oversized batches are cut into chunk pairs to respect a memory budget;
chunking never changes the result set because the pair product is
partitioned disjointly.

A window batch carries the candidates of many alphas (see
`CandidateBatch`) and is validated by the same joins as one batch: the
hash covers coordinate 0, which is alpha on both sides, so pairs of
different alphas can only collide, and the exact confirmation rejects
any such hit.  One call then pays the fixed cost of hashing and joining
once for the whole window instead of once per alpha.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .enumerate1d import (
    CandidateBatch,
    QuarterTable,
    assemble_solution,
    encode_batch,
    encode_vector,
    permuted_rhs,
)
from .instances import MspInstance, SolutionVector, verify_solution

DEFAULT_MEMORY_BUDGET = 512 * 2**20


@dataclass
class ValidationStats:
    """Counters accumulated across batches; `calls` counts
    `validate_chunked` calls."""

    candidates_left: int = 0
    candidates_right: int = 0
    hash_hits: int = 0
    exact_hits: int = 0
    calls: int = 0


@dataclass
class ResidualSet:
    """Per-pair m-vectors for one side of a batch.

    `pairs` are the surviving source index pairs, aligned with `vectors`;
    right-side pairs whose contribution exceeds the right-hand side in
    any coordinate are dropped before construction (`n_filtered`).
    """

    side: str
    vectors: np.ndarray
    pairs: np.ndarray
    n_filtered: int = 0

    def __len__(self) -> int:
        return len(self.vectors)


@dataclass
class EncodedSet:
    """Hashes aligned with a ResidualSet; `order` carries original
    indices once sorted."""

    hashes: np.ndarray
    order: np.ndarray | None = None

    @property
    def is_sorted(self) -> bool:
        return self.order is not None


def sort_encoded(enc: EncodedSet) -> EncodedSet:
    """Stable sort by hash value, carrying original indices alongside."""
    order = np.argsort(enc.hashes, kind="stable")
    return EncodedSet(hashes=enc.hashes[order], order=order)


def _left_vectors(pairs: np.ndarray, tables: Sequence[QuarterTable]) -> np.ndarray:
    return tables[0].contribs[pairs[:, 0]] + tables[1].contribs[pairs[:, 1]]


def _right_sums(pairs: np.ndarray, tables: Sequence[QuarterTable]) -> np.ndarray:
    return tables[2].contribs[pairs[:, 0]] + tables[3].contribs[pairs[:, 1]]


def _assert_alpha(coord0: np.ndarray, alpha, side: str) -> None:
    """Coordinate 0 of every residual on `side` must equal its alpha (one
    for all, or one per residual)."""
    if not (coord0 == alpha).all():
        raise AssertionError(f"{side} residual coordinate 0 disagrees with alpha")


def compute_residuals(
    batch: CandidateBatch, tables: Sequence[QuarterTable], d: np.ndarray
) -> tuple[ResidualSet, ResidualSet]:
    """Left and right residual sets for a batch against right-hand side d.

    d must be ordered like the tables' contribution coordinates (see
    `permuted_rhs`), with d[0] the enumeration target.  Right pairs that
    overshoot d are dropped.  The production path never builds these
    vectors; they serve the reference `match_batch`.
    """
    d = np.asarray(d, dtype=np.uint64)
    left_pairs, right_pairs = batch.left_pairs[:], batch.right_pairs[:]
    left = _left_vectors(left_pairs, tables)
    raw = _right_sums(right_pairs, tables)
    keep = (raw <= d).all(axis=1)
    right = d - raw[keep]
    _assert_alpha(left[:, 0], batch.alpha, "left")
    _assert_alpha(right[:, 0], batch.alpha, "right")
    return (
        ResidualSet(side="left", vectors=left, pairs=left_pairs),
        ResidualSet(
            side="right",
            vectors=right,
            pairs=right_pairs[keep],
            n_filtered=int(len(keep) - keep.sum()),
        ),
    )


def join_hashes(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with left[i] == right[j], ordered by j, then i.

    Bitmap-prefiltered: see the module docstring.  Both inputs are
    uint64 arrays; the outputs are aligned int64 index arrays.
    """
    small, big = (left, right) if len(left) <= len(right) else (right, left)
    bits = min(max(len(small).bit_length() + 3, 10), 24)  # <= 16 MiB
    mask = np.uint64((1 << bits) - 1)
    # Masked values are below 2^24, so the int64 view is exact.
    small_slots = (small & mask).view(np.int64)
    big_slots = (big & mask).view(np.int64)
    bitmap = np.zeros(1 << bits, dtype=np.bool_)
    bitmap[small_slots] = True
    big_idx = np.flatnonzero(bitmap[big_slots])
    if not len(big_idx):  # the common case for small batches
        return big_idx, big_idx
    bitmap[small_slots] = False
    bitmap[big_slots[big_idx]] = True
    # Not empty: every surviving slot was marked by the smaller side.
    small_idx = np.flatnonzero(bitmap[small_slots])
    if small is left:
        left_idx, right_idx = small_idx, big_idx
    else:
        left_idx, right_idx = big_idx, small_idx

    # Hash values present on both sides.  Sorting the queries as well
    # keeps the binary search cache-friendly.
    left_h, right_h = left[left_idx], right[right_idx]
    sorted_left = np.sort(left_h)
    sorted_right = np.sort(right_h)
    pos = np.searchsorted(sorted_left, sorted_right)
    np.minimum(pos, len(sorted_left) - 1, out=pos)
    common = np.unique(sorted_right[sorted_left[pos] == sorted_right])
    left_idx = left_idx[np.isin(left_h, common)]
    right_idx = right_idx[np.isin(right_h, common)]

    # Pair them up in (right, left) order.
    left_h = left[left_idx]
    order = np.argsort(left_h, kind="stable")
    sorted_h = left_h[order]
    right_h = right[right_idx]
    lo = np.searchsorted(sorted_h, right_h, side="left")
    counts = np.searchsorted(sorted_h, right_h, side="right") - lo
    total = int(counts.sum())
    # Hit t of right survivor k sits at sorted position lo[k] + t.
    first = np.cumsum(counts) - counts
    pos = np.repeat(lo - first, counts) + np.arange(total)
    return left_idx[order[pos]], np.repeat(right_idx, counts)


class _Backend:
    """What both backends share, given their `encode` and `join`:
    hashing of built residuals and `find_matches` over residual sets."""

    def left_hashes(self, tables, pairs: np.ndarray) -> np.ndarray:
        return self.encode(_left_vectors(pairs, tables)).hashes

    def right_hashes(self, tables, pairs: np.ndarray, d: np.ndarray) -> np.ndarray:
        # uint64 wrap-around is intended: h(v mod 2^64) == h(v) mod 2^64
        return self.encode(d - _right_sums(pairs, tables)).hashes

    def find_matches(
        self, left: ResidualSet, right: ResidualSet
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Left and right indices of exactly equal residuals, ordered by
        right then left index, and the number of hash hits examined."""
        left_idx, right_idx = self.join(
            self.encode(left.vectors).hashes, self.encode(right.vectors).hashes
        )
        exact = (left.vectors[left_idx] == right.vectors[right_idx]).all(axis=1)
        return left_idx[exact], right_idx[exact], len(left_idx)


class SerialBackend(_Backend):
    """Pure-Python reference implementation; the conformance oracle.

    It hashes residual vectors built from the tables one by one, never
    the tables' precomputed hash columns, and joins by sort and
    bisection.
    """

    name = "serial"

    def __init__(self, encode_fn: Callable[[Sequence[int]], int] | None = None):
        self._encode_one = encode_fn or encode_vector

    def encode(self, vectors: np.ndarray) -> EncodedSet:
        rows = vectors.tolist()
        hashes = np.array(
            [self._encode_one(row) for row in rows], dtype=np.uint64
        )
        return EncodedSet(hashes=hashes)

    def join(
        self, left: np.ndarray, right: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        left_h = left.tolist()
        # independent of numpy sorting on purpose: this is the reference
        order = sorted(range(len(left_h)), key=lambda t: (left_h[t], t))
        keys = [left_h[t] for t in order]
        left_idx: list[int] = []
        right_idx: list[int] = []
        for r, h in enumerate(right.tolist()):
            pos = bisect_left(keys, h)
            while pos < len(keys) and keys[pos] == h:
                left_idx.append(order[pos])
                right_idx.append(r)
                pos += 1
        return (
            np.array(left_idx, dtype=np.int64),
            np.array(right_idx, dtype=np.int64),
        )


class ParallelBackend(_Backend):
    """Production implementation: numpy-vectorized hashing and join.

    Pair hashes come from the tables' precomputed hash columns.  An
    `encode_fn` override (tests use constant hashes to force
    collisions) hashes built residual vectors instead; the join and the
    exact confirmation are the same either way.
    """

    name = "parallel"

    def __init__(self, encode_fn: Callable[[np.ndarray], np.ndarray] | None = None):
        self._encode_many = encode_fn
        # h(d) is computed once per right-hand side, not once per call.
        self._rhs_key = b""
        self._rhs_hash = np.uint64(0)

    def encode(self, vectors: np.ndarray) -> EncodedSet:
        return EncodedSet(hashes=(self._encode_many or encode_batch)(vectors))

    def left_hashes(self, tables, pairs: np.ndarray) -> np.ndarray:
        if self._encode_many is not None:
            return super().left_hashes(tables, pairs)
        return tables[0].hashes[pairs[:, 0]] + tables[1].hashes[pairs[:, 1]]

    def right_hashes(self, tables, pairs: np.ndarray, d: np.ndarray) -> np.ndarray:
        if self._encode_many is not None:
            return super().right_hashes(tables, pairs, d)
        key = d.tobytes()
        if key != self._rhs_key:
            self._rhs_key, self._rhs_hash = key, np.uint64(encode_vector(d.tolist()))
        return (
            self._rhs_hash - tables[2].hashes[pairs[:, 0]]
        ) - tables[3].hashes[pairs[:, 1]]

    join = staticmethod(join_hashes)


_BACKENDS = {"serial": SerialBackend, "parallel": ParallelBackend}


def get_backend(name: str):
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(_BACKENDS)}"
        ) from None


def _verified_solutions(
    inst: MspInstance, tables: Sequence[QuarterTable], quads: np.ndarray
) -> list[SolutionVector]:
    """Assemble each (a, b, c, d) index row and re-verify it on `inst`."""
    solutions: list[SolutionVector] = []
    for a_idx, b_idx, c_idx, d_idx in quads.tolist():
        x = assemble_solution(tables, a_idx, b_idx, c_idx, d_idx)
        if not verify_solution(inst, x):
            raise RuntimeError(
                "internal error: residual match failed full verification"
            )
        solutions.append(x)
    return solutions


def _confirm_exact(
    ab: np.ndarray,
    cd: np.ndarray,
    tables: Sequence[QuarterTable],
    inst: MspInstance,
    d: np.ndarray,
) -> list[SolutionVector]:
    """Solutions among hash hits (A, B index rows `ab` aligned with C, D
    rows `cd`) whose left residual equals d minus the right sum.

    The sum of all four contributions is at most the row sum, so
    comparing it with d cannot wrap.
    """
    exact = (_left_vectors(ab, tables) + _right_sums(cd, tables) == d).all(axis=1)
    return _verified_solutions(inst, tables, np.hstack([ab[exact], cd[exact]]))


def match_batch(
    left: ResidualSet,
    right: ResidualSet,
    inst: MspInstance,
    tables: Sequence[QuarterTable],
    backend=None,
    stats: ValidationStats | None = None,
) -> list[SolutionVector]:
    """Solutions among left x right residual sets, via hash join plus
    exact confirm.

    Results are ordered by (right index, left index), which both
    backends produce identically.
    """
    backend = backend or ParallelBackend()
    left_idx, right_idx, hash_hits = backend.find_matches(left, right)
    quads = np.hstack([left.pairs[left_idx], right.pairs[right_idx]])
    solutions = _verified_solutions(inst, tables, quads)
    if stats is not None:
        stats.hash_hits += hash_hits
        stats.exact_hits += len(solutions)
    return solutions


def validate_chunked(
    batch: CandidateBatch,
    tables: Sequence[QuarterTable],
    inst: MspInstance,
    chunk_pairs: int,
    backend=None,
    d: np.ndarray | None = None,
    stats: ValidationStats | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> list[SolutionVector]:
    """Match a batch in (left chunk, right chunk) pieces of <= chunk_pairs.

    The union over chunk pairs equals one unchunked match; partitioning
    the pair product disjointly makes duplicates impossible.  Chunks are
    sliced out of the batch only when validated, so a batch held as
    `RunBlocks` is never expanded beyond one chunk per side.  When
    `should_stop` fires the remaining chunk pairs are abandoned, and the
    caller must treat the batch as unfinished.

    A window batch is joined as a whole (see the module docstring): each
    pair's first coordinate is checked against its own alpha, and a left
    chunk meets only the right chunks that hold one of its alphas.
    Solutions come in chunk-pair order, (right, left) within a chunk
    pair, so by ascending alpha.
    """
    if chunk_pairs < 1:
        raise ValueError(f"chunk_pairs must be >= 1, got {chunk_pairs}")
    backend = backend or ParallelBackend()
    if d is None:
        d = permuted_rhs(inst, tables)
    d = np.ascontiguousarray(d, dtype=np.uint64)
    ta, tb, tc, td = tables

    alphas, l_at, r_at = batch.spans()
    n_left, n_right = l_at[-1], r_at[-1]
    if stats is not None:
        stats.calls += 1

    solutions: list[SolutionVector] = []
    right_checked = 0  # right pairs before this were asserted and counted
    for ls in range(0, max(n_left, 1), chunk_pairs):
        l_end = min(ls + chunk_pairs, n_left)
        left_chunk = batch.left_pairs[ls:l_end]
        a_idx, b_idx = left_chunk[:, 0], left_chunk[:, 1]
        _assert_alpha(
            ta.weights[a_idx] + tb.weights[b_idx],
            _pair_alphas(alphas, l_at, ls, l_end),
            "left",
        )
        left_h = backend.left_hashes(tables, left_chunk)
        if stats is not None:
            stats.candidates_left += len(left_chunk)
        # only the right chunks holding this chunk's alphas
        r_lo, r_hi = _partner_range(l_at, r_at, ls, l_end)
        for rs in range(r_lo - r_lo % chunk_pairs, r_hi, chunk_pairs):
            if should_stop is not None and should_stop():
                return solutions
            r_end = min(rs + chunk_pairs, n_right)
            right_chunk = batch.right_pairs[rs:r_end]
            if rs >= right_checked:
                c_idx, d_idx = right_chunk[:, 0], right_chunk[:, 1]
                _assert_alpha(
                    d[0] - (tc.weights[c_idx] + td.weights[d_idx]),
                    _pair_alphas(alphas, r_at, rs, r_end),
                    "right",
                )
                if stats is not None:
                    stats.candidates_right += len(right_chunk)
                right_checked = r_end
            li, ri = backend.join(left_h, backend.right_hashes(tables, right_chunk, d))
            if not len(li):
                continue
            found = _confirm_exact(left_chunk[li], right_chunk[ri], tables, inst, d)
            if stats is not None:
                stats.hash_hits += len(li)
                stats.exact_hits += len(found)
            solutions.extend(found)
    return solutions


def _pair_alphas(alphas: list[int], edges: list[int], lo: int, hi: int):
    """The alpha of each pair lo..hi-1 of a side whose alpha i owns pairs
    edges[i]..edges[i+1]-1; a scalar when one alpha owns them all."""
    if len(alphas) == 1:
        return alphas[0]
    a0, a1 = bisect_right(edges, lo) - 1, bisect_left(edges, hi)
    if a1 - a0 == 1:
        return alphas[a0]
    owned = np.diff(np.clip(edges[a0 : a1 + 1], lo, hi))
    return np.array(alphas[a0:a1], dtype=np.uint64).repeat(owned)


def _partner_range(
    l_edges: list[int], r_edges: list[int], lo: int, hi: int
) -> tuple[int, int]:
    """Right pairs [start, end) of the alphas that left pairs lo..hi-1 hold;
    all of them for a batch of one alpha, even one without left pairs."""
    if len(l_edges) == 2:
        return 0, r_edges[1]
    a0, a1 = bisect_right(l_edges, lo) - 1, bisect_left(l_edges, hi)
    return r_edges[a0], r_edges[a1]


def default_chunk_pairs(m: int, budget_bytes: int = DEFAULT_MEMORY_BUDGET) -> int:
    """Largest chunk size whose residuals, hashes, and indices fit the budget."""
    per_pair = 2 * (8 * m + 32)
    return max(1, budget_bytes // per_pair)
