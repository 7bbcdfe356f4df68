"""Four-table pair-sum enumeration of first-row solutions.

The column set is split into four contiguous blocks A, B, C, D of
near-equal size.  Each block's full power set is tabulated once, sorted
by first-row subset sum (ascending for A and B, descending for C and D),
with the complete per-row contribution vector precomputed for every
subset, plus that vector's linear 64-bit hash (see `encode_vector`), so
the validator can hash a pair's residual from two table lookups.  Two
heaps then stream pair sums without materializing either half power
set, which is the point of the four-table scheme: space stays at
4 * 2^(n/4) table entries while the heaps never grow past |B| and |D|.

H1 is a min-heap holding one entry per B-subset, keyed by the combined
first-row weight of (current A position, that B-subset); H2 mirrors it
as a max-heap over (C position, D-subset).  Advancing the light side on
undershoot and the heavy side on overshoot visits every combined weight
pair exactly once.  When the two top keys meet the target, both heaps
are drained of all equal-key entries, each entry expanding to its full
equal-weight run, and the collected left/right pair lists form one
candidate batch for the validator.

Entries always sit at the start of an equal-weight run: runs are skipped
wholesale both when advancing (the partner heap's key is monotone, so a
key that undershoots keeps undershooting for the rest of its run) and
when draining, which keeps pop counts proportional to distinct weights
rather than table size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .instances import MASK64, MspInstance, SolutionVector, SplitMix64

#: Seed of the SplitMix64 stream that yields the hash multipliers.
HASH_SEED = 0x5EED_1EAF_0DD5_CA1E


@lru_cache(maxsize=None)
def hash_multipliers(m: int) -> tuple[int, ...]:
    """The m odd 64-bit multipliers r_0..r_{m-1} of the residual hash.

    They are the first m outputs of a fixed SplitMix64 stream with the
    low bit forced, so the multipliers for m are a prefix of those for
    m + 1 and never change between runs or platforms.
    """
    rng = SplitMix64(HASH_SEED)
    return tuple(rng.next_u64() | 1 for _ in range(m))


def encode_vector(vec: Sequence[int]) -> int:
    """Linear 64-bit hash h(v) = sum_j r_j * v_j mod 2^64.

    This is the multiply-add (Carter-Wegman / Dietzfelbinger) family with
    odd r_j.  Being linear, h(u + v) = h(u) + h(v) mod 2^64, so a sum of
    table entries hashes to the sum of their precomputed hashes, and a
    coordinate that wrapped below zero hashes as its value mod 2^64.
    """
    r = hash_multipliers(len(vec))
    return sum(rj * int(v) for rj, v in zip(r, vec)) & MASK64


def encode_batch(vectors: np.ndarray) -> np.ndarray:
    """Vectorized `encode_vector` over the rows of an (N, m) uint64 array."""
    vectors = np.asarray(vectors, dtype=np.uint64)
    r = np.array(hash_multipliers(vectors.shape[1]), dtype=np.uint64)
    return vectors @ r


@dataclass(frozen=True, eq=False, repr=False)
class QuarterTable:
    """Sorted power set of one column block.

    `masks` identify subsets (bit t selects `var_indices[t]`); `contribs`
    holds every instance row's subset sum per entry, with the enumerated
    row first (`row_map` gives the contribution-coordinate -> instance-row
    correspondence), so `contribs[:, 0] == weights`, and `hashes[i]` is
    `encode_vector(contribs[i])`.  `run_end[i]` is the end of the maximal
    equal-weight run containing entry i.
    """

    var_indices: tuple[int, ...]
    ascending: bool
    weights: np.ndarray
    masks: np.ndarray
    contribs: np.ndarray
    hashes: np.ndarray
    run_end: np.ndarray
    row_map: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.weights)

    def __repr__(self) -> str:
        direction = "asc" if self.ascending else "desc"
        return (
            f"QuarterTable(cols={self.var_indices[0]}..{self.var_indices[-1]}, "
            f"{direction}, {self.size} entries)"
        )


class PairHeapEntry(NamedTuple):
    """Heap unit: combined weight, fixed partner, run-table position.

    Field order is the heap ordering: key first, then fixed_index as the
    deterministic tie-break.
    """

    key: int
    fixed_index: int
    run_index: int


def _block_sizes(n: int) -> list[int]:
    q, r = divmod(n, 4)
    return [q + 1] * r + [q] * (4 - r)


def build_quarter_tables(
    inst: MspInstance, row: int = 0
) -> tuple[QuarterTable, QuarterTable, QuarterTable, QuarterTable]:
    """Build the four block tables keyed by `row`'s subset sums.

    Columns are split contiguously, larger blocks first.  Contribution
    vectors carry all m rows with the enumerated row moved to coordinate
    0; pair row-aligned data (the right-hand side) through `row_map`.
    """
    if inst.n < 4:
        raise ValueError(f"four-block split needs n >= 4, got n={inst.n}")
    if not (0 <= row < inst.m):
        raise ValueError(f"row {row} out of range for m={inst.m}")
    row_map = (row,) + tuple(i for i in range(inst.m) if i != row)
    sizes = _block_sizes(inst.n)
    tables = []
    start = 0
    for block_idx, b in enumerate(sizes):
        cols = tuple(range(start, start + b))
        start += b
        size = 1 << b
        contribs = np.zeros((size, inst.m), dtype=np.uint64)
        for ci, ri in enumerate(row_map):
            sums = np.zeros(1, dtype=np.uint64)
            for col in cols:
                sums = np.concatenate([sums, sums + inst.a[ri, col]])
            contribs[:, ci] = sums
        masks = np.arange(size, dtype=np.uint64)
        weights = contribs[:, 0]
        ascending = block_idx < 2
        sort_key = weights if ascending else np.uint64(MASK64) - weights
        order = np.lexsort((masks, sort_key))
        weights = np.ascontiguousarray(weights[order])
        masks = np.ascontiguousarray(masks[order])
        contribs = np.ascontiguousarray(contribs[order])
        hashes = encode_batch(contribs)
        run_end = _run_ends(weights)
        for arr in (weights, masks, contribs, hashes, run_end):
            arr.setflags(write=False)
        tables.append(
            QuarterTable(
                var_indices=cols,
                ascending=ascending,
                weights=weights,
                masks=masks,
                contribs=contribs,
                hashes=hashes,
                run_end=run_end,
                row_map=row_map,
            )
        )
    return tuple(tables)  # type: ignore[return-value]


def _run_ends(weights: np.ndarray) -> np.ndarray:
    size = len(weights)
    if size == 1:
        return np.array([1], dtype=np.int64)
    change = np.flatnonzero(weights[1:] != weights[:-1]).astype(np.int64) + 1
    bounds = np.concatenate([change, [size]])
    starts = np.concatenate([[0], change])
    return np.repeat(bounds, bounds - starts)


def run_extract(table: QuarterTable, start: int) -> int:
    """End of the maximal equal-weight run containing `start` (half-open)."""
    if not (0 <= start < table.size):
        raise IndexError(f"start {start} out of range for table of size {table.size}")
    return int(table.run_end[start])


def permuted_rhs(inst: MspInstance, tables: Sequence[QuarterTable]) -> np.ndarray:
    """Right-hand side reordered to match the tables' contribution rows."""
    return inst.d[list(tables[0].row_map)]


@dataclass(frozen=True)
class CandidateBatch:
    """All left pairs of weight alpha and right pairs of weight beta.

    `left_pairs[:, 0]` indexes table A, `left_pairs[:, 1]` table B;
    `right_pairs` likewise over C and D.  alpha + beta equals the
    enumeration target.
    """

    alpha: int
    beta: int
    left_pairs: np.ndarray
    right_pairs: np.ndarray

    @property
    def n_left(self) -> int:
        return len(self.left_pairs)

    @property
    def n_right(self) -> int:
        return len(self.right_pairs)


def _expand_segments(
    starts: list[int], ends: list[int], fixed: list[int]
) -> np.ndarray:
    starts_a = np.array(starts, dtype=np.int64)
    ends_a = np.array(ends, dtype=np.int64)
    fixed_a = np.array(fixed, dtype=np.int64)
    lens = ends_a - starts_a
    total = int(lens.sum())
    out = np.empty((total, 2), dtype=np.int64)
    offsets = np.cumsum(lens) - lens
    out[:, 0] = np.repeat(starts_a - offsets, lens) + np.arange(total, dtype=np.int64)
    out[:, 1] = np.repeat(fixed_a, lens)
    return out


class PairSumEnumerator:
    """Streams candidate batches for one target value until exhaustion.

    Single-owner, advanced sequentially; the batches it emits are
    immutable and safe to hand to other threads.
    """

    engine_name = "python"

    def __init__(self, tables: Sequence[QuarterTable], target: int):
        ta, tb, tc, td = tables
        self.tables = tuple(tables)
        self.target = int(target)
        self._wa = ta.weights.tolist()
        self._rea = ta.run_end.tolist()
        self._wb = tb.weights.tolist()
        self._wc = tc.weights.tolist()
        self._rec = tc.run_end.tolist()
        self._wd = td.weights.tolist()
        self._na = len(self._wa)
        self._nc = len(self._wc)
        wa0 = self._wa[0]
        wc0 = self._wc[0]
        self._h1 = [(wa0 + wb, j, 0) for j, wb in enumerate(self._wb)]
        self._h2 = [(-(wc0 + wd), l, 0) for l, wd in enumerate(self._wd)]
        heapq.heapify(self._h1)
        heapq.heapify(self._h2)
        self.peak_h1 = len(self._h1)
        self.peak_h2 = len(self._h2)
        self.exhausted = False

    def heap_tops(self) -> tuple[int | None, int | None]:
        """Current (min H1 key, max H2 key); None for an empty heap."""
        alpha = self._h1[0][0] if self._h1 else None
        beta = -self._h2[0][0] if self._h2 else None
        return alpha, beta

    def heap_entries(self) -> tuple[list[PairHeapEntry], list[PairHeapEntry]]:
        """Snapshot of both heaps (unordered); debugging and tests only."""
        h1 = [PairHeapEntry(k, j, i) for k, j, i in self._h1]
        h2 = [PairHeapEntry(-k, l, c) for k, l, c in self._h2]
        return h1, h2

    def next_batch(self) -> CandidateBatch | None:
        """Next equal-weight candidate batch, or None once exhausted."""
        h1, h2 = self._h1, self._h2
        target = self.target
        wa, rea, wb = self._wa, self._rea, self._wb
        wc, rec, wd = self._wc, self._rec, self._wd
        na, nc = self._na, self._nc
        pop, push = heapq.heappop, heapq.heappush
        while h1 and h2:
            combined = h1[0][0] - h2[0][0]
            if combined < target:
                _, j, i = pop(h1)
                ni = rea[i]
                if ni < na:
                    push(h1, (wa[ni] + wb[j], j, ni))
                    if len(h1) > self.peak_h1:
                        self.peak_h1 = len(h1)
            elif combined > target:
                _, l, k = pop(h2)
                nk = rec[k]
                if nk < nc:
                    push(h2, (-(wc[nk] + wd[l]), l, nk))
                    if len(h2) > self.peak_h2:
                        self.peak_h2 = len(h2)
            else:
                return self._drain()
        self.exhausted = True
        return None

    def _drain(self) -> CandidateBatch:
        h1, h2 = self._h1, self._h2
        wa, rea, wb = self._wa, self._rea, self._wb
        wc, rec, wd = self._wc, self._rec, self._wd
        na, nc = self._na, self._nc
        pop, push = heapq.heappop, heapq.heappush

        alpha = h1[0][0]
        neg_beta = h2[0][0]
        lstarts: list[int] = []
        lends: list[int] = []
        ljs: list[int] = []
        while h1 and h1[0][0] == alpha:
            _, j, i = pop(h1)
            end = rea[i]
            lstarts.append(i)
            lends.append(end)
            ljs.append(j)
            if end < na:
                push(h1, (wa[end] + wb[j], j, end))
                if len(h1) > self.peak_h1:
                    self.peak_h1 = len(h1)
        rstarts: list[int] = []
        rends: list[int] = []
        rls: list[int] = []
        while h2 and h2[0][0] == neg_beta:
            _, l, k = pop(h2)
            end = rec[k]
            rstarts.append(k)
            rends.append(end)
            rls.append(l)
            if end < nc:
                push(h2, (-(wc[end] + wd[l]), l, end))
                if len(h2) > self.peak_h2:
                    self.peak_h2 = len(h2)
        return CandidateBatch(
            alpha=alpha,
            beta=-neg_beta,
            left_pairs=_expand_segments(lstarts, lends, ljs),
            right_pairs=_expand_segments(rstarts, rends, rls),
        )


def assemble_solution(
    tables: Sequence[QuarterTable],
    a_idx: int,
    b_idx: int,
    c_idx: int,
    d_idx: int,
) -> SolutionVector:
    """Characteristic vector of the union of the four indexed subsets."""
    n = sum(len(t.var_indices) for t in tables)
    x = [0] * n
    for table, idx in zip(tables, (a_idx, b_idx, c_idx, d_idx)):
        mask = int(table.masks[int(idx)])
        for bit, col in enumerate(table.var_indices):
            x[col] = (mask >> bit) & 1
    return tuple(x)
