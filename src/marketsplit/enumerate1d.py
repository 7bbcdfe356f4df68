"""Four-table pair-sum enumeration of first-row solutions.

The column set is split into four contiguous blocks A, B, C, D of
near-equal size.  Each block's full power set is tabulated once, sorted
by first-row subset sum (ascending for A and B, descending for C and D),
with the complete per-row contribution vector precomputed for every
subset, plus that vector's linear 64-bit hash (see `encode_vector`), so
the validator can hash a pair's residual from two table lookups.  The
enumerators then stream, in ascending order of the left weight alpha,
the candidate pairs of every alpha that is both a left sum wA + wB and
the target minus a right sum wC + wD, without materializing either half
power set: space stays at 4 * 2^(n/4) table entries.

Within a batch, left pairs are listed by B index, then A index; right
pairs by D index, then C index.  Equal weights form contiguous runs in
every table, so each side of a batch is a list of (fixed run x inner
range) blocks -- a B run with a contiguous range of A entries, or a D
run with one of C entries -- held as `RunBlocks`.  The validator hashes
the blocks directly, and anything else expands them to index pairs only
a slice at a time.

`SumsetEnumerator` is the one enumerator `solve()` runs.  It sweeps
alpha in windows [lo, hi] over the distinct-weight sumsets uA + uB and
d_1 - (uC + uD).  Per window, a vectorized `searchsorted` lists the
distinct-weight pairs whose sums fall in it.  Windows are cut so
neither side holds more than 4 * 2^(n/4) distinct-weight pairs (one
alpha never needs more than min(|uA|, |uB|)) and hi - lo < 2^(64 -
that cap's bit length).  The window's width alone picks its route.

A narrow window, spanning at most the cap's count of alphas, counts
each side's index pairs per alpha exactly (a `bincount` per side), so
it knows its common alphas, those both sides hold, and is cut at once
into interval batches: each the longest run of consecutive common
alphas whose span holds at most `batch_pairs` = max(window cap,
`BATCH_PAIRS`) index pairs on both sides together, or one common alpha
over that alone.  Below n = 60 the budget is `BATCH_PAIRS`, more than
any window of the benchmark's (5,40,100) sweeps holds, so each of
their windows is one batch, one validation call; a (6,50,100) window
holds alphas over the budget, each a batch alone, with the runs
between them.  From n = 60 on the budget is the cap.  An interval's
blocks are one per fixed run, with the inner entries whose sums lie in
its span: one contiguous range, read from the sweep's frontiers
(`_SumsetSide.count_le`) at the span's ends.
Nothing is sorted or matched, and the rows are long; the pairs of
alphas in the span that only one side holds ride along and can never
match.

A wide window (with the default cap, only large, surrogate weights
make one) keeps the sums that `_bitmap_survivors`, the filter the
validator's hash join also runs, passes: those whose low bits the other
side also holds.  Wide windows' kept sums are matched once per buffer, not once per window:
each window appends its sums, as offsets from the buffer's first lo,
and their runs.  The buffer is matched before a window's sums would
take it past the cap on either side, before a narrow window's
intervals, before a window whose hi would break the clamp on hi - lo
counted from the buffer's first lo, and when the sweep ends; so it
holds at most the cap per side beside the current window, and space
stays O(4 * 2^(n/4)).  A match packs each side's sums as keys ((sum -
lo) << s) | position (s: the larger side's position bits, at most the
cap's bit length, so the clamp keeps every key exact) and sorts them
once.  The values both sides share are the alphas, and each alpha's
positions are one range of its side's keys, already fixed-major; they
map back to the pairs' runs through the positions.  Each match cuts
its alphas, ascending, into batches of one-alpha intervals under the
same budget and by the same rule as a narrow window's intervals.  A
batch may span several windows of one buffer but never two matches,
so a sweep validates each buffer's alphas before it cuts more than one
window past them.  Its sides are `RunBlocks` whose fields are views of
the match's.  The heap emits the same format with one alpha per batch;
split per alpha (`CandidateBatch.per_alpha`), both enumerators give
the same stream.

`PairSumEnumerator` is the paper's heap formulation, kept as the
reference the sumset sweep is tested against.  H1 is a min-heap holding
one entry per B-subset, keyed by the combined first-row weight of
(current A position, that B-subset); H2 mirrors it as a max-heap over
(C position, D-subset).  Advancing the light side on undershoot and the
heavy side on overshoot visits every combined weight pair exactly once;
when the two top keys meet the target, both heaps are drained of all
equal-key entries, each entry standing for its full equal-weight run.
Entries always sit at the start of an equal-weight run, so pop counts
are proportional to distinct weights rather than table size, and the
heaps never grow past |B| and |D|.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .instances import MASK64, MspInstance, SolutionVector, SplitMix64

#: Seed of the SplitMix64 stream that yields the hash multipliers.
HASH_SEED = 0x5EED_1EAF_0DD5_CA1E

#: Pair budget of a `SumsetEnumerator` batch, or its window cap where
#: that is larger (the cap reaches it at n = 60).  A `validate_chunked`
#: call costs about 60-80 us fixed plus 8-11 ns per pair (2-core Xeon,
#: Python 3.11, numpy 2.4; the batches of four (5,40,100) sweeps), and
#: those solves save 130-270 us per call fewer.  So the fixed cost is
#: about 5% of a full batch's call (15-20% at 2^15), and every window of
#: those sweeps is one call.  A larger budget buys fewer calls with work past
#: the solving alpha in first mode (up to one budget) and with the bytes
#: a batch holds beyond its chunks (see `default_chunk_pairs`); from
#: 3 * 2^16 on, a (6,50,100) sweep's temporaries outgrow what glibc
#: keeps between calls, and each call faults them back in.
BATCH_PAIRS = 1 << 17


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


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, length) of each run of equal values in a nonempty array."""
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    return starts, np.diff(np.r_[starts, len(values)])


def _run_ends(weights: np.ndarray) -> np.ndarray:
    """Per entry, the end of the equal-weight run holding it."""
    starts, lens = _runs(weights)
    return np.repeat(starts + lens, lens)


def _ranges(
    starts: np.ndarray, lens: np.ndarray, arange: np.ndarray | None = None
) -> np.ndarray:
    """The integer ranges [s, s + len) of each (start, length), laid end
    to end; a length may be 0.  `arange`, if given, is a reused
    `np.arange` at least as long as the result."""
    pos = (starts - (lens.cumsum() - lens)).repeat(lens)
    pos += np.arange(len(pos)) if arange is None else arange[: len(pos)]
    return pos


def permuted_rhs(inst: MspInstance, tables: Sequence[QuarterTable]) -> np.ndarray:
    """Right-hand side reordered to match the tables' contribution rows."""
    return inst.d[list(tables[0].row_map)]


class RunBlocks:
    """One side of a batch as (fixed run x inner range) blocks.

    Block b stands for the index pairs (inner_start[b] + s,
    fixed_start[b] + t) with s < inner_len[b] and t < fixed_len[b] (both
    lengths >= 1), listed t-major: `fixed_len[b]` rows, each one fixed
    index with a contiguous range of inner indices, within one
    equal-weight run of the inner table or, in a wide alpha interval's
    block, over several.  The blocks follow each
    other in array order; `starts[b]` is block b's first pair offset, and
    `starts[-1]` the pair count.  `len()` counts pairs, and `[lo:hi]`
    expands just that range to a (hi - lo, 2) int64 array, so a consumer
    working in chunks never holds the whole side; `sums` evaluates a
    per-pair sum over a range without building the pairs, and `pairs_at`
    builds the pairs at given positions only.  Rows expand to inner
    indices with `_ranges`.
    """

    __slots__ = ("inner_start", "inner_len", "fixed_start", "fixed_len", "starts")

    def __init__(self, inner_start, inner_len, fixed_start, fixed_len):
        self.inner_start = inner_start
        self.inner_len = inner_len
        self.fixed_start = fixed_start
        self.fixed_len = fixed_len
        self.starts = _offsets(inner_len * fixed_len)

    @classmethod
    def from_pairs(cls, pairs) -> "RunBlocks":
        """A (k, 2) index-pair array as k one-pair blocks."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        ones = np.ones(len(pairs), dtype=np.int64)
        return cls(pairs[:, 0].copy(), ones, pairs[:, 1].copy(), ones)

    def __len__(self) -> int:
        return int(self.starts[-1])

    def __getitem__(self, key) -> np.ndarray:
        if not isinstance(key, slice) or key.step not in (None, 1):
            raise TypeError("RunBlocks supports [lo:hi] slices only")
        lo, hi, _ = key.indices(len(self))
        if hi <= lo:
            return np.empty((0, 2), dtype=np.int64)
        inner, lens, fixed = self.rows(lo, hi)
        return np.column_stack((_ranges(inner, lens), fixed.repeat(lens)))

    def block_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Blocks b0..b1-1, the ones holding pairs lo..hi-1 (lo < hi)."""
        starts = self.starts
        if lo == 0 and hi == int(starts[-1]):
            return 0, len(starts) - 1
        b0 = int(starts.searchsorted(lo, side="right")) - 1
        return b0, int(starts.searchsorted(hi))

    def rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first inner index, length, fixed index) of each row holding
        pairs lo..hi-1 (lo < hi), the first and last row clipped to them."""
        starts = self.starts
        whole = lo == 0 and hi == int(starts[-1])
        b0, b1 = self.block_range(lo, hi)
        k = self.fixed_len[b0:b1]
        inner, lens = self.inner_start[b0:b1], self.inner_len[b0:b1]
        fixed = self.fixed_start[b0:b1]
        n_rows = int(k.sum())
        if n_rows != len(k):  # some block has several rows
            fixed = _ranges(fixed, k)
            inner, lens = inner.repeat(k), lens.repeat(k)
        if whole:
            return inner, lens, fixed
        # before lo: t0 whole rows and c0 pairs of the first block; after
        # hi: t1 whole rows and c1 pairs of the last block
        t0, c0 = divmod(lo - int(starts[b0]), int(lens[0]))
        t1, c1 = divmod(int(starts[b1]) - hi, int(lens[-1]))
        r1 = n_rows - t1
        inner, lens, fixed = inner[t0:r1].copy(), lens[t0:r1].copy(), fixed[t0:r1]
        inner[0] += c0
        lens[0] -= c0
        lens[-1] -= c1
        return inner, lens, fixed

    def sums(
        self, inner_values: np.ndarray, fixed_values: np.ndarray, lo: int, hi: int,
        out: np.ndarray | None = None, arange: np.ndarray | None = None,
    ) -> np.ndarray:
        """inner_values[i] + fixed_values[f] for each pair (i, f) of lo..hi-1.

        Row by row: the row's fixed value, repeated, plus the inner values
        of its contiguous index run; the pairs are never built.  With
        `out` (and `arange`, see `_ranges`), reused buffers of at least
        hi - lo entries, the sums are written to the front of `out`, and
        the inner values are gathered with `mode="clip"`, since
        `np.take` buffers a gather into `out` in mode "raise": an index
        past the inner table would be clipped, not rejected.  Callers
        pass `out` only for blocks already checked by `validate`'s
        `_BlockCheck`, whose assertions "runs past its inner table" and
        "crosses an equal-weight fixed run" bound both index ranges.
        """
        if hi <= lo:
            return np.empty(0, dtype=inner_values.dtype)
        inner, lens, fixed = self.rows(lo, hi)
        several = len(lens) != hi - lo  # some row holds several pairs
        pos = _ranges(inner, lens, arange) if several else inner
        if out is None:
            out = inner_values[pos]
        else:
            out = np.take(inner_values, pos, out=out[: hi - lo], mode="clip")
        del pos
        add = fixed_values[fixed]
        out += add.repeat(lens) if several else add
        return out

    def pairs_at(self, pos: np.ndarray) -> np.ndarray:
        """The (k, 2) index pairs at flat positions `pos` (ints in [0, len))."""
        b = self.starts.searchsorted(pos, side="right") - 1
        t, s = np.divmod(pos - self.starts[b], self.inner_len[b])
        out = np.empty((len(pos), 2), dtype=np.int64)
        out[:, 0] = self.inner_start[b] + s
        out[:, 1] = self.fixed_start[b] + t
        return out

    def sub(self, b0: int, b1: int) -> "RunBlocks":
        """Blocks b0..b1-1 as their own side."""
        return RunBlocks(
            self.inner_start[b0:b1],
            self.inner_len[b0:b1],
            self.fixed_start[b0:b1],
            self.fixed_len[b0:b1],
        )


@dataclass(frozen=True)
class CandidateBatch:
    """The candidate pairs of ascending, disjoint alpha intervals.

    `left_pairs` holds index pairs into tables A and B (`[:, 0]` of an
    expansion indexes A), `right_pairs` likewise into C and D, both as
    `RunBlocks`; a pair of weight alpha on the left partners those of
    weight beta = `target` - alpha on the right.  `alphas` are the
    common alphas, ascending: those both sides hold, `alphas[i]` with
    `left_counts[i]` left and `right_counts[i]` right pairs.  Interval k
    spans the alphas `alphas[alpha_at[k]]` to `alphas[alpha_at[k+1] - 1]`
    and owns the blocks `left_at[k]:left_at[k+1]` of the left side, at
    least one, and likewise on the right; so `left_at[0] == 0` and
    `left_at[-1]` is the left block count.  Every pair of an interval's
    blocks has a weight in that interval.  A one-alpha interval's blocks
    hold exactly that alpha's pairs; the blocks of a wider one are long
    rows that run over several alphas, including alphas only one side
    holds, whose pairs can never match.  `alpha` and `beta` are those of
    `alphas[0]`.  The heap emits one one-alpha interval per batch
    (`of_alpha`); the sumset sweep emits groups of one-alpha intervals
    and single wide intervals (see `SumsetEnumerator`).
    """

    target: int
    alphas: np.ndarray
    left_pairs: RunBlocks
    right_pairs: RunBlocks
    left_at: np.ndarray
    right_at: np.ndarray
    alpha_at: np.ndarray
    left_counts: np.ndarray
    right_counts: np.ndarray

    @classmethod
    def of_alpha(cls, target: int, alpha: int, left, right) -> "CandidateBatch":
        """The batch of one alpha: every block of `left` and `right`."""
        at = (np.array([0, len(s.inner_start)], dtype=np.int64) for s in (left, right))
        counts = (np.array([len(s)], dtype=np.int64) for s in (left, right))
        return cls(
            target, np.array([alpha], dtype=np.uint64), left, right, *at,
            np.array([0, 1], dtype=np.int64), *counts,
        )

    @property
    def alpha(self) -> int:
        return int(self.alphas[0])

    @property
    def beta(self) -> int:
        return self.target - self.alpha

    @property
    def n_left(self) -> int:
        return len(self.left_pairs)

    @property
    def n_right(self) -> int:
        return len(self.right_pairs)

    @cached_property
    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lows, highs, left pair edges, right pair edges), gathered once
        per batch: interval k spans the alphas lows[k]..highs[k] and holds
        the pairs `left_pairs[edges[k]:edges[k+1]]`, likewise on the
        right.  One-alpha intervals' bounds are `alphas` itself."""
        at, bounds = self.alpha_at, (self.alphas, self.alphas)
        if len(at) <= len(self.alphas):  # some interval holds several alphas
            bounds = (self.alphas[at[:-1]], self.alphas[at[1:] - 1])
        edges = (self.left_pairs.starts[self.left_at], self.right_pairs.starts[self.right_at])
        return (*bounds, *edges)

    def split(self, tables: Sequence[QuarterTable]) -> "CandidateBatch":
        """The batch's common alphas as one one-alpha interval each, in the
        heap's pair order: every block cut where its inner weight changes,
        and each alpha's pieces kept in block order.  The pairs of alphas
        only one side holds are dropped.  `tables` are the four tables
        the batch indexes."""
        sides, offsets = [], []
        for side, t_in, t_fx, d0 in (
            (self.left_pairs, tables[0], tables[1], None),
            (self.right_pairs, tables[2], tables[3], self.target),
        ):
            alphas, fields = _alpha_pieces(side, t_in, t_fx, d0)
            start = alphas.searchsorted(self.alphas)
            count = alphas.searchsorted(self.alphas, side="right") - start
            kept = _ranges(start, count)
            sides.append(RunBlocks(*(f[kept] for f in fields)))
            offsets.append(_offsets(count))
        at = np.arange(len(self.alphas) + 1)
        return replace(
            self, left_pairs=sides[0], right_pairs=sides[1],
            left_at=offsets[0], right_at=offsets[1], alpha_at=at,
        )

    def per_alpha(self, tables: Sequence[QuarterTable]) -> list["CandidateBatch"]:
        """The batch as one one-alpha batch per common alpha, in the heap's
        pair order (see `split`)."""
        one = self.split(tables) if len(self.alpha_at) <= len(self.alphas) else self
        left, right = one.left_pairs, one.right_pairs
        l_at, r_at = one.left_at.tolist(), one.right_at.tolist()
        return [
            CandidateBatch.of_alpha(
                self.target, alpha,
                left.sub(l_at[i], l_at[i + 1]),
                right.sub(r_at[i], r_at[i + 1]),
            )
            for i, alpha in enumerate(self.alphas.tolist())
        ]


def _alpha_pieces(
    side: RunBlocks, t_in: QuarterTable, t_fx: QuarterTable, d0: int | None
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Each block of `side` cut where its inner weight changes: the
    pieces' alphas (pair weight, or d0 minus it) stably sorted, and their
    `RunBlocks` fields in that order."""
    lens = side.inner_len
    pos = _ranges(side.inner_start, lens)
    block = np.arange(len(lens)).repeat(lens)
    cut = np.ones(len(pos), dtype=bool)
    weights = t_in.weights[pos]
    cut[1:] = (block[1:] != block[:-1]) | (weights[1:] != weights[:-1])
    cut = np.flatnonzero(cut)
    block = block[cut]
    fields = (
        pos[cut], np.diff(np.r_[cut, len(pos)]),
        side.fixed_start[block], side.fixed_len[block],
    )
    alpha = weights[cut] + t_fx.weights[fields[2]]
    if d0 is not None:
        alpha = np.uint64(d0) - alpha
    order = np.argsort(alpha, kind="stable")
    return alpha[order], tuple(f[order] for f in fields)


def _segments(runs: list[int]) -> RunBlocks:
    """Heap drain runs as single-row blocks: `runs` holds (start, end,
    fixed) triples end to end, each the block [start, end) x {fixed}."""
    start, end, fixed = np.array(runs, dtype=np.int64).reshape(-1, 3).T.copy()
    return RunBlocks(start, end - start, fixed, np.ones(len(start), dtype=np.int64))


class PairSumEnumerator:
    """Streams candidate batches for one target value until exhaustion.

    Single-owner, advanced sequentially; the batches it emits are
    immutable and safe to hand to other threads.  Heap entries are (key,
    fixed index, run start) tuples, H2's keys negated; each heap has one
    step (`_pop_left`, `_pop_right`) that pops a run and pushes its
    fixed partner's next run.  A step never lengthens its heap, so the
    heaps peak at their seeded sizes |B| and |D|: `peak_h1` and
    `peak_h2`.
    """

    def __init__(self, tables: Sequence[QuarterTable], target: int):
        ta, tb, tc, td = tables
        self.tables = tuple(tables)
        self.target = int(target)
        self._wa, self._rea = ta.weights.tolist(), ta.run_end.tolist()
        self._wc, self._rec = tc.weights.tolist(), tc.run_end.tolist()
        self._wb, self._wd = tb.weights.tolist(), td.weights.tolist()
        self._na, self._nc = ta.size, tc.size
        self._h1 = [(self._wa[0] + wb, j, 0) for j, wb in enumerate(self._wb)]
        self._h2 = [(-(self._wc[0] + wd), l, 0) for l, wd in enumerate(self._wd)]
        heapify(self._h1)
        heapify(self._h2)
        self.peak_h1, self.peak_h2 = len(self._h1), len(self._h2)
        self.exhausted = False

    def heap_tops(self) -> tuple[int | None, int | None]:
        """Current (min H1 key, max H2 key); None for an empty heap."""
        alpha = self._h1[0][0] if self._h1 else None
        beta = -self._h2[0][0] if self._h2 else None
        return alpha, beta

    def next_batch(self) -> CandidateBatch | None:
        """Next equal-weight candidate batch, or None once exhausted."""
        h1, h2, target = self._h1, self._h2, self.target
        while h1 and h2:
            combined = h1[0][0] - h2[0][0]
            if combined < target:
                self._pop_left()
            elif combined > target:
                self._pop_right()
            else:
                return self._drain()
        self.exhausted = True
        return None

    def _drain(self) -> CandidateBatch:
        h1, h2 = self._h1, self._h2
        alpha, neg_beta = h1[0][0], h2[0][0]
        left: list[int] = []
        while h1 and h1[0][0] == alpha:
            left.extend(self._pop_left())
        right: list[int] = []
        while h2 and h2[0][0] == neg_beta:
            right.extend(self._pop_right())
        return CandidateBatch.of_alpha(
            self.target, alpha, _segments(left), _segments(right)
        )

    def _pop_left(self) -> tuple[int, int, int]:
        """Pop H1's top A run, push its B partner's next: (start, end, j)."""
        h1 = self._h1
        _, j, i = h1[0]
        end = self._rea[i]
        if end < self._na:
            heapreplace(h1, (self._wa[end] + self._wb[j], j, end))
        else:
            heappop(h1)
        return i, end, j

    def _pop_right(self) -> tuple[int, int, int]:
        """`_pop_left` for H2: the popped C run's (start, end, l)."""
        h2 = self._h2
        _, l, k = h2[0]
        end = self._rec[k]
        if end < self._nc:
            heapreplace(h2, (-(self._wc[end] + self._wd[l]), l, end))
        else:
            heappop(h2)
        return k, end, l


def _distinct_runs(
    table: QuarterTable, ascending: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(distinct weight, run start, run length) per equal-weight run, in
    table order, or reversed if that makes the weights ascending."""
    starts, lens = _runs(table.weights)
    runs = (table.weights[starts], starts, lens)
    if ascending and not table.ascending:
        runs = tuple(np.ascontiguousarray(a[::-1]) for a in runs)
    return runs


class _SumsetSide:
    """Distinct-weight pairs of one table pair: (inner run x, fixed run y)
    summing to u_in[x] + u_fx[y].  Inner weights are ascending for the
    binary search; fixed runs stay in table order, so pairs listed
    fixed-major come out in the heap's partner order."""

    def __init__(self, inner: QuarterTable, fixed: QuarterTable):
        self.u_in, self.in_start, self.in_len = _distinct_runs(inner, True)
        self.u_fx, self.fx_start, self.fx_len = _distinct_runs(fixed, False)
        self.in_end = self.in_start + self.in_len

    def count_le(self, v: int) -> np.ndarray:
        """Per fixed run y: the number of inner runs x with sum <= v."""
        if v < 0:
            return np.zeros(len(self.u_fx), dtype=np.int64)
        v = np.uint64(v)
        # v - u_fx wraps where u_fx > v; those rows are set to 0.
        below = np.searchsorted(self.u_in, v - self.u_fx, side="right")
        below[self.u_fx > v] = 0
        return below

    def sums(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, ...]:
        """Sums, x and y of the pairs (x, y) with lo[y] <= x < hi[y], y-major."""
        counts = hi - lo
        y = np.repeat(np.arange(len(counts)), counts)
        x = _ranges(lo, counts)
        out = self.u_in[x]
        out += self.u_fx[y]
        return out, x, y

    def pair_counts(
        self, values: np.ndarray, x: np.ndarray, y: np.ndarray, width: int
    ) -> np.ndarray:
        """Index pairs per value v < width of the pairs (x, y) listed by
        `sums`, whose values (uint64, below width) are given."""
        pairs = self.in_len[x] * self.fx_len[y]
        counts = np.bincount(values.view(np.int64), weights=pairs, minlength=width)
        return counts.astype(np.int64)

    def blocks(self, lo: np.ndarray, hi: np.ndarray) -> RunBlocks:
        """The pairs (x, y) with lo[y] <= x < hi[y] as one block per fixed
        run y that has any: its entries with the inner entries of runs
        lo[y]..hi[y]-1, one contiguous range of the inner table."""
        y = np.flatnonzero(hi > lo)
        first, last = lo[y], hi[y] - 1
        # runs in ascending weight are in descending table order on C
        start = np.minimum(self.in_start[first], self.in_start[last])
        end = np.maximum(self.in_end[first], self.in_end[last])
        return RunBlocks(start, end - start, self.fx_start[y], self.fx_len[y])

    def select(
        self, keys: np.ndarray, values: np.ndarray, s: int, x: np.ndarray,
        y: np.ndarray, common: np.ndarray,
    ) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
        """Of the pairs (x, y) listed by `sums`, those whose sum is in
        `common`, as `RunBlocks` fields ordered by (sum, fixed run); with
        each common sum's block offsets and number of index pairs.  `keys`
        and `values` are as `_packed_positions` takes them."""
        pos, per_key = _packed_positions(keys, values, s, common)
        x, y = x[pos], y[pos]
        fields = self.in_start[x], self.in_len[x], self.fx_start[y], self.fx_len[y]
        at = _offsets(per_key)
        # every common sum has at least one block, so no segment is empty
        pairs = np.add.reduceat(fields[1] * fields[3], at[:-1])
        return fields, at, pairs


def _bitmap_survivors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending positions in uint64 arrays `a` and `b` whose low `bits`
    the other side also marks: a superset of the positions of every
    value both hold.

    `bits` is the smaller side's bit length plus 3, clamped to [10, 24],
    so the byte bitmap holds at least eight slots per marked value and
    never exceeds 16 MiB.  The smaller side's slots are marked 1, the
    larger side's values on a mark survive; their slots are marked 2,
    and the smaller side's values on a 2 survive.  Positions are int64;
    both are empty when nothing survives.
    """
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    bitmap, mask, small_slots = _bitmap_marks(small)
    big_slots = (big & mask).view(np.int64)
    # marks are 0 or 1 here, valid as bool, whose nonzero scan is fastest
    big_idx = bitmap[big_slots].view(np.bool_).nonzero()[0]
    if not len(big_idx):  # the common case for small hash batches
        return big_idx, big_idx
    bitmap[big_slots[big_idx]] = 2
    del big_slots
    # Not empty: every slot marked 2 was marked 1 by the smaller side.
    small_idx = (bitmap[small_slots] == 2).nonzero()[0]
    return (small_idx, big_idx) if small is a else (big_idx, small_idx)


def _bitmap_marks(small: np.ndarray) -> tuple[np.ndarray, np.uint64, np.ndarray]:
    """The first pass of `_bitmap_survivors`, kept apart so that the
    larger side can be filtered in pieces: the bitmap marked 1 at the
    smaller side's slots, the mask that takes a value to its slot, and
    the smaller side's slots."""
    bits = min(max(len(small).bit_length() + 3, 10), 24)
    mask = np.uint64((1 << bits) - 1)
    # Masked values are below 2^24, so the int64 view is exact.
    small_slots = (small & mask).view(np.int64)
    bitmap = np.zeros(1 << bits, dtype=np.uint8)
    bitmap[small_slots] = 1
    return bitmap, mask, small_slots


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending, nonempty array."""
    first = np.empty(len(a), dtype=bool)
    first[0] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _shared_values(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distinct values present in both ascending arrays (neither empty),
    ascending."""
    # a merge, not a binary search per value: a stable sort of two sorted
    # runs is one linear merge, after which a shared value sits twice
    both = np.concatenate((_distinct(a), _distinct(b)))
    both.sort(kind="stable")
    return both[1:][both[1:] == both[:-1]]


def _packed_positions(
    keys: np.ndarray, values: np.ndarray, s: int, common: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the sorted keys (value << s) | position whose value
    (in `values`) is in `common` (sorted, unique), in (value, position)
    order, and their count per common value."""
    start = values.searchsorted(common)
    per_key = values.searchsorted(common, side="right") - start
    pos = keys[_ranges(start, per_key)]
    pos &= np.uint64((1 << s) - 1)
    return pos.view(np.int64), per_key


def _offsets(counts: np.ndarray) -> np.ndarray:
    """0 followed by the running totals of `counts`."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class SumsetEnumerator:
    """Heap-free engine with `PairSumEnumerator`'s exact batch stream.

    Alpha is swept in windows [lo, hi] (see the module docstring).  Per
    fixed run, `_lcount`/`_rcount` are the sweep's frontiers: the
    inner-run counts with sum below lo, and with right sum at most
    d_1 - lo; `_l_total`/`_r_total` are their sums.  `window_pairs`
    caps the distinct-weight pairs either side holds per window
    (default: the total table size, the four-table space bound);
    `peak_window_pairs` is the most either side held, and `windows`
    counts the windows cut.  A narrow window, hi - lo < `window_pairs`,
    becomes interval batches at once (`_intervals`); `_buffer` holds
    wide windows' kept sums until `_flush` matches them and cuts their
    alphas into groups of one-alpha intervals (see the module
    docstring).  Both append to `_pending` and cut their alphas with one
    loop (`_budget_cuts`): at most `batch_pairs` = max(`window_pairs`,
    `BATCH_PAIRS`) pairs on both sides together per batch, or one alpha
    over that alone.  With the default cap that is `BATCH_PAIRS` below
    n = 60 and the cap itself from n = 60 on.  A first-solution solve
    validates its solving batch whole and stops, so the pairs it
    validates past the solving alpha total at most `batch_pairs`.
    """

    def __init__(
        self,
        tables: Sequence[QuarterTable],
        target: int,
        window_pairs: int | None = None,
    ):
        ta, tb, tc, td = tables
        self.tables = tuple(tables)
        self.target = int(target)
        self.window_pairs = window_pairs or sum(t.size for t in tables)
        self.batch_pairs = max(self.window_pairs, BATCH_PAIRS)
        self._left = _SumsetSide(ta, tb)
        self._right = _SumsetSide(tc, td)
        max_left = int(ta.weights.max()) + int(tb.weights.max())
        max_right = int(tc.weights.max()) + int(td.weights.max())
        self._lo = max(0, self.target - max_right)
        self._end = min(self.target, max_left)
        self._width = self._end - self._lo + 1
        self._lcount = self._left.count_le(self._lo - 1)
        self._rcount = self._right.count_le(self.target - self._lo)
        self._l_total, self._r_total = int(self._lcount.sum()), int(self._rcount.sum())
        self._pending: deque[CandidateBatch] = deque()
        # wide windows' survivors not yet matched: per window, each
        # side's (sum - _buffer_lo, x, y); the windows span
        # _buffer_lo.._buffer_hi, and `_buffered` counts the survivors
        # per side
        self._buffer: list[tuple[np.ndarray, ...]] = []
        self._buffer_lo = self._buffer_hi = 0
        self._buffered = (0, 0)
        self.peak_window_pairs = 0
        self.windows = 0
        self.exhausted = False

    def next_batch(
        self, should_stop: Callable[[], bool] | None = None
    ) -> CandidateBatch | None:
        """Next batch of alpha intervals, or None once exhausted.
        `should_stop` (a callable) is polled before each window; once it
        returns true, the call returns None and leaves `exhausted`
        False."""
        while not self._pending:
            if self._lo <= self._end:
                if should_stop is not None and should_stop():
                    return None
                self._sweep_window()
            elif self._buffer:
                self._flush()
            else:
                self.exhausted = True
                return None
        return self._pending.popleft()

    def _probe(self, hi: int) -> tuple[int, np.ndarray, np.ndarray, int, int]:
        """(pairs held, the frontiers and their totals) for window end hi."""
        lcount = self._left.count_le(hi)
        rcount = self._right.count_le(self.target - hi - 1)
        l_total, r_total = int(lcount.sum()), int(rcount.sum())
        held = max(l_total - self._l_total, self._r_total - r_total)
        return held, lcount, rcount, l_total, r_total

    def _cut(self) -> tuple[int, tuple[int, np.ndarray, np.ndarray, int, int]]:
        """A window end hi >= lo whose sides hold at most `window_pairs`
        pairs, aiming for more than half that, with hi - lo < 2^(64 -
        window_pairs.bit_length()) so its packed keys are exact.  Starts
        from the last window's width; doubles, then bisects."""
        lo, cap = self._lo, self.window_pairs
        end = min(self._end, lo + (1 << (64 - cap.bit_length())) - 1)
        low, probe = lo - 1, None  # largest end known to fit
        high = None  # smallest end known not to fit
        hi = min(lo + self._width - 1, end)
        while True:
            cand = self._probe(hi)
            if cand[0] <= cap:
                low, probe = hi, cand
                if hi == end or 2 * cand[0] > cap:
                    break
                hi = min(2 * hi - lo + 1, end) if high is None else (hi + high) // 2
            elif hi == lo:  # one alpha over a cap below min(|uA|, |uB|)
                low, probe = hi, cand
                break
            else:
                high = hi
                hi = (low + high) // 2
            if hi == low:
                break
        self._width = low - lo + 1
        return low, probe

    def _sweep_window(self) -> None:
        """Cut the next window and filter its sums: cut a narrow window
        into interval batches at once, buffer a wide one's survivors
        (matching the buffer first if they would overflow it)."""
        hi, (held, lcount, rcount, l_total, r_total) = self._cut()
        self.windows += 1
        self.peak_window_pairs = max(self.peak_window_pairs, held)
        lo, l_lo, r_hi = self._lo, self._lcount, self._rcount
        self._lo, self._lcount, self._rcount = hi + 1, lcount, rcount
        self._l_total, self._r_total = l_total, r_total
        l_val, l_x, l_y = self._left.sums(l_lo, lcount)
        r_val, r_x, r_y = self._right.sums(rcount, r_hi)
        l_val -= np.uint64(lo)
        np.subtract(np.uint64(self.target - lo), r_val, out=r_val)
        cap = self.window_pairs
        if hi - lo < cap:  # narrow: each alpha's pairs counted exactly
            counts = (
                self._left.pair_counts(l_val, l_x, l_y, hi - lo + 1),
                self._right.pair_counts(r_val, r_x, r_y, hi - lo + 1),
            )
            common = np.flatnonzero((counts[0] > 0) & (counts[1] > 0))
            if len(common):
                if self._buffer:
                    self._flush()
                self._intervals(lo, hi, (l_lo, lcount, rcount, r_hi), counts, common)
            return
        # only sums whose low bits the other side also holds can match
        l_pos, r_pos = _bitmap_survivors(l_val, r_val)
        if not len(l_pos):
            return
        n_left, n_right = self._buffered
        if self._buffer and (
            max(n_left + len(l_pos), n_right + len(r_pos)) > cap
            or hi - self._buffer_lo >= 1 << (64 - cap.bit_length())
        ):
            self._flush()
            n_left = n_right = 0
        if not self._buffer:
            self._buffer_lo = lo
        l_val, r_val = l_val[l_pos], r_val[r_pos]
        if lo > self._buffer_lo:  # as offsets from the buffer's first lo
            shift = np.uint64(lo - self._buffer_lo)
            l_val += shift
            r_val += shift
        self._buffer.append((l_val, l_x[l_pos], l_y[l_pos], r_val, r_x[r_pos], r_y[r_pos]))
        self._buffered = (n_left + len(l_pos), n_right + len(r_pos))
        self._buffer_hi = hi

    def _budget_cuts(self, before: np.ndarray, through: np.ndarray):
        """Cut alphas 0..n-1, ascending, into batches i..j-1: each the
        longest run whose pairs, through[j - 1] - before[i], are at most
        `batch_pairs`, or alpha i alone.  `before[i]` and `through[i]`
        are the running pair totals before and through alpha i's span."""
        n, i = len(before), 0
        while i < n:
            j = int(through.searchsorted(before[i] + self.batch_pairs, side="right"))
            j = max(j, i + 1)
            yield i, j
            i = j

    def _intervals(
        self, lo: int, hi: int, frontiers: tuple, counts: tuple, common: np.ndarray
    ) -> None:
        """Cut a narrow window [lo, hi] into interval batches, its common
        alphas cut by `_budget_cuts` over the pairs of their spans.
        `counts` holds each side's pairs per alpha - lo, `common` the
        alphas - lo both hold, ascending; each interval's blocks come from
        the frontiers at its ends, of which `frontiers` holds the window's
        (left at lo - 1 and hi, right at d_1 - hi - 1 and d_1 - lo)."""
        total = _offsets(counts[0] + counts[1])
        l_count, r_count = (c[common] for c in counts)
        alphas = common.astype(np.uint64) + np.uint64(lo)
        target = self.target
        l_lo, l_hi, r_lo, r_hi = frontiers
        # per side, the frontiers known so far, by value
        known = {self._left: {lo - 1: l_lo, hi: l_hi},
                 self._right: {target - hi - 1: r_lo, target - lo: r_hi}}

        def blocks(side: _SumsetSide, v0: int, v1: int) -> RunBlocks:
            """The pairs with v0 < sum <= v1 as blocks."""
            for v in (v0, v1):
                if v not in known[side]:
                    known[side][v] = side.count_le(v)
            return side.blocks(known[side][v0], known[side][v1])

        for i, j in self._budget_cuts(total[common], total[common + 1]):
            a0, a1 = int(alphas[i]), int(alphas[j - 1])
            left_blocks = blocks(self._left, a0 - 1, a1)
            right_blocks = blocks(self._right, target - a1 - 1, target - a0)
            self._pending.append(CandidateBatch(
                target, alphas[i:j], left_blocks, right_blocks,
                np.array([0, len(left_blocks.inner_start)], dtype=np.int64),
                np.array([0, len(right_blocks.inner_start)], dtype=np.int64),
                np.array([0, j - i], dtype=np.int64), l_count[i:j], r_count[i:j],
            ))

    def _flush(self) -> None:
        """Match the buffer of wide windows' survivors and cut its alphas
        (`_budget_cuts`) into batches of one-alpha intervals: one part per
        side, the buffered windows' (sum - _buffer_lo, x, y) joined."""
        parts, self._buffer, self._buffered = self._buffer, [], (0, 0)
        lo, hi = self._buffer_lo, self._buffer_hi
        l_key, l_x, l_y, r_key, r_x, r_y = (
            c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*parts)
        )
        del parts
        # one plain sort of each side's keys ((sum - lo) << s) | position
        # (the sums become the keys in place): the alphas are the values
        # both share, each one's positions a range
        s = max(len(l_x), len(r_x)).bit_length()
        assert hi - lo < 1 << (64 - s), "window too wide for its packed keys"
        for key in (l_key, r_key):
            key <<= np.uint64(s)
            key |= np.arange(len(key), dtype=np.uint64)
            key.sort()
        l_sum, r_alpha = l_key >> np.uint64(s), r_key >> np.uint64(s)
        common = _shared_values(l_sum, r_alpha)
        if not len(common):
            return
        # one side at a time, dropping each side's keys once used, so the
        # window's peak memory stays near that of its pairs
        left, l_at, l_pairs = self._left.select(l_key, l_sum, s, l_x, l_y, common)
        del l_key, l_sum, l_x, l_y
        right, r_at, r_pairs = self._right.select(r_key, r_alpha, s, r_x, r_y, common)
        del r_key, r_alpha, r_x, r_y
        common += np.uint64(lo)
        total = _offsets(l_pairs + r_pairs)
        for i, j in self._budget_cuts(total[:-1], total[1:]):
            lb, le, rb, re = l_at[i], l_at[j], r_at[i], r_at[j]
            self._pending.append(CandidateBatch(
                self.target, common[i:j],
                RunBlocks(*(f[lb:le] for f in left)),
                RunBlocks(*(f[rb:re] for f in right)),
                l_at[i : j + 1] - lb, r_at[i : j + 1] - rb,
                np.arange(j - i + 1), l_pairs[i:j], r_pairs[i:j],
            ))


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
