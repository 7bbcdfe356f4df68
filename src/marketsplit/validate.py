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
HA[a] + HB[b] and a right pair to h(d) - HC[c] - HD[d'].  Nor are the
index pairs: a batch side is a list of run blocks (`RunBlocks`), each
row of which is one fixed entry (B or D) with a contiguous run of inner
entries (A or C).  A row's pair hashes are an outer sum, the fixed
entry's hash repeated plus a contiguous slice of the inner table's
hashes, so a chunk is hashed row by row straight from the blocks, and
only hash hits are mapped back to index pairs.  A right pair that
overshoots d in some coordinate wraps below zero; it simply hashes as
that wrapped vector, which no left residual can equal, so no filtering
pass is needed.

Coordinate 0 of every residual must equal the pair's alpha.  It is
checked once per block, not per pair, by one rule for every block: its
fixed range must lie inside one equal-weight run of its table, its inner
range inside its table, and the weights of its first and last pairs
(left: the weight; right: d_1 minus it) in the block's alpha interval.
Inner weights are monotone along a block, so then every pair's does;
for a one-alpha interval this says every pair has that alpha.  The
blocks of a chunk are checked before the chunk is first joined, so the
check's temporaries scale with the chunk, not with the batch.

`join_hashes` finds the equal-hash pairs.  It first runs the two-way
bitmap filter it shares with the enumerator's window sweep
(`enumerate1d._bitmap_survivors`): the low `bits` of the smaller
side's hashes are marked in a byte bitmap, the larger side's hashes
that land on a mark survive, and their marks in turn filter the smaller
side.  One sort of both sides' survivors then settles it: no repeated
value (almost always) means no shared hash, and only if one repeats are
the survivors paired by exact value.  `bits` comes from the batch:
bit_length of the smaller side plus 3, clamped to [10, 24], so the
bitmap holds at least eight slots per marked hash and never exceeds
16 MiB.  Hash equality is never trusted: every hit is confirmed by
exact residual comparison and a full re-verification of the assembled
solution, so the hash affects speed only.

A chunk pair whose larger side holds more than 2 * `PIECE` pairs is
joined streamed (`ParallelBackend.join_chunks`): the smaller side is
hashed whole and marked in the bitmap as above, then the larger side is
hashed, masked and filtered `PIECE` pairs at a time, in buffers that
each validator reuses for a whole solve (`JoinScratch`), and only its
survivors' positions and hashes are kept; the second filter pass and
the sort run on those.  The result is that of the whole-array join, in
the same order.  A piece's arrays fit a core's L2 cache, and no array
the length of the larger side is allocated, so there is no large heap
top for the allocator to return to the system after one call and fault
back in on the next.  Every other chunk pair is joined as above, its
left side hashed first.  A left chunk that meets several right chunks
is hashed once, whole, before them (and is the streamed side of none),
so either way a left pair is hashed once per left chunk and a right
pair once per left chunk it meets.

Backend "parallel" is the production path; "serial" is the pure-Python
reference, which hashes built residuals and joins by sort and bisection.
Oversized batches are cut into chunk pairs to respect a memory budget;
chunking never changes the result set because the pair product is
partitioned disjointly.

A batch carries the candidates of many consecutive alphas, up to the
enumerator's pair budget (see `CandidateBatch` and `SumsetEnumerator`):
a group of one-alpha intervals, or one wide interval whose rows run
over several alphas, including alphas that only one side holds.  It is
validated by the same joins as one alpha: the hash covers coordinate
0, which is alpha on both sides, so pairs of different alphas can only
collide, and the exact confirmation rejects any such hit.  A left chunk
is joined only with the right pairs of the intervals it holds, and each
interval owns whole blocks (the batch's block offsets), so the
per-block check sees every pair with its own interval.  A wide interval
whose left side needs several chunks is split per alpha first
(`CandidateBatch.split`, its blocks checked whole before), or each left
chunk would meet every right pair of the interval.  One call then pays
the fixed cost of hashing and joining once for the whole batch instead
of once per alpha, and its solutions are returned stably sorted by
alpha, so within an alpha they keep the per-alpha order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .enumerate1d import (
    CandidateBatch,
    QuarterTable,
    RunBlocks,
    _bitmap_marks,
    _bitmap_survivors,
    _ranges,
    assemble_solution,
    encode_batch,
    encode_vector,
    permuted_rhs,
)
from .instances import MspInstance, SolutionVector, verify_solution

DEFAULT_MEMORY_BUDGET = 512 * 2**20

#: Pairs per piece of a streamed chunk pair's larger side (see the
#: module docstring): a piece's 8-byte arrays take 256 KiB, well inside a
#: core's 2 MiB L2.  Measured on (6,50,100) against 2^14 and 2^16; the
#: numbers are in CHANGES.md.
PIECE = 1 << 15


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
        ResidualSet(vectors=left, pairs=left_pairs),
        ResidualSet(
            vectors=right,
            pairs=right_pairs[keep],
            n_filtered=int(len(keep) - keep.sum()),
        ),
    )


def join_hashes(
    left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with left[i] == right[j], ordered by j, then i.

    The shared bitmap filter, then one sort of the survivors: see the
    module docstring.  Inputs are uint64 arrays; outputs aligned int64
    indices.
    """
    left_idx, right_idx = _bitmap_survivors(left, right)
    if not len(left_idx):
        return left_idx, right_idx
    return _equal_pairs(left, left_idx, right, right_idx)


def _streamed_join(
    small: np.ndarray,
    n_big: int,
    hash_piece: Callable[..., np.ndarray],
    small_is_left: bool,
    scratch: "JoinScratch",
) -> tuple[np.ndarray, np.ndarray]:
    """`join_hashes` of `small` and a larger side of `n_big` hashes that
    is hashed and filtered `PIECE` at a time: `hash_piece(lo, hi, out,
    arange)` returns its hashes lo..hi-1, written into `out` (see
    `RunBlocks.sums`).  Only the survivors' positions and hashes are kept
    of that side; the filter and the tail are `join_hashes`' own, so the
    result is the same, in the same order."""
    bitmap, mask, small_slots = _bitmap_marks(small)
    hashes, slots, gathered, arange = scratch.buffers()
    pos, kept = [], []
    for lo in range(0, n_big, PIECE):
        h = hash_piece(lo, min(lo + PIECE, n_big), hashes, arange)
        n = len(h)
        # slots are masked into the bitmap, so clipping moves none
        on = np.take(
            bitmap, np.bitwise_and(h, mask, out=slots[:n]).view(np.int64),
            out=gathered[:n], mode="clip",
        )
        idx = on.view(np.bool_).nonzero()[0]
        if len(idx):
            kept.append(h[idx])
            idx += lo
            pos.append(idx)
    if not pos:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    big_h = np.concatenate(kept)
    del kept
    big_idx = np.concatenate(pos)
    del pos
    bitmap[(big_h & mask).view(np.int64)] = 2
    small_idx = (bitmap[small_slots] == 2).nonzero()[0]
    del bitmap, small_slots
    # the tail sees the larger side as its survivors' hashes
    local = np.arange(len(big_h))
    if small_is_left:
        left_idx, right_idx = _equal_pairs(small, small_idx, big_h, local)
        return left_idx, big_idx[right_idx]
    left_idx, right_idx = _equal_pairs(big_h, local, small, small_idx)
    return big_idx[left_idx], right_idx


def _equal_pairs(
    left: np.ndarray, left_idx: np.ndarray, right: np.ndarray, right_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of ascending positions `left_idx` x `right_idx`
    (neither empty) with left[i] == right[j], ordered by j, then i: the
    one-sort tail of `join_hashes` on the bitmap filter's survivors."""
    # one sort of both sides' survivors: no repeat, no hit (the usual case)
    both = np.empty(len(left_idx) + len(right_idx), dtype=np.uint64)
    both[: len(left_idx)] = left[left_idx]
    both[len(left_idx) :] = right[right_idx]
    both.sort()
    if not (both[1:] == both[:-1]).any():
        return left_idx[:0], right_idx[:0]
    del both

    # Pair them up in (right, left) order.
    left_idx = left_idx[np.argsort(left[left_idx], kind="stable")]
    sorted_h, right_h = left[left_idx], right[right_idx]
    lo = np.searchsorted(sorted_h, right_h, side="left")
    counts = np.searchsorted(sorted_h, right_h, side="right")
    counts -= lo
    del sorted_h, right_h
    # Hit t of right survivor k sits at sorted position lo[k] + t.
    return left_idx[_ranges(lo, counts)], np.repeat(right_idx, counts)


class SerialBackend:
    """Pure-Python reference implementation; the conformance oracle.

    It hashes residual vectors built from the tables one by one, never
    the tables' precomputed hash columns, and joins by sort and
    bisection.
    """

    name = "serial"

    def encode(self, vectors: np.ndarray) -> EncodedSet:
        hashes = np.array(
            [encode_vector(row) for row in vectors.tolist()], dtype=np.uint64
        )
        return EncodedSet(hashes=hashes)

    def rhs(self, d: np.ndarray) -> np.ndarray:
        """The right-hand side as `right_hashes` takes it: d itself."""
        return d

    def left_hashes(self, tables, side: RunBlocks, lo: int, hi: int) -> np.ndarray:
        return self.encode(_left_vectors(side[lo:hi], tables)).hashes

    def right_hashes(
        self, tables, side: RunBlocks, lo: int, hi: int, rhs: np.ndarray
    ) -> np.ndarray:
        # uint64 wrap-around is intended: h(v mod 2^64) == h(v) mod 2^64
        return self.encode(rhs - _right_sums(side[lo:hi], tables)).hashes

    def join_chunks(
        self, tables, left: RunBlocks, l_span, right: RunBlocks, r_span, rhs,
        scratch: "JoinScratch", left_h: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """`join` of one chunk pair's hashes, as `ParallelBackend`'s, but
        always of whole sides; `scratch` goes unused."""
        if left_h is None:
            left_h = self.left_hashes(tables, left, *l_span)
        return self.join(left_h, self.right_hashes(tables, right, *r_span, rhs))

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


class ParallelBackend:
    """Production implementation: numpy-vectorized hashing and join.

    Pair hashes are summed straight from the run blocks and the tables'
    precomputed hash columns (`RunBlocks.sums`); the right-hand side
    enters only as its hash h(d), taken once per `validate_chunked` call
    (`rhs`).  A chunk pair with a side over 2 * `PIECE` pairs is joined
    streamed (`join_chunks`, see the module docstring).
    """

    name = "parallel"

    def encode(self, vectors: np.ndarray) -> EncodedSet:
        return EncodedSet(hashes=encode_batch(vectors))

    def rhs(self, d: np.ndarray) -> np.uint64:
        """The right-hand side as `right_hashes` takes it: h(d)."""
        return np.uint64(encode_vector(d.tolist()))

    def left_hashes(
        self, tables, side: RunBlocks, lo: int, hi: int, out=None, arange=None
    ) -> np.ndarray:
        """Hashes of left pairs lo..hi-1 (into `out`: see `RunBlocks.sums`)."""
        return side.sums(tables[0].hashes, tables[1].hashes, lo, hi, out, arange)

    def right_hashes(
        self, tables, side: RunBlocks, lo: int, hi: int, rhs: np.uint64,
        out=None, arange=None,
    ) -> np.ndarray:
        """Hashes of right pairs lo..hi-1 (into `out`, as `left_hashes`)."""
        sums = side.sums(tables[2].hashes, tables[3].hashes, lo, hi, out, arange)
        return np.subtract(rhs, sums, out=sums)

    join = staticmethod(join_hashes)

    def join_chunks(
        self, tables, left: RunBlocks, l_span, right: RunBlocks, r_span, rhs,
        scratch: "JoinScratch", left_h: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """`join` of the hashes of left pairs l_span = (lo, hi) and right
        pairs r_span, as positions in the spans; `left_h`, if given, holds
        the left span's hashes.  A larger side of more than 2 * `PIECE`
        pairs that is not given hashed is streamed through `scratch` (see
        the module docstring); each pair is hashed once either way."""
        (l_lo, l_hi), (r_lo, r_hi) = l_span, r_span
        n_left, n_right = l_hi - l_lo, r_hi - r_lo
        if left_h is None and n_left > max(n_right, 2 * PIECE):
            return _streamed_join(
                self.right_hashes(tables, right, r_lo, r_hi, rhs), n_left,
                lambda lo, hi, out, arange: self.left_hashes(
                    tables, left, l_lo + lo, l_lo + hi, out, arange
                ),
                False, scratch,
            )
        if left_h is None:
            left_h = self.left_hashes(tables, left, l_lo, l_hi)
        if n_right >= n_left and n_right > 2 * PIECE:
            return _streamed_join(
                left_h, n_right,
                lambda lo, hi, out, arange: self.right_hashes(
                    tables, right, r_lo + lo, r_lo + hi, rhs, out, arange
                ),
                True, scratch,
            )
        return join_hashes(left_h, self.right_hashes(tables, right, r_lo, r_hi, rhs))


class JoinScratch:
    """One validator's reused buffers for streamed chunk pairs, kept for
    one solve: a piece's hashes and slots, the bitmap bytes gathered for
    it and the `np.arange` that `_ranges` adds, `PIECE` entries each.
    They are allocated by the first streamed chunk pair, so a solve that
    streams none holds none."""

    def __init__(self):
        self._buffers: tuple[np.ndarray, ...] | None = None

    def buffers(self) -> tuple[np.ndarray, ...]:
        """(hashes, slots, gathered marks, arange)."""
        if self._buffers is None:
            # one allocation, not four: a large one glibc can map apart
            # from the heap and its short-lived join arrays; in a bare
            # (6,50,100) solve loop four took 4-10k minor faults per
            # pass, one about 900
            block = np.empty(25 * PIECE, dtype=np.uint8)
            hashes, slots, arange = (
                block[8 * PIECE * k : 8 * PIECE * (k + 1)].view(np.uint64) for k in range(3)
            )
            arange = arange.view(np.int64)
            arange[:] = np.arange(PIECE)
            self._buffers = hashes, slots, block[24 * PIECE :], arange
        return self._buffers


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
) -> tuple[list[SolutionVector], list[int]]:
    """Solutions among hash hits (A, B index rows `ab` aligned with C, D
    rows `cd`) whose left residual equals d minus the right sum, and
    their alphas.

    The sum of all four contributions is at most the row sum, so
    comparing it with d cannot wrap.
    """
    exact = (_left_vectors(ab, tables) + _right_sums(cd, tables) == d).all(axis=1)
    ab = ab[exact]
    alphas = tables[0].weights[ab[:, 0]] + tables[1].weights[ab[:, 1]]
    quads = np.hstack([ab, cd[exact]])
    return _verified_solutions(inst, tables, quads), alphas.tolist()


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
    left_idx, right_idx = backend.join(
        backend.encode(left.vectors).hashes, backend.encode(right.vectors).hashes
    )
    exact = (left.vectors[left_idx] == right.vectors[right_idx]).all(axis=1)
    quads = np.hstack([left.pairs[left_idx[exact]], right.pairs[right_idx[exact]]])
    solutions = _verified_solutions(inst, tables, quads)
    if stats is not None:
        stats.hash_hits += len(left_idx)
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
    scratch: JoinScratch | None = None,
) -> list[SolutionVector]:
    """Match a batch in (left chunk, right chunk) pieces of <= chunk_pairs.

    The union over chunk pairs equals one unchunked match; partitioning
    the pair product disjointly makes duplicates impossible.  Each chunk
    is hashed straight from the batch's run blocks; only hash hits become
    index pairs, for the exact confirmation.  When `should_stop` fires
    the remaining chunk pairs are abandoned, and the caller must treat
    the batch as unfinished.  Each chunk pair is joined by the backend's
    `join_chunks`; a left chunk that meets several right chunks is hashed
    once before them.  `scratch` holds the buffers of streamed chunk
    pairs (see the module docstring); one is made for the call when none
    is given, and each of `solve`'s validators passes its own.

    Each alpha interval owns the blocks between its block offsets, at
    least one per side, and every block is checked against its interval
    before its chunk is first joined, left before right (see
    `_BlockCheck`).  A batch of several intervals is joined as a whole
    (see the module docstring): a left chunk meets only the right pairs
    of its own intervals, cut into chunks from the first of them.
    Solutions are returned stably sorted by alpha, in chunk-pair order
    and (right, left) order within a chunk pair otherwise.
    """
    if chunk_pairs < 1:
        raise ValueError(f"chunk_pairs must be >= 1, got {chunk_pairs}")
    backend = backend or ParallelBackend()
    stats = stats or ValidationStats()
    scratch = scratch or JoinScratch()
    if d is None:
        d = permuted_rhs(inst, tables)
    d = np.ascontiguousarray(d, dtype=np.uint64)
    l_check, r_check = _BlockCheck.of(batch, tables, d)
    if batch.n_left > chunk_pairs and len(batch.alpha_at) <= len(batch.alphas):
        # each left chunk of a wide interval would meet all its right
        # pairs: its blocks are checked whole, then split per alpha, so
        # that a chunk meets only its own alphas'
        l_check(0, batch.n_left)
        r_check(0, batch.n_right)
        batch = batch.split(tables)
        l_check, r_check = _BlockCheck.of(batch, tables, d)
    left, right = batch.left_pairs, batch.right_pairs
    _, _, l_edges, r_edges = batch.spans
    n_left = int(l_edges[-1])
    rhs = backend.rhs(d)
    stats.calls += 1

    solutions: list[SolutionVector] = []
    alphas: list[int] = []
    right_done = 0  # right pairs before this were checked and counted
    for ls in range(0, n_left, chunk_pairs):
        l_end = min(ls + chunk_pairs, n_left)
        l_check(ls, l_end)
        stats.candidates_left += l_end - ls
        # only the right pairs of this chunk's intervals
        r_lo, r_hi = _partner_range(l_edges, r_edges, ls, l_end)
        # a left chunk that meets several right chunks is hashed once, whole
        left_h = None
        if r_hi - r_lo > chunk_pairs:
            left_h = backend.left_hashes(tables, left, ls, l_end)
        for rs in range(r_lo, r_hi, chunk_pairs):
            if should_stop is not None and should_stop():
                return _by_alpha(solutions, alphas)
            r_end = min(rs + chunk_pairs, r_hi)
            # right pairs are checked once they partner a checked left chunk
            if r_end > right_done:
                r_check(max(rs, right_done), r_end)
                stats.candidates_right += r_end - max(rs, right_done)
                right_done = r_end
            li, ri = backend.join_chunks(
                tables, left, (ls, l_end), right, (rs, r_end), rhs, scratch, left_h
            )
            if not len(li):
                continue
            found, found_alphas = _confirm_exact(
                left.pairs_at(li + ls), right.pairs_at(ri + rs), tables, inst, d
            )
            stats.hash_hits += len(li)
            stats.exact_hits += len(found)
            solutions.extend(found)
            alphas.extend(found_alphas)
    return _by_alpha(solutions, alphas)


def _by_alpha(solutions: list[SolutionVector], alphas: list[int]) -> list[SolutionVector]:
    """`solutions` stably sorted by their alphas."""
    order = sorted(range(len(solutions)), key=alphas.__getitem__)
    return [solutions[i] for i in order]


class _BlockCheck:
    """Asserts that every pair of one batch side lies in its alpha
    interval (see the module docstring), for the blocks of one pair range
    at a time.  `at` holds the intervals' block offsets: interval k owns
    blocks at[k]..at[k+1]-1 and spans the alphas lows[k]..highs[k]."""

    def __init__(self, side, t_in, t_fx, lows, highs, at, name: str, d0=None):
        self.side, self.t_in, self.t_fx = side, t_in, t_fx
        self.lows, self.highs, self.at = lows, highs, at
        self.name, self.d0 = name, d0

    @classmethod
    def of(cls, batch: CandidateBatch, tables, d: np.ndarray) -> tuple["_BlockCheck", ...]:
        """The checks of a batch's left and right sides."""
        lows, highs, _, _ = batch.spans
        return (
            cls(batch.left_pairs, tables[0], tables[1], lows, highs, batch.left_at, "left"),
            cls(batch.right_pairs, tables[2], tables[3], lows, highs, batch.right_at,
                "right", d[0]),
        )

    def __call__(self, lo: int, hi: int) -> None:
        """Check the blocks holding pairs lo..hi-1."""
        if hi <= lo:
            return
        side, t_in, t_fx, name, at = self.side, self.t_in, self.t_fx, self.name, self.at
        b0, b1 = side.block_range(lo, hi)
        s0, f0 = side.inner_start[b0:b1], side.fixed_start[b0:b1]
        if not (f0 + side.fixed_len[b0:b1] <= t_fx.run_end[f0]).all():
            raise AssertionError(f"{name} run block crosses an equal-weight fixed run")
        # the bounds of blocks b0..b1-1, one per block (one array for
        # both if every interval has one alpha)
        low, high = self.lows, self.highs
        if len(low) > 1:
            k0 = int(at.searchsorted(b0, side="right")) - 1
            k1 = int(at.searchsorted(b1))
            blocks = np.diff(np.clip(at[k0 : k1 + 1], b0, b1))
            low = low[k0:k1].repeat(blocks)
            high = low if self.highs is self.lows else high[k0:k1].repeat(blocks)
            del blocks
        end = s0 + side.inner_len[b0:b1]
        if not (end <= t_in.size).all():
            raise AssertionError(f"{name} run block runs past its inner table")
        end -= 1
        # inner weights are monotone along a block, so the weights of its
        # first and last pairs bound those of all its pairs; the fixed
        # weights are gathered once, and the last pairs' inner indices
        # dropped once used
        weight = t_fx.weights[f0]
        last = t_in.weights[end]
        del end
        last += weight
        self._within(last, low, high)
        del last
        weight += t_in.weights[s0]
        self._within(weight, low, high)

    def _within(self, weight: np.ndarray, low, high) -> None:
        """Assert low <= alpha <= high for the pair weights `weight`
        (overwritten: on the right, alpha is d0 minus the weight)."""
        if self.d0 is not None:
            np.subtract(self.d0, weight, out=weight)
        if not ((low <= weight).all() and (weight <= high).all()):
            raise AssertionError(f"{self.name} run block weight lies outside its interval")


def _partner_range(
    l_edges: np.ndarray, r_edges: np.ndarray, lo: int, hi: int
) -> tuple[int, int]:
    """Right pairs [start, end) of the intervals that left pairs lo..hi-1
    hold (lo < hi), given each interval's pair edges on both sides: the
    pair offsets of its first block, which every interval has on each
    side."""
    k0 = int(l_edges.searchsorted(lo, side="right")) - 1
    k1 = int(l_edges.searchsorted(hi))
    return int(r_edges[k0]), int(r_edges[k1])


def default_chunk_pairs(m: int, budget_bytes: int = DEFAULT_MEMORY_BUDGET) -> int:
    """Largest chunk size whose chunk pair fits the budget.

    A chunk pair joined whole: per pair of a chunk, each side holds an
    8-byte hash and, in the bitmap filters, an 8-byte slot; the bitmap
    adds at most 16 bytes per pair of the smaller side (eight slots per
    marked hash, rounded up to a power of two), the larger side's
    survivor indices and the slots gathered to mark them 16 more: 64.
    With slots and bitmap released, the tail holds survivor indices
    (16), their hashes concatenated (16) with one side gathered (8), and
    the equality mask (2); pairing them when a value repeats, four
    8-byte arrays beside the indices: <= 64.  Hashing a side from its
    blocks briefly needs 16 more bytes per pair beside the hashes, which
    is less.

    A streamed chunk pair (see the module docstring) holds three parts.
    The side held whole, the smaller one, holds its hashes, slots and the
    bitmap: at most 32 bytes per pair.  A piece holds the validator's
    `JoinScratch`, 25 bytes per piece pair (800 KiB at `PIECE` = 2^15),
    and while it is hashed from its blocks about 32 bytes per piece pair
    more (its rows, if each row is one pair, and one gather): 57 *
    `PIECE` bytes (1.8 MiB) in all, whatever the chunk size.  The larger
    side's survivors hold a position and a hash, 16 bytes per pair,
    8 more while they are concatenated and their slots marked.  Random
    hashes keep about one pair in eight of the larger side; all of them
    survive only when hashes collide on purpose.  So the filter needs at
    most 56 bytes per pair of a chunk beside a piece; the 8 left over
    cover the piece once a chunk holds 7.125 * `PIECE` pairs (a 14.25
    MiB budget), and below that fall short of it by at most 41 * `PIECE`
    bytes (1.3 MiB).  The tail is the whole-array tail with the larger
    side's survivors' hashes in place of its hashes, and their positions
    held twice, in the side and among the survivors: 8 more bytes per
    pair of the larger side when all of them survive, 72 at worst.

    The per-block checks run on one chunk's blocks before the chunk is
    joined and need at most 32
    bytes per block, so per pair, of that chunk (the per-block lower
    bound, the last inner indices, the pair weights and a gathered fixed
    weight; the comparison masks come once the gather is freed); beside
    the left chunk's hashes that is also less.  This holds for a grouped
    batch, whose blocks may each be one pair, as for a batch of one
    alpha; a batch of several wide intervals (the sweep makes none)
    needs 8 more bytes per block for the upper bounds.  Not charged: the
    hash hits, whose number the solutions and collisions set, and the
    whole-batch check and split of a multi-alpha interval too large for
    one left chunk.  The check needs the same 32 bytes per block; the
    split needs about 41 bytes per inner entry of its blocks, and an
    entry holds at least one pair of a batch of at most the
    enumerator's pair budget: `BATCH_PAIRS` = 2^17 (so about 5 MiB), or
    from n = 60 on the window cap, the size of the sweep's own window
    arrays.  The sweep's blocks are one per fixed run, so an interval
    holds far fewer entries than pairs: the largest such interval among
    the first 500 batches of (6,50,100) s5, 105,396 left pairs in
    26,230 entries, splits in 0.81 MB (31 bytes per entry, 7.7 per left
    pair).  No m-vector is built per pair, so `m` does not enter; the
    reference path that does build them (`SerialBackend`) is not sized
    by this budget.
    """
    return max(1, budget_bytes // 64)
