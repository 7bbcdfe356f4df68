"""Quarter tables, run blocks, and the heap and sumset enumerators."""

from __future__ import annotations

import itertools
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsplit import enumerate1d
from marketsplit.enumerate1d import (
    PairSumEnumerator,
    RunBlocks,
    SumsetEnumerator,
    _bitmap_survivors,
    _packed_positions,
    _ranges,
    _run_ends,
    _runs,
    _shared_values,
    assemble_solution,
    build_quarter_tables,
    permuted_rhs,
)
from marketsplit.instances import (
    MspInstance,
    SplitMix64,
    generate_instance,
    surrogate_reduce,
)
from marketsplit.oracle import two_list_all
from marketsplit.solver import SolverConfig, solve

from conftest import batch_vectors, drain_all_batches, seeded_instance


class TestTables:
    def test_block_sizes(self):
        inst8 = seeded_instance(0, m=1, n=8, k=9)
        sizes = [len(t.var_indices) for t in build_quarter_tables(inst8)]
        assert sizes == [2, 2, 2, 2]
        inst10 = seeded_instance(0, m=1, n=10, k=9)
        sizes = [len(t.var_indices) for t in build_quarter_tables(inst10)]
        assert sizes == [3, 3, 2, 2]

    def test_peak_entries_n40(self):
        inst = seeded_instance(0, m=1, n=40, k=9)
        tables = build_quarter_tables(inst)
        assert sum(t.size for t in tables) == 4 * 2**10

    def test_small_block_weights(self):
        # first block coefficients 1, 2 -> subset sums 0,1,2,3 ascending
        inst = MspInstance([[1, 2, 5, 9, 17, 33, 65, 129]], [0])
        ta = build_quarter_tables(inst)[0]
        assert ta.weights.tolist() == [0, 1, 2, 3]
        assert ta.masks.tolist() == [0, 1, 2, 3]

    def test_sort_directions_and_tie_order(self):
        inst = MspInstance([[0, 0, 0, 0, 1, 2, 3, 4]], [5])
        tables = build_quarter_tables(inst)
        ta, tb, tc, td = tables
        # first two blocks are all zero coefficients: ties, masks ascending
        assert ta.weights.tolist() == [0, 0, 0, 0]
        assert ta.masks.tolist() == [0, 1, 2, 3]
        assert tb.weights.tolist() == [0, 0, 0, 0]
        assert tb.masks.tolist() == [0, 1, 2, 3]
        assert tc.weights.tolist() == [3, 2, 1, 0]
        assert td.weights.tolist() == [7, 4, 3, 0]
        # descending table ties also order masks ascending
        inst2 = MspInstance([[1, 2, 3, 4, 0, 0, 0, 0]], [5])
        tc2 = build_quarter_tables(inst2)[2]
        assert tc2.weights.tolist() == [0, 0, 0, 0]
        assert tc2.masks.tolist() == [0, 1, 2, 3]

    def test_entry_zero_of_each_direction(self):
        inst = seeded_instance(3, m=2, n=9, k=11)
        ta, tb, tc, td = build_quarter_tables(inst)
        for t in (ta, tb):
            assert t.ascending
            assert int(t.weights[0]) == 0 and int(t.masks[0]) == 0
            assert not t.contribs[0].any()
        for t in (tc, td):
            assert not t.ascending
            assert int(t.weights[0]) == int(t.weights.max())

    def test_contrib_row_zero_is_weight(self):
        inst = seeded_instance(4, m=3, n=10, k=13)
        for t in build_quarter_tables(inst):
            assert np.array_equal(t.contribs[:, 0], t.weights)

    def test_contribs_complete(self):
        inst = seeded_instance(5, m=2, n=8, k=7)
        a = inst.a.tolist()
        for t in build_quarter_tables(inst):
            for e in range(t.size):
                mask = int(t.masks[e])
                for ci, ri in enumerate(t.row_map):
                    expect = sum(
                        a[ri][col]
                        for bit, col in enumerate(t.var_indices)
                        if (mask >> bit) & 1
                    )
                    assert int(t.contribs[e, ci]) == expect

    def test_enumeration_row_choice(self):
        inst = seeded_instance(6, m=3, n=8, k=9)
        tables = build_quarter_tables(inst, row=1)
        assert tables[0].row_map == (1, 0, 2)
        row1 = inst.a.tolist()[1]
        ta = tables[0]
        assert int(ta.weights.max()) == sum(row1[col] for col in ta.var_indices)
        d_perm = permuted_rhs(inst, tables)
        assert d_perm.tolist() == [int(inst.d[1]), int(inst.d[0]), int(inst.d[2])]

    def test_n_too_small(self):
        with pytest.raises(ValueError, match="n >= 4"):
            build_quarter_tables(MspInstance([[1, 2, 3]], [3]))


class TestRunExtract:
    def test_synthetic_runs(self):
        assert _run_ends(np.array([0, 1, 1, 2], dtype=np.uint64)).tolist() == [
            1,
            3,
            3,
            4,
        ]
        assert _run_ends(np.array([5, 5, 5], dtype=np.uint64)).tolist() == [3, 3, 3]
        assert _run_ends(np.array([7], dtype=np.uint64)).tolist() == [1]

    def test_on_real_table(self):
        # block coefficients (1, 1): sums 0,1,1,2
        inst = MspInstance([[1, 1, 2, 3, 4, 5, 6, 7]], [4])
        ta = build_quarter_tables(inst)[0]
        assert ta.weights.tolist() == [0, 1, 1, 2]
        assert ta.run_end[0] == 1
        assert ta.run_end[1] == 3
        assert ta.run_end[3] == 4
        with pytest.raises(IndexError):
            ta.run_end[4]

    def test_on_descending_table(self):
        # third block coefficients (2, 2): descending sums 4,2,2,0
        inst = MspInstance([[9, 9, 9, 9, 2, 2, 5, 6]], [4])
        tc = build_quarter_tables(inst)[2]
        assert tc.weights.tolist() == [4, 2, 2, 0]
        assert tc.run_end[0] == 1
        assert tc.run_end[1] == 3
        assert tc.run_end[2] == 3
        assert tc.run_end[3] == 4


def assert_block_offsets(batch) -> None:
    """The batch invariant `validate_chunked` relies on: the common alphas
    strictly ascend, each with pairs on both sides; interval k holds the
    alphas alpha_at[k]..alpha_at[k+1]-1, at least one, and owns blocks
    at[k]..at[k+1]-1 of each side, at least one, the offsets covering
    every alpha and block; its blocks hold at least its alphas' pairs,
    and exactly those if it has one alpha."""
    alphas, alpha_at = batch.alphas, batch.alpha_at
    assert len(alphas) >= 1 and (alphas[1:] > alphas[:-1]).all()
    assert alpha_at[0] == 0 and alpha_at[-1] == len(alphas)
    assert (np.diff(alpha_at) >= 1).all()
    one = np.diff(alpha_at) == 1
    for at, side, counts in (
        (batch.left_at, batch.left_pairs, batch.left_counts),
        (batch.right_at, batch.right_pairs, batch.right_counts),
    ):
        assert len(at) == len(alpha_at) and at[0] == 0
        assert (np.diff(at) >= 1).all()
        assert at[-1] == len(side.inner_start)
        assert len(counts) == len(alphas) and (counts >= 1).all()
        held, counted = np.diff(side.starts[at]), np.add.reduceat(counts, alpha_at[:-1])
        assert (held >= counted).all() and (held[one] == counted[one]).all()


class TestEnumerator:
    def test_seeding(self):
        inst = seeded_instance(7, m=1, n=12, k=10)
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        assert enum.peak_h1 == tables[1].size
        assert enum.peak_h2 == tables[3].size
        alpha, beta = enum.heap_tops()
        assert alpha == 0  # empty set + empty set
        assert beta == int(tables[2].weights[0]) + int(tables[3].weights.max())

    def test_four_element_worked_example(self):
        inst = MspInstance([[1, 2, 3, 4]], [5])
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, 5)
        seen = set()
        for batch in drain_all_batches(enum):
            assert batch.alpha + batch.beta == 5
            seen |= batch_vectors(tables, batch)
        assert seen == {(1, 0, 0, 1), (0, 1, 1, 0)}

    def test_zero_target_single_pair(self):
        inst = MspInstance([[1, 2, 3, 4]], [0])
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, 0)
        batch = enum.next_batch()
        assert batch.n_left == 1 and batch.n_right == 1
        assert batch_vectors(tables, batch) == {(0, 0, 0, 0)}
        assert enum.next_batch() is None

    def test_parity_exhaustion(self):
        inst = MspInstance([[2, 2, 2, 2]], [3])
        enum = PairSumEnumerator(build_quarter_tables(inst), 3)
        assert enum.next_batch() is None
        assert enum.exhausted

    def test_completeness_and_uniqueness(self):
        for seed in range(40):
            n = 4 + seed % 13  # up to 16
            inst = seeded_instance(seed, m=1, n=n, k=9)
            target = int(inst.d[0])
            tables = build_quarter_tables(inst)
            enum = PairSumEnumerator(tables, target)
            emitted: list[tuple] = []
            for batch in drain_all_batches(enum):
                for a_idx, b_idx in batch.left_pairs[:]:
                    for c_idx, d_idx in batch.right_pairs[:]:
                        emitted.append(
                            assemble_solution(tables, a_idx, b_idx, c_idx, d_idx)
                        )
            # every quadruple exactly once
            assert len(emitted) == len(set(emitted)), seed
            expected = {
                tuple((mask >> j) & 1 for j in range(n))
                for mask in two_list_all(inst.a[0].tolist(), target)
            }
            assert set(emitted) == expected, seed

    def test_monotone_drain(self):
        inst = seeded_instance(11, m=1, n=14, k=8)
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        while True:
            batch = enum.next_batch()
            if batch is None:
                break
            alpha, beta = enum.heap_tops()
            if alpha is not None:
                assert alpha > batch.alpha
            if beta is not None:
                assert beta < batch.beta

    def test_batch_weight_identity(self):
        inst = seeded_instance(12, m=2, n=13, k=9)
        tables = build_quarter_tables(inst)
        ta, tb, tc, td = tables
        target = int(inst.d[0])
        enum = PairSumEnumerator(tables, target)
        for batch in iter(enum.next_batch, None):
            assert_block_offsets(batch)
            assert len(batch.alphas) == 1
            assert batch.alpha + batch.beta == target
            assert all(
                int(ta.weights[i]) + int(tb.weights[j]) == batch.alpha
                for i, j in batch.left_pairs[:]
            )
            assert all(
                int(tc.weights[k]) + int(td.weights[l]) == batch.beta
                for k, l in batch.right_pairs[:]
            )
            # no duplicate pairs within a side
            assert len({(int(i), int(j)) for i, j in batch.left_pairs[:]}) == batch.n_left
            assert (
                len({(int(k), int(l)) for k, l in batch.right_pairs[:]}) == batch.n_right
            )

    def test_heap_size_bounds(self):
        inst = seeded_instance(13, m=1, n=15, k=10)
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        lengths = []  # both heaps' lengths after every heap step

        def checked(step):
            def run():
                out = step()
                lengths.append((len(enum._h1), len(enum._h2)))
                return out
            return run

        enum._pop_left = checked(enum._pop_left)
        enum._pop_right = checked(enum._pop_right)
        drain_all_batches(enum)
        assert enum.exhausted and len(lengths) > 2
        assert all(
            h1 <= tables[1].size and h2 <= tables[3].size for h1, h2 in lengths
        )
        assert enum.peak_h1 <= tables[1].size
        assert enum.peak_h2 <= tables[3].size


class TestPythonHeapDetails:
    """Heap internals that only the reference enumerator has."""

    def test_one_entry_per_partner(self):
        inst = seeded_instance(14, m=1, n=12, k=7)
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        while True:
            # heap entries are (key, fixed index, run position) tuples
            h1, h2 = enum._h1, enum._h2
            assert len({fixed for _, fixed, _ in h1}) == len(h1)
            assert len({fixed for _, fixed, _ in h2}) == len(h2)
            for key, fixed, run in h1:
                assert key == int(tables[0].weights[run]) + int(
                    tables[1].weights[fixed]
                )
            if enum.next_batch() is None:
                break


def _expand_reference(fields) -> list[list[int]]:
    """Pairs of run-block fields, expanded one by one in t-major order."""
    inner_start, inner_len, fixed_start, fixed_len = (f.tolist() for f in fields)
    return [
        [inner_start[b] + s, fixed_start[b] + t]
        for b in range(len(inner_start))
        for t in range(fixed_len[b])
        for s in range(inner_len[b])
    ]


def _run_blocks(blocks) -> tuple[np.ndarray, ...]:
    return tuple(
        np.array([blk[i] for blk in blocks], dtype=np.int64) for i in range(4)
    )


class TestRunBlocks:
    @given(
        blocks=st.lists(
            st.tuples(
                st.integers(0, 40), st.integers(1, 5),
                st.integers(0, 40), st.integers(1, 4),
            ),
            max_size=6,
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_slices_equal_full_expansion(self, blocks, data):
        fields = _run_blocks(blocks)
        full = _expand_reference(fields)
        rb = RunBlocks(*fields)
        assert len(rb) == len(full)
        assert rb[:].tolist() == full
        for _ in range(5):
            lo = data.draw(st.integers(-3, len(full) + 3))
            hi = data.draw(st.integers(-3, len(full) + 3))
            got = rb[lo:hi]
            assert got.dtype == np.int64 and got.shape == (len(full[lo:hi]), 2)
            assert got.tolist() == full[lo:hi]
        # chunks of every size up to 4 tile the side, crossing each edge
        for size in range(1, 5):
            pieces = [rb[i : i + size] for i in range(0, len(full), size)]
            assert sum((p.tolist() for p in pieces), []) == full

    @given(
        blocks=st.lists(
            st.tuples(
                st.integers(0, 40), st.integers(1, 5),
                st.integers(0, 40), st.integers(1, 4),
            ),
            min_size=1,
            max_size=6,
        ),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_positions_sums_and_edges_match_expansion(self, blocks, data):
        rb = RunBlocks(*_run_blocks(blocks))
        full = rb[:]
        n = len(full)
        # flat positions back to pairs
        pos = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=12)), dtype=np.int64)
        got = rb.pairs_at(pos)
        assert got.dtype == np.int64 and got.shape == (len(pos), 2)
        assert got.tolist() == full[pos].tolist()
        # per-pair sums of a range, without expanding it
        rng = np.random.default_rng(n)
        inner_v = rng.integers(0, 2**64, size=50, dtype=np.uint64)
        fixed_v = rng.integers(0, 2**64, size=50, dtype=np.uint64)
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        expected = inner_v[full[lo:hi, 0]] + fixed_v[full[lo:hi, 1]]
        assert rb.sums(inner_v, fixed_v, lo, hi).tobytes() == expected.tobytes()
        # block offsets: each block's first pair offset, then the pair count
        starts = rb.starts
        assert starts.dtype == np.int64 and len(starts) == len(blocks) + 1
        assert starts[0] == 0 and (np.diff(starts) > 0).all() and starts[-1] == n
        firsts = [(i, f) for i, _, f, _ in blocks]
        assert rb.pairs_at(starts[:-1]).tolist() == [list(p) for p in firsts]

    def test_empty(self):
        rb = RunBlocks(*_run_blocks([]))
        assert len(rb) == 0
        assert rb[:].shape == (0, 2) and rb[:].dtype == np.int64
        rb = RunBlocks(*_run_blocks([(3, 2, 5, 2)]))
        assert rb[2:2].shape == (0, 2)
        assert rb[4:1].shape == (0, 2)

    def test_slices_only_and_iteration(self):
        rb = RunBlocks(*_run_blocks([(3, 2, 5, 2)]))
        with pytest.raises(TypeError):
            rb[0]
        with pytest.raises(TypeError):
            rb[::2]
        assert [list(p) for p in rb[:]] == _expand_reference(_run_blocks([(3, 2, 5, 2)]))


def batch_stream_of(batches) -> list[tuple]:
    return [
        (b.alpha, b.beta, b.left_pairs[:].tolist(), b.right_pairs[:].tolist())
        for b in batches
    ]


def batch_stream(enum) -> list[tuple]:
    return batch_stream_of(drain_all_batches(enum))


def _recording_survivors(monkeypatch) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Patch the sweep's filter to record, per call, both sides' sizes
    and the survivors kept on each."""
    calls = []
    survivors = enumerate1d._bitmap_survivors

    def recording(a, b):
        pa, pb = survivors(a, b)
        calls.append(((len(a), len(b)), (len(pa), len(pb))))
        return pa, pb

    monkeypatch.setattr(enumerate1d, "_bitmap_survivors", recording)
    return calls


def _recording_cut(monkeypatch) -> list[tuple[int, int, int]]:
    """Patch `SumsetEnumerator._cut` to record each window's (lo, hi,
    pairs held)."""
    windows = []
    cut = SumsetEnumerator._cut

    def recording_cut(self):
        hi, probe = cut(self)
        windows.append((self._lo, hi, probe[0]))
        return hi, probe

    monkeypatch.setattr(SumsetEnumerator, "_cut", recording_cut)
    return windows


def _recording_flush(monkeypatch) -> list[tuple[int, int, tuple[int, int], int]]:
    """Patch `SumsetEnumerator._flush` to record each buffer of gathered
    survivors it matches: its first lo, last hi, survivors per side and
    number of windows."""
    flushes = []
    flush = SumsetEnumerator._flush

    def recording_flush(self):
        lo, hi, parts = self._buffer_lo, self._buffer_hi, self._buffer
        flushes.append((lo, hi, self._buffered, len(parts)))
        flush(self)

    monkeypatch.setattr(SumsetEnumerator, "_flush", recording_flush)
    return flushes


def _recording_matches(patch) -> list[tuple[int, int, list, bool]]:
    """Patch `SumsetEnumerator._flush` and `_intervals` (through a
    `MonkeyPatch`) to record each match: its buffer's first lo and last
    hi, or its narrow window's lo and hi, the batches it emitted, and
    whether they are a narrow window's intervals."""
    matches = []
    flush, intervals = SumsetEnumerator._flush, SumsetEnumerator._intervals

    def recording_flush(self):
        lo, hi, before = self._buffer_lo, self._buffer_hi, len(self._pending)
        flush(self)
        matches.append((lo, hi, list(self._pending)[before:], False))

    def recording_intervals(self, lo, hi, *args):
        before = len(self._pending)
        intervals(self, lo, hi, *args)
        matches.append((lo, hi, list(self._pending)[before:], True))

    patch.setattr(SumsetEnumerator, "_flush", recording_flush)
    patch.setattr(SumsetEnumerator, "_intervals", recording_intervals)
    return matches


def _kept_sums(enum, lo: int, hi: int, batches) -> int:
    """The most distinct-weight pairs either side of window [lo, hi]
    holds whose sums are alphas of `batches`."""
    left, right, target = enum._left, enum._right, enum.target
    alphas = np.concatenate([b.alphas for b in batches])
    l_val = left.sums(left.count_le(lo - 1), left.count_le(hi))[0]
    r_val = right.sums(right.count_le(target - hi - 1), right.count_le(target - lo))[0]
    r_val = np.uint64(target) - r_val
    return max(int(np.isin(v, alphas).sum()) for v in (l_val, r_val))


def _wide_weight_instance(m: int, n: int, spread: str) -> MspInstance:
    """First-row weights near 2^58..2^60, with a planted solution: the
    alpha range is far wider than the packed keys' value range, so only
    the key clamp keeps them exact.  Clustered weights tie, so one alpha
    can hold several distinct-weight pairs per side."""
    rng = SplitMix64(1000 * n + m)
    if spread == "clustered":
        first = [(1 << 59) + rng.below(2) for _ in range(n)]
    else:
        first = [(1 << 58) + rng.below(3 << 58) for _ in range(n)]
    rows = [first] + [[rng.below(100) for _ in range(n)] for _ in range(m - 1)]
    # the planted solution: every other column
    return MspInstance(rows, [sum(row[::2]) for row in rows])


class TestSumsetEnumerator:
    """The production engine against the heap reference and the oracle."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        n=st.integers(4, 16),
        k=st.sampled_from([3, 4, 10, 100]),
        d_mode=st.sampled_from(["half", "random"]),
        reduce_rows=st.integers(1, 3),
        window=st.sampled_from([1, 7, 2**16, None]),
    )
    @settings(max_examples=150, deadline=None)
    def test_stream_equals_heap(self, seed, m, n, k, d_mode, reduce_rows, window):
        inst = seeded_instance(seed, m=m, n=n, k=k, d_mode=d_mode)
        if min(reduce_rows, m) > 1:
            inst = surrogate_reduce(inst, min(reduce_rows, m))
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        expected = batch_stream(PairSumEnumerator(tables, target))
        assert batch_stream(SumsetEnumerator(tables, target, window)) == expected

    @pytest.mark.parametrize("window", [1, 7, None])
    def test_completeness_and_uniqueness(self, window):
        for seed in range(40):
            n = 4 + seed % 13  # up to 16
            inst = seeded_instance(seed, m=1, n=n, k=3 + seed % 7)
            target = int(inst.d[0])
            tables = build_quarter_tables(inst)
            emitted = [
                assemble_solution(tables, *left, *right)
                for batch in drain_all_batches(SumsetEnumerator(tables, target, window))
                for left in batch.left_pairs[:].tolist()
                for right in batch.right_pairs[:].tolist()
            ]
            assert len(emitted) == len(set(emitted)), seed
            expected = {
                tuple((mask >> j) & 1 for j in range(n))
                for mask in two_list_all(inst.a[0].tolist(), target)
            }
            assert set(emitted) == expected, seed

    def test_window_pairs_bound(self):
        for seed in range(20):
            inst = seeded_instance(seed, m=2, n=8 + seed % 9, k=100)
            tables = build_quarter_tables(inst)
            enum = SumsetEnumerator(tables, int(inst.d[0]))
            drain_all_batches(enum)
            assert enum.exhausted
            assert 0 < enum.peak_window_pairs <= sum(t.size for t in tables)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [8, 13, 16])
    @pytest.mark.parametrize("spread", ["clustered", "uniform"])
    def test_packed_key_clamp(self, monkeypatch, m, n, spread):
        inst = _wide_weight_instance(m, n, spread)
        windows = []
        cut = SumsetEnumerator._cut

        def recording_cut(self):
            hi, probe = cut(self)
            windows.append((self._lo, hi, probe[0]))
            return hi, probe

        monkeypatch.setattr(SumsetEnumerator, "_cut", recording_cut)
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        expected = batch_stream(PairSumEnumerator(tables, target))
        assert expected
        for window in (None, 1):
            windows.clear()
            enum = SumsetEnumerator(tables, target, window)
            assert batch_stream(enum) == expected
            bound = 1 << (64 - enum.window_pairs.bit_length())
            widths = [hi - lo + 1 for lo, hi, _ in windows]
            assert max(widths) <= bound
            if window is None:  # the clamp binds
                assert max(widths) == bound
        if spread == "clustered":  # window 1: an alpha over the cap alone
            assert any(lo == hi and held > 1 for lo, hi, held in windows)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [8, 13, 16])
    @pytest.mark.parametrize("spread", ["clustered", "uniform"])
    def test_buffered_survivors_within_cap_and_clamp(self, monkeypatch, m, n, spread):
        # wide windows' survivors share one buffer only while their
        # packed keys, taken from the buffer's first lo, stay exact
        inst = _wide_weight_instance(m, n, spread)
        flushes = _recording_flush(monkeypatch)
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        expected = batch_stream(PairSumEnumerator(tables, target))
        for window in (None, 1):
            flushes.clear()
            enum = SumsetEnumerator(tables, target, window)
            assert batch_stream(enum) == expected
            bound = 1 << (64 - enum.window_pairs.bit_length())
            assert all(hi - lo < bound for lo, hi, _, _ in flushes)
            gathered = [b for _, _, b, _ in flushes]
            assert all(max(b) <= enum.window_pairs for b in gathered)
            if window is None and spread == "clustered":
                # several buffers, each far below the cap: the clamp, not
                # the size rule, split them
                assert len(gathered) > 1
                assert all(2 * max(b) <= enum.window_pairs for b in gathered)

    def test_buffer_holds_several_windows(self, monkeypatch):
        # a reduced n = 30 instance keeps few sums per window, so buffers
        # fill from several windows up to the cap on either side
        inst = surrogate_reduce(generate_instance(4, 100, 0), 4)
        flushes = _recording_flush(monkeypatch)
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        enum = SumsetEnumerator(tables, target)
        assert batch_stream(enum) == batch_stream(PairSumEnumerator(tables, target))
        assert max(n for *_, n in flushes) > 1
        for lo, hi, buffered, _ in flushes:
            assert lo <= hi
            assert max(buffered) <= enum.window_pairs
        # matched in sweep order: each buffer's alphas follow the last's
        assert all(a[1] < b[0] for a, b in zip(flushes, flushes[1:]))

    def test_stop_with_survivors_buffered(self):
        # a stop polled while survivors are buffered returns None and
        # keeps them; resumed calls give the unstopped stream
        inst = surrogate_reduce(generate_instance(4, 100, 0), 4)
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        expected = batch_stream(SumsetEnumerator(tables, target))
        enum = SumsetEnumerator(tables, target)
        polls = []

        def should_stop():
            # every other poll that finds survivors buffered
            polls.append(bool(enum._buffer))
            return polls[-1] and polls.count(True) % 2 == 1

        batches, stops = [], 0
        while (batch := enum.next_batch(should_stop)) is not None or not enum.exhausted:
            if batch is None:
                assert enum._buffer
                stops += 1
            else:
                batches.append(batch)
        assert stops > 1
        assert batch_stream_of(batches) == expected

    def test_no_common_alpha(self):
        # even first-row weights, odd d_1: windows hold pairs on both
        # sides but never a shared alpha
        rng = SplitMix64(21)
        rows = [[2 + 2 * rng.below(4999) for _ in range(24)] for _ in range(2)]
        inst = MspInstance(rows, [sum(rows[0]) // 2 | 1, sum(rows[1]) // 2])
        enum = SumsetEnumerator(build_quarter_tables(inst), int(inst.d[0]))
        assert enum.next_batch() is None and enum.exhausted
        assert enum.windows > 1 and enum.peak_window_pairs > 0

    @pytest.mark.parametrize("window", [None, 1, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_filter_passes_multiples_of_2_20(self, monkeypatch, seed, window):
        # every weight and d a multiple of 2^20: a window's sums minus lo
        # share their low 20 bits, more than the bitmap of these sides
        # uses, so every sum survives the filter (a window with one side
        # empty keeps nothing)
        base = seeded_instance(seed, m=2, n=12 + seed, k=100)
        shift = np.uint64(20)
        inst = MspInstance((base.a << shift).tolist(), (base.d << shift).tolist())
        calls = _recording_survivors(monkeypatch)
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        expected = batch_stream(PairSumEnumerator(tables, target))
        assert expected
        assert batch_stream(SumsetEnumerator(tables, target, window)) == expected
        both = [(sizes, kept) for sizes, kept in calls if min(sizes)]
        assert both and all(kept == sizes for sizes, kept in both)

    def test_false_positive_survivors_emit_nothing(self, monkeypatch):
        # first-row weights even multiples of 2^24, d_1 an odd one: the
        # sides never share an alpha, yet every sum minus lo has the same
        # low 24 bits on both sides, so every sum survives the filter
        rng = SplitMix64(33)
        rows = [[(2 + 2 * rng.below(4999)) << 24 for _ in range(16)], [1] * 16]
        d_1 = (sum(rows[0]) // 2) | (1 << 24)
        inst = MspInstance(rows, [d_1, 8])
        calls = _recording_survivors(monkeypatch)
        windows = _recording_cut(monkeypatch)
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        assert batch_stream(PairSumEnumerator(tables, target)) == []
        enum = SumsetEnumerator(tables, target, 7)
        start, end = enum._lo, enum._end
        assert enum.next_batch() is None and enum.exhausted
        both = [(sizes, kept) for sizes, kept in calls if min(sizes)]
        assert len(both) > 1 and all(kept == sizes for sizes, kept in both)
        # every window counted, and together they tile the alpha range
        assert enum.windows == len(windows) > 1
        starts = [lo for lo, _, _ in windows]
        assert starts == [start] + [hi + 1 for _, hi, _ in windows[:-1]]
        assert windows[-1][1] == end and enum._lo == end + 1
        assert (enum._lcount == enum._left.count_le(end)).all()
        assert (enum._rcount == enum._right.count_le(target - end - 1)).all()

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_narrow_sparse_stream_equals_heap(self, seed, monkeypatch):
        # unreduced (3,20,100): every window is narrow, and some are
        # sparse, their common alphas' sums filling at most half the cap
        # on either side; their intervals carry pairs of alphas only one
        # side holds, and split per alpha the stream is the heap's
        inst = generate_instance(3, 100, seed)
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        matches = _recording_matches(monkeypatch)
        enum = SumsetEnumerator(tables, target)
        batches = list(iter(enum.next_batch, None))
        assert all(narrow for *_, narrow in matches)
        sparse = [
            match for lo, hi, match, _ in matches
            if 2 * _kept_sums(enum, lo, hi, match) <= enum.window_pairs
        ]
        assert sparse and any(
            b.n_left + b.n_right > b.left_counts.sum() + b.right_counts.sum()
            for match in sparse for b in match
        )
        per_alpha = [p for b in batches for p in b.per_alpha(tables)]
        assert batch_stream_of(per_alpha) == batch_stream(PairSumEnumerator(tables, target))

    @pytest.mark.parametrize("m, batches", [(5, None), (6, 6)])
    def test_dense_stream_equals_heap(self, m, batches):
        # unreduced (5,40,100) and (6,50,100): every window is narrow
        # and nearly every one dense, so batches are single wide
        # intervals of long rows; split per alpha they are the heap's
        # stream (the whole (5,40,100) sweep, the first `batches`
        # batches of the (6,50,100) one)
        inst = generate_instance(m, 100, 1)
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        heap = PairSumEnumerator(tables, target)
        sumset = SumsetEnumerator(tables, target)
        taken = list(itertools.islice(iter(sumset.next_batch, None), batches))
        wide = [b for b in taken if len(b.alpha_at) == 2 and len(b.alphas) > 1]
        assert len(wide) > len(taken) // 2
        count = 0
        for batch in taken:
            assert_block_offsets(batch)
            for got in batch.per_alpha(tables):
                expected = heap.next_batch()
                assert (got.alpha, got.beta) == (expected.alpha, expected.beta)
                assert np.array_equal(got.left_pairs[:], expected.left_pairs[:])
                assert np.array_equal(got.right_pairs[:], expected.right_pairs[:])
                count += 1
        if batches is None:
            assert heap.next_batch() is None and count > 100
        # a wide interval's blocks are one per fixed run, and each row
        # holds several alphas' pairs on average
        rows = sum(int(b.left_pairs.fixed_len.sum()) for b in wide)
        assert sum(b.n_left for b in wide) > 2 * rows


# few distinct values, so sides tie and share values, including both
# ends of the packed value range: a negative value v stands for
# 2^(64 - s) + v, so -1 is the largest value a side of that size packs
_window_values = st.one_of(
    st.integers(0, 3), st.integers(-4, -1), st.integers(-(2**57), 2**57)
)
_window_sides = st.lists(_window_values, min_size=1, max_size=60)


def _check_window_helpers(a: list[int], b: list[int]) -> None:
    """`_shared_values` and `_packed_positions` against a dict from value
    to ascending positions, for both sides.  Each side is packed as the
    window does: only the positions `_bitmap_survivors` keeps, as sorted
    keys (value << s) | original list position, with s the bit length
    of the larger whole side."""
    s = max(len(a), len(b)).bit_length()
    a, b = ([v % 2 ** (64 - s) for v in side] for side in (a, b))
    expected = sorted(set(a) & set(b))
    kept = _bitmap_survivors(np.array(a, np.uint64), np.array(b, np.uint64))
    if not len(kept[0]):  # the window stops here
        assert not expected and not len(kept[1])
        return
    packed = []
    for side, pos in zip((a, b), kept):
        keys = np.array(sorted(side[i] << s | i for i in pos.tolist()), np.uint64)
        packed.append((keys, keys >> np.uint64(s)))
    common = _shared_values(packed[0][1], packed[1][1])
    assert common.dtype == np.uint64 and common.tolist() == expected
    for side, (keys, values) in zip((a, b), packed):
        where: dict[int, list[int]] = {}
        for i, v in enumerate(side):
            where.setdefault(v, []).append(i)
        pos, per_key = _packed_positions(keys, values, s, common)
        assert pos.tolist() == [i for v in expected for i in where[v]]
        assert per_key.tolist() == [len(where[v]) for v in expected]


class TestWindowHelpers:
    """The window step: each side's filter survivors packed with their
    original positions and sorted once, the values both share, and each
    shared value's positions in (value, position) order."""

    @given(a=_window_sides, b=_window_sides)
    @settings(max_examples=300, deadline=None)
    def test_against_reference(self, a, b):
        _check_window_helpers(a, b)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([7] * 1000, [7] * 3),  # heavy ties: every sum equal
            ([0, 2, 4] * 50, [1, 3, 5] * 50),  # no common value
            ([5], [5]),  # one-element sides
            ([5], [6]),
            ([-1, 3, 0, 3, -1, 0], [0, -1]),  # both ends of the packed range
        ],
    )
    def test_edge_cases(self, a, b):
        _check_window_helpers(a, b)

    def test_more_than_2_16_common_values(self):
        rng = np.random.default_rng(3)
        n = (1 << 16) + 1000
        a = rng.permutation(np.repeat(np.arange(n), 2)).tolist()
        b = rng.permutation(n + 10).tolist()
        _check_window_helpers(a, b)


class TestArrayKernels:
    """`_ranges` and `_runs`, the expansions every run-shaped step uses."""

    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(0, 6)), max_size=40
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_ranges(self, runs):
        starts = np.array([s for s, _ in runs], dtype=np.int64)
        lens = np.array([n for _, n in runs], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, s + n, dtype=np.int64) for s, n in runs] + [[]]
        )
        got = _ranges(starts, lens)
        assert got.dtype == np.int64 and got.tolist() == expected.tolist()

    def test_ranges_edge_cases(self):
        empty = np.empty(0, dtype=np.int64)
        assert _ranges(empty, empty).tolist() == []
        zeros = np.zeros(3, dtype=np.int64)
        assert _ranges(np.array([4, 9, 2]), zeros).tolist() == []
        assert _ranges(np.array([4, 9, 2]), np.array([0, 2, 0])).tolist() == [9, 10]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_runs(self, values):
        values.sort()
        starts, lens = _runs(np.array(values, dtype=np.uint64))
        expected, at = [], 0
        for _, group in itertools.groupby(values):
            n = len(list(group))
            expected.append((at, n))
            at += n
        assert list(zip(starts.tolist(), lens.tolist())) == expected

    @pytest.mark.parametrize("values", [[7], [3, 3, 3], [0, 1, 2], [1, 1, 2]])
    def test_runs_edge_cases(self, values):
        starts, lens = _runs(np.array(values, dtype=np.uint64))
        ends = _run_ends(np.array(values, dtype=np.uint64))
        assert lens.sum() == len(values) and starts[0] == 0
        assert ends.tolist() == [
            next(s + n for s, n in zip(starts, lens) if s <= i < s + n)
            for i in range(len(values))
        ]


def _batch_sizes(batch) -> tuple[int, int]:
    """A batch's pairs, both sides, and those of its first alpha."""
    first = batch.left_counts[0] + batch.right_counts[0]
    return batch.n_left + batch.n_right, int(first)


def _span_pairs(tables, target: int, a0: int, a1: int) -> int:
    """Index pairs, both sides, whose alpha lies in [a0, a1], counted by
    brute force over every pair of table entries."""
    ta, tb, tc, td = tables
    left = (ta.weights[:, None] + tb.weights[None, :]).ravel().tolist()
    right = (tc.weights[:, None] + td.weights[None, :]).ravel().tolist()
    return sum(a0 <= w <= a1 for w in left) + sum(a0 <= target - w <= a1 for w in right)


class TestPairBudgetedGroups:
    """`SumsetEnumerator` batches: consecutive alphas of one match grouped
    up to the pair budget, across the window boundaries of its buffer."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        n=st.integers(4, 16),
        k=st.sampled_from([3, 10, 100]),
        window=st.sampled_from([1, 3, 7, None]),
        budget=st.sampled_from([1, 7, 64]),
    )
    @settings(max_examples=150, deadline=None)
    def test_groups_split_into_heap_stream(self, seed, m, n, k, window, budget):
        inst = seeded_instance(seed, m=m, n=n, k=k)
        if m > 1:
            inst = surrogate_reduce(inst, m)
        tables = build_quarter_tables(inst)
        target = int(inst.d[0])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(enumerate1d, "BATCH_PAIRS", budget)
            matches = _recording_matches(patch)
            windows = _recording_cut(patch)
            enum = SumsetEnumerator(tables, target, window)
            batches = list(iter(enum.next_batch, None))
        cap = enum.batch_pairs
        assert cap == max(enum.window_pairs, budget)
        for batch in batches:
            assert_block_offsets(batch)
        # split per alpha, the groups are the heap's stream
        per_alpha = [p for b in batches for p in b.per_alpha(tables)]
        expected = batch_stream(PairSumEnumerator(tables, target))
        assert batch_stream_of(per_alpha) == expected
        # every batch was emitted by one match, in stream order
        emitted = [b for _, _, match, _ in matches for b in match]
        assert len(emitted) == len(batches)
        assert all(a is b for a, b in zip(emitted, batches))
        # the width alone picks a window's route: a narrow window's
        # alphas become intervals, a buffer holds wide windows' alphas only
        ends = [w_hi for _, w_hi, _ in windows]
        wide = [w_hi - w_lo >= enum.window_pairs for w_lo, w_hi, _ in windows]
        for lo, hi, match, narrow in matches:
            if narrow:
                assert (lo, hi) in [(w_lo, w_hi) for w_lo, w_hi, _ in windows]
                assert hi - lo < enum.window_pairs
            else:
                alphas = [a for b in match for a in b.alphas.tolist()]
                assert all(wide[bisect_left(ends, a)] for a in alphas)
            # no batch spans two matches: its alphas lie in its buffer's
            # or its narrow window's
            assert all(lo <= b.alphas[0] and b.alphas[-1] <= hi for b in match)
            sizes = [_batch_sizes(b) for b in match]
            for batch, (pairs, _) in zip(match, sizes):
                assert pairs <= cap or len(batch.alphas) == 1
                # each interval holds every pair of its span, no more
                lows, highs, _, _ = batch.spans
                assert pairs == sum(
                    _span_pairs(tables, target, a0, a1)
                    for a0, a1 in zip(lows.tolist(), highs.tolist())
                )
            # maximal within its match: the next batch's first alpha
            # would overflow each group, or each interval's span
            for batch, nxt, (pairs, _), (_, first) in zip(
                match, match[1:], sizes, sizes[1:]
            ):
                if narrow:
                    span = (int(batch.alphas[0]), int(nxt.alphas[0]))
                    assert _span_pairs(tables, target, *span) > cap
                else:
                    assert pairs + first > cap

    def test_a_group_crosses_window_boundaries(self, monkeypatch):
        # windows of at most 7 distinct-weight pairs per side, groups of
        # up to 64 index pairs: some group holds alphas of two windows
        monkeypatch.setattr(enumerate1d, "BATCH_PAIRS", 64)
        window_ends = []
        cut = SumsetEnumerator._cut

        def recording_cut(self):
            hi, probe = cut(self)
            window_ends.append(hi)
            return hi, probe

        monkeypatch.setattr(SumsetEnumerator, "_cut", recording_cut)
        inst = seeded_instance(1, m=2, n=16, k=100)
        enum = SumsetEnumerator(build_quarter_tables(inst), int(inst.d[0]), 7)
        groups = list(iter(enum.next_batch, None))
        ends = np.array(window_ends)
        # window i holds the alphas in (ends[i - 1], ends[i]]
        crossing = [
            g for g in groups
            if ends.searchsorted(g.alphas[0]) != ends.searchsorted(g.alphas[-1])
        ]
        assert crossing and all(g.n_left + g.n_right <= 64 for g in crossing)

    def test_first_mode_stops_after_solving_buffer(self, monkeypatch):
        # a first-mode sweep of wide windows: the solving alpha is in
        # the last buffer matched, and at most the window that made that
        # buffer full is cut past it
        inst = surrogate_reduce(generate_instance(5, 100, 1), 3)
        flushes = _recording_flush(monkeypatch)
        windows = _recording_cut(monkeypatch)
        got = solve(inst, SolverConfig(mode="first", worker_count=1))
        assert got.feasible and got.stats.progress < 0.9
        tables = build_quarter_tables(inst)
        cols = tables[0].var_indices + tables[1].var_indices
        alpha = sum(int(inst.a[0, c]) for c in cols if got.solutions[0][c])
        lo, hi, _, _ = flushes[-1]
        assert lo <= alpha <= hi
        assert got.stats.windows == len(windows)
        assert sum(w_lo > hi for w_lo, _, _ in windows) <= 1
