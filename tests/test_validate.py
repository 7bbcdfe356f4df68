"""Hashing, residual computation, matching, chunking, backend parity."""

from __future__ import annotations

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsplit import enumerate1d, validate
from marketsplit.enumerate1d import (
    HASH_SEED,
    CandidateBatch,
    PairSumEnumerator,
    RunBlocks,
    SumsetEnumerator,
    _bitmap_survivors,
    build_quarter_tables,
    hash_multipliers,
    permuted_rhs,
)
from marketsplit.instances import (
    MspInstance,
    SplitMix64,
    generate_instance,
    surrogate_reduce,
)
from marketsplit.oracle import brute_force_all
from marketsplit.solver import SolverConfig, solve
from marketsplit.validate import (
    JoinScratch,
    ParallelBackend,
    ResidualSet,
    SerialBackend,
    ValidationStats,
    compute_residuals,
    default_chunk_pairs,
    encode_batch,
    encode_vector,
    get_backend,
    join_hashes,
    match_batch,
    validate_chunked,
)

from conftest import drain_all_batches, seeded_instance, twin_instance


def reference_hash(values):
    """Independent big-integer transcription of the linear hash."""
    rng = SplitMix64(HASH_SEED)
    return sum((rng.next_u64() | 1) * int(v) for v in values) % 2**64


ALL_BACKENDS = [SerialBackend(), ParallelBackend()]


def zero_hashes(monkeypatch):
    """Make every hash 0 while `monkeypatch` holds: tables built then
    carry zero hash columns, so every pair collides, in production
    hashing (`RunBlocks.sums`) as in the reference."""
    monkeypatch.setattr(enumerate1d, "hash_multipliers", lambda m: (0,) * m)


u64 = st.integers(0, 2**64 - 1)


class TestHash:
    @given(st.integers(1, 8).flatmap(lambda m: st.tuples(
        st.lists(u64, min_size=m, max_size=m),
        st.lists(u64, min_size=m, max_size=m),
    )))
    @settings(max_examples=200)
    def test_linearity(self, uv):
        u, v = uv
        total = [(a + b) % 2**64 for a, b in zip(u, v)]
        assert encode_vector(total) == (encode_vector(u) + encode_vector(v)) % 2**64
        assert encode_vector([0] * len(u)) == 0

    def test_multipliers_odd_and_fixed(self):
        # pinned: a change here changes every hash the solver computes
        assert hash_multipliers(2) == (0x1FADB42F09EA8ED3, 0x64C5F294DF9AEC8D)
        assert hash_multipliers(6)[:2] == hash_multipliers(2)
        assert all(r % 2 == 1 for r in hash_multipliers(16))

    def test_small_table_matches_reference(self):
        for u in range(3):
            for v in range(3):
                assert encode_vector([u, v]) == reference_hash([u, v])

    def test_encode_single_coordinate(self):
        (r0,) = hash_multipliers(1)
        for v in (0, 1, 7, 2**63):
            assert encode_vector([v]) == (r0 * v) % 2**64

    def test_encode_reference_value(self):
        assert encode_vector([1, 2, 3]) == reference_hash([1, 2, 3])

    def test_encode_deterministic(self):
        assert encode_vector([9, 8, 7]) == encode_vector([9, 8, 7])

    @given(
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8),
    )
    @settings(max_examples=200)
    def test_vectorized_twin_is_bit_exact(self, coords):
        arr = np.array([coords], dtype=np.uint64)
        assert int(encode_batch(arr)[0]) == reference_hash(coords)

    def test_batch_encoding_matches_scalar(self):
        rng = np.random.default_rng(0)
        vecs = rng.integers(0, 2**63, size=(50, 5)).astype(np.uint64)
        batch = encode_batch(vecs)
        for row, h in zip(vecs.tolist(), batch.tolist()):
            assert encode_vector(row) == h

    def test_table_columns_are_entry_hashes(self):
        inst = seeded_instance(12, m=4, n=14, k=50)
        for table in build_quarter_tables(inst):
            assert np.array_equal(table.hashes, encode_batch(table.contribs))

    def test_pair_hashes_equal_hashes_of_built_residuals(self):
        # every (a, b) and (c, d) pair of a small instance; d is low
        # enough that many right pairs overshoot it and wrap negative
        inst = seeded_instance(13, m=3, n=12, k=40, d_mode="random")
        tables = build_quarter_tables(inst)
        d = permuted_rhs(inst, tables) // 3
        ta, tb, tc, td = tables
        left = np.array(
            [(a, b) for a in range(ta.size) for b in range(tb.size)], dtype=np.int64
        )
        right = np.array(
            [(c, e) for c in range(tc.size) for e in range(td.size)], dtype=np.int64
        )
        left_vec = ta.contribs[left[:, 0]] + tb.contribs[left[:, 1]]
        raw = tc.contribs[right[:, 0]] + td.contribs[right[:, 1]]
        assert (raw > d).any(axis=1).sum() > len(right) // 2
        right_vec = d - raw  # wraps for the overshooting pairs
        production, reference = ParallelBackend(), SerialBackend()
        left_side, right_side = RunBlocks.from_pairs(left), RunBlocks.from_pairs(right)
        for backend in (production, reference):
            got_left = backend.left_hashes(tables, left_side, 0, len(left))
            got_right = backend.right_hashes(
                tables, right_side, 0, len(right), backend.rhs(d)
            )
            assert got_left.tobytes() == encode_batch(left_vec).tobytes()
            assert got_right.tobytes() == encode_batch(right_vec).tobytes()
        for row, h in zip(right_vec[:50].tolist(), got_right[:50].tolist()):
            signed = [int(v) - 2**64 if v >= 2**63 else int(v) for v in row]
            assert reference_hash(signed) == h


    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        n=st.integers(4, 14),
        k=st.sampled_from([3, 10, 100]),
        source=st.sampled_from(["sumset", "heap", "array"]),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_run_native_hashes_equal_hashes_of_built_residuals(
        self, seed, m, n, k, source, data
    ):
        # sides as the sumset sweep leaves them (multi-row blocks, window
        # batches), as the heap drains them (one-row segments) and as
        # arrays (one-pair blocks); the other rows' targets are cut to a
        # third, so many right pairs overshoot d and wrap
        inst = seeded_instance(seed, m=m, n=n, k=k)
        tables = build_quarter_tables(inst)
        d = permuted_rhs(inst, tables)
        d[1:] //= 3
        target = int(inst.d[0])
        make = PairSumEnumerator if source == "heap" else SumsetEnumerator
        batches = drain_window_batches(make(tables, target))
        if not batches:
            return
        batch = data.draw(st.sampled_from(batches))
        sides = [batch.left_pairs, batch.right_pairs]
        if source == "array":
            sides = [RunBlocks.from_pairs(side[:]) for side in sides]
        ta, tb, tc, td = tables
        for backend in (ParallelBackend(), SerialBackend()):
            for name, side in zip(("left", "right"), sides):
                if name == "left":
                    def hashes(lo, hi):
                        return backend.left_hashes(tables, side, lo, hi)

                    def reference(pairs):
                        return ta.contribs[pairs[:, 0]] + tb.contribs[pairs[:, 1]]
                else:
                    def hashes(lo, hi):
                        return backend.right_hashes(
                            tables, side, lo, hi, backend.rhs(d)
                        )

                    def reference(pairs):
                        return d - (tc.contribs[pairs[:, 0]] + td.contribs[pairs[:, 1]])

                total = len(side)
                whole = encode_batch(reference(side[:]))
                assert hashes(0, total).tobytes() == whole.tobytes()
                lo = data.draw(st.integers(0, total), label=f"{name} lo")
                hi = data.draw(st.integers(lo, total), label=f"{name} hi")
                got = hashes(lo, hi)
                assert got.dtype == np.uint64
                assert got.tobytes() == encode_batch(reference(side[lo:hi])).tobytes()
                # chunks tile the side, crossing every block and row edge
                size = data.draw(st.integers(1, 7), label=f"{name} chunk")
                tiled = [hashes(i, min(i + size, total)) for i in range(0, total, size)]
                assert np.concatenate([whole[:0], *tiled]).tobytes() == whole.tobytes()


def drain_window_batches(enumerator):
    """Every batch an enumerator emits, grouped batches left whole."""
    batches = []
    while (batch := enumerator.next_batch()) is not None:
        batches.append(batch)
    return batches


def brute_force_join(left, right):
    return [(i, j) for j in range(len(right)) for i in range(len(left)) if left[i] == right[j]]


class TestJoinKernel:
    @given(
        st.lists(st.integers(0, 6), max_size=40),
        st.lists(st.integers(0, 6), max_size=40),
        st.sampled_from([1, 1 << 24, 1 << 40, (1 << 64) - 7]),
    )
    @settings(max_examples=300)
    def test_matches_brute_force_in_right_then_left_order(self, left, right, high):
        # few distinct values, so equal hashes are common; with a large
        # `high`, distinct values share their low (bitmap) bits and only
        # the exact 64-bit step can tell them apart
        def spread(vals):
            return [((v & 1) + (v >> 1) * high) % 2**64 for v in vals]

        lv, rv = spread(left), spread(right)
        li, ri = join_hashes(np.array(lv, dtype=np.uint64), np.array(rv, dtype=np.uint64))
        assert list(zip(li.tolist(), ri.tolist())) == brute_force_join(lv, rv)
        assert li.dtype == ri.dtype == np.int64

    def test_large_skewed_sides(self):
        rng = np.random.default_rng(5)
        left = rng.integers(0, 2**64, size=50_000, dtype=np.uint64)
        right = rng.integers(0, 2**64, size=300, dtype=np.uint64)
        right[::7] = left[rng.integers(0, len(left), size=len(right[::7]))]
        for lh, rh, label in ((left, right, "big left"), (right, left, "big right")):
            li, ri = join_hashes(lh, rh)
            pairs = {(int(a), int(b)) for a, b in zip(li, ri)}
            expected = {
                (i, j)
                for j, h in enumerate(rh.tolist())
                for i in np.flatnonzero(lh == h).tolist()
            }
            assert pairs == expected and len(pairs) == len(li)
            assert list(ri) == sorted(ri), label

    def test_repeats_within_one_side_share_nothing(self):
        # every value survives both bitmap filters (equal low bits), and
        # the survivors' sort finds repeats, but none across the sides
        high = np.uint64(2**40)
        left = np.array([5, 5, 9, 9, 9, 11], dtype=np.uint64)
        right = np.array([5, 9, 11, 11], dtype=np.uint64) + high
        for lh, rh in ((left, right), (right, left)):
            li, ri = join_hashes(lh, rh)
            assert len(li) == len(ri) == 0
            assert li.dtype == ri.dtype == np.int64

    def test_one_planted_hit_among_200k(self):
        rng = np.random.default_rng(11)
        left = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
        right = rng.integers(0, 2**64, size=200_000, dtype=np.uint64)
        right[123_456] = left[98_765]
        shared = np.intersect1d(left, right)
        assert shared.tolist() == [int(left[98_765])]
        assert (left == shared[0]).sum() == (right == shared[0]).sum() == 1
        li, ri = join_hashes(left, right)
        assert li.tolist() == [98_765] and ri.tolist() == [123_456]
        assert li.dtype == ri.dtype == np.int64

    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_one_side_empty(self, n):
        other = np.arange(n, dtype=np.uint64)
        empty = np.empty(0, dtype=np.uint64)
        for lh, rh in ((empty, other), (other, empty)):
            li, ri = join_hashes(lh, rh)
            assert len(li) == len(ri) == 0
            assert li.dtype == ri.dtype == np.int64


def _assert_join_equals_serial(left: np.ndarray, right: np.ndarray) -> None:
    li, ri = join_hashes(left, right)
    si, sj = SerialBackend().join(left, right)
    assert li.tolist() == si.tolist() and ri.tolist() == sj.tolist()


class TestBitmapSurvivors:
    """The two-way bitmap filter that both the window sweep and
    `join_hashes` run: it may keep extra positions, never drop a match."""

    @given(
        st.lists(st.integers(0, 6), max_size=40),
        st.lists(st.integers(0, 6), max_size=40),
        st.sampled_from([1, 1 << 10, 1 << 24, 1 << 40, (1 << 64) - 7]),
    )
    @settings(max_examples=300)
    def test_keeps_every_match(self, left, right, high):
        # a large `high` gives distinct values equal low bits
        def spread(vals):
            return np.array(
                [((v & 1) + (v >> 1) * high) % 2**64 for v in vals], dtype=np.uint64
            )

        a, b = spread(left), spread(right)
        pa, pb = _bitmap_survivors(a, b)
        assert pa.dtype == pb.dtype == np.int64
        for pos, side in ((pa, a), (pb, b)):
            assert pos.tolist() == sorted(set(pos.tolist()))
            assert all(0 <= p < len(side) for p in pos.tolist())
        kept_a, kept_b = set(pa.tolist()), set(pb.tolist())
        for i, j in brute_force_join(a.tolist(), b.tolist()):
            assert i in kept_a and j in kept_b
        assert (len(pa) == 0) == (len(pb) == 0)
        if not len(a) or not len(b):
            assert len(pa) == len(pb) == 0
        _assert_join_equals_serial(a, b)

    @pytest.mark.parametrize("n_a, n_b", [(1, 1), (3, 1000), (2000, 7), (5000, 5000)])
    def test_equal_low_bits_keep_every_position(self, n_a, n_b):
        # every value has the same low 24 bits, the most any bitmap uses
        rng = np.random.default_rng(n_a + n_b)
        low = np.uint64(0xABCDEF)
        a, b = (
            rng.integers(0, 2**40, size=n, dtype=np.uint64) << np.uint64(24) | low
            for n in (n_a, n_b)
        )
        pa, pb = _bitmap_survivors(a, b)
        assert pa.tolist() == list(range(n_a)) and pb.tolist() == list(range(n_b))
        _assert_join_equals_serial(a, b)
        b[: min(n_a, n_b)] = a[: min(n_a, n_b)]  # now with hits
        _assert_join_equals_serial(a, b)


def _one_alpha(target, alpha, left, right) -> CandidateBatch:
    """A single-alpha batch of (k, 2) index-pair lists, as one-pair blocks."""
    return CandidateBatch.of_alpha(
        target, alpha, RunBlocks.from_pairs(left), RunBlocks.from_pairs(right)
    )


class TestResiduals:
    def _simple_setup(self):
        inst = MspInstance([[1, 2, 3, 4]], [5])
        tables = build_quarter_tables(inst)
        d = permuted_rhs(inst, tables)
        return inst, tables, d

    def test_empty_pair_gives_zero_vector(self):
        inst, tables, d = self._simple_setup()
        batch = _one_alpha(5, 0, [[0, 0]], [])
        left, right = compute_residuals(batch, tables, d)
        assert left.vectors.tolist() == [[0]]

    def test_overshooting_right_pair_filtered(self):
        inst, tables, d = self._simple_setup()
        tc, td = tables[2], tables[3]
        k = int(np.flatnonzero(tc.weights == 3)[0])
        l = int(np.flatnonzero(td.weights == 4)[0])
        i = int(np.flatnonzero(tables[0].weights == 1)[0])
        j = int(np.flatnonzero(tables[1].weights == 2)[0])
        batch = _one_alpha(5, 3, [[i, j]], [[k, l]])
        left, right = compute_residuals(batch, tables, d)
        assert left.vectors.tolist() == [[3]]
        assert len(right) == 0 and right.n_filtered == 1

    def test_coordinate_zero_is_alpha(self):
        inst = seeded_instance(21, m=3, n=12, k=9)
        tables = build_quarter_tables(inst)
        d = permuted_rhs(inst, tables)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        for batch in drain_all_batches(enum):
            left, right = compute_residuals(batch, tables, d)
            assert (left.vectors[:, 0] == batch.alpha).all()
            if len(right):
                assert (right.vectors[:, 0] == batch.alpha).all()

    def test_alpha_mismatch_caught(self):
        inst, tables, d = self._simple_setup()
        batch = _one_alpha(5, 99, [[0, 0]], [])
        with pytest.raises(AssertionError):
            compute_residuals(batch, tables, d)


    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_alpha_mismatch_caught_in_validation(self, backend):
        inst, tables, _ = self._simple_setup()
        pair = [[0, 0]]  # left weight 0, right 3 + 4
        # the left side is checked first, so in the left case the right
        # pair is never checked
        for alpha, side in ((99, "left"), (0, "right")):
            batch = _one_alpha(5, alpha, pair, pair)
            with pytest.raises(AssertionError, match=side):
                validate_chunked(batch, tables, inst, 10, backend)


class TestMatching:
    def test_disjoint_hashes_no_result(self):
        inst = MspInstance([[1, 2, 3, 4]], [5])
        tables = build_quarter_tables(inst)
        left = ResidualSet(
            vectors=np.array([[1], [2]], dtype=np.uint64),
            pairs=np.zeros((2, 2), dtype=np.int64),
        )
        right = ResidualSet(
            vectors=np.array([[3], [4]], dtype=np.uint64),
            pairs=np.zeros((2, 2), dtype=np.int64),
        )
        for backend in ALL_BACKENDS:
            assert match_batch(left, right, inst, tables, backend) == []

    def test_full_enumeration_matches_oracle(self):
        for seed in range(15):
            inst = seeded_instance(seed, m=2, n=4 + seed % 9, k=8)
            expected = set(brute_force_all(inst))
            tables = build_quarter_tables(inst)
            d = permuted_rhs(inst, tables)
            found = []
            enum = PairSumEnumerator(tables, int(inst.d[0]))
            for batch in drain_all_batches(enum):
                left, right = compute_residuals(batch, tables, d)
                found.extend(match_batch(left, right, inst, tables))
            assert set(found) == expected, seed
            assert len(found) == len(set(found)), seed

    def test_full_enumeration_on_secondary_row(self):
        # tables keyed on row 1: residual coordinates follow row_map, the
        # solution set must not change
        for seed in (3, 8):
            inst = seeded_instance(seed, m=3, n=10, k=7)
            expected = set(brute_force_all(inst))
            tables = build_quarter_tables(inst, row=1)
            d = permuted_rhs(inst, tables)
            found = []
            enum = PairSumEnumerator(tables, int(inst.d[1]))
            for batch in drain_all_batches(enum):
                left, right = compute_residuals(batch, tables, d)
                found.extend(match_batch(left, right, inst, tables))
            assert set(found) == expected, seed

    def test_colliding_hashes_rejected_by_exact_check(self, monkeypatch):
        # zero hash: every pair collides, results must not change
        inst = seeded_instance(31, m=2, n=10, k=7)
        tables = build_quarter_tables(inst)
        d = permuted_rhs(inst, tables)

        def matches(backend):
            found = []
            enum = PairSumEnumerator(tables, int(inst.d[0]))
            for batch in drain_all_batches(enum):
                left, right = compute_residuals(batch, tables, d)
                found.extend(match_batch(left, right, inst, tables, backend))
            return found

        with monkeypatch.context() as mp:
            zero_hashes(mp)
            results = [matches(SerialBackend()), matches(ParallelBackend())]
        results += [matches(SerialBackend()), matches(ParallelBackend())]
        assert results[0] == results[1] == results[2] == results[3]
        assert set(results[0]) == set(brute_force_all(inst))

    def test_forced_collisions_through_join_kernel(self, monkeypatch):
        # zero hashes make every pair of every chunk a hit in the
        # production join; exact confirmation alone must recover the
        # oracle's solutions
        inst = seeded_instance(33, m=2, n=13, k=7)
        zero_hashes(monkeypatch)
        tables = build_quarter_tables(inst)
        backend = ParallelBackend()
        for chunk in (10**9, 3):
            stats = ValidationStats()
            found = []
            product = 0
            enum = PairSumEnumerator(tables, int(inst.d[0]))
            for batch in drain_all_batches(enum):
                product += batch.n_left * batch.n_right
                found.extend(
                    validate_chunked(batch, tables, inst, chunk, backend, stats=stats)
                )
            assert sorted(found) == sorted(brute_force_all(inst))
            assert stats.hash_hits == product
            assert stats.exact_hits == len(found)

    def test_degenerate_hash_counts_more_hash_hits(self, monkeypatch):
        inst = seeded_instance(32, m=1, n=8, k=5)
        tables = build_quarter_tables(inst)
        d = permuted_rhs(inst, tables)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        batches = drain_all_batches(enum)
        real, degen = ValidationStats(), ValidationStats()
        residuals = [compute_residuals(batch, tables, d) for batch in batches]
        for left, right in residuals:
            match_batch(left, right, inst, tables, SerialBackend(), real)
        zero_hashes(monkeypatch)
        for left, right in residuals:
            match_batch(left, right, inst, tables, SerialBackend(), degen)
        assert degen.exact_hits == real.exact_hits
        assert degen.hash_hits >= real.hash_hits
        assert real.hash_hits >= real.exact_hits


class TestChunking:
    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_chunk_sizes_agree(self, backend):
        inst = seeded_instance(41, m=2, n=11, k=9)
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        for batch in drain_all_batches(enum):
            reference = validate_chunked(batch, tables, inst, 10**9, backend)
            for chunk in (1, 2, 3, 1000):
                assert (
                    validate_chunked(batch, tables, inst, chunk, backend)
                    == reference
                )

    def test_single_chunk_equals_direct_match(self):
        inst = seeded_instance(42, m=2, n=10, k=9)
        tables = build_quarter_tables(inst)
        d = permuted_rhs(inst, tables)
        backend = ParallelBackend()
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        for batch in drain_all_batches(enum):
            left, right = compute_residuals(batch, tables, d)
            direct = match_batch(left, right, inst, tables, backend)
            chunked = validate_chunked(
                batch, tables, inst, max(batch.n_left, batch.n_right, 1), backend
            )
            assert chunked == direct

    def test_chunk_stats_counted_once(self):
        inst = seeded_instance(40, m=2, n=12, k=5)
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        batch = enum.next_batch()
        while batch is not None and (batch.n_left < 3 or batch.n_right < 3):
            batch = enum.next_batch()
        assert batch is not None
        for backend in ALL_BACKENDS:
            one = ValidationStats()
            validate_chunked(batch, tables, inst, 10**9, backend, stats=one)
            tiny = ValidationStats()
            validate_chunked(batch, tables, inst, 2, backend, stats=tiny)
            assert one.candidates_left == tiny.candidates_left == batch.n_left
            assert one.candidates_right == tiny.candidates_right == batch.n_right
            assert one.hash_hits == tiny.hash_hits
            assert one.exact_hits == tiny.exact_hits

    BUDGET = 2 * 2**20

    @staticmethod
    def _call_peak(batch, tables, inst, chunk, backend=None):
        """tracemalloc peak of one `validate_chunked` call, which builds
        its `JoinScratch` inside the traced call."""
        backend, d = backend or ParallelBackend(), permuted_rhs(inst, tables)
        tracemalloc.start()
        try:
            validate_chunked(batch, tables, inst, chunk, backend, d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @staticmethod
    def _m6_batches():
        """The first 500 batches of a (6,50,100) sweep."""
        inst = generate_instance(6, 100, 5)
        tables = build_quarter_tables(inst)
        enum = SumsetEnumerator(tables, int(inst.d[0]))
        return inst, tables, [enum.next_batch() for _ in range(500)]

    @classmethod
    def _largest_m6_batch(cls):
        """The largest of the first 500 batches of a (6,50,100) sweep."""
        inst, tables, batches = cls._m6_batches()
        return inst, tables, max(batches, key=lambda b: b.n_left + b.n_right)

    def test_chunked_call_peaks_within_memory_budget(self):
        # the largest batch of a (6,50,100) first-solution sweep, cut into
        # chunks by a 2 MiB budget
        inst, tables, batch = self._largest_m6_batch()
        chunk = default_chunk_pairs(inst.m, self.BUDGET)
        assert batch.n_left > 4 * chunk and batch.n_right > chunk
        assert 0 < self._call_peak(batch, tables, inst, chunk) <= self.BUDGET

    def test_split_interval_peaks_within_memory_budget(self):
        # at the default pair budget some narrow windows' intervals hold
        # several alphas and more left pairs than one chunk, so the call
        # checks their blocks whole and splits them per alpha first
        inst, tables, batches = self._m6_batches()
        chunk = default_chunk_pairs(inst.m, self.BUDGET)
        split = [b for b in batches if len(b.alpha_at) <= len(b.alphas) and b.n_left > chunk]
        assert split, "no multi-alpha interval needs several left chunks"
        batch = max(split, key=lambda b: b.n_left + b.n_right)
        assert len(batch.alphas) > 1 and batch.n_left > chunk
        assert 0 < self._call_peak(batch, tables, inst, chunk) <= self.BUDGET

    def test_one_pair_blocks_peak_within_memory_budget(self):
        # the same batch rebuilt from arrays, so every block is one pair
        # and the per-block checks see as many blocks as pairs; for
        # one-pair blocks the block offsets are the pair edges
        inst, tables, batch = self._largest_m6_batch()
        _, _, l_edges, r_edges = batch.spans
        batch = dataclasses.replace(
            batch,
            left_pairs=RunBlocks.from_pairs(batch.left_pairs[:]),
            right_pairs=RunBlocks.from_pairs(batch.right_pairs[:]),
            left_at=l_edges,
            right_at=r_edges,
        )
        assert len(batch.left_pairs.inner_start) == batch.n_left
        chunk = default_chunk_pairs(inst.m, self.BUDGET)
        assert batch.n_left > 4 * chunk and batch.n_right > chunk
        assert 0 < self._call_peak(batch, tables, inst, chunk) <= self.BUDGET

    def test_grouped_batch_peaks_within_memory_budget(self):
        # with reduce_rows=3 nearly every alpha has one pair per side, so a
        # group is one-pair blocks of thousands of alphas; a window cap of
        # 2^17 (and so a pair budget of 2^17) makes this instance's whole
        # sweep one buffer, matched into one group
        inst = surrogate_reduce(generate_instance(5, 100, 3), 3)
        tables, batches = _window_batches(inst, window=2**17)
        batch = max(batches, key=lambda b: b.n_left + b.n_right)
        assert len(batch.alphas) > 30_000
        assert len(batch.left_pairs.inner_start) == batch.n_left
        chunk = default_chunk_pairs(inst.m, self.BUDGET)
        assert batch.n_left > chunk and batch.n_right > chunk
        assert 0 < self._call_peak(batch, tables, inst, chunk) <= self.BUDGET

    def test_streamed_call_peaks_within_memory_budget(self):
        # a 16 MiB budget's chunk holds the largest batch whole, so its
        # larger side is streamed in pieces (a 2 MiB chunk never is)
        inst, tables, batch = self._largest_m6_batch()
        budget = 16 * 2**20
        chunk = default_chunk_pairs(inst.m, budget)
        assert batch.n_left + batch.n_right <= chunk
        spy = HashCounter()
        assert 0 < self._call_peak(batch, tables, inst, chunk, spy) <= budget
        pieces = [hi - lo for lo, hi in spy.ranges["left"]]
        assert batch.n_left > batch.n_right and len(pieces) > 1
        assert max(pieces) == validate.PIECE and sum(pieces) == batch.n_left

    def test_chunk_pairs_validated(self):
        inst = seeded_instance(44, m=2, n=10, k=9)
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        batch = enum.next_batch()
        with pytest.raises(ValueError):
            validate_chunked(batch, tables, inst, 0)


class HashCounter(ParallelBackend):
    """The production backend, recording the pair ranges it hashes."""

    def __init__(self):
        super().__init__()
        self.ranges = {"left": [], "right": []}

    def left_hashes(self, tables, side, lo, hi, out=None, arange=None):
        self.ranges["left"].append((lo, hi))
        return super().left_hashes(tables, side, lo, hi, out, arange)

    def right_hashes(self, tables, side, lo, hi, rhs, out=None, arange=None):
        self.ranges["right"].append((lo, hi))
        return super().right_hashes(tables, side, lo, hi, rhs, out, arange)

    def times_hashed(self, side: str, n: int) -> np.ndarray:
        """How often each of a side's n pairs was hashed."""
        delta = np.zeros(n + 1, dtype=np.int64)
        for lo, hi in self.ranges[side]:
            delta[lo] += 1
            delta[hi] -= 1
        return delta.cumsum()[:-1]


def _hash_side(values, long_rows: bool) -> tuple[RunBlocks, SimpleNamespace, SimpleNamespace]:
    """A batch side whose pair hashes are `values`, with its inner and
    fixed tables (hash columns only): one row of every pair, or one-pair
    blocks."""
    n = len(values)
    if long_rows:
        blocks = RunBlocks(*(np.array(f, dtype=np.int64) for f in ([0], [n], [0], [1])))
    else:
        blocks = RunBlocks.from_pairs(np.column_stack((np.arange(n), np.zeros(n))))
    tables = SimpleNamespace(hashes=np.array(values, dtype=np.uint64))
    return blocks, tables, SimpleNamespace(hashes=np.zeros(1, dtype=np.uint64))


# values equal to each other, or with equal low bits only
_SHARED = [7, 7 + 2**63, 7 + 2**40, 12345 << 24, 0]


class TestStreamedJoin:
    """A chunk pair whose larger side is hashed and filtered in pieces."""

    @given(
        left=st.lists(st.one_of(u64, st.sampled_from(_SHARED)), max_size=60),
        right=st.lists(st.one_of(u64, st.sampled_from(_SHARED)), max_size=60),
        cut=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        long_rows=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_whole_array_join(self, left, right, cut, long_rows):
        # positions start at `cut` pairs into each side; the right side
        # hashes to 0 minus its sums
        neg_right = [(-v) % 2**64 for v in right]
        l_side, ta, tb = _hash_side([1] * cut[0] + left, long_rows)
        r_side, tc, td = _hash_side([1] * cut[1] + neg_right, not long_rows)
        spans = (cut[0], cut[0] + len(left)), (cut[1], cut[1] + len(right))
        expected = join_hashes(np.array(left, dtype=np.uint64), np.array(right, dtype=np.uint64))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(validate, "PIECE", 7)
            got = ParallelBackend().join_chunks(
                (ta, tb, tc, td), l_side, spans[0], r_side, spans[1], np.uint64(0),
                JoinScratch(),
            )
        assert [a.tolist() for a in got] == [a.tolist() for a in expected]
        assert all(a.dtype == np.int64 for a in got)

    @pytest.mark.parametrize("m, seed, mode", [(6, 5, "first"), (5, 1, "all")])
    def test_small_pieces_solve_alike(self, monkeypatch, m, seed, mode):
        # every chunk pair over 2^11 pairs on a side is streamed
        inst = generate_instance(m, 100, seed)
        cfg = SolverConfig(mode=mode, worker_count=1)

        def outcome():
            result = solve(inst, cfg)
            counters = {
                k: v for k, v in dataclasses.asdict(result.stats).items() if not k.startswith("t_")
            }
            return result.solutions, counters

        whole = outcome()
        monkeypatch.setattr(validate, "PIECE", 2**10)
        assert outcome() == whole
        assert whole[0]

    @pytest.mark.parametrize("piece", [2**8, 2**15])
    def test_each_pair_hashed_once_per_left_chunk(self, monkeypatch, piece):
        # a one-alpha batch cut into chunks so that each left chunk meets
        # three right chunks (streamed at 2^8, the last not), and the
        # largest batch whole (its larger left side streamed at 2^15);
        # the parent's hash work in both
        monkeypatch.setattr(validate, "PIECE", piece)
        inst, tables, batches = TestChunking._m6_batches()
        batch = max(batches, key=lambda b: b.n_left + b.n_right)
        chunk = default_chunk_pairs(inst.m)
        if piece < 2**15:
            batch = max(batch.per_alpha(tables), key=lambda b: b.n_right)
            chunk = batch.n_right * 2 // 5
            assert chunk > 2 * piece and batch.n_left > 2 * chunk
        assert batch.n_left > 2 * piece
        spy = HashCounter()
        validate_chunked(batch, tables, inst, chunk, spy)
        n_chunks = -(-batch.n_left // chunk)
        assert (spy.times_hashed("left", batch.n_left) == 1).all()
        if piece < 2**15:  # one interval: each left chunk meets every right pair
            assert (spy.times_hashed("right", batch.n_right) == n_chunks).all()
            assert len(spy.ranges["right"]) > 3 * n_chunks  # pieces
        else:
            assert n_chunks == 1 and len(spy.ranges["left"]) > 1
            assert (spy.times_hashed("right", batch.n_right) == 1).all()

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_block_past_its_table_raises_before_hashing(self, side):
        inst, tables, batch = TestChunking._largest_m6_batch()
        assert batch.n_left > 2 * validate.PIECE
        field = "left_pairs" if side == "left" else "right_pairs"
        blocks = getattr(batch, field)
        inner = tables[0] if side == "left" else tables[2]
        b = int(np.argmax(blocks.inner_start))
        grown = inner.size - int(blocks.inner_start[b]) + 1
        bad = dataclasses.replace(batch, **{field: _moved(blocks, "inner_len", b, grown)})
        spy = HashCounter()
        with pytest.raises(AssertionError, match=f"{side} run block runs past its inner table"):
            validate_chunked(bad, tables, inst, default_chunk_pairs(inst.m), spy)
        assert spy.ranges == {"left": [], "right": []}


def _window_batches(inst, window=None):
    """Tables of `inst` and the raw batch stream of its sumset sweep, with
    the grouped batches (consecutive alphas) it emits left whole."""
    tables = build_quarter_tables(inst)
    enum = SumsetEnumerator(tables, int(inst.d[0]), window)
    batches = []
    while (batch := enum.next_batch()) is not None:
        batches.append(batch)
    return tables, batches


def _as_one_alpha_intervals(batch, tables):
    """The common alphas' pairs of a batch as one one-alpha interval per
    alpha, laid out as a buffered match lays them out."""
    parts = batch.per_alpha(tables)
    sides, offsets = [], []
    for name in ("left_pairs", "right_pairs"):
        blocks = [getattr(p, name) for p in parts]
        sides.append(RunBlocks(*(
            np.concatenate([getattr(b, f) for b in blocks])
            for f in ("inner_start", "inner_len", "fixed_start", "fixed_len")
        )))
        offsets.append(np.cumsum([0] + [len(b.inner_start) for b in blocks]))
    return CandidateBatch(
        batch.target, batch.alphas, *sides, *offsets,
        np.arange(len(batch.alphas) + 1), batch.left_counts, batch.right_counts,
    )


def _reduced_instance(seed, m, n, k):
    inst = seeded_instance(seed, m=m, n=n, k=k)
    return surrogate_reduce(inst, m) if m > 1 else inst


def _corrupt(batch, field, i, delta):
    """A copy of a batch with entry i of its alphas or block offsets moved."""
    values = getattr(batch, field).copy()
    values[i] += delta
    return dataclasses.replace(batch, **{field: values})


def _moved(blocks, field, b, value):
    """A copy of run blocks with entry b of one field set to value."""
    fields = {
        name: getattr(blocks, name).copy()
        for name in ("inner_start", "inner_len", "fixed_start", "fixed_len")
    }
    fields[field][b] = value
    return RunBlocks(**fields)


class TestWindowBatches:
    """A grouped batch (many alphas, one call) against its per-alpha parts."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 3),
        n=st.integers(4, 16),
        k=st.sampled_from([3, 10, 100, 1000]),
        window=st.sampled_from([7, 64, None]),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_equals_per_alpha_concatenation(self, seed, m, n, k, window):
        inst = _reduced_instance(seed, m, n, k)
        tables, batches = _window_batches(inst, window)
        for chunk in (1, 7, default_chunk_pairs(inst.m)):
            for backend in ALL_BACKENDS:
                whole, parts = ValidationStats(), ValidationStats()
                for batch in batches:
                    got = validate_chunked(batch, tables, inst, chunk, backend, stats=whole)
                    expected = []
                    for part in batch.per_alpha(tables):
                        expected += validate_chunked(
                            part, tables, inst, chunk, backend, stats=parts
                        )
                    if chunk >= batch.n_left + batch.n_right:
                        assert got == expected  # one chunk pair: (alpha, right, left)
                    else:
                        assert sorted(got) == sorted(expected)
                assert whole.calls == len(batches)
                assert parts.calls == sum(len(b.alphas) for b in batches)
                # the batches' pairs are validated (a chunked wide
                # interval's common alphas' only), the parts' common ones
                counted = [_counted(b, chunk) for b in batches]
                assert whole.candidates_left == sum(c[0] for c in counted)
                assert whole.candidates_right == sum(c[1] for c in counted)
                assert parts.candidates_left == sum(b.left_counts.sum() for b in batches)
                assert parts.candidates_right == sum(b.right_counts.sum() for b in batches)
                ignored = dict(calls=0, candidates_left=0, candidates_right=0)
                assert dataclasses.replace(whole, **ignored) == dataclasses.replace(
                    parts, **ignored
                ), (chunk, backend.name)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_right_chunks_stay_inside_partner_alphas(self, chunk):
        # every right range hashed holds only alphas of the left chunk it
        # is joined with, and every right pair is hashed, and counted once
        class Spy(ParallelBackend):
            def __init__(self):
                super().__init__()
                self.left, self.joined = None, []

            def left_hashes(self, tables, side, lo, hi):
                self.left = (lo, hi)
                return super().left_hashes(tables, side, lo, hi)

            def right_hashes(self, tables, side, lo, hi, rhs):
                self.joined.append((self.left, (lo, hi)))
                return super().right_hashes(tables, side, lo, hi, rhs)

        # small weights: alphas of several pairs each, in one group
        # (the widest interval, as one one-alpha interval per alpha)
        inst = seeded_instance(1, m=2, n=16, k=20)
        tables, batches = _window_batches(inst)
        batch = max(batches, key=lambda b: len(b.alphas))
        batch = _as_one_alpha_intervals(batch, tables)
        assert len(batch.alphas) > 10 and batch.n_right > 2 * len(batch.alphas)
        _, _, l_edges, r_edges = batch.spans

        def alphas(edges, lo, hi):
            return set(np.searchsorted(edges, np.arange(lo, hi), side="right") - 1)

        spy, stats = Spy(), ValidationStats()
        validate_chunked(batch, tables, inst, chunk, spy, stats=stats)
        hashed = []
        for (l_lo, l_hi), (r_lo, r_hi) in spy.joined:
            assert 0 < r_hi - r_lo <= chunk
            assert alphas(r_edges, r_lo, r_hi) <= alphas(l_edges, l_lo, l_hi)
            hashed.extend(range(r_lo, r_hi))
        assert set(hashed) == set(range(batch.n_right))
        assert stats.candidates_left == batch.n_left
        assert stats.candidates_right == batch.n_right

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("chunk", [1, 7, 10**9])
    def test_alpha_mismatch_inside_window_raises(self, backend, chunk):
        inst = _reduced_instance(1, 2, 16, 10)
        tables, batches = _window_batches(inst)
        batch = next(b for b in batches if len(b.alphas) >= 3)
        validate_chunked(batch, tables, inst, chunk, backend)  # intact: no error
        i = len(batch.alphas) // 2
        # a block handed to its neighbour alpha, on either side, or an
        # alpha that neither side's pairs have
        for field, side in (("left_at", "left"), ("right_at", "right"),
                            ("alphas", "left")):
            bad = _corrupt(batch, field, i, 1)
            with pytest.raises(AssertionError, match=side):
                validate_chunked(bad, tables, inst, chunk, backend)

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_corrupt_blocks_raise(self, backend, side):
        # small weights: runs of several entries, so blocks have several
        # rows of several pairs
        inst = seeded_instance(1, m=2, n=16, k=20)
        tables, batches = _window_batches(inst)
        field = "left_pairs" if side == "left" else "right_pairs"
        corrupt = []
        # block corruptions on a wide interval and on its first alpha alone
        wide, one = batches[0], batches[0].per_alpha(tables)[0]
        assert len(wide.alphas) > 1
        for batch in (wide, one):
            validate_chunked(batch, tables, inst, 7, backend)  # intact: no error
            blocks = getattr(batch, field)
            inner = tables[0] if side == "left" else tables[2]
            s0, length = int(blocks.inner_start[0]), int(blocks.inner_len[0])
            rows = int(blocks.fixed_len[0])
            for moved in (
                # the inner run grown past its run's end, or its interval's
                _moved(blocks, "inner_len", 0, length + 1),
                # the inner run moved into another run of its table
                _moved(blocks, "inner_start", 0, 0 if s0 else int(inner.run_end[0])),
                # the fixed run grown into the next fixed run
                _moved(blocks, "fixed_len", 0, rows + 1),
            ):
                corrupt.append(dataclasses.replace(batch, **{field: moved}))
        # the fixed run moved to the next fixed index: one alpha's pairs
        # change weight (in a wide interval they may stay inside it)
        blocks = getattr(one, field)
        moved = _moved(blocks, "fixed_start", 0, int(blocks.fixed_start[0]) + 1)
        corrupt.append(dataclasses.replace(one, **{field: moved}))
        for bad in corrupt:
            with pytest.raises(AssertionError, match=side):
                validate_chunked(bad, tables, inst, 7, backend)

    def test_forced_cross_alpha_collisions(self, monkeypatch):
        # zero hashes make every left pair of a window hit every right
        # pair, whatever its alpha; exact confirmation alone must recover
        # the oracle's solutions
        inst = _reduced_instance(1, 2, 16, 10)
        zero_hashes(monkeypatch)
        tables, batches = _window_batches(inst)
        per_alpha = sum(
            p.n_left * p.n_right for b in batches for p in b.per_alpha(tables)
        )
        assert any(len(b.alphas) > 1 for b in batches)
        for backend in ALL_BACKENDS:
            stats = ValidationStats()
            found = []
            for batch in batches:
                found += validate_chunked(batch, tables, inst, 10**9, backend, stats=stats)
            assert sorted(found) == brute_force_all(inst), backend.name
            assert stats.exact_hits == len(found)
            assert stats.hash_hits > per_alpha  # cross-alpha pairs did hit


def _counted(batch, chunk: int) -> tuple[int, int]:
    """The pairs per side `validate_chunked` counts for a batch: all of
    them, unless a wide interval's left side needs several chunks and is
    split per alpha, which keeps the common alphas' pairs only."""
    if batch.n_left > chunk and len(batch.alpha_at) <= len(batch.alphas):
        return int(batch.left_counts.sum()), int(batch.right_counts.sum())
    return batch.n_left, batch.n_right


def _wide_batches(batches) -> list:
    """The batches of one interval holding several alphas: narrow windows'."""
    return [b for b in batches if len(b.alpha_at) == 2 and len(b.alphas) > 1]


def _hand_built(tables, target: int, bounds) -> CandidateBatch:
    """A batch of the alpha intervals [a0, a1] in `bounds`, built by
    brute force over the tables: per interval and side, one one-row block
    per fixed entry that has pairs in it, in table order."""
    ta, tb, tc, td = tables
    sides = [(ta, tb, None), (tc, td, target)]
    blocks = [[], []]
    at = [[0], [0]]
    alphas, alpha_at, counts = [], [0], [[], []]
    for a0, a1 in bounds:
        per_alpha = [{}, {}]
        for s, (t_in, t_fx, d0) in enumerate(sides):
            for f, wf in enumerate(t_fx.weights.tolist()):
                hits = []
                for i, wi in enumerate(t_in.weights.tolist()):
                    alpha = wi + wf if d0 is None else d0 - wi - wf
                    if a0 <= alpha <= a1:
                        hits.append(i)
                        per_alpha[s][alpha] = per_alpha[s].get(alpha, 0) + 1
                if hits:
                    assert hits == list(range(hits[0], hits[-1] + 1))
                    blocks[s].append((hits[0], len(hits), f, 1))
            at[s].append(len(blocks[s]))
        common = sorted(set(per_alpha[0]) & set(per_alpha[1]))
        alphas += common
        alpha_at.append(len(alphas))
        for s in (0, 1):
            counts[s] += [per_alpha[s][a] for a in common]
    ints = np.int64
    return CandidateBatch(
        target, np.array(alphas, dtype=np.uint64),
        *(RunBlocks(*(np.array(col, dtype=ints) for col in zip(*side))) for side in blocks),
        *(np.array(a, dtype=ints) for a in at), np.array(alpha_at, dtype=ints),
        *(np.array(c, dtype=ints) for c in counts),
    )


class TestIntervalBatches:
    """Narrow windows' batches: one alpha interval of long rows, holding
    pairs of alphas only one side has; and hand-built batches of several
    wide intervals."""

    @staticmethod
    def _instance(seed=1):
        inst = twin_instance(seed)
        tables, batches = _window_batches(inst)
        assert _wide_batches(batches)
        return inst, tables, batches

    @pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: b.name)
    def test_block_past_interval_or_across_fixed_run_raises(self, backend):
        inst, tables, batches = self._instance()
        target = int(inst.d[0])
        wide = max(_wide_batches(batches), key=lambda b: len(b.alphas))
        alphas = wide.alphas.tolist()
        # the wide interval cut in two, by hand: the same pairs and answers
        half = len(alphas) // 2
        bounds = [(alphas[0], alphas[half - 1]), (alphas[half], alphas[-1])]
        two = _hand_built(tables, target, bounds)
        assert two.alphas.tolist() == alphas and len(two.alpha_at) == 3
        assert (two.n_left, two.n_right) <= (wide.n_left, wide.n_right)
        for chunk in (1, 7, 10**9):
            assert validate_chunked(two, tables, inst, chunk, backend) == validate_chunked(
                wide, tables, inst, chunk, backend
            )
        bad = []
        for side in ("left", "right"):
            at, field = f"{side}_at", f"{side}_pairs"
            # the first interval's last block handed to the second, and
            # the second's first block to the first: each runs past the
            # interval it is now in
            for delta in (-1, 1):
                bad.append((side, _corrupt(two, at, 1, delta)))
            blocks = getattr(two, field)
            # a row grown by one inner entry past its interval, or past
            # its table; a block grown into the next fixed run
            b = int(np.argmax(blocks.inner_len))
            grown = _moved(blocks, "inner_len", b, int(blocks.inner_len[b]) + 1)
            bad.append((side, dataclasses.replace(two, **{field: grown})))
            t_fx = tables[1] if side == "left" else tables[3]
            f = int(blocks.fixed_start[b])
            rows = _moved(blocks, "fixed_len", b, int(t_fx.run_end[f]) - f + 1)
            bad.append((side, dataclasses.replace(two, **{field: rows})))
        # the interval bounds moved inward, off the blocks' extreme
        # alphas: both sides' blocks run past them, and which side is
        # checked first depends on the chunks
        for keep in (slice(1, None), slice(None, -1)):
            shrunk = dataclasses.replace(
                wide, alphas=wide.alphas[keep], alpha_at=np.array([0, len(alphas) - 1]),
                left_counts=wide.left_counts[keep], right_counts=wide.right_counts[keep],
            )
            bad.append(("(left|right)", shrunk))
        for side, batch in bad:
            with pytest.raises(AssertionError, match=f"{side} run block"):
                validate_chunked(batch, tables, inst, 7, backend)

    @pytest.mark.parametrize("seed", [4, 34])
    def test_chunk_sizes_give_equal_results(self, seed):
        # chunks of 1 and 7 pairs cut a wide interval, split per alpha;
        # the answers, their alpha order and every counter but the pairs
        # counted stay those of one chunk pair, whose order is the
        # per-alpha parts' (these seeds' wide intervals find a larger
        # alpha's solution first)
        inst, tables, batches = self._instance(seed)
        cols = tables[0].var_indices + tables[1].var_indices
        runs = []
        for chunk in (1, 7, default_chunk_pairs(inst.m)):
            stats, found = ValidationStats(), []
            for batch in batches:
                got = validate_chunked(batch, tables, inst, chunk, stats=stats)
                weights = [sum(int(inst.a[0, c]) for c in cols if x[c]) for x in got]
                assert weights == sorted(weights)
                found += got
            counted = [_counted(b, chunk) for b in batches]
            assert stats.candidates_left == sum(c[0] for c in counted)
            assert stats.candidates_right == sum(c[1] for c in counted)
            stats.candidates_left = stats.candidates_right = 0
            runs.append((sorted(found), stats))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][0] == brute_force_all(inst)
        assert sum(b.n_left for b in batches) > sum(_counted(b, 1)[0] for b in batches)
        for batch in _wide_batches(batches):
            expected = []
            for part in batch.per_alpha(tables):
                expected += validate_chunked(part, tables, inst, 10**9)
            assert validate_chunked(batch, tables, inst, 10**9) == expected

    def test_forced_collisions_rejected_in_wide_interval(self, monkeypatch):
        # zero multipliers: every left pair of a wide interval hits every
        # right pair, of every alpha in it, including alphas that only
        # one side holds; exact confirmation alone keeps the solutions
        zero_hashes(monkeypatch)
        inst, tables, batches = self._instance()
        wide = _wide_batches(batches)
        assert any(
            b.n_left > b.left_counts.sum() or b.n_right > b.right_counts.sum() for b in wide
        )
        for backend in ALL_BACKENDS:
            stats, found = ValidationStats(), []
            for batch in batches:
                found += validate_chunked(batch, tables, inst, 10**9, backend, stats=stats)
            assert sorted(found) == brute_force_all(inst), backend.name
            assert stats.exact_hits == len(found)
            # every pair of one interval joins every right pair of it
            assert stats.hash_hits == sum(b.n_left * b.n_right for b in batches)


class TestMassiveMultiplicity:
    def test_all_zero_instance_overflows_hit_buffer(self):
        # every pair collides and matches: 2^13 solutions in one batch
        n = 13
        inst = MspInstance([[0] * n], [0])
        result_sets = []
        from marketsplit.solver import SolverConfig, solve

        for backend in ("parallel", "serial"):
            result = solve(inst, SolverConfig(mode="all", backend=backend))
            assert len(result.solutions) == 2**n
            result_sets.append(result.solutions)
        assert result_sets[0] == result_sets[1]
        assert result_sets[0] == brute_force_all(inst)


class TestBackendParity:
    def test_identical_results_and_stats(self):
        for seed in range(12):
            inst = seeded_instance(seed, m=2, n=4 + seed % 10, k=10)
            tables = build_quarter_tables(inst)
            enum = PairSumEnumerator(tables, int(inst.d[0]))
            for batch in drain_all_batches(enum):
                outputs = []
                for backend in ALL_BACKENDS:
                    stats = ValidationStats()
                    sols = validate_chunked(
                        batch, tables, inst, 10**9, backend, stats=stats
                    )
                    outputs.append((sols, stats))
                assert outputs[0] == outputs[1], seed

    def test_get_backend(self):
        assert get_backend("serial").name == "serial"
        assert get_backend("parallel").name == "parallel"
        with pytest.raises(ValueError):
            get_backend("gpu")

    def test_serial_and_parallel_hashes_identical(self):
        rng = np.random.default_rng(7)
        vecs = rng.integers(0, 2**63, size=(200, 6)).astype(np.uint64)
        serial = SerialBackend().encode(vecs).hashes
        parallel = ParallelBackend().encode(vecs).hashes
        assert np.array_equal(serial, parallel)
        assert serial.tobytes() == parallel.tobytes()
