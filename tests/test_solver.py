"""End-to-end solve behavior: modes, fallbacks, pipeline, determinism."""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketsplit import enumerate1d
from marketsplit import solver as solver_module
from marketsplit.enumerate1d import (
    PairSumEnumerator,
    SumsetEnumerator,
    build_quarter_tables,
)
from marketsplit.instances import (
    MspInstance,
    SplitMix64,
    generate_instance,
    surrogate_reduce,
    verify_solution,
)
from marketsplit.oracle import brute_force_all
from marketsplit.solver import (
    BRUTE_FORCE_MAX_N,
    SolveTimeout,
    SolverConfig,
    solve,
)
from marketsplit.validate import validate_chunked

from conftest import seeded_instance, small_instances, twin_instance


class TestSolveBasics:
    def test_all_solutions_worked_example(self):
        inst = MspInstance([[1, 2, 3], [2, 1, 3]], [3, 3])
        result = solve(inst, SolverConfig(mode="all"))
        assert result.verdict == "feasible"
        assert result.solutions == [(0, 0, 1), (1, 1, 0)]

    def test_parity_infeasible(self):
        inst = MspInstance([[2, 2, 2, 2]], [3])
        result = solve(inst, SolverConfig(mode="first"))
        assert result.verdict == "infeasible"
        assert result.solutions == []

    def test_zero_rhs_first_mode(self):
        inst = seeded_instance(1, m=2, n=16, k=9)
        zero = MspInstance(inst.a.tolist(), [0, 0])
        result = solve(zero, SolverConfig(mode="first"))
        assert result.feasible and result.solutions == [(0,) * 16]

    def test_zero_rhs_all_mode_with_zero_columns(self):
        # a zero column creates a second solution for d = 0
        inst = MspInstance([[0, 1, 2, 3, 4]], [0])
        result = solve(inst, SolverConfig(mode="all"))
        assert result.solutions == brute_force_all(inst)
        assert len(result.solutions) == 2

    def test_brute_force_fallback_on_small_n(self):
        inst = seeded_instance(2, m=2, n=BRUTE_FORCE_MAX_N, k=9)
        result = solve(inst, SolverConfig(mode="all"))
        assert result.stats.fallback == "brute-force"
        assert result.solutions == brute_force_all(inst)

    def test_every_solution_verifies(self):
        inst = seeded_instance(3, m=2, n=14, k=6)
        result = solve(inst, SolverConfig(mode="all"))
        assert result.feasible
        for x in result.solutions:
            assert verify_solution(inst, x)

    def test_config_validation(self):
        inst = MspInstance([[1, 1, 1, 1]], [2])
        with pytest.raises(ValueError):
            solve(inst, SolverConfig(mode="some"))
        with pytest.raises(ValueError):
            solve(inst, SolverConfig(pipeline_depth=0))
        with pytest.raises(ValueError):
            solve(inst, SolverConfig(chunk_pairs=0))
        with pytest.raises(ValueError):
            solve(inst, SolverConfig(backend="gpu"))
        with pytest.raises(ValueError):
            solve(inst, SolverConfig(reduce_rows=0))

    def test_reduce_rows_out_of_range(self):
        inst = MspInstance([[1, 2, 3, 4]], [5])
        with pytest.raises(ValueError, match="r out of range"):
            solve(inst, SolverConfig(reduce_rows=2))


class TestOracleEquivalence:
    def test_all_solutions_match_brute_force(self):
        for seed in range(30):
            inst = seeded_instance(
                seed,
                m=1 + seed % 3,
                n=13 + seed % 8,
                k=10 if seed % 2 else 5,
                d_mode="half" if seed % 3 else "random",
            )
            expected = brute_force_all(inst)
            got = solve(inst, SolverConfig(mode="all"))
            assert got.solutions == expected, seed
            assert got.verdict == ("feasible" if expected else "infeasible")

    def test_first_mode_never_misses(self):
        for seed in range(30):
            inst = seeded_instance(seed, m=2, n=14, k=7)
            expected = brute_force_all(inst)
            got = solve(inst, SolverConfig(mode="first"))
            if expected:
                assert got.feasible and got.solutions[0] in expected
            else:
                assert not got.feasible


class TestReduction:
    def test_reduction_transparency(self):
        for seed in range(15):
            inst = seeded_instance(100 + seed, m=3, n=14, k=8)
            plain = solve(inst, SolverConfig(mode="all"))
            reduced = solve(inst, SolverConfig(mode="all", reduce_rows=2))
            fully = solve(inst, SolverConfig(mode="all", reduce_rows=3))
            assert plain.solutions == reduced.solutions == fully.solutions, seed

    def test_reduced_solutions_verify_against_original(self):
        inst = seeded_instance(7, m=3, n=16, k=6)
        result = solve(inst, SolverConfig(mode="all", reduce_rows=3))
        for x in result.solutions:
            assert verify_solution(inst, x)


class TestPipeline:
    def test_depth_and_workers_do_not_change_results(self):
        for seed in (0, 5, 9):
            inst = seeded_instance(seed, m=2, n=15, k=8)
            reference = solve(
                inst, SolverConfig(mode="all", pipeline_depth=1, worker_count=1)
            )
            for depth, workers in ((2, 1), (8, 2), (4, 3)):
                got = solve(
                    inst,
                    SolverConfig(
                        mode="all", pipeline_depth=depth, worker_count=workers
                    ),
                )
                assert got.solutions == reference.solutions, (seed, depth, workers)
                assert got.stats.batches == reference.stats.batches

    def test_first_mode_pipelined(self, monkeypatch):
        # a pair budget down to the window cap splits each n = 20 sweep
        # into 13-16 batches, most of them holding solutions, so
        # validators running side by side can solve a later batch first
        monkeypatch.setattr(enumerate1d, "BATCH_PAIRS", 1)
        instances = [seeded_instance(seed, m=2, n=14, k=6) for seed in range(10)]
        instances += [seeded_instance(seed, m=2, n=20, k=100) for seed in range(4)]
        feasible = 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
        try:
            for inst in instances:
                runs = [
                    solve(
                        inst,
                        SolverConfig(
                            mode="first", pipeline_depth=depth, worker_count=workers
                        ),
                    )
                    for depth, workers in ((1, 1), (4, 1), (1, 2), (4, 3))
                ]
                expected = brute_force_all(inst)
                if expected:
                    feasible += 1
                    assert runs[0].feasible and runs[0].solutions[0] in expected
                else:
                    assert not runs[0].feasible
                # the smallest alpha, counted up to it, whoever validates
                for got in runs[1:]:
                    assert got.solutions == runs[0].solutions
                    assert (got.stats.batches, got.stats.max_batch_pairs) == (
                        runs[0].stats.batches,
                        runs[0].stats.max_batch_pairs,
                    )
                    assert got.stats.progress == runs[0].stats.progress
        finally:
            sys.setswitchinterval(interval)
        assert feasible > 0

    def test_one_validator_counts_repeat(self):
        # one validator refilling a depth-4 buffer sweeps ahead of the
        # solving batch by the same windows every time, even while
        # another solve runs beside it
        inst = generate_instance(5, 100, 18)
        cfg = SolverConfig(
            mode="first", reduce_rows=3, pipeline_depth=4, worker_count=1
        )
        fields = (
            "windows",
            "batches",
            "validate_calls",
            "candidates_left",
            "candidates_right",
        )
        alone = solve(inst, cfg).stats
        beside = threading.Thread(target=solve, args=(inst, cfg), daemon=True)
        beside.start()
        shared = solve(inst, cfg).stats
        beside.join(timeout=30.0)
        assert not beside.is_alive()
        assert [getattr(alone, f) for f in fields] == [
            getattr(shared, f) for f in fields
        ]
        # it swept ahead, but validated nothing past the solving batch
        depth1 = SolverConfig(mode="first", reduce_rows=3, worker_count=1)
        one = solve(inst, depth1).stats
        assert alone.windows > one.windows
        assert [getattr(alone, f) for f in fields[1:]] == [
            getattr(one, f) for f in fields[1:]
        ]

    def test_one_validator_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-validator solve started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        inst = seeded_instance(0, m=2, n=16, k=8)
        for mode in ("first", "all"):
            cfg = SolverConfig(mode=mode, pipeline_depth=4, worker_count=1)
            got = solve(inst, cfg)
            assert got.feasible and got.stats.batches > 1
        assert got.solutions == brute_force_all(inst)

    def test_one_batch_default_solve_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-batch solve started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)  # four validators
        # one window of 16 alphas, matched and validated in one call
        inst = seeded_instance(4, m=2, n=16, k=8)
        for cfg in (SolverConfig(), SolverConfig(mode="all")):
            got = solve(inst, cfg)
            assert got.feasible and got.stats.validate_calls == 1
            assert got.stats.batches > 1  # one batch of several alphas
        assert got.solutions == brute_force_all(inst)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solve_frees_its_tables_without_gc(self, monkeypatch, workers):
        # the run loop's closures hold the tables; a reference cycle among
        # them would keep every finished solve's tables until a collection
        tables = []
        build = solver_module.build_quarter_tables

        def recording_build(*args):
            built = build(*args)
            tables.extend(weakref.ref(t) for t in built)
            return built

        monkeypatch.setattr(solver_module, "build_quarter_tables", recording_build)
        inst = seeded_instance(0, m=2, n=16, k=8)
        gc.disable()
        try:
            solve(inst, SolverConfig(worker_count=workers))
            assert tables and all(ref() is None for ref in tables)
        finally:
            gc.enable()

    def test_first_mode_stops_early(self):
        # a feasible instance whose first solution appears before exhaustion
        for seed in range(20):
            inst = seeded_instance(300 + seed, m=2, n=16, k=8)
            full = solve(inst, SolverConfig(mode="all"))
            if not full.feasible:
                continue
            first = solve(inst, SolverConfig(mode="first"))
            if first.stats.batches < full.stats.batches:
                assert first.stats.progress < 1.0 == full.stats.progress
                return
        pytest.fail("no instance stopped early")


def _per_alpha_first(inst: MspInstance, reduce_rows: int):
    """First-mode reference: the heap's batches, one alpha and one
    `validate_chunked` call each, up to the first solution.  Returns the
    solutions, batches, max_batch_pairs and progress a solve reports."""
    work = surrogate_reduce(inst, reduce_rows) if reduce_rows > 1 else inst
    tables = build_quarter_tables(work)
    target = int(work.d[0])
    enum = PairSumEnumerator(tables, target)
    batches = max_pairs = 0
    while (batch := enum.next_batch()) is not None:
        batches += 1
        max_pairs = max(max_pairs, batch.n_left + batch.n_right)
        sols = validate_chunked(batch, tables, work, 10**9)
        if sols:
            return sols[:1], batches, max_pairs, batch.alpha / target
    return [], batches, max_pairs, 1.0


def _place_in_group(inst: MspInstance, reduce_rows: int, alpha: int):
    """(position, size) of `alpha` in the sumset batch holding it."""
    work = surrogate_reduce(inst, reduce_rows)
    enum = SumsetEnumerator(build_quarter_tables(work), int(work.d[0]))
    while (batch := enum.next_batch()) is not None:
        alphas = batch.alphas.tolist()
        if alpha in alphas:
            return alphas.index(alpha), len(alphas)
    raise AssertionError(f"alpha {alpha} not enumerated")


class TestWindowBatchesThroughSolver:
    """With reduce_rows=3 most alphas leave the sweep in batches of many
    alphas; a first-solution solve must still read like the per-alpha
    loop."""

    @pytest.mark.parametrize("depth", [1, 4])
    def test_first_mode_reduced_equals_per_alpha_loop(self, depth):
        # feasible instances whose solving alpha sits in a batch before
        # other alphas: first of 8 and of 13 (m = 3), and 4,596th of
        # 16,216 (m = 5), in the middle of a group that spans windows
        instances = [
            seeded_instance(0, m=3, n=28, k=100),
            seeded_instance(8, m=3, n=28, k=100),
            generate_instance(5, 100, 18),
        ]
        places = []
        calls = batches = 0
        for inst in instances:
            expected = _per_alpha_first(inst, 3)
            work = surrogate_reduce(inst, 3)
            places.append(
                _place_in_group(inst, 3, round(expected[3] * int(work.d[0])))
            )
            cfg = SolverConfig(
                mode="first", reduce_rows=3, pipeline_depth=depth, worker_count=1
            )
            result = solve(inst, cfg)
            s = result.stats
            got = (result.solutions, s.batches, s.max_batch_pairs, s.progress)
            assert got == expected, inst.n
            assert result.verdict == "feasible"
            calls, batches = calls + s.validate_calls, batches + s.batches
        assert calls < batches  # groups were validated whole
        assert all(pos < size - 1 for pos, size in places)
        assert any(0 < pos for pos, _ in places)  # mid-group


class TestWideIntervalsThroughSolver:
    """Unreduced small-coefficient sweeps validate narrow windows as wide
    alpha intervals; first mode must still return the per-alpha loop's
    vector."""

    @pytest.mark.parametrize("seed", [4, 20, 34, 43])
    def test_first_mode_with_two_solutions_at_smallest_alpha(self, seed):
        # the smallest solving alpha holds two solutions (columns 0 and 6
        # swapped), inside a batch of one wide interval in which a larger
        # alpha's solution is found first
        inst = twin_instance(seed)
        tables = build_quarter_tables(inst)
        cols = tables[0].var_indices + tables[1].var_indices
        alphas = sorted(
            sum(int(inst.a[0, c]) for c in cols if x[c]) for x in brute_force_all(inst)
        )
        assert alphas.count(alphas[0]) >= 2
        enum = SumsetEnumerator(tables, int(inst.d[0]))
        batch = next(b for b in iter(enum.next_batch, None) if alphas[0] in b.alphas)
        assert len(batch.alpha_at) == 2 and len(batch.alphas) > 1
        expected = _per_alpha_first(inst, 1)
        for depth, workers in ((1, 1), (4, 2)):
            cfg = SolverConfig(mode="first", pipeline_depth=depth, worker_count=workers)
            result = solve(inst, cfg)
            s = result.stats
            assert (result.solutions, s.batches, s.max_batch_pairs, s.progress) == expected


class TestFirstModeOvershoot:
    """A first-solution solve validates its solving batch whole, so the
    pair budget trades validation calls against work past the solving
    alpha; with one validator that work stays within one budget."""

    @staticmethod
    def _pairs_past(batch, tables, alpha: int) -> int:
        """Pairs of `batch` on both sides whose alpha exceeds `alpha`."""
        ta, tb, tc, td = tables
        left, right = batch.left_pairs[:], batch.right_pairs[:]
        l_alpha = ta.weights[left[:, 0]] + tb.weights[left[:, 1]]
        r_beta = tc.weights[right[:, 0]] + td.weights[right[:, 1]]
        r_alpha = np.uint64(batch.target) - r_beta
        return int((l_alpha > alpha).sum() + (r_alpha > alpha).sum())

    @pytest.mark.parametrize("budget", [None, 2**12], ids=["default", "small"])
    @pytest.mark.parametrize("m,seed", [(5, 14), (5, 17), (6, 5), (6, 9)])
    def test_pairs_past_solving_alpha_within_budget(self, monkeypatch, budget, m, seed):
        if budget is not None:
            monkeypatch.setattr(enumerate1d, "BATCH_PAIRS", budget)
        enums, batches = [], []

        def recording_enumerator(*args):
            enums.append(SumsetEnumerator(*args))
            return enums[-1]

        def recording_validate(batch, *args, **kwargs):
            batches.append(batch)
            return validate_chunked(batch, *args, **kwargs)

        monkeypatch.setattr(solver_module, "SumsetEnumerator", recording_enumerator)
        monkeypatch.setattr(solver_module, "validate_chunked", recording_validate)
        inst = generate_instance(m, 100, seed)
        result = solve(inst, SolverConfig(mode="first", worker_count=1))
        assert result.verdict == "feasible"
        (enum,) = enums
        assert enum.batch_pairs == max(enum.window_pairs, budget or enumerate1d.BATCH_PAIRS)
        tables = enum.tables
        cols = tables[0].var_indices + tables[1].var_indices
        alpha = sum(int(inst.a[0, c]) for c in cols if result.solutions[0][c])
        # the solving batch is the last one validated
        assert alpha in batches[-1].alphas
        assert all(b.alphas[-1] < alpha for b in batches[:-1])
        past = self._pairs_past(batches[-1], tables, alpha)
        assert past <= enum.batch_pairs
        assert result.stats.validate_calls == len(batches)


class TestBackendsThroughSolver:
    def test_serial_backend_agrees(self):
        for seed in (2, 4, 6):
            inst = seeded_instance(seed, m=2, n=14, k=7)
            parallel = solve(inst, SolverConfig(mode="all", backend="parallel"))
            serial = solve(inst, SolverConfig(mode="all", backend="serial"))
            assert parallel.solutions == serial.solutions


class TestTimeout:
    def test_timeout_raises(self):
        inst = seeded_instance(0, m=3, n=20, k=100)
        with pytest.raises(SolveTimeout) as info:
            solve(inst, SolverConfig(mode="all"), time_limit=1e-9)
        stats = info.value.stats
        assert stats.peak_table_entries == 4 * 2**5 and stats.t_total > 0

    def test_timeout_pipelined(self):
        inst = seeded_instance(0, m=3, n=20, k=100)
        with pytest.raises(SolveTimeout):
            solve(
                inst,
                SolverConfig(mode="all", pipeline_depth=4, worker_count=2),
                time_limit=1e-9,
            )

    @staticmethod
    def _one_big_batch():
        # a zero first row puts all 2^16 x 2^16 pairs into one batch;
        # validating it in chunks of 64 takes far longer than the limit
        rng = SplitMix64(77)
        row = [rng.below(100) for _ in range(32)]
        return MspInstance([[0] * 32, row], [0, sum(row) // 2])

    @pytest.mark.parametrize("depth, workers", [(1, 1), (2, 1), (2, 2)])
    def test_deadline_fires_inside_one_batch(self, depth, workers):
        inst = self._one_big_batch()
        cfg = SolverConfig(
            mode="all", chunk_pairs=64, pipeline_depth=depth, worker_count=workers
        )
        t0 = time.perf_counter()
        with pytest.raises(SolveTimeout) as info:
            solve(inst, cfg, time_limit=0.5)
        assert time.perf_counter() - t0 < 5.0
        # the partial stats: the batch, and the chunks validated so far
        stats = info.value.stats
        assert stats.batches >= 1 and stats.validate_calls == 1
        assert 1 <= stats.candidates_left < 2**16
        assert stats.t_total >= 0.5
        assert 0.0 <= stats.progress <= 1.0

    @pytest.mark.parametrize("depth, workers", [(1, 1), (2, 1), (2, 2)])
    def test_deadline_fires_between_windows(self, depth, workers):
        # even first-row weights and an odd d_1: no window holds an alpha,
        # so the sweep emits no batch; its ~2000 windows take seconds
        rng = SplitMix64(5)
        row0 = [2 * rng.below(1 << 20) for _ in range(52)]
        row1 = [rng.below(100) for _ in range(52)]
        inst = MspInstance([row0, row1], [sum(row0) // 2 | 1, sum(row1) // 2])
        cfg = SolverConfig(mode="all", pipeline_depth=depth, worker_count=workers)
        t0 = time.perf_counter()
        with pytest.raises(SolveTimeout) as info:
            solve(inst, cfg, time_limit=0.2)
        assert time.perf_counter() - t0 < 2.0
        stats = info.value.stats
        assert stats.batches == 0 and stats.validate_calls == 0
        assert stats.windows >= 1 and stats.progress == 0.0
        assert stats.t_total >= 0.2

    def test_no_timeout_when_fast(self):
        inst = MspInstance([[1, 2, 3], [2, 1, 3]], [3, 3])
        result = solve(inst, SolverConfig(mode="all"), time_limit=60.0)
        assert result.feasible


class _Injected(Exception):
    pass


class TestErrorsEscape:
    """An exception in the enumerator or in a validation call ends the
    solve with that exception, whether it is raised on the calling
    thread or on a helper, and leaves no thread behind."""

    @staticmethod
    def _fail_on_second_call(fn):
        lock, calls = threading.Lock(), [0]

        def wrapped(*args, **kwargs):
            with lock:
                calls[0] += 1
                nth = calls[0]
            if nth == 2:
                raise _Injected(f"{fn.__name__} call {nth}")
            return fn(*args, **kwargs)

        return wrapped

    @pytest.mark.parametrize("depth, workers", [(1, 1), (4, 1), (1, 2), (4, 2)])
    @pytest.mark.parametrize("where", ["validate", "enumerate"])
    def test_error_propagates(self, monkeypatch, where, depth, workers):
        # a pair budget down to the window cap (4 * 2^5 pairs) splits the
        # sweep into many batches, so there is a second call to fail
        monkeypatch.setattr(enumerate1d, "BATCH_PAIRS", 1)
        inst = seeded_instance(0, m=2, n=20, k=100)
        cfg = SolverConfig(mode="all", pipeline_depth=depth, worker_count=workers)
        assert solve(inst, cfg).stats.validate_calls >= 2  # 13 calls
        if where == "validate":
            monkeypatch.setattr(
                solver_module,
                "validate_chunked",
                self._fail_on_second_call(validate_chunked),
            )
        else:
            monkeypatch.setattr(
                SumsetEnumerator,
                "next_batch",
                self._fail_on_second_call(SumsetEnumerator.next_batch),
            )
        before = set(threading.enumerate())
        raised: list[BaseException] = []

        def run() -> None:
            try:
                solve(inst, cfg)
            except BaseException as exc:
                raised.append(exc)

        # a hung solve fails the test instead of stalling the suite
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=5.0)
        assert not runner.is_alive()
        assert len(raised) == 1 and isinstance(raised[0], _Injected)
        assert "call 2" in str(raised[0])
        assert set(threading.enumerate()) <= before


class TestStats:
    def test_stats_populated_on_table_path(self):
        inst = seeded_instance(8, m=2, n=16, k=9)
        result = solve(inst, SolverConfig(mode="all"))
        s = result.stats
        assert s.batches > 0
        assert s.candidates_left > 0 and s.candidates_right > 0
        assert s.peak_table_entries == 4 * 2**4
        assert s.engine == "python"
        assert 0 < s.peak_window_pairs <= 4 * 2**4
        assert s.windows >= 1
        assert s.exact_hits == len(result.solutions)
        assert 1 <= s.validate_calls <= s.batches
        assert s.t_total > 0
        assert s.progress == 1.0

    def test_max_batch_pairs(self):
        inst = seeded_instance(8, m=2, n=16, k=9)
        tables = build_quarter_tables(inst)
        enum = PairSumEnumerator(tables, int(inst.d[0]))
        expected = 0
        while (batch := enum.next_batch()) is not None:
            expected = max(expected, batch.n_left + batch.n_right)
        for depth, workers in ((1, 1), (4, 2)):
            cfg = SolverConfig(mode="all", pipeline_depth=depth, worker_count=workers)
            stats = solve(inst, cfg).stats.as_dict()
            assert stats["max_batch_pairs"] == expected > 1
            assert "filtered_residuals" not in stats

    def test_hash_hits_at_least_exact_hits(self):
        inst = seeded_instance(9, m=1, n=15, k=5)
        result = solve(inst, SolverConfig(mode="all"))
        assert result.stats.hash_hits >= result.stats.exact_hits


@given(small_instances(max_m=3, min_n=4, max_n=11, max_coeff=9))
@settings(max_examples=60, deadline=None)
def test_property_solver_equals_oracle(inst):
    expected = brute_force_all(inst)
    result = solve(inst, SolverConfig(mode="all"))
    assert result.solutions == expected
