"""Instance model, text round trips, generation, surrogate reduction."""

from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from marketsplit.instances import (
    MspInstance,
    ParseError,
    ReductionOverflowError,
    SplitMix64,
    generate_instance,
    parse_instance,
    solution_encoding,
    solution_from_string,
    solution_to_string,
    surrogate_reduce,
    verify_solution,
    write_instance,
)
from marketsplit.oracle import brute_force_all

from conftest import seeded_instance, small_instances


class TestParse:
    def test_basic(self):
        inst = parse_instance("2 3\n1 2 3 3\n2 1 3 3\n")
        assert inst.m == 2 and inst.n == 3
        assert inst.a.tolist() == [[1, 2, 3], [2, 1, 3]]
        assert inst.d.tolist() == [3, 3]

    def test_smallest(self):
        inst = parse_instance("1 1\n5 5\n")
        assert inst.m == 1 and inst.n == 1
        assert inst.a.tolist() == [[5]] and inst.d.tolist() == [5]

    def test_short_row(self):
        with pytest.raises(ParseError, match=r"row 1: expected 4 values, found 3"):
            parse_instance("2 3\n1 2 3\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match=r"line 3: row 2"):
            parse_instance("2 2\n1 2 3\n1 2\n")

    def test_comments_and_blanks_skipped(self):
        text = "# header comment\n\n2 3\n# mid comment\n1 2 3 3\n\n2 1 3 3\n"
        inst = parse_instance(text)
        assert inst == parse_instance("2 3\n1 2 3 3\n2 1 3 3\n")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="malformed header"):
            parse_instance("2\n1 2 3\n")
        with pytest.raises(ParseError, match="malformed header"):
            parse_instance("x 3\n1 2 3 4\n")
        with pytest.raises(ParseError, match="positive"):
            parse_instance("0 3\n")

    def test_non_integer_token(self):
        with pytest.raises(ParseError, match="non-integer token 'a'"):
            parse_instance("1 2\n1 a 3\n")

    def test_value_too_large(self):
        big = 1 << 63
        with pytest.raises(ParseError, match="out of range"):
            parse_instance(f"1 1\n{big} 0\n")
        # one below the bound is fine
        inst = parse_instance(f"1 1\n{big - 1} 0\n")
        assert int(inst.a[0, 0]) == big - 1

    @pytest.mark.parametrize("tok", ["1_0", "+3", "\u0663"])
    def test_only_ascii_digits(self, tok):
        # int() accepts all three (as 10, 3 and 3); the format does not
        with pytest.raises(ParseError, match=re.escape(f"non-integer token '{tok}'")):
            parse_instance(f"1 2\n1 {tok} 3\n")
        with pytest.raises(ParseError, match="malformed header"):
            parse_instance(f"1 {tok}\n" + "1 " * 10 + "1\n")

    def test_negative_value(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_instance("1 1\n-3 0\n")

    def test_row_sum_overflow(self):
        v = (1 << 63) - 1
        with pytest.raises(ParseError, match="row sum overflows"):
            parse_instance(f"1 3\n{v} {v} 2 0\n")

    def test_missing_rows(self):
        with pytest.raises(ParseError, match="expected 2 rows, found 1"):
            parse_instance("2 2\n1 2 3\n")

    def test_trailing_content(self):
        with pytest.raises(ParseError, match="unexpected content"):
            parse_instance("1 2\n1 2 3\n4 5 6\n")

    def test_accepts_file_object(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("1 2\n1 2 1\n")
        with open(path) as fh:
            inst = parse_instance(fh)
        assert inst.n == 2


class TestWrite:
    def test_canonical_form(self):
        inst = MspInstance([[1, 2]], [1])
        assert write_instance(inst) == "1 2\n1 2 1\n"

    def test_round_trip_parse_write(self):
        text = "2 3\n1 2 3 3\n2 1 3 3\n"
        assert write_instance(parse_instance(text)) == text

    def test_write_parse_idempotent(self):
        messy = "# c\n 2  3 \n1 2 3 3\n2 1 3 3\n"
        once = write_instance(parse_instance(messy))
        assert write_instance(parse_instance(once)) == once

    @given(small_instances(max_m=4, max_n=10, max_coeff=50))
    def test_round_trip_identity(self, inst):
        assert parse_instance(write_instance(inst)) == inst

    @given(
        st.integers(1, 4).flatmap(lambda m: st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 2**60 - 1), min_size=n + 1, max_size=n + 1),
                min_size=m, max_size=m,
            )
        ))
    )
    def test_write_parse_round_trip_wide_values(self, rows):
        inst = MspInstance([r[:-1] for r in rows], [r[-1] for r in rows])
        text = write_instance(inst)
        assert parse_instance(text) == inst
        assert write_instance(parse_instance(text)) == text

    @given(st.text(alphabet="0123456789 \n#+-_x\u0663\uff11", max_size=40))
    def test_fuzzed_text_parses_strictly_or_raises(self, text):
        try:
            inst = parse_instance(text)
        except ParseError:
            return
        tokens = [
            tok
            for line in text.splitlines()
            if not line.strip().startswith("#")
            for tok in line.split()
        ]
        assert all(tok.isascii() and tok.isdigit() for tok in tokens)
        assert parse_instance(write_instance(inst)) == inst


class TestGenerate:
    def test_shape_and_range(self):
        inst = generate_instance(4, 100, 12345)
        assert inst.m == 4 and inst.n == 30
        assert int(inst.a.max()) <= 99
        assert inst.k_bound == 100

    def test_half_sum_targets(self):
        inst = generate_instance(3, 50, 7)
        for i, s in enumerate(inst.row_sums()):
            assert 2 * int(inst.d[i]) in (s - 1, s)

    def test_deterministic(self):
        a = generate_instance(3, 50, 7)
        b = generate_instance(3, 50, 7)
        assert a == b
        assert write_instance(a) == write_instance(b)

    def test_distinct_seeds_differ(self):
        assert generate_instance(3, 50, 7) != generate_instance(3, 50, 8)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            generate_instance(1, 100, 0)
        with pytest.raises(ValueError):
            generate_instance(3, 1, 0)

    def test_splitmix_reference_values(self):
        # First outputs for seed 0; fixed forever so generated corpora
        # stay reproducible across releases.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_uniform_draw_range(self):
        rng = SplitMix64(99)
        draws = [rng.below(10) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 9


class TestSurrogate:
    def test_worked_example(self):
        inst = MspInstance([[1, 2], [3, 1]], [3, 4])
        red = surrogate_reduce(inst, 2)
        assert red.m == 1
        assert red.a.tolist() == [[25, 10]]
        assert red.d.tolist() == [35]
        assert verify_solution(inst, (1, 1)) and verify_solution(red, (1, 1))

    def test_full_reduction_row_count(self):
        inst = seeded_instance(1, m=4, n=6, k=9)
        assert surrogate_reduce(inst, 2).m == 3
        assert surrogate_reduce(inst, 4).m == 1

    def test_r_out_of_range(self):
        inst = MspInstance([[1, 2], [3, 1]], [3, 4])
        with pytest.raises(ValueError, match="r out of range"):
            surrogate_reduce(inst, 3)
        with pytest.raises(ValueError, match="r out of range"):
            surrogate_reduce(inst, 1)

    def test_equivalence_by_exhaustion(self):
        for seed in range(100):
            inst = seeded_instance(
                1000 + seed, m=3, n=8, k=10, d_mode="half" if seed % 2 else "random"
            )
            original = brute_force_all(inst)
            for r in (2, 3):
                assert brute_force_all(surrogate_reduce(inst, r)) == original, (
                    seed,
                    r,
                )

    def test_overflow_rejected_with_max_r(self):
        big = 1 << 40
        inst = MspInstance(
            [[big] * 4, [big] * 4, [big] * 4], [big, big, big]
        )
        with pytest.raises(ReductionOverflowError, match="reduction overflow") as exc:
            surrogate_reduce(inst, 3)
        assert exc.value.max_rows == 1

    def test_unattainable_target_stays_equivalent(self):
        # A target above its row sum must not become satisfiable after
        # merging; the merge base grows to keep digits separate.
        inst = MspInstance([[1, 1], [1, 1]], [5, 0])
        red = surrogate_reduce(inst, 2)
        assert brute_force_all(red) == brute_force_all(inst) == []


class TestVerify:
    def test_examples(self):
        inst = MspInstance([[1, 2, 3], [2, 1, 3]], [3, 3])
        assert verify_solution(inst, (1, 1, 0))
        assert not verify_solution(inst, (1, 0, 0))

    def test_zero_vector(self):
        inst = MspInstance([[1, 2], [3, 4]], [0, 0])
        assert verify_solution(inst, (0, 0))
        assert not verify_solution(MspInstance([[1, 2]], [1]), (0, 0))

    def test_length_mismatch(self):
        inst = MspInstance([[1, 2, 3]], [3])
        with pytest.raises(ValueError, match="length"):
            verify_solution(inst, (1, 0))

    def test_non_binary_entry(self):
        # A x = 2 != 1, so counting 2 as a chosen column would accept it
        inst = MspInstance([[1, 1]], [1])
        for x in ((2, 0), (0, -1)):
            with pytest.raises(ValueError, match="0 or 1"):
                verify_solution(inst, x)


class TestSolutionHelpers:
    def test_string_round_trip(self):
        assert solution_to_string((1, 1, 0)) == "110"
        assert solution_from_string("110") == (1, 1, 0)
        with pytest.raises(ValueError):
            solution_from_string("10x")

    def test_encoding_is_lexicographic(self):
        # x1 is the most significant bit, so encoding order and string
        # order coincide.
        assert solution_encoding((0, 0, 1)) == 1
        assert solution_encoding((1, 1, 0)) == 6
        vecs = [(0, 1, 1), (1, 0, 0), (0, 0, 1), (1, 1, 1)]
        by_enc = sorted(vecs, key=solution_encoding)
        by_str = sorted(vecs, key=solution_to_string)
        assert by_enc == by_str


class TestInstanceModel:
    def test_invariant_checks(self):
        with pytest.raises(ValueError):
            MspInstance([[1, 2], [3]], [1, 2])
        with pytest.raises(ValueError):
            MspInstance([[1, -2]], [1])
        with pytest.raises(ValueError):
            MspInstance([[1, 2]], [1, 2])
        with pytest.raises(ValueError, match="overflows"):
            MspInstance([[(1 << 63), (1 << 63)]], [0])

    def test_immutable_arrays(self):
        inst = MspInstance([[1, 2]], [1])
        with pytest.raises(ValueError):
            inst.a[0, 0] = 9

    def test_k_bound_not_part_of_equality(self):
        assert MspInstance([[1]], [1], k_bound=5) == MspInstance([[1]], [1])
