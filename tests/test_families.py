import json
import math

import pytest
from hypothesis import given, strategies as st

from vccover import (
    FamilyFormatError,
    Parameters,
    elements_of,
    enumerate_subsets,
    make_family,
    read_family,
    read_family_json,
    write_family,
    write_family_json,
)


def factorial_binomial(n: int, r: int) -> int:
    # Independent of math.comb and of the enumerator.
    return math.factorial(n) // (math.factorial(r) * math.factorial(n - r))


class TestMakeFamily:
    def test_dedup_and_uniform_detection(self):
        f = make_family(4, [{1, 2}, {3, 4}, {1, 2}])
        assert len(f) == 2
        assert f.uniform_size == 2

    def test_empty_member_allowed(self):
        f = make_family(3, [set()])
        assert len(f) == 1
        assert f.uniform_size == 0

    def test_element_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            make_family(5, [{1, 6}])

    def test_zero_ground(self):
        with pytest.raises(ValueError):
            make_family(0, [])

    def test_mixed_sizes_not_uniform(self):
        f = make_family(4, [{1}, {2, 3}])
        assert f.uniform_size is None

    @given(
        st.integers(min_value=1, max_value=10).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.sets(st.integers(min_value=1, max_value=n)), max_size=12),
            )
        )
    )
    def test_canonical_order_is_permutation_invariant(self, case):
        n, members = case
        f = make_family(n, members)
        g = make_family(n, list(reversed(members)))
        assert f == g
        masks = f.members
        assert all(a < b for a, b in zip(masks, masks[1:]))


class TestFileFormat:
    def test_read_example(self):
        f = read_family("vcfam 1\nn=4 s=2\n1 2\n3 4\n")
        assert f == make_family(4, [{1, 2}, {3, 4}])

    def test_write_example(self):
        f = make_family(4, [{1, 2}, {3, 4}])
        assert write_family(f) == "vcfam 1\nn=4 s=2\n1 2\n3 4\n"

    def test_unsorted_line_rejected(self):
        with pytest.raises(FamilyFormatError, match="unsorted"):
            read_family("vcfam 1\nn=4 s=2\n2 1\n")

    def test_duplicate_member_rejected(self):
        with pytest.raises(FamilyFormatError, match="duplicate"):
            read_family("vcfam 1\nn=4 s=2\n1 2\n1 2\n")

    def test_noncanonical_member_order_rejected(self):
        with pytest.raises(FamilyFormatError, match="canonical order"):
            read_family("vcfam 1\nn=4 s=2\n3 4\n1 2\n")

    def test_malformed_header(self):
        for text in ["", "vcfam 2\nn=4 s=2\n", "vcfam 1\nn=four s=2\n", "vcfam 1\n"]:
            with pytest.raises(FamilyFormatError):
                read_family(text)

    # Lines that int() would read but write_family never writes.
    @pytest.mark.parametrize("line", ["", "+1 2", "1 02", "1  2", " 1 2", "1 2\t", "1 \u0662"])
    def test_non_canonical_member_line_rejected(self, line):
        with pytest.raises(FamilyFormatError):
            read_family(f"vcfam 1\nn=4 s=mixed\n{line}\n1 2 3\n")

    @pytest.mark.parametrize("header", ["n=04 s=2", "n=4 s=02", "n=4  s=2"])
    def test_non_canonical_header_rejected(self, header):
        with pytest.raises(FamilyFormatError, match="malformed header"):
            read_family(f"vcfam 1\n{header}\n1 2\n")

    def test_size_mismatch_rejected(self):
        with pytest.raises(FamilyFormatError, match="size"):
            read_family("vcfam 1\nn=4 s=3\n1 2\n")

    def test_mixed_header_for_uniform_members_rejected(self):
        with pytest.raises(FamilyFormatError, match="uniform"):
            read_family("vcfam 1\nn=4 s=mixed\n1 2\n3 4\n")

    def test_empty_member_round_trip(self):
        f = make_family(3, [set(), {1, 3}])
        assert read_family(write_family(f)) == f
        assert "-" in write_family(f)

    def test_round_trip_on_corpus(self, corpus):
        for name, f in corpus:
            text = write_family(f)
            assert read_family(text) == f, name
            assert write_family(read_family(text)) == text, name

    def test_json_round_trip_on_corpus(self, corpus):
        for name, f in corpus:
            assert read_family_json(write_family_json(f)) == f, name

    def test_json_rejects_disorder(self):
        with pytest.raises(FamilyFormatError):
            read_family_json('{"n": 4, "members": [[3, 4], [1, 2]]}')
        with pytest.raises(FamilyFormatError):
            read_family_json('{"n": 4, "members": [[1, 2], [1, 2]]}')

    def test_json_rejects_bool_ground_size(self):
        # bool is an int subclass; n=true would make a family the text form rejects.
        with pytest.raises(FamilyFormatError, match="ground size"):
            read_family_json('{"n": true, "members": [[1]]}')

    def test_json_rejects_bool_elements(self):
        for members in ("[[true]]", "[[1, true]]", "[[false, 1]]"):
            with pytest.raises(FamilyFormatError, match="bad member"):
                read_family_json('{"n": 3, "members": %s}' % members)

    def test_json_rejects_non_list_members(self):
        for members in ("5", '"12"', "{}"):
            with pytest.raises(FamilyFormatError):
                read_family_json('{"n": 3, "members": %s}' % members)

    def test_json_and_text_share_member_checks(self):
        cases = [
            ("2 1", [2, 1], "unsorted"),
            ("1 5", [1, 5], "out of range"),
            ("0", [0], "out of range"),
        ]
        for line, member, message in cases:
            with pytest.raises(FamilyFormatError, match=message):
                read_family(f"vcfam 1\nn=4 s=mixed\n{line}\n")
            with pytest.raises(FamilyFormatError, match=message):
                read_family_json(json.dumps({"n": 4, "members": [member]}))


class TestEnumerateSubsets:
    def test_all_pairs_of_three(self):
        got = [elements_of(m) for m in enumerate_subsets(3, 2)]
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_empty_size(self):
        assert list(enumerate_subsets(4, 0)) == [0]

    def test_count_matches_factorial_oracle(self):
        assert sum(1 for _ in enumerate_subsets(10, 5)) == factorial_binomial(10, 5)

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_subsets(3, 4))

    def test_counts_and_order_small_grid(self):
        # Exhaustive: every n <= 12, every r; exactly C(n,r) distinct masks,
        # strictly increasing, each of the right popcount.
        for n in range(0, 13):
            for r in range(0, n + 1):
                masks = list(enumerate_subsets(n, r))
                assert len(masks) == factorial_binomial(n, r)
                assert len(set(masks)) == len(masks)
                assert all(m.bit_count() == r for m in masks)
                assert all(a < b for a, b in zip(masks, masks[1:]))


class TestParameters:
    def test_validation(self):
        Parameters(1, 2, 3)
        with pytest.raises(ValueError):
            Parameters(3, 2, 3)
        with pytest.raises(ValueError):
            Parameters(0, 1, 2)
        with pytest.raises(ValueError):
            Parameters(1, 2, 300)
