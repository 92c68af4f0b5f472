import json
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from vccover import (
    FamilyFormatError,
    Parameters,
    SetFamily,
    covering_witness_family,
    elements_of,
    enumerate_subsets,
    full_family,
    make_family,
    read_family,
    read_family_json,
    write_family,
    write_family_json,
)
from vccover.bitsets import iter_fixed_size_masks


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


class TestSetFamilyInvariant:
    """The constructor is the one place that holds the canonical form."""

    @pytest.mark.parametrize(
        "n, members",
        [
            (4, (12, 3)),  # unsorted
            (4, (3, 3, 12)),  # duplicate
            (4, (-1, 3)),  # negative mask
            (4, (3, 16)),  # element 5 outside [4]
            (3, (32,)),  # element 6 outside [3]
            (0, ()),
            (257, (1,)),
        ],
    )
    def test_non_canonical_refused(self, n, members):
        with pytest.raises(ValueError):
            SetFamily(n, members)

    def test_uniform_size_derived(self):
        assert SetFamily(4, (3, 12)).uniform_size == 2
        assert SetFamily(4, (1, 6)).uniform_size is None
        assert SetFamily(4, ()).uniform_size is None
        assert SetFamily(256, (0, 1 << 255)).uniform_size is None

    def test_constructed_family_round_trips(self):
        f = SetFamily(4, (3, 12))
        assert write_family(f) == "vcfam 1\nn=4 s=2\n1 2\n3 4\n"
        assert read_family(write_family(f)) == f

    @given(
        st.integers(min_value=1, max_value=10).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=0, max_value=2**n - 1), max_size=12),
            )
        )
    )
    def test_text_and_json_round_trip(self, case):
        # Built directly, so the constructor alone must get uniform_size right.
        n, masks = case
        f = SetFamily(n, tuple(sorted(set(masks))))
        assert read_family(write_family(f)) == f
        assert read_family_json(write_family_json(f)) == f


class TestFileFormat:
    @given(
        st.integers(min_value=1, max_value=256).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(min_value=0, max_value=2**n - 1), max_size=12),
            )
        )
    )
    @example((1, [0, 1]))
    @example((256, [0, 1 << 255, 2**256 - 1]))
    def test_write_spells_each_member_as_its_elements(self, case):
        # The reference spelling: elements ascending, joined by one space, "-" when empty.
        n, masks = case
        f = SetFamily(n, tuple(sorted(set(masks))))
        lines = write_family(f).split("\n")
        assert lines[2:] == [" ".join(map(str, elements_of(m))) or "-" for m in f.members] + [""]

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

    @pytest.mark.parametrize("text", ["n=4 s=-1\n1 2\n", "n=4 s=-1\n", "n=4 s=0\n"])
    def test_size_no_member_can_have_rejected(self, text):
        # A negative s, or any s over the empty family, disagrees with every derived size.
        with pytest.raises(FamilyFormatError, match="size"):
            read_family("vcfam 1\n" + text)

    def test_mixed_header_for_uniform_members_rejected(self):
        with pytest.raises(FamilyFormatError, match="uniform"):
            read_family("vcfam 1\nn=4 s=mixed\n1 2\n3 4\n")

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.one_of(st.none(), st.integers(min_value=0, max_value=n)).flatmap(
                    lambda size: st.lists(
                        st.sets(st.integers(min_value=1, max_value=n), min_size=size or 0,
                                max_size=n if size is None else size),
                        max_size=8,
                    )
                ),
            )
        )
    )
    def test_parameter_line_accepted_exactly_as_written(self, case):
        # Every spelling keeps n's value or puts it out of range, so a line
        # other than the written one can only misspell it, never name
        # another valid family.
        n, members = case
        f = make_family(n, members)
        header, written, body = write_family(f).split("\n", 2)
        spell_n = [str(n), f"0{n}", f"+{n}", f" {n}", f"{n}\t", "".join(chr(0x660 + int(c)) for c in str(n)),
                   "0", "-1", "257", "four", ""]
        spell_s = ["mixed", "mixed ", "-1", "0", "1", "2", "3", "02", "+2", "\u0662", "", "2 "]
        if f.uniform_size is not None:
            spell_s.append(str(f.uniform_size))
        lines = [f"n={a} s={b}" for a in spell_n for b in spell_s]
        lines += [written.replace(" ", "  "), written + " ", written + "\t", " " + written,
                  written.split(" ")[0], written.split(" ")[1] + " " + written.split(" ")[0],
                  written.replace("n=", "N="), written.replace("s=", "size=")]
        for line in lines:
            text = f"{header}\n{line}\n{body}"
            if line == written:
                assert read_family(text) == f, line
            else:
                with pytest.raises(FamilyFormatError, match="malformed header"):
                    read_family(text)

    def test_header_error_names_the_written_line(self):
        with pytest.raises(FamilyFormatError) as error:
            read_family("vcfam 1\nn=4 s=mixed\n1 2\n3 4\n")
        assert str(error.value) == "malformed header 'n=4 s=mixed': the members need 'n=4 s=2' (uniform size 2)"

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

    def test_json_nested_too_deep_is_a_format_error(self):
        depth = 100_000
        with pytest.raises(FamilyFormatError, match="invalid JSON"):
            read_family_json('{"n": 4, "members": ' + "[" * depth + "]" * depth + "}")

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

    @pytest.mark.parametrize(
        "members, text_message, json_message",
        [
            ([[2, 1]], "unsorted member: '2 1'", "unsorted member: [2, 1]"),
            ([[1, 2], [1, 2]], "duplicate member: '1 2'", "duplicate member: [1, 2]"),
            ([[], []], "duplicate member: '-'", "duplicate member: []"),
            ([[3, 4], [1, 2]], "members out of canonical order at '1 2'",
             "members out of canonical order at [1, 2]"),
            ([[1, 5]], "element 5 out of range [1, 4]", "element 5 out of range [1, 4]"),
            ([[0]], "element 0 out of range [1, 4]", "element 0 out of range [1, 4]"),
        ],
    )
    def test_member_error_messages(self, members, text_message, json_message):
        lines = "".join((" ".join(map(str, m)) or "-") + "\n" for m in members)
        with pytest.raises(FamilyFormatError) as text_error:
            read_family("vcfam 1\nn=4 s=mixed\n" + lines)
        assert str(text_error.value) == text_message
        with pytest.raises(FamilyFormatError) as json_error:
            read_family_json(json.dumps({"n": 4, "members": members}))
        assert str(json_error.value) == json_message


class TestEnumerateSubsets:
    def test_all_pairs_of_three(self):
        got = [elements_of(m) for m in enumerate_subsets(3, 2)]
        assert got == [(1, 2), (1, 3), (2, 3)]

    def test_empty_size(self):
        assert list(enumerate_subsets(4, 0)) == [0]

    def test_count_matches_factorial_oracle(self):
        assert sum(1 for _ in enumerate_subsets(10, 5)) == factorial_binomial(10, 5)

    def test_size_out_of_range(self):
        # iter_fixed_size_masks checks the size at the call, before any
        # iteration, and enumerate_subsets leaves the check to it.
        for enumerate_, r in [(enumerate_subsets, 4), (enumerate_subsets, -1),
                              (iter_fixed_size_masks, 4), (iter_fixed_size_masks, -1)]:
            with pytest.raises(ValueError, match="out of range for ground size 3"):
                enumerate_(3, r)

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


def traced_peak_kb(call, *args) -> float:
    """tracemalloc's peak over one call, after a first call that loads what it imports."""
    call(*args)
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


class TestMemory:
    """Family I/O holds the masks and one slice or chunk of text, not an object per member.

    On full(22,4), 7,315 members, the masks and their tuple take about 290
    KB. Each bound is below what the per-member code measured: 820 KB to
    read the text, 1,121 KB to read the JSON, 624 and 628 KB to write them,
    821 KB to build the family through a set and a sorted copy.
    """

    F = full_family(22, 4)

    @pytest.mark.parametrize(
        "call, bound_kb",
        [
            (lambda f, text, js: read_family(text), 500),
            (lambda f, text, js: read_family_json(js), 500),
            (lambda f, text, js: write_family(f), 300),
            (lambda f, text, js: write_family_json(f), 400),
            (lambda f, text, js: full_family(22, 4), 400),
        ],
        ids=["read_family", "read_family_json", "write_family", "write_family_json", "full_family"],
    )
    def test_traced_peak_on_full_22_4(self, call, bound_kb):
        args = self.F, write_family(self.F), write_family_json(self.F)
        assert traced_peak_kb(call, *args) < bound_kb

    @pytest.mark.parametrize("read, write", [(read_family, write_family),
                                             (read_family_json, write_family_json)])
    def test_reader_peak_within_5_percent_of_its_family(self, read, write):
        # The (3,5) witness at n = 93, 61,755 members. A list of every mask
        # held beside the family's tuple made the peak 16% above the family.
        text = write(covering_witness_family(3, 5, 93))
        read(text)
        tracemalloc.start()
        try:
            f = read(text)
            family, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(f) == 61_755
        assert peak <= 1.05 * family, (peak, family)
