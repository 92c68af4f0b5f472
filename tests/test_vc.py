import math
import random
from itertools import combinations

import pytest

from vccover import (
    family_from_masks,
    full_family,
    initial_segment_family,
    make_family,
    mask_of,
    sauer_shelah_sum,
    shatters,
    trace,
    vc_dimension,
)
from vccover.bitsets import elements_of, iter_submasks
from conftest import random_family


def set_trace(f, probe_elems):
    # Independent trace oracle over frozensets.
    probe = frozenset(probe_elems)
    return {probe & frozenset(m) for m in f.member_elements()}


class TestTrace:
    def test_direct_intersections(self):
        f = make_family(4, [{1, 2}, {3, 4}])
        t = trace(f, mask_of({1, 3}))
        assert t.traces == {mask_of({1}), mask_of({3})}

    def test_empty_trace_present(self):
        f = make_family(4, [{1, 2}, {3, 4}])
        assert trace(f, mask_of({1})).traces == {mask_of({1}), 0}

    def test_full_family_probe_gets_whole_power_set(self):
        f = full_family(4, 2)
        assert set_trace(f, {1, 2}) == {
            frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})
        }
        got = trace(f, mask_of({1, 2})).traces
        assert got == {0, mask_of({1}), mask_of({2}), mask_of({1, 2})}

    def test_probe_out_of_ground(self):
        # A negative mask has infinitely many set bits: refused, not walked.
        for probe in (mask_of({4}), -1):
            with pytest.raises(ValueError):
                trace(make_family(3, [{1}]), probe)

    def test_negative_mask_refused_by_the_bitset_kernels(self):
        with pytest.raises(ValueError):
            elements_of(-1)
        with pytest.raises(ValueError):
            next(iter_submasks(-1, 2))

    def test_trace_set_invariants(self, corpus):
        rng = random.Random(3111)
        for name, f in corpus:
            if not f.members or f.n > 10:
                continue
            for _ in range(5):
                probe = mask_of(rng.sample(range(1, f.n + 1), rng.randint(0, min(4, f.n))))
                t = trace(f, probe)
                assert all(x & probe == x for x in t.traces), name
                assert len(t.traces) <= min(2 ** probe.bit_count(), len(f.members)), name


class TestShatters:
    def test_singleton_shattered(self):
        f = make_family(4, [{1, 2}, {3, 4}])
        assert shatters(f, mask_of({1}))

    def test_pair_not_shattered(self):
        f = make_family(4, [{1, 2}, {3, 4}])
        assert not shatters(f, mask_of({1, 3}))

    def test_full_family_shatters_small_window(self):
        assert shatters(full_family(4, 2), mask_of({1, 2}))

    def test_empty_family_is_an_error(self):
        f = make_family(3, [])
        with pytest.raises(ValueError, match="empty family"):
            shatters(f, 0)

    def test_agrees_with_trace_count_on_corpus(self, corpus):
        for name, f in corpus:
            if not f.members or f.n > 12:
                continue
            for size in range(0, 5):
                for probe_elems in combinations(range(1, f.n + 1), size):
                    probe = mask_of(probe_elems)
                    expected = len(trace(f, probe).traces) == 2**size
                    assert shatters(f, probe) == expected, (name, probe_elems)


class TestVcDimension:
    def test_full_family_examples(self):
        assert vc_dimension(full_family(5, 2)).dimension == 2
        assert vc_dimension(full_family(3, 3)).dimension == 0

    def test_single_member(self):
        assert vc_dimension(make_family(2, [{1, 2}])).dimension == 0

    def test_initial_segments(self):
        assert vc_dimension(initial_segment_family(5)).dimension == 1

    def test_empty_family_is_an_error(self):
        with pytest.raises(ValueError):
            vc_dimension(make_family(3, []))

    def test_witness_is_shattered_and_refutation_consistent(self, corpus):
        for name, f in corpus:
            if not f.members:
                continue
            report = vc_dimension(f)
            assert report.witness.bit_count() == report.dimension, name
            assert shatters(f, report.witness), name
            assert report.refuted_size == report.dimension + 1, name

    def test_refutation_no_larger_shattered_set(self, corpus):
        # Spot-exhaustive: re-enumerate all probes of size dimension+1.
        for name, f in corpus:
            if not f.members or f.n > 10:
                continue
            report = vc_dimension(f)
            size = report.dimension + 1
            if size > f.n:
                continue
            for probe_elems in combinations(range(1, f.n + 1), size):
                assert not shatters(f, mask_of(probe_elems)), (name, probe_elems)

    def test_downward_closure_of_shattering(self, corpus):
        for name, f in corpus:
            if not f.members:
                continue
            witness = vc_dimension(f).witness
            elems = [e for e in range(1, f.n + 1) if witness >> (e - 1) & 1]
            for r in range(len(elems) + 1):
                for sub in combinations(elems, r):
                    assert shatters(f, mask_of(sub)), name

    def test_monotone_under_subfamilies(self, corpus):
        rng = random.Random(5523)
        for name, f in corpus:
            if len(f.members) < 2:
                continue
            keep = rng.sample(f.members, rng.randint(1, len(f.members)))
            sub = family_from_masks(f.n, keep)
            assert vc_dimension(sub).dimension <= vc_dimension(f).dimension, name

    def test_counting_bounds(self, corpus):
        for name, f in corpus:
            if not f.members:
                continue
            d = vc_dimension(f).dimension
            assert d <= math.floor(math.log2(len(f.members))), name
            assert d <= max(m.bit_count() for m in f.members), name


class TestSauerShelahSum:
    def test_direct_addition(self):
        assert sauer_shelah_sum(14, 2) == 1 + 14

    def test_empty_sum(self):
        assert sauer_shelah_sum(9, 0) == 0

    def test_full_power_set(self):
        assert sauer_shelah_sum(10, 11) == 1024

    def test_range_check(self):
        with pytest.raises(ValueError):
            sauer_shelah_sum(5, 7)

    def test_exact_at_large_n(self):
        n = 200
        expected = 1 + n + n * (n - 1) // 2
        assert sauer_shelah_sum(n, 3) == expected

    def test_randomized_sauer_shelah(self):
        # 200 random families: a family bigger than the threshold sum has
        # VC-dimension at least k.
        rng = random.Random(90125)
        for _ in range(200):
            f = random_family(rng, max_n=12)
            d = vc_dimension(f).dimension
            for k in range(0, f.n + 2):
                if len(f.members) > sauer_shelah_sum(f.n, k):
                    assert d >= k, (f.n, len(f.members), k, d)
