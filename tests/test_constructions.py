import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from vccover import (
    HypercubeSpec,
    SetFamily,
    base_pairs_family,
    cone,
    covering_witness_family,
    elements_of,
    full_family,
    hypercube_family,
    initial_segment_family,
    is_k_covering,
    make_family,
    mask_of,
    product,
    recursive_family,
    recursive_step,
    shatters,
    unique_face,
    vc_dimension,
)


class TestFullFamily:
    def test_counts_and_dimension(self):
        f = full_family(4, 2)
        assert len(f) == 6
        assert vc_dimension(f).dimension == 2

    def test_single_member(self):
        f = full_family(3, 3)
        assert f.member_elements() == [(1, 2, 3)]
        assert vc_dimension(f).dimension == 0

    def test_dimension_capped_by_complement(self):
        assert vc_dimension(full_family(6, 2)).dimension == 2

    def test_size_out_of_range(self):
        with pytest.raises(ValueError):
            full_family(3, 4)


class TestInitialSegments:
    def test_members(self):
        f = initial_segment_family(3)
        assert f.member_elements() == [(), (1,), (1, 2)]
        assert vc_dimension(f).dimension == 1

    def test_smallest_ground(self):
        assert vc_dimension(initial_segment_family(2)).dimension == 1

    def test_pair_with_smaller_element_never_separates(self):
        f = initial_segment_family(5)
        assert not shatters(f, mask_of({1, 2}))

    def test_too_small(self):
        with pytest.raises(ValueError):
            initial_segment_family(1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: full_family(300, 150),
        lambda: initial_segment_family(10**6),
        lambda: base_pairs_family(60000),
    ],
    ids=["full", "segments", "pairs"],
)
def test_oversized_ground_refused_before_any_member(build):
    # A walk over [n], or n masks of up to n bits, costs far more than the check.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds maximum 256"):
        build()
    assert time.perf_counter() - start < 0.1


def test_derived_builders_check_the_ground_before_building(monkeypatch):
    # Growing fk(200, 100) step by step toward ground 299 exhausts memory.
    from vccover import constructions

    base = full_family(200, 1)
    for name in ("recursive_step", "family_from_masks"):
        monkeypatch.setattr(constructions, name, lambda *_, name=name: pytest.fail(name))
    for build, n in [
        (lambda: recursive_family(200, 100), 299),
        (lambda: base_pairs_family(300), 300),
        (lambda: product(base, 2), 400),
    ]:
        with pytest.raises(ValueError, match=f"ground size {n} exceeds maximum 256"):
            build()


class TestCone:
    def test_definition(self):
        f = make_family(4, [{1, 2}, {3, 4}])
        assert cone(f).member_elements() == [(1, 2, 5), (3, 4, 5)]
        assert cone(f).uniform_size == 3

    def test_preserves_dimension_on_corpus(self, corpus):
        for name, f in corpus:
            if not f.members or f.n > 10:
                continue
            assert vc_dimension(cone(f)).dimension == vc_dimension(f).dimension, name

    def test_preserves_covering(self, corpus):
        for name, f in corpus:
            if f.n > 10:
                continue
            for k in range(1, f.n + 1):
                if is_k_covering(f, k).holds:
                    assert is_k_covering(cone(f), k).holds, (name, k)

    def test_shatters_exactly_the_same_sets(self, corpus):
        for name, f in corpus:
            if not f.members or f.n > 10:
                continue
            g = cone(f)
            top = vc_dimension(f).dimension + 1
            for size in range(0, top + 1):
                for probe_elems in combinations(range(1, g.n + 1), size):
                    probe = mask_of(probe_elems)
                    in_f = probe >> f.n == 0 and shatters(f, probe)
                    assert shatters(g, probe) == in_f, (name, probe_elems)


class TestProduct:
    def test_definition(self):
        f = make_family(2, [{1, 2}])
        g = product(f, 2)
        assert g.n == 4
        assert g.member_elements() == [(1, 2, 3, 4)]

    def test_relabeling_is_row_major(self):
        f = make_family(3, [{1, 3}])
        g = product(f, 2)
        assert g.member_elements() == [(1, 2, 5, 6)]

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            product(make_family(2, [{1}]), 0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(min_value=0, max_value=2**n - 1), max_size=40))),
        st.integers(min_value=1, max_value=5))
    def test_equals_the_sorted_relabel(self, family, ell):
        # product hands its masks to SetFamily unsorted: the relabel keeps the order.
        n, masks = family
        g = product(SetFamily(n, sorted(masks)), ell)
        relabel = [mask_of((v - 1) * ell + x for v in elements_of(m) for x in range(1, ell + 1)) for m in masks]
        assert g == SetFamily(n * ell, sorted(relabel))

    def test_preserves_dimension_and_covering(self, corpus):
        for name, f in corpus:
            if not f.members or f.n > 6:
                continue
            base_dim = vc_dimension(f).dimension
            covering_ks = [k for k in range(1, f.n + 1) if is_k_covering(f, k).holds]
            for ell in (2, 3):
                g = product(f, ell)
                assert vc_dimension(g).dimension == base_dim, (name, ell)
                for k in covering_ks:
                    assert is_k_covering(g, k).holds, (name, ell, k)


class TestHypercube:
    def test_width_two_grid(self):
        f = hypercube_family(2, 2)
        assert f.n == 9
        assert len(f) == 9
        assert f.uniform_size == 4
        assert is_k_covering(f, 2).holds
        assert vc_dimension(f).dimension <= 3

    def test_width_one(self):
        f = hypercube_family(1, 1)
        assert f.member_elements() == [(1,), (2,)]
        assert is_k_covering(f, 1).holds
        assert vc_dimension(f).dimension == 1

    def test_single_axis_degenerates_to_full_family(self):
        assert hypercube_family(2, 1) == full_family(3, 2)

    def test_ground_too_large(self):
        with pytest.raises(ValueError):
            hypercube_family(3, 6)
        # Refused before (k+1)^m is taken: the power of a huge m, or of a
        # 301-digit k, would take seconds and overflow the int-to-str limit.
        for k, m in [(2, 10_000_000), (10**300, 20), (1, 9), (256, 1)]:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="exceeds maximum 256"):
                HypercubeSpec(k=k, m=m)
            assert time.perf_counter() - start < 1.0, (k, m)
        assert HypercubeSpec(k=1, m=8).ground_size == 256
        assert HypercubeSpec(k=255, m=1).ground_size == 256

    def test_label_bijection(self):
        spec = HypercubeSpec(k=2, m=3)
        labels = set()
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    labels.add(spec.label((a, b, c)))
        assert labels == set(range(1, 28))

    def test_family_shape_grid(self):
        for k, m in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (4, 2)]:
            f = hypercube_family(k, m)
            assert f.n == (k + 1) ** m
            assert len(f) == (k + 1) ** m
            assert f.uniform_size == k**m
            assert is_k_covering(f, k).holds


class TestBasePairs:
    def test_even_dedupes_closing_pair(self):
        assert base_pairs_family(4).member_elements() == [(1, 2), (3, 4)]

    def test_odd_adds_closing_pair(self):
        assert base_pairs_family(5).member_elements() == [(1, 2), (3, 4), (4, 5)]

    def test_minimal(self):
        assert base_pairs_family(2).member_elements() == [(1, 2)]

    def test_too_small(self):
        with pytest.raises(ValueError):
            base_pairs_family(1)

    def test_point_covering_and_unique_faces(self):
        for m in range(2, 9):
            f = base_pairs_family(m)
            assert is_k_covering(f, 1).holds, m
            assert unique_face(f).holds, m


class TestRecursiveStep:
    def test_hand_enumeration(self):
        f = make_family(4, [{1, 2}, {3, 4}])
        stepped = recursive_step(f)
        assert stepped.n == 5
        assert stepped.member_elements() == [(1, 2, 3), (1, 2, 4), (1, 2, 5), (3, 4, 5)]

    def test_output_count_law(self, corpus):
        for name, f in corpus:
            if not (f.is_uniform() and f.members and f.n <= 10):
                continue
            stepped = recursive_step(f)
            expected = sum(f.n + 1 - max(elements_of(m), default=0) for m in f.members)
            assert len(stepped) == expected, name

    def test_preserves_unique_faces_on_recursive_families(self):
        for m in range(2, 9):
            fam = base_pairs_family(m)
            for _ in range(3):
                assert unique_face(fam).holds, m
                fam = recursive_step(fam)

    def test_requires_uniform(self):
        with pytest.raises(ValueError):
            recursive_step(make_family(3, [{1}, {1, 2}]))


class TestRecursiveFamily:
    def test_depth_one_is_base(self):
        assert recursive_family(4, 1) == base_pairs_family(4)

    def test_depth_two_properties(self):
        f = recursive_family(4, 2)
        assert f.n == 5 and f.uniform_size == 3
        assert is_k_covering(f, 2).holds
        assert unique_face(f).holds
        assert shatters(f, mask_of({4, 5}))
        assert vc_dimension(f).dimension == 2

    def test_dimension_equals_depth_when_ground_is_wide(self):
        for m in range(2, 9):
            for k in range(1, 4):
                n = m + k - 1
                if 2 * k < n:
                    assert vc_dimension(recursive_family(m, k)).dimension == k, (m, k)


class TestCoveringWitness:
    def test_no_cones_needed(self):
        f = covering_witness_family(2, 3, 5)
        assert f == recursive_family(4, 2)
        assert is_k_covering(f, 2).holds
        assert vc_dimension(f).dimension == 2

    def test_one_cone(self):
        f = covering_witness_family(2, 4, 6)
        assert f.n == 6 and f.uniform_size == 4
        assert vc_dimension(f).dimension == 2

    def test_diagonal_uses_full_family(self):
        f = covering_witness_family(3, 3, 7)
        assert f == full_family(7, 3)
        assert vc_dimension(f).dimension == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            covering_witness_family(3, 2, 5)

    def test_grid_is_covering_with_low_dimension(self):
        # Every valid triple up to ground size 12.
        for n in range(1, 13):
            for s in range(1, n + 1):
                for k in range(1, s + 1):
                    f = covering_witness_family(k, s, n)
                    assert f.n == n and f.uniform_size == s, (k, s, n)
                    assert is_k_covering(f, k).holds, (k, s, n)
                    assert vc_dimension(f).dimension <= k, (k, s, n)
