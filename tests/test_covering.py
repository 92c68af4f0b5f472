import pytest

from vccover import (
    SetFamily,
    covering_witness_family,
    elements_of,
    full_family,
    hypercube_family,
    is_k_covering,
    make_family,
    mask_of,
    recursive_family,
    ufp_implies_vc_bound_check,
    unique_face,
    vc_dimension,
)
from vccover import covering
from vccover.covering import first_faceless


class TestIsKCovering:
    def test_full_family_covers_its_own_size(self):
        assert is_k_covering(full_family(5, 3), 3).holds

    def test_pointwise_cover(self):
        assert is_k_covering(make_family(4, [{1, 2}, {3, 4}]), 1).holds

    def test_uncovered_witness(self):
        report = is_k_covering(make_family(4, [{1, 2}, {3, 4}]), 2)
        assert not report.holds
        assert elements_of(report.uncovered) == (1, 3)

    def test_k_out_of_range(self):
        f = make_family(3, [{1, 2}])
        with pytest.raises(ValueError):
            is_k_covering(f, 4)
        with pytest.raises(ValueError):
            is_k_covering(f, 0)

    def test_full_families_cover_everything_below_their_size(self):
        for n in range(1, 11):
            for s in range(1, n + 1):
                f = full_family(n, s)
                for k in range(1, s + 1):
                    assert is_k_covering(f, k).holds, (n, s, k)

    def test_downward_monotone_in_k(self, corpus):
        for name, f in corpus:
            if f.n > 10:
                continue
            held = [is_k_covering(f, k).holds for k in range(1, f.n + 1)]
            for smaller, larger in zip(held, held[1:]):
                assert smaller or not larger, name

    def test_witness_is_genuinely_uncovered(self, corpus):
        for name, f in corpus:
            if f.n > 10:
                continue
            for k in range(1, f.n + 1):
                report = is_k_covering(f, k)
                if report.holds:
                    continue
                probe = report.uncovered
                assert probe.bit_count() == k, name
                assert not any(probe & m == probe for m in f.members), name


class TestUniqueFace:
    def test_disjoint_pairs_hold(self):
        report = unique_face(make_family(4, [{1, 2}, {3, 4}]))
        assert report.holds
        assert report.faces[mask_of({1, 2})] == mask_of({1})

    def test_full_family_fails(self):
        report = unique_face(full_family(4, 2))
        assert not report.holds
        assert report.violator == mask_of({1, 2})

    def test_recursive_family_holds(self):
        assert unique_face(recursive_family(4, 2)).holds

    def test_faces_are_unique_to_their_member(self, corpus):
        for name, f in corpus:
            if not f.members:
                continue
            report = unique_face(f)
            for member, face in report.faces.items():
                assert face & member == face and face != member, name
                others = [m for m in f.members if m != member]
                assert not any(face & o == face for o in others), name


class TestFaceVerdict:
    def test_verdict_never_searches_a_face(self, monkeypatch):
        def searched(*args):
            raise AssertionError("the face verdict searched for a smallest face")

        monkeypatch.setattr(covering, "_first_meeting", searched)
        assert first_faceless(covering_witness_family(2, 4, 30)) is None
        assert first_faceless(full_family(6, 3)) == 0b111

    @pytest.mark.parametrize("check", [first_faceless, unique_face])
    def test_empty_family_refused_at_call_time(self, check):
        with pytest.raises(ValueError, match="empty family"):
            check(SetFamily(3, ()))


class TestUfpImpliesVcBound:
    def test_base_pairs(self):
        f = make_family(4, [{1, 2}, {3, 4}])
        assert unique_face(f).holds
        assert vc_dimension(f).dimension == 1
        assert ufp_implies_vc_bound_check(f)

    def test_full_family_vacuous(self):
        assert ufp_implies_vc_bound_check(full_family(4, 2))

    def test_recursive_family(self):
        f = recursive_family(4, 2)
        assert vc_dimension(f).dimension == 2
        assert ufp_implies_vc_bound_check(f)

    def test_requires_uniform(self):
        with pytest.raises(ValueError):
            ufp_implies_vc_bound_check(make_family(3, [{1}, {1, 2}]))

    def test_holds_over_uniform_corpus(self, corpus):
        for name, f in corpus:
            if f.members and f.is_uniform() and f.n <= 12:
                assert ufp_implies_vc_bound_check(f), name

    def test_holds_on_hypercubes(self):
        for k, m in [(1, 2), (1, 3), (2, 2)]:
            assert ufp_implies_vc_bound_check(hypercube_family(k, m))


def test_reports_serialize():
    cover = is_k_covering(make_family(4, [{1, 2}, {3, 4}]), 2).as_dict()
    assert cover == {"k": 2, "holds": False, "uncovered": [1, 3]}
    faces = unique_face(make_family(4, [{1, 2}, {3, 4}])).as_dict()
    assert faces["holds"] is True and faces["violator"] is None
    assert {"member": [1, 2], "face": [1]} in faces["faces"]
