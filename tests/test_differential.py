"""Differential tests: the fast kernels against slow references.

The references are the straightforward scanners: probe by probe for the
VC-dimension, k-set by k-set against every member for covering, and
candidate by candidate against every other member for faces; for the
oracle, the branch-and-bound with a dict of trace sets per probe. They
share no code with the kernels beyond mask enumeration, and the tests
demand exact equality of the reports, witnesses included, so a kernel that
finds a valid but non-canonical witness fails here. The oracle reference
is the plain DFS, without the packed search's refuted-sibling exclusion
and root symmetry; the packed search must return the same witness or None
on every case and may visit no more nodes than the reference. The
`check ufp` command is held to the face reference too: its text verdict,
which stops at the first member without a face, must name the reference's
violator, and its JSON must be the full `unique_face` report.
"""

import contextlib
import io
import json
import math
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from vccover import (
    CoverReport,
    FaceReport,
    Parameters,
    VcReport,
    exists_covering_with_vc_at_most,
    family_from_masks,
    is_k_covering,
    unique_face,
    vc_dimension,
    write_family,
)
from vccover.bitsets import elements_of, full_mask, iter_fixed_size_masks, iter_submasks, spread
from vccover.cli import main
from vccover.covering import first_faceless
from vccover.families import incidence_columns


def reference_vc(f) -> VcReport:
    """Colex-smallest shattered probe of each size, by scanning every probe."""
    members = f.members
    common, union = full_mask(f.n), 0
    for m in members:
        common &= m
        union |= m
    positions = elements_of(union & ~common)
    cap = min(f.n, max(m.bit_count() for m in members),
              len(members).bit_length() - 1, len(positions))
    min_size = min(m.bit_count() for m in members)
    dimension = witness = 0
    for size in range(1, cap + 1):
        if size + min_size > f.n:
            break
        hit = None
        for compressed in iter_fixed_size_masks(len(positions), size):
            probe = spread(compressed, positions)
            if len({probe & m for m in members}) == 1 << size:
                hit = probe
                break
        if hit is None:
            break
        dimension, witness = size, hit
    return VcReport(dimension=dimension, witness=witness, refuted_size=dimension + 1)


def reference_cover(f, k: int) -> CoverReport:
    """First k-set in canonical order contained in no member."""
    for probe in iter_fixed_size_masks(f.n, k):
        if not any(probe & m == probe for m in f.members):
            return CoverReport(k=k, holds=False, uncovered=probe)
    return CoverReport(k=k, holds=True)


def reference_faces(f) -> FaceReport:
    """Per member, the first proper subset by size then mask order in no other member."""
    faces: dict[int, int] = {}
    violator = None
    for member in f.members:
        others = [m for m in f.members if m != member]
        face = next(
            (
                candidate
                for r in range(member.bit_count())
                for candidate in iter_submasks(member, r)
                if not any(candidate & o == candidate for o in others)
            ),
            None,
        )
        if face is None:
            if violator is None:
                violator = member
        else:
            faces[member] = face
    return FaceReport(holds=violator is None, faces=faces, violator=violator)


def assert_kernels_match(f, label) -> None:
    for k in range(1, f.n + 1):
        assert is_k_covering(f, k) == reference_cover(f, k), (label, k)
    if f.members:
        assert vc_dimension(f) == reference_vc(f), label
        faces = reference_faces(f)
        assert unique_face(f) == faces, label
        assert first_faceless(f) == faces.violator, label


@st.composite
def families(draw):
    n = draw(st.integers(min_value=1, max_value=11))
    masks = draw(st.lists(st.integers(min_value=0, max_value=full_mask(n)), max_size=50))
    if draw(st.booleans()):
        masks.append(0)
    if draw(st.booleans()):
        masks.append(full_mask(n))
    return family_from_masks(n, masks)


@settings(max_examples=300, deadline=None)
@given(families())
def test_kernels_match_references_on_random_families(f):
    assert_kernels_match(f, (f.n, f.members))


# Families whose first faceless member is not the last one, so a verdict
# that stops at the violator does less work than the full scan: {1} then two
# members with faces; {3} between two members with faces; all six 2-sets of [4].
EARLY_VIOLATORS = [
    family_from_masks(4, [0b1, 0b11, 0b1100]),
    family_from_masks(4, [0b11, 0b100, 0b1001]),
    family_from_masks(4, iter_fixed_size_masks(4, 2)),
]


def test_early_violators_stop_before_the_last_member():
    for f in EARLY_VIOLATORS:
        violator = reference_faces(f).violator
        assert violator is not None and violator != f.members[-1], f


def run_check_ufp(f, *options) -> tuple[int, str]:
    """`vccover check ufp --family -` in process, with `f` written to stdin."""
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(write_family(f))), contextlib.redirect_stdout(out):
        code = main(["check", "ufp", "--family", "-", *options])
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(families())
@example(EARLY_VIOLATORS[0])
@example(EARLY_VIOLATORS[1])
@example(EARLY_VIOLATORS[2])
def test_check_ufp_matches_reference_faces(f):
    if not f.members:
        assert run_check_ufp(f) == (2, "")
        assert run_check_ufp(f, "--format", "json") == (2, "")
        return
    faces = reference_faces(f)
    code, text = run_check_ufp(f)
    if faces.holds:
        assert (code, text) == (0, "PASS\n")
    else:
        assert (code, text) == (1, f"FAIL violator: {' '.join(map(str, elements_of(faces.violator)))}\n")
    code, text = run_check_ufp(f, "--format", "json")
    assert code == (0 if faces.holds else 1)
    assert text == json.dumps(unique_face(f).as_dict()) + "\n"


def test_kernels_match_references_on_corpus(corpus):
    for name, f in corpus:
        assert_kernels_match(f, name)


def test_incidence_columns_list_the_members_of_each_element(corpus):
    for name, f in corpus:
        columns = incidence_columns(f)
        assert len(columns) == f.n, name
        for i, column in enumerate(columns):
            expected = sum(1 << j for j, m in enumerate(f.members) if m >> i & 1)
            assert column == expected, (name, i + 1)


class ReferenceSearch:
    """The oracle's plain DFS, with no sibling exclusion or root symmetry.

    The traces of each probe live in a frozenset.
    """

    def __init__(self, params: Parameters, d: int):
        k, s, n = params.k, params.s, params.n
        self.universe = list(iter_fixed_size_masks(n, s))
        self.k_sets = list(iter_fixed_size_masks(n, k))
        self.all_covered = (1 << len(self.k_sets)) - 1
        # coverage_of[j]: bitmap of k-set indices inside universe member j
        self.coverage_of = []
        for member in self.universe:
            bits = 0
            for i, a in enumerate(self.k_sets):
                if a & member == a:
                    bits |= 1 << i
            self.coverage_of.append(bits)
        self.candidates_for = [
            [j for j, bits in enumerate(self.coverage_of) if bits >> i & 1]
            for i in range(len(self.k_sets))
        ]
        self.probes = list(iter_fixed_size_masks(n, d + 1))
        self.target = 1 << (d + 1)
        self.nodes = 0

    def extend(
        self, tracked: dict[int, frozenset[int]], chosen_count: int, member: int
    ) -> dict[int, frozenset[int]] | None:
        """Trace bookkeeping after adding `member`; None when a probe shatters.

        A probe absent from `tracked` has met no chosen member yet, so its
        only trace so far is the empty set; it is instantiated the first
        time a member intersects it.
        """
        new_tracked = dict(tracked)
        for probe, traces in tracked.items():
            t = probe & member
            if t not in traces:
                grown = traces | {t}
                if len(grown) == self.target:
                    return None
                new_tracked[probe] = grown
        for probe in self.probes:
            if probe & member and probe not in tracked:
                traces = {probe & member}
                if chosen_count:
                    traces.add(0)
                if len(traces) == self.target:
                    return None
                new_tracked[probe] = frozenset(traces)
        return new_tracked

    def dfs(
        self,
        covered: int,
        chosen: tuple[int, ...],
        tracked: dict[int, frozenset[int]],
    ) -> tuple[int, ...] | None:
        self.nodes += 1
        if covered == self.all_covered:
            return chosen
        missing = ~covered & self.all_covered
        first_uncovered = (missing & -missing).bit_length() - 1
        for j in self.candidates_for[first_uncovered]:
            member = self.universe[j]
            new_tracked = self.extend(tracked, len(chosen), member)
            if new_tracked is None:
                continue
            result = self.dfs(covered | self.coverage_of[j], chosen + (member,), new_tracked)
            if result is not None:
                return result
        return None


def test_oracle_search_matches_reference():
    cases = 0
    for n in range(1, 8):
        for s in range(1, n + 1):
            if math.comb(n, s) > 24:
                continue
            for k in range(1, s + 1):
                params = Parameters(k, s, n)
                for d in range(min(s, n - s) + 1):
                    reference = ReferenceSearch(params, d)
                    found = reference.dfs(0, (), {})
                    expected = None if found is None else family_from_masks(n, found)
                    stats: dict = {}
                    assert exists_covering_with_vc_at_most(params, d, stats=stats) == expected, \
                        (k, s, n, d)
                    assert stats["nodes"] <= reference.nodes, (k, s, n, d)
                    cases += 1
    assert cases == 152
