"""Differential tests: the fast kernels against slow references.

The references are the straightforward scanners: probe by probe for the
colex-smallest shattered set of each size (the shattering walk's whole
output, not only the VC witness), k-set by k-set against every member for
covering, and candidate by candidate against every other member for
faces; for the oracle, the branch-and-bound with a dict of trace sets per
probe. They share no code with the kernels beyond mask enumeration, and
the tests demand exact equality of the reports, witnesses included, so a
kernel that finds a valid but non-canonical witness fails here. The
oracle reference is the plain DFS, without the packed search's
refuted-sibling exclusion and root symmetry; the packed search must return
the same witness or None on every case and may visit no more nodes than
the reference. The search's orbit exclusion is held the same way to the
packed search without it, and its orbit masks to the images of each member
under every permutation that fixes the chosen members. The `check ufp`
command is held to the face reference too: its text verdict, which stops
at the first member without a face, must name the reference's violator,
and its JSON must be the full `unique_face` report. The incidence table is
held to the element-by-member scan and the JSON writer to `json.dumps`.
Property 3 of the recursive family, checked one lowering step per member,
is held to the scan of every lowered top value. The oracle's packed kernel
is held to the plain definitions too: its coverage and candidate tables to
subset tests, each pattern word to the trace of its member on every probe,
and the one-add shattering test to `vc_dimension` on random subfamilies.
The explore CSV is held to `csv.writer`. The text reader, which decodes
member lines through a table of element spellings, is held to the per-line
reader it replaced, an int() parse with a spelling round trip: on written
and mutated files both return the same family or raise the same message,
with slices of the default length and of a few characters. The JSON reader,
which reads the writer's spelling through the same table, is held to its
`json.loads` path the same way, on written files with members, elements,
ground size, keys, spaces and trailing characters changed.
The face verdict, decided by co-singletons, is held to the face reference
on families built to have faceless members.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import random
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
from vccover import reader as family_io
from vccover.bitsets import elements_of, full_mask, iter_fixed_size_masks, iter_submasks, spread
from vccover.cli import main
from vccover.covering import first_faceless
from vccover.constructions import covering_witness_family, full_family
from vccover.exploration import ExplorationRow, explore, rows_to_csv
from vccover.families import (
    FamilyFormatError,
    SetFamily,
    _parameter_line,
    incidence_columns,
    make_family,
)
from vccover.families_json import _loaded_family, read_family_json, write_family_json
from vccover.oracle import _orbit_masks, _pattern_words, _Search, oracle_D
from vccover.reader import _header_n, read_family
from vccover.vc import _shattered_walk, shatters
from vccover.verify import _interpolation_violation


def reference_first(f) -> list[int]:
    """``first[r]``: the colex-smallest shattered r-set, scanning every r-set of [n].

    Sizes go up until one has no shattered set; none above it can have one.
    """
    first = [0]
    for size in range(1, f.n + 1):
        hit = next((probe for probe in iter_fixed_size_masks(f.n, size)
                    if len({probe & m for m in f.members}) == 1 << size), None)
        if hit is None:
            break
        first.append(hit)
    return first


def reference_vc(f) -> VcReport:
    first = reference_first(f)
    return VcReport(dimension=len(first) - 1, witness=first[-1], refuted_size=len(first))


def assert_walk_matches(f, label) -> None:
    """Every ``first[r]`` of the walk over every member, at a bound above n and
    at every bound below the end."""
    first = reference_first(f)
    columns = incidence_columns(f)
    everyone = (1 << len(f.members)) - 1
    assert _shattered_walk(f.members, columns, everyone, f.n + 1) == first, label
    for cap in range(1, len(first)):
        assert _shattered_walk(f.members, columns, everyone, cap) == first[: cap + 1], (label, cap)


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
        assert_walk_matches(f, label)
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


@st.composite
def families_with_cells(draw):
    f = draw(families().filter(lambda f: f.members))
    indices = draw(st.sets(st.integers(min_value=0, max_value=len(f.members) - 1), min_size=1))
    return f, sum(1 << j for j in indices)


@settings(max_examples=300, deadline=None)
@given(families_with_cells())
def test_walk_on_a_cell_matches_vc_of_its_subfamily(case):
    # The walk over a cell of a non-uniform family, on the whole family's
    # columns, against the cell's members as their own family.
    f, cell = case
    sub = SetFamily(f.n, [m for j, m in enumerate(f.members) if cell >> j & 1])
    sizes = [m.bit_count() for m in sub.members]
    first = _shattered_walk(f.members, incidence_columns(f), cell, min(max(sizes), f.n - min(sizes)))
    report = vc_dimension(sub)
    assert (len(first) - 1, first[-1]) == (report.dimension, report.witness), sub.members
    assert first == reference_first(sub), sub.members


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


@st.composite
def uniform_families(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    size = draw(st.integers(min_value=1, max_value=n))
    members = draw(st.lists(st.sets(st.integers(min_value=1, max_value=n), min_size=size,
                                    max_size=size), min_size=1, max_size=30))
    return family_from_masks(n, [sum(1 << (e - 1) for e in member) for member in members])


def co_singletons(member: int) -> list[int]:
    return [member ^ 1 << (e - 1) for e in elements_of(member)]


@st.composite
def face_families(draw):
    """Families built to have faceless members, or a member that cannot have a face.

    A random family, or a uniform one, whose members can all have faces,
    then by mode. "co-singletons" adds every co-singleton of a few chosen
    members, so each of them shares all its co-singletons with another
    member and has no face. "closed" adds the subsets of the chosen members
    down to three elements fewer: closed under co-singletons above its
    bottom level, so only bottom subsets can have faces. "larger-holder"
    adds, for each chosen member S and each co-singleton but perhaps one, a
    member larger than S where [n] has room, holding that co-singleton, so
    S has no face when none is spared. "one-member" is a single member and
    "empty-member" adds the empty member, which never has a face.
    """
    f = draw(st.one_of(families(), uniform_families()))
    masks = set(f.members)
    mode = draw(st.sampled_from(["co-singletons", "closed", "larger-holder", "one-member",
                                 "empty-member"]))
    if mode == "one-member":
        return SetFamily(f.n, [draw(st.integers(min_value=0, max_value=full_mask(f.n)))])
    if mode == "empty-member":
        return family_from_masks(f.n, masks | {0})
    pool = st.sampled_from(sorted(masks)) if masks else st.integers(min_value=0, max_value=full_mask(f.n))
    chosen = draw(st.lists(pool, min_size=1, max_size=4))
    masks.update(chosen)
    for member in chosen:
        if mode == "co-singletons":
            masks.update(co_singletons(member))
        elif mode == "closed":
            size = member.bit_count()
            masks.update(sub for r in range(max(size - 3, 0), size) for sub in iter_submasks(member, r))
        else:
            # A holder for every co-singleton but perhaps one: with none spared, S has no face.
            spared = draw(st.sampled_from([None, *co_singletons(member)]))
            for holder in co_singletons(member):
                if holder != spared:
                    outside = full_mask(f.n) & ~member
                    for _ in range(2):  # two elements outside S where there are two
                        holder |= outside & -outside
                        outside &= outside - 1
                    masks.add(holder | draw(st.integers(min_value=0, max_value=outside)) & outside)
    return family_from_masks(f.n, masks)


@settings(max_examples=300, deadline=None)
@given(face_families())
@example(SetFamily(3, [0]))
@example(SetFamily(3, [0b101]))
@example(SetFamily(1, [0, 1]))
@example(family_from_masks(4, [0b11, 0b1110]))
@example(family_from_masks(5, [0b11, 0b101, 0b1100, 0b11100]))
def test_face_verdict_by_co_singletons_matches_reference(f):
    faces = reference_faces(f)
    assert first_faceless(f) == faces.violator
    assert unique_face(f) == faces


def test_face_verdicts_on_small_families():
    # {1} is faceless, as its one co-singleton, the empty set, lies in every
    # member; so is {1, 2}, whose co-singletons are members.
    assert first_faceless(family_from_masks(3, [0b1, 0b10, 0b11, 0b100])) == 0b1
    # {2, 3, 4} holds the co-singleton {2} of {1, 2}; the other one, {1}, is a face.
    assert unique_face(family_from_masks(4, [0b11, 0b1110])).faces[0b11] == 0b1
    # {1, 3, 4} takes {1} too, so {1, 2} has no face.
    assert first_faceless(family_from_masks(4, [0b11, 0b1101, 0b1110])) == 0b11
    # A lone nonempty member has the empty set as its face; the empty member has none.
    assert unique_face(SetFamily(2, [0b11])).faces == {0b11: 0}
    assert first_faceless(SetFamily(2, [0])) == 0
    assert first_faceless(SetFamily(2, [0, 0b11])) == 0


def reference_lowering_gaps(members) -> list[tuple[int, int]]:
    """Every (member, t_hat) whose member with its top lowered to t_hat is missing.

    Tries every t_hat strictly between the second-largest element (0 for a
    one-element member) and the top element.
    """
    member_set = set(members)
    gaps = []
    for member in members:
        elems = elements_of(member)
        if not elems:
            continue
        second = elems[-2] if len(elems) > 1 else 0
        base = member & ~(1 << (elems[-1] - 1))
        gaps += [(member, t_hat) for t_hat in range(second + 1, elems[-1])
                 if base | 1 << (t_hat - 1) not in member_set]
    return gaps


@st.composite
def lowering_families(draw):
    """Random families; some closed under lowering the top element, some closed but one member short."""
    f = draw(families())
    closure = set(f.members)
    for member, t_hat in reference_lowering_gaps(f.members):
        closure.add(member & ~(1 << (member.bit_length() - 1)) | 1 << (t_hat - 1))
    mode = draw(st.sampled_from(["raw", "closed", "closed-less-one"]))
    if mode == "raw":
        return f
    members = sorted(closure)
    if mode == "closed-less-one" and members:
        members.pop(draw(st.integers(min_value=0, max_value=len(members) - 1)))
    return SetFamily(f.n, members)


@settings(max_examples=300, deadline=None)
@given(lowering_families())
def test_interpolation_by_one_step_matches_the_full_scan(f):
    gaps = reference_lowering_gaps(f.members)
    violation = _interpolation_violation(f.members)
    assert (violation is None) == (not gaps)
    if violation is not None:
        member, t = violation
        top = member.bit_length()
        assert t == top - 1 and (member, t) in gaps
        assert member ^ (1 << (top - 1)) | 1 << (t - 1) not in f.members
        # The first member, in member order, whose one-step lowering is missing.
        assert violation == next(gap for gap in gaps if gap[1] == gap[0].bit_length() - 1)


def test_kernels_match_references_on_corpus(corpus):
    for name, f in corpus:
        assert_kernels_match(f, name)


def reference_columns(f) -> tuple[int, ...]:
    """Column i: the members containing element i+1, one element-member test at a time."""
    return tuple(sum(1 << j for j, m in enumerate(f.members) if m >> i & 1) for i in range(f.n))


def test_incidence_columns_list_the_members_of_each_element(corpus):
    for name, f in corpus:
        assert incidence_columns(f) == reference_columns(f), name
        assert incidence_columns(f) is incidence_columns(f), name


def test_incidence_columns_across_chunk_boundaries():
    # The table is transposed 256 members at a time: member counts on both
    # sides of one and two chunk edges, and the largest ground, whose
    # element 256 is bit 255 of every member holding it.
    for count in (0, 1, 255, 256, 257, 513):
        masks = [(j * 0x9E3779B97F4A7C15 << 192 | j * 0xD1B54A32D192ED03) % (1 << 256)
                 for j in range(count)]
        for f in (family_from_masks(256, masks), family_from_masks(9, [m % 512 for m in masks])):
            assert incidence_columns(f) == reference_columns(f), (f.n, count)
        assert any(m >> 255 for m in masks) == (count > 1)
    for members in ((), (0,), (1,), (0, 1)):
        f = SetFamily(1, members)
        assert incidence_columns(f) == reference_columns(f), members


def reference_append_member(masks, elements, n, raw) -> None:
    """The per-line reader's member check: range, ascending order, then mask order."""
    mask = prev = 0
    for e in elements:
        if not (1 <= e <= n):
            raise FamilyFormatError(f"element {e} out of range [1, {n}]")
        if e <= prev:
            raise FamilyFormatError(f"unsorted member: {raw!r}")
        prev = e
        mask |= 1 << (e - 1)
    if masks and mask <= masks[-1]:
        if mask == masks[-1]:
            raise FamilyFormatError(f"duplicate member: {raw!r}")
        raise FamilyFormatError(f"members out of canonical order at {raw!r}")
    masks.append(mask)


def reference_read_family(text: str) -> SetFamily:
    """The text reader by one int() parse per token and a spelling round trip per line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    n = _header_n(lines)
    masks: list[int] = []
    for line in lines[2:]:
        if line == "-":
            elements = []
        else:
            try:
                elements = [int(token) for token in line.split(" ")]
            except ValueError:
                raise FamilyFormatError(f"bad element in line {line!r}") from None
            if " ".join(map(str, elements)) != line:
                raise FamilyFormatError(f"non-canonical member line {line!r}")
        reference_append_member(masks, elements, n, line)
    f = SetFamily(n, tuple(masks))
    expected = _parameter_line(f)
    if lines[1] != expected:
        actual = "no uniform size" if f.uniform_size is None else f"uniform size {f.uniform_size}"
        raise FamilyFormatError(f"malformed header {lines[1]!r}: the members need {expected!r} ({actual})")
    return f


def mutated_line(kind: str, line: str, n: int) -> str:
    """One member line spelled the way the writer never writes it, or out of place."""
    first, _, rest = line.partition(" ")
    return {
        "leading-zero": "0" + line,
        "plus": "+" + line,
        "leading-space": " " + line,
        "double-space": first + "  " + rest if rest else "1  2",
        "arabic-indic": line.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                                   "\u0665\u0666\u0667\u0668\u0669")),
        "zero": "0",
        "beyond-n": str(n + 1) if line == "-" else line + " " + str(n + 1),
        "descending": " ".join(reversed(line.split(" "))) if rest else "2 1",
        "repeated": first + " " + line,
        "dash-element": "- " + line,
        "dash": "-",
        "trailing-space": line + " ",
        "blank": "",
    }[kind]


LINE_MUTATIONS = ["leading-zero", "plus", "leading-space", "double-space", "arabic-indic", "zero",
                  "beyond-n", "descending", "repeated", "dash-element", "dash", "trailing-space",
                  "blank"]
MUTATIONS = LINE_MUTATIONS + ["duplicate", "swap", "dash-below"]


@st.composite
def family_texts(draw):
    """A written family, with up to three member lines mutated, duplicated, swapped or added."""
    f = draw(families())
    lines = write_family(f).split("\n")[:-1]
    n = f.n
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(MUTATIONS))
        members = len(lines) - 2
        if kind == "dash-below" or not members:
            lines.insert(draw(st.integers(min_value=2 + min(members, 1), max_value=len(lines))), "-")
            continue
        i = draw(st.integers(min_value=2, max_value=len(lines) - 1))
        if kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(min_value=2, max_value=len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = mutated_line(kind, lines[i], n)
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def read_outcome(reader, text):
    try:
        return reader(text)
    except FamilyFormatError as error:
        return str(error)


# full(22,4) as text, about 120 KB: more than one slice of the table reader.
LONG_TEXT = write_family(full_family(22, 4))


def after_first_slice(kind: str) -> str:
    """LONG_TEXT with the first member line of its second slice mutated."""
    start = LONG_TEXT.index("\n", LONG_TEXT.index("\n") + 1) + 1
    cut = LONG_TEXT.index("\n", start + family_io.SLICE) + 1
    end = LONG_TEXT.index("\n", cut)
    return LONG_TEXT[:cut] + mutated_line(kind, LONG_TEXT[cut:end], 22) + LONG_TEXT[end:]


@settings(max_examples=500, deadline=None)
@given(family_texts(), st.sampled_from([0, 1, 5, 24, family_io.SLICE]))
@example("vcfam 1\nn=3 s=1\n1\n-\n", family_io.SLICE)
@example("vcfam 1\nn=3 s=mixed\n-\n1\n1 2\n", family_io.SLICE)
@example("vcfam 1\nn=12 s=2\n1 \u0661\u0662\n", family_io.SLICE)
@example("vcfam 1\nn=3 s=2\n1 3\n1 3\n", family_io.SLICE)
@example(after_first_slice("descending"), family_io.SLICE)
@example(after_first_slice("blank"), family_io.SLICE)
@example(after_first_slice("beyond-n"), family_io.SLICE)
@example(LONG_TEXT[:-1], family_io.SLICE)
@example(LONG_TEXT + "\n", family_io.SLICE)
def test_table_reader_matches_per_line_reader(text, slice_chars):
    # Slices of a few characters put a slice boundary next to every line.
    with mock.patch.object(family_io, "SLICE", slice_chars):
        assert read_outcome(read_family, text) == read_outcome(reference_read_family, text)


def test_table_reader_mutations_are_refused():
    # Every line mutation of "1 2" in a two-member family is refused by both
    # readers with the same message.
    text = write_family(family_from_masks(3, [0b11, 0b110]))
    for kind in LINE_MUTATIONS:
        mutated = text.replace("\n1 2\n", "\n" + mutated_line(kind, "1 2", 3) + "\n")
        outcome = read_outcome(read_family, mutated)
        assert isinstance(outcome, str), kind
        assert outcome == read_outcome(reference_read_family, mutated), kind


def reference_json(f) -> str:
    return json.dumps({"n": f.n, "members": [list(elements_of(m)) for m in f.members]})


def test_json_writer_matches_json_dumps(corpus):
    edges = [SetFamily(3, ()), SetFamily(3, (0,)), SetFamily(256, (0, 1 << 255))]
    for f in [f for _, f in corpus] + edges:
        assert write_family_json(f) == reference_json(f), f


@settings(max_examples=200, deadline=None)
@given(families())
def test_json_writer_and_incidence_match_references_on_random_families(f):
    assert write_family_json(f) == reference_json(f)
    assert incidence_columns(f) == reference_columns(f)


# Element spellings json.loads reads as something other than the canonical
# int, or as an int out of range.
BAD_ELEMENTS = ["true", "false", "null", "1.0", "01", "-1", "1e0", "0", "+1", '"1"', "[1]"]
BAD_GROUND = ["04", "true", "4.0", "-4", '"4"', "0", "257", "null"]


@st.composite
def json_texts(draw):
    """A written JSON family, with up to three members, elements, keys or spaces changed,
    its end cut short and trailing characters added."""
    f = draw(families())
    n = str(f.n)
    members = [[str(e) for e in elements_of(m)] for m in f.members]
    swapped = False
    key = '"n"'
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["element", "reverse", "empty", "duplicate", "swap", "ground", "keys",
                                     "key-name"]))
        i = draw(st.integers(min_value=0, max_value=len(members)))
        if kind == "element" and i < len(members) and members[i]:
            j = draw(st.integers(min_value=0, max_value=len(members[i]) - 1))
            members[i][j] = draw(st.sampled_from(BAD_ELEMENTS + [str(f.n + 1)]))
        elif kind == "reverse" and i < len(members):
            members[i].reverse()
        elif kind == "empty":
            members.insert(i, [])
        elif kind == "duplicate" and i < len(members):
            members.insert(i, list(members[i]))
        elif kind == "swap" and members:
            j = draw(st.integers(min_value=0, max_value=len(members) - 1))
            i = min(i, len(members) - 1)
            members[i], members[j] = members[j], members[i]
        elif kind == "ground":
            n = draw(st.sampled_from(BAD_GROUND))
        elif kind == "keys":
            swapped = True
        elif kind == "key-name":
            key = draw(st.sampled_from(['"N"', '"m"', '"\\u006e"', "'n'"]))
    spelled = "[" + ", ".join("[" + ", ".join(m) + "]" for m in members) + "]"
    if swapped:
        text = '{"members": %s, %s: %s}' % (spelled, key, n)
    else:
        text = '{%s: %s, "members": %s}' % (key, n, spelled)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        kind = draw(st.sampled_from(["drop-space", "add-space", "newline", "tab"]))
        if kind == "drop-space":
            at = text.find(" ", at)
            text = text if at < 0 else text[:at] + text[at + 1 :]
        else:
            text = text[:at] + {"add-space": " ", "newline": "\n", "tab": "\t"}[kind] + text[at:]
    text = text[: len(text) - draw(st.integers(min_value=0, max_value=2))]  # the closing "]}" cut short
    return text + draw(st.sampled_from(["", "\n", "\n\n", " ", "x", "]", "}", ",", "\n{}", "\r\n"]))


@settings(max_examples=500, deadline=None)
@given(json_texts(), st.sampled_from([0, 1, 5, 24, family_io.SLICE]))
@example('{"n": 4, "members": [[1, 2], [3, 4]]}', family_io.SLICE)
@example('{"n": 04, "members": [[1, 2], [3, 4]]}', family_io.SLICE)
@example('{"n": true, "members": [[1]]}', family_io.SLICE)
@example('{"n": 3, "members": [[]]}', family_io.SLICE)
@example('{"n": 3, "members": [[], [1]]}', family_io.SLICE)
@example('{"n": 3, "members": []}', family_io.SLICE)
@example('{"n": 3, "members": [[1]]}\n', 0)
@example('{"n": 3, "members": [[1]]}x', family_io.SLICE)
@example('{"n": 3, "members": [[1]]]', family_io.SLICE)
@example('{"n": 3, "members": [[1]], "members": [[2]]}', family_io.SLICE)
@example('{"n": 3, "members": [[1]]} {"n": 3, "members": [[1]]}', family_io.SLICE)
def test_json_reader_matches_json_loads(text, slice_chars):
    # The canonical spelling is read through the element table, every other
    # text by json.loads: both give the same family or the same message.
    with mock.patch.object(family_io, "SLICE", slice_chars):
        assert read_outcome(read_family_json, text) == read_outcome(_loaded_family, text)


@settings(max_examples=200, deadline=None)
@given(families(), st.sampled_from(["", "\n"]))
def test_canonical_json_is_read_without_json_loads(f, end):
    text = write_family_json(f) + end
    if not f.members or 0 in f.members:  # no "[[" to start at, or "[]", which the table refuses
        assert read_family_json(text) == f
        return
    with mock.patch("vccover.families_json._loaded_family", side_effect=AssertionError(text)):
        assert read_family_json(text) == f
    with mock.patch.object(family_io, "SLICE", 0):
        with mock.patch("vccover.families_json._loaded_family", side_effect=AssertionError(text)):
            assert read_family_json(text) == f


# The shattering search narrows each probe's candidates to the union of the
# members holding it, when they are fewer than the candidates. Families that
# take that union at the root (fewer members than active elements), hold an
# empty member or mixed sizes, never take it (full families), and the
# explore witnesses, which take it deep in their refutations. Where its
# children cannot be records, a probe narrows to the elements of at least two
# of its holders, and a child j sizes short of a record is cut when a half
# has fewer than 2^j members. In the 6-element family the record {1,2} is
# found under the root's second candidate; the later sibling {6} then narrows
# to two holders, and its record {1,2,6} takes 2, held by exactly two of the
# members holding 6. In the 4-element family (8 members, dimension 3) the
# root cuts 3, two sizes short, for a half of 3 members, and enters 4, whose
# halves of exactly 4 members lead to the record {1,2,4}.
PRUNING_FAMILIES = [
    family_from_masks(10, [0b1011001110, 0b0110110101, 0b1101011011]),
    family_from_masks(8, [0, 0b111, 0b11100, 0b1110000, 0b10101010, 0b01010101]),
    family_from_masks(7, [0b1, 0b110, 0b1111000, 0b0101011, 0b1010100, 0b1111111]),
    make_family(6, [[2], [1, 2, 3], [4], [1, 4], [2, 6], [3, 6], [1, 2, 3, 4, 6], [1, 5, 6]]),
    make_family(4, [[1, 2], [3], [1, 3], [2, 3], [1, 4], [1, 2, 4], [3, 4], [2, 3, 4]]),
    *(full_family(n, s) for n, s in [(6, 3), (7, 2), (8, 4), (9, 6)]),
    *(covering_witness_family(2, s, n) for s in (3, 4, 5) for n in (*range(s, 13), 24, 40)),
]


def test_shattering_search_prunes_to_the_reference():
    for f in PRUNING_FAMILIES:
        report = vc_dimension(f)
        assert report == reference_vc(f), f
        assert_walk_matches(f, f)
        assert shatters(f, report.witness)
        ground = min(f.n, 9)
        for size in range(1, 4):
            for probe in iter_fixed_size_masks(ground, size):
                expected = len({probe & m for m in f.members}) == 1 << size
                assert shatters(f, probe) == expected, (f, elements_of(probe))


def test_shatters_beyond_size_three():
    assert shatters(full_family(16, 8), full_mask(8))
    assert not shatters(full_family(12, 3), full_mask(4))


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


def sibling_exclusion_search(search: _Search, d: int) -> tuple[SetFamily | None, int]:
    """The packed DFS with refuted-sibling exclusion and root symmetry only.

    The search as it was before orbit exclusion: a failed branch leaves
    `allowed` alone, never its orbit. Returns the first covering with
    VC <= d in DFS order, or None, and the nodes visited.
    """
    words, ones = _pattern_words(search.universe, search.n, d)
    guard = ones << (1 << (d + 1))
    coverage_of, candidates_for = search.coverage_of, search.candidates_for
    missing, chosen, state, allowed = search.all_covered & ~coverage_of[0], 1, words[0], -1
    nodes, stack = 1, []
    while True:
        nodes += 1
        if not missing:
            return search.family(chosen), nodes
        live = candidates_for[(missing & -missing).bit_length() - 1] & allowed
        while True:
            if live:
                low = live & -live
                live ^= low
                j = low.bit_length() - 1
                grown = state | words[j]
                if not (grown + ones) & guard:
                    stack.append((missing, chosen, state, allowed, live, low))
                    missing, chosen, state = missing & ~coverage_of[j], chosen | low, grown
                    break
                allowed ^= low
            elif stack:
                missing, chosen, state, allowed, live, low = stack.pop()
                allowed ^= low
            else:
                return None, nodes


def test_orbit_exclusion_matches_sibling_exclusion():
    triples = [(k, s, n) for n in range(1, 9) for s in range(1, n + 1)
               if math.comb(n, s) <= 70 for k in range(1, s + 1)]
    triples += [(2, 4, 8), (3, 5, 8), (2, 6, 9), (2, 4, 9), (2, 5, 8)]
    cases = fewer = 0
    for k, s, n in dict.fromkeys(triples):
        params = Parameters(k, s, n)
        for d in range(min(s, n - s) + 1):
            expected, reference_nodes = sibling_exclusion_search(_Search(params, 126), d)
            stats: dict = {}
            assert exists_covering_with_vc_at_most(params, d, cap=126, stats=stats) == expected, \
                (k, s, n, d)
            assert stats["nodes"] <= reference_nodes, (k, s, n, d)
            fewer += stats["nodes"] < reference_nodes
            cases += 1
    assert cases == 289
    assert fewer > 0


def test_orbit_masks_match_permutation_images():
    cases = 0
    for n in range(1, 7):
        perms = [dict(enumerate(p, 1)) for p in itertools.permutations(range(n))]
        for s in range(1, n + 1):
            universe = list(iter_fixed_size_masks(n, s))
            index = {m: j for j, m in enumerate(universe)}
            image = [[sum(1 << perm[e] for e in elements_of(m)) for m in universe]
                     for perm in perms]

            def orbit(fixed: tuple[int, ...], j: int) -> int:
                return sum({1 << index[images[j]] for images in image
                            if all(images[f] == universe[f] for f in fixed)})

            # fixed = () is the root's map: every s-set is an image of every other.
            for fixed in [(), (0,), *[(0, u1) for u1 in range(1, len(universe))]]:
                masks = _orbit_masks(universe, sum(1 << f for f in fixed))
                assert masks == [orbit(fixed, j) for j in range(len(universe))], (s, n, fixed)
                cases += 1
    assert cases == 141


def test_second_level_orbits_fix_both_chosen_members():
    # Orbits that fix only the newest member are coarser and unsound, yet on
    # every case above they still meet the same first solution, so check the
    # selector each map is built for. Every search builds the root's map for
    # no member, then the map for {1..s}, the root's only branch, then one for
    # {1..s} and each entered level-1 branch, a holder of the smallest k-set
    # outside {1..s}, in DFS order; no map is built deeper down.
    selectors = []

    def spy(universe, chosen):
        selectors.append(chosen)
        return _orbit_masks(universe, chosen)

    for triple in [(2, 4, 8), (2, 6, 9), (3, 4, 7)]:
        search = _Search(Parameters(*triple), 126)
        missing = search.all_covered & ~search.coverage_of[0]
        first = (missing & -missing).bit_length() - 1
        selectors.clear()
        with mock.patch("vccover.oracle._orbit_masks", spy):
            for d in range(search.bound + 1):
                if search.search(d) is not None:
                    break
        starts = [i for i, chosen in enumerate(selectors) if chosen == 0]
        assert starts[0] == 0 and len(starts) == d + 1, triple
        second_level = 0
        for a, b in zip(starts, [*starts[1:], len(selectors)]):
            _, first_level, *below = selectors[a:b]
            assert first_level == 1, triple
            branches = [chosen ^ 1 for chosen in below]
            assert all(chosen & 1 for chosen in below), triple
            assert all(branch.bit_count() == 1 and search.candidates_for[first] & branch
                       for branch in branches), triple
            assert branches == sorted(set(branches)), triple
            second_level += len(branches)
        assert second_level, triple


def small_universes():
    """Every (k, s, n) with n <= 7 and C(n, s) <= 24, with its `_Search`."""
    for n in range(1, 8):
        for s in range(1, n + 1):
            if math.comb(n, s) <= 24:
                for k in range(1, s + 1):
                    yield (k, s, n), _Search(Parameters(k, s, n), 24)


def test_oracle_tables_match_subset_definitions():
    for (k, s, n), search in small_universes():
        k_sets = list(iter_fixed_size_masks(n, k))
        assert search.universe == list(iter_fixed_size_masks(n, s))
        assert search.all_covered == (1 << len(k_sets)) - 1
        for j, member in enumerate(search.universe):
            inside = {i for i, a in enumerate(k_sets) if a & member == a}
            assert {i for i in range(len(k_sets)) if search.coverage_of[j] >> i & 1} == inside
        for i, a in enumerate(k_sets):
            holders = {j for j, member in enumerate(search.universe) if a & member == a}
            assert {j for j in range(len(search.universe))
                    if search.candidates_for[i] >> j & 1} == holders, (k, s, n, i)


def test_pattern_words_set_each_probe_trace_bit():
    cases = 0
    for (k, s, n), search in small_universes():
        for d in range(min(s, n - s) + 1):
            words, ones = _pattern_words(search.universe, n, d)
            width = (1 << (d + 1)) + 1
            probes = list(iter_fixed_size_masks(n, d + 1))
            assert ones == sum(1 << p * width for p in range(len(probes)))
            for member, word in zip(search.universe, words, strict=True):
                expected = sum(
                    1 << p * width + t
                    for p, probe in enumerate(probes)
                    for t in range(width - 1)
                    if spread(t, elements_of(probe)) == member & probe
                )
                assert word == expected, (k, s, n, d, member)
            cases += 1
    assert cases == 152


def test_packed_shattering_test_matches_vc_dimension():
    rng = random.Random(20240517)
    outcomes = set()
    for (k, s, n), search in small_universes():
        universe = search.universe
        for d in range(min(s, n - s) + 1):
            words, ones = _pattern_words(universe, n, d)
            guard = ones << (1 << (d + 1))
            for _ in range(12):
                chosen = rng.sample(range(len(universe)), rng.randint(1, len(universe)))
                state = 0
                for j in chosen:
                    state |= words[j]
                family = family_from_masks(n, [universe[j] for j in chosen])
                shattered = bool((state + ones) & guard)
                assert shattered == (vc_dimension(family).dimension > d), (k, s, n, d, family.members)
                outcomes.add(shattered)
    assert outcomes == {False, True}


def reference_enumeration(k, s, n):
    """The power-set minimum from the definitions, as (value, witness, examined).

    Every nonempty subfamily of the s-sets is a selector over them, in
    integer order; a subfamily covers when each k-set lies in a member, and
    its VC-dimension is the plain probe scan. The witness is the first
    covering selector whose VC is the minimum, and the count examined is
    every selector.
    """
    universe = list(iter_fixed_size_masks(n, s))
    k_sets = list(iter_fixed_size_masks(n, k))
    scored = []
    for selector in range(1, 1 << len(universe)):
        members = [m for j, m in enumerate(universe) if selector >> j & 1]
        if all(any(a & m == a for m in members) for a in k_sets):
            scored.append((reference_vc(SetFamily(n, members)).dimension, selector, members))
    value, _, members = min(scored)
    return value, SetFamily(n, members), (1 << len(universe)) - 1


def test_power_set_route_matches_reference():
    cases = 0
    for n in range(1, 11):
        for s in range(1, n + 1):
            if math.comb(n, s) <= 10:
                for k in range(1, s + 1):
                    result = oracle_D(Parameters(k, s, n), method="exhaustive")
                    got = (result.value, result.witness, result.nodes_explored)
                    assert got == reference_enumeration(k, s, n), (k, s, n)
                    cases += 1
    assert cases == 115


def reference_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ExplorationRow._fields)
    writer.writerows(sorted(rows, key=lambda r: (r.k, r.s, r.n)))
    return buf.getvalue()


def test_rows_to_csv_matches_csv_writer():
    # Sweeps with oracle, unique-family and blank-method rows, and None exacts.
    rows = [row for k, s in [(1, 1), (1, 2), (2, 2), (2, 3), (2, 4), (3, 4)]
            for row in explore(k, s, range(s, 31))]
    assert {row.method for row in rows} == {"", "oracle", "unique-family"}
    assert any(row.exact is None for row in rows)
    for order in (rows, rows[::-1]):
        assert rows_to_csv(order) == reference_csv(order)
