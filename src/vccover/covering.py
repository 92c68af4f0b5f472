"""Deciding the k-covering property and the unique face property.

Both checks return explicit witnesses: the canonically smallest uncovered
k-set, or per-member faces (a proper subset contained in no other member,
minimal by size then mask order). Witness canonicality makes runs
byte-reproducible. Both read the family's incidence table
(``incidence_columns``): the members containing a set are the AND of its
elements' columns. One member loop decides every face verdict;
``first_faceless`` stops it at the first member without a face, and only
``unique_face`` goes on to search each member's smallest face.

Faces are closed upward inside their member S: a superset of a face K
inside S is held only by members holding K, so only by S. So S has a face
iff one of its co-singletons (S less one element) is a face, and the
verdict looks at those alone.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .bitsets import elements_of, spread
from .families import SetFamily, incidence_columns


class CoverReport(NamedTuple):
    """Outcome of a k-covering check; `uncovered` present iff it fails."""

    k: int
    holds: bool
    uncovered: int | None = None

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "holds": self.holds,
            "uncovered": None if self.uncovered is None else list(elements_of(self.uncovered)),
        }


class FaceReport(NamedTuple):
    """Unique-face check: for each member, a witness K contained in no other member."""

    holds: bool
    faces: dict[int, int]
    violator: int | None = None

    def as_dict(self) -> dict:
        return {
            "holds": self.holds,
            "faces": [
                {"member": list(elements_of(s)), "face": list(elements_of(k))}
                for s, k in self.faces.items()
            ],
            "violator": None if self.violator is None else list(elements_of(self.violator)),
        }


def _first_meeting(columns: list[int], r: int, start: int, floor: int) -> int | None:
    """Colex-smallest r-subset of the columns' indices whose AND reaches `floor`.

    The AND runs over the chosen columns, starting from `start`; `floor`
    must lie inside every such AND, so it is the least value one can take.
    Depth-first from the top element down, each level in ascending order,
    so subsets are met in colex order. ANDs only shrink as a subset grows:
    once a prefix reaches the floor every completion does, and the
    smallest completion adds the lowest remaining indices.
    """
    if start == floor:
        return (1 << r) - 1

    def dfs(acc: int, below: int, need: int) -> int | None:
        for i in range(need - 1, below):
            meet = acc & columns[i]
            if meet == floor:
                return (1 << i) | ((1 << (need - 1)) - 1)
            if need > 1:
                rest = dfs(meet, i, need - 1)
                if rest is not None:
                    return rest | (1 << i)
        return None

    return dfs(start, len(columns), r) if r else None


def is_k_covering(f: SetFamily, k: int, columns: list[int] | None = None) -> CoverReport:
    """Check that every k-subset of [n] lies inside some member.

    A k-set is covered iff the AND of its elements' incidence columns is
    nonzero. k-sets are visited in canonical order, so a failure reports
    the canonically smallest uncovered k-set. ``columns`` is the family's
    incidence table when the caller has built it already.
    """
    if not (1 <= k <= f.n):
        raise ValueError(f"need 1 <= k <= n, got k={k} n={f.n}")
    everyone = (1 << len(f.members)) - 1
    if columns is None:
        columns = incidence_columns(f)
    uncovered = _first_meeting(columns, k, everyone, 0)
    if uncovered is not None:
        return CoverReport(k=k, holds=False, uncovered=uncovered)
    return CoverReport(k=k, holds=True)


def _face_verdicts(
    f: SetFamily, table: list[int] | None = None
) -> Iterator[tuple[int, tuple[int, ...], list[int], int, bool]]:
    """Yield ``(member, elements, columns, bit, has_face)`` per member, in member order.

    ``columns`` are the incidence columns of the member's elements and
    ``bit`` its own index bit; a face is a proper subset whose column AND is
    exactly ``bit``. ``has_face`` looks at the co-singletons alone: without
    element i the AND is ``prefix & suffix[i + 1]``, the ANDs of the columns
    before i and after it, with ``everyone`` as the empty AND; the first
    co-singleton face ends the test. ``table`` is the family's incidence
    table, built here when not given. Raises ValueError for the empty family
    on the first ``next``.
    """
    if not f.members:
        raise ValueError("unique-face check is undefined for the empty family")
    if table is None:
        table = incidence_columns(f)
    everyone = (1 << len(f.members)) - 1
    for j, member in enumerate(f.members):
        elements = elements_of(member)
        columns = [table[e - 1] for e in elements]
        bit = 1 << j
        suffix = [everyone]
        for column in reversed(columns):
            suffix.append(suffix[-1] & column)
        suffix.reverse()
        prefix, has_face = everyone, False
        for i, column in enumerate(columns):
            if prefix & suffix[i + 1] == bit:
                has_face = True
                break
            prefix &= column
        yield member, elements, columns, bit, has_face


def first_faceless(f: SetFamily, columns: list[int] | None = None) -> int | None:
    """The first member without a face, or None when the unique face property holds.

    Decided by co-singletons alone, exact as faces are closed upward inside
    a member (see the module docstring): about 2|S| ANDs per member S.
    ``columns`` is the family's incidence table when the caller has it.
    """
    verdicts = _face_verdicts(f, columns)
    return next((member for member, _, _, _, has_face in verdicts if not has_face), None)


def unique_face(f: SetFamily) -> FaceReport:
    """Find every member's smallest face; the violator is the first member without one.

    The smallest face is searched by size, then in mask order, only where a
    co-singleton is a face, so the search ends. Scans every member, so
    ``faces`` is complete; callers that need only the verdict use
    ``first_faceless``, which stops at the violator.
    """
    everyone = (1 << len(f.members)) - 1
    faces: dict[int, int] = {}
    violator = None
    for member, elements, columns, bit, has_face in _face_verdicts(f):
        if has_face:
            for r in range(len(elements)):
                face = _first_meeting(columns, r, everyone, bit)
                if face is not None:
                    faces[member] = spread(face, elements)
                    break
        elif violator is None:
            violator = member
    return FaceReport(holds=violator is None, faces=faces, violator=violator)


def ufp_implies_vc_bound_check(f: SetFamily) -> bool:
    """Property probe: a uniform family with the unique face property has VC-dimension below its member size."""
    if not f.is_uniform():
        raise ValueError("check requires a uniform family")
    if first_faceless(f) is not None:
        return True
    from .vc import vc_dimension

    return vc_dimension(f).dimension < f.uniform_size
