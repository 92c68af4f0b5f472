"""Exact shattering checks and VC-dimension computation.

A probe A is shattered when every subset of A occurs as A ∩ S for a member
S; ``shatters`` checks exactly that, by counting A's distinct traces. The
dimension search is one depth-first walk over the shattered sets, keeping
the first (canonically smallest) probe it meets of each size; when the walk
runs to completion it is an exhaustive refutation one size above the
largest. The walk owns both rules that bound it. Probes are drawn only
from "active" elements (present in some member, absent from some member):
an element in every member blocks the empty trace, an element in no member
blocks the full trace, so no other probe can be shattered. And it stops at
the counting cap: no shattered set is larger than log2 of the member count,
than the number of active elements, or than the caller's bound.

The walk works in element space: a probe is a mask over [n] and the
elements it may still take are a candidate mask. It reads the family's
incidence table (``incidence_columns``: per element, the bitset of members
containing it), grows probes depth-first in colex order and keeps, per
probe, its trace cells, the member bitsets realizing each of its 2^|A|
traces. Adding an element splits every cell with one AND; a probe with an
empty cell is pruned with all its extensions, because every subset of a
shattered set is shattered (Sauer 1972, Shelah 1972). A shattered
extension of A realizes its full trace, so one member of A's all-in cell
(the members containing A) holds all of it; candidates outside the union
of that cell are dropped, which keeps the colex order of the rest.

Once the walk holds a shattered r-set, a smaller probe matters only if it
grows to a new record, of size r + 1, and the walk enters only the
children that still can. A child that must grow needs two members of its
parent's all-in cell, one with its next element and one without, so such
children are drawn from the elements of at least two of those members.
Each further element halves every cell, so a child j elements short of a
record is cut when a half of a cell it splits has fewer than 2^j members:
the per-cell form of the log2 cap. A child with no candidates below its
lowest element is never entered. Every subtree cut holds no probe of size
r + 1, so no record is lost: the first probe of each size, and with it the
colex witness, is the one the uncut walk meets.

The first cell is the set of members walked: all of them for
``vc_dimension``, one subfamily for the power-set oracle, which walks each
covering subfamily of its universe on the universe's one table.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .bitsets import elements_of, is_within
from .families import SetFamily, incidence_columns


class TraceSet(NamedTuple):
    """The intersections {A ∩ S : S in family} for a probe A."""

    probe: int
    traces: frozenset[int]


class VcReport(NamedTuple):
    """Exact VC-dimension with a maximal shattered witness.

    ``refuted_size`` is the smallest probe size at which nothing is
    shattered, always dimension + 1.
    """

    dimension: int
    witness: int
    refuted_size: int

    def as_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "witness": list(elements_of(self.witness)),
            "refuted_size": self.refuted_size,
        }


def trace(f: SetFamily, probe: int) -> TraceSet:
    """Compute the deduplicated trace set of `probe` against the family."""
    if not is_within(probe, f.n):
        raise ValueError(f"probe {elements_of(probe)} not within [{f.n}]")
    return TraceSet(probe=probe, traces=frozenset(probe & m for m in f.members))


def shatters(f: SetFamily, probe: int) -> bool:
    """True iff the family realizes all 2^|probe| subsets of the probe."""
    if not f.members:
        raise ValueError("shattering is undefined for the empty family")
    return len(trace(f, probe).traces) == 1 << probe.bit_count()


def _shattered_walk(members: Sequence[int], columns: Sequence[int], cell: int, bound: int) -> list[int]:
    """``first[r]``: the colex-smallest shattered r-set of the subfamily ``cell``.

    ``cell`` holds the member bits of the subfamily walked, over the
    columns of ``members``. Its active elements are those whose column
    meets the cell without holding all of it, and the walk's cap is
    min(``bound``, floor(log2 |cell|), number of active elements): 2^r
    traces need 2^r members, and a shattered set is made of active
    elements.

    One depth-first walk over the shattered sets of the active elements,
    from the top element down: a probe is extended only by live candidates
    below its lowest element, tried in ascending order. So the walk meets
    the probes of each size in colex order, and the first probe it meets at
    depth r is ``first[r]``. Adding element i splits every trace cell (the
    members realizing one trace of the probe so far) into those that contain
    i and those that do not; an empty half means a missing trace, and since
    shattered sets are down-closed no extension of that probe can shatter.
    The walk stops at the first probe of the cap's size; otherwise it runs
    to completion, and the list ends at the largest shattered size.

    ``cells[0]`` is the all-in cell: the members containing every element
    chosen so far. A shattered extension realizes its full trace, so all of
    its elements lie in one of those members, and each node narrows its
    candidates to their union. Narrowing only removes elements no shattered
    extension can hold and leaves the order of the rest alone. The union
    costs one OR per member of the cell, so it is taken only when the cell
    has fewer members than there are candidates left to narrow.

    Children of size below ``len(first)`` cannot be records, so they matter
    only if they grow to size ``len(first)``. For them the same loop over
    the all-in cell collects ``twice``, the elements in at least two of its
    members, and the node narrows to ``twice`` instead: an extension of a
    child needs one member holding the child and its next element and one
    holding the child without it. In the split, a child ``short`` elements
    below ``len(first)`` needs 2^short members in each half, since each of
    those elements halves every cell again; the bits are counted only when
    ``short`` is positive, after the test for an empty half. ``short`` is
    worked out per candidate, since a sibling's subtree can raise
    ``len(first)``. A child with no live candidates below its lowest
    element is recorded if new but not entered. Each rule cuts only
    subtrees with no shattered probe of size ``len(first)``, and so none
    larger, so ``first`` is the list the uncut walk returns.
    """
    active = 0
    for i, column in enumerate(columns):
        if 0 < column & cell < cell:
            active |= 1 << i
    cap = min(bound, cell.bit_count().bit_length() - 1, active.bit_count())
    first = [0]

    def dfs(cells: list[int], live: int, probe: int, size: int) -> bool:
        holders = cells[0]
        if holders.bit_count() < live.bit_count():
            union = twice = 0
            while holders:
                j = holders.bit_length() - 1
                member = members[j]
                twice |= union & member
                union |= member
                holders ^= 1 << j
            live &= twice if size < len(first) else union
        rest = live
        while rest:
            low = rest & -rest
            rest ^= low
            column = columns[low.bit_length() - 1]
            # The elements the child lacks to set a record.
            short = len(first) - size
            split = []
            for part in cells:
                inside = part & column
                if not inside or inside == part:
                    break
                if short and (inside.bit_count() >> short == 0
                              or (part ^ inside).bit_count() >> short == 0):
                    break
                split.append(inside)
                split.append(part ^ inside)
            else:
                if not short:
                    first.append(probe | low)
                    if size == cap:
                        return True
                below = live & (low - 1)
                if below and dfs(split, below, probe | low, size + 1):
                    return True
        return False

    if cap:
        dfs([cell], active, 0, 1)
    return first


def vc_dimension(f: SetFamily) -> VcReport:
    """Exact VC-dimension of a nonempty family, with witness and refutation.

    One walk over every member, bounded by min(largest member size,
    n - smallest member size): a shattered set fits in a member, and its
    empty trace needs a member disjoint from it. The walk adds the counting
    cap. The witness is the colex-smallest shattered set of the largest
    size. When the walk stops below its cap, the refutation at
    dimension + 1 is the completed walk; at the cap it is the counting
    bound itself.
    """
    if not f.members:
        raise ValueError("VC-dimension is undefined for the empty family")
    sizes = [m.bit_count() for m in f.members]
    bound = min(max(sizes), f.n - min(sizes))
    first = _shattered_walk(f.members, incidence_columns(f), (1 << len(sizes)) - 1, bound)
    return VcReport(dimension=len(first) - 1, witness=first[-1], refuted_size=len(first))


def sauer_shelah_sum(n: int, k: int) -> int:
    """Exact value of C(n,0) + C(n,1) + ... + C(n,k-1)."""
    if not (0 <= k <= n + 1):
        raise ValueError(f"need 0 <= k <= n+1, got k={k} n={n}")
    return sum(math.comb(n, i) for i in range(k))
