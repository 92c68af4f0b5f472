"""Exact shattering checks and VC-dimension computation.

A probe A is shattered when every subset of A occurs as A ∩ S for a member
S. The dimension search walks probe sizes upward, keeping the first
(canonically smallest) witness per size; the first size with no shattered
probe is an exhaustive refutation. Probes are drawn only from "active"
elements (present in some member, absent from some member): an element in
every member blocks the empty trace, an element in no member blocks the
full trace, so no other probe can be shattered.

The search works in element space: a probe is a mask over [n] and the
elements it may still take are a candidate mask. It reads the family's
incidence table (``incidence_columns``: per element, the bitset of members
containing it), grows probes depth-first in colex order and keeps, per
probe, its trace cells, the member bitsets realizing each of its 2^|A|
traces. Adding an element splits every cell with one AND; a probe with an
empty cell is pruned with all its extensions, because every subset of a
shattered set is shattered (Sauer 1972, Shelah 1972, Pajor 1985). A
shattered extension of A realizes its full trace, so one member of A's
all-in cell (the members containing A) holds all of it; candidates outside
the union of that cell are dropped, which keeps the colex order of the
rest. ``shatters`` runs the same search with the probe's own elements as
the candidates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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
    if not is_within(probe, f.n):
        raise ValueError(f"probe {elements_of(probe)} not within [{f.n}]")
    if not probe:
        return True
    return _first_shattered(f.members, incidence_columns(f), probe, probe.bit_count()) is not None


def _first_shattered(
    members: tuple[int, ...], columns: list[int], candidates: int, size: int
) -> int | None:
    """Colex-smallest shattered `size`-subset of the candidate mask, or None.

    Depth-first from the top element down, each level trying its candidates
    in ascending order, so probes are met in colex order and the first hit
    is the minimum. Adding element i splits every trace cell (the members
    realizing one trace of the probe so far) into those that contain i and
    those that do not; an empty half means a missing trace, and since
    shattered sets are down-closed no extension of that probe can shatter.

    ``cells[0]`` is the all-in cell: the members containing every element
    chosen so far. A shattered extension realizes its full trace, so all of
    its elements lie in one of those members, and each node narrows its
    candidates to their union. Narrowing only removes elements no shattered
    extension can hold and leaves the order of the rest alone, so the first
    hit is still the colex-smallest. The union costs one OR per member of
    the cell, so it is taken only when the cell has fewer members than
    there are candidates left to narrow.
    """

    def dfs(cells: list[int], live: int, need: int) -> int | None:
        holders = cells[0]
        if holders.bit_count() < live.bit_count():
            union = 0
            while holders:
                j = holders.bit_length() - 1
                union |= members[j]
                holders ^= 1 << j
            live &= union
        # The lowest need-1 candidates cannot top a probe of `need` elements.
        rest = live
        for _ in range(need - 1):
            rest &= rest - 1
        while rest:
            low = rest & -rest
            rest ^= low
            column = columns[low.bit_length() - 1]
            split = []
            for cell in cells:
                inside = cell & column
                if not inside or inside == cell:
                    break
                split.append(inside)
                split.append(cell ^ inside)
            else:
                if need == 1:
                    return low
                below = dfs(split, live & (low - 1), need - 1)
                if below is not None:
                    return below | low
        return None

    return dfs([(1 << len(members)) - 1], candidates, size)


def vc_dimension(f: SetFamily) -> VcReport:
    """Exact VC-dimension of a nonempty family, with witness and refutation.

    The search is capped by min(n, largest member size, log2 |F|, number of
    active elements); a shattered set cannot exceed any of these. When the
    scan stops below the cap, the refutation at dimension + 1 is the
    completed exhaustive pass; at the cap it is the counting bound itself.
    """
    if not f.members:
        raise ValueError("VC-dimension is undefined for the empty family")
    members = f.members
    everyone = (1 << len(members)) - 1
    columns = incidence_columns(f)
    active = 0
    for i, column in enumerate(columns):
        if 0 < column < everyone:
            active |= 1 << i
    sizes = [m.bit_count() for m in members]
    min_size = min(sizes)
    floor_log2 = len(members).bit_length() - 1
    cap = min(f.n, max(sizes), floor_log2, active.bit_count())
    dimension = 0
    witness = 0
    for size in range(1, cap + 1):
        if size + min_size > f.n:
            # No member can be disjoint from a probe this large, so the
            # empty trace is unrealizable and nothing of this size shatters.
            break
        hit = _first_shattered(members, columns, active, size)
        if hit is None:
            break
        dimension, witness = size, hit
    return VcReport(dimension=dimension, witness=witness, refuted_size=dimension + 1)


def sauer_shelah_sum(n: int, k: int) -> int:
    """Exact value of C(n,0) + C(n,1) + ... + C(n,k-1)."""
    if not (0 <= k <= n + 1):
        raise ValueError(f"need 0 <= k <= n+1, got k={k} n={n}")
    return sum(math.comb(n, i) for i in range(k))
