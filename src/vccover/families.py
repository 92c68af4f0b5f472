"""Set families over a ground set [n]: canonical representation and file I/O.

A family is stored as a sorted, deduplicated tuple of integer masks (see
bitsets). The canonical text format is::

    vcfam 1
    n=<n> s=<size or "mixed">
    1 2
    3 4

with one member per line, elements ascending, the empty member written as
"-", and member lines sorted by mask order. The reader accepts a parameter
line only when it is exactly the one the writer writes for the members
read. The JSON mirror ``{"n": int, "members": [[int, ...], ...]}``, with the
same ordering rules, is read and written in families_json.
"""

from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from typing import Iterable, Iterator

from .bitsets import check_ground, elements_of, iter_fixed_size_masks, mask_of

FORMAT_HEADER = "vcfam 1"
DEFAULT_CAP = 24
DEFAULT_ENUM_CAP = 12


class FamilyFormatError(ValueError):
    """Raised when family text/JSON violates the canonical format."""


class FeasibilityError(RuntimeError):
    """Universe size exceeds the configured feasibility cap."""


class Parameters(namedtuple("Parameters", "k s n")):
    """The (k, s, n) triple: covering arity, member size, ground size."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, k: int, s: int, n: int) -> Parameters:
        if not (1 <= k <= s <= n):
            raise ValueError(f"need 1 <= k <= s <= n, got k={k} s={s} n={n}")
        check_ground(n)
        return super().__new__(cls, k, s, n)


class SetFamily:
    """An ordered, deduplicated family of subsets of [n].

    Immutable after construction, and canonical by construction: ``members``
    must be strictly increasing masks inside [n], else ValueError. They are
    stored as a tuple, so a list passed in is copied, not shared.
    ``uniform_size`` is derived metadata: the common cardinality of the
    members, None when they differ (and for the empty family).
    Not a tuple: its length, iteration and ``in`` run over the members.
    """

    __slots__ = ("n", "members", "uniform_size")

    def __init__(self, n: int, members: Iterable[int]) -> None:
        members = tuple(members)
        if n < 1:
            raise ValueError("ground size must be a positive integer")
        check_ground(n)
        if members and (members[0] < 0 or members[-1] >> n):
            raise ValueError(f"member mask out of range for ground size {n}")
        if any(map(operator.ge, members, itertools.islice(members, 1, None))):
            raise ValueError("members must be distinct masks in increasing order")
        sizes = {m.bit_count() for m in members}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "uniform_size", sizes.pop() if len(sizes) == 1 else None)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"SetFamily is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        # Pickling and copying go through __init__, as __setattr__ refuses slot state.
        return SetFamily, (self.n, self.members)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.members) == (other.n, other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n!r}, members={self.members!r}, uniform_size={self.uniform_size!r})"

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def member_elements(self) -> list[tuple[int, ...]]:
        """Members as ascending element tuples, in canonical order."""
        return [elements_of(m) for m in self.members]

    def is_uniform(self) -> bool:
        return self.uniform_size is not None


def incidence_columns(f: SetFamily) -> list[int]:
    """The family's incidence table, one column per ground element.

    ``columns[i]`` is the bitset of member indices whose member contains
    element i+1 (bit j stands for ``f.members[j]``). The AND of the columns
    of a set A is then the set of members containing A. Built by string
    transpose, 256 members at a time: the chunk's members, highest index
    first, are spelled as one string of ``bin(m | 1 << n)`` rows, so element
    i+1 is the character at offset n+2-i of each row. One strided slice reads
    that character for the whole chunk, ``int(..., 2)`` makes it the chunk's
    256 column bits, and they append to the column's byte buffer as 32
    little-endian bytes. Each buffer becomes one int at the end, so the work
    is linear in the member count and no per-chunk int outlives its chunk.
    """
    n, members = f.n, f.members
    flag, width = 1 << n, n + 3
    buffers = [bytearray() for _ in range(n)]
    for start in range(0, len(members), 256):
        rows = "".join([bin(m | flag) for m in reversed(members[start : start + 256])])
        for i, buf in enumerate(buffers):
            buf += int(rows[n + 2 - i :: width], 2).to_bytes(32, "little")
    return [int.from_bytes(buf, "little") for buf in buffers]


def family_from_masks(n: int, masks: Iterable[int]) -> SetFamily:
    """Canonicalize masks (sort, dedupe) into a SetFamily; uniformity is derived.

    SetFamily checks n only after ``masks`` is read, so a caller passing a
    lazy walk over [n] checks n first, as ``enumerate_subsets`` does.
    """
    return SetFamily(n, tuple(sorted(set(masks))))


def make_family(n: int, members: Iterable[Iterable[int]]) -> SetFamily:
    """Build a canonical family from 1-based element collections.

    Duplicates are dropped silently; element out of [n] is an error.
    """
    masks = []
    for member in members:
        elems = tuple(member)
        for e in elems:
            if not (1 <= e <= n):
                raise ValueError(f"element {e} out of range [1, {n}]")
        masks.append(mask_of(elems))
    return family_from_masks(n, masks)


def enumerate_subsets(n: int, r: int) -> Iterator[int]:
    """All C(n, r) subsets of [n] as masks, each exactly once, in canonical order."""
    check_ground(n)
    if r < 0 or r > n:
        raise ValueError(f"subset size {r} out of range for ground size {n}")
    return iter_fixed_size_masks(n, r)


def _member_chunks(f: SetFamily, comma: str, empty: str, sep: str) -> Iterator[str]:
    """Each run of 256 members as one string: members joined by ``sep``,
    each its elements joined by ``comma``, or ``empty`` when it has none."""
    names = {1 << i: str(i + 1) for i in range(f.n)}
    for start in range(0, len(f.members), 256):
        spelled = []
        for m in f.members[start : start + 256]:
            parts = []
            while m:
                low = m & -m
                parts.append(names[low])
                m ^= low
            spelled.append(comma.join(parts) or empty)
        yield sep.join(spelled)


def text_pieces(f: SetFamily) -> Iterator[str]:
    """``write_family``'s text in pieces: the two header lines, then each
    run of 256 member lines, so a caller can write it without the whole."""
    yield f"{FORMAT_HEADER}\n{_parameter_line(f)}\n"
    for chunk in _member_chunks(f, " ", "-", "\n"):
        yield chunk + "\n"


def write_family(f: SetFamily) -> str:
    """Serialize to the canonical text format (LF line endings)."""
    return "".join(text_pieces(f))


def _parameter_line(f: SetFamily) -> str:
    """The line under the format header: ``n=<n> s=<uniform size or "mixed">``."""
    return f"n={f.n} s={'mixed' if f.uniform_size is None else f.uniform_size}"
