"""Reading family files: the canonical text reader, and the loader the
commands that take ``--family`` call.

The members of a file are read in one pass through one table from element
spellings to bits (``_table_masks``); only a line it refuses goes through
the per-line checks, which name its fault.

Only a command that reads a family loads this module (the JSON reader in
``families_json`` takes its element table from here), so no other command
compiles it. The format itself is described in ``families``.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from itertools import chain
from typing import Iterable, Iterator

from .bitsets import MAX_GROUND
from .families import _TEXT_SPELLING, FORMAT_HEADER, FamilyFormatError, SetFamily, _parameter_line

SLICE = 16384  # characters per slice read by _table_masks


def _load_family(path: str) -> SetFamily:
    """The family in the file at ``path`` (stdin for "-"), text or JSON."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    # JSON when the first character that is not whitespace is "{". str.strip
    # keeps only a character that is not whitespace, and unlike text.lstrip()
    # this copies nothing when the text starts with whitespace.
    if next(filter(str.strip, text), "") == "{":
        from .families_json import read_family_json

        return read_family_json(text)
    return read_family(text)


def _header_n(lines: list[str]) -> int:
    """The ground size n from the parameter line, read before any member.

    The readers need n to range-check elements. The spelling of n and the
    rest of the line are checked after the members are read, against the
    line the writer writes for them.
    """
    if not lines or lines[0] != FORMAT_HEADER:
        raise FamilyFormatError(f"malformed header: expected '{FORMAT_HEADER}'")
    if len(lines) < 2:
        raise FamilyFormatError("malformed header: missing parameter line")
    field = lines[1].split(" ")[0]
    try:
        n = int(field[2:]) if field.startswith("n=") else 0
    except ValueError:
        n = 0
    if not 1 <= n <= MAX_GROUND:
        raise FamilyFormatError(f"malformed header: bad n in {lines[1]!r}")
    return n


def _append_member(masks: list[int], elements: Iterable[int], n: int, raw: str | list) -> None:
    """Append one member's mask to ``masks``, enforcing the canonical form.

    The elements must be ascending ints in [1, n], and the member must come
    strictly after ``masks[-1]`` in mask order. ``raw`` is the member as read
    (the text line or the JSON list); its repr quotes the member in error
    messages, and is built only when one is raised.
    """
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


def _line_elements(line: str) -> list[int]:
    """The elements of one member line, which must be spelled canonically.

    int() also takes signs, leading zeros, surrounding whitespace and
    non-ASCII digits, which write_family never writes, so the line must equal
    its elements joined back with single spaces. Range, order and duplicates
    are left to _append_member.
    """
    if line == "-":
        return []
    try:
        elements = [int(token) for token in line.split(" ")]
    except ValueError:
        raise FamilyFormatError(f"bad element in line {line!r}") from None
    if " ".join(map(str, elements)) != line:
        raise FamilyFormatError(f"non-canonical member line {line!r}")
    return elements


class _Counted:
    """An iterable that tells ``tuple()`` its length up front, so the tuple
    is allocated once at that size instead of grown by a quarter at a time."""

    def __init__(self, items: Iterable, count: int) -> None:
        self.items, self.count = items, count

    def __iter__(self) -> Iterator:
        return iter(self.items)

    def __length_hint__(self) -> int:
        return self.count


def _table_masks(text: str, start: int, stop: int, n: int, comma: str, empty: str, sep: str) -> tuple[int, ...]:
    """The masks of the members in ``text[start:stop]``, spelled as a format's
    writer spells them: ``(comma, empty, sep)`` as ``_member_chunks`` takes it.

    Elements go through one table from "1".."n" to bits, the writers'
    inverse, slice by slice, so one slice's member strings live at a time.
    The empty member is read where alone it can stand, first. At the first
    member the table refuses, FamilyFormatError is raised with that member
    and the mask before it (-1 at the first) as its args. The tuple, sized
    by the count of separators, takes each slice's masks in turn, and a
    slice's list is dropped once the tuple holds them, so no list of every
    mask is held beside it.
    """
    bit_of = defaultdict(int, {str(i + 1): 1 << i for i in range(n)}).__getitem__

    def slices():
        at, prev = start, -1
        while at <= stop:
            end = text.find(sep, at + SLICE, stop)
            end = stop if end < 0 else end
            masks = []
            for member in text[at:end].split(sep):
                bits = list(map(bit_of, member.split(comma)))  # 0, no bit, for any other token
                mask = sum(bits)
                if mask.bit_count() != len(bits) or mask <= prev or bits != sorted(bits):
                    if member != empty or prev >= 0:
                        raise FamilyFormatError(member, prev)
                    mask = 0  # the empty member, first
                masks.append(mask)
                prev = mask
            yield masks
            at = end + len(sep)

    return tuple(_Counted(chain.from_iterable(slices()), text.count(sep, start, stop) + 1))


def read_family(text: str) -> SetFamily:
    """Parse canonical text, enforcing the canonical form strictly.

    Rejects unsorted element lines, member lines out of mask order,
    duplicate members, and a parameter line other than the one
    ``write_family`` writes for the members read. The members are read
    by ``_table_masks`` alone; a line it refuses is named by
    ``_line_elements`` and ``_append_member``, which refuse exactly the
    lines it refuses.
    """
    stop = len(text) - text.endswith("\n")
    cut = text.find("\n", text.find("\n", 0, stop) + 1, stop)  # -1: no member line
    lines = text[: stop if cut < 0 else cut].split("\n")
    n = _header_n(lines)
    try:
        masks = () if cut < 0 else _table_masks(text, cut + 1, stop, n, *_TEXT_SPELLING)
    except FamilyFormatError as refused:  # these checks refuse the same line and name its fault
        line, prev = refused.args
        _append_member([] if prev < 0 else [prev], _line_elements(line), n, line)
    f = SetFamily(n, masks)
    expected = _parameter_line(f)
    if lines[1] != expected:
        actual = "no uniform size" if f.uniform_size is None else f"uniform size {f.uniform_size}"
        raise FamilyFormatError(f"malformed header {lines[1]!r}: the members need {expected!r} ({actual})")
    return f
