"""Integer bitmask primitives for subsets of a ground set [n] = {1,...,n}.

Element i corresponds to bit i-1, so masks compare as integers in
colexicographic (canonical) order: lowest bit = element 1.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

# Hard ceiling on ground-set size; everything at desk scale sits far below.
MAX_GROUND = 256


def check_ground(n: int) -> None:
    """Raise ValueError when a ground size exceeds MAX_GROUND."""
    if n > MAX_GROUND:
        raise ValueError(f"ground size {n} exceeds maximum {MAX_GROUND}")


def mask_of(elements: Iterable[int]) -> int:
    """Build a mask from 1-based elements (no range validation here)."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Return the 1-based elements of a mask in ascending order.

    A negative mask has infinitely many set bits, so it is refused.
    """
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def full_mask(n: int) -> int:
    """Mask of the whole ground set [n]."""
    return (1 << n) - 1


def is_within(mask: int, n: int) -> bool:
    """True if every set bit lies in [n]."""
    return mask >= 0 and mask >> n == 0


def iter_fixed_size_masks(n: int, r: int) -> Iterator[int]:
    """Yield every r-subset of [n] as a mask, in increasing integer order.

    Uses Gosper's hack; the integer order coincides with colex order on
    element sets, which is the canonical order everywhere in this package.
    The size is checked at the call, not at the first ``next``.
    """
    if r < 0 or r > n:
        raise ValueError(f"subset size {r} out of range for ground size {n}")

    def gosper() -> Iterator[int]:
        if r == 0:
            yield 0
            return
        v = (1 << r) - 1
        limit = 1 << n
        while v < limit:
            yield v
            low = v & -v
            ripple = v + low
            v = ripple | (((v ^ ripple) >> 2) // low)

    return gosper()


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The columns of a bit matrix: bit j of column i is bit i of rows[j].

    Every row must lie below ``1 << width``. Built by string transpose, 256
    rows at a time: the chunk's rows, highest index first, are spelled as
    one string of ``bin(row | 1 << width)``, so one strided slice from
    offset width+2-i and ``int(..., 2)`` read the chunk's bits of column i,
    kept as 32 little-endian bytes at offset 32*i of the chunk's bytes.
    Column i joins its 32 bytes of every chunk into one int, so the work is
    linear in the matrix's size and no buffer per column is kept.
    """
    flag, stride, chunks = 1 << width, width + 3, []
    for start in range(0, len(rows), 256):
        spelled = "".join([bin(row | flag) for row in reversed(rows[start : start + 256])])
        chunks.append(b"".join([int(spelled[width + 2 - i :: stride], 2).to_bytes(32, "little")
                                for i in range(width)]))
    return tuple([int.from_bytes(b"".join([chunk[32 * i : 32 * i + 32] for chunk in chunks]), "little")
                  for i in range(width)])


def iter_submasks(mask: int, r: int) -> Iterator[int]:
    """Yield the r-subsets of `mask` in increasing integer order."""
    positions = elements_of(mask)
    for compressed in iter_fixed_size_masks(len(positions), r):
        yield spread(compressed, positions)


def spread(compressed: int, positions: Sequence[int]) -> int:
    """Map bit i of `compressed` to element positions[i] (1-based).

    Strictly increasing positions preserve integer order, so enumerating
    compressed masks in order enumerates the expanded masks in order.
    """
    out = 0
    i = 0
    while compressed:
        if compressed & 1:
            out |= 1 << (positions[i] - 1)
        compressed >>= 1
        i += 1
    return out
