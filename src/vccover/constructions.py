"""Builders for the families under study.

Structured ground sets (coordinate grids, products) are relabeled into
[n] with fixed bijections so every family lives on the one universal
representation; the relabelings are part of the external contract and
derived families are byte-reproducible.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .bitsets import MAX_GROUND, check_ground, elements_of, full_mask
from .families import Parameters, SetFamily, enumerate_subsets, family_from_masks


class HypercubeSpec(namedtuple("HypercubeSpec", "k m")):
    """Width-k coordinate grid with m axes, relabeled into [(k+1)^m].

    A point (a_1, ..., a_m) with a_i in {0..k} gets label
    1 + sum_i a_i * (k+1)^(i-1).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace validates too

    def __new__(cls, k: int, m: int) -> HypercubeSpec:
        if k < 1 or m < 1:
            raise ValueError(f"need k >= 1 and m >= 1, got k={k} m={m}")
        if m > 8 or k >= MAX_GROUND:  # (k+1)^m > 256, refused before the power is taken
            raise ValueError(f"ground size {k + 1}^{m} exceeds maximum {MAX_GROUND}")
        self = super().__new__(cls, k, m)
        check_ground(self.ground_size)
        return self

    @property
    def ground_size(self) -> int:
        return (self.k + 1) ** self.m

    def label(self, coords: tuple[int, ...]) -> int:
        base = self.k + 1
        out = 0
        for a in reversed(coords):
            out = out * base + a
        return 1 + out


def full_family(n: int, s: int) -> SetFamily:
    """All C(n, s) subsets of size s, in canonical order.

    The enumeration is already canonical (increasing, distinct), so its masks
    go to SetFamily as they come, with no set or sort copy.
    """
    return SetFamily(n, enumerate_subsets(n, s))


def initial_segment_family(n: int) -> SetFamily:
    """The proper initial segments of [n]: empty set, {1}, {1,2}, ..., {1..n-1}."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    check_ground(n)
    return family_from_masks(n, ((1 << i) - 1 for i in range(n)))


def cone(f: SetFamily) -> SetFamily:
    """Adjoin a fresh point n+1 to every member; shatters the same sets as f.

    The same new top bit on every member keeps their order, so the members
    go to SetFamily as they come, with no sort or dedupe.
    """
    top = 1 << f.n
    return SetFamily(f.n + 1, [m | top for m in f.members])


def product(f: SetFamily, ell: int) -> SetFamily:
    """Replace each member S by S x [ell] over ground [n*ell].

    The relabeling is row-major: point (v, x) with v in [n], x in [ell]
    maps to (v-1)*ell + x.
    """
    if ell < 1:
        raise ValueError(f"need ell >= 1, got {ell}")
    check_ground(f.n * ell)
    block = full_mask(ell)
    masks = []
    for m in f.members:
        out = 0
        for v in elements_of(m):
            out |= block << ((v - 1) * ell)
        masks.append(out)
    return family_from_masks(f.n * ell, masks)


def hypercube_family(k: int, m: int) -> SetFamily:
    """All width-k subgrids of the m-axis grid {0..k}^m, one per excluded value vector.

    (k+1)^m members of k^m points each; the family covers every k-set
    because k points always miss some value on every axis.
    """
    spec = HypercubeSpec(k=k, m=m)
    axis_values = range(k + 1)
    masks = []
    for excluded in itertools.product(axis_values, repeat=m):
        mask = 0
        kept = [[a for a in axis_values if a != excluded[i]] for i in range(m)]
        for coords in itertools.product(*kept):
            mask |= 1 << (spec.label(coords) - 1)
        masks.append(mask)
    return family_from_masks(spec.ground_size, masks)


def base_pairs_family(m: int) -> SetFamily:
    """Consecutive pairs {2t-1, 2t} plus the closing pair {m-1, m}, on [m]."""
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    check_ground(m)
    masks = [0b11 << (2 * t - 2) for t in range(1, m // 2 + 1)] + [0b11 << (m - 2)]
    return family_from_masks(m, masks)


def recursive_step(f: SetFamily) -> SetFamily:
    """Extend a uniform family on [n] to [n+1] by adjoining every admissible new maximum.

    For each member S and each i with max(S) < i <= n+1, the output
    contains S with i adjoined; the member size grows by one.
    """
    if not f.is_uniform():
        raise ValueError("recursive step requires a uniform family")
    masks = [m | (1 << (i - 1)) for m in f.members for i in range(m.bit_length() + 1, f.n + 2)]
    return family_from_masks(f.n + 1, masks)


def recursive_family(m: int, k: int) -> SetFamily:
    """The depth-k extension of the base pairs family: (k+1)-sets on [m+k-1].

    k-covering with the unique face property; the top k-element window of
    the ground set is shattered whenever 2k < m+k-1.
    """
    if m < 2 or k < 1:
        raise ValueError(f"need m >= 2 and k >= 1, got m={m} k={k}")
    check_ground(m + k - 1)
    fam = base_pairs_family(m)
    for _ in range(k - 1):
        fam = recursive_step(fam)
    assert fam.n == m + k - 1 and fam.uniform_size == k + 1
    return fam


def covering_witness_family(k: int, s: int, n: int) -> SetFamily:
    """A k-covering s-uniform family on [n] with VC-dimension at most k.

    For s = k this is the full family (the only choice); otherwise the
    depth-k recursive family on [n-(s-k-1)] coned up until the member size
    reaches s and the ground reaches [n].
    """
    Parameters(k, s, n)
    if s == k:
        return full_family(n, k)
    fam = recursive_family(n - s + 2, k)
    for _ in range(s - k - 1):
        fam = cone(fam)
    assert fam.n == n and fam.uniform_size == s
    return fam
