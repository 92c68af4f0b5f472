"""Exact-arithmetic certificates and construction verification.

Certificates never touch floating point: every inequality is evaluated
over integers, so a holding certificate is a proof at the stated
parameters, not an estimate.

The covering checks are imported by the functions that call them, so
`explore` (in ``exploration``), which takes the lower-bound certificate
from here, never loads them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bitsets import mask_of
from .constructions import covering_witness_family, recursive_family
from .families import Parameters, SetFamily, text_pieces
from .vc import sauer_shelah_sum, shatters, vc_dimension

LOWER_KIND = "lower-vc-ge-k"
UPPER_KIND = "upper-vc-le-k"


class Certificate(NamedTuple):
    """Exact integer record of a one-sided bound on the minimum VC-dimension.

    Lower kind: holds when the covering-forced family size beats the
    threshold at which families must have VC-dimension at least k.
    Upper kind: holds when an explicit witness family verifies k-covering
    with VC-dimension at most k.
    """

    params: Parameters
    kind: str
    inequality_lhs: int
    inequality_rhs: int
    holds: bool
    witness_file: str | None = None
    sufficient_inequality_holds: bool | None = None

    def as_dict(self) -> dict:
        return {
            "params": {"k": self.params.k, "s": self.params.s, "n": self.params.n},
            "kind": self.kind,
            "inequality_lhs": str(self.inequality_lhs),
            "inequality_rhs": str(self.inequality_rhs),
            "holds": self.holds,
            "witness_file": self.witness_file,
            "sufficient_inequality_holds": self.sufficient_inequality_holds,
        }


def min_cover_size_lower_bound(k: int, s: int, n: int) -> int:
    """Least possible size of a k-covering s-uniform family: ceil(C(n,k)/C(s,k)).

    Each member contains exactly C(s,k) of the C(n,k) many k-sets.
    """
    Parameters(k, s, n)
    return -(-math.comb(n, k) // math.comb(s, k))


def lower_bound_certificate(k: int, s: int, n: int) -> Certificate:
    """Certify, by counting alone, that every k-covering s-uniform family on [n] has VC-dimension >= k.

    Holds when sum_{i<k} C(n,i) < ceil(C(n,k)/C(s,k)): the forced family
    size then exceeds the shattering threshold. The classical sufficient
    inequality k*C(n,k-1) < C(n,k)/C(s,k), compared cross-multiplied, is
    reported alongside; it implies the certificate for 2k <= n but can
    fail at the boundary while the direct comparison still holds.
    """
    lhs = sauer_shelah_sum(n, k)
    rhs = min_cover_size_lower_bound(k, s, n)
    sufficient = k * math.comb(n, k - 1) * math.comb(s, k) < math.comb(n, k)
    return Certificate(
        params=Parameters(k, s, n),
        kind=LOWER_KIND,
        inequality_lhs=lhs,
        inequality_rhs=rhs,
        holds=lhs < rhs,
        sufficient_inequality_holds=sufficient,
    )


def family_certifies_upper(f: SetFamily, k: int) -> bool:
    """Re-verify an upper-bound witness: k-covering and VC-dimension <= k."""
    from .covering import is_k_covering

    return is_k_covering(f, k).holds and vc_dimension(f).dimension <= k


def upper_bound_certificate(k: int, s: int, n: int, witness_path: str | None = None) -> Certificate:
    """Build the witness family and certify D(k,s,n) <= k by direct verification."""
    from .covering import is_k_covering

    witness = covering_witness_family(k, s, n)
    dim = vc_dimension(witness).dimension
    holds = is_k_covering(witness, k).holds and dim <= k
    if witness_path is not None:
        with open(witness_path, "w") as fh:
            fh.writelines(text_pieces(witness))
    return Certificate(
        params=Parameters(k, s, n),
        kind=UPPER_KIND,
        inequality_lhs=dim,
        inequality_rhs=k,
        holds=holds,
        witness_file=witness_path,
    )


class PropConstReport(NamedTuple):
    """Per-item verification of the recursive family's stated properties.

    ``interpolation_violation`` is (member, t-1) for the first member, in
    member order, whose top element t cannot move down one step to t-1
    while t-1 is still above its second-largest element; None when
    property 3 holds.
    """

    m: int
    k: int
    n: int
    covering: bool
    unique_faces: bool
    interpolation: bool
    tail_shattered: bool
    tail_checked: bool
    uncovered: int | None = None
    violator: int | None = None
    interpolation_violation: tuple[int, int] | None = None

    @property
    def passed(self) -> bool:
        return self.covering and self.unique_faces and self.interpolation and self.tail_shattered

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "items": {
                "covering": self.covering,
                "unique_faces": self.unique_faces,
                "interpolation": self.interpolation,
                "tail_shattered": self.tail_shattered,
            },
            "tail_checked": self.tail_checked,
            "passed": self.passed,
        }


def _interpolation_violation(members: tuple[int, ...]) -> tuple[int, int] | None:
    """Property 3 by one lowering step: the first member, in member order, that fails it.

    A member with top element t passes when t-1 is not above its
    second-largest element, or when moving t down to t-1 gives a member.
    That step implies every lower value: the lowered member keeps the same
    second-largest element, so its own step covers t-2, and so on. Returns
    (member, t-1) for the first member whose lowered member is missing, or
    None when every member passes.
    """
    member_set = set(members)
    for member in members:
        top = 1 << member.bit_length() >> 1  # bit of t; 0 for the empty member
        rest, below = member ^ top, top >> 1  # the other elements; bit of t-1
        if below > rest and rest | below not in member_set:
            return member, member.bit_length() - 1
    return None


def verify_prop_const(m: int, k: int) -> PropConstReport:
    """Check the four stated properties of the recursive family.

    1. k-covering; 2. unique faces; 3. any member's top element can be
    lowered to any value still above the second-largest element, staying in
    the family; 4. the top k-element window of the ground set is shattered
    (checked only when 2k < n, vacuous otherwise). Property 3 is checked
    one lowering step per member (see `_interpolation_violation`).
    """
    from .covering import first_faceless, is_k_covering

    n = m + k - 1
    fam = recursive_family(m, k)
    cover = is_k_covering(fam, k)
    violator = first_faceless(fam)
    interpolation_violation = _interpolation_violation(fam.members)
    tail_checked = 2 * k < n
    tail_shattered = not tail_checked or shatters(fam, mask_of(range(n - k + 1, n + 1)))
    return PropConstReport(
        m=m,
        k=k,
        n=n,
        covering=cover.holds,
        unique_faces=violator is None,
        interpolation=interpolation_violation is None,
        tail_shattered=tail_shattered,
        tail_checked=tail_checked,
        uncovered=cover.uncovered,
        violator=violator,
        interpolation_violation=interpolation_violation,
    )


class MainTheoremReport(NamedTuple):
    """Desk-scale check that the minimum VC-dimension equals k at the stabilized ground size."""

    k: int
    s: int
    n: int
    certificate: Certificate
    witness_covering: bool
    witness_vc: int

    @property
    def passed(self) -> bool:
        return self.certificate.holds and self.witness_covering and self.witness_vc == self.k

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "s": self.s,
            "n": self.n,
            "certificate_holds": self.certificate.holds,
            "witness_covering": self.witness_covering,
            "witness_vc": self.witness_vc,
            "passed": self.passed,
        }


def stabilized_ground_size(k: int, s: int) -> int:
    """The ground size k^2 * C(s,k) + k from which the lower bound certificate is guaranteed."""
    return k * k * math.comb(s, k) + k


def verify_main_theorem(k: int, s: int) -> MainTheoremReport:
    """At n = k^2*C(s,k)+k: certificate forces >= k, explicit witness achieves exactly k."""
    from .covering import is_k_covering

    n = Parameters(k, s, stabilized_ground_size(k, s)).n
    cert = lower_bound_certificate(k, s, n)
    witness = covering_witness_family(k, s, n)
    covering = is_k_covering(witness, k).holds
    dim = vc_dimension(witness).dimension
    return MainTheoremReport(
        k=k, s=s, n=n, certificate=cert, witness_covering=covering, witness_vc=dim
    )
