"""Exact-arithmetic certificates, construction verification, and exploration tables.

Certificates never touch floating point: every inequality is evaluated
over integers, so a holding certificate is a proof at the stated
parameters, not an estimate.

The covering checks and the oracle are imported by the functions that call
them, so `explore` never loads the covering checks and the verify commands
never load the oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bitsets import MAX_GROUND, check_ground, mask_of
from .constructions import covering_witness_family, recursive_family
from .families import FeasibilityError, Parameters, SetFamily, write_family
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


class ExplorationRow(NamedTuple):
    """One (k, s, n) line of the exploration table."""

    k: int
    s: int
    n: int
    lower: int
    upper: int
    exact: int | None
    method: str

    @property
    def stab_upper_hint(self) -> bool:
        return self.lower == self.upper == self.k


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
            fh.write(write_family(witness))
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
    """Exhaustively check the four stated properties of the recursive family.

    1. k-covering; 2. unique faces; 3. any member's top element can be
    lowered to any value still above the second-largest element, staying in
    the family; 4. the top k-element window of the ground set is shattered
    (checked only when 2k < n, vacuous otherwise). Property 3 is checked
    one lowering step per member (see `_interpolation_violation`).
    """
    from .covering import first_faceless, is_k_covering

    n = m + k - 1
    if n > 16:
        raise ValueError(f"ground size {n} beyond the exhaustive-check range (16)")
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


def _explore_one(params: Parameters, cap: int | None) -> ExplorationRow:
    # Only exploration rows search, so the verify commands never load the oracle.
    from .oracle import oracle_D

    k, s, n = params
    # Without the certificate: any covering family with s < n needs two
    # distinct members, which already shatter a singleton.
    lower = k if lower_bound_certificate(k, s, n).holds else int(s < n)
    # The witness is s-uniform, so this is at most min(s, n - s).
    upper = vc_dimension(covering_witness_family(k, s, n)).dimension
    try:
        exact, method = oracle_D(params, cap=cap).value, "oracle"
    except FeasibilityError:
        # Beyond the cap, the covering family is still known when it is forced
        # (the full family for s = k, the whole ground set for s = n): it is
        # the witness, so its VC-dimension is exact.
        exact, method = (upper, "unique-family") if s == k or s == n else (None, "")
    return ExplorationRow(k=k, s=s, n=n, lower=lower, upper=upper, exact=exact, method=method)


def explore(
    k: int,
    s: int,
    n_range: range,
    cap: int | None = None,
    workers: int = 1,
) -> list[ExplorationRow]:
    """Bracket the minimum VC-dimension over a range of ground sizes.

    All (k, s, n) are checked before any row runs; rows run in turn, for
    each n >= s of the range in ascending order. The rows and the smallest
    n above the maximum ground size are found from the range's ends, so a
    range of any length is refused at once when it reaches past 256.
    Each row asks `oracle_D` for the exact value under ``cap`` (None: the
    oracle's default); a row beyond it reports a forced family or a blank.
    ``workers`` is ignored; it stays only because the benchmark's traced
    run (``bench/tracing.py``) passes it.
    """
    # Checked apart from n, so a bad pair is refused even when no n in the range reaches s.
    if not (1 <= k <= s <= MAX_GROUND):
        raise ValueError(f"need 1 <= k <= s <= {MAX_GROUND}, got k={k} s={s}")
    ascending = n_range if n_range.step > 0 else n_range[::-1]

    def at_least(bound: int) -> range:
        return ascending[max(0, -(-(bound - ascending.start) // ascending.step)):]

    oversized = at_least(MAX_GROUND + 1)
    if oversized:
        check_ground(oversized[0])
    return [_explore_one(Parameters(k, s, n), cap) for n in at_least(s)]


def stab_upper(rows: list[ExplorationRow]) -> int | None:
    """Least n in the sampled range from which every later row brackets exactly k.

    An upper-bound hint for the stabilization point only: it says nothing
    about ground sizes outside the sampled range.
    """
    candidate: int | None = None
    for row in sorted(rows, key=lambda r: r.n):
        if not row.stab_upper_hint:
            candidate = None
        elif candidate is None:
            candidate = row.n
    return candidate


def monotonicity_scan(rows: list[ExplorationRow]) -> list[tuple[int, int, int, int]]:
    """Adjacent sampled pairs where the exact value strictly drops as n grows."""
    known = sorted((r.n, r.exact) for r in rows if r.exact is not None)
    return [(n1, v1, n2, v2) for (n1, v1), (n2, v2) in zip(known, known[1:]) if v2 < v1]


def surjectivity_scan(rows: list[ExplorationRow]) -> set[int]:
    """The set of exact values attained across the sampled rows."""
    return {r.exact for r in rows if r.exact is not None}


def rows_to_csv(rows: list[ExplorationRow]) -> str:
    """Frozen CSV schema: k,s,n,lower,upper,exact,method, rows sorted by (k, s, n).

    No field holds a comma, quote or newline, so each line is its fields
    joined by commas, a None exact written as "", byte for byte what
    ``csv.writer`` writes.
    """
    lines = [ExplorationRow._fields, *sorted(rows, key=lambda r: (r.k, r.s, r.n))]
    return "".join(",".join(["" if v is None else str(v) for v in line]) + "\n" for line in lines)
