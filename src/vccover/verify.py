"""Exact-arithmetic certificates, construction verification, and exploration tables.

Certificates never touch floating point: every inequality is evaluated
over integers, so a holding certificate is a proof at the stated
parameters, not an estimate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bitsets import elements_of, full_mask, mask_of
from .covering import is_k_covering, unique_face
from .constructions import covering_witness_family, full_family, recursive_family
from .families import DEFAULT_CAP, Parameters, SetFamily, family_from_masks, write_family
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
    return is_k_covering(f, k).holds and vc_dimension(f).dimension <= k


def upper_bound_certificate(k: int, s: int, n: int, witness_path: str | None = None) -> Certificate:
    """Build the witness family and certify D(k,s,n) <= k by direct verification."""
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
    """Per-item verification of the recursive family's stated properties."""

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


def verify_prop_const(m: int, k: int) -> PropConstReport:
    """Exhaustively check the four stated properties of the recursive family.

    1. k-covering; 2. unique faces; 3. any member's top element can be
    lowered to any value still above the second-largest element, staying in
    the family; 4. the top k-element window of the ground set is shattered
    (checked only when 2k < n, vacuous otherwise).
    """
    n = m + k - 1
    if n > 16:
        raise ValueError(f"ground size {n} beyond the exhaustive-check range (16)")
    fam = recursive_family(m, k)
    cover = is_k_covering(fam, k)
    faces = unique_face(fam)
    member_set = set(fam.members)
    interpolation = True
    interpolation_violation = None
    for member in fam.members:
        elems = elements_of(member)
        t_second, t_top = elems[-2], elems[-1]
        base = member & ~(1 << (t_top - 1))
        for t_hat in range(t_second + 1, t_top):
            candidate = base | (1 << (t_hat - 1))
            if candidate not in member_set:
                interpolation = False
                interpolation_violation = (member, t_hat)
                break
        if not interpolation:
            break
    tail_checked = 2 * k < n
    if tail_checked:
        window = mask_of(range(n - k + 1, n + 1))
        tail_shattered = shatters(fam, window)
    else:
        tail_shattered = True
    return PropConstReport(
        m=m,
        k=k,
        n=n,
        covering=cover.holds,
        unique_faces=faces.holds,
        interpolation=interpolation,
        tail_shattered=tail_shattered,
        tail_checked=tail_checked,
        uncovered=cover.uncovered,
        violator=faces.violator,
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
    n = Parameters(k, s, stabilized_ground_size(k, s)).n
    cert = lower_bound_certificate(k, s, n)
    witness = covering_witness_family(k, s, n)
    covering = is_k_covering(witness, k).holds
    dim = vc_dimension(witness).dimension
    return MainTheoremReport(
        k=k, s=s, n=n, certificate=cert, witness_covering=covering, witness_vc=dim
    )


def _explore_one(k: int, s: int, n: int, cap: int) -> ExplorationRow:
    # Only exploration rows search, so the verify commands never load the oracle.
    from .oracle import oracle_D

    lower = 0
    if s < n:
        # Any covering family with s < n needs two distinct members, which
        # already shatter a singleton.
        lower = 1
    if lower_bound_certificate(k, s, n).holds:
        lower = max(lower, k)
    witness_vc = vc_dimension(covering_witness_family(k, s, n)).dimension
    upper = min(s, n - s, witness_vc)
    exact: int | None = None
    method = ""
    if math.comb(n, s) <= cap:
        exact = oracle_D(Parameters(k, s, n), cap=cap).value
        method = "oracle"
    elif s == k or s == n:
        # The covering family is forced (the full family for s = k, the
        # whole ground set for s = n), so its VC-dimension is exact.
        forced = full_family(n, s) if s == k else family_from_masks(n, (full_mask(n),))
        exact = vc_dimension(forced).dimension
        method = "unique-family"
    return ExplorationRow(k=k, s=s, n=n, lower=lower, upper=upper, exact=exact, method=method)


def explore(
    k: int,
    s: int,
    n_range: range,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> list[ExplorationRow]:
    """Bracket the minimum VC-dimension over a range of ground sizes.

    Rows are computed sequentially and returned sorted by n. ``workers`` is
    ignored; it stays only because the benchmark's traced run
    (``bench/tracing.py``) passes it.
    """
    return [_explore_one(k, s, n, cap) for n in sorted(v for v in n_range if v >= s)]


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
    """Frozen CSV schema: k,s,n,lower,upper,exact,method; csv writes a None exact as ""."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ExplorationRow._fields)
    writer.writerows(sorted(rows, key=lambda r: (r.k, r.s, r.n)))
    return buf.getvalue()
