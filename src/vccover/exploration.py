"""Exploration tables: D(k,s,n) bracketed over a range of ground sizes,
and the ``explore`` command's handler.

Only the ``explore`` command loads this module, so no other command
compiles the exploration code.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from .bitsets import MAX_GROUND, check_ground
from .constructions import covering_witness_family
from .families import FeasibilityError, Parameters
from .oracle import oracle_D
from .vc import vc_dimension
from .verify import lower_bound_certificate


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


def _explore_one(params: Parameters, cap: int | None) -> ExplorationRow:
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


def run(args) -> tuple[int, list[str]]:
    """The ``explore`` command: the CSV table, with the scans on stderr, or
    everything as one JSON object."""
    from .cli import EXIT_OK, _json_line

    rows = explore(args.k, args.s, args.n, cap=args.cap)
    hint = stab_upper(rows)
    drops = monotonicity_scan(rows)
    attained = sorted(surjectivity_scan(rows))
    if args.format == "json":
        payload = {
            "rows": [row._asdict() for row in rows],
            "stab_upper_hint": hint,
            "non_monotone_pairs": drops,
            "attained_values": attained,
        }
        return EXIT_OK, [_json_line(payload)]
    print(f"stab_upper_hint={hint}", file=sys.stderr)
    if drops:
        print(f"non-monotone pairs: {drops}", file=sys.stderr)
    print(f"attained values: {attained}", file=sys.stderr)
    return EXIT_OK, [rows_to_csv(rows)]
