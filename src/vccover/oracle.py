"""Exact computation of the minimum VC-dimension over k-covering s-uniform families.

Two independent routes:

* a depth-first branch-and-bound over subfamilies of the full s-uniform
  family, branching on the canonically smallest uncovered k-set and
  pruning any partial family that already shatters a (d+1)-set, and
* a plain power-set enumeration of every subfamily, kept as a
  cross-check at very small universes.

The branch-and-bound packs the traces of the partial family on every
(d+1)-probe into one int, a field of pattern bits per probe (see
`_Search`), so adding a member is one OR and the shattering test for all
probes is one addition. Two more facts prune the search. "VC <= d" is
hereditary, so a candidate whose branch failed under a node lies in no
covering below that node's later siblings, and is excluded there. And
Sym({k+1..n}) fixes the root's k-set {1..k} and permutes its s-supersets
transitively, so a covering exists iff one contains {1..s}, the root's
first branch; the other root branches are never entered.

One `_Search` per (k, s, n) serves both routes: its universe, coverage
table and candidate bitmaps are built once, after the cap check, and
serve every d of the scan; only the pattern words are built per d.

Both routes are sequential and deterministic: branches and subfamilies run
in canonical order, so value, witness and node count never depend on the
worker count.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .bitsets import elements_of, iter_fixed_size_masks, spread
from .families import (
    DEFAULT_CAP,
    DEFAULT_ENUM_CAP,
    FeasibilityError,
    Parameters,
    SetFamily,
    family_from_masks,
)


class OracleResult(NamedTuple):
    """Exact minimum VC-dimension with a witness family and search statistics."""

    params: Parameters
    value: int
    witness: SetFamily
    nodes_explored: int
    method: str

    def as_dict(self) -> dict:
        """The result without its search statistics, which stay off the data stream."""
        return {
            "params": {"k": self.params.k, "s": self.params.s, "n": self.params.n},
            "value": self.value,
            "witness": {"n": self.witness.n, "members": self.witness.member_elements()},
            "method": self.method,
        }


class _Search:
    """Branch-and-bound over the subfamilies of one (k, s, n) universe.

    The constructor checks the cap, then builds everything that does not
    depend on d once per triple: the universe of s-sets, the coverage
    table and the candidate bitmaps. `search(d)` builds only the pattern
    words for its d, and `nodes` counts the nodes of every search run.

    The traces of a partial family live in one int with a field of P + 1
    bits per (d+1)-probe, P = 2^(d+1): bit t of a field is set when some
    chosen member has trace pattern t on that probe, and the top bit is a
    guard that stays 0. Adding a member ORs in its precomputed pattern word.
    A probe is shattered when its P pattern bits are all set, which is
    exactly when adding 1 at the field's low end carries into its guard;
    no other field carries, so one addition tests every probe.

    `allowed` is a bitmask of the universe indices a subtree may still use.
    Once branch j under a node fails, by a shattered probe or an empty
    subtree, j is dropped from `allowed` for the node's later siblings and
    everything below them: by heredity, any covering with VC <= d holding
    the node's members and j would have been found in branch j. The root
    tries only its first candidate {1..s} (see the module docstring). Both
    prunes cut only failing subtrees, so the DFS meets solutions in the
    same order and returns the same witness.
    """

    def __init__(self, params: Parameters, cap: int):
        k, s, n = params.k, params.s, params.n
        universe_size = math.comb(n, s)
        if universe_size > cap:
            raise FeasibilityError(f"universe C({n},{s}) = {universe_size} exceeds cap {cap}")
        self.n = n
        self.universe = list(iter_fixed_size_masks(n, s))
        k_sets = list(iter_fixed_size_masks(n, k))
        self.all_covered = (1 << len(k_sets)) - 1
        # coverage_of[j]: bitmap of the indices of the k-sets inside universe[j]
        self.coverage_of = [
            sum(1 << i for i, a in enumerate(k_sets) if a & member == a)
            for member in self.universe
        ]
        # candidates_for[i]: bitmap of the universe indices covering k-set i
        self.candidates_for = [
            sum(1 << j for j, bits in enumerate(self.coverage_of) if bits >> i & 1)
            for i in range(len(k_sets))
        ]
        self.nodes = 0

    def search(self, d: int) -> tuple[int, ...] | None:
        """The members of the first covering with VC <= d in DFS order, or None.

        A member's pattern word sets, in each probe's field, the bit of its
        trace on that probe: one lookup of `member & probe` in the probe's
        table of its 2^(d+1) traces. The root branches on the k-set {1..k}
        and, by symmetry, enters only its first candidate, universe[0] =
        {1..s}; one member shatters no probe, so that branch needs no test.
        Every index starts allowed.
        """
        width = (1 << (d + 1)) + 1
        self.words = [0] * len(self.universe)
        self.ones = 0
        for p, probe in enumerate(iter_fixed_size_masks(self.n, d + 1)):
            offset = p * width
            self.ones |= 1 << offset
            positions = elements_of(probe)
            bit_of = {spread(t, positions): 1 << (offset + t) for t in range(width - 1)}
            for j, member in enumerate(self.universe):
                self.words[j] |= bit_of[member & probe]
        self.guard = self.ones << (width - 1)
        self.nodes += 1
        found = self.dfs(self.all_covered & ~self.coverage_of[0], 1, self.words[0], -1)
        if found is None:
            return None
        return tuple(member for j, member in enumerate(self.universe) if found >> j & 1)

    def dfs(self, missing: int, chosen: int, state: int, allowed: int) -> int | None:
        """Bitmap of the chosen universe indices of the first covering below, or None.

        `missing` is the bitmap of uncovered k-sets, `chosen` that of the
        universe indices taken so far.
        """
        self.nodes += 1
        if not missing:
            return chosen
        live = self.candidates_for[(missing & -missing).bit_length() - 1] & allowed
        words, ones, guard, coverage_of = self.words, self.ones, self.guard, self.coverage_of
        while live:
            low = live & -live
            live ^= low
            j = low.bit_length() - 1
            grown = state | words[j]
            if not (grown + ones) & guard:
                result = self.dfs(missing & ~coverage_of[j], chosen | low, grown, allowed)
                if result is not None:
                    return result
            allowed ^= low
        return None


def exists_covering_with_vc_at_most(
    params: Parameters,
    d: int,
    cap: int = DEFAULT_CAP,
    stats: dict | None = None,
) -> SetFamily | None:
    """Find a k-covering s-uniform family on [n] with VC-dimension <= d, or None.

    Exhaustive over subfamilies of the full s-uniform family: depth-first,
    always branching on the canonically smallest uncovered k-set, pruning a
    branch as soon as the partial family shatters any (d+1)-set, never
    re-entering a refuted sibling and entering only the first root branch
    (see `_Search`). When ``stats`` is given, the search adds its node
    count to ``stats["nodes"]``.
    """
    bound = min(params.s, params.n - params.s)
    if not (0 <= d <= bound):
        raise ValueError(f"need 0 <= d <= min(s, n-s) = {bound}, got d={d}")
    search = _Search(params, cap)
    found = search.search(d)
    if stats is not None:
        stats["nodes"] = stats.get("nodes", 0) + search.nodes
    return None if found is None else family_from_masks(params.n, found)


@lru_cache(maxsize=65536)
def _cached_vc(n: int, members: tuple[int, ...]) -> int:
    from .vc import vc_dimension

    return vc_dimension(family_from_masks(n, members)).dimension


def _oracle_enumerate(search: _Search) -> tuple[int, SetFamily, int]:
    """Minimum over all covering subfamilies by full power-set enumeration.

    Reads the universe and coverage table of `search`. Returns the minimum,
    its first witness and the count of subfamilies examined.
    """
    universe, coverage_of = search.universe, search.coverage_of
    best_value: int | None = None
    best_members: tuple[int, ...] | None = None
    examined = 0
    for selector in range(1, 1 << len(universe)):
        examined += 1
        covered = 0
        sel = selector
        while sel:
            low = sel & -sel
            covered |= coverage_of[low.bit_length() - 1]
            sel ^= low
        if covered != search.all_covered:
            continue
        members = tuple(member for j, member in enumerate(universe) if selector >> j & 1)
        value = _cached_vc(search.n, members)
        if best_value is None or value < best_value:
            best_value, best_members = value, members
            if value == 0:
                break
    assert best_value is not None and best_members is not None
    return best_value, family_from_masks(search.n, best_members), examined


def oracle_D(
    params: Parameters,
    cap: int | None = None,
    workers: int = 1,
    method: str = "branch-and-bound",
) -> OracleResult:
    """Exact minimum VC-dimension over k-covering s-uniform families on [n].

    The default route scans d upward and answers the decision problem per
    d; minimality of the returned value is certified by the completed
    refutation at d - 1. The "exhaustive" route enumerates every subfamily
    and must agree; it is the built-in cross-check.

    ``workers`` is ignored, as the search is sequential; it stays only
    because the benchmark's traced run (``bench/tracing.py``) passes it.
    """
    if method not in ("branch-and-bound", "exhaustive"):
        raise ValueError(f"unknown oracle method {method!r}")
    exhaustive = method == "exhaustive"
    if cap is None:
        cap = DEFAULT_ENUM_CAP if exhaustive else DEFAULT_CAP
    search = _Search(params, cap)
    if exhaustive:
        value, witness, examined = _oracle_enumerate(search)
        return OracleResult(params, value, witness, examined, method)
    for d in range(min(params.s, params.n - params.s) + 1):
        found = search.search(d)
        if found is not None:
            return OracleResult(params, d, family_from_masks(params.n, found), search.nodes, method)
    raise AssertionError("full family always qualifies at d = min(s, n-s)")
