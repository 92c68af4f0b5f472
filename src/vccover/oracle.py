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
table and candidate bitmaps are built once, after the cap check, from the
package's own subset enumeration and incidence table, and serve every d of
the scan. Only the pattern words are built per d, each member's word as
one binary string read by one `int(..., 2)`, and one method, `search(d)`,
runs the whole search for that d.

Both routes are sequential and deterministic: branches and subfamilies run
in canonical order, so value, witness and node count never depend on the
worker count.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import and_
from typing import NamedTuple

from .bitsets import elements_of, iter_fixed_size_masks, iter_submasks, spread
from .families import (
    DEFAULT_CAP,
    DEFAULT_ENUM_CAP,
    FeasibilityError,
    Parameters,
    SetFamily,
    incidence_columns,
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


def _pattern_words(universe: list[int], n: int, d: int) -> tuple[list[int], int]:
    """Each member's pattern word for VC <= d, and the word with bit 0 of every field.

    A word has one field of 2^(d+1) + 1 bits per (d+1)-probe, probe p at
    bit offset p * width, and sets bit t of a field when the member's trace
    on that probe is pattern t (t spread over the probe's elements); the
    top bit of each field stays 0 as a guard. A member's word is spelled as
    one binary string, highest probe first, each field picked by one lookup
    of `member & probe` in that probe's table, and converted by one
    `int(..., 2)`, so the build is linear in the words' total width.
    """
    width = (1 << (d + 1)) + 1
    fields = ["0" * (width - 1 - t) + "1" + "0" * t for t in range(width - 1)]
    tables = []
    for probe in reversed(list(iter_fixed_size_masks(n, d + 1))):
        positions = elements_of(probe)
        tables.append((probe, {spread(t, positions): field for t, field in enumerate(fields)}))
    words = [int("".join([table[m & probe] for probe, table in tables]), 2) for m in universe]
    return words, int(fields[0] * len(tables), 2)


class _Search:
    """Branch-and-bound over the subfamilies of one (k, s, n) universe.

    The constructor checks the cap, then builds everything that does not
    depend on d once per triple, from the package's own kernels: the
    universe of s-sets; `coverage_of[j]`, the bitmap of the k-sets inside
    universe[j], as the OR of their index bits over `iter_submasks`; and
    `candidates_for[i]`, the bitmap of the members holding k-set i, as the
    AND of its elements' columns in the universe's incidence table, the
    rule `covering.py` uses. `search(d)` builds its d's pattern words
    (`_pattern_words`) and runs the DFS; `nodes` counts the nodes of every
    search run.

    The traces of a partial family live in one int with a field of P + 1
    bits per (d+1)-probe, P = 2^(d+1): bit t of a field is set when some
    chosen member has trace pattern t on that probe, and the top bit is a
    guard that stays 0. Adding a member ORs in its pattern word. A probe is
    shattered when its P pattern bits are all set, which is exactly when
    adding 1 at the field's low end carries into its guard; no other field
    carries, so one addition tests every probe.

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
        bit_of = {a: 1 << i for i, a in enumerate(iter_fixed_size_masks(n, k))}
        self.all_covered = (1 << len(bit_of)) - 1
        self.coverage_of = [sum(bit_of[a] for a in iter_submasks(m, k)) for m in self.universe]
        columns = incidence_columns(SetFamily(n, self.universe))
        self.candidates_for = [reduce(and_, [columns[e - 1] for e in elements_of(a)])
                               for a in bit_of]
        self.nodes = 0

    def search(self, d: int) -> SetFamily | None:
        """The first covering with VC <= d in DFS order, or None.

        The root branches on the k-set {1..k} and, by symmetry, enters only
        its first candidate, universe[0] = {1..s}; one member shatters no
        probe, so that branch needs no test, and every index starts allowed.
        Below it the walk keeps an explicit stack of (missing, chosen,
        state, allowed, live, low) frames, one per chosen member, so a
        covering of any size fits: `missing` is the bitmap of uncovered
        k-sets, `chosen` that of the universe indices taken, `live` a
        node's untried candidates and `low` the one its child took. Nodes
        are visited in the order of the recursive walk and counted in a
        local, added to `nodes` on return.
        """
        words, ones = _pattern_words(self.universe, self.n, d)
        guard = ones << (1 << (d + 1))
        universe, coverage_of, candidates_for = self.universe, self.coverage_of, self.candidates_for
        missing, chosen, state, allowed = self.all_covered & ~coverage_of[0], 1, words[0], -1
        nodes, stack = 1, []
        while True:
            nodes += 1
            if not missing:
                self.nodes += nodes
                return SetFamily(self.n, [m for j, m in enumerate(universe) if chosen >> j & 1])
            live = candidates_for[(missing & -missing).bit_length() - 1] & allowed
            while True:
                if live:
                    low = live & -live
                    live ^= low
                    j = low.bit_length() - 1
                    grown = state | words[j]
                    if not (grown + ones) & guard:
                        stack.append((missing, chosen, state, allowed, live, low))
                        missing, chosen, state = missing & ~coverage_of[j], chosen | low, grown
                        break
                    allowed ^= low
                elif stack:
                    missing, chosen, state, allowed, live, low = stack.pop()
                    allowed ^= low
                else:
                    self.nodes += nodes
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
    return found


def _oracle_enumerate(search: _Search) -> tuple[int, SetFamily, int]:
    """Minimum over all covering subfamilies by full power-set enumeration.

    Walks every nonempty subfamily of the universe of `search`, in selector
    order, keeps the covering ones by its coverage table, and asks
    `vc_dimension` for each one's VC-dimension. Nothing is cached: the
    subfamilies of one universe are all distinct. Returns the minimum, its
    first witness and the count of subfamilies examined, all
    2^|universe| - 1 of them. The walk never stops early: a covering family
    of VC-dimension 0 has one member, [n], so it occurs only when s = n and
    the universe is that one member.
    """
    # Imported here, so the branch-and-bound route never loads vccover.vc.
    from .vc import vc_dimension

    universe, coverage_of = search.universe, search.coverage_of
    best: tuple[int, SetFamily] | None = None
    for selector in range(1, 1 << len(universe)):
        covered = 0
        sel = selector
        while sel:
            low = sel & -sel
            covered |= coverage_of[low.bit_length() - 1]
            sel ^= low
        if covered != search.all_covered:
            continue
        family = SetFamily(search.n, [m for j, m in enumerate(universe) if selector >> j & 1])
        value = vc_dimension(family).dimension
        if best is None or value < best[0]:
            best = value, family
    assert best is not None
    return best[0], best[1], (1 << len(universe)) - 1


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
            return OracleResult(params, d, found, search.nodes, method)
    raise AssertionError("full family always qualifies at d = min(s, n-s)")
