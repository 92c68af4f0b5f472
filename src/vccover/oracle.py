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
probes is one addition. Symmetry prunes the search further, by one rule.
Let G be the group of permutations of [n] that fix every member chosen at
a node: the product of Sym(atom) over the atoms of the Venn partition of
[n] by those members. G maps coverings with VC <= d to coverings with
VC <= d, so a branch j that fails, by a shattered probe or an empty
subtree, fails for every image of j under G too, and j's whole orbit,
under G or any subgroup of it, leaves the node's later branches and
everything below them. At the root nothing is chosen and G = Sym([n]),
whose one orbit on s-sets is the whole universe: if the root's first
branch {1..s} fails, no covering exists. The root and the nodes one and
two levels down use G itself; deeper nodes use the trivial subgroup, so
only j itself leaves. Every prune drops only members that lie in no
covering the node can still reach, so the search meets solutions in the
same order as the plain DFS and returns the same witness; only the node
count falls.

One `_Search` per (k, s, n) serves both routes: its universe, coverage
table and candidate bitmaps are built once, after the cap check, from the
package's own subset enumeration and incidence table, and serve every d of
the scan. Only the pattern words are built per d, each member's word as
one binary string read by one `int(..., 2)`, and one method, `search(d)`,
runs the whole search for that d, building its orbit maps as it goes.

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


def _orbit_masks(universe: list[int], chosen: int) -> list[int]:
    """Each member's orbit under the symmetries of [n] that fix every chosen member.

    `chosen` is a selector of universe indices. The group is the product of
    Sym(atom) over the atoms of the Venn partition of [n] by the chosen
    members, so two s-sets share an orbit exactly when they meet every atom
    in the same number of elements; the atom outside every chosen member is
    determined by the others, as all members have size s. With no member
    chosen the group is Sym([n]) and every entry is the all-ones mask.
    Entry j is the bitmask of universe indices in universe[j]'s orbit.
    """
    atoms = [-1]
    for c in [m for j, m in enumerate(universe) if chosen >> j & 1]:
        atoms = [part for a in atoms for part in (a & c, a & ~c)]
    atoms = [a for a in atoms if a > 0]
    keys = [tuple([(m & a).bit_count() for a in atoms]) for m in universe]
    orbits: dict[tuple[int, ...], int] = {}
    for j, key in enumerate(keys):
        orbits[key] = orbits.get(key, 0) | 1 << j
    return [orbits[key] for key in keys]


class _Search:
    """Branch-and-bound over the subfamilies of one (k, s, n) universe.

    The constructor checks the cap, then builds everything that does not
    depend on d once per triple, from the package's own kernels: the
    universe of s-sets; `coverage_of[j]`, the bitmap of the k-sets inside
    universe[j], as the OR of their index bits over `iter_submasks`;
    `candidates_for[i]`, the bitmap of the members holding k-set i, as the
    AND of its elements' columns in the universe's incidence table, the
    rule `covering.py` uses. `bound` is min(s, n - s), above which no
    subfamily's VC-dimension can lie, and `family(selector)` the subfamily
    whose universe indices are the selector's bits. `search(d)` builds its d's
    pattern words (`_pattern_words`) and runs the DFS; `nodes` counts the
    nodes of every search run.

    The traces of a partial family live in one int with a field of P + 1
    bits per (d+1)-probe, P = 2^(d+1): bit t of a field is set when some
    chosen member has trace pattern t on that probe, and the top bit is a
    guard that stays 0. Adding a member ORs in its pattern word. A probe is
    shattered when its P pattern bits are all set, which is exactly when
    adding 1 at the field's low end carries into its guard; no other field
    carries, so one addition tests every probe.

    `allowed` is a bitmask of the universe indices a subtree may still use.
    A node with chosen members C has the group G of the permutations of [n]
    that fix every member of C, the product of Sym(atom) over the atoms of
    the Venn partition of [n] by C. Once branch j under a node fails, by a
    shattered probe or an empty subtree, the orbit of j under G is dropped
    from `allowed` and from the node's untried candidates, for its later
    siblings and everything below them. That is sound while `allowed` is a
    union of G-orbits: a permutation in G fixes every member of C and maps
    `allowed` onto itself, so it maps a covering holding C and an image of
    j inside `allowed` to one holding C and j, which branch j would have
    found, as by heredity the DFS cuts no partial family that a covering
    with VC <= d extends. Dropping whole orbits keeps `allowed` a union of
    orbits, a child's group is a subgroup of its parent's, and any subgroup
    of G may stand in for it, as its orbits split G's; so each node
    inherits the invariant from the root, where every index is allowed. At
    the root C is empty and G = Sym([n]) has one orbit, the whole universe,
    so a failed first branch {1..s} ends the search.

    The orbit of an s-set is the set of s-sets that meet each atom in as
    many elements: `_orbit_masks` of the node's `chosen` selector builds
    the map when the search enters a node at the root or one or two levels
    below it, and the map lives in the node's stack frame. Deeper nodes use
    the trivial subgroup and drop j alone: a third level cost more to build
    than it saved on the benchmark triples.

    Every prune cuts only subtrees that hold no solution, so the DFS meets
    solutions in the same order and returns the same witness; only the
    node count falls.
    """

    def __init__(self, params: Parameters, cap: int):
        k, s, n = params.k, params.s, params.n
        universe_size = math.comb(n, s)
        if universe_size > cap:
            raise FeasibilityError(f"universe C({n},{s}) = {universe_size} exceeds cap {cap}")
        self.n = n
        self.bound = min(s, n - s)
        self.universe = list(iter_fixed_size_masks(n, s))
        bit_of = {a: 1 << i for i, a in enumerate(iter_fixed_size_masks(n, k))}
        self.all_covered = (1 << len(bit_of)) - 1
        self.coverage_of = [sum(bit_of[a] for a in iter_submasks(m, k)) for m in self.universe]
        self.columns = columns = incidence_columns(SetFamily(n, self.universe))
        self.candidates_for = [reduce(and_, [columns[e - 1] for e in elements_of(a)])
                               for a in bit_of]
        self.nodes = 0

    def family(self, selector: int) -> SetFamily:
        """The subfamily of the universe at the indices set in `selector`."""
        return SetFamily(self.n, [m for j, m in enumerate(self.universe) if selector >> j & 1])

    def search(self, d: int) -> SetFamily | None:
        """The first covering with VC <= d in DFS order, or None.

        The walk starts at the root, with every k-set uncovered, nothing
        chosen and every index allowed, and keeps an explicit stack of
        (missing, chosen, state, allowed, live, low, orbit_of) frames, one
        per chosen member, so a covering of any size fits: `missing` is the
        bitmap of uncovered k-sets, `chosen` that of the universe indices
        taken, `state` their packed traces, `live` a node's untried
        candidates, `low` the one its child took and `orbit_of` the node's
        orbit masks, built for its `chosen` at stack depth <= 2 and None
        below. A failed branch drops its orbit from `allowed` and `live`;
        with no map its orbit is itself, and `allowed ^= low` drops it. Nodes are
        visited in the order of the recursive walk and counted in a local,
        added to `nodes` on return.
        """
        words, ones = _pattern_words(self.universe, self.n, d)
        guard = ones << (1 << (d + 1))
        coverage_of, candidates_for = self.coverage_of, self.candidates_for
        missing, chosen, state, allowed, nodes, stack = self.all_covered, 0, 0, -1, 0, []
        while True:
            nodes += 1
            if not missing:
                self.nodes += nodes
                return self.family(chosen)
            live = candidates_for[(missing & -missing).bit_length() - 1] & allowed
            orbit_of = _orbit_masks(self.universe, chosen) if len(stack) <= 2 else None
            while True:
                if live:
                    low = live & -live
                    live ^= low
                    j = low.bit_length() - 1
                    grown = state | words[j]
                    if not (grown + ones) & guard:
                        stack.append((missing, chosen, state, allowed, live, low, orbit_of))
                        missing, chosen, state = missing & ~coverage_of[j], chosen | low, grown
                        break
                elif stack:
                    missing, chosen, state, allowed, live, low, orbit_of = stack.pop()
                    j = low.bit_length() - 1
                else:
                    self.nodes += nodes
                    return None
                if orbit_of is None:
                    allowed ^= low
                else:
                    drop = orbit_of[j]
                    allowed &= ~drop
                    live &= ~drop


def exists_covering_with_vc_at_most(
    params: Parameters,
    d: int,
    cap: int = DEFAULT_CAP,
    stats: dict | None = None,
) -> SetFamily | None:
    """Find a k-covering s-uniform family on [n] with VC-dimension <= d, or None.

    Exhaustive over subfamilies of the full s-uniform family: depth-first,
    always branching on the canonically smallest uncovered k-set, pruning a
    branch as soon as the partial family shatters any (d+1)-set and never
    entering a branch in the orbit of a refuted sibling under the
    symmetries that fix the chosen members (see `_Search`). When ``stats``
    is given, the search adds its node count to ``stats["nodes"]``.
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
    order, keeps the covering ones by its coverage table, and makes one
    call of the VC walk of `vc_dimension` on each: the selector is the
    walk's cell of the universe's incidence table, and `search.bound` its
    bound, so no subfamily gets a family or a table of its own. The walk
    derives the cell's active elements and counting cap itself. Returns the
    minimum, the family of its first selector, and the count of
    subfamilies examined, all 2^|universe| - 1 of them. The walk never
    stops early: a covering family of VC-dimension 0 has one member, [n],
    so it occurs only when s = n and the universe is that one member.
    """
    # Imported here, so the branch-and-bound route never loads vccover.vc.
    from .vc import _shattered_walk

    universe, coverage_of, columns = search.universe, search.coverage_of, search.columns
    best = best_selector = None
    for selector in range(1, 1 << len(universe)):
        covered = 0
        sel = selector
        while sel:
            low = sel & -sel
            covered |= coverage_of[low.bit_length() - 1]
            sel ^= low
        if covered != search.all_covered:
            continue
        value = len(_shattered_walk(universe, columns, selector, search.bound)) - 1
        if best is None or value < best:
            best, best_selector = value, selector
    assert best is not None
    return best, search.family(best_selector), (1 << len(universe)) - 1


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

    ``workers`` is ignored, as the search is sequential; the benchmark's
    traced run (``bench/tracing.py``) and the tests pass it until it goes.
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
    for d in range(search.bound + 1):
        found = search.search(d)
        if found is not None:
            return OracleResult(params, d, found, search.nodes, method)
    raise AssertionError("full family always qualifies at d = min(s, n-s)")
