"""Independent brute-force checks for the benchmark; imports nothing from vccover.

Families are lists of integer masks over [n] (bit e-1 is element e). The
checks answer through per-element column bitsets: bit i of column e is
set when member i contains e, so a k-set lies in some member iff the AND
of its columns is nonzero, and a probe is shattered iff every one of its
2^|probe| cells (members in or out of each element) is nonempty.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path


def parse_family(text: str) -> tuple[int, list[int], str]:
    """Read a `vcfam 1` text or JSON family: (n, masks in file order, format)."""
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        rows = obj["members"]
        n, fmt = obj["n"], "json"
    else:
        lines = text.splitlines()
        if not lines or lines[0] != "vcfam 1":
            raise ValueError("not a vcfam 1 family")
        n = int(lines[1].split()[0][2:])
        rows = [[] if line == "-" else [int(e) for e in line.split()] for line in lines[2:]]
        fmt = "text"
    masks = []
    for row in rows:
        mask = 0
        for e in row:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} outside [{n}]")
            mask |= 1 << (e - 1)
        masks.append(mask)
    return n, masks, fmt


def elements(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def write_family(n: int, masks: list[int], fmt: str) -> str:
    """Canonical text or JSON form: members sorted by mask, elements ascending."""
    ordered = sorted(set(masks))
    if fmt == "json":
        return json.dumps({"n": n, "members": [elements(m) for m in ordered]}) + "\n"
    sizes = {m.bit_count() for m in ordered}
    s_field = str(sizes.pop()) if len(sizes) == 1 else "mixed"
    rows = [" ".join(map(str, elements(m))) if m else "-" for m in ordered]
    return "\n".join(["vcfam 1", f"n={n} s={s_field}", *rows]) + "\n"


def seeded_permutation(n: int, seed: str) -> list[int]:
    """perm[e-1] is the new label of element e."""
    perm = list(range(1, n + 1))
    random.Random(seed).shuffle(perm)
    return perm


def relabel(masks: list[int], perm: list[int]) -> list[int]:
    out = []
    for m in masks:
        r = 0
        for e in elements(m):
            r |= 1 << (perm[e - 1] - 1)
        out.append(r)
    return out


def relabel_file(work: Path, name: str, seed: int) -> None:
    """Relabel work/raw/<name> by the seed's permutation of [n] into work/in/<name>."""
    n, masks, fmt = parse_family((work / "raw" / name).read_text())
    perm = seeded_permutation(n, f"{seed}:{name}")
    (work / "in" / name).write_text(write_family(n, relabel(masks, perm), fmt))


def _columns(n: int, masks: list[int]) -> list[int]:
    cols = [0] * (n + 1)
    for i, m in enumerate(masks):
        for e in elements(m):
            cols[e] |= 1 << i
    return cols


def _all_cells_nonempty(cell: int, cols: list[int]) -> bool:
    if not cell:
        return False
    if not cols:
        return True
    c, rest = cols[0], cols[1:]
    return _all_cells_nonempty(cell & c, rest) and _all_cells_nonempty(cell & ~c, rest)


def covers(n: int, masks: list[int], k: int) -> bool:
    """Every k-subset of [n] lies inside some member."""
    cols = _columns(n, masks)
    everyone = (1 << len(masks)) - 1
    for kset in itertools.combinations(range(1, n + 1), k):
        cell = everyone
        for e in kset:
            cell &= cols[e]
        if not cell:
            return False
    return True


def shatters_some(n: int, masks: list[int], size: int) -> bool:
    """Some size-subset of [n] is shattered by the members."""
    cols = _columns(n, masks)
    everyone = (1 << len(masks)) - 1
    return any(
        _all_cells_nonempty(everyone, [cols[e] for e in probe])
        for probe in itertools.combinations(range(1, n + 1), size)
    )


def witness_problems(n: int, masks: list[int], k: int, s: int, value: int) -> list[str]:
    """Why `masks` is not an s-uniform k-covering family of VC-dimension <= value."""
    problems = []
    if not masks or any(m.bit_count() != s for m in masks):
        problems.append(f"not {s}-uniform")
    if not covers(n, masks, k):
        problems.append(f"not {k}-covering")
    if value + 1 <= n and shatters_some(n, masks, value + 1):
        problems.append(f"shatters a {value + 1}-set")
    return problems


def covering_witness(k: int, s: int, n: int) -> list[int]:
    """The paper's witness, built from its definition.

    For s = k all k-sets; otherwise the consecutive pairs {2t-1, 2t} and
    {m-1, m} on [m], m = n-s+2, extended k-1 times by adjoining every
    element above the member's maximum (ground grows by one each time),
    then s-k-1 cones adjoining a fresh top element to every member.
    """
    if s == k:
        return sorted(sum(1 << (e - 1) for e in c) for c in itertools.combinations(range(1, n + 1), k))
    m = n - s + 2
    fam = {0b11 << (2 * t - 2) for t in range(1, m // 2 + 1)} | {0b11 << (m - 2)}
    ground = m
    for _ in range(k - 1):
        fam = {f | 1 << (i - 1) for f in fam for i in range(f.bit_length() + 1, ground + 2)}
        ground += 1
    for _ in range(s - k - 1):
        fam = {f | 1 << ground for f in fam}
        ground += 1
    return sorted(fam)


def interpolation_holds(masks: list[int]) -> bool:
    """Lowering any member's top element to any value above its second-largest stays in the family."""
    present = set(masks)
    for m in masks:
        elems = elements(m)
        base = m & ~(1 << (elems[-1] - 1))
        if any(base | 1 << (t - 1) not in present for t in range(elems[-2] + 1, elems[-1])):
            return False
    return True
