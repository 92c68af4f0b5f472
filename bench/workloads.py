"""The benchmark's workloads: `python -m vccover` commands, run one at a time.

Each workload stresses different layers, so that an optimisation of one
layer shows on the workload that runs it and no change on the others:

* certify: the paper's main theorem, D(k,s,n) = k at n = k^2*C(s,k)+k.
  Mostly `vc` on the (2,6) n=62 witness, plus `covering` on
  full_family(20,4); never the oracle.
* oracle: exact D by branch-and-bound. Nearly all time is the d = D-1
  refutation; no `vc` or `covering` call.
* explore: exploration tables at two workers, so the parallel layer and
  row orchestration: `vc` on growing witnesses, a few small oracle rows.
* family-files: construct writes families (text and JSON), then the
  checks read them back: `families` I/O, `is_k_covering`, `unique_face`
  and 14 process starts; `vc` stays cheap. The ufp check on
  full_family(18,4) fails by design and must exit 1.

(3,4,7) is left out of `oracle` because it runs for about a minute, and
vcdim of witness(2,7,100) is left out of `family-files` for the same reason.

Family-files commands name files in the run's work directory: construct
writes raw/<name>, the benchmark relabels it by a seeded permutation of
[n] into in/<name>, and the checks read in/<name>. Verdicts are invariant
under relabeling.
"""

from __future__ import annotations

import random

Command = tuple[str, ...]


def _cmds(*lines: str) -> list[Command]:
    return [tuple(line.split()) for line in lines]


WORKLOADS: dict[str, list[Command]] = {
    "certify": _cmds(
        "verify main -k 2 -s 4",
        "verify main -k 2 -s 5",
        "verify main -k 2 -s 6",
        "verify main -k 4 -s 4",
        "verify certificate -k 2 -s 3 -n 14",
        "verify prop-const -m 8 -k 3",
    ),
    "oracle": _cmds(
        "oracle -k 2 -s 4 -n 8 --cap 126",
        "oracle -k 3 -s 5 -n 8 --cap 126",
        "oracle -k 2 -s 6 -n 9 --cap 126",
        "oracle -k 2 -s 4 -n 9 --cap 126",
        "oracle -k 2 -s 5 -n 8 --cap 126",
        "oracle -k 2 -s 3 -n 5 --fallback-enum",
    ),
    "explore": _cmds(
        "explore -k 2 -s 3 -n 3:40 --workers 2",
        "explore -k 2 -s 4 -n 4:40 --workers 2",
    ),
    "family-files": _cmds(
        "construct witness -k 2 -s 7 -n 100 --out raw/w.vcfam",
        "construct full -n 22 -s 4 --format json --out raw/f22.json",
        "construct full -n 18 -s 4 --out raw/f18.vcfam",
        "construct fk -m 12 -k 3 --format json --out raw/fk.json",
        "construct hypercube -k 2 -m 3 --out raw/hc.vcfam",
        "check covering --family in/w.vcfam -k 2",
        "check ufp --family in/w.vcfam",
        "check covering --family in/f22.json -k 4",
        "vcdim --family in/f22.json",
        "check ufp --family in/f18.vcfam",
        "vcdim --family in/f18.vcfam",
        "check covering --family in/fk.json -k 3",
        "check ufp --family in/fk.json",
        "vcdim --family in/hc.vcfam",
    ),
}


def key(cmd: Command) -> str:
    return " ".join(cmd)


def option(cmd: Command, name: str, default: str | None = None) -> str | None:
    """Value of `name` in the command line, e.g. option(cmd, "-k")."""
    return cmd[cmd.index(name) + 1] if name in cmd else default


def file_name(cmd: Command, flag: str) -> str | None:
    """Base name of the file a command writes (--out) or reads (--family)."""
    path = option(cmd, flag)
    return None if path is None else path.split("/", 1)[1]


def seeded_order(commands: list[Command], rng: random.Random) -> list[Command]:
    """A random order in which every check runs after the construct it reads."""
    pending = list(commands)
    written: set[str] = set()
    order = []
    while pending:
        ready = [c for c in pending if file_name(c, "--family") in written | {None}]
        cmd = rng.choice(ready)
        pending.remove(cmd)
        order.append(cmd)
        if file_name(cmd, "--out"):
            written.add(file_name(cmd, "--out"))
    return order


def pinned_argv(cmd: Command) -> Command:
    """The command whose output is pinned: explore output must match the one-worker bytes."""
    if "--workers" in cmd:
        i = cmd.index("--workers")
        return cmd[:i] + ("--workers", "1") + cmd[i + 2:]
    return cmd
