"""Traced run: each CLI command split, in process, into the public calls it makes.

`verify main` becomes lower_bound_certificate, covering_witness_family,
is_k_covering and vc_dimension; `oracle` becomes one
exists_covering_with_vc_at_most per d with its stats; and so on. Spans
(name, start, end, parent, command) are recorded around each call from
this file, with counts at the same boundaries, and the split's output is
compared with the pinned bytes of the command it stands for. The
program's internals are not instrumented.

Per-layer times are the summed durations of the spans named after the
metric (`vc.dim` gives vc.dim_s). Counts are exact and must repeat in
every round and match bench/expected.json; any difference is flagged as
drift. A layer the workload never calls reports 0. The last round's
spans are written to .bench_work/spans-<workload>-<seed>.json.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import check
from workloads import Command, file_name, key, option, seeded_order

from vccover import (
    DEFAULT_CAP,
    ExplorationRow,
    Parameters,
    covering_witness_family,
    enumerate_subsets,
    exists_covering_with_vc_at_most,
    explore,
    family_from_masks,
    full_family,
    hypercube_family,
    is_k_covering,
    lower_bound_certificate,
    oracle_D,
    read_family,
    read_family_json,
    recursive_family,
    rows_to_csv,
    shatters,
    unique_face,
    vc_dimension,
    write_family,
    write_family_json,
)
from vccover.bitsets import elements_of, mask_of

SPAN_TIMES = (
    "vc.dim", "covering.cover", "covering.ufp",
    "oracle.refute", "oracle.find", "oracle.enum",
    "verify.cert", "verify.row", "verify.explore_w2",
    "constructions.build", "families.write", "families.read", "bitsets.enum",
)
COUNTS = (
    "vc.members", "vc.probe_space", "covering.ksets",
    "oracle.refute_nodes", "oracle.find_nodes", "oracle.enum_subfamilies", "oracle.nodes_w2",
    "constructions.members", "families.bytes", "bitsets.masks",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, command key]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, command: str | None = None):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent,
                  command if parent is None else self.spans[parent][4]]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum((end - start for n, start, end, _, _ in self.spans if n == name), 0.0)


def span_cost_s() -> float:
    """Measured cost of recording one empty span."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(2000):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - start) / 2000


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


class Split:
    """Runs a command's public calls in process; returns (exit code, stdout)."""

    def __init__(self, tracer: Tracer, work: Path):
        self.tr = tracer
        self.work = work
        self.found: dict[str, object] = {}  # each command's result, for the checks in after()
        for sub in ("raw", "in"):
            (work / sub).mkdir(parents=True, exist_ok=True)

    # -- one helper per layer boundary ------------------------------------

    def build(self, builder, *args):
        with self.tr.span("constructions.build"):
            fam = builder(*args)
        self.tr.counts["constructions.members"] += len(fam)
        return fam

    def vc(self, fam) -> int:
        with self.tr.span("vc.dim"):
            dim = vc_dimension(fam).dimension
        common, union = fam.members[0], 0
        for m in fam.members:
            common &= m
            union |= m
        active = (union & ~common).bit_count()
        self.tr.counts["vc.members"] += len(fam)
        self.tr.counts["vc.probe_space"] += sum(math.comb(active, r) for r in range(1, dim + 2))
        return dim

    def cover(self, fam, k: int):
        with self.tr.span("bitsets.enum"):
            masks = sum(1 for _ in enumerate_subsets(fam.n, k))
        self.tr.counts["bitsets.masks"] += masks
        with self.tr.span("covering.cover"):
            report = is_k_covering(fam, k)
        self.tr.counts["covering.ksets"] += math.comb(fam.n, k)
        return report

    def ufp(self, fam):
        with self.tr.span("covering.ufp"):
            return unique_face(fam)

    def cert(self, k: int, s: int, n: int):
        with self.tr.span("verify.cert"):
            return lower_bound_certificate(k, s, n)

    def oracle(self, params: Parameters, cap: int):
        """oracle_D's scan: the first d with a witness; every smaller d is a refutation."""
        for d in range(min(params.s, params.n - params.s) + 1):
            stats: dict = {}
            with self.tr.span("oracle.refute") as sp:
                witness = exists_covering_with_vc_at_most(params, d, cap=cap, stats=stats)
                if witness is not None:
                    sp[0] = "oracle.find"
            self.tr.counts[f"{sp[0]}_nodes"] += stats["nodes"]
            if witness is not None:
                return d, witness
        raise AssertionError("the full family qualifies at d = min(s, n-s)")

    # -- the commands -----------------------------------------------------

    def run(self, cmd: Command) -> tuple[int, str]:
        k, s = int(option(cmd, "-k", "0")), int(option(cmd, "-s", "0"))
        n = 0 if cmd[0] == "explore" else int(option(cmd, "-n", "0"))
        if cmd[:2] == ("verify", "main"):
            n = k * k * math.comb(s, k) + k
            cert = self.cert(k, s, n)
            witness = self.found[key(cmd)] = self.build(covering_witness_family, k, s, n)
            covered = self.cover(witness, k).holds
            dim = self.vc(witness)
            lines = [f"n = {n}", f"certificate: {_verdict(cert.holds)}",
                     f"witness covering: {_verdict(covered)}", f"witness vc = {dim}",
                     _verdict(cert.holds and covered and dim == k)]
            return int(lines[-1] != "PASS"), "".join(line + "\n" for line in lines)
        if cmd[:2] == ("verify", "certificate"):
            lower = self.cert(k, s, n)
            witness = self.build(covering_witness_family, k, s, n)
            dim = self.vc(witness)
            upper = self.cover(witness, k).holds and dim <= k
            lines = [
                f"lower {lower.inequality_lhs} < {lower.inequality_rhs}: "
                f"{'HOLDS' if lower.holds else 'FAILS'} "
                f"(sufficient inequality: {lower.sufficient_inequality_holds})",
                f"upper witness vc {dim} <= {k}: {'HOLDS' if upper else 'FAILS'}",
                _verdict(lower.holds and upper),
            ]
            return int(lines[-1] != "PASS"), "".join(line + "\n" for line in lines)
        if cmd[:2] == ("verify", "prop-const"):
            m = int(option(cmd, "-m"))
            fam = self.build(recursive_family, m, k)
            n = m + k - 1
            items = {"covering": self.cover(fam, k).holds, "unique_faces": self.ufp(fam).holds,
                     "interpolation": check.interpolation_holds(list(fam.members)),
                     "tail_shattered": True}
            if 2 * k < n:
                with self.tr.span("vc.dim"):
                    items["tail_shattered"] = shatters(fam, mask_of(range(n - k + 1, n + 1)))
                self.tr.counts["vc.members"] += len(fam)
                self.tr.counts["vc.probe_space"] += 1
            lines = [f"{item}: {_verdict(ok)}" for item, ok in items.items()]
            lines.append(_verdict(all(items.values())))
            return int(lines[-1] != "PASS"), "".join(line + "\n" for line in lines)
        if cmd[0] == "oracle":
            params = Parameters(k, s, n)
            cap = int(option(cmd, "--cap", str(DEFAULT_CAP)))
            if "--fallback-enum" in cmd:
                with self.tr.span("oracle.enum"):
                    result = oracle_D(params, cap=cap, method="exhaustive")
                self.tr.counts["oracle.enum_subfamilies"] += result.nodes_explored
                value, witness = result.value, result.witness
            else:
                value, witness = self.oracle(params, cap)
                self.found[key(cmd)] = (value, witness)
            return 0, f"{value}\n" + write_family(witness)
        if cmd[0] == "explore":
            lo, hi = (int(v) for v in option(cmd, "-n").split(":"))
            cap = int(option(cmd, "--cap", str(DEFAULT_CAP)))
            rows = []
            for size in range(max(lo, s), hi + 1):
                with self.tr.span("verify.row"):
                    rows.append(self.explore_row(k, s, size, cap))
            self.found[key(cmd)] = rows
            return 0, rows_to_csv(rows)
        if cmd[0] == "construct":
            builders = {
                "witness": (covering_witness_family, k, s, n),
                "full": (full_family, n, s),
                "fk": (recursive_family, int(option(cmd, "-m", "0")), k),
                "hypercube": (hypercube_family, k, int(option(cmd, "-m", "0"))),
            }
            fam = self.build(*builders[cmd[1]])
            with self.tr.span("families.write"):
                text = write_family_json(fam) + "\n" if "json" in cmd else write_family(fam)
                with open(self.work / option(cmd, "--out"), "w") as fh:
                    fh.write(text)
            self.tr.counts["families.bytes"] += len(text.encode())
            return 0, ""
        with self.tr.span("families.read"):
            with open(self.work / option(cmd, "--family")) as fh:
                text = fh.read()
            fam = read_family_json(text) if text.lstrip().startswith("{") else read_family(text)
        if cmd[0] == "vcdim":
            return 0, f"{self.vc(fam)}\n"
        if cmd[1] == "covering":
            report = self.cover(fam, k)
            failure, witness = "FAIL uncovered", report.uncovered
        else:
            report = self.ufp(fam)
            failure, witness = "FAIL violator", report.violator
        if report.holds:
            return 0, "PASS\n"
        return 1, f"{failure}: {' '.join(map(str, elements_of(witness)))}\n"

    def explore_row(self, k: int, s: int, n: int, cap: int) -> ExplorationRow:
        """The public calls behind one explore row."""
        lower = 1 if s < n else 0
        if self.cert(k, s, n).holds:
            lower = max(lower, k)
        upper = min(s, n - s, self.vc(self.build(covering_witness_family, k, s, n)))
        exact, method = None, ""
        if math.comb(n, s) <= cap:
            exact, method = self.oracle(Parameters(k, s, n), cap)[0], "oracle"
        elif s == k or s == n:
            forced = (self.build(full_family, n, s) if s == k
                      else family_from_masks(n, ((1 << n) - 1,)))
            exact, method = self.vc(forced), "unique-family"
        return ExplorationRow(k=k, s=s, n=n, lower=lower, upper=upper, exact=exact, method=method)

    def after(self, cmd: Command) -> list[str]:
        """Checks outside the command's span: the library call again at --workers 2
        must give the split's result, and the main-theorem witness must equal the
        independent construction."""
        k, s = int(option(cmd, "-k", "0")), int(option(cmd, "-s", "0"))
        if cmd[:2] == ("verify", "main"):
            witness = self.found[key(cmd)]
            if list(witness.members) != check.covering_witness(k, s, witness.n):
                return ["library witness differs from the independent construction"]
        if cmd[0] == "explore":
            lo, hi = (int(v) for v in option(cmd, "-n").split(":"))
            cap = int(option(cmd, "--cap", str(DEFAULT_CAP)))
            with self.tr.span("verify.explore_w2", key(cmd)):
                rows = explore(k, s, range(lo, hi + 1), cap=cap, workers=2)
            if rows != self.found[key(cmd)]:
                return ["explore rows differ at 2 workers"]
        if cmd[0] == "oracle" and "--fallback-enum" not in cmd:
            params = Parameters(k, s, int(option(cmd, "-n")))
            with self.tr.span("oracle.w2", key(cmd)):
                result = oracle_D(params, cap=int(option(cmd, "--cap")), workers=2)
            self.tr.counts["oracle.nodes_w2"] += result.nodes_explored
            if (result.value, result.witness) != self.found[key(cmd)]:
                return ["oracle result differs at 2 workers"]
        return []


def trace_pass(order: list[Command], work: Path, seed: int, expected: dict):
    """One traced in-process pass: (tracer, wall seconds, problems per command key)."""
    tracer = Tracer()
    split = Split(tracer, work)
    problems: dict[str, list[str]] = {}
    start = time.perf_counter()
    for cmd in order:
        with tracer.span("command", key(cmd)):
            code, stdout = split.run(cmd)
        found = split.after(cmd)
        want = expected.get(key(cmd))
        if want is not None and (code, stdout) != (want["exit"], want["stdout"]):
            found.append(f"split gives exit {code} and stdout {stdout[:200]!r}")
        if found:
            problems[key(cmd)] = found
        elif file_name(cmd, "--out"):
            check.relabel_file(work, file_name(cmd, "--out"), seed)
    return tracer, time.perf_counter() - start, problems


def traced_run(runner, seconds: int) -> dict[str, float]:
    """Rounds of (CLI pass, traced in-process pass) while another round fits in `seconds`."""
    measure_until = time.monotonic() + seconds
    rounds: list[dict[str, float]] = []
    round_walls: list[float] = []
    first_counts: Counter[str] | None = None
    pinned = runner.expected["counts"][runner.workload]
    while not rounds or time.monotonic() + statistics.median(round_walls) <= measure_until:
        began = time.monotonic()
        order = seeded_order(runner.commands, runner.rng)
        cli = runner.cli_pass(order)
        tracer, traced_wall, problems = trace_pass(
            order, runner.work / f"traced{len(rounds)}", runner.seed, runner.expected["commands"])
        runner.attempted += len(order)
        for name, found in problems.items():
            runner.failures.append(f"traced {name}: {'; '.join(found)}")
        round_walls.append(time.monotonic() - began)

        counts = Counter({name: tracer.counts[name] for name in COUNTS})
        if first_counts is None:
            first_counts = counts
            for name in COUNTS:
                runner.flag_drift(name, pinned[name], counts[name])
        elif counts != first_counts:
            runner.failures.append(f"counts changed between rounds: {first_counts} then {counts}")
        values = {f"{name}_s": tracer.total(name) for name in SPAN_TIMES}
        roots_s = sum(end - start for _, start, end, parent, _ in tracer.spans if parent is None)
        values["cli.overhead_s"] = sum(o.wall for o in cli.values()) - tracer.total("command")
        values["trace.coverage"] = roots_s / traced_wall
        values["trace.overhead_s"] = len(tracer.spans) * span_cost_s()
        rounds.append(values)

    # The last round's spans, kept beside the work directory for inspection.
    fields = ("name", "start", "end", "parent", "command")
    spans_file = runner.work.parent / f"spans-{runner.workload}-{runner.seed}.json"
    spans_file.write_text(json.dumps([dict(zip(fields, span)) for span in tracer.spans]))
    runner.record["spans_file"] = str(spans_file.relative_to(runner.work.parent.parent))

    metrics: dict[str, float] = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    metrics.update(first_counts)
    oracle_s = metrics["oracle.refute_s"] + metrics["oracle.find_s"]
    oracle_nodes = metrics["oracle.refute_nodes"] + metrics["oracle.find_nodes"]
    metrics["oracle.nodes_per_s"] = oracle_nodes / oracle_s if oracle_s else 0.0
    w2 = metrics["verify.explore_w2_s"]
    metrics["verify.parallel_eff"] = metrics["verify.row_s"] / (2 * w2) if w2 else 0.0
    return metrics
