"""vccover benchmark: drives the real CLI, one command at a time, and checks every output.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

A single client runs the workload's commands in a closed loop: each
`python -m vccover` process starts only after the previous one exited.
Passes over the workload repeat while the next command fits in
--seconds; the seed shuffles the command order and relabels the
family-files inputs. Every exit code and stdout is compared with
bench/expected.json, and every oracle witness and main-theorem witness
is re-checked by check.py, which shares no code with vccover.

With --trace 0 the last stdout line reports the end-to-end metrics:
wall_s and cpu_s are the sums over the workload's commands of each
command's median repeat, and they and setup_s are in reference-speed
seconds, each command's seconds scaled by the speed of its CPU while it
ran (spawn.py), because this host's CPUs switch between a fast and a
1.6x slower state every few seconds. With --trace 1 it reports the
per-layer metrics of an in-process traced run (tracing.py), in plain
seconds. The line before it is the run record: seed, git SHA,
Python version, CPU count, load average, a fixed calibration loop timed
before and after, per-command raw walls and CPU speeds, and count drift.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
from spawn import probe  # noqa: E402
from workloads import WORKLOADS, Command, file_name, key, option, seeded_order  # noqa: E402

COMMAND_LIMIT_S = 60.0  # hard per-command limit; today's slowest command takes about 7 s
RUN_LIMIT_S = 150.0  # no command starts or runs past this point of a run
COLD_STARTS = 5  # before the measurement, and as many again after it


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: str
    stderr: str
    timed_out: bool
    speed: float = 1.0  # mean speed of the command's CPU while it ran, from spawn.py's probes

    @property
    def ref_wall(self) -> float:
        """Wall seconds at the probe's reference speed; see spawn.py."""
        return self.wall * self.speed

    @property
    def ref_cpu(self) -> float:
        return self.cpu * self.speed


class Cli:
    """Runs `python -m vccover` from a checkout, in a work directory of its own."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cpus = sorted(os.sched_getaffinity(0))
        self.started = 0

    def cpus_for(self, argv: Command) -> str:
        """The CPUs a command may use: one per worker, the single ones taken in turn."""
        workers = min(int(option(argv, "--workers", "1")), len(self.cpus))
        first = self.started % len(self.cpus) if workers == 1 else 0
        self.started += 1
        return ",".join(str(c) for c in self.cpus[first:first + workers])

    def run(self, argv: Command) -> Outcome:
        limit = min(COMMAND_LIMIT_S, self.deadline - time.monotonic())
        if limit <= 0:
            return Outcome(0.0, 0.0, 0.0, -1, "", "run time limit reached", True)
        paths = [self.work / name for name in (".stdout", ".stderr", ".report")]
        with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
            subprocess.run(
                [sys.executable, "-I", "-S", str(BENCH / "spawn.py"), str(paths[2]), str(limit),
                 self.cpus_for(argv), sys.executable, "-m", "vccover", *argv],
                cwd=self.work, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                timeout=limit + 30, check=True,
            )
        code, wall, cpu, rss_kb, killed, speed, _ = paths[2].read_text().split()
        return Outcome(
            wall=float(wall),
            cpu=float(cpu),
            rss_mb=int(rss_kb) / 1024,
            exit=int(code),
            stdout=paths[0].read_text(),
            stderr=paths[1].read_text(),
            timed_out=killed == "1",
            speed=float(speed),
        )

    def cold_start(self) -> float:
        """Reference-speed wall time of `python -m vccover --help`: interpreter, package import, argparse."""
        outcome = self.run(("--help",))
        if outcome.exit != 0 or not outcome.stdout.startswith("usage: vccover"):
            raise RuntimeError(f"vccover --help failed: {outcome.stderr.strip()}")
        return outcome.ref_wall


def oracle_nodes(stderr: str) -> int | None:
    found = re.search(r"^nodes=(\d+) ", stderr, re.MULTILINE)
    return int(found.group(1)) if found else None


def verify_outcome(cmd: Command, got: Outcome, expected: dict, work: Path) -> list[str]:
    """Why this command's outcome is wrong; empty when it is right."""
    if got.timed_out:
        return [f"killed after its time limit ({got.stderr.strip() or 'timeout'})"]
    want = expected["commands"][key(cmd)]
    problems = []
    if got.exit != want["exit"]:
        problems.append(f"exit {got.exit}, expected {want['exit']}: {got.stderr.strip()[-200:]}")
    if got.stdout != want["stdout"]:
        problems.append(f"stdout differs from the pinned bytes: {got.stdout[:200]!r}")
    if "sha256" in want:
        written = work / "raw" / file_name(cmd, "--out")
        if not written.is_file() or hashlib.sha256(written.read_bytes()).hexdigest() != want["sha256"]:
            problems.append(f"{written.name} differs from the pinned bytes")
    if cmd[0] == "oracle" and got.exit == 0:
        value_line, _, family_text = got.stdout.partition("\n")
        try:
            n, masks, _ = check.parse_family(family_text)
            value = int(value_line)
        except (ValueError, IndexError, KeyError) as exc:
            return problems + [f"unreadable oracle output: {exc}"]
        k, s = int(option(cmd, "-k")), int(option(cmd, "-s"))
        problems += [f"witness {p}" for p in check.witness_problems(n, masks, k, s, value)]
    return problems


def main_theorem_problems(commands: list[Command]) -> list[str]:
    """Independently build and check the witness of each `verify main` command."""
    problems = []
    for cmd in commands:
        if cmd[:2] == ("verify", "main"):
            k, s = int(option(cmd, "-k")), int(option(cmd, "-s"))
            n = k * k * math.comb(s, k) + k
            for p in check.witness_problems(n, check.covering_witness(k, s, n), k, s, k):
                problems.append(f"{key(cmd)}: witness {p}")
    return problems


class Runner:
    """One run of one workload: passes of CLI commands, checked and timed."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.cli = Cli(root, work, time.monotonic() + RUN_LIMIT_S)
        self.work = work
        self.workload = workload
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.rng = random.Random(seed)
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.attempted = 0
        self.failures: list[str] = []
        self.drift: dict[str, list[int]] = {}
        self.samples: dict[str, list[Outcome]] = {}
        self.record: dict = {}
        for sub in ("raw", "in"):
            (work / sub).mkdir()

    def flag_drift(self, name: str, pinned: int, got: int) -> None:
        if pinned != got:
            self.drift[name] = [pinned, got]
            print(f"count drift: {name} pinned {pinned}, got {got}", file=sys.stderr)

    def cli_pass(self, order: list[Command], until: float | None = None) -> dict[str, Outcome]:
        """Run `order` once; with `until`, stop before a command whose last time would overrun it."""
        outcomes = {}
        for cmd in order:
            seen = self.samples.setdefault(key(cmd), [])
            if until is not None and seen and time.monotonic() + seen[-1].wall > until:
                break
            got = self.cli.run(cmd)
            seen.append(got)
            self.attempted += 1
            problems = verify_outcome(cmd, got, self.expected, self.work)
            if problems:
                self.failures.append(f"{key(cmd)}: {'; '.join(problems)}")
                print(f"FAILED {self.failures[-1]}", file=sys.stderr)
            if not problems and file_name(cmd, "--out"):
                check.relabel_file(self.work, file_name(cmd, "--out"), self.seed)
            if cmd[0] == "oracle" and not got.timed_out:
                nodes = oracle_nodes(got.stderr)
                self.flag_drift(f"{key(cmd)} nodes", self.expected["commands"][key(cmd)]["nodes"],
                                -1 if nodes is None else nodes)
            outcomes[key(cmd)] = got
        return outcomes

    def timed(self, seconds: int) -> dict[str, float]:
        """End-to-end metrics of one pass, each command at its median repeat.

        The first pass runs whole; further passes, in fresh seeded orders,
        run while the next command is expected to end within `seconds`.
        Times are at the probe's reference speed (spawn.py), because the
        host's CPUs switch between a fast and a slow state every few
        seconds; the raw walls and the speeds are in the run record.
        """
        until = time.monotonic() + seconds
        self.cli_pass(seeded_order(self.commands, self.rng))
        while len(self.cli_pass(seeded_order(self.commands, self.rng), until)) == len(self.commands):
            pass
        runs = self.samples.values()
        self.record["command_wall_s"] = {
            name: [round(o.wall, 4) for o in outcomes] for name, outcomes in self.samples.items()
        }
        self.record["command_speed"] = {
            name: [round(o.speed, 3) for o in outcomes] for name, outcomes in self.samples.items()
        }
        return {
            "wall_s": sum(statistics.median(o.ref_wall for o in outcomes) for outcomes in runs),
            "cpu_s": sum(statistics.median(o.ref_cpu for o in outcomes) for outcomes in runs),
            "peak_rss_mb": max(statistics.median(o.rss_mb for o in outcomes) for outcomes in runs),
        }


def calibration_s() -> float:
    """spawn.py's probe loop run 300 times over, timed to show the host's speed."""
    return sum(probe() for _ in range(300))


def git_sha(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vccover" / "__main__.py").is_file():
        print(f"error: no vccover source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    (root / ".bench_work").mkdir(exist_ok=True)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        runner = Runner(root, work, args.workload, args.seed)
        runner.cli.cold_start()  # warm the file cache and bytecode before timing
        cold = [runner.cli.cold_start() for _ in range(COLD_STARTS)]
        record = runner.record
        record.update({
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "git_sha": git_sha(root),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "calibration_s": [round(calibration_s(), 4)],
        })
        if args.trace:
            sys.path.insert(0, str(root / "src"))
            import tracing

            metrics = tracing.traced_run(runner, args.seconds)
        else:
            metrics = runner.timed(args.seconds)
        # Cold starts before and after the measurement, so the median sees the
        # host as it was across the run.
        cold += [runner.cli.cold_start() for _ in range(COLD_STARTS)]
        record["calibration_s"].append(round(calibration_s(), 4))
        metrics["cli.startup_s" if args.trace else "setup_s"] = statistics.median(cold)
        runner.failures += main_theorem_problems(runner.commands)
        record["failed_share"] = len(runner.failures) / runner.attempted
        record["count_drift"] = runner.drift
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": with_units(metrics, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
