"""Regenerate bench/expected.json from the checkout in the current directory.

    python3 bench/pin.py

Pins, per command, the exit code and stdout of a one-worker run, the
sha256 of the file a construct writes and the oracle's node count; per
workload, the traced run's exact counts. Outputs are pinned once and hold
for every seed, because relabeling leaves every verdict unchanged. Rerun
only for a change that is meant to alter an output: the benchmark counts
any other difference as a failed command.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import check
from run import BENCH, Cli, oracle_nodes
from workloads import WORKLOADS, file_name, key, option, pinned_argv


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import tracing

    work = root / ".bench_work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("raw", "in"):
        (work / sub).mkdir(parents=True)
    cli = Cli(root, work, time.monotonic() + 3600)
    commands, counts = {}, {}
    try:
        for workload, cmds in WORKLOADS.items():
            for cmd in cmds:  # listed order runs each construct before its checks
                got = cli.run(pinned_argv(cmd))
                pin = {"exit": got.exit, "stdout": got.stdout}
                if file_name(cmd, "--out"):
                    pin["sha256"] = hashlib.sha256((work / option(cmd, "--out")).read_bytes()).hexdigest()
                    check.relabel_file(work, file_name(cmd, "--out"), 0)
                if cmd[0] == "oracle":
                    pin["nodes"] = oracle_nodes(got.stderr)
                commands[key(cmd)] = pin
            tracer, _, problems = tracing.trace_pass(cmds, work / f"traced-{workload}", 0, commands)
            if problems:
                raise SystemExit(f"traced split disagrees with the CLI: {problems}")
            counts[workload] = {name: tracer.counts[name] for name in tracing.COUNTS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {"commands": commands, "counts": counts}
    (BENCH / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
