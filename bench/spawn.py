"""Run one command; record its exit code, times, peak RSS and the CPU's speed while it ran.

    python3 -I -S bench/spawn.py REPORT LIMIT_S CPUS PROGRAM [ARG ...]

The benchmark starts each command through this small process, because
Linux gives a child the high-water RSS mark of the process it was spawned
from: a command spawned straight from the benchmark would report the
benchmark's own peak. The command inherits stdin, stdout and stderr, runs
only on the CPUs listed in CPUS (comma-separated ids) and is killed after
LIMIT_S seconds.

The speed of a CPU of a shared host is not constant. On a 2-vCPU cloud
host (Xeon, 2.1 GHz) each vCPU switches, every few seconds and
independently of the other, between a fast state and one about 1.6x
slower, most likely as the hardware thread beside it is busy or idle,
and the command's wall and CPU time move with it. So while the command
runs, this process wakes every PROBE_PERIOD_S on one of CPUS in turn and
times a fixed probe loop of about a quarter of a millisecond there. The
command's reference-speed seconds are its seconds times the mean of
PROBE_REF_S / probe time: a command that ran in the slow state gets
about the figure it would have had in the fast one. Probing every 10 ms
took the spread of one command's repeats (oracle -k 2 -s 4 -n 9, 36
repeats) from 0.20 to 0.03 of its median, where probing every 20 ms, or
for half as long, left 0.06-0.09.
The probes take about 3% of the CPU from the command, the same share on
every run. REPORT receives one line:
"exit wall_s cpu_s maxrss_kb killed speed probes", where speed is that
mean factor and probes the number of probes it rests on.
"""

import os
import select
import signal
import sys
import time

PROBE_PERIOD_S = 0.01
PROBE_LOOPS = 1000
PROBE_REF_S = 0.00024  # probe time taken as speed 1, about the fast state's; it only scales the figures


def probe() -> float:
    """Seconds of a fixed loop of integer arithmetic and set inserts, like the interpreter's own work."""
    start = time.perf_counter()
    seen = set()
    x = 0
    for _ in range(PROBE_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seen.add(x >> 4)
    return time.perf_counter() - start


def main() -> None:
    report, limit, cpus, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4:]
    cpus = [int(c) for c in cpus.split(",")]
    os.sched_setaffinity(0, cpus)  # inherited by the command
    killed = False
    speeds = []

    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    exited = os.pidfd_open(pid)  # readable once the command has exited; it is reaped only below
    while True:
        os.sched_setaffinity(0, [cpus[len(speeds) % len(cpus)]])
        speeds.append(PROBE_REF_S / probe())
        if time.perf_counter() - start >= limit and not killed:
            signal.pidfd_send_signal(exited, signal.SIGKILL)
            killed = True
        if select.select([exited], [], [], PROBE_PERIOD_S)[0]:
            break
    wall = time.perf_counter() - start
    _, status, usage = os.wait4(pid, 0)
    os.close(exited)
    speed = sum(speeds) / len(speeds)
    with open(report, "w") as fh:
        fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} "
                 f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss} {int(killed)} "
                 f"{speed!r} {len(speeds)}\n")


if __name__ == "__main__":
    main()
