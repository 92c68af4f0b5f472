"""The command process's exit path (``vccover.__main__.run``).

A command ends with ``os._exit`` after the atexit callbacks and a flush of
stdout and stderr. These tests hold what must survive that: every byte of
the data stream, the exit code, the atexit callbacks, and the interpreter's
own report when stdout's reader has gone. Each command runs both with
stdout block-buffered and with ``PYTHONUNBUFFERED`` set, so a lost flush
shows in either mode.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest

from vccover import covering_witness_family, full_family, hypercube_family, write_family
from vccover.cli import main

BUFFERING = {"buffered": None, "unbuffered": "1"}


def environment(unbuffered: str | None) -> dict:
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONIOENCODING"] = "utf-8"
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    return env


# How a command process starts: as `python -m vccover`, and as the installed
# `vccover` script does, by importing `run` and exiting with its result.
LAUNCHERS = {
    "module": ["-m", "vccover"],
    "script": ["-c", "import sys; from vccover.__main__ import run; sys.exit(run())"],
}


def spawn(argv: list[str], unbuffered: str | None = None, launcher: str = "module",
          **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *LAUNCHERS[launcher], *argv],
                          env=environment(unbuffered), timeout=180, **kwargs)


def in_process(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode()


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("families")
    texts = {
        "full18": write_family(full_family(18, 4)),
        "cube": write_family(hypercube_family(2, 3)),
        "bad": "vcfam 1\nn=04 s=2\n1 2\n3 4\n",  # the parameter line must read n=4
    }
    for name, text in texts.items():
        (root / f"{name}.vcfam").write_text(text)
    return {name: str(root / f"{name}.vcfam") for name in texts}


COMMANDS = {
    "construct": (0, ["construct", "fk", "-m", "6", "-k", "2"]),
    "oracle": (0, ["oracle", "-k", "2", "-s", "3", "-n", "6"]),
    "ufp-fail": (1, ["check", "ufp", "--family", "{full18}"]),
    "usage": (2, ["oracle", "-k", "2"]),
    "malformed": (2, ["vcdim", "--family", "{bad}"]),
    "cap": (3, ["oracle", "-k", "2", "-s", "3", "-n", "8", "--cap", "10"]),
}


@pytest.mark.parametrize("buffering", sorted(BUFFERING))
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_and_code_equal_in_process_main(name, buffering, files):
    code, argv = COMMANDS[name]
    argv = [arg.format(**files) for arg in argv]
    proc = spawn(argv, BUFFERING[buffering], capture_output=True)
    assert proc.returncode == code
    assert in_process(argv) == (code, proc.stdout)


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("buffering", sorted(BUFFERING))
def test_large_family_arrives_whole_through_pipe_and_out(buffering, launcher, tmp_path):
    expected = hashlib.sha256(write_family(covering_witness_family(3, 5, 93)).encode()).hexdigest()
    argv = ["construct", "witness", "-k", "3", "-s", "5", "-n", "93"]
    piped = spawn(argv, BUFFERING[buffering], launcher, stdout=subprocess.PIPE)
    assert piped.returncode == 0
    assert hashlib.sha256(piped.stdout).hexdigest() == expected
    out = tmp_path / "w.vcfam"
    assert spawn([*argv, "--out", str(out)], BUFFERING[buffering], launcher).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


ATEXIT = """
import atexit, runpy, sys
atexit.register(print, "atexit callback ran")
sys.argv = ["vccover", *sys.argv[1:]]
runpy.run_module("vccover", run_name="__main__")
"""


@pytest.mark.parametrize("buffering", sorted(BUFFERING))
def test_atexit_callback_prints_after_the_data_stream(buffering):
    proc = subprocess.run(
        [sys.executable, "-c", ATEXIT, "construct", "full", "-n", "5", "-s", "2"],
        env=environment(BUFFERING[buffering]), capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == write_family(full_family(5, 2)) + "atexit callback ran\n"


def test_main_in_process_returns():
    code, out = in_process(["construct", "full", "-n", "5", "-s", "2"])
    assert code == 0 and out.decode() == write_family(full_family(5, 2))


# stdout's reader gone before the command starts: a pipe whose read end is closed.
# The write inside main fails when stdout is unbuffered; buffered, only the
# final flush fails, and the interpreter reports it and exits 120.
CLOSED_STDOUT = {
    "write-in-main": ("1", 2, ["error: [Errno 32] Broken pipe"]),
    "final-flush": (None, 120, [
        "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>",
        "BrokenPipeError: [Errno 32] Broken pipe",
    ]),
}


@pytest.mark.parametrize("case", sorted(CLOSED_STDOUT))
@pytest.mark.parametrize("command", ["construct", "vcdim"])
def test_closed_stdout_reports_as_the_interpreter_does(case, command, files):
    unbuffered, code, stderr = CLOSED_STDOUT[case]
    argv = {"construct": ["construct", "full", "-n", "5", "-s", "2"],
            "vcdim": ["vcdim", "--family", files["cube"]]}[command]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = spawn(argv, unbuffered, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr.splitlines()) == (code, stderr)


def test_out_with_no_stdout_exits_zero(tmp_path):
    # Started with fd 1 closed, the process has sys.stdout None; --out needs none.
    out = tmp_path / "f.vcfam"
    proc = spawn(["construct", "full", "-n", "5", "-s", "2", "--out", str(out)],
                 preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert out.read_text() == write_family(full_family(5, 2))
