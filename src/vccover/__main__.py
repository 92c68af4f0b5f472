"""Process entry point: ``python -m vccover`` and the ``vccover`` script.

``run`` is the one exit path of a command process. After ``cli.main``
returns, it runs the atexit callbacks (so coverage tools and profilers
still save their data), flushes stdout and stderr, and ends the process
with ``os._exit``. That skips the interpreter's teardown, a final garbage
collection and the freeing of every loaded module, which costs a few
milliseconds of CPU on every command and does nothing a finished command
needs: every file a command writes is closed before ``main`` returns.

If a flush raises (stdout's reader has gone, or the process started
without a stdout), ``run`` leaves the exit to the interpreter with
``sys.exit``, so it reports and exits as it always has: with the reader
gone, exit 120 and "Exception ignored in: <_io.TextIOWrapper
name='<stdout>' ...>". ``SystemExit`` from argparse (help and usage
errors) and uncaught exceptions pass through ``run`` untouched and keep
the normal exit. ``cli.main`` itself never ends the process, so tests and
tools call it in process.
"""

import atexit
import os
import sys

from .cli import main


def run() -> None:
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # any fault: the interpreter's own exit reports it, as it always has
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
