"""Command-line entry point.

A command line reaches its handler by one of two paths, which build the
same namespace from the same command and option tables. ``_parse_plain``
reads a well-formed named command straight from argv: the command and its
leaf spelled exactly, each option of that level at most once with one
value, each value converted by the option's own type. That skips
importing argparse (which loads gettext and locale) and building a
parser, a few milliseconds of every start. Any other line (help, an
abbreviated flag, ``--opt=value``, a value starting with ``-``, any error)
goes to argparse, built in ``cli_argparse``, so help texts, usage errors
and exit codes are argparse's own. The argparse parser holds only the
command being run: every other command keeps its help line but gets no
leaves or options.

A named command compiles only the code it runs. This module holds the
tables, the plain reader and ``main``, and imports no library module, so
top-level help and usage errors load none. ``main`` then imports the
module ``_COMMANDS`` names for the command and calls its ``run``:
``cli_construct``, ``cli_check``, ``cli_vcdim``, ``cli_oracle``,
``cli_verify``, and ``exploration`` for explore. Each loads only the
library modules its command calls, the family reader (``reader``) only
when it reads a family, and json only on JSON paths. The records are
named tuples or slotted classes, whose import pulls in no inspect or ast.

A handler returns ``(exit code, data)``, the data being the strings of the
data stream in order, and ``main`` writes them in turn to --out or stdout,
so a large family is written without being joined into one string.
Diagnostics such as node counts and wall time go to stderr, so the data
stream is byte-reproducible across runs and worker counts. Exit codes: 0
success/PASS, 1 verification FAIL, 2 usage error, 3 feasibility cap
exceeded or out of memory.

``main`` returns the exit code and never ends the process, so tests and
tools call it in process. A command process ends through
``vccover.__main__.run``, which skips the interpreter's teardown.
"""

from __future__ import annotations

import importlib
import sys
from types import SimpleNamespace

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


# Each construct subcommand: its builder in vccover.constructions, then one
# required option per builder argument, in order (--family a file, the rest ints).
_CONSTRUCT = {
    "full": ("full_family", "-n", "-s"),
    "segments": ("initial_segment_family", "-n"),
    "hypercube": ("hypercube_family", "-k", "-m"),
    "fk": ("recursive_family", "-m", "-k"),
    "witness": ("covering_witness_family", "-k", "-s", "-n"),
    "cone": ("cone", "--family"),
    "product": ("product", "--family", "-l"),
}


def _n_range(text: str) -> range:
    try:
        lo, hi = map(int, text.split(":")) if ":" in text else (int(text),) * 2
    except ValueError:
        lo, hi = 1, 0
    if lo > hi or lo < 1:
        import argparse

        raise argparse.ArgumentTypeError(
            f"expected N or LO:HI, got {text!r}" + ("" if lo > hi else ": ground sizes start at 1"))
    return range(lo, hi + 1)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


_INT = {"type": int, "required": True}
# Each option's argparse keywords, keyed by its flag; a dest's default is
# None unless given. -n has two specs: explore's "-n range" takes a range
# N or LO:HI, every other -n a required int. _common_parser fills the cap
# defaults into the common options' help.
_OPTIONS = {
    "--out": {"help": "write the data stream to this file instead of stdout"},
    "--format": {"default": "text", "choices": ("text", "json", "csv")},
    "--cap": {"type": _positive_int,
              "help": "feasibility cap on the universe size C(n,s) for oracle search "
                      "(default {}; {} with --fallback-enum)"},
    "--workers": {"type": _positive_int, "default": 1,
                  "help": "accepted for compatibility and ignored: every command runs "
                          "sequentially, so results are identical for any count"},
    "-k": _INT, "-s": _INT, "-n": _INT, "-m": _INT, "-l": _INT,
    "-n range": {"type": _n_range, "required": True,
                 "help": "ground size or inclusive range LO:HI"},
    "--family": {"required": True},
    "--fallback-enum": {"action": "store_true", "default": False,
                        "help": "use the power-set enumeration oracle instead of branch-and-bound"},
    "--witness-out": {"help": "also write the upper-bound witness family here"},
}
# The options every command and leaf takes.
_COMMON = ("--out", "--format", "--cap", "--workers")


def _json_line(payload: object) -> str:
    import json

    return json.dumps(payload) + "\n"


# Each command: its help, the module whose ``run`` handles it, and its
# options in order; a group (construct, check, verify) maps each of its
# leaves to the leaf's options. Explore's handler sits in the library module
# it drives, which no other command loads; every other handler has a module
# of its own, as other commands load the library modules it calls.
_COMMANDS = {
    "construct": ("build a family and emit it canonically", "cli_construct",
                  {what: options for what, (_, *options) in _CONSTRUCT.items()}),
    "check": ("decide a property, print PASS/FAIL plus witnesses", "cli_check",
              {"covering": ("--family", "-k"), "ufp": ("--family",)}),
    "vcdim": ("exact VC-dimension of a family file", "cli_vcdim", ("--family",)),
    "oracle": ("exact minimum VC-dimension over covering families", "cli_oracle",
               ("-k", "-s", "-n", "--fallback-enum")),
    "verify": ("run a verification and exit 0 on PASS", "cli_verify",
               {"prop-const": ("-m", "-k"), "certificate": ("-k", "-s", "-n", "--witness-out"),
                "main": ("-k", "-s")}),
    "explore": ("emit an exploration table over a range of ground sizes", "exploration",
                ("-k", "-s", "-n range")),
}


def _parse_plain(argv: list[str]):
    """The namespace argparse builds from a well-formed named command, or
    None for any other line (see the module docstring)."""
    try:
        command, *rest = argv
        _, run, options = _COMMANDS[command]
        args = SimpleNamespace(command=command, run=run)
        if isinstance(options, dict):
            args.what = rest.pop(0)
            options = options[args.what]
        specs = {}
        for option in (*_COMMON, *options):
            flag = option.split()[0]
            specs[flag] = spec = _OPTIONS[option]
            setattr(args, flag.lstrip("-").replace("-", "_"), spec.get("default"))
        tokens = iter(rest)
        for flag in tokens:
            spec = specs.pop(flag)  # so a repeated flag raises too
            if "action" in spec:
                value = True
            else:
                value = next(tokens)
                if value.startswith("-") and value != "-":
                    return None
                value = spec.get("type", str)(value)
                if value not in spec.get("choices", [value]):
                    return None
            setattr(args, flag.lstrip("-").replace("-", "_"), value)
    except Exception:  # any fault in the line: argparse parses it again and reports it
        return None
    for spec in specs.values():
        if spec.get("required"):
            return None
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_plain(argv)
    if args is None:
        from .cli_argparse import _build_parser

        args = _build_parser(argv).parse_args(argv)
    from .families import FeasibilityError

    try:
        code, data = importlib.import_module(f"{__package__}.{args.run}").run(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.writelines(data)
        else:
            sys.stdout.writelines(data)
        return code
    except FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    from .__main__ import run

    run()
