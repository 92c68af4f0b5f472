"""The argparse parser of the command line, for the lines ``cli._parse_plain``
leaves to it: help, usage errors and the spellings it does not read.

``cli.main`` loads this module only then, so a well-formed named command
compiles none of it and imports no argparse.
"""

from __future__ import annotations

import argparse

from .cli import _COMMANDS, _COMMON, _OPTIONS


def _common_parser() -> argparse.ArgumentParser:
    """The options every command and leaf takes, as an argparse parent."""
    from .families import DEFAULT_CAP, DEFAULT_ENUM_CAP

    common = argparse.ArgumentParser(add_help=False)
    for option in _COMMON:
        spec = _OPTIONS[option]
        help_text = spec.get("help") and spec["help"].format(DEFAULT_CAP, DEFAULT_ENUM_CAP)
        common.add_argument(option, **{**spec, "help": help_text})
    return common


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    # Only the command that argv names (its first token that is one) gets its
    # leaves and options; every other keeps its help line, so the top-level
    # help and usage errors read the same as with every command built.
    named = next(filter(_COMMANDS.__contains__, argv), None)
    parser = argparse.ArgumentParser(
        prog="vccover",
        description="Exact VC-dimension engine for covering set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, run, options) in _COMMANDS.items():
        if command != named:
            sub.add_parser(command, help=help_text, add_help=False)
            continue
        common = _common_parser()
        grouped = isinstance(options, dict)
        p = sub.add_parser(command, parents=[] if grouped else [common], help=help_text)
        p.set_defaults(run=run)
        leaves = grouped and p.add_subparsers(dest="what", required=True)
        for what, opts in (options if grouped else {command: options}).items():
            target = leaves.add_parser(what, parents=[common]) if grouped else p
            for option in opts:
                target.add_argument(option.split()[0], **_OPTIONS[option])
    return parser
