"""Command-line entry point.

A command line reaches its handler by one of two paths, which build the
same namespace from the same command and option tables. ``_parse_plain``
reads a well-formed named command straight from argv: the command and its
leaf spelled exactly, each option of that level at most once with one
value, each value converted by the option's own type. That skips
importing argparse (which loads gettext and locale) and building a
parser, a few milliseconds of every start. Any other line (help, an
abbreviated flag, ``--opt=value``, a value starting with ``-``, any error)
goes to argparse, so help texts, usage errors and exit codes are
argparse's own. The argparse parser holds only the command being run:
every other command keeps its help line but gets no leaves or options.

The command's handler returns ``(exit code, data)``, and ``main`` writes
the data once, to --out or stdout. Diagnostics such as node counts and
wall time go to stderr, so the data stream is byte-reproducible across
runs and worker counts. Exit codes: 0 success/PASS, 1 verification FAIL,
2 usage error, 3 feasibility cap exceeded or out of memory.

This module imports no library module, so top-level help and usage
errors load none. Each handler imports the library modules it calls
(json only on JSON paths). The records are named tuples or slotted
classes, whose import pulls in no inspect or ast.
"""

from __future__ import annotations

import sys
import time
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


def _load_family(path: str):
    from .families import read_family, read_family_json

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    if text.lstrip().startswith("{"):
        return read_family_json(text)
    return read_family(text)


def _json_line(payload: object) -> str:
    import json

    return json.dumps(payload) + "\n"


def _run_construct(args) -> tuple[int, str]:
    from . import constructions
    from .families import write_family, write_family_json

    builder, *options = _CONSTRUCT[args.what]
    values = [_load_family(args.family) if option == "--family"
              else getattr(args, option.lstrip("-")) for option in options]
    fam = getattr(constructions, builder)(*values)
    if args.format == "json":
        return EXIT_OK, write_family_json(fam) + "\n"
    return EXIT_OK, write_family(fam)


def _run_check(args) -> tuple[int, str]:
    from .bitsets import elements_of
    from .covering import first_faceless, is_k_covering, unique_face

    fam = _load_family(args.family)
    if args.what == "covering":
        report = is_k_covering(fam, args.k)
        failure, witness = "uncovered", report.uncovered
    elif args.format == "json":
        report = unique_face(fam)
        failure, witness = "violator", report.violator
    else:
        # The text verdict names only the violator, so the search stops there.
        failure, witness = "violator", first_faceless(fam)
    code = EXIT_OK if witness is None else EXIT_FAIL
    if args.format == "json":
        return code, _json_line(report.as_dict())
    if witness is None:
        return code, "PASS\n"
    return code, f"FAIL {failure}: {' '.join(str(e) for e in elements_of(witness))}\n"


def _run_vcdim(args) -> tuple[int, str]:
    from .vc import vc_dimension

    report = vc_dimension(_load_family(args.family))
    if args.format == "json":
        return EXIT_OK, _json_line(report.as_dict())
    return EXIT_OK, f"{report.dimension}\n"


def _run_oracle(args) -> tuple[int, str]:
    from .families import Parameters, write_family
    from .oracle import oracle_D

    params = Parameters(args.k, args.s, args.n)
    method = "exhaustive" if args.fallback_enum else "branch-and-bound"
    if args.cap is not None:
        print(f"warning: feasibility cap overridden to {args.cap}", file=sys.stderr)
    start = time.perf_counter()
    result = oracle_D(params, cap=args.cap, method=method)
    elapsed = time.perf_counter() - start
    print(f"nodes={result.nodes_explored} time={elapsed:.3f}s", file=sys.stderr)
    if args.format == "json":
        return EXIT_OK, _json_line(result.as_dict())
    return EXIT_OK, f"{result.value}\n" + write_family(result.witness)


def _run_verify(args) -> tuple[int, str]:
    from .verify import (
        lower_bound_certificate,
        upper_bound_certificate,
        verify_main_theorem,
        verify_prop_const,
    )

    lines: list[str] = []
    if args.what == "prop-const":
        report = verify_prop_const(args.m, args.k)
        payload = report.as_dict()
        for item, ok in payload["items"].items():
            lines.append(f"{item}: {'PASS' if ok else 'FAIL'}")
        passed = report.passed
    elif args.what == "certificate":
        lower = lower_bound_certificate(args.k, args.s, args.n)
        upper = upper_bound_certificate(args.k, args.s, args.n, witness_path=args.witness_out)
        payload = {"lower": lower.as_dict(), "upper": upper.as_dict()}
        lines.append(
            f"lower {lower.inequality_lhs} < {lower.inequality_rhs}: "
            f"{'HOLDS' if lower.holds else 'FAILS'} "
            f"(sufficient inequality: {lower.sufficient_inequality_holds})"
        )
        lines.append(
            f"upper witness vc {upper.inequality_lhs} <= {upper.inequality_rhs}: "
            f"{'HOLDS' if upper.holds else 'FAILS'}"
        )
        passed = lower.holds and upper.holds
    else:
        report = verify_main_theorem(args.k, args.s)
        payload = report.as_dict()
        lines.append(f"n = {report.n}")
        lines.append(f"certificate: {'PASS' if report.certificate.holds else 'FAIL'}")
        lines.append(f"witness covering: {'PASS' if report.witness_covering else 'FAIL'}")
        lines.append(f"witness vc = {report.witness_vc}")
        passed = report.passed
    code = EXIT_OK if passed else EXIT_FAIL
    if args.format == "json":
        return code, _json_line(payload)
    lines.append("PASS" if passed else "FAIL")
    return code, "".join(line + "\n" for line in lines)


def _run_explore(args) -> tuple[int, str]:
    from .verify import explore, monotonicity_scan, rows_to_csv, stab_upper, surjectivity_scan

    rows = explore(args.k, args.s, args.n, cap=args.cap)
    hint = stab_upper(rows)
    drops = monotonicity_scan(rows)
    attained = sorted(surjectivity_scan(rows))
    if args.format == "json":
        payload = {
            "rows": [row._asdict() for row in rows],
            "stab_upper_hint": hint,
            "non_monotone_pairs": drops,
            "attained_values": attained,
        }
        return EXIT_OK, _json_line(payload)
    print(f"stab_upper_hint={hint}", file=sys.stderr)
    if drops:
        print(f"non-monotone pairs: {drops}", file=sys.stderr)
    print(f"attained values: {attained}", file=sys.stderr)
    return EXIT_OK, rows_to_csv(rows)


# Each command: its help, its handler, and its options in order; a group
# (construct, check, verify) maps each of its leaves to the leaf's options.
_COMMANDS = {
    "construct": ("build a family and emit it canonically", _run_construct,
                  {what: options for what, (_, *options) in _CONSTRUCT.items()}),
    "check": ("decide a property, print PASS/FAIL plus witnesses", _run_check,
              {"covering": ("--family", "-k"), "ufp": ("--family",)}),
    "vcdim": ("exact VC-dimension of a family file", _run_vcdim, ("--family",)),
    "oracle": ("exact minimum VC-dimension over covering families", _run_oracle,
               ("-k", "-s", "-n", "--fallback-enum")),
    "verify": ("run a verification and exit 0 on PASS", _run_verify,
               {"prop-const": ("-m", "-k"), "certificate": ("-k", "-s", "-n", "--witness-out"),
                "main": ("-k", "-s")}),
    "explore": ("emit an exploration table over a range of ground sizes", _run_explore,
                ("-k", "-s", "-n range")),
}


def _common_parser():
    """The options every command and leaf takes, as an argparse parent."""
    import argparse

    from .families import DEFAULT_CAP, DEFAULT_ENUM_CAP

    common = argparse.ArgumentParser(add_help=False)
    for option in _COMMON:
        spec = _OPTIONS[option]
        help_text = spec.get("help") and spec["help"].format(DEFAULT_CAP, DEFAULT_ENUM_CAP)
        common.add_argument(option, **{**spec, "help": help_text})
    return common


def _build_parser(argv: list[str]):
    import argparse

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
    args = _parse_plain(argv) or _build_parser(argv).parse_args(argv)
    from .families import FeasibilityError

    try:
        code, data = args.run(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data)
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
    sys.exit(main())
