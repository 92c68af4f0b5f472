"""The ``oracle`` command's handler: exact D(k,s,n) and its witness."""

from __future__ import annotations

import sys
import time

from .cli import EXIT_OK, _json_line
from .families import Parameters, text_pieces
from .oracle import oracle_D


def run(args):
    params = Parameters(args.k, args.s, args.n)
    method = "exhaustive" if args.fallback_enum else "branch-and-bound"
    if args.cap is not None:
        print(f"warning: feasibility cap overridden to {args.cap}", file=sys.stderr)
    start = time.perf_counter()
    result = oracle_D(params, cap=args.cap, method=method)
    elapsed = time.perf_counter() - start
    print(f"nodes={result.nodes_explored} time={elapsed:.3f}s", file=sys.stderr)
    if args.format == "json":
        return EXIT_OK, [_json_line(result.as_dict())]
    return EXIT_OK, [f"{result.value}\n", *text_pieces(result.witness)]
