"""The ``construct`` command's handler: build a family, emit it canonically."""

from __future__ import annotations

from itertools import chain

from . import constructions
from .cli import _CONSTRUCT, EXIT_OK
from .families import text_pieces


def run(args):
    builder, *options = _CONSTRUCT[args.what]
    values = [getattr(args, option.lstrip("-")) for option in options]
    if "--family" in options:  # cone and product
        from .reader import _load_family

        values[options.index("--family")] = _load_family(args.family)
    fam = getattr(constructions, builder)(*values)
    if args.format == "json":
        from .families_json import json_pieces

        return EXIT_OK, chain(json_pieces(fam), ["\n"])
    return EXIT_OK, text_pieces(fam)
