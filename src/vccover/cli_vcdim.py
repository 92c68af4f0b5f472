"""The ``vcdim`` command's handler: the exact VC-dimension of a family file."""

from __future__ import annotations

from .cli import EXIT_OK, _json_line
from .reader import _load_family
from .vc import vc_dimension


def run(args):
    report = vc_dimension(_load_family(args.family))
    if args.format == "json":
        return EXIT_OK, [_json_line(report.as_dict())]
    return EXIT_OK, [f"{report.dimension}\n"]
