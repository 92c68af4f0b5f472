"""The ``check`` command's handler: decide a property of a family file."""

from __future__ import annotations

from .bitsets import elements_of
from .cli import EXIT_FAIL, EXIT_OK, _json_line
from .covering import first_faceless, is_k_covering, unique_face
from .reader import _load_family


def run(args):
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
        return code, [_json_line(report.as_dict())]
    if witness is None:
        return code, ["PASS\n"]
    return code, [f"FAIL {failure}: {' '.join(str(e) for e in elements_of(witness))}\n"]
