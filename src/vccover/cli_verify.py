"""The ``verify`` command's handler: prop-const, certificate and main."""

from __future__ import annotations

from .cli import EXIT_FAIL, EXIT_OK, _json_line
from .verify import (
    lower_bound_certificate,
    upper_bound_certificate,
    verify_main_theorem,
    verify_prop_const,
)


def run(args):
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
        return code, [_json_line(payload)]
    lines.append("PASS" if passed else "FAIL")
    return code, [line + "\n" for line in lines]
