"""Exact VC-dimension engine and experiment harness for covering set families.

Computes, for k <= s <= n, the minimum VC-dimension D(k,s,n) over families
of s-subsets of [n] that cover every k-subset: explicit constructions,
exhaustive small-scale search, and exact-arithmetic bound certificates.

The exported names are loaded on first access (PEP 562), so importing the
package loads no submodule, and importing a submodule loads only the modules
it imports: ``vccover.verify`` loads ``bitsets``, ``constructions``,
``families`` and ``vc``; ``vccover.exploration`` (``explore`` and its
scans) loads those, ``verify`` and ``oracle``; ``read_family`` loads
``reader``, and ``vccover.cli`` loads none until a command runs. A command
then loads its handler's module and what that module imports (see
``vccover.cli``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bitsets": ("MAX_GROUND", "elements_of", "mask_of"),
    "covering": (
        "CoverReport",
        "FaceReport",
        "is_k_covering",
        "ufp_implies_vc_bound_check",
        "unique_face",
    ),
    "constructions": (
        "HypercubeSpec",
        "base_pairs_family",
        "cone",
        "covering_witness_family",
        "full_family",
        "hypercube_family",
        "initial_segment_family",
        "product",
        "recursive_family",
        "recursive_step",
    ),
    "families": (
        "DEFAULT_CAP",
        "FamilyFormatError",
        "FeasibilityError",
        "Parameters",
        "SetFamily",
        "enumerate_subsets",
        "family_from_masks",
        "make_family",
        "write_family",
    ),
    "reader": ("read_family",),
    "families_json": ("read_family_json", "write_family_json"),
    "oracle": ("OracleResult", "exists_covering_with_vc_at_most", "oracle_D"),
    "vc": ("TraceSet", "VcReport", "sauer_shelah_sum", "shatters", "trace", "vc_dimension"),
    "verify": (
        "Certificate",
        "MainTheoremReport",
        "PropConstReport",
        "family_certifies_upper",
        "lower_bound_certificate",
        "min_cover_size_lower_bound",
        "stabilized_ground_size",
        "upper_bound_certificate",
        "verify_main_theorem",
        "verify_prop_const",
    ),
    "exploration": (
        "ExplorationRow",
        "explore",
        "monotonicity_scan",
        "rows_to_csv",
        "stab_upper",
        "surjectivity_scan",
    ),
}

_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
