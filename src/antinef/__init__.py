"""Exact lattice calculus for resolutions of normal surface singularities:
dual graphs, anti-nef cycles, and the core/colon calculus of p_g-ideals.

The public names below load their module on first use (PEP 562), so that
importing one module of the package does not import the others.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "birational": (
        "Tower", "TowerStep", "associated_pg_cycle", "contract", "contract_all", "edge_point",
        "free_point", "relative_canonical", "transport_cohom",
    ),
    "errors": ("InputError", "LatticeError", "PreconditionError", "TheoremViolationError"),
    "graph": (
        "Cycle", "DualGraph", "ValidationReport", "Vertex", "cycle", "dual_graph", "unit_cycle", "validate_graph",
        "zero_cycle",
    ),
    "ideals": (
        "ConeStats", "CoreReport", "IdealRep", "SingularityModel", "colon_and_core", "cone_model",
        "core_monotone_check", "good_closure", "good_gorenstein_crosscheck", "includes", "is_good", "product",
        "represent", "singularity_model", "stability_defect",
    ),
    "lattice": (
        "antinef_closure", "arithmetic_genus", "canonical_cycle", "colength", "contracts_to_smooth", "epsilon",
        "fundamental_cycle", "is_antinef", "is_numerically_gorenstein", "is_rational", "k_dot", "multiplicity",
        "pair", "row_pairing",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
