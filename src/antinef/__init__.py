"""Exact lattice calculus for resolutions of normal surface singularities:
dual graphs, anti-nef cycles, and the core/colon calculus of p_g-ideals."""

from .birational import (
    Tower,
    TowerStep,
    associated_pg_cycle,
    blowup,
    contract,
    contract_all,
    edge_point,
    free_point,
    relative_canonical,
    transport_cohom,
)
from .errors import InputError, LatticeError, PreconditionError, TheoremViolationError
from .graph import (
    Cycle,
    DualGraph,
    ValidationReport,
    Vertex,
    cycle,
    dual_graph,
    unit_cycle,
    validate_graph,
    zero_cycle,
)
from .ideals import (
    ConeStats,
    CoreReport,
    IdealRep,
    SingularityModel,
    colon_and_core,
    cone_model,
    core_monotone_check,
    good_closure,
    good_gorenstein_crosscheck,
    includes,
    is_good,
    product,
    represent,
    singularity_model,
    stability_defect,
)
from .lattice import (
    antinef_closure,
    arithmetic_genus,
    canonical_cycle,
    colength,
    contracts_to_smooth,
    epsilon,
    fundamental_cycle,
    is_antinef,
    is_numerically_gorenstein,
    is_rational,
    k_dot,
    multiplicity,
    pair,
    row_pairing,
)

__version__ = "0.1.0"
