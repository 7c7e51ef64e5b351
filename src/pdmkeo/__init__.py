"""Exact classification algebra and finite-difference verification for
kinetic-energy operators with position-dependent mass.

The ordering algebra (weights, exponents, linear ambiguity parameters)
is exact rational arithmetic throughout; square roots arising from
inversion are kept as exact quadratic surds. The numerical side builds
banded 1D finite-difference operators (tridiagonal or pentadiagonal,
stored as their diagonals) to verify operator identities by convergence
order and to compare spectra across orderings.
"""

from . import errors
from .classify import (
    BOUNDARY_NAMES,
    REGIONS,
    ClassLabel,
    DualityParams,
    classify,
    dual,
    from_duality,
    in_allowed_region,
    invert,
    region_samples,
    to_duality,
)
from .discretize import (
    SCHEMES,
    AssembledOperator,
    Grid,
    assemble_linear,
    assemble_terms,
    derivative_matrix,
    effective_potential,
    equivalence_defect,
    to_csv,
    to_json_dict,
)
from .ordering import (
    CATALOG_NAMES,
    BuildingBlock,
    LinearParams,
    OrderingSpec,
    canonicalize,
    catalog,
    is_hermitian,
    linear_params,
    spec,
    validate,
    weighted_mean,
)
from .parser import parse, print_canonical
from .profiles import (
    PROFILES,
    MassProfile,
    constant,
    cosine_bump,
    gaussian_bump,
    lorentzian,
    make_profile,
    smoothed_step,
)
from .spectra import (
    POTENTIALS,
    DualPairReport,
    PotentialProfile,
    SpectrumResult,
    dual_pair_report,
    hamiltonian,
    harmonic,
    make_potential,
    richardson,
    solve,
    spectrum_of_spec,
    zero_potential,
)
from .surds import Surd, exact

__version__ = "0.1.0"

__all__ = [
    "AssembledOperator",
    "BOUNDARY_NAMES",
    "BuildingBlock",
    "CATALOG_NAMES",
    "ClassLabel",
    "DualPairReport",
    "DualityParams",
    "Grid",
    "LinearParams",
    "MassProfile",
    "OrderingSpec",
    "POTENTIALS",
    "PROFILES",
    "PotentialProfile",
    "REGIONS",
    "SCHEMES",
    "SpectrumResult",
    "Surd",
    "assemble_linear",
    "assemble_terms",
    "canonicalize",
    "catalog",
    "classify",
    "constant",
    "cosine_bump",
    "derivative_matrix",
    "dual",
    "dual_pair_report",
    "effective_potential",
    "equivalence_defect",
    "errors",
    "exact",
    "from_duality",
    "gaussian_bump",
    "hamiltonian",
    "harmonic",
    "in_allowed_region",
    "invert",
    "is_hermitian",
    "linear_params",
    "lorentzian",
    "make_potential",
    "make_profile",
    "parse",
    "print_canonical",
    "region_samples",
    "richardson",
    "smoothed_step",
    "solve",
    "spec",
    "spectrum_of_spec",
    "to_csv",
    "to_duality",
    "to_json_dict",
    "validate",
    "weighted_mean",
    "zero_potential",
]
