"""Exact classification algebra and finite-difference verification for
kinetic-energy operators with position-dependent mass.

The ordering algebra (weights, exponents, linear ambiguity parameters)
is exact rational arithmetic throughout; square roots arising from
inversion are kept as exact quadratic surds. The numerical side builds
banded 1D finite-difference operators (tridiagonal under the staggered
scheme that every path uses, stored as their diagonals) to verify
operator identities by convergence order and to compare spectra across
orderings. The numerical side needs
numpy and is imported on first use, so the exact algebra loads without it.
"""

import importlib

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
from .surds import Surd, exact

# the numerical layer, which needs numpy, is imported on first use: each
# public name here resolves to its home module's current binding
_NUMERICAL = {
    "discretize": (
        "AssembledOperator",
        "DefectConvergence",
        "Grid",
        "assemble_linear",
        "assemble_terms",
        "defect_convergence",
        "effective_potential",
        "equivalence_defect",
        "to_csv",
        "to_json_dict",
    ),
    "profiles": (
        "PROFILES",
        "MassProfile",
        "constant",
        "cosine_bump",
        "gaussian_bump",
        "lorentzian",
        "make_profile",
        "smoothed_step",
    ),
    "spectra": (
        "POTENTIALS",
        "DualPairReport",
        "PotentialProfile",
        "SpectrumResult",
        "dual_pair_report",
        "hamiltonian",
        "harmonic",
        "make_potential",
        "richardson",
        "solve",
        "spectrum_of_spec",
        "zero_potential",
    ),
}
_HOME = {name: module for module, names in _NUMERICAL.items() for name in names}


def __getattr__(name):
    # not cached in the package globals, so a name rebound in its home
    # module (a monkeypatch, a tracer) is seen here too
    if name in _NUMERICAL:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = sorted([
    "BOUNDARY_NAMES",
    "BuildingBlock",
    "CATALOG_NAMES",
    "ClassLabel",
    "DualityParams",
    "LinearParams",
    "OrderingSpec",
    "REGIONS",
    "Surd",
    "canonicalize",
    "catalog",
    "classify",
    "dual",
    "errors",
    "exact",
    "from_duality",
    "in_allowed_region",
    "invert",
    "is_hermitian",
    "linear_params",
    "parse",
    "print_canonical",
    "region_samples",
    "spec",
    "to_duality",
    "validate",
    "weighted_mean",
    *_HOME,
])
