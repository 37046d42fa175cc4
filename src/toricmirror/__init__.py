"""Toric fan combinatorics and Landau-Ginzburg mirror superpotentials.

The pipeline: validate a smooth complete fan, read off its curve-class
combinatorics (primitive collections/relations, positivity class, effective
cone generators), optionally build the projectivized canonical bundle of a
Fano base, attach Kahler data, and assemble the mirror superpotential as an
exact Laurent polynomial whose zero-section coefficient carries the
Gromov-Witten correction factor. A multistart Newton solver locates the
critical points numerically.

The solver names (``CriticalReport``, ``SolverOptions``,
``find_critical_points``, ``moduli_from_polytope``) are served lazily:
``toricmirror.critical`` and numpy load on first access, so the exact
layers, ``evaluate`` and ``gradient`` start without them.
"""

from .bundle import (
    BundleDecomposition,
    decompose_bundle,
    default_q_basis,
    fiber_class,
    projectivize_canonical,
    push_h2,
)
from .fan import (
    Fan,
    Positivity,
    PrimitiveRelation,
    chern_degree,
    classify_positivity,
    forced_divisors,
    validate_fan,
)
from .gw import GWProvider, GWTable, f2_one_point_rule
from .kahler import KahlerData, boundary_vector, maslov_index
from .lattice import is_primitive, kernel_basis
from .laurent import LaurentPoly, QPoly, evaluate, gradient
from .linform import LinForm, parse_linear_form
from .potential import (
    basic_monomial,
    contributing_classes,
    corrected_potential,
    hori_vafa,
)

__version__ = "0.1.0"

_SOLVER_NAMES = frozenset({
    "CriticalReport",
    "SolverOptions",
    "find_critical_points",
    "moduli_from_polytope",
})


def __getattr__(name):
    # PEP 562: only the solver needs numpy, which dominates import time
    if name in _SOLVER_NAMES:
        from . import critical

        return getattr(critical, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BundleDecomposition",
    "CriticalReport",
    "Fan",
    "GWProvider",
    "GWTable",
    "KahlerData",
    "LaurentPoly",
    "LinForm",
    "Positivity",
    "PrimitiveRelation",
    "QPoly",
    "SolverOptions",
    "basic_monomial",
    "boundary_vector",
    "chern_degree",
    "classify_positivity",
    "contributing_classes",
    "corrected_potential",
    "decompose_bundle",
    "default_q_basis",
    "evaluate",
    "f2_one_point_rule",
    "fiber_class",
    "find_critical_points",
    "forced_divisors",
    "gradient",
    "hori_vafa",
    "is_primitive",
    "kernel_basis",
    "maslov_index",
    "moduli_from_polytope",
    "parse_linear_form",
    "projectivize_canonical",
    "push_h2",
    "validate_fan",
]
