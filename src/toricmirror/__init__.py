"""Toric fan combinatorics and Landau-Ginzburg mirror superpotentials.

The pipeline: validate a smooth complete fan, read off its curve-class
combinatorics (primitive collections/relations, positivity class, effective
cone generators), optionally build the projectivized canonical bundle of a
Fano base, attach Kahler data, and assemble the mirror superpotential as an
exact Laurent polynomial whose zero-section coefficient carries the
Gromov-Witten correction factor. A multistart Newton solver locates the
critical points numerically.

``__all__`` holds only names that the library itself uses or that the
README shows; helpers that only the tests call live in ``tests/conftest.py``.

Every public name is served lazily (PEP 562) from the module that serves
it, so ``import toricmirror`` loads no submodule, and a name loads only
what its module needs: the solver names come from ``toricmirror.roots``
(``find_critical_points`` through ``toricmirror.critical``, which is
``roots.solve`` under its public name), and the exact names never load
it. The package needs nothing outside the standard library.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    "BundleDecomposition": "bundle",
    "CriticalReport": "roots",
    "Fan": "fan",
    "GWProvider": "gw",
    "GWTable": "gw",
    "KahlerData": "kahler",
    "LaurentPoly": "laurent",
    "LinForm": "linform",
    "Positivity": "fan",
    "PrimitiveRelation": "fan",
    "QPoly": "laurent",
    "SolverOptions": "roots",
    "chern_degree": "fan",
    "classify_positivity": "fan",
    "corrected_potential": "potential",
    "decompose_bundle": "bundle",
    "default_q_basis": "bundle",
    "evaluate": "laurent",
    "f2_one_point_rule": "gw",
    "fiber_class": "bundle",
    "find_critical_points": "critical",
    "gradient": "laurent",
    "hori_vafa": "potential",
    "is_primitive": "lattice",
    "kernel_basis": "lattice",
    "moduli_from_polytope": "roots",
    "parse_linear_form": "linform",
    "projectivize_canonical": "bundle",
    "validate_fan": "fan",
}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


__all__ = sorted(_MODULE_OF)
