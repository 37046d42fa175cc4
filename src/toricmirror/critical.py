"""The solver's public names, served from ``roots``: ``find_critical_points``
is ``roots.solve`` itself, beside ``SolverOptions`` and
``moduli_from_polytope``, the moment-polytope seeds and Kahler-cone check
that every ``crit`` run takes. Importing it loads no more than ``roots``.
"""

from .roots import SolverOptions, moduli_from_polytope
from .roots import solve as find_critical_points

__all__ = ["SolverOptions", "find_critical_points", "moduli_from_polytope"]
