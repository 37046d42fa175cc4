"""Kahler parameters, the moment polytope, and symplectic areas.

The polytope is P = {x : <x, v_i> >= lambda_i}. Support constants lambda_i
may be exact rationals or symbolic linear forms in named parameters
(typically t1, t2, ...). A curve class with ray coordinates a has area
-sum(a_i * lambda_i) in 2*pi-normalized units.

The polytope has nonempty interior exactly when every positive circuit of
the rays (an extreme nonnegative relation) has positive area
-sum(y_i * lambda_i), by Motzkin's transposition theorem. Construction
refuses the support constants only when some circuit's area is a constant
<= 0, so that the polytope is empty at every parameter value; symbolic
constants are checked at given parameters by ``scaled_vertices``. In the open
Kahler cone the polytope has one vertex per maximal cone, given in closed
form by the cone's dual basis, and the numeric vertices are only defined
there.

q-variables are attached to a chosen homology basis: the weight of a class
is the monomial prod(q_j^c_j) of its basis coordinates, with numeric value
exp(-area).
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .bundle import default_q_basis
from .errors import (
    DependentGenerators,
    EmptyInterior,
    LambdaNotQExpressible,
    NotInBasisSpan,
)
from .fan import Fan
from .lattice import lattice_coordinates
from .linform import LinForm, parse_linear_form


def checked_q_basis(fan: Fan, q_basis) -> tuple:
    """q_basis as a tuple of integer tuples, once it is a Z-basis of the
    fan's curve classes; ValueError saying what it fails otherwise."""
    q_basis = tuple(tuple(map(operator.index, b)) for b in q_basis)
    for b in q_basis:
        if not fan.is_homology_class(b):
            raise ValueError(f"q-basis vector {b} is not a curve class")
    if len(q_basis) != len(fan.homology_basis):
        raise ValueError(
            f"q-basis has {len(q_basis)} classes; "
            f"homology rank is {len(fan.homology_basis)}"
        )
    if not fan.is_homology_basis(q_basis):
        raise ValueError("q-basis does not span the homology lattice")
    return q_basis


class KahlerData:
    """A fan with support constants and a named q-variable basis."""

    def __init__(self, fan: Fan, lambdas: Sequence, q_basis=None):
        self.fan = fan
        lams = []
        for lam in lambdas:
            if isinstance(lam, LinForm):
                lams.append(lam)
            else:
                lams.append(parse_linear_form(lam))
        if len(lams) != fan.nrays:
            raise ValueError(
                f"need one support constant per ray ({fan.nrays}), got {len(lams)}"
            )
        self.lambdas = tuple(lams)

        if q_basis is None:  # both fallbacks are bases by construction
            q_basis = default_q_basis(fan)
            if q_basis is None:
                q_basis = fan.homology_basis
        else:
            q_basis = checked_q_basis(fan, q_basis)
        self.q_basis = q_basis

        self._check_polytope()

    # -- construction checks --

    def _check_polytope(self):
        # {<x, v_i> > lambda_i} is infeasible exactly when some nonzero
        # y >= 0 with sum(y_i v_i) = 0 has sum(y_i lambda_i) >= 0 (Motzkin),
        # and the positive circuits generate those y; a circuit whose sum is
        # a constant >= 0 leaves the polytope empty at every parameter value
        for circuit in self.fan.positive_circuits:
            total = sum((lam * y for y, lam in zip(circuit, self.lambdas) if y), LinForm(0))
            if total.is_constant() and total.const >= 0:
                raise EmptyInterior("moment polytope has empty interior")

    @functools.cached_property
    def parameter_names(self) -> tuple:
        names = set()
        for lam in self.lambdas:
            names |= lam.variables
        return tuple(sorted(names))

    @property
    def rank(self) -> int:
        return len(self.q_basis)

    # -- areas --

    def sphere_area(self, alpha) -> LinForm:
        """Area of a curve class; equals -sum(a_i lambda_i) and is
        x-independent because the class pairs to zero with the ray map."""
        if not self.fan.is_homology_class(alpha):
            raise ValueError(f"{tuple(alpha)} is not a curve class of the fan")
        total = LinForm(0)
        for a, lam in zip(alpha, self.lambdas):
            if a:
                total += lam * (-a)
        return total

    # -- q-weights --

    @functools.cached_property
    def _q_basis_coordinates(self):
        return lattice_coordinates(self.q_basis)

    def q_weight(self, alpha) -> tuple:
        """Integer coordinates of a curve class in the q-basis: the exponents
        of its q-monomial. The q-basis spans the curve classes (checked at
        construction), so any other vector has none: NotInBasisSpan."""
        alpha = tuple(alpha)
        coords = (self._q_basis_coordinates(alpha)
                  if len(alpha) == self.fan.nrays else None)
        if coords is None:
            raise NotInBasisSpan(f"{alpha} is not a curve class of the fan")
        return coords

    def basis_areas(self) -> tuple:
        return tuple(self.sphere_area(b) for b in self.q_basis)

    @functools.cached_property
    def _lambda_coordinates(self) -> tuple:
        # coordinates of every -lambda_i in the basis areas, or None, from
        # one coordinate map of the coefficient vectors (parameters, then
        # constant) scaled to integers by the common denominator of the
        # basis areas and the lambdas
        names = self.parameter_names
        areas = self.basis_areas()
        scale = math.lcm(*(x.denominator for form in areas + self.lambdas
                           for x in (form.const, *form.coeffs.values())))

        def vector(form):
            return [int(form.coefficient(n) * scale) for n in names] + [int(form.const * scale)]

        coords = lattice_coordinates([vector(a) for a in areas])
        return tuple(coords(vector(-lam)) for lam in self.lambdas)

    def lambda_q_exponents(self, i: int) -> tuple:
        """Write exp(lambda_i) as a q-monomial: solve
        lambda_i = -sum(e_j * area(basis_j)) for nonnegative integers e_j."""
        try:
            sol = self._lambda_coordinates[i]
        except DependentGenerators as exc:
            raise LambdaNotQExpressible(
                f"basis areas are degenerate; cannot express exp(lambda_{i})"
            ) from exc
        if sol is None or any(c < 0 for c in sol):
            raise LambdaNotQExpressible(
                f"lambda_{i} = {self.lambdas[i]} is not -1 times a nonnegative integer "
                f"combination of the basis areas"
            )
        return sol

    # -- polytope geometry --

    def scaled_vertices(self, params: Mapping) -> tuple:
        """(denom, vertices times denom): the moment polytope's vertices,
        one per maximal cone in cone order, as integer points over the
        common denominator of the support constants.

        The vertex of a cone solves <x, v_i> = lambda_i on its rays, which
        is the lambda-weighted sum of its dual basis rows. Raises
        EmptyInterior, naming the cone and the ray, unless every vertex lies
        strictly inside the half-spaces of the other rays, i.e. unless the
        parameters lie in the open Kahler cone. A parameter without a value
        is a ValueError.
        """
        missing = [n for n in self.parameter_names if n not in params]
        if missing:
            raise ValueError(f"need numeric values for parameters {missing}")
        offsets = [Fraction(lam.subs(params)) for lam in self.lambdas]
        denom = math.lcm(*(b.denominator for b in offsets))
        offsets = [b.numerator * (denom // b.denominator) for b in offsets]
        rays = self.fan.rays
        out = []
        for cone, dual in self.fan.dual_bases.items():
            x = tuple(sum(offsets[i] * row[j] for i, row in zip(cone, dual))
                      for j in range(self.fan.dimension))
            for i, ray in enumerate(rays):
                if i not in cone and sum(a * b for a, b in zip(x, ray)) <= offsets[i]:
                    raise EmptyInterior(
                        f"the vertex of cone {cone} is not strictly inside the "
                        f"half-space of ray {i}: the parameters are outside the "
                        f"open Kahler cone"
                    )
            out.append(x)
        return denom, out
