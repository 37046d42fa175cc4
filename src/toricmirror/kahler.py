"""Kahler parameters, the moment polytope, and symplectic areas.

The polytope is P = {x : <x, v_i> >= lambda_i}. Support constants lambda_i
may be exact rationals or symbolic linear forms in named parameters
(typically t1, t2, ...). A curve class with ray coordinates a has area
-sum(a_i * lambda_i) in 2*pi-normalized units.

The polytope has nonempty interior exactly when every positive circuit of
the rays (an extreme nonnegative relation) has positive area
-sum(y_i * lambda_i), by Motzkin's transposition theorem. Construction
refuses the support constants only when some circuit's area is a constant
<= 0, so that the polytope is empty at every parameter value. The
circuits are enumerated only when the parameter parts of the q-basis areas
have rank below the basis size: otherwise no nonzero rational class, so no
circuit, has a constant area. In the open Kahler cone the polytope has one
vertex per maximal cone, given in closed form by the cone's dual basis, and
the numeric vertices are only defined there. Parameters lie in that cone
exactly when every wall class has positive area, which is a vertex's slack
at the ray across the wall (Cox, Little, Schenck, "Toric Varieties", 2011,
section 6.1). ``scaled_vertices`` reads both off one integer table cached
at first use, at the parameter values taken exactly (a float at its binary
value): the wall classes' area rows, and per coordinate the distinct rows
of the vertices' coordinates with each cone's index into them. The first
wall class whose area is <= 0 names the refusal.

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
from .lattice import lattice_coordinates, rank
from .linform import LinForm, parse_linear_form


def checked_q_basis(fan: Fan, q_basis) -> tuple:
    """q_basis as a tuple of integer tuples, once it is a Z-basis of the
    fan's curve classes; ValueError saying what it fails otherwise."""
    q_basis = tuple(tuple(map(operator.index, b)) for b in q_basis)
    for b in q_basis:
        if not fan.is_homology_class(b):
            raise ValueError(f"q-basis vector {b} is not a curve class")
    if len(q_basis) != fan.nrays - fan.dimension:
        raise ValueError(
            f"q-basis has {len(q_basis)} classes; "
            f"homology rank is {fan.nrays - fan.dimension}"
        )
    if not fan.spans_homology(q_basis):
        raise ValueError("q-basis does not span the homology lattice")
    return q_basis


class KahlerData:
    """A fan with support constants and a named q-variable basis."""

    def __init__(self, fan: Fan, lambdas: Sequence, q_basis=None):
        self.fan = fan
        self.lambdas = lams = tuple(lam if isinstance(lam, LinForm) else parse_linear_form(lam)
                                    for lam in lambdas)
        if len(lams) != fan.nrays:
            raise ValueError(
                f"need one support constant per ray ({fan.nrays}), got {len(lams)}"
            )
        names = tuple(sorted(set().union(*(lam.coeffs for lam in lams))))
        self.parameter_names = names

        if q_basis is None:  # both fallbacks are bases by construction
            q_basis = default_q_basis(fan)
            if q_basis is None:
                q_basis = fan.homology_basis
        else:
            q_basis = checked_q_basis(fan, q_basis)
        self.q_basis = q_basis

        # the lambdas as integer rows over one common denominator: parameter
        # coefficients in name order, then the constant
        self._scale = scale = math.lcm(*(x.denominator for lam in lams
                                         for x in (lam.const, *lam.coeffs.values())))
        self._rows = tuple(tuple(x.numerator * scale // x.denominator for x in
                                 (*(lam.coeffs.get(n, 0) for n in names), lam.const))
                           for lam in lams)
        self._basis_rows = tuple(map(self._area_row, q_basis))
        self._check_polytope()

    # -- construction checks --

    def _check_polytope(self):
        # {<x, v_i> > lambda_i} is infeasible exactly when some nonzero
        # y >= 0 with sum(y_i v_i) = 0 has sum(y_i lambda_i) >= 0 (Motzkin),
        # and the positive circuits generate those y; a circuit whose area
        # is a constant <= 0 leaves the polytope empty at every parameter
        # value. A circuit is a nonzero rational combination of the q-basis:
        # when the basis areas' parameter parts are independent, no circuit
        # has a constant area and none need be enumerated
        if rank([row[:-1] for row in self._basis_rows]) == len(self.q_basis):
            return
        for circuit in self.fan.positive_circuits:
            *coeffs, const = self._area_row(circuit)
            if not any(coeffs) and const <= 0:
                raise EmptyInterior("moment polytope has empty interior")

    @property
    def rank(self) -> int:
        return len(self.q_basis)

    # -- areas --

    def _area_row(self, alpha) -> tuple:
        # -sum(a_i lambda_i) times the common denominator, as an integer row
        return tuple(-sum(map(operator.mul, alpha, col)) for col in zip(*self._rows))

    def _area_form(self, row) -> LinForm:
        *coeffs, const = (Fraction(x, self._scale) for x in row)
        return LinForm(const, dict(zip(self.parameter_names, coeffs)))

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
        return self._basis_areas

    @functools.cached_property
    def _basis_areas(self) -> tuple:
        return tuple(map(self._area_form, self._basis_rows))

    @functools.cached_property
    def _lambda_coordinates(self) -> tuple:
        # coordinates of every -lambda_i in the basis areas, or None, from
        # one coordinate map of their integer rows
        coords = lattice_coordinates(self._basis_rows)
        return tuple(coords([-x for x in row]) for row in self._rows)

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

    @functools.cached_property
    def _polytope_rows(self) -> tuple:
        # (walls, columns): each distinct area row of the wall classes,
        # mapped to the first wall class that has it; per coordinate j, the
        # distinct rows of the vertices' j-th coordinates, sum(_rows[i] *
        # D[i][j]) over a cone's rays i with dual basis D, and each maximal
        # cone's index into them
        per_cone = []
        for cone, dual in self.fan.dual_bases.items():
            lams = list(zip(*(self._rows[i] for i in cone)))
            per_cone.append([tuple(sum(map(operator.mul, col, lam)) for lam in lams)
                             for col in zip(*dual)])
        columns = []
        for rows in zip(*per_cone):
            distinct = tuple(dict.fromkeys(rows))
            columns.append((distinct, tuple(map(distinct.index, rows))))
        walls = {}
        for cls in self.fan.wall_classes:
            walls.setdefault(self._area_row(cls), cls)
        return walls, tuple(columns)

    def scaled_vertices(self, params: Mapping) -> tuple:
        """(denom, vertices times denom): the moment polytope's vertices,
        one per maximal cone in cone order, as integer points over one
        common denominator, with parameter values taken exactly (a float
        at its binary value).

        The vertex of a cone solves <x, v_i> = lambda_i on its rays, which
        is the lambda-weighted sum of its dual basis rows. Raises
        EmptyInterior, naming the first wall class whose area is <= 0,
        its area form and its value, unless every wall class has positive
        area, i.e. unless the parameters lie in the open Kahler cone. A
        parameter without a value is a ValueError.
        """
        missing = [n for n in self.parameter_names if n not in params]
        if missing:
            raise ValueError(f"need numeric values for parameters {missing}")
        values = [Fraction(params[n]) for n in self.parameter_names]
        denom = math.lcm(*(v.denominator for v in values))
        point = (*(v.numerator * (denom // v.denominator) for v in values), denom)
        walls, columns = self._polytope_rows
        for row, cls in walls.items():
            if (area := sum(map(operator.mul, row, point))) <= 0:
                raise EmptyInterior(
                    f"the wall class {cls} has area {self._area_form(row)} = "
                    f"{Fraction(area, self._scale * denom)} <= 0: the parameters are "
                    f"outside the open Kahler cone")
        # each distinct row is evaluated once, then read off per cone
        return self._scale * denom, list(zip(*(
            map([sum(map(operator.mul, row, point)) for row in rows].__getitem__, index)
            for rows, index in columns)))
