"""Smooth complete toric fans and their curve-class combinatorics.

A fan is stored as primitive ray generators plus maximal cone index sets.
Validation takes the Hermite normal form of each maximal cone's ray matrix
once: the cone is smooth (unimodular) when the normal form is the identity,
and the transform is then the cone's dual basis, whose rows are the inward
normals of its facets. Completeness is checked locally with those normals:
every facet of a maximal cone is shared by exactly two cones whose inward
normals there are opposite, and one generic point lies in exactly one cone.
Together these say the cones cover the space and meet in common faces. The
dual bases also give the coordinates of any vector in a cone's rays, which
locates the focus of a primitive relation. On top of the validated
structure this module computes the degree-2 homology lattice, primitive
collections and relations, the positive circuits (extreme nonnegative ray
relations), anticanonical degrees and the Fano/semi-Fano/non-nef trichotomy.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import (
    BadFaceIntersection,
    DimensionMismatch,
    FocusNotFound,
    IncompleteFan,
    NonPrimitiveRay,
    NonUnimodularCone,
)
from .lattice import hermite_normal_form, is_primitive, kernel_basis


class Positivity(enum.Enum):
    FANO = "Fano"
    SEMI_FANO_NOT_FANO = "SemiFanoNotFano"
    NOT_NEF = "NotNef"


class PrimitiveRelation(NamedTuple):
    """sum(rays in collection) = sum(multiplicity * ray in focus)."""

    collection: tuple
    focus: tuple
    multiplicities: tuple
    coords: tuple  # curve class in ray coordinates: +1 / -n_j / 0
    degree: int  # anticanonical pairing = sum of coords


def chern_degree(coords) -> int:
    """Anticanonical degree of a curve class in ray coordinates."""
    return sum(coords)


class Fan:
    """A validated smooth complete fan. Build via :func:`validate_fan`.

    ``dual_bases`` maps each maximal cone to the integer inverse of its ray
    matrix (rays as columns): row k is the inward normal of the facet
    opposite ray ``cone[k]``, and the matrix applied to a vector gives its
    coordinates in the cone's rays.

    Immutable: equality and hash cover (dimension, rays, maximal_cones),
    which determine ``dual_bases``, so a fan can key caches. The cached
    properties write the instance dict directly and are unaffected.
    """

    def __init__(self, dimension: int, rays: tuple, maximal_cones: tuple, dual_bases: dict):
        self.__dict__.update(dimension=dimension, rays=rays,
                             maximal_cones=maximal_cones, dual_bases=dual_bases)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a Fan is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a Fan is immutable")

    def _key(self) -> tuple:
        return (self.dimension, self.rays, self.maximal_cones)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"Fan(dimension={self.dimension!r}, rays={self.rays!r}, "
                f"maximal_cones={self.maximal_cones!r})")

    @property
    def nrays(self) -> int:
        return len(self.rays)

    @functools.cached_property
    def _cone_index_sets(self):
        return tuple(frozenset(c) for c in self.maximal_cones)

    def spans_cone(self, subset) -> bool:
        """A ray subset spans a cone of the fan iff it sits inside some
        maximal cone (faces of simplicial cones are generator subsets)."""
        s = frozenset(subset)
        return any(s <= c for c in self._cone_index_sets)

    @functools.cached_property
    def homology_basis(self):
        """Canonical Z-basis of the kernel of the ray map (degree-2 homology):
        the map Z^n -> Z^d with the rays as columns."""
        return tuple(kernel_basis(list(zip(*self.rays))))

    def is_homology_basis(self, classes) -> bool:
        """True when the classes form a Z-basis of the homology lattice.

        The canonical basis is in Hermite normal form, which is unique for
        a lattice, so the classes span it exactly when theirs is the same.
        """
        normal_form, _ = hermite_normal_form(classes)
        return [tuple(r) for r in normal_form] == list(self.homology_basis)

    def is_homology_class(self, coords) -> bool:
        if len(coords) != self.nrays:
            return False
        return all(
            sum(a * self.rays[j][i] for j, a in enumerate(coords)) == 0
            for i in range(self.dimension)
        )

    @functools.cached_property
    def primitive_collections(self):
        """Minimal ray subsets spanning no cone, every proper subset spanning one.

        Breadth-first over subset size: a candidate that is not a face and
        contains no smaller collection is automatically minimal, because any
        non-face proper subset would contain a smaller minimal non-face
        already found. A collection minus any one ray spans a simplicial
        cone, so it has at most dimension + 1 rays; larger sizes are not
        scanned.
        """
        found = []
        indices = range(self.nrays)
        for size in range(2, min(self.nrays, self.dimension + 1) + 1):
            for subset in combinations(indices, size):
                s = set(subset)
                if any(set(c) <= s for c in found):
                    continue
                if self.spans_cone(subset):
                    continue
                found.append(subset)
        return tuple(found)

    def _primitive_relation(self, collection) -> PrimitiveRelation:
        """Locate the focus (smallest cone containing the ray sum of a sorted
        primitive collection) and assemble the induced relation and curve
        class.

        The first maximal cone whose dual basis gives the sum nonnegative
        coordinates contains it; the rays with positive coordinates span the
        smallest cone containing it, and those coordinates are the
        multiplicities. The focus never meets the collection (Batyrev,
        Tohoku Math. J. 43, 1991, Prop. 3.1).
        """
        s = [sum(self.rays[i][k] for i in collection) for k in range(self.dimension)]
        for cone, dual in self.dual_bases.items():
            coeffs = [sum(a * x for a, x in zip(row, s)) for row in dual]
            if min(coeffs) < 0:
                continue
            focus = tuple(j for j, c in zip(cone, coeffs) if c)
            mults = tuple(c for c in coeffs if c)
            coords = [0] * self.nrays
            for i in collection:
                coords[i] = 1
            for j, m in zip(focus, mults):
                coords[j] = -m
            coords = tuple(coords)
            return PrimitiveRelation(
                collection=collection,
                focus=focus,
                multiplicities=mults,
                coords=coords,
                degree=chern_degree(coords),
            )
        raise FocusNotFound(f"no cone of the fan contains the sum over {collection}")

    @functools.cached_property
    def primitive_relations(self):
        return tuple(self._primitive_relation(c) for c in self.primitive_collections)

    @functools.cached_property
    def positive_circuits(self):
        """Support-minimal nonnegative ray relations, the extreme rays of the
        cone of nonnegative relations, as sorted curve classes in ray
        coordinates.

        The rays of a circuit minus any one are independent. So ray subsets
        are grown depth first in index order while they stay independent,
        each kept in integer echelon form: rows w = sum(c_i * v_i) over the
        subset, each zero at the leading positions of the rows before it. A
        further ray that reduces to zero gives the one relation on the
        subset and that ray; it is a circuit when it involves all of them
        with one sign.
        """
        d = self.nrays
        found = set()

        def extend(echelon, start):
            for j in range(start, d):
                w, c = list(self.rays[j]), [int(i == j) for i in range(d)]
                for row, coeffs, p in echelon:
                    if w[p]:
                        a, b = row[p], w[p]
                        w = [a * x - b * y for x, y in zip(w, row)]
                        c = [a * x - b * y for x, y in zip(c, coeffs)]
                if any(w):
                    lead = next(i for i, x in enumerate(w) if x)
                    extend(echelon + [(w, c, lead)], j + 1)
                elif sum(1 for x in c if x) == len(echelon) + 1 and (min(c) >= 0 or max(c) <= 0):
                    g = math.gcd(*c)
                    found.add(tuple(abs(x) // g for x in c))

        extend([], 0)
        return tuple(sorted(found))


# --- validation ---

def infer_cones_2d(rays):
    """Maximal cones of a complete 2D fan as consecutive pairs in angular
    order. The order is counterclockwise from the positive x-axis, by the
    exact key (lower half plane, -x/y): within a half plane -x/y grows with
    the angle, and the ray with y = 0 comes first in its half. Raises
    IncompleteFan when consecutive rays fail to advance by an angle in
    (0, pi), i.e. the rays leave an uncovered gap."""
    if len(rays) < 3:
        raise IncompleteFan("a complete 2D fan needs at least 3 rays")

    def angle_key(i):
        x, y = rays[i]
        upper = y > 0 or (y == 0 and x > 0)
        return (not upper, y != 0, Fraction(-x, y) if y else 0)

    order = sorted(range(len(rays)), key=angle_key)
    cones = []
    for k in range(len(order)):
        i, j = order[k], order[(k + 1) % len(order)]
        u, w = rays[i], rays[j]
        if u[0] * w[1] - u[1] * w[0] <= 0:
            raise IncompleteFan(
                f"rays {u} and {w} span an angle of at least pi; fan has a gap"
            )
        cones.append(tuple(sorted((i, j))))
    return sorted(cones)


def _check_complete(fan: Fan):
    """Every generic point lies in exactly one maximal cone.

    Cones are grouped by facet, each with its inward normal there (a row of
    its dual basis). Cones sharing a facet must lie on opposite sides of it:
    both normals are primitive and orthogonal to the facet, so they are
    equal or opposite, and equal means the same side. Then crossing a facet
    swaps one covering cone for another and every generic point is covered
    the same number of times. That number is read off at
    p = (1, N, N^2, ...), where N exceeds every entry of the dual bases: by
    the Cauchy root bound no normal vanishes at p, so p lies on no wall. A
    count of one, with every facet in exactly two cones, means the cones
    cover the space and meet in common faces.
    """
    n = fan.dimension
    by_facet = {}
    for cone, dual in fan.dual_bases.items():
        for k, normal in enumerate(dual):
            facet = cone[:k] + cone[k + 1:]
            by_facet.setdefault(facet, []).append((normal, cone))
    for facet, cones in by_facet.items():
        for (normal_a, ca), (normal_b, cb) in combinations(cones, 2):
            if normal_a == normal_b:
                raise BadFaceIntersection(
                    f"cones {ca} and {cb} lie on the same side of their "
                    f"common facet {facet}"
                )

    big = 2 + max(abs(x) for dual in fan.dual_bases.values() for row in dual for x in row)
    point = [big ** i for i in range(n)]
    inside = [
        cone for cone, dual in fan.dual_bases.items()
        if all(sum(a * x for a, x in zip(row, point)) > 0 for row in dual)
    ]
    if len(inside) > 1:
        raise BadFaceIntersection(
            f"maximal cones {inside} overlap: all contain the point {tuple(point)}"
        )

    bad = {f: len(c) for f, c in by_facet.items() if len(c) != 2}
    if bad:
        raise IncompleteFan(
            f"facets not shared by exactly two maximal cones: {sorted(bad.items())}"
        )


def validate_fan(dimension, rays, maximal_cones=None) -> Fan:
    """Validate fan data and return an immutable Fan.

    For dimension 2 the maximal cones may be omitted and are inferred from
    the counterclockwise order of the rays. Each maximal cone's ray matrix
    is put into Hermite normal form once: a cone is unimodular when the
    normal form is the identity (its diagonal product is |det|), and the
    transform is then the cone's dual basis, kept as ``Fan.dual_bases``.
    After the per-ray and per-cone checks, completeness is checked locally
    with the dual bases' inward normals (see :func:`_check_complete`): two
    cones with equal inward normals on a shared facet, or a generic point in
    two cones, raise BadFaceIntersection; a facet not in exactly two cones
    raises IncompleteFan. Raises NonPrimitiveRay, NonUnimodularCone,
    BadFaceIntersection, or IncompleteFan.
    """
    n = operator.index(dimension)
    if n < 1:
        raise DimensionMismatch("fan dimension must be at least 1")
    rays = tuple(tuple(map(operator.index, r)) for r in rays)
    if not rays:
        raise IncompleteFan("a fan needs rays")
    for r in rays:
        if len(r) != n:
            raise DimensionMismatch(f"ray {r} does not have length {n}")
        if not any(r):
            raise NonPrimitiveRay("the zero vector is not a ray")
        if not is_primitive(r):
            raise NonPrimitiveRay(f"ray {r} is not primitive")
    if len(set(rays)) != len(rays):
        raise NonPrimitiveRay("duplicate rays")

    if maximal_cones is None:
        if n != 2:
            raise IncompleteFan("maximal cones are required except in dimension 2")
        cones = infer_cones_2d(rays)
    else:
        cones = []
        for c in maximal_cones:
            cone = tuple(sorted(map(operator.index, c)))
            if len(set(cone)) != len(cone):
                raise NonUnimodularCone(f"cone {c} repeats a ray")
            if any(i < 0 or i >= len(rays) for i in cone):
                raise NonUnimodularCone(f"cone {c} references a missing ray")
            cones.append(cone)
        cones = sorted(cones)
    if not cones:
        raise IncompleteFan("a fan needs maximal cones")
    if len(set(cones)) != len(cones):
        raise IncompleteFan("duplicate maximal cones")
    dual_bases = {}
    for cone in cones:
        if len(cone) != n:
            raise NonUnimodularCone(f"maximal cone {cone} must have {n} rays")
        H, U = hermite_normal_form([[rays[j][i] for j in cone] for i in range(n)])
        det = math.prod(H[i][i] for i in range(n))
        if det != 1:
            raise NonUnimodularCone(f"cone {cone} has |det| {det}")
        dual_bases[cone] = tuple(tuple(row) for row in U)
    used = {i for cone in cones for i in cone}
    if used != set(range(len(rays))):
        raise IncompleteFan(f"rays {sorted(set(range(len(rays))) - used)} lie in no cone")

    fan = Fan(dimension=n, rays=rays, maximal_cones=tuple(cones), dual_bases=dual_bases)
    _check_complete(fan)
    return fan


# --- positivity ---

def classify_positivity(fan: Fan) -> Positivity:
    """Batyrev-style trichotomy from primitive-relation degrees: Fano iff all
    positive, nef iff all nonnegative."""
    degrees = [rel.degree for rel in fan.primitive_relations]
    if all(d > 0 for d in degrees):
        return Positivity.FANO
    if all(d >= 0 for d in degrees):
        return Positivity.SEMI_FANO_NOT_FANO
    return Positivity.NOT_NEF

