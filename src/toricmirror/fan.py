"""Smooth complete toric fans and their curve-class combinatorics.

A fan is stored as primitive ray generators plus maximal cone index sets,
with each cone's dual basis: the integer inverse of its ray matrix, whose
rows are the inward normals of its facets. Validation finds the dual bases
by walking across walls from one Hermite normal form; a cone reached
through a wall is unimodular, on the wall's other side, exactly when the
ray it adds has coordinate -1 on the ray it drops. Completeness is checked
locally: every facet of a maximal cone is shared by exactly two cones on
opposite sides of it, and one generic point lies in exactly one cone.
Together these say the cones cover the space and meet in common faces. The
dual bases also give the coordinates of any vector in a cone's rays, which
locates the focus of a primitive relation. On top of the validated
structure this module computes the degree-2 homology lattice and a basis
test by coordinates off one cone, the wall classes, the primitive
collections (the minimal non-faces) and relations, the positive circuits
(extreme nonnegative ray relations), anticanonical degrees and the
Fano/semi-Fano/non-nef trichotomy.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from fractions import Fraction
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
    """A smooth complete fan, built by :func:`validate_fan`, or with its
    dual bases (in sorted cone order) by a construction that guarantees
    both, such as :func:`~toricmirror.bundle.projectivize_canonical`.

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
    def homology_basis(self):
        """Canonical Z-basis of the kernel of the ray map (degree-2 homology):
        the map Z^n -> Z^d with the rays as columns."""
        return tuple(kernel_basis(list(zip(*self.rays))))

    def is_homology_basis(self, classes) -> bool:
        """True when the classes form a Z-basis of the homology lattice.

        The first maximal cone is unimodular, so a class is fixed by its
        coordinates on the rays off that cone, and every integer vector of
        them extends to a class: projecting onto them is an isomorphism onto
        Z^(nrays - dimension). So the classes are a basis exactly when there
        are that many, each is a class, and the projections have det +-1.
        """
        return (len(classes) == self.nrays - self.dimension
                and all(map(self.is_homology_class, classes))
                and self.spans_homology(classes))

    def spans_homology(self, classes) -> bool:
        """True when nrays - dimension curve classes span the homology
        lattice: their coordinates off the first maximal cone have det +-1."""
        off = [j for j in range(self.nrays) if j not in self.maximal_cones[0]]
        normal_form, _ = hermite_normal_form([[c[j] for j in off] for c in classes])
        return math.prod(normal_form[i][i] for i in range(len(off))) == 1

    def is_homology_class(self, coords) -> bool:
        if len(coords) != self.nrays:
            return False
        return all(
            sum(a * self.rays[j][i] for j, a in enumerate(coords)) == 0
            for i in range(self.dimension)
        )

    @functools.cached_property
    def wall_classes(self):
        """Each wall's curve class in ray coordinates, sorted, no repeats:
        across the facet of a cone opposite its ray v_k, c = D v' for the new
        ray v' has c_k = -1 and gives v' + v_k = sum over j != k of c_j v_j
        (Cox, Little, Schenck, "Toric Varieties", 2011, section 6.4)."""
        by_facet = {}
        for cone in self.maximal_cones:
            for k in range(len(cone)):
                by_facet.setdefault(cone[:k] + cone[k + 1:], []).append(cone)
        classes = set()
        for cone, other in by_facet.values():
            fresh, = set(other) - set(cone)
            coords = [0] * self.nrays
            coords[fresh] = 1
            for i, row in zip(cone, self.dual_bases[cone]):
                coords[i] = -sum(map(operator.mul, row, self.rays[fresh]))
            classes.add(tuple(coords))
        return tuple(sorted(classes))

    @functools.cached_property
    def primitive_collections(self):
        """The minimal non-faces of the cone complex (ray subsets spanning no
        cone, every proper subset spanning one), ordered by (size, tuple).

        Faces are the subsets of the maximal cones, as bit masks. A minimal
        non-face minus its highest ray is a face, so each is a face plus a
        ray above the face's highest, kept when it is no face but each
        subset one ray short of it is. A single ray always spans a cone.
        """
        faces = {0}
        for cone in self.maximal_cones:
            masks = [0]
            for i in cone:
                masks += [m | 1 << i for m in masks]
            faces.update(masks)
        found = []
        for face in faces:
            for j in range(face.bit_length(), self.nrays):
                cand = face | 1 << j
                if cand in faces:
                    continue
                rest = face  # drop its rays lowest first, while faces remain
                while rest and cand ^ (rest & -rest) in faces:
                    rest &= rest - 1
                if not rest:
                    found.append(tuple(i for i in range(j + 1) if cand >> i & 1))
        return tuple(sorted(found, key=lambda c: (len(c), c)))

    def _primitive_relation(self, collection) -> PrimitiveRelation:
        """Locate the focus (smallest cone containing the ray sum of a sorted
        primitive collection) and assemble the induced relation and curve
        class.

        The first maximal cone whose dual basis gives the sum nonnegative
        coordinates contains it (a cone is left at its first negative one);
        the rays with positive coordinates span the smallest cone containing
        it, and those coordinates are the multiplicities. The focus never
        meets the collection (Batyrev, Tohoku Math. J. 43, 1991, Prop. 3.1).
        """
        s = [sum(self.rays[i][k] for i in collection) for k in range(self.dimension)]
        for cone, dual in self.dual_bases.items():
            coeffs = []
            for row in dual:
                coeffs.append(sum(map(operator.mul, row, s)))
                if coeffs[-1] < 0:
                    break
            else:
                break
        else:
            raise FocusNotFound(f"no cone of the fan contains the sum over {collection}")
        focus = tuple(j for j, c in zip(cone, coeffs) if c)
        mults = tuple(c for c in coeffs if c)
        coords = [0] * self.nrays
        for i in collection:
            coords[i] = 1
        for j, m in zip(focus, mults):
            coords[j] = -m
        return PrimitiveRelation(collection, focus, mults, tuple(coords), chern_degree(coords))

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


def _walk_walls(start, rays, by_facet, duals, same_side):
    """Dual bases of the maximal cones reached from *start* across walls.

    From a unimodular cone with dual basis D across the facet opposite its
    ray v_k, the new ray v' has coordinates c = D v', and the new cone has
    |det| |c_k| (Cramer's rule). At c_k = +-1 its dual basis is
    d_j - c_j c_k d_k for the kept rays and c_k d_k for v': -1 puts it on
    the other side of the wall, +1 on the same side. *start* takes its
    dual basis from a Hermite normal form; a valid fan needs one walk.

    Each cone reached gets its dual basis in *duals*, or its |det| when it
    is not unimodular, and *same_side* every (facet, lower cone, higher
    cone) of two cones on one side of their facet.
    """
    n = len(start)
    H, U = hermite_normal_form([[rays[j][i] for j in start] for i in range(n)])
    det = math.prod(H[i][i] for i in range(n))
    duals[start] = tuple(map(tuple, U)) if det == 1 else det
    queue, walked = [start] if det == 1 else [], set()
    for cone in queue:
        walked.add(cone)
        dual = duals[cone]
        for k in range(n):
            facet = cone[:k] + cone[k + 1:]
            for other in by_facet[facet]:
                if other in walked or isinstance(duals.get(other), int):
                    continue
                fresh = next(i for i in other if i not in cone)
                ck = sum(map(operator.mul, dual[k], rays[fresh]))
                if ck == 1:
                    same_side.append((facet, min(cone, other), max(cone, other)))
                if other in duals:
                    continue
                if abs(ck) != 1:
                    duals[other] = abs(ck)
                    continue
                dk = dual[k]
                rows = {fresh: tuple(ck * b for b in dk)}
                for i, row in zip(cone, dual):
                    if i != cone[k]:
                        c = ck * sum(map(operator.mul, row, rays[fresh]))
                        rows[i] = tuple(a - c * b for a, b in zip(row, dk)) if c else row
                duals[other] = tuple(rows[i] for i in other)
                queue.append(other)


def _check_complete(fan: Fan, by_facet: dict):
    """Every generic point lies in exactly one maximal cone, given that no
    two cones lie on the same side of a common facet.

    Then crossing a facet swaps one covering cone for another, so every
    generic point is covered the same number of times. That number is
    read off at p = (1, N, N^2, ...), where N exceeds every entry of the
    dual bases: by the Cauchy root bound no inward normal vanishes at p,
    so p lies on no wall. A count of one, with every facet in exactly two
    cones, means the cones cover the space and meet in common faces.
    """
    n = fan.dimension
    big = 2 + max(abs(x) for dual in fan.dual_bases.values() for row in dual for x in row)
    point = [big ** i for i in range(n)]
    inside = [
        cone for cone, dual in fan.dual_bases.items()
        if all(sum(map(operator.mul, row, point)) > 0 for row in dual)
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
    the counterclockwise order of the rays. The dual bases, kept as
    ``Fan.dual_bases``, come from walks across the facets, each from the
    first cone in sorted order that no walk reached yet (see
    :func:`_walk_walls`). Checks fire in this order: per ray, per cone (the
    first cone in sorted order that is not unimodular), every ray in a
    cone, two cones on one side of a common facet, then completeness (see
    :func:`_check_complete`). Raises NonPrimitiveRay, NonUnimodularCone,
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
    by_facet = {}
    for cone in cones:
        for k in range(len(cone)):
            by_facet.setdefault(cone[:k] + cone[k + 1:], []).append(cone)
    duals, same_side = {}, []
    for cone in cones:
        if len(cone) != n:
            raise NonUnimodularCone(f"maximal cone {cone} must have {n} rays")
        if cone not in duals:
            _walk_walls(cone, rays, by_facet, duals, same_side)
        if isinstance(duals[cone], int):
            raise NonUnimodularCone(f"cone {cone} has |det| {duals[cone]}")
    used = {i for cone in cones for i in cone}
    if used != set(range(len(rays))):
        raise IncompleteFan(f"rays {sorted(set(range(len(rays))) - used)} lie in no cone")

    if same_side:
        facet, ca, cb = min(same_side, key=lambda s: (list(by_facet).index(s[0]), s[1:]))
        raise BadFaceIntersection(
            f"cones {ca} and {cb} lie on the same side of their common facet {facet}"
        )
    fan = Fan(dimension=n, rays=rays, maximal_cones=tuple(cones),
              dual_bases={cone: duals[cone] for cone in cones})
    _check_complete(fan, by_facet)
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

