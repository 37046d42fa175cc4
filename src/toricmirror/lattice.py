"""Exact integer linear algebra.

Everything here runs on arbitrary-precision Python ints; no Fractions and no
floating point. Every matrix goes through the Hermite normal form: kernels
come from the normal form of the transpose, which yields a saturated lattice
basis directly (the basis rows come from a unimodular transform), integer
coordinates in a basis come from one normal form per basis
(:func:`lattice_coordinates`), and the transform of a unimodular matrix is
its integer inverse; the volume of a lattice polytope sums normal-form
diagonals over a triangulation (:func:`normalized_volume`), and the rank of
a matrix counts the nonzero rows of its normal form (:func:`rank`). Rational
systems elsewhere are scaled to integers first. Saturation is not
re-checked at run time; the test suite checks it against elementary
divisors.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations
from typing import Optional, Sequence

from .errors import (
    DependentGenerators,
    DimensionMismatch,
    NotFullRank,
    ZeroVector,
)


def xgcd(a: int, b: int) -> tuple:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0.

    When a divides b the coefficients are (sign(a), 0): elimination steps
    built on top of this never rotate the pivot row away, which is what
    guarantees termination of the normal-form reductions.
    """
    if a != 0 and b % a == 0:
        return (abs(a), 1 if a > 0 else -1, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _check_rect(mat) -> tuple:
    rows = [list(r) for r in mat]
    if not rows:
        return [], 0
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise ValueError("ragged matrix")
        for x in r:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"matrix entries must be integers, got {x!r}")
    return rows, ncols


def hermite_normal_form(mat) -> tuple:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and U @ mat == H, where H is in row
    echelon form with positive pivots and entries above each pivot reduced
    into [0, pivot). Zero rows of H sit at the bottom.
    """
    A, ncols = _check_rect(mat)
    m = len(A)
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            if A[i][c] == 0:
                continue
            a, b = A[r][c], A[i][c]
            g, s, t = xgcd(a, b)
            p, q = a // g, b // g
            A[r], A[i] = (
                [s * x + t * y for x, y in zip(A[r], A[i])],
                [-q * x + p * y for x, y in zip(A[r], A[i])],
            )
            U[r], U[i] = (
                [s * x + t * y for x, y in zip(U[r], U[i])],
                [-q * x + p * y for x, y in zip(U[r], U[i])],
            )
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
            U[r] = [-x for x in U[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
    return A, U


# --- public lattice operations ---

def rank(mat) -> int:
    """Rank of an integer matrix: the nonzero rows of its Hermite normal form."""
    return sum(1 for row in hermite_normal_form(mat)[0] if any(row))


def is_primitive(v: Sequence[int]) -> bool:
    """True when gcd of the entries is 1. Raises ZeroVector on the zero vector."""
    entries = list(map(operator.index, v))
    if not any(entries):
        raise ZeroVector("the zero vector has no primitive direction")
    return math.gcd(*(abs(x) for x in entries)) == 1


def kernel_basis(mat) -> list:
    """Z-basis of {a : mat @ a = 0}, saturated and canonically ordered.

    The rows of *mat* must be independent over Q (NotFullRank otherwise).
    The returned vectors are rows of a unimodular transform, hence they span
    the full kernel lattice; the basis is then put into Hermite normal form
    so the output is deterministic.
    """
    rows, ncols = _check_rect(mat)
    m = len(rows)
    transpose = [[rows[i][j] for i in range(m)] for j in range(ncols)]
    H, U = hermite_normal_form(transpose)
    rk = sum(1 for h in H if any(h))
    if rk < m:
        raise NotFullRank(f"matrix rows are dependent (rank {rk} < {m})")
    canon, _ = hermite_normal_form(U[rk:])
    return [tuple(r) for r in canon if any(r)]


def lattice_coordinates(basis):
    """Coordinate map of the lattice spanned by linearly independent rows.

    The Hermite normal form of the rows is taken once (DependentGenerators
    when a row of it is zero). The returned ``coords(v)`` gives the integer
    tuple c with sum(c_i * basis_i) == v, or None when v is not an integer
    combination of the rows, by integer back-substitution against the
    pivots of the normal form mapped back through its unimodular transform.
    """
    H, U = hermite_normal_form(basis)
    if any(not any(row) for row in H):
        raise DependentGenerators(f"basis {[tuple(b) for b in basis]} is linearly dependent")
    pivots = [next(j for j, x in enumerate(row) if x) for row in H]
    width = len(H[0]) if H else None

    def coords(v) -> Optional[tuple]:
        rest = list(map(operator.index, v))
        if width is not None and len(rest) != width:
            raise DimensionMismatch(f"vector length {len(rest)}, basis row length {width}")
        y = []
        for row, p in zip(H, pivots):
            k, r = divmod(rest[p], row[p])
            if r:
                return None
            y.append(k)
            if k:
                rest = [a - k * b for a, b in zip(rest, row)]
        if any(rest):
            return None
        return tuple(sum(k * u[j] for k, u in zip(y, U)) for j in range(len(U)))

    return coords


def unit_grading(points) -> Optional[tuple]:
    """The integer functional u with <u, p> = 1 for every point, or None
    when there is none or the points do not span the space (u would not be
    unique): the integer coordinates of (1, ..., 1) in the columns of the
    point matrix."""
    try:
        coords = lattice_coordinates([list(col) for col in zip(*points)])
    except DependentGenerators:
        return None
    return coords((1,) * len(points))


# --- lattice polytopes ---

def _facets(points) -> dict:
    """Facets of the convex hull of integer points in R^d, d >= 2, as
    {frozenset of point indices on the facet: integer normal}. A point set
    of lower dimension has none, or the one "facet" holding every point.
    Each d-subset spans a candidate hyperplane, kept when no point lies
    strictly on either side of it; its normal is the one kernel vector of
    the subset's differences. A subset inside a known facet is skipped."""
    d = len(points[0])
    found: dict = {}
    for subset in combinations(range(len(points)), d):
        if any(found_set.issuperset(subset) for found_set in found):
            continue
        p0 = points[subset[0]]
        try:
            (normal,) = kernel_basis([[a - b for a, b in zip(points[i], p0)]
                                      for i in subset[1:]])
        except NotFullRank:  # the subset spans no hyperplane
            continue
        level = sum(u * x for u, x in zip(normal, p0))
        side = [sum(u * x for u, x in zip(normal, p)) - level for p in points]
        if min(side) < 0 < max(side):
            continue
        found[frozenset(i for i, s in enumerate(side) if s == 0)] = normal
    return found


def _pulling_triangulation(points, labels) -> list:
    """Simplices (tuples of labels) covering conv(points) with disjoint
    interiors: the cones from the first point over the triangulated facets
    that miss it. A facet is triangulated in the coordinates left after
    dropping one its normal does not vanish on, which map its affine hull
    onto R^(d-1) bijectively."""
    if len(points[0]) == 1:
        order = sorted(range(len(points)), key=lambda i: points[i][0])
        return [(labels[order[0]], labels[order[-1]])]
    out = []
    for facet, normal in _facets(points).items():
        if 0 in facet:
            continue
        k = next(j for j, u in enumerate(normal) if u)
        members = sorted(facet)
        projected = [points[i][:k] + points[i][k + 1:] for i in members]
        for simplex in _pulling_triangulation(projected, [labels[i] for i in members]):
            out.append(simplex + (labels[0],))
    return out


def normalized_volume(points) -> int:
    """d! times the volume of the convex hull of integer points in Z^d (0
    when they span less than R^d): the sum of |det| over the simplices of a
    pulling triangulation, each |det| the product of the Hermite normal
    form's diagonal."""
    points = [tuple(map(operator.index, p)) for p in points]
    if not points or not points[0]:
        return 0
    total = 0
    for simplex in _pulling_triangulation(points, points):
        apex = simplex[-1]
        H, _ = hermite_normal_form([[a - b for a, b in zip(p, apex)] for p in simplex[:-1]])
        total += math.prod(H[i][i] for i in range(len(apex)))  # |det|
    return total
