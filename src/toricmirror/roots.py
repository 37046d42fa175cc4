"""Critical points of Laurent superpotentials, factor by factor.

The critical points of W are the roots in (C*)^n of its logarithmic
gradient g_j = z_j dW/dz_j. Their number is at most n! vol(Newton polytope)
(Kouchnirenko; Bernstein), computed exactly from the term exponents, with
the root-of-unity group G below, in one cached structure record per
exponent tuple; a W with bound 0 has no isolated roots and is refused, and
so is one with a factor (below) that has no isolated root. On the smooth
Fano and semi-Fano fans this package builds, the bound is the number of
maximal cones and is reached.

The record also finds the structure the paper's X = P(K_Y + O_Y) gives W.
In a unimodular chart, exponents a -> M a, that W reads

    W = u P(y) + c/u,   P(y) = c_0 + W_Y(y),

one term c_0 u per ray v_0, one c/u for its opposite, and the others
u y^b; the fiber grading u is the functional that is 1 on every
nonconstant exponent but -v_0 (``lattice.unit_grading``; on a fan of
P(K_Y + O), ``bundle.decompose_bundle``'s). The critical points are the
critical points y of W_Y, each lifted twice by u = +-sqrt(c/P(y)), with values
+-2 sqrt(c P(y)). W_Y of a product is a sum in separate variables
(Hori, Vafa, arXiv:hep-th/0002222): the exponents split into the connected
components of their matroid, and when the lattices the components span
make up the whole lattice, each is a factor in its own block of
coordinates and the base roots are products of factor roots. A W with no
fiber grading is its own base, and a base that does not split is one
factor in the identity chart. A factor with r + 1 exponents in r
coordinates is a simplex: its log-gradient system is binomial (Sturmfels,
CBMS 97, ch. 3), solved in closed form by one linear solve with its integer
exponent matrix in log coordinates and the orbit of that root under the
factor's G. Any other factor is a Newton factor, solved by Newton: a 2-D
one from its polyhedral starts (below), any other from the start grid,
whose seeds the option moduli give through the chart. A base root with
P(y) = 0 has no lift; it is counted in
`unlifted` and leaves the report short. A factor holds only nonconstant
terms, so W's constant term, which drops out of every z_j dW/dz_j, moves
no start and no root: it only adds to the values.

A 2-D Newton factor has `bound` polyhedral starts, one per fine mixed
cell of the log-gradient equations' supports under a lifting by the
coefficients, and per phase shift of that cell (Huber, Sturmfels, Math.
Comp. 64 (1995); ``_polyhedral_starts``). Newton runs from them alone,
and when their verified roots reach the bound with no two starts on one
root, the system is solved. Otherwise Newton continues from the start
grid, one start at a time on what is left of the max_starts budget, and
the report counts the system in `grid_fallbacks`; so it does when the
cells' volumes miss the bound, and the grid's starts run alone, as they
do on a Newton factor of any other dimension. The grid's starts combine
per-coordinate seed moduli with equally spaced phases, in a fixed stride
permutation of the whole grid, so that every coordinate's seeds come
early (``_grid_starts``). One corrector runs every start (``_newton``):
damped Newton in log coordinates w = log z, so that no iterate lands on
an axis, one pass over the terms per step for the log-gradient and its
Jacobian J_jk = sum a_j a_k c z^a, exact term-wise differentiation. The
ends of every start are collected in one place (``_newton_system``):
merged with their images under G, admitted by ``candidate``, stopped at
the bound. The grid's size is checked against the float range before any
start runs. The points come in the order of their factor roots, each
Newton system's roots sorted on keys rounded far above the rounding
noise (``_order``), so that the same roots found from other starts come
in the same order. Everything is deterministic: the starts, their order
and their ends depend only on W, t and the options.

Every point is admitted by the residual of the full W, evaluated once in
the chart, where its terms are moderate (``candidate``). The record holds
the chart image b = M a of each exponent a. At the chart log point
l = (log y, log u) one pass gives the terms m = c exp(<b, l>), W = sum m
and the log-gradient in z, sum a m: W's own integer exponents times the
same m. The point reported is z = exp(M^T l); one whose z or terms leave
the float range, or whose z lands on an axis, is refused. (z_j^e, taken
coordinate by coordinate, overflows in steep charts where c z^a is
moderate.) A point that misses the tolerance is polished by at most two
Newton steps in the chart from the same m; the log-gradient in l is M
times the one in z. A Newton factor's roots are admitted by the same
pass, in the factor's coordinates.

The roots come in orbits. Let L be the lattice spanned by the differences
of W's nonconstant exponents: for theta with <theta, L> in Z, the shift
w -> w + 2 pi i theta of w = log z multiplies every term of g by one root
of unity, so G = L*/Z^n permutes the roots, and freely. As the bound is
positive, G is finite, of an order dividing the bound; on P(K_Y + O) it
holds z_n -> -z_n. `orbit_size` is the order of W's G.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import NoConvergence, RootBoundExceeded, SchemaError
from .kahler import KahlerData
from .lattice import (hermite_normal_form, kernel_basis, lattice_coordinates, normalized_volume,
                      rank, unit_grading)
from .laurent import LOG_FLOAT_MAX, LaurentPoly, numeric_terms


_DEDUP_RADIUS = 1e-8  # the default dedup radius, in log coordinates


class SolverOptions(NamedTuple):
    phases_per_coord: int = 8
    max_steps: int = 100
    tol: float = 1e-12
    dedup_radius: float = _DEDUP_RADIUS
    max_starts: int = 4096
    moduli_per_coord: Optional[tuple] = None

    def to_json(self) -> dict:
        return self._asdict()  # JSON writes the moduli tuples as lists


class CriticalReport(NamedTuple):
    """The verified roots with their values and residuals, the multistart
    counts, the factors solved, and the options that produced them."""

    points: tuple  # tuples of complex coordinates
    values: tuple  # W at each point
    residuals: tuple  # |log-gradient| at each point
    attempted: int  # starts run: the polyhedral starts, then the start grid's
    converged: int  # starts whose Newton iterate converged, each counted once
    deduped: int  # distinct verified roots
    expected: int  # root bound n! vol(Newton polytope), at least 1
    orbit_size: int  # order of the root-of-unity symmetry group the roots are closed under
    grid_size: int  # starts in the full grids of the Newton factors
    truncated: bool  # starts left unrun, and deduped < expected
    factors: tuple  # (dimension, root bound, "closed-form" or "newton") per factor
    unlifted: int  # base roots with P(y) = 0, which have no critical point above them
    polyhedral: int  # starts run from mixed cells, each once, among the attempted
    grid_fallbacks: int  # 2-D Newton systems the start grid ran on: starts short, or cells missed
    options: SolverOptions = SolverOptions()


class Found(NamedTuple):
    """What a solve of one system found: the verified roots as candidates,
    the multistart counts, the least residual seen over candidates refused
    by it and over dropped starts (inf when none), and the candidates
    refused because they left the float range. A factored solve adds its
    unlifted base roots; a 2-D Newton system, whether the start grid ran
    on it."""

    points: list
    attempted: int
    converged: int
    grid_size: int
    best: float
    polyhedral: int  # starts from mixed cells, each once, ahead of the start grid's
    refused: int
    unlifted: int = 0
    grid_fallbacks: int = 0


class Factor(NamedTuple):
    """One factor of W's base: its coordinates first .. first + dim - 1 of
    the chart, and its terms as (index among W's sorted terms, exponent in
    those coordinates)."""

    first: int
    dim: int
    terms: tuple
    bound: int
    shifts: tuple  # its G, as for W
    simplex: Optional[tuple]  # (mu, inverse rows) when closed-form, else None


class Structure(NamedTuple):
    """W's root bound and G, and how it factors: the unimodular chart (rows
    M), its inverse, the term indices of v_0 and its opposite (None without
    a fiber grading), the factors, the chart image M a of each exponent a,
    and why W has no isolated critical point although its bound is
    positive (None when it may have some). A refused record has no chart,
    inverse or factors, and its images are the exponents."""

    bound: int
    shifts: tuple
    chart: Optional[tuple]
    inverse: Optional[tuple]
    fiber: Optional[tuple]
    factors: tuple
    images: tuple
    refusal: Optional[str]


def moduli_from_polytope(kahler: KahlerData, params: Mapping) -> tuple:
    """Per-coordinate |z| seeds exp(-x_j) from the moment polytope: vertex
    coordinates (one vertex per maximal cone), their pairwise midpoints, and
    the mean of the vertices. Scales whose exponential underflows to 0 or
    overflows a float are dropped; one too small to round to 14 decimals is
    kept unrounded. Raises EmptyInterior, naming a cone and a ray, unless
    every wall class has positive area, i.e. unless the parameters lie in
    the open Kahler cone; the vertices are ``KahlerData.scaled_vertices``,
    read off cached integer rows with a float parameter at its binary
    value."""
    # the vertex coordinates are integers over denom; each scale is one
    # correctly rounded division, as the Fraction it stands for would give,
    # and a vertex coordinate is its own midpoint with itself
    denom, vertices = kahler.scaled_vertices(params)
    count = len(vertices)
    out = []
    for coords in zip(*vertices):
        scales = {(a + b) / (2 * denom)
                  for a, b in itertools.combinations_with_replacement(set(coords), 2)}
        scales.add(sum(coords) / (count * denom))
        out.append(_seeds(-s for s in scales))
    return tuple(out)


def _seeds(logs) -> tuple:
    """The moduli exp(x) of the log-moduli x, largest first: one that
    overflows is dropped, rounding merges near-equal ones, and one that
    rounds to 0 is kept as is; (1.0,) when none is left."""
    seeds = [math.exp(x) for x in logs if x <= LOG_FLOAT_MAX]
    moduli = sorted({round(r, 14) or r for r in seeds}, reverse=True)
    return tuple(r for r in moduli if r > 0.0) or (1.0,)


def _bound_and_shifts(nonconstant: list, whose: str = "its nonconstant terms") -> tuple:
    """(bound, shifts) of nonconstant exponents; SchemaError, naming whose
    they are, when their Newton polytope is not full-dimensional.

    bound is Kouchnirenko's bound on the isolated roots in (C*)^n of the
    log-gradient system: n! times the volume of the Newton polytope of the
    nonconstant terms. It is positive: a bound of 0 (L of lower rank) means
    W has no isolated critical points whatever its coefficients.

    shifts are the log-coordinate phase shifts 2 pi theta, one per element
    of G = L*/Z^n, the zero shift first, exact from L's Hermite normal
    form."""
    first, *rest = nonconstant
    n = len(first)
    H, _ = hermite_normal_form([[x - y for x, y in zip(a, first)] for a in rest])
    if len(H) < n or not all(H[j][j] for j in range(n)):
        raise SchemaError("potential has no isolated critical points: the Newton "
                          f"polytope of {whose} is not full-dimensional")
    return normalized_volume(nonconstant), _shifts(H)


def _shifts(H) -> tuple:
    """The phase shifts 2 pi theta, one per theta in L*/Z^n, of the
    full-rank lattice L whose Hermite normal form is H (n columns, upper
    triangular, positive diagonal), the zero shift first: theta runs over
    the solutions of H theta = k mod Z^n, one per k_j in [0, H_jj), by
    back-substitution in Fractions."""
    thetas = [()]  # the last coordinates of each theta, reduced into [0, 1)
    for j in range(len(H[0]) - 1, -1, -1):
        row = H[j][j + 1:]
        thetas = [((k - sum(b * x for b, x in zip(row, tail))) / Fraction(H[j][j]) % 1,) + tail
                  for tail in thetas for k in range(H[j][j])]
    return tuple(tuple(2.0 * math.pi * x.numerator / x.denominator for x in theta)
                 for theta in thetas)


@lru_cache(maxsize=64)
def _exponent_structure(exponents: tuple) -> Structure:
    """The structure record of W's sorted exponents; only the nonconstant
    ones count, as a constant term drops out of every z_j dW/dz_j.
    SchemaError when there is none, or when their Newton polytope is not
    full-dimensional. A W with a factor that has no isolated root gets a
    record too, unfactored, with the reason ``solve`` refuses it for."""
    nonconstant = [a for a in exponents if any(a)]
    if not nonconstant:
        raise SchemaError("potential has no nonconstant term")
    bound, shifts = _bound_and_shifts(nonconstant)
    try:
        chart, inverse, fiber, factors = _factorization(exponents)
    except SchemaError as exc:
        return Structure(bound, shifts, None, None, None, (), exponents, str(exc))
    images = tuple(tuple(sum(x * y for x, y in zip(row, a)) for row in chart) for a in exponents)
    return Structure(bound, shifts, chart, inverse, fiber, factors, images, None)


def _components(vectors: list) -> list:
    """The connected components of the vectors' matroid, as sorted index
    lists in order of their first index: i and j meet when one lies in the
    other's fundamental circuit over a greedy basis, that is when swapping
    it into the basis for the other keeps the rank."""
    basis = []
    for i, v in enumerate(vectors):
        if rank([vectors[j] for j in basis] + [v]) > len(basis):
            basis.append(i)
    root = list(range(len(vectors)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, v in enumerate(vectors):
        if i in basis:
            continue
        for b in basis:
            if rank([vectors[j] for j in basis if j != b] + [v]) == len(basis):
                root[find(i)] = find(b)
    groups = {}
    for i in range(len(vectors)):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def _identity(n: int) -> list:
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _inverse(mat) -> tuple:
    """The inverse of a nonsingular integer matrix, as rows of floats: its
    column j is the integer coordinates of |det| e_j in the columns of mat,
    each divided by |det| in one correctly rounded division."""
    n = len(mat)
    det = math.prod(row[i] for i, row in enumerate(hermite_normal_form(mat)[0]))
    coords = lattice_coordinates(list(zip(*mat)))
    columns = [coords([det * (i == j) for i in range(n)]) for j in range(n)]
    return tuple(tuple(c[i] / det for c in columns) for i in range(n))


def _factorization(exponents: tuple) -> tuple:
    """(chart, inverse, fiber, factors) of W's sorted exponents; a W with
    no fiber grading whose exponents do not split is one factor in the
    identity chart. SchemaError when a factor has no isolated root, and so
    W has none: its Newton polytope is not full-dimensional (its roots, if
    any, come in curves), or it is a simplex whose binomial system sets a
    term to 0."""
    n = len(exponents[0])
    index = {a: i for i, a in enumerate(exponents) if any(a)}
    fiber, grading, rows, base = None, (), _identity(n), list(index)
    for v in index:
        opposite = tuple(-x for x in v)
        u = unit_grading([a for a in index if a != opposite]) if opposite in index else None
        if u is not None:
            fiber, grading = (index[v], index[opposite]), (tuple(u),)
            rows = kernel_basis([v])  # a basis of v's annihilator
            base = [a for a in index if a not in (v, opposite)]
            break
    d = len(rows)
    images = [tuple(sum(x * y for x, y in zip(row, a)) for row in rows) for a in base]
    groups = _components(images)
    split = _identity(d)
    dims = [d] if groups else []
    if len(groups) > 1:
        lattices = [[r for r in hermite_normal_form([images[i] for i in g])[0] if any(r)]
                    for g in groups]
        H, U = hermite_normal_form([r for lat in lattices for r in lat])
        if all(H[i][i] == 1 for i in range(d)):
            # U is the inverse of the stacked bases; coordinates in them are U^T b
            split = [tuple(U[j][i] for j in range(d)) for i in range(d)]
            dims = [len(lat) for lat in lattices]
        else:
            groups = [sorted(i for g in groups for i in g)]
    chart = tuple(tuple(sum(s * r[k] for s, r in zip(row, rows)) for k in range(n))
                  for row in split) + grading
    factors = []
    first = 0
    for g, dim in zip(groups, dims):
        terms = tuple((index[base[i]], tuple(sum(x * y for x, y in zip(split[k], images[i]))
                                             for k in range(first, first + dim)))
                      for i in g)
        exps = [a for _, a in terms]
        bound, shifts = _bound_and_shifts(exps, "one of its factors")
        simplex = None
        if len(exps) == dim + 1:
            (mu,) = kernel_basis([[a[j] for a in exps] for j in range(dim)])
            if not all(mu):
                raise SchemaError("potential has no isolated critical points: one of its "
                                  "factors is a simplex whose binomial system has no root "
                                  "in the torus")
            simplex = (mu, _inverse([list(a) + [-1] for a in exps]))
        factors.append(Factor(first, dim, terms, bound, shifts, simplex))
        first += dim
    _, inverse = hermite_normal_form(chart)
    return chart, tuple(map(tuple, inverse)), fiber, tuple(factors)


def _factor_moduli(structure: Structure, factor: Factor, moduli) -> Optional[tuple]:
    """The seed moduli of a Newton factor's coordinates from W's, or None
    without moduli. log y = M^-T log z, so a factor coordinate whose row of
    M^-T is a unit vector takes that coordinate's moduli. Otherwise it folds
    in the coordinates its row draws on, one at a time: the sums e_j log r
    with the log-moduli so far, thinned to evenly spaced ranks of their
    sorted set, as many as the largest of those coordinates' moduli lists
    has. The seeds are rounded and merged as moduli_from_polytope rounds
    them."""
    if not moduli:
        return None
    out = []
    for i in range(factor.first, factor.first + factor.dim):
        row = [(structure.inverse[j][i], moduli[j])
               for j in range(len(moduli)) if structure.inverse[j][i]]
        if len(row) == 1 and row[0][0] == 1:
            out.append(tuple(row[0][1]))
            continue
        size = max(len(m) for _, m in row)
        logs = [0.0]
        for e, m in row:
            logs = _thin(sorted({x + e * math.log(r) for x in logs for r in m}), size)
        out.append(_seeds(logs))
    return tuple(out)


def _thin(values: list, size: int) -> list:
    """At most size of the sorted values, at evenly spaced ranks: the ends
    and the values between them (the middle one when size is 1)."""
    if len(values) <= size:
        return values
    if size == 1:
        return [values[len(values) // 2]]
    return [values[round(k * (len(values) - 1) / (size - 1))] for k in range(size)]


def _simplex_roots(factor: Factor, coefficients) -> list:
    """The roots of a simplex factor in log coordinates: the terms
    m_i = c_i y^(a_i) of a root are s * mu_i for the kernel vector mu of
    the exponents, so <a_i, w> - log s = log(mu_i / c_i), one linear solve
    with the inverse of the rows (a_i, -1); then its orbit under G."""
    mu, inverse = factor.simplex
    rhs = [cmath.log(m / c) for m, c in zip(mu, coefficients)]
    w = [sum(x * y for x, y in zip(row, rhs)) for row in inverse[:factor.dim]]
    return [tuple(x + 1j * s for x, s in zip(w, shift)) for shift in factor.shifts]


class Cell(NamedTuple):
    """A candidate mixed cell of a 2-D log-gradient system: terms p, q from
    the first equation's support and r, s from the second's, the rows of
    B^-1 for B = [a_p - a_q; a_r - a_s], the phase shifts of B's row
    lattice, |det B| of them, and for each equation the other terms t of
    its support with a_t - a_p (a_t - a_r for the second)."""

    terms: tuple  # (p, q, r, s)
    inverse: tuple
    shifts: tuple
    others: tuple  # per equation, ((t, dx, dy), ...)


@lru_cache(maxsize=64)
def _candidate_cells(exponents: tuple, bound: int) -> tuple:
    """(supports, cells, epsilon) of the 2-D exponents, in term order: the
    terms of each equation's support (a_tj != 0), every pair of edges whose
    |det B| is at most the bound (a mixed cell's volume never exceeds the
    mixed volume, so a larger one cannot be a cell, and its shifts are
    never built), and the fixed generic perturbation of each lifted point,
    pseudo-random values of about 1e-3 per (term, equation). The lifting
    -log|a_tj c_t| already satisfies the integer relations of the
    exponents, so a perturbation linear in (t, j) would tie."""
    supports = tuple(tuple(t for t, a in enumerate(exponents) if a[j]) for j in range(2))

    def others(support, edge):
        base = exponents[edge[0]]
        return tuple((t, exponents[t][0] - base[0], exponents[t][1] - base[1])
                     for t in support if t not in edge)

    cells = []
    for p, q in itertools.combinations(supports[0], 2):
        for r, s in itertools.combinations(supports[1], 2):
            B = [[x - y for x, y in zip(exponents[p], exponents[q])],
                 [x - y for x, y in zip(exponents[r], exponents[s])]]
            if 0 < abs(B[0][0] * B[1][1] - B[0][1] * B[1][0]) <= bound:
                cells.append(Cell((p, q, r, s), _inverse(B), _shifts(hermite_normal_form(B)[0]),
                                  (others(supports[0], (p, q)), others(supports[1], (r, s)))))
    rng = random.Random(1995)
    epsilon = tuple(tuple(rng.uniform(5e-4, 1.5e-3) for _ in range(2)) for _ in exponents)
    return supports, tuple(cells), epsilon


def _polyhedral_starts(pairs: Sequence, bound: int) -> Optional[list]:
    """One start per root of the 2-D log-gradient system of the (exponent,
    coefficient) pairs, from its fine mixed cells (Huber, Sturmfels, Math.
    Comp. 64 (1995)); None when their volumes do not sum to the bound.

    Term t of equation j, coefficient C_tj = a_tj c_t, is lifted to
    omega_tj = -log|C_tj| + epsilon_tj. A candidate cell is mixed when the
    alpha solving B alpha = (omega_q1 - omega_p1, omega_s2 - omega_r2) puts
    every other lifted point of both supports strictly above it: at
    Re w = -alpha its two terms dominate each equation. Its binomial system
    C_p z^a_p + C_q z^a_q = 0, C_r z^a_r + C_s z^a_s = 0 gives the starts
    w = B^-1 (log(-C_q/C_p), log(-C_s/C_r)) + 2 pi i theta, one per phase
    shift theta of the cell."""
    exponents = tuple(a for a, _ in pairs)
    supports, cells, epsilon = _candidate_cells(exponents, bound)
    C = [[a[j] * c for a, c in pairs] for j in range(2)]
    omega = [[0.0] * len(pairs), [0.0] * len(pairs)]
    for j, support in enumerate(supports):
        for t in support:
            if not C[j][t]:
                return None
            omega[j][t] = epsilon[t][j] - math.log(abs(C[j][t]))
    starts = []
    volume = 0
    for cell in cells:
        p, q, r, s = cell.terms
        (i11, i12), (i21, i22) = cell.inverse
        d1, d2 = omega[0][q] - omega[0][p], omega[1][s] - omega[1][r]
        x, y = i11 * d1 + i12 * d2, i21 * d1 + i22 * d2  # alpha
        if not (_above(omega[0], p, cell.others[0], x, y)
                and _above(omega[1], r, cell.others[1], x, y)):
            continue
        volume += len(cell.shifts)
        b1, b2 = cmath.log(-C[0][q] / C[0][p]), cmath.log(-C[1][s] / C[1][r])
        w1, w2 = i11 * b1 + i12 * b2, i21 * b1 + i22 * b2
        starts.extend((w1 + 1j * u, w2 + 1j * v) for u, v in cell.shifts)
    return starts if volume == bound else None


def _above(omega: list, base: int, others: tuple, x: float, y: float) -> bool:
    """Whether every other lifted point of an equation lies strictly above
    the plane through its cell edge of slope alpha = (x, y)."""
    floor = omega[base]
    for t, dx, dy in others:
        if omega[t] + dx * x + dy * y <= floor:
            return False
    return True


class Terms(NamedTuple):
    """W's float terms as ``candidate`` takes them: the exponents a by
    coordinate (columns[j] holds each term's a_j), their chart images
    b = M a, the coefficients c, and the rows of M^T that map a chart log
    point back to log z (None when the chart is the identity)."""

    columns: tuple
    images: tuple
    coefficients: tuple
    back: Optional[tuple]


def compile_terms(pairs: Sequence, images: Optional[tuple] = None,
                  chart: Optional[tuple] = None) -> Terms:
    """Terms from the (exponent, coefficient) pairs of numeric_terms, with
    the chart images of their exponents (the exponents themselves by
    default) and the chart rows M (None for the identity)."""
    exponents = tuple(a for a, _ in pairs)
    return Terms(tuple(zip(*exponents)), images or exponents, tuple(c for _, c in pairs),
                 None if chart is None else tuple(zip(*chart)))


class Candidate(NamedTuple):
    """W at one chart log point: z there, W's value, its log-gradient in
    z and the hypot of that, and the term values it came from."""

    lift: tuple
    z: tuple
    value: complex
    gradient: tuple
    residual: float
    term_values: list


def candidate(terms: Terms, lift: tuple) -> Optional[Candidate]:
    """W at the chart log point lift, in one pass over its terms: the term
    values m = c exp(<b, lift>), W = sum m and the log-gradient sum a m in
    z, exact term-wise differentiation; z = exp(M^T lift). None when z or
    a term leaves the float range or z lands on an axis, as ``_newton``
    drops non-finite iterates."""
    try:
        m = [c * cmath.exp(sum(map(mul, b, lift)))
             for b, c in zip(terms.images, terms.coefficients)]
        z = tuple(map(cmath.exp, lift if terms.back is None else
                      [sum(map(mul, row, lift)) for row in terms.back]))
    except OverflowError:
        return None
    g = tuple(sum(map(mul, column, m)) for column in terms.columns)
    value = sum(m)
    residual = math.hypot(*(v.real for v in g), *(v.imag for v in g))
    if not (all(z) and math.isfinite(residual) and cmath.isfinite(value)):
        return None
    return Candidate(lift, z, value, g, residual, m)


def _verified(terms: Terms, lift: tuple, tol: float) -> Optional[Candidate]:
    """The candidate at the chart log point lift. One above tol is polished
    by Newton on W in the chart, twice at most, while its residual falls: a
    factor root admitted at the factor's own tol can miss W's by the scale
    of u and of the chart."""
    point = candidate(terms, lift)
    for _ in range(2):
        if point is None or point.residual <= tol:
            break
        # the log-gradient in the chart is sum b m, M times the one in z
        step = _linear_solve(_newton_rows(terms.images, point.term_values))
        polished = None if step is None else candidate(
            terms, tuple(x + s for x, s in zip(point.lift, step)))
        if polished is None or not polished.residual < point.residual:
            break
        point = polished
    return point


def _newton_rows(exponents: Sequence, m: Sequence) -> list:
    """The Newton system [J | -g] of the log-gradient g = sum a m of the
    term values m at the exponents a, and its Jacobian J = sum a a^T m,
    as augmented rows."""
    n = len(exponents[0])
    terms = [(a, v) for a, v in zip(exponents, m) if any(a)]
    return [[sum(a[j] * a[k] * v for a, v in terms) for k in range(n)]
            + [-sum(a[j] * v for a, v in terms)] for j in range(n)]


def _linear_solve(rows: list) -> Optional[list]:
    """The solution of the augmented rows [A | b], by Gaussian elimination
    with partial pivoting in place; None when A is singular."""
    n = len(rows)
    for col in range(n):
        pivot = max(range(col, n), key=lambda i: abs(rows[i][col]))
        if rows[pivot][col] == 0:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for i in range(col + 1, n):
            f = rows[i][col] / rows[col][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    x = [0j] * n
    for j in range(n - 1, -1, -1):
        x[j] = (rows[j][n] - sum(rows[j][k] * x[k] for k in range(j + 1, n))) / rows[j][j]
    return x


def default_moduli(coefficients, n: int) -> tuple:
    """The seed moduli when no polytope scales are supplied: for every
    coordinate the geometric ladder (1/b, 1, b) around the coefficient
    balance point, b the (n + 1)-th root of the spread of the nonzero
    |c|, at least e."""
    mags = [abs(v) for v in coefficients if v]
    spread = float(max(mags) / min(mags)) if mags else 1.0
    base = max(spread, math.e) ** (1.0 / max(n + 1, 2))
    ladder = (1.0 / base, 1.0, base)
    return tuple(ladder for _ in range(n))


def start_grid_size(moduli, phases: int) -> int:
    """The number of starts in the full grid over the seed moduli, phases
    per modulus. The grid's start order needs its float share, so a count a
    float cannot hold is SchemaError."""
    grid = math.prod(len(coord) * phases for coord in moduli)
    try:
        float(grid)
    except OverflowError as exc:
        raise SchemaError("the start grid has more points than a float can hold; "
                          "lower the phases per coordinate") from exc
    return grid


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # start-order stride, as a share of the grid


def _stride(grid: int) -> int:
    """The integer nearest 0.618 * grid, raised to the first one coprime to
    grid, so that k -> k * stride mod grid permutes the grid. The grid fits
    the float range (``start_grid_size``)."""
    stride = max(1, round(_GOLDEN * grid))
    while math.gcd(stride, grid) != 1:
        stride += 1
    return stride


def _grid_starts(moduli, phases: int, first: int, count: int):
    """Starts first .. first + count - 1 of the grid's mixed order, one at a
    time, as log points: start k is grid index k * stride mod grid, read in
    mixed radix with the last coordinate fastest (the digit order of
    itertools.product). Digit d of coordinate j is the seed
    log r + 2 pi i p / phases, modulus outer: r = moduli[j][d // phases]
    and p = d % phases. Each start is built when it is asked for, so the
    grid's size costs no memory."""
    sizes = [len(coord) * phases for coord in moduli]
    grid = math.prod(sizes)
    stride = _stride(grid)
    logs = [[math.log(r) for r in coord] for coord in moduli]
    for k in range(first, first + count):
        index = k * stride % grid
        w = []
        for size, coord in zip(reversed(sizes), reversed(logs)):
            d = index % size
            w.append(complex(coord[d // phases], 2.0 * math.pi * (d % phases) / phases))
            index //= size
        yield tuple(reversed(w))


def newton_band(moduli) -> float:
    """The bound on |Re w| past which a Newton iterate is dropped; it
    follows the seed moduli, so roots far inside the Kahler cone stay
    reachable."""
    return 60.0 + max((abs(math.log(r)) for coord in moduli for r in coord), default=0.0)


# a true Newton root shows both a tiny residual and a vanishing step;
# gradient valleys toward the torus boundary keep O(1) steps and must not
# count as converged
STEP_TOL = 1e-5
# the max-norm a step from a polyhedral start is clipped to, as it starts
# near its root: at 10, two starts reached one root on 25 of 100 seeded dP6
# solves, at 0.5 on 6
_MAX_STEP = 0.5
# the max-norm a step from a grid start is clipped to, as grid seeds can lie
# hundreds of log units from every root in a steep chart: at 0.5, 14 of 35
# fallbacks on P(K_dP6+O) in seeded charts ended short of their bound
_GRID_MAX_STEP = 10.0


def _compile(pairs: Sequence) -> tuple:
    """A system's Newton pass and its nonconstant terms as that pass reads
    them: in two coordinates ``_step_2d`` over (a_1, a_2, a_1^2, a_1 a_2,
    a_2^2, c) per term; else ``_step`` over (exponents, coefficients)."""
    if len(pairs[0][0]) == 2:
        return _step_2d, tuple((a1, a2, a1 * a1, a1 * a2, a2 * a2, c)
                               for (a1, a2), c in pairs if a1 or a2)
    terms = [(a, c) for a, c in pairs if any(a)]
    return _step, (tuple(a for a, _ in terms), tuple(c for _, c in terms))


def _step_2d(system: tuple, w: tuple) -> tuple:
    """One pass over a 2-D system's terms at the log point w: the terms
    m = c exp(<a, w>), the log-gradient g = sum a m and its Jacobian
    J = sum a a^T m in w, and the Newton step J^-1 (-g) in closed form.
    (|g|, step), the step None when J is singular; OverflowError when a
    term leaves the float range."""
    w1, w2 = w
    g1 = g2 = j11 = j12 = j22 = 0j
    for a1, a2, a11, a12, a22, c in system:
        m = c * cmath.exp(a1 * w1 + a2 * w2)
        g1 += a1 * m
        g2 += a2 * m
        j11 += a11 * m
        j12 += a12 * m
        j22 += a22 * m
    det = j11 * j22 - j12 * j12
    step = ((j12 * g2 - j22 * g1) / det, (j12 * g1 - j11 * g2) / det) if det else None
    return math.hypot(g1.real, g1.imag, g2.real, g2.imag), step


def _step(system: tuple, w: tuple) -> tuple:
    """``_step_2d`` in any dimension: one pass for the term values, the
    Newton rows from them (``_newton_rows``) and the step by elimination
    (``_linear_solve``)."""
    exponents, coefficients = system
    m = [c * cmath.exp(sum(map(mul, a, w))) for a, c in zip(exponents, coefficients)]
    rows = _newton_rows(exponents, m)
    residual = math.hypot(*(row[-1].real for row in rows), *(row[-1].imag for row in rows))
    return residual, _linear_solve(rows)


def _newton(system: tuple, w: tuple, options: SolverOptions, band: float,
            clip: float) -> tuple:
    """Damped Newton from the log point w on a system (pass, terms)
    compiled by ``_compile``, each step one pass over the terms. The start
    converges when its residual is at most tol and its last step at most
    STEP_TOL, and is dropped when a value is not finite, when its next
    iterate leaves the band in Re w, or at max_steps. Each step is clipped
    to clip in max-norm. (end, residual): end is the converged iterate or
    None, residual the last finite one (inf when none)."""
    pass_, terms = system
    last = math.inf
    for steps in range(options.max_steps + 1):
        try:
            residual, step = pass_(terms, w)
        except OverflowError:
            break
        if not math.isfinite(residual):
            break
        if residual <= options.tol and last <= STEP_TOL:
            return w, residual
        if steps == options.max_steps or step is None:
            return None, residual
        size = max(map(abs, step))
        if size > clip:
            step = [s * (clip / size) for s in step]
        w = tuple(x + s for x, s in zip(w, step))
        if not all(cmath.isfinite(x) and abs(x.real) < band for x in w):
            return None, residual
        last = math.hypot(*map(abs, step))
    return None, math.inf


def _log_distance(a: tuple, b: tuple) -> float:
    """Distance between log-coordinate points, each phase difference
    wrapped into [-pi, pi)."""
    parts = []
    for x, y in zip(a, b):
        d = x - y
        parts += (d.real, (d.imag + math.pi) % (2.0 * math.pi) - math.pi)
    return math.hypot(*parts)


def _merge(kept: list, ends: Sequence, shifts: tuple, radius: float) -> list:
    """The Newton ends in order, then their images under each nonzero shift
    of G, shift by shift, each kept when it lies farther than radius
    (``_log_distance``) from every point kept before it, so that the first
    wins; those kept are appended to kept, and returned."""
    fresh = []
    for shift in shifts:  # the zero shift first
        for w in ends:
            image = tuple(x + 1j * s for x, s in zip(w, shift))
            if all(_log_distance(image, k) > radius for k in kept):
                kept.append(image)
                fresh.append(image)
    return fresh


def _newton_system(pairs: list, bound: int, shifts: tuple, moduli,
                   options: SolverOptions) -> Found:
    """The roots of one Newton system, sorted by ``_order``. The start
    grid's size is checked against the float range before any start runs.

    A 2-D system runs Newton (``_newton``) from its polyhedral starts
    alone first, at most max_starts of them. Their ends are collected as
    every later start's are: merged with their images under G within the
    dedup radius against the roots kept so far (``_merge``), and each
    survivor admitted by ``candidate``. The starts settle the system when
    the verified roots reach the bound and no two lie within the default
    dedup radius: two starts on one root leave another unreached, whatever
    radius keeps their copies apart. Otherwise Newton continues from the
    start grid (``_grid_starts``), one start at a time on what is left of
    the budget, and `grid_fallbacks` counts the system; so it does when
    the cells' volumes miss the bound and the grid's starts run alone, as
    on a system of any other dimension. A grid start that ends within the
    default dedup radius of a root the polyhedral starts reached, or of
    its image, revisits it and adds nothing, whatever the dedup radius: the
    grid continues from those roots. A grid start's steps are clipped to
    _GRID_MAX_STEP, a polyhedral start's to _MAX_STEP. The run stops at
    the start that settles the system, by the same rule. Raises
    RootBoundExceeded when the verified roots outnumber the bound: the
    dedup radius kept copies of one root apart."""
    n = len(pairs[0][0])
    moduli = moduli or default_moduli([c for _, c in pairs], n)
    size = start_grid_size(moduli, options.phases_per_coord)
    terms = compile_terms(pairs)
    system, band = _compile(pairs), newton_band(moduli)
    kept, points = [], []
    best, refused = math.inf, 0

    def collect(ends: Sequence) -> bool:
        """Whether the system is solved once the ends are admitted: the
        verified roots reach the bound, and no two lie within the default
        dedup radius, as two on one root leave another unreached, whatever
        radius keeps their copies apart."""
        nonlocal best, refused
        for lift in _merge(kept, ends, shifts, options.dedup_radius):
            point = candidate(terms, lift)
            if point is None:
                refused += 1
            elif point.residual <= options.tol:
                points.append(point)
            else:
                best = min(best, point.residual)
        if len(points) > bound:
            raise RootBoundExceeded(
                f"{len(points)} distinct verified critical points exceed the root bound "
                f"{bound}: the dedup radius {options.dedup_radius} keeps copies of one "
                f"root apart")
        return len(points) == bound and all(_log_distance(p.lift, q.lift) > _DEDUP_RADIUS
                                            for i, p in enumerate(points) for q in points[:i])

    starts = (_polyhedral_starts(pairs, bound) if n == 2 else None) or []
    starts = starts[:options.max_starts]
    ends = []
    for w in starts:
        end, residual = _newton(system, w, options, band, _MAX_STEP)
        if end is None:
            best = min(best, residual)
        else:
            ends.append(end)
    converged = len(ends)
    left = 0 if collect(ends) else options.max_starts - len(starts)
    reached = list(kept)  # the starts' roots and their images
    attempted = 0
    for w in _grid_starts(moduli, options.phases_per_coord, 0, min(left, size)):
        attempted += 1
        end, residual = _newton(system, w, options, band, _GRID_MAX_STEP)
        if end is None:
            best = min(best, residual)
            continue
        converged += 1
        if any(_log_distance(end, k) <= _DEDUP_RADIUS for k in reached):
            continue  # a revisit of a root the starts reached adds nothing
        if collect([end]):
            break
    return Found(sorted(points, key=_order), len(starts) + attempted, converged, size, best,
                 len(starts), refused, grid_fallbacks=int(n == 2 and left > 0))


def _factored(structure: Structure, pairs: list, moduli, options: SolverOptions) -> Found:
    """What the solve of W found: each factor's roots in log coordinates,
    with its value there, every combination lifted over the fiber and
    admitted by the residual of W evaluated in the chart. A factor root, or
    a point, whose coordinates or terms leave the float range is refused.
    The points come in the order of their factor roots, the first factor's
    slowest, then the two lifts: a closed-form factor's roots in the order
    of its shifts, a Newton factor's in ``_order``, and of +-u the one
    whose direction rounds lower first."""
    terms = compile_terms(pairs, structure.images, structure.chart)
    coefficient = terms.coefficients
    per_factor = []
    runs = []  # the Found of each Newton factor
    refused = 0
    for factor in structure.factors:
        # a factor is W's terms in its own block of the chart
        own = [(a, coefficient[i]) for i, a in factor.terms]
        if factor.simplex is not None:
            own_terms = compile_terms(own)
            roots = [candidate(own_terms, w) for w in _simplex_roots(factor, [c for _, c in own])]
            per_factor.append([r for r in roots if r is not None])
            refused += len(roots) - len(per_factor[-1])
            continue
        runs.append(_newton_system(own, factor.bound, factor.shifts,
                                   _factor_moduli(structure, factor, moduli), options))
        per_factor.append(runs[-1].points)
    points = []
    best = min([run.best for run in runs], default=math.inf)
    unlifted = 0
    for combo in itertools.product(*per_factor):
        lift = tuple(x for root in combo for x in root.lift)
        lifts = [lift]
        if structure.fiber is not None:
            head, tail = structure.fiber
            p = coefficient[head] + sum(root.value for root in combo)
            if p == 0:
                unlifted += 1
                continue
            log_u = 0.5 * (cmath.log(coefficient[tail]) - cmath.log(p))  # u^2 = c/P(y)
            pair = (log_u, log_u + 1j * math.pi)
            # u before -u when u's direction rounds lower, as in _order, so
            # that the sign of rounding noise in P(y) does not swap them
            d = cmath.exp(1j * log_u.imag)
            if (round(d.real * 1e6), round(d.imag * 1e6)) > (0, 0):
                pair = pair[::-1]
            lifts = [lift + (w,) for w in pair]
        for lift in lifts:
            point = _verified(terms, lift, options.tol)
            if point is None:
                refused += 1
            elif point.residual <= options.tol:
                points.append(point)
            else:
                best = min(best, point.residual)
    return Found(points, sum(run.attempted for run in runs), sum(run.converged for run in runs),
                 sum(run.grid_size for run in runs), best,
                 sum(run.polyhedral for run in runs), refused + sum(run.refused for run in runs),
                 unlifted, sum(run.grid_fallbacks for run in runs))


def solve(poly: LaurentPoly, t: Sequence[float],
          options: Optional[SolverOptions] = None) -> CriticalReport:
    """The critical points of W at q = exp(-t), factor by factor
    (``_factored``), with Newton on the factors that need it: a 2-D one
    from its polyhedral starts, and from the start grid when those do not
    solve it, any other from the start grid alone.

    The points come in the order of their factor roots. Raises
    NoConvergence when no point is verified; its message gives the best
    residual seen, and the roots refused for leaving the float range.
    Raises SchemaError, before any solve, when the bound is 0 or W has no
    nonconstant term, when a factor of W has no isolated root
    (``_factorization``), when the option moduli are not one nonempty list
    of positive finite floats per coordinate, or when a Newton factor's
    grid has more starts than a float can hold; and RootBoundExceeded when
    a Newton factor verifies more roots than its bound."""
    options = options or SolverOptions()
    structure = _exponent_structure(tuple(sorted(poly.terms)))
    if structure.refusal:
        raise SchemaError(structure.refusal)
    n = poly.zvars
    pairs = numeric_terms(poly, t)
    moduli = options.moduli_per_coord
    if moduli and (len(moduli) != n or not all(
            coord and all(isinstance(r, (int, float)) and 0.0 < r < math.inf for r in coord)
            for coord in moduli)):
        raise SchemaError("need one modulus list per z-coordinate, each a nonempty list "
                          "of positive finite floats")
    return _report(_factored(structure, pairs, moduli, options), structure, options)


def _order(point: Candidate) -> list:
    """The sort key of a Newton system's root: for each coordinate z,
    log|z| and the direction z/|z| in units of 1e-6, rounded, far above
    the rounding noise of a solve, so that the order does not follow that
    noise; the sort is stable, so roots that tie keep the order they were
    found in."""
    key = []
    for v in point.z:
        r = abs(v)
        key += (round(math.log(r) * 1e6), round(v.real / r * 1e6), round(v.imag / r * 1e6))
    return key


def _report(found: Found, structure: Structure, options: SolverOptions) -> CriticalReport:
    """The report of the verified candidates found for W, in their order,
    with the values and residuals their admission computed, and W's
    factors."""
    points = found.points
    if not points:
        detail = (f"; best residual reached {found.best:.3e}"
                  if math.isfinite(found.best) else "")
        if found.grid_size:
            # more starts cannot bring a root back into the float range
            advice = (f"; {found.refused} roots lie beyond the float range" if found.refused
                      else "; try more phases or different moduli")
            raise NoConvergence(f"no critical point found from {found.attempted} "
                                f"starts{detail}{advice}")
        # the solver options cannot move a closed-form point
        if not detail:
            detail = (f"; {found.unlifted} base roots have no lift" if found.unlifted
                      else "; they lie beyond the float range")
        raise NoConvergence(f"no critical point found: no closed-form point passed the "
                            f"tolerance {options.tol:g}{detail}")
    return CriticalReport(
        points=tuple(point.z for point in points),
        values=tuple(point.value for point in points),
        residuals=tuple(point.residual for point in points),
        attempted=found.attempted,
        converged=found.converged,
        deduped=len(points),
        expected=structure.bound,
        orbit_size=len(structure.shifts),
        grid_size=found.grid_size,
        # the polyhedral starts come ahead of the start grid's, so one is
        # left unrun exactly when the grid is cut
        truncated=(found.attempted - found.polyhedral < found.grid_size
                   and len(points) < structure.bound),
        factors=tuple((f.dim, f.bound, "newton" if f.simplex is None else "closed-form")
                      for f in structure.factors),
        unlifted=found.unlifted,
        polyhedral=found.polyhedral,
        grid_fallbacks=found.grid_fallbacks,
        options=options,
    )
