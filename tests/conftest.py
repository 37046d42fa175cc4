"""Shared fixtures and independent oracles for the test suite."""

import functools
import math
import operator
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Optional, Sequence

import pytest

from toricmirror.errors import (
    BadFaceIntersection,
    DependentGenerators,
    DimensionMismatch,
    EmptyInterior,
    IncompleteFan,
    NonPrimitiveRay,
    NonUnimodularCone,
    ToricMirrorError,
)
from toricmirror.fan import Fan, infer_cones_2d, validate_fan
from toricmirror.kahler import KahlerData, checked_q_basis
from toricmirror.lattice import hermite_normal_form, is_primitive, lattice_coordinates, xgcd
from toricmirror.laurent import LaurentPoly, QPoly, evaluate
from toricmirror.linform import LinForm


# --- ready-made fans and Kahler data ---

def projective_line() -> Fan:
    return validate_fan(1, [(1,), (-1,)], [(0,), (1,)])


def projective_plane() -> Fan:
    return validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def p1_times_p1() -> Fan:
    return validate_fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)])


def hirzebruch(a: int) -> Fan:
    """The Hirzebruch surface F_a with rays (1,0), (0,1), (-1,-a), (0,-1)."""
    return validate_fan(2, [(1, 0), (0, 1), (-1, -a), (0, -1)])


# The F2 convention with the zero-section ray listed first and its opposite
# last, matching the moment polytope {x1 >= 0, x2 >= 0, x2 <= t2,
# x1 + 2*x2 <= t1 + 2*t2}.
F2_RAYS = ((0, -1), (1, 0), (-1, -2), (0, 1))
F2_LAMBDAS = ("-t2", "0", "-t1-2*t2", "0")


def hirzebruch2() -> Fan:
    return validate_fan(2, F2_RAYS)


def hirzebruch2_kahler() -> KahlerData:
    """F2 with its standard symbolic Kahler data; q1 tracks the base class,
    q2 the fiber class."""
    return KahlerData(hirzebruch2(), F2_LAMBDAS)


@pytest.fixture
def p1():
    return projective_line()


@pytest.fixture
def p2():
    return projective_plane()


@pytest.fixture
def p1xp1():
    return p1_times_p1()


@pytest.fixture
def f2():
    return hirzebruch2()


@pytest.fixture
def f2_kahler():
    return hirzebruch2_kahler()


@pytest.fixture
def f3():
    return validate_fan(2, [(1, 0), (0, 1), (-1, -3), (0, -1)])


def laurent(terms: dict) -> LaurentPoly:
    """The LaurentPoly {z-exponent: {q-exponent: coefficient}}, built with
    the constructors; the numbers of variables are read off the first term."""
    zexp, coeff = next(iter(terms.items()))
    qvars = len(next(iter(coeff)))
    return LaurentPoly(len(zexp), qvars, {z: QPoly(qvars, c) for z, c in terms.items()})


def moment_vertices(kahler, params) -> list:
    """The moment polytope's vertices, one per maximal cone, sorted, as
    Fractions: the library's scaled vertices divided by their denominator."""
    denom, points = kahler.scaled_vertices(params)
    return sorted(tuple(Fraction(a, denom) for a in x) for x in points)


# --- independent oracles ---

def per_cone_hnf_fan(dimension, rays, maximal_cones=None) -> Fan:
    """validate_fan as it was before it walked the walls: one Hermite
    normal form per maximal cone, in sorted order, each cone refused as
    soon as it is not unimodular; then every pair of cones on a common
    facet compared by their inward normals there (equal normals: the same
    side), a generic point counted, and the facets counted. The same
    refusals, in the same order, with the same messages."""
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

    by_facet = {}
    for cone, dual in dual_bases.items():
        for k, normal in enumerate(dual):
            by_facet.setdefault(cone[:k] + cone[k + 1:], []).append((normal, cone))
    for facet, group in by_facet.items():
        for (normal_a, ca), (normal_b, cb) in combinations(group, 2):
            if normal_a == normal_b:
                raise BadFaceIntersection(
                    f"cones {ca} and {cb} lie on the same side of their common facet {facet}")
    big = 2 + max(abs(x) for dual in dual_bases.values() for row in dual for x in row)
    point = [big ** i for i in range(n)]
    inside = [cone for cone, dual in dual_bases.items()
              if all(sum(a * x for a, x in zip(row, point)) > 0 for row in dual)]
    if len(inside) > 1:
        raise BadFaceIntersection(
            f"maximal cones {inside} overlap: all contain the point {tuple(point)}")
    bad = {f: len(g) for f, g in by_facet.items() if len(g) != 2}
    if bad:
        raise IncompleteFan(
            f"facets not shared by exactly two maximal cones: {sorted(bad.items())}")
    return Fan(dimension=n, rays=rays, maximal_cones=tuple(cones), dual_bases=dual_bases)


def validation_outcome(validate, *args):
    """What a fan validator makes of the data: ("fan", the Fan, its dual
    bases as a list in dict order), or ("refused", error type, message)."""
    try:
        fan = validate(*args)
    except ToricMirrorError as exc:
        return ("refused", type(exc), str(exc))
    return ("fan", fan, list(fan.dual_bases.items()))


@functools.lru_cache(maxsize=None)
def _cone_index_sets(fan: Fan) -> tuple:
    return tuple(frozenset(c) for c in fan.maximal_cones)


def spans_cone(fan: Fan, subset) -> bool:
    """A ray subset spans a cone of the fan iff it sits inside some maximal
    cone (faces of simplicial cones are generator subsets)."""
    s = frozenset(subset)
    return any(s <= c for c in _cone_index_sets(fan))


def brute_force_primitive_collections(fan: Fan):
    """Direct definition over every subset: spans no cone while every
    maximal proper subset does. Kept dumb on purpose."""
    out = []
    d = fan.nrays
    for size in range(1, d + 1):
        for subset in combinations(range(d), size):
            if spans_cone(fan, subset):
                continue
            proper = [subset[:i] + subset[i + 1:] for i in range(size)]
            if all(spans_cone(fan, p) for p in proper):
                out.append(subset)
    return sorted(out, key=lambda s: (len(s), s))


def accepts_q_basis(fan: Fan, classes) -> bool:
    """Whether ``checked_q_basis``, the library's one validator of a q-basis
    from outside, takes the classes."""
    try:
        checked_q_basis(fan, classes)
    except ValueError:
        return False
    return True


def lattice_q_weight(kahler: KahlerData, alpha) -> Optional[tuple]:
    """The q-exponents of a vector by the map ``KahlerData.q_weight`` used
    to keep: integer coordinates in the q-basis by back-substitution
    against its Hermite normal form, None for a vector of the wrong length
    or outside the basis span."""
    alpha = tuple(alpha)
    if len(alpha) != kahler.fan.nrays:
        return None
    return lattice_coordinates(kahler.q_basis)(alpha)


def hnf_homology_basis_test(fan: Fan, classes) -> bool:
    """The library's former basis test: the classes' Hermite normal form
    equals the canonical kernel basis, since the normal form is unique for
    a lattice (zero rows kept, so a wrong count never matches)."""
    normal_form, _ = hermite_normal_form(classes)
    return [tuple(r) for r in normal_form] == list(fan.homology_basis)


def wall_relation_classes(fan: Fan) -> tuple:
    """The wall curve classes from the wall relations, solved over
    Fractions: for two maximal cones sharing a facet, v' + v_k = sum of c_j
    v_j over the facet's rays, where v' and v_k are the rays the two cones
    do not share; the class is 1 on v' and v_k and -c_j on the facet's rays.
    Sorted, without repeats, from the rays and cones alone."""
    classes = set()
    for a, b in combinations(fan.maximal_cones, 2):
        facet = sorted(set(a) & set(b))
        if len(facet) != fan.dimension - 1:
            continue
        ends = sorted(set(a) ^ set(b))
        cols = [[fan.rays[j][i] for j in facet] for i in range(fan.dimension)]
        coeffs = solve_unique(cols, [sum(fan.rays[j][i] for j in ends)
                                     for i in range(fan.dimension)])
        coords = [0] * fan.nrays
        for j in ends:
            coords[j] = 1
        for j, c in zip(facet, coeffs):
            if c.denominator != 1:
                raise ValueError(f"wall {facet} has a non-integral relation")
            coords[j] = -int(c)
        classes.add(tuple(coords))
    return tuple(sorted(classes))


def effective_classes_up_to(fan: Fan, cutoff: int):
    """All nonnegative integer combinations of primitive-relation classes with
    multiplicity sum at most *cutoff*, deduplicated and sorted: every
    relation enters, whatever its degree."""
    return nonnegative_combinations([rel.coords for rel in fan.primitive_relations], cutoff)


def nonnegative_combinations(gens, cutoff: int):
    """All nonnegative integer combinations of the vectors *gens* with
    multiplicity sum at most *cutoff*, deduplicated and sorted."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    gens = list(gens)
    d = len(gens[0])
    classes = set()

    def rec(idx, budget, acc):
        if idx == len(gens):
            classes.add(tuple(acc))
            return
        rec(idx + 1, budget, acc)
        g = gens[idx]
        cur = list(acc)
        for m in range(1, budget + 1):
            cur = [a + b for a, b in zip(cur, g)]
            rec(idx + 1, budget - m, cur)

    rec(0, cutoff, [0] * d)
    return sorted(classes)


def set_degree_zero_sums(fan: Fan, cutoff: int, kahler: KahlerData) -> list:
    """The degree-0 relation sums the potential enumerates, by sets of
    tuples: every sum of at most *cutoff* degree-0 relations, each followed
    by its q-exponents, deduplicated and sorted."""
    gens = [rel.coords + kahler.q_weight(rel.coords)
            for rel in fan.primitive_relations if rel.degree == 0]
    level = found = {(0,) * (fan.nrays + kahler.rank)}
    for _ in range(cutoff):
        level = {tuple(map(operator.add, s, g)) for s in level for g in gens}
        found |= level
    return sorted(found)


def push_h2(fan_y: Fan, gamma) -> tuple:
    """Image of a base curve class under the zero-section embedding, in the
    ray coordinates of P(K_Y + O_Y): (-sum(gamma), gamma..., 0)."""
    gamma = tuple(gamma)
    if not fan_y.is_homology_class(gamma):
        raise ValueError(f"{gamma} is not a curve class of the base fan")
    return (-sum(gamma),) + gamma + (0,)


def linear_combination(pairs) -> LinForm:
    """sum(c * f) over the (c, f) pairs, each f a LinForm or an exact
    number, as a LinForm: the tests' ring arithmetic, which LinForm, a
    parsed record, does not have."""
    const, coeffs = Fraction(0), {}
    for c, f in pairs:
        f = f if isinstance(f, LinForm) else LinForm(f)
        const += c * f.const
        for name, x in f.coeffs.items():
            coeffs[name] = coeffs.get(name, 0) + c * x
    return LinForm(const, coeffs)


def support_value(kahler: KahlerData, i: int, x) -> LinForm:
    """l_i(x) = <x, v_i> - lambda_i; x entries may be numbers or LinForms."""
    return linear_combination([*zip(kahler.fan.rays[i], x), (-1, kahler.lambdas[i])])


def disk_area(kahler: KahlerData, beta, x) -> LinForm:
    """Area sum(b_i * l_i(x)) of the disk class sum(b_i beta_i) over the
    fiber at x (Cho-Oh)."""
    return linear_combination((b, support_value(kahler, i, x))
                              for i, b in enumerate(beta) if b)


def sphere_area(kahler: KahlerData, alpha) -> LinForm:
    """Area -sum(a_i lambda_i) of a curve class, x-independent because the
    class pairs to zero with the ray map; ValueError off the curve classes."""
    if not kahler.fan.is_homology_class(alpha):
        raise ValueError(f"{tuple(alpha)} is not a curve class of the fan")
    return linear_combination((-a, lam) for a, lam in zip(alpha, kahler.lambdas) if a)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>\d+(?:\.\d+)?(?:/\d+)?)"
    r"|(?P<op>[+\-*]))"
)


def tokenizing_parse_linear_form(text: str, allowed_names=None) -> LinForm:
    """The library's former linear-form parser: a tokenizer, then a state
    machine over the tokens. Decimal literals go through a float; trailing
    whitespace is refused; a zero denominator raises ZeroDivisionError."""
    allowed = set(allowed_names) if allowed_names is not None else None
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse linear form {text!r} at position {pos}")
        pos = m.end()
        if m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("number"):
            num = m.group("number")
            tokens.append(("num", Fraction(num) if "." not in num
                           else Fraction(repr(float(num)))))
        else:
            tokens.append(("op", m.group("op")))
    if not tokens:
        raise ValueError("empty linear form")

    # summed in its own dict: a name whose sum reaches 0 leaves it and, if
    # it returns, goes at the end
    const, coeffs = Fraction(0), {}

    def add(name, coeff):
        if total := coeffs.get(name, 0) + coeff:
            coeffs[name] = total
        else:
            coeffs.pop(name, None)

    i = 0
    first = True
    while i < len(tokens):
        sign = Fraction(1)
        kind, val = tokens[i]
        if kind == "op":
            if val == "-":
                sign = Fraction(-1)
            elif val != "+":
                raise ValueError(f"misplaced '*' in {text!r}")
            i += 1
        elif not first:
            raise ValueError(f"missing operator before {val!r} in {text!r}")
        if i >= len(tokens):
            raise ValueError(f"dangling operator in {text!r}")
        kind, val = tokens[i]
        if kind == "num":
            coeff = val
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "name":
                    raise ValueError(f"expected a name after '*' in {text!r}")
                name = tokens[i][1]
                i += 1
                if allowed is not None and name not in allowed:
                    raise ValueError(f"unknown parameter {name!r} in {text!r}")
                add(name, sign * coeff)
            else:
                const += sign * coeff
        elif kind == "name":
            if allowed is not None and val not in allowed:
                raise ValueError(f"unknown parameter {val!r} in {text!r}")
            add(val, sign)
            i += 1
        else:
            raise ValueError(f"unexpected operator in {text!r}")
        first = False
    return LinForm(const, coeffs)


# the library parser's term grammar, with its ASCII digits and whitespace
_FRACTION_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<number>\d+(?:\.\d+|/\d+)?)"
    r"(?:\s*\*\s*(?P<scaled>[A-Za-z_][A-Za-z_0-9]*))?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*))\s*",
    re.ASCII,
)


def fraction_parse_linear_form(text: str, allowed_names=None) -> LinForm:
    """The library's former parser of linear-form text: the same grammar
    and messages, with every number read by ``Fraction`` and every sum a
    Fraction."""
    allowed = set(allowed_names) if allowed_names is not None else None
    const, coeffs = Fraction(0), {}
    pos = 0
    while True:
        m = _FRACTION_TERM_RE.match(text, pos)
        if m is None or (pos and m["sign"] is None):
            raise ValueError(f"cannot parse linear form {text!r} at position {pos}")
        name = m["scaled"] or m["name"]
        if allowed is not None and name is not None and name not in allowed:
            raise ValueError(f"unknown parameter {name!r} in {text!r}")
        try:
            coeff = Fraction(m["number"] or 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
        if m["sign"] == "-":
            coeff = -coeff
        if name is None:
            const += coeff
        elif total := coeffs.get(name, 0) + coeff:
            coeffs[name] = total
        else:
            coeffs.pop(name, None)
        pos = m.end()
        if pos == len(text):
            return LinForm(const, coeffs)


def generator_qpoly_text(poly: QPoly) -> str:
    """The library's former ``QPoly.__str__``, joining generators and
    growing the text term by term."""
    if not poly.terms:
        return "0"
    parts = []
    for exps, coeff in poly.sorted_terms():
        mono = "*".join(
            f"q{j + 1}" if e == 1 else f"q{j + 1}^{e}"
            for j, e in enumerate(exps) if e
        )
        if not mono:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(mono)
        elif coeff == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{coeff}*{mono}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def generator_laurent_text(poly: LaurentPoly) -> str:
    """The library's former ``LaurentPoly.__str__``, joining generators,
    with each coefficient rendered by :func:`generator_qpoly_text`."""
    if not poly.terms:
        return "0"
    parts = []
    for zexp, coeff in poly.sorted_terms():
        num = "*".join(
            f"z{j + 1}" if e == 1 else f"z{j + 1}^{e}"
            for j, e in enumerate(zexp) if e > 0
        )
        den = "*".join(
            f"z{j + 1}" if e == -1 else f"z{j + 1}^{-e}"
            for j, e in enumerate(zexp) if e < 0
        )
        multi = len(coeff.terms) > 1
        cstr = generator_qpoly_text(coeff)
        if not num and not den:
            body = f"({cstr})" if multi else cstr
        else:
            if cstr == "1" and num:
                body = num
            else:
                cpart = f"({cstr})" if multi else cstr
                body = f"{cpart}*{num}" if num else cpart
            if den:
                den_str = den if "*" not in den and "^" not in den else f"({den})"
                body = f"{body}/{den_str}"
        parts.append(body)
    return " + ".join(parts)


_BASE_BUILDERS = [
    lambda: [(1, 0), (0, 1), (-1, -1)],          # plane
    lambda: [(1, 0), (-1, 0), (0, 1), (0, -1)],  # product of lines
    lambda: [(1, 0), (0, 1), (-1, 0), (0, -1)],  # same, listed differently
    lambda: [(1, 0), (0, 1), (-1, -1), (0, -1)],  # one blowup
    lambda: [(1, 0), (0, 1), (-1, -2), (0, -1)],  # Hirzebruch a=2
    lambda: [(1, 0), (0, 1), (-1, -3), (0, -1)],  # Hirzebruch a=3
]


def random_smooth_2d_fan(rng: random.Random, max_rays: int = 10) -> Fan:
    """Random smooth complete 2D fan: a base surface refined by random
    stellar subdivisions (insert the sum of an adjacent unimodular pair,
    which preserves smoothness and completeness)."""
    rays = list(rng.choice(_BASE_BUILDERS)())
    # keep rays in ccw order during subdivision

    def ccw_sorted(vectors):
        def key(v):
            return math.atan2(v[1], v[0]) % (2 * math.pi)
        return sorted(vectors, key=key)

    rays = ccw_sorted(rays)
    target = rng.randint(len(rays), max_rays)
    while len(rays) < target:
        k = rng.randrange(len(rays))
        u = rays[k]
        w = rays[(k + 1) % len(rays)]
        # a wrap-around insert lands at the end, which is still ccw order
        rays.insert(k + 1, (u[0] + w[0], u[1] + w[1]))
    rng.shuffle(rays)
    return validate_fan(2, rays)


def random_unimodular(rng, size):
    """Product of random elementary integer row operations."""
    mat = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if i != j and rng.random() < 0.7:
            k = rng.randint(-3, 3)
            mat[i] = [a + k * b for a, b in zip(mat[i], mat[j])]
        elif i != j:
            mat[i], mat[j] = mat[j], mat[i]
        else:
            mat[i] = [-a for a in mat[i]]
    return mat


def _rref(rows):
    """Reduced row echelon form over Fractions: (rows, pivot columns)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rank(mat) -> int:
    return len(_rref(mat)[1])


def solve_unique(mat, rhs):
    """Solve mat @ x = rhs when the columns are independent.

    Returns the unique solution as Fractions, or None when the system is
    inconsistent. Raises DependentGenerators when it is consistent and the
    columns are dependent. The reference for the library's integer solves.
    """
    if len(mat) != len(rhs):
        raise ValueError("shape mismatch")
    ncols = len(mat[0]) if mat else 0
    red, pivots = _rref([list(r) + [v] for r, v in zip(mat, rhs)])
    if ncols in pivots:
        return None  # pivot in the augmented column: inconsistent
    if len(pivots) < ncols:
        raise DependentGenerators("columns are linearly dependent")
    return tuple(row[-1] for row in red[:ncols])


def matrix_det(mat) -> Fraction:
    """Exact determinant by elimination on Fractions."""
    rows = [[Fraction(x) for x in r] for r in mat]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def cone_coefficients(point, generators):
    """Coefficients c >= 0 with point = sum(c_i * generators_i), if they exist.

    The generators must be linearly independent (DependentGenerators
    otherwise). Returns None when the point is outside the cone they span.
    """
    gens = [list(g) for g in generators]
    pt = [Fraction(x) for x in point]
    if not gens:
        return () if all(x == 0 for x in pt) else None
    n = len(pt)
    if any(len(g) != n for g in gens):
        raise DimensionMismatch("generator length differs from point length")
    if rank(gens) < len(gens):
        raise DependentGenerators("cone generators are linearly dependent")
    columns = [[gens[k][i] for k in range(len(gens))] for i in range(n)]
    sol = solve_unique(columns, pt)
    if sol is None:
        return None
    if any(c < 0 for c in sol):
        return None
    return sol


def _extreme_rays(rows):
    """Primitive extreme rays of the pointed cone {x : rows @ x >= 0}. Each
    has n-1 independent active constraints, so (n-1)-subsets are complete."""
    n = len(rows[0])
    found = set()
    for subset in combinations(rows, n - 1):
        red, pivots = _rref(subset)
        free = [c for c in range(n) if c not in pivots]
        if len(free) != 1:
            continue
        vec = [Fraction(0)] * n
        vec[free[0]] = Fraction(1)
        for row, c in zip(red, pivots):
            vec[c] = -row[free[0]]
        scale = math.lcm(*(x.denominator for x in vec))
        ints = [int(x * scale) for x in vec]
        g = math.gcd(*ints)
        w = tuple(x // g for x in ints)
        for cand in (w, tuple(-x for x in w)):
            if all(sum(a * x for a, x in zip(row, cand)) >= 0 for row in rows):
                found.add(cand)
                break
    return found


def pairwise_overlap_oracle(rays, cones):
    """Pairwise common-face check on unimodular cones: the first pair of
    cones whose intersection has an extreme ray outside their shared rays,
    as (cone_a, cone_b, direction), or None when every pair meets in a
    common face. Exhaustive and slow (every pair, every (n-1)-subset of
    the two cones' 2n walls); the library checks the same thing locally."""
    rays = [tuple(r) for r in rays]
    n = len(rays[0])
    walls = {}
    for cone in cones:
        cols = [[rays[j][i] for j in cone] + [int(i == k) for k in range(n)]
                for i in range(n)]
        walls[cone] = [row[n:] for row in _rref(cols)[0]]  # inverse matrix
    for ca, cb in combinations(cones, 2):
        shared = {rays[i] for i in set(ca) & set(cb)}
        for ray in sorted(_extreme_rays(walls[ca] + walls[cb])):
            if ray not in shared:
                return ca, cb, ray
    return None


def elementary_divisors(mat) -> list:
    """Nonzero diagonal of the Smith normal form, as positive ints. All ones
    means the rows span a saturated lattice (a direct summand)."""
    A = [list(r) for r in mat]
    ncols = len(A[0]) if A else 0
    m = len(A)
    divisors = []
    t = 0
    while t < min(m, ncols):
        # locate a nonzero entry of least magnitude in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, ncols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
        while True:
            for i in range(t + 1, m):
                if A[i][t] == 0:
                    continue
                a, b = A[t][t], A[i][t]
                g, s, u = xgcd(a, b)
                p, q = a // g, b // g
                A[t], A[i] = (
                    [s * x + u * y for x, y in zip(A[t], A[i])],
                    [-q * x + p * y for x, y in zip(A[t], A[i])],
                )
            row_was_clear = True
            for j in range(t + 1, ncols):
                if A[t][j] == 0:
                    continue
                row_was_clear = False
                a, b = A[t][t], A[t][j]
                g, s, u = xgcd(a, b)
                p, q = a // g, b // g
                for row in A:
                    row[t], row[j] = s * row[t] + u * row[j], -q * row[t] + p * row[j]
            if row_was_clear and all(A[i][t] == 0 for i in range(t + 1, m)):
                # enforce divisibility of the remaining block by the pivot
                offender = None
                piv = A[t][t]
                for i in range(t + 1, m):
                    for j in range(t + 1, ncols):
                        if A[i][j] % piv != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                A[t] = [x + y for x, y in zip(A[t], A[offender])]
        divisors.append(abs(A[t][t]))
        t += 1
    return divisors


_SEARCH_MAX_DIM = 4
_SEARCH_MAX_RAYS = 16


def unimodular_map_search(rays_a, cones_a, rays_b, cones_b) -> Optional[tuple]:
    """Search for T in GL(n, Z) carrying fan A onto fan B.

    T must map the ray set of A bijectively onto the ray set of B and induce
    a bijection of maximal cones. The search fixes the first maximal cone of
    A (a unimodular basis) and tries every ordered cone of B as its image,
    so it is exhaustive but factorial; inputs are capped at dimension 4 and
    16 rays. Returns T as a tuple of rows, or None.
    """
    rays_a = [tuple(int(x) for x in r) for r in rays_a]
    rays_b = [tuple(int(x) for x in r) for r in rays_b]
    if not rays_a or not rays_b:
        return None
    n = len(rays_a[0])
    if any(len(r) != n for r in rays_a):
        raise DimensionMismatch("rays of fan A have mixed lengths")
    if any(len(r) != n for r in rays_b):
        raise DimensionMismatch("fans live in different dimensions")
    if n > _SEARCH_MAX_DIM or max(len(rays_a), len(rays_b)) > _SEARCH_MAX_RAYS:
        raise ValueError("unimodular search is capped at dimension 4 and 16 rays")
    if len(rays_a) != len(rays_b) or len(cones_a) != len(cones_b):
        return None

    cones_a = sorted(tuple(sorted(c)) for c in cones_a)
    cones_b = sorted(tuple(sorted(c)) for c in cones_b)
    index_b = {r: i for i, r in enumerate(rays_b)}
    cone_set_b = {frozenset(c) for c in cones_b}

    base = cones_a[0]
    col_a = [[rays_a[j][i] for j in base] for i in range(n)]
    H, inv_a = hermite_normal_form(col_a)
    if math.prod(H[i][i] for i in range(n)) != 1:
        raise ValueError(f"first maximal cone {base} of fan A is not unimodular")

    for cone_b in cones_b:
        for perm in permutations(cone_b):
            col_b = [[rays_b[j][i] for j in perm] for i in range(n)]
            T = [[sum(col_b[i][k] * inv_a[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
            image = []
            ok = True
            for r in rays_a:
                img = tuple(sum(T[i][j] * r[j] for j in range(n)) for i in range(n))
                idx = index_b.get(img)
                if idx is None:
                    ok = False
                    break
                image.append(idx)
            if not ok or len(set(image)) != len(image):
                continue
            mapped = {frozenset(image[j] for j in cone) for cone in cones_a}
            if mapped != cone_set_b:
                continue
            return tuple(tuple(row) for row in T)
    return None


def assert_splitting_chart(fan: Fan, dec) -> None:
    """The recognized chart is unimodular and sends ray 0, the middle rays
    and the last ray to e_n, (w_i, 1) with w_i the base rays, and -e_n."""
    e_n = (0,) * (fan.dimension - 1) + (1,)
    assert abs(matrix_det(dec.chart)) == 1
    image = [tuple(sum(a * x for a, x in zip(row, ray)) for row in dec.chart) for ray in fan.rays]
    assert image == [e_n] + [w + (1,) for w in dec.base.rays] + [tuple(-x for x in e_n)]


# --- moment-polytope oracles: Fourier-Motzkin and the active-set scan ---
#
# Exact over Fractions on systems <a, x> >= b. The library reads the same
# answers off the fan's positive circuits and dual bases.

Ineq = tuple  # (coeffs tuple[Fraction], rhs Fraction) meaning coeffs . x >= rhs


def _normalize(coeffs, rhs) -> Ineq:
    lead = next((c for c in coeffs if c != 0), None)
    if lead is None:
        return tuple(coeffs), rhs
    scale = 1 / abs(lead)
    return tuple(c * scale for c in coeffs), rhs * scale


def _combine(p: Ineq, q: Ineq, j: int) -> Ineq:
    """Eliminate variable j from p (positive coeff) and q (negative coeff)."""
    cp, bp = p
    cq, bq = q
    wp, wq = -cq[j], cp[j]  # both positive
    coeffs = tuple(wp * a + wq * b for a, b in zip(cp, cq))
    return coeffs, wp * bp + wq * bq


def fourier_motzkin(ineqs: Sequence[Ineq], eliminate: Sequence[int]):
    """Eliminate the given variables in order.

    Returns (final_ineqs, records) where each record is (var, pos, neg): the
    constraints that bounded the variable below/above at its elimination
    step, kept for back-substitution.
    """
    cur = [_normalize(tuple(Fraction(c) for c in coeffs), Fraction(b))
           for coeffs, b in ineqs]
    records = []
    for j in eliminate:
        pos = [c for c in cur if c[0][j] > 0]
        neg = [c for c in cur if c[0][j] < 0]
        zero = [c for c in cur if c[0][j] == 0]
        records.append((j, pos, neg))
        combined = {_normalize(*_combine(p, q, j)) for p in pos for q in neg}
        cur = list(dict.fromkeys(zero)) + sorted(combined)
    return cur, records


def back_substitute(records, assigned: dict) -> dict:
    """Pick a feasible value for each eliminated variable, innermost first.

    Takes the midpoint of the feasible interval so strictly feasible systems
    stay strictly feasible.
    """
    values = dict(assigned)

    def residual(ineq, j):
        coeffs, rhs = ineq
        rest = sum(c * values[k] for k, c in enumerate(coeffs) if k != j and c != 0)
        return (rhs - rest) / coeffs[j]

    for j, pos, neg in reversed(records):
        lower = [residual(c, j) for c in pos]
        upper = [residual(c, j) for c in neg]
        if lower and upper:
            values[j] = (max(lower) + min(upper)) / 2
        elif lower:
            values[j] = max(lower) + 1
        elif upper:
            values[j] = min(upper) - 1
        else:
            values[j] = Fraction(0)
    return values


def max_min_slack(normals, offsets) -> tuple:
    """Maximize the least slack of {<v_i, x> >= lambda_i}.

    Returns (eps_max, point) where point attains slack eps_max/2 in every
    constraint (a strictly interior point when eps_max > 0), or
    (eps_max, None) when eps_max <= 0. Requires the polytope to be bounded.
    """
    n = len(normals[0])
    ineqs = []
    for v, lam in zip(normals, offsets):
        coeffs = tuple(Fraction(x) for x in v) + (Fraction(-1),)
        ineqs.append((coeffs, Fraction(lam)))
    final, records = fourier_motzkin(ineqs, list(range(n)))
    uppers = []
    for coeffs, rhs in final:
        c = coeffs[n]
        if c > 0:
            continue  # lower bound on eps; eps can always be pushed down
        if c < 0:
            uppers.append(rhs / c)
        elif rhs > 0:
            return Fraction(-1), None  # infeasible constants: empty for all eps
    if not uppers:
        raise ValueError("slack program is unbounded; polytope is unbounded")
    eps_max = min(uppers)
    if eps_max <= 0:
        return eps_max, None
    values = back_substitute(records, {n: eps_max / 2})
    point = tuple(values[j] for j in range(n))
    return eps_max, point


def circuit_scan_verdict(fan, lambdas) -> Optional[str]:
    """The construction verdict on support constants (LinForms) by an
    unconditional scan of the positive circuits: the EmptyInterior message
    when some circuit's sum(y_i * lambda_i), summed as linear forms, is a
    constant >= 0, else None."""
    for circuit in fan.positive_circuits:
        total = linear_combination((y, lam) for y, lam in zip(circuit, lambdas) if y)
        if not total.coeffs and total.const >= 0:
            return "moment polytope has empty interior"
    return None


def polytope_vertices(normals, offsets) -> list:
    """All vertices of {x : <v_i, x> >= lambda_i} by active-set enumeration.

    Each n-subset of the integer normals is put into Hermite normal form,
    U @ rows = H; a singular H is skipped, and otherwise the candidate point
    solves H @ x = U @ offsets by back-substitution.
    """
    n = len(normals[0])
    d = len(normals)
    offs = [Fraction(b) for b in offsets]
    seen = set()
    out = []
    for subset in combinations(range(d), n):
        H, U = hermite_normal_form([normals[i] for i in subset])
        if H[-1][-1] == 0:
            continue
        rhs = [sum(u * offs[i] for u, i in zip(row, subset)) for row in U]
        x = [Fraction(0)] * n
        for k in reversed(range(n)):
            x[k] = (rhs[k] - sum(H[k][j] * x[j] for j in range(k + 1, n))) / H[k][k]
        point = tuple(x)
        if all(sum(a * p for a, p in zip(normals[i], point)) >= offs[i] for i in range(d)):
            if point not in seen:
                seen.add(point)
                out.append(point)
    return sorted(out)


def interior_point(kahler, params) -> tuple:
    """The mean of the moment polytope's vertices, a strictly interior
    point; raises EmptyInterior outside the open Kahler cone."""
    points = moment_vertices(kahler, params)
    return tuple(sum(p[j] for p in points) / len(points)
                 for j in range(kahler.fan.dimension))


def fraction_vertices(kahler, params) -> list:
    """The moment polytope's vertices as the library computed them before
    it scaled to integers: each cone's dual-basis rows weighted by the
    Fraction support constants, a float parameter taken at its binary
    value, sorted. Outside the open Kahler cone, the same EmptyInterior
    refusal and message: the first wall class, from the wall relations,
    whose area from the Fraction support constants is <= 0."""
    exact = {n: Fraction(v) for n, v in params.items()}
    for cls in wall_relation_classes(kahler.fan):
        form = sphere_area(kahler, cls)
        if (area := Fraction(form.subs(exact))) <= 0:
            raise EmptyInterior(
                f"the wall class {cls} has area {form} = {area} <= 0: the "
                f"parameters are outside the open Kahler cone")
    offsets = [Fraction(lam.subs(exact)) for lam in kahler.lambdas]
    return sorted(tuple(sum(offsets[i] * row[j] for i, row in zip(cone, dual))
                        for j in range(kahler.fan.dimension))
                  for cone, dual in kahler.fan.dual_bases.items())


def fraction_moduli_from_polytope(kahler, params) -> tuple:
    """The solver's seed moduli from Fraction vertices, midpoints and
    centre, each turned into a float, as the library computed them before
    it read integer vertices; a float parameter is taken at its binary
    value, as in ``fraction_vertices``."""
    from toricmirror.laurent import LOG_FLOAT_MAX

    vertices = fraction_vertices(kahler, params)
    center = [sum(v[j] for v in vertices) / len(vertices)
              for j in range(kahler.fan.dimension)]
    out = []
    for j in range(kahler.fan.dimension):
        scales = {float(v[j]) for v in vertices}
        coords = sorted({v[j] for v in vertices})
        for a in coords:
            for b in coords:
                scales.add(float(a + b) / 2.0)
        scales.add(float(center[j]))
        seeds = [math.exp(-s) for s in scales if -s <= LOG_FLOAT_MAX]
        moduli = sorted({round(r, 14) or r for r in seeds}, reverse=True)
        moduli = [r for r in moduli if r > 0.0]
        out.append(tuple(moduli) or (1.0,))
    return tuple(out)


def summed_potential(kahler, factor) -> dict:
    """W as the sum C * m_0 + m_1 + ... + m_{d-1} of the one-disk monomials
    m_i = exp(lambda_i) z^{v_i}, in nested dicts {z: {q: Fraction}}: the
    product shifts C's q-terms in their order, and the sum merges equal
    z-exponents and equal q-exponents and drops zeros, as the ring
    arithmetic that once assembled W did."""
    total = {}
    for i, ray in enumerate(kahler.fan.rays):
        shift = kahler.lambda_q_exponents(i)
        coeff = factor.terms if i == 0 else {(0,) * kahler.rank: Fraction(1)}
        merged = total.setdefault(tuple(ray), {})
        for qexp, value in coeff.items():
            qexp = tuple(a + b for a, b in zip(shift, qexp))
            merged[qexp] = merged.get(qexp, Fraction(0)) + value
    total = {z: {q: c for q, c in coeff.items() if c} for z, coeff in total.items()}
    return {z: coeff for z, coeff in total.items() if coeff}


def recipe_lambdas(fan, cone: int = 0) -> list:
    """The support constants of :func:`dual_kahler`, as LinForms: 0 on the
    rays of a maximal cone (the first by default), -t_j on the j-th other
    ray."""
    sigma = fan.maximal_cones[cone]
    off = [i for i in range(fan.nrays) if i not in sigma]
    lambdas = [LinForm(0)] * fan.nrays
    for j, r in enumerate(off):
        lambdas[r] = LinForm(0, {f"t{j + 1}": -1})
    return lambdas


def dual_kahler(fan, cone: int = 0) -> KahlerData:
    """Kahler data with lambda 0 on the rays of a maximal cone (the first by
    default) and -t_j on the others, in the q-basis dual to that cone: basis
    class j is the relation of the j-th other ray to the cone's rays, so
    that q_j = exp(-t_j)."""
    sigma = fan.maximal_cones[cone]
    off = [i for i in range(fan.nrays) if i not in sigma]
    q_basis = []
    for r in off:
        cls = [0] * fan.nrays
        cls[r] = 1
        for i, row in zip(sigma, fan.dual_bases[sigma]):
            cls[i] = -sum(a * x for a, x in zip(row, fan.rays[r]))
        q_basis.append(tuple(cls))
    return KahlerData(fan, recipe_lambdas(fan, cone), q_basis)


def reference_evaluate(poly, z, t) -> complex:
    """W at z with q = exp(-t), term by term in sorted z order: the
    evaluation the compiled form replaced, kept as it was so that its
    floats can be compared bit for bit."""
    def ipow(base, exponent):
        if exponent < 0:
            return 1.0 / ipow(base, -exponent)
        result = 1.0 + 0.0j
        while exponent:
            if exponent & 1:
                result *= base
            base *= base
            exponent >>= 1
        return result

    z = [complex(v) for v in z]
    q = [math.exp(-float(v)) for v in t]
    total = 0j
    for zexp, coeff in poly.sorted_terms():
        value = 0.0
        for qexp, c in coeff.terms.items():
            v = float(c)
            for qj, e in zip(q, qexp):
                v *= qj ** e
            value += v
        term = complex(value)
        for base, e in zip(z, zexp):
            if e:
                term *= ipow(base, e)
        total += term
    return total


def jacobian_charpoly(pairs) -> list:
    """The characteristic polynomial of multiplication by W on its Jacobian
    ring C[z^+-1]/(z_j dW/dz_j), coefficients highest degree first, exact.
    pairs are W's (exponent, float coefficient) terms, each float taken
    exactly as a rational, so the ring is the solver's own W. Its roots are
    W's critical values, with multiplicity (Stickelberger; Cox, Little,
    O'Shea, "Using Algebraic Geometry", ch. 2 and 4), and its degree the
    dimension of the ring. The Laurent ring is Q[z, y]/(y z_1...z_n - 1):
    a grevlex Groebner basis of the log-gradient ideal, each equation
    cleared of negative powers, with that relation; the matrix of W on the
    standard monomials; its characteristic polynomial."""
    import sympy

    n = len(pairs[0][0])
    z = sympy.symbols(f"z1:{n + 1}")
    y = sympy.Symbol("y")
    gens = (*z, y)
    terms = [(a, sympy.Rational(*Fraction(c).as_integer_ratio())) for a, c in pairs]
    low = [min(a[j] for a, _ in terms) for j in range(n)]

    def monomial(e):
        # z^e with each z_j^-1 written y * prod of the other z_i
        k = max(0, -min(e))
        return sympy.Mul(*(zj ** (x + k) for zj, x in zip(z, e))) * y ** k

    equations = [sum(a[j] * c * monomial([x - m for x, m in zip(a, low)])
                     for a, c in terms if a[j]) for j in range(n)]
    G = sympy.groebner(equations + [y * sympy.Mul(*z) - 1], *gens, order="grevlex",
                       domain="QQ")
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in G.exprs]
    standard, frontier = set(), [(0,) * (n + 1)]
    while frontier:
        m = frontier.pop()
        if m in standard or any(all(x >= d for x, d in zip(m, lead)) for lead in leads):
            continue
        standard.add(m)
        frontier += [tuple(x + (i == j) for j, x in enumerate(m)) for i in range(n + 1)]
    index = {m: i for i, m in enumerate(sorted(standard))}
    W = sum(c * monomial(a) for a, c in terms)
    M = sympy.zeros(len(index))
    for m, col in index.items():
        _, rest = G.reduce(sympy.expand(W * sympy.Mul(*(g ** e for g, e in zip(gens, m)))))
        for mon, coeff in sympy.Poly(rest, *gens).terms():
            M[index[mon], col] = coeff
    return [Fraction(int(x.p), int(x.q)) for x in M.charpoly(sympy.Symbol("s")).all_coeffs()]


def fd_log_gradient(poly, z, t, h=1e-5):
    """Central finite differences of W in log coordinates: approximates
    (z_1 dW/dz_1, ..., z_n dW/dz_n) without touching the derivative code."""
    out = []
    for j in range(len(z)):
        zp = list(z)
        zm = list(z)
        zp[j] = z[j] * math.exp(h)
        zm[j] = z[j] * math.exp(-h)
        out.append((evaluate(poly, zp, t) - evaluate(poly, zm, t)) / (2 * h))
    return tuple(out)


def symmetry_group_oracle(exponents) -> Optional[set]:
    """G = L*/Z^n by brute force, as a set of theta tuples of Fractions in
    [0, 1), where L is spanned by the differences of the nonconstant
    exponents: every theta in (1/N Z)^n / Z^n with <theta, d> integral for
    each difference d, N the |det| of n independent differences (L* lies
    in the dual of the lattice they span). None when the differences do
    not span Q^n."""
    nonconstant = [a for a in exponents if any(a)]
    n = len(exponents[0])
    diffs = [[x - y for x, y in zip(a, nonconstant[0])] for a in nonconstant[1:]]
    chosen = []
    for d in diffs:
        if rank(chosen + [d]) > len(chosen):
            chosen.append(d)
    if len(chosen) < n:
        return None
    N = int(abs(matrix_det(chosen)))
    return {tuple(Fraction(k, N) for k in ks) for ks in product(range(N), repeat=n)
            if all(sum(k * x for k, x in zip(ks, d)) % N == 0 for d in diffs)}


def pairwise_dedup_oracle(points, radius, kept=()) -> list:
    """Greedy dedup of log-coordinate points by a scan over pairs: a point
    is kept when every point of kept and every earlier kept point lies
    farther than the radius, with each phase difference wrapped into
    [-pi, pi). Returns the points kept, in order."""
    def distance(p, q):
        re = math.sqrt(sum((a.real - b.real) ** 2 for a, b in zip(p, q)))
        im = math.sqrt(sum(((a.imag - b.imag + math.pi) % (2 * math.pi) - math.pi) ** 2
                           for a, b in zip(p, q)))
        return math.hypot(re, im)

    fresh = []
    for p in points:
        if all(distance(p, q) > radius for q in [*kept, *fresh]):
            fresh.append(p)
    return fresh


def seed_table_starts(moduli, phases, first, count) -> list:
    """Starts first .. first + count - 1 of the solver's mixed order, as
    tuples of log coordinates, read from a table of every seed of each
    coordinate (log r + 2 pi i k / phases, modulus outer), as the solver
    built them before it decoded only the starts it runs."""
    from toricmirror.roots import _stride

    seeds = [[complex(math.log(r), 2.0 * math.pi * k / phases)
              for r in coord for k in range(phases)] for coord in moduli]
    grid = math.prod(len(s) for s in seeds)
    stride = _stride(grid)
    starts = []
    for k in range(first, first + count):
        index, w = k * stride % grid, []
        for table in reversed(seeds):
            w.append(table[index % len(table)])
            index //= len(table)
        starts.append(tuple(reversed(w)))
    return starts


def term_values(w, A, c):
    """c_t z^(a_t) at log-coordinates w (s, n), as (s, T), in numpy: a real
    exponential times cos + i sin of the phase, an order of magnitude
    cheaper than numpy's complex exp."""
    import numpy as np

    re, im = w.real @ A.T, w.imag @ A.T
    return np.exp(re) * (np.cos(im) + 1j * np.sin(im)) * c


def lockstep_newton(w, A, AA, c, options, band):
    """Lockstep Newton in numpy from the starts w (s, n), updated in place,
    under the rules the solver steps each start of its grid by (the clip of
    10 included): the batch-at-a-time loop the solver once ran. After each
    pass that converges some starts it yields their indices, in start
    order; the caller may stop between passes, and w then holds the
    iterates reached."""
    import numpy as np

    S, n = w.shape
    active = np.ones(S, dtype=bool)
    step_tol = 1e-5
    last_step = np.full(S, np.inf)
    for step_no in range(options.max_steps + 1):
        if not active.any():
            break
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            wa = w[active]
            M = term_values(wa, A, c)
            g = M @ A
            res = np.linalg.norm(g, axis=1)
            finite = np.isfinite(res)
            done = finite & (res <= options.tol) & (last_step[active] <= step_tol)
        idx = np.flatnonzero(active)
        if done.any():
            yield idx[done]
        if step_no == options.max_steps:
            break
        alive = finite & ~done
        delta = np.full_like(wa, np.nan)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if alive.any():
                Ja = (M[alive] @ AA).reshape(-1, n, n)
                ga = g[alive]
                try:
                    step = np.linalg.solve(Ja, -ga[..., None])[..., 0]
                except np.linalg.LinAlgError:
                    step = np.full_like(ga, np.nan)
                    for k in range(Ja.shape[0]):
                        try:
                            step[k] = np.linalg.solve(Ja[k], -ga[k])
                        except np.linalg.LinAlgError:
                            pass
                norms = np.max(np.abs(step), axis=1, keepdims=True)
                scale = np.where(norms > 10.0, 10.0 / norms, 1.0)
                delta[alive] = step * scale
            new_wa = wa + delta
            ok = np.all(np.isfinite(new_wa), axis=1) & (
                np.max(np.abs(new_wa.real), axis=1) < band
            )
            moved = idx[alive & ok]
            w[moved] = new_wa[alive & ok]
            last_step[moved] = np.linalg.norm(delta[alive & ok], axis=1)
        active = np.zeros(S, dtype=bool)
        active[moved] = True


def newton_arrays(poly, t, options):
    """What the solver's grid works with, built from W as the grid builds
    it: (n, A, AA, c, moduli, phases, budget, band)."""
    import numpy as np

    from toricmirror.roots import default_moduli
    from toricmirror.laurent import numeric_terms

    n = poly.zvars
    terms = numeric_terms(poly, [float(v) for v in t])
    A = np.array([a for a, _ in terms], dtype=float)
    c = np.array([v for _, v in terms], dtype=complex)
    AA = (A[:, :, None] * A[:, None, :]).reshape(len(A), n * n)
    moduli = options.moduli_per_coord or default_moduli(c, n)
    phases = options.phases_per_coord
    grid = math.prod(len(coord) * phases for coord in moduli)
    budget = min(grid, options.max_starts)
    band = 60.0 + max((abs(math.log(r)) for coord in moduli for r in coord), default=0.0)
    return n, A, AA, c, moduli, phases, budget, band


def newton_found(poly, t, options, bound, shifts, polyhedral=False):
    """What the solver finds on W whole as one Newton system, its constant
    term included, with the given bound and shifts of G: from the start
    grid alone, or with polyhedral, from W's polyhedral starts first when
    W is 2-D. Runs on any W, one the solver refuses included."""
    from toricmirror import roots
    from toricmirror.laurent import numeric_terms

    with pytest.MonkeyPatch.context() as patch:
        if not polyhedral:
            patch.setattr(roots, "_polyhedral_starts", lambda pairs, bound: None)
        return roots._newton_system(numeric_terms(poly, [float(v) for v in t]), bound, shifts,
                                    options.moduli_per_coord, options)


def newton_must_not_run(*_):
    raise AssertionError("a Newton pass ran")


# potentials with a Newton polytope that is not full-dimensional, as
# {z-exponent: coefficient}: their critical points are never isolated
NO_ISOLATED_ROOTS = {
    "square": {(2, 0): 1, (1, 1): 2, (0, 2): 1},  # (z1 + z2)^2, zero on z1 = -z2
    "segment": {(1, 1): 1, (-1, -1): 1},  # z1*z2 + 1/(z1*z2)
    "monomial": {(1,): 1},  # z
}

# potentials with a positive root bound and a factor with no isolated
# critical point, so that W has none either, as ({z-exponent: coefficient},
# the reason they are refused for)
FACTOR_WITHOUT_ROOTS = {
    # a simplex with kernel vector (0, 2, 1): its first term would be 0
    "simplex": ({(-2, 1): Fraction(-3, 7), (-1, -1): 5, (2, 2): Fraction(1, 3)},
                "one of its factors is a simplex whose binomial system has no root in the torus"),
    # u (1 + W_Y(y)) + 2/u with W_Y's exponents on the line y1 + y2 = 1:
    # its critical points form curves
    "base on a line": ({(0, 0, 1): 1, (0, 0, -1): 2, (1, 0, 1): 1, (0, 1, 1): Fraction(3, 2),
                        (2, -1, 1): Fraction(-1, 3)},
                       "the Newton polytope of one of its factors is not full-dimensional"),
    # z1 + z1^2 + z2: the factor z2 has no critical point
    "lone monomial": ({(1, 0): 1, (2, 0): 1, (0, 1): 1},
                      "the Newton polytope of one of its factors is not full-dimensional"),
}


def grid_report(poly, t, options=None, polyhedral=False):
    """The report of one Newton system on W whole, its constant term
    included, whether W factors or not (``newton_found`` at W's bound and
    G): the start grid alone, or with polyhedral, Newton from W's
    polyhedral starts first when W is 2-D. The reference the factored
    solve is checked against."""
    from toricmirror import roots

    options = options or roots.SolverOptions()
    structure = roots._exponent_structure(tuple(sorted(poly.terms)))
    found = newton_found(poly, t, options, structure.bound, structure.shifts, polyhedral)
    report = roots._report(found, structure, options)
    return report._replace(factors=((poly.zvars, structure.bound, "newton"),))


def grid_alone(poly, t, options=None):
    """roots.solve with every 2-D Newton system solved from the start grid
    alone, as when its cells miss its bound: the solve that the runs from
    polyhedral starts are compared against."""
    from toricmirror import roots

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots, "_polyhedral_starts", lambda pairs, bound: None)
        return roots.solve(poly, t, options)


def _lockstep_setup(poly, t, options):
    """What both lockstep oracles compile from W before their loops."""
    from toricmirror.laurent import numeric_terms
    from toricmirror.roots import _exponent_structure

    t = [float(v) for v in t]
    expected = _exponent_structure(tuple(sorted(poly.terms))).bound
    log_gradient = [numeric_terms(poly.log_derivative(j), t) for j in range(poly.zvars)]
    return (*newton_arrays(poly, t, options), expected, log_gradient)


def _exact_residual(log_gradient, wi):
    import cmath

    import numpy as np

    from toricmirror.laurent import sum_terms

    z = tuple(cmath.exp(complex(x)) for x in wi)
    return z, float(np.linalg.norm([sum_terms(g, z) for g in log_gradient]))


def batch_boundary_oracle(poly, t, options):
    """The solver loop that stops only at a batch boundary: every admitted
    batch is stepped until each of its starts converges, leaves the band
    or reaches max_steps, and the bound is tested after the whole batch is
    merged. Returns (attempted, converged, deduped, expected, points)."""
    import numpy as np

    n, A, AA, c, moduli, phases, budget, band, expected, log_gradient = \
        _lockstep_setup(poly, t, options)
    batch = max(64, 16 * expected)
    kept = []
    points = []
    attempted = converged = 0
    while attempted < budget and len(points) < expected:
        w = np.array(seed_table_starts(moduli, phases, attempted,
                                       min(batch, budget - attempted)))
        done = np.zeros(len(w), dtype=bool)
        for idx in lockstep_newton(w, A, AA, c, options, band):
            done[idx] = True
        attempted += len(w)
        converged += int(done.sum())
        fresh = pairwise_dedup_oracle(w[done].tolist(), options.dedup_radius, kept)
        kept += fresh
        for wi in fresh:
            z, resid = _exact_residual(log_gradient, wi)
            if resid <= options.tol:
                points.append(z)
    return attempted, converged, len(points), expected, points


def pass_stop_oracle(poly, t, options):
    """The solver loop before its working set rolled: lockstep batches of
    max(64, 16 * expected) starts, each stepped until the pass where the
    verified roots reach the bound or, failing that, to its end. Returns
    (attempted, converged, deduped, expected, points); raises NoConvergence
    with the solver's message, the best residual taken over the last
    iterate of every start, when no root is verified."""
    import numpy as np

    from toricmirror.errors import NoConvergence

    n, A, AA, c, moduli, phases, budget, band, expected, log_gradient = \
        _lockstep_setup(poly, t, options)
    batch = max(64, 16 * expected)
    kept = []
    points = []
    finals = []
    best_failed = math.inf
    attempted = converged = 0
    complete = False
    while attempted < budget and not complete:
        w = np.array(seed_table_starts(moduli, phases, attempted,
                                       min(batch, budget - attempted)))
        attempted += len(w)
        finals.append(w)
        for done in lockstep_newton(w, A, AA, c, options, band):
            converged += len(done)
            fresh = pairwise_dedup_oracle(w[done].tolist(), options.dedup_radius, kept)
            kept += fresh
            for wi in fresh:
                z, resid = _exact_residual(log_gradient, wi)
                if resid <= options.tol:
                    points.append(z)
                else:
                    best_failed = min(best_failed, resid)
            complete = len(points) >= expected
            if complete:
                break
    if not points:
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.concatenate(finals) if finals else np.empty((0, n), dtype=complex)
            res = np.linalg.norm(term_values(w, A, c) @ A, axis=1)
        res = res[np.isfinite(res)]
        if res.size:
            best_failed = min(best_failed, float(res.min()))
        detail = (f"; best residual reached {best_failed:.3e}"
                  if math.isfinite(best_failed) else "")
        raise NoConvergence(
            f"no critical point found from {attempted} starts{detail}; try more "
            f"phases or different moduli"
        )
    return attempted, converged, len(points), expected, points
