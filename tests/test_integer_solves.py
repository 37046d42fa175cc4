"""The integer solves that replaced the Fraction elimination, each against
the per-system ``solve_unique`` oracle: moment-polytope vertices, the
q-exponents of exp(lambda_i), and the grading of a bundle fan; and the
solver's float inverse of an integer matrix against sympy's exact one."""

import random
from fractions import Fraction
from itertools import combinations

import sympy

from conftest import (
    assert_splitting_chart,
    hirzebruch2,
    p1_times_p1,
    polytope_vertices,
    projective_line,
    projective_plane,
    random_smooth_2d_fan,
    random_unimodular,
    rank,
    solve_unique,
    unimodular_map_search,
)
from toricmirror.bundle import decompose_bundle, projectivize_canonical
from toricmirror.errors import (
    DependentGenerators,
    EmptyInterior,
    InvalidFan,
    LambdaNotQExpressible,
)
from toricmirror.fan import validate_fan
from toricmirror.kahler import KahlerData
from toricmirror.lattice import hermite_normal_form
from toricmirror.linform import LinForm
from toricmirror.roots import _inverse

DP6 = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
F1 = [(1, 0), (0, 1), (-1, -1), (0, -1)]


def fano_bases():
    return [
        projective_line(),
        projective_plane(),
        p1_times_p1(),
        validate_fan(2, F1),
        validate_fan(2, DP6),
    ]


def in_chart(fan, T):
    """The fan with every ray mapped by T, ray order and cones kept."""
    rays = [tuple(sum(a * x for a, x in zip(row, r)) for row in T) for r in fan.rays]
    return validate_fan(fan.dimension, rays, fan.maximal_cones)


def product_fan(a, b):
    rays = [tuple(r) + (0,) * b.dimension for r in a.rays]
    rays += [(0,) * a.dimension + tuple(r) for r in b.rays]
    cones = [ca + tuple(a.nrays + j for j in cb)
             for ca in a.maximal_cones for cb in b.maximal_cones]
    return validate_fan(a.dimension + b.dimension, rays, cones)


# --- polytope vertices ---

def vertices_oracle(normals, offsets):
    """Active-set enumeration with one Fraction solve per n-subset."""
    n = len(normals[0])
    offs = [Fraction(b) for b in offsets]
    out = set()
    for subset in combinations(range(len(normals)), n):
        try:
            point = solve_unique([normals[i] for i in subset], [offs[i] for i in subset])
        except DependentGenerators:
            continue
        if point is not None and all(
            sum(a * x for a, x in zip(v, point)) >= b for v, b in zip(normals, offs)
        ):
            out.add(point)
    return sorted(out)


def test_vertices_match_per_subset_solves():
    rng = random.Random(5)
    normal_sets = [hirzebruch2().rays]
    for base in fano_bases():
        x = projectivize_canonical(base)
        normal_sets.append(base.rays)
        normal_sets.append(in_chart(x, random_unimodular(rng, x.dimension)).rays)
    normal_sets += [random_smooth_2d_fan(rng, 8).rays for _ in range(10)]
    normal_sets += [[tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n + 2)]
                    for n in (2, 3) for _ in range(6)]
    kinds = {"empty": 0, "point": 0, "solid": 0}
    for normals in normal_sets:
        d = len(normals)
        trials = [[0] * d, [5] * d]
        trials += [[Fraction(rng.randint(-6, 2), rng.choice((1, 2, 3))) for _ in range(d)]
                   for _ in range(6)]
        for offsets in trials:
            got = polytope_vertices(normals, offsets)
            assert got == vertices_oracle(normals, offsets), (normals, offsets)
            assert all(isinstance(x, Fraction) for p in got for x in p)
            kinds["empty" if not got else "point" if len(got) == 1 else "solid"] += 1
    assert all(count >= 10 for count in kinds.values()), kinds


# --- q-exponents of exp(lambda_i) ---

def lambda_exponents_oracle(k, i):
    """The exponent tuple, or the error message, from one Fraction solve of
    the (parameters, constant) x basis-areas system for ray i. In the
    corner where the areas are dependent and the system is inconsistent the
    integer solve reports the degenerate basis first."""
    lam = k.lambdas[i]
    areas = k.basis_areas()
    names = k.parameter_names
    rows = [[a.coefficient(n) for a in areas] for n in names] + [[a.const for a in areas]]
    rhs = [-lam.coefficient(n) for n in names] + [-lam.const]
    degenerate = f"basis areas are degenerate; cannot express exp(lambda_{i})"
    inexpressible = (f"lambda_{i} = {lam} is not -1 times a nonnegative integer "
                     f"combination of the basis areas")
    try:
        sol = solve_unique(rows, rhs)
    except DependentGenerators:
        return degenerate
    if sol is None:
        return degenerate if rank(rows) < len(areas) else inexpressible
    if any(c.denominator != 1 or c < 0 for c in sol):
        return inexpressible
    return tuple(int(c) for c in sol)


def random_lambda(rng, names):
    form = LinForm(Fraction(rng.randint(-4, 2), rng.choice((1, 1, 2))))
    for name in names:
        if rng.random() < 0.5:
            form += LinForm.variable(name) * Fraction(rng.randint(-3, 1), rng.choice((1, 1, 2)))
    return form


def test_lambda_exponents_match_per_ray_solve():
    rng = random.Random(11)
    fans = [hirzebruch2()] + [projectivize_canonical(b) for b in fano_bases()[:3]]
    fans += [random_smooth_2d_fan(rng, 6) for _ in range(4)]
    seen = {"exponents": 0, "degenerate": 0, "inexpressible": 0}
    built = 0
    for fan in fans:
        rank_h2 = fan.nrays - fan.dimension
        name_sets = [[], ["t1"], [f"t{j}" for j in range(1, rank_h2 + 1)]]
        for names in name_sets:
            for _ in range(12):
                lambdas = [random_lambda(rng, names) for _ in range(fan.nrays)]
                try:
                    k = KahlerData(fan, lambdas)
                except EmptyInterior:
                    continue
                built += 1
                for i in range(fan.nrays):
                    expected = lambda_exponents_oracle(k, i)
                    try:
                        got = k.lambda_q_exponents(i)
                    except LambdaNotQExpressible as exc:
                        got = str(exc)
                    assert got == expected, (fan.rays, lambdas, i)
                    key = ("exponents" if isinstance(got, tuple)
                           else "degenerate" if "degenerate" in got else "inexpressible")
                    seen[key] += 1
    assert built >= 40 and all(count >= 20 for count in seen.values()), (built, seen)


# --- bundle grading ---

def decompose_oracle(fan):
    """(grading, base), or None, with the grading from one Fraction solve
    of <u, v_i> = 1 over ray 0 and the middle rays, and the base read in a
    chart that sends ray 0 to e_n by the Hermite normal form of ray 0."""
    n, d = fan.dimension, fan.nrays
    if d < n + 2 or any(a + b for a, b in zip(fan.rays[0], fan.rays[-1])):
        return None
    try:
        u = solve_unique([list(r) for r in fan.rays[:-1]], [1] * (d - 1))
    except DependentGenerators:
        return None
    if u is None or any(x.denominator != 1 for x in u):
        return None
    _, transform = hermite_normal_form([[x] for x in fan.rays[0]])
    change = transform[1:] + transform[:1]
    base_rays = [tuple(sum(c * x for c, x in zip(row, ray)) for row in change)[: n - 1]
                 for ray in fan.rays[1:-1]]
    base_cones = [tuple(sorted(i - 1 for i in c if i)) for c in fan.maximal_cones if 0 in c]
    try:
        base = validate_fan(n - 1, base_rays, base_cones)
    except InvalidFan:
        return None
    return tuple(int(x) for x in u), base


def opposite_pair_outside(fan):
    """The fan with its rays reordered so that an opposite pair comes first
    and last, or None when it has no such pair."""
    rays = fan.rays
    for a, b in combinations(range(len(rays)), 2):
        if all(x + y == 0 for x, y in zip(rays[a], rays[b])):
            order = [a] + [k for k in range(len(rays)) if k not in (a, b)] + [b]
            index = {old: new for new, old in enumerate(order)}
            cones = [tuple(index[i] for i in c) for c in fan.maximal_cones]
            return validate_fan(fan.dimension, [rays[k] for k in order], cones)
    return None


def test_grading_and_base_match_the_solve():
    rng = random.Random(17)
    fans = []
    for base in fano_bases() + [validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                                             [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])]:
        x = projectivize_canonical(base)
        fans.append(x)
        fans += [in_chart(x, random_unimodular(rng, x.dimension)) for _ in range(3)]
    p1, p2 = projective_line(), projective_plane()
    fans += [p2, p1_times_p1(), validate_fan(2, [(0, 1), (1, 1), (-1, 0), (0, -1)])]
    fans += [opposite_pair_outside(f) for f in (product_fan(p1, p2), product_fan(p2, p1),
                                               product_fan(product_fan(p1, p1), p1))]
    for _ in range(40):
        fan = opposite_pair_outside(random_smooth_2d_fan(rng, 9))
        if fan is not None:
            fans.append(in_chart(fan, random_unimodular(rng, 2)))
    recognized = 0
    for fan in fans:
        dec = decompose_bundle(fan)
        oracle = decompose_oracle(fan)
        assert (dec is None) == (oracle is None), fan
        if dec is None:
            continue
        grading, base = oracle
        assert_splitting_chart(fan, dec)
        assert dec.chart[-1] == grading
        assert dec.base.maximal_cones == base.maximal_cones
        assert unimodular_map_search(dec.base.rays, dec.base.maximal_cones,
                                     base.rays, base.maximal_cones) is not None, fan
        recognized += 1
    assert recognized >= 24 and len(fans) - recognized >= 20, (recognized, len(fans))


def test_inverse_matches_sympy():
    # each entry of the float inverse is the exact entry correctly rounded,
    # on small and large entries and on unimodular matrices
    rng = random.Random(83)
    sizes = {}
    while sum(sizes.values()) < 400:
        n = rng.randint(1, 5)
        if rng.random() < 0.2:
            mat = random_unimodular(rng, n)
        else:
            bound = rng.choice((2, 9, 1000))
            mat = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        exact = sympy.Matrix(mat)
        if exact.det() == 0:
            continue
        expected = tuple(tuple(float(Fraction(int(x.p), int(x.q))) for x in row)
                         for row in exact.inv().tolist())
        assert _inverse([list(row) for row in mat]) == expected, mat
        sizes[n] = sizes.get(n, 0) + 1
    assert min(sizes.values()) >= 50, sizes
