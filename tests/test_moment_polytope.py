"""Moment-polytope geometry from the fan against the moved oracles: the
construction verdict against Fourier-Motzkin's max-min slack, the positive
circuits against a scan of ray subsets, and the per-cone vertices against
the active-set scan and per-cone Fraction solves, and the integer vertices
and the solver's seed moduli against their Fraction forms."""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    circuit_scan_verdict,
    dual_kahler,
    fraction_moduli_from_polytope,
    fraction_vertices,
    hirzebruch,
    hirzebruch2,
    hirzebruch2_kahler,
    interior_point,
    max_min_slack,
    moment_vertices,
    p1_times_p1,
    polytope_vertices,
    projective_line,
    projective_plane,
    random_smooth_2d_fan,
    random_unimodular,
    recipe_lambdas,
    solve_unique,
    support_value,
)
from test_integer_solves import fano_bases, in_chart, product_fan, random_lambda
from toricmirror.bundle import projectivize_canonical
from toricmirror.cli import _parse_assignments
from toricmirror.critical import moduli_from_polytope
from toricmirror.errors import DependentGenerators, EmptyInterior
from toricmirror.fan import validate_fan
from toricmirror.kahler import KahlerData
from toricmirror.linform import LinForm

P3 = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                  [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


@pytest.fixture(scope="module")
def fans():
    """Bundles of P1, P2, P1xP1, F1, dP6 and P3 in two random charts each,
    and 30 random smooth 2-D fans."""
    rng = random.Random(23)
    out = []
    for base in fano_bases() + [P3]:
        x = projectivize_canonical(base)
        out += [in_chart(x, random_unimodular(rng, x.dimension)) for _ in range(2)]
    return out + [random_smooth_2d_fan(rng) for _ in range(30)]


def circuits_oracle(fan):
    """Ray subsets whose last ray is a positive combination of the others,
    which are independent: the support-minimal nonnegative relations."""
    found = set()
    for size in range(2, fan.dimension + 2):
        for *rest, last in combinations(range(fan.nrays), size):
            cols = [[fan.rays[i][k] for i in rest] for k in range(fan.dimension)]
            try:
                coeffs = solve_unique(cols, [-x for x in fan.rays[last]])
            except DependentGenerators:
                continue
            if coeffs is None or min(coeffs) <= 0:
                continue
            scale = math.lcm(*(c.denominator for c in coeffs))
            y = [0] * fan.nrays
            for i, c in zip(rest, coeffs):
                y[i] = int(c * scale)
            y[last] = scale
            g = math.gcd(*y)
            found.add(tuple(a // g for a in y))
    return tuple(sorted(found))


def test_positive_circuits_match_subset_scan(fans):
    for fan in fans:
        assert fan.positive_circuits == circuits_oracle(fan), fan.rays


def test_construction_verdict_matches_fourier_motzkin(fans):
    # constant lambdas get Fourier-Motzkin's verdict; symbolic ones are
    # refused only when the polytope is empty at every parameter value, so
    # a refused document has no interior at any sampled parameter point and
    # one with interior at a sampled point is accepted
    rng = random.Random(29)
    sides = {True: 0, False: 0}
    symbolic = {"refused": 0, "interior": 0}
    for fan in fans:
        names = [f"t{j}" for j in range(1, fan.nrays - fan.dimension + 1)]
        for _ in range(8):
            constant = [LinForm(Fraction(rng.randint(-5, 3), rng.choice((1, 2, 3))))
                        for _ in fan.rays]
            ok = max_min_slack(fan.rays, [lam.const for lam in constant])[0] > 0
            try:
                KahlerData(fan, constant)
                got = None
            except EmptyInterior as exc:
                got = str(exc)
            assert got == (None if ok else "moment polytope has empty interior"), \
                (fan.rays, constant)
            sides[ok] += 1

            lambdas = [random_lambda(rng, names) for _ in fan.rays]
            points = [{n: Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for n in names}
                      for _ in range(4)]
            interior = any(max_min_slack(fan.rays, [lam.subs(p) for lam in lambdas])[0] > 0
                           for p in points)
            try:
                KahlerData(fan, lambdas)
                refused = False
            except EmptyInterior as exc:
                assert str(exc) == "moment polytope has empty interior"
                refused = True
            assert not (refused and interior), (fan.rays, lambdas)
            symbolic["refused"] += refused
            symbolic["interior"] += interior
    total = sum(sides.values())
    assert min(sides.values()) >= total / 4, sides
    assert min(symbolic.values()) > 0, symbolic


def catalog_bundle_bases():
    """The catalog's Fano bases: P1, P2, P1xP1, F1, dP6, P3, P1xdP6 and
    P1^3."""
    line = projective_line()
    return fano_bases() + [P3, product_fan(line, fano_bases()[4]),
                           product_fan(line, p1_times_p1())]


def catalog_bundles(seed):
    """Newly built P(K_Y+O) over every catalog base, in its standard chart
    and two seeded GL(n, Z) charts."""
    rng = random.Random(seed)
    out = []
    for base in catalog_bundle_bases():
        x = projectivize_canonical(base)
        out += [x] + [in_chart(x, random_unimodular(rng, x.dimension)) for _ in range(2)]
    return out


def verdicts(fan, lambdas):
    """(KahlerData's verdict, the always-scan oracle's, whether construction
    enumerated the positive circuits); a verdict is the EmptyInterior
    message or None."""
    expected = circuit_scan_verdict(fan, lambdas)
    fan.__dict__.pop("positive_circuits", None)
    try:
        KahlerData(fan, lambdas)
        got = None
    except EmptyInterior as exc:
        got = str(exc)
    return got, expected, "positive_circuits" in fan.__dict__


def off_cone_lambdas(fan, rng, kind):
    """Support constants 0 on the first maximal cone's rays and, on the
    j-th other ray, a random constant plus -t_j, except that "fewer" keeps
    t1 alone (fewer parameters than the rank), "repeated" puts -t1 on the
    second ray too, and "cancels" puts +t1 there."""
    lambdas = recipe_lambdas(fan)
    off = [i for i, lam in enumerate(lambdas) if lam != LinForm(0)]
    second = {"fewer": {}, "repeated": {"t1": -1}, "cancels": {"t1": 1}}[kind]
    for j, i in enumerate(off):
        coeffs = (second if j == 1 else {} if j > 1 and kind == "fewer"
                  else lambdas[i].coeffs)
        lambdas[i] = LinForm(Fraction(rng.randint(-3, 2), rng.choice((1, 2))), coeffs)
    return lambdas


def test_construction_verdict_matches_the_circuit_scan(fans):
    # the rank shortcut must give the always-scan verdict: recipe documents
    # take it, lambdas whose basis areas have dependent parameter parts
    # scan, and so do constant ones
    rng = random.Random(47)
    paths = {"shortcut": 0, "scan": 0}
    refused = 0

    def check(fan, lambdas, path=None):
        nonlocal refused
        got, expected, scanned = verdicts(fan, lambdas)
        assert got == expected, (fan.rays, lambdas)
        assert path is None or scanned == (path == "scan"), (fan.rays, lambdas)
        paths["scan" if scanned else "shortcut"] += 1
        refused += got is not None

    for fan in catalog_bundles(53):
        check(fan, recipe_lambdas(fan), "shortcut")
        for kind in ("fewer", "repeated", "cancels"):
            check(fan, off_cone_lambdas(fan, rng, kind), "scan")
        check(fan, [LinForm(Fraction(rng.randint(-5, 3), rng.choice((1, 2, 3))))
                    for _ in fan.rays], "scan")
    for fan in fans:
        names = [f"t{j}" for j in range(1, fan.nrays - fan.dimension + 1)]
        for _ in range(8):
            check(fan, [random_lambda(rng, names) for _ in fan.rays])
    assert min(paths.values()) >= 20 and refused >= 20, (paths, refused)


def test_recipe_documents_skip_the_circuit_scan():
    for fan in catalog_bundles(59):
        KahlerData(fan, recipe_lambdas(fan))
        assert "positive_circuits" not in fan.__dict__, fan.rays
    fan = hirzebruch2()  # P(K_P1+O) at t1 = t2 = 1
    KahlerData(fan, ["-1", "0", "-3", "0"])
    assert "positive_circuits" in fan.__dict__


def in_kahler_cone(fan, offsets):
    """Each cone's vertex, from one Fraction solve, strictly inside the
    half-spaces of the other rays."""
    for cone in fan.maximal_cones:
        x = solve_unique([list(fan.rays[i]) for i in cone], [offsets[i] for i in cone])
        for j, ray in enumerate(fan.rays):
            if j not in cone and sum(a * b for a, b in zip(x, ray)) <= offsets[j]:
                return False
    return True


def test_vertices_match_oracles(fans):
    rng = random.Random(31)
    refusal = (r"the wall class \(.*\) has area .* = .* <= 0: the parameters are outside "
               r"the open Kahler cone")
    inside = outside = 0
    for fan in fans:
        names = [f"t{j}" for j in range(fan.nrays)]
        k = KahlerData(fan, [f"-{name}" for name in names])
        for _ in range(10):
            t = [Fraction(rng.randint(0, 12), rng.choice((1, 2))) for _ in names]
            params = dict(zip(names, t))
            offsets = [-x for x in t]
            if in_kahler_cone(fan, offsets):
                inside += 1
                vertices = moment_vertices(k, params)
                assert vertices == polytope_vertices(fan.rays, offsets), (fan.rays, t)
                assert len(vertices) == len(fan.maximal_cones)
                # in cone order: each vertex is tight on its own cone's rays
                denom, scaled = k.scaled_vertices(params)
                for cone, x in zip(fan.maximal_cones, scaled):
                    assert [sum(a * b for a, b in zip(x, fan.rays[i])) for i in cone] \
                        == [offsets[i] * denom for i in cone], (fan.rays, t, cone)
                x = interior_point(k, params)
                assert all(support_value(k, i, x).subs(params) > 0 for i in range(fan.nrays))
            else:
                outside += 1
                with pytest.raises(EmptyInterior, match=refusal) as caught:
                    moment_vertices(k, params)
                with pytest.raises(EmptyInterior) as expected:
                    fraction_vertices(k, params)
                assert str(caught.value) == str(expected.value)
                with pytest.raises(EmptyInterior):
                    interior_point(k, params)
    assert inside >= 60 and outside >= 60, (inside, outside)


def test_builds_fast_in_a_chart_that_blows_up_elimination():
    # P(K_{P1 x dP6} + O) laid out as bundle base rays (w, 1) between e_4
    # and -e_4, in a GL(4, Z) chart where Fourier-Motzkin took seconds
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    base = validate_fan(3, [w + (0,) for w in hexagon] + [(0, 0, 1), (0, 0, -1)],
                        [tuple(sorted((i, (i + 1) % 6))) + (top,)
                         for i in range(6) for top in (6, 7)])
    x = projectivize_canonical(base)
    chart = [[-2, -2, -2, 1], [1, 1, 1, -1], [0, -1, -4, 1], [1, 1, 2, -1]]
    fan = in_chart(x, chart)
    off = [i for i in range(fan.nrays) if i not in (0, 1, 2, 7)]
    lambdas = ["0"] * fan.nrays
    for j, i in enumerate(off):
        lambdas[i] = f"-t{j + 1}"
    start = time.perf_counter()
    KahlerData(fan, lambdas)
    assert time.perf_counter() - start < 2.0


def catalog_kahler():
    """Kahler data on every catalog fan and every catalog bundle P(K_Y+O):
    F2 with its own support constants, the others with lambda 0 on the
    first maximal cone and -t_j on the other rays."""
    fans = [projective_line(), projective_plane(), p1_times_p1(),
            hirzebruch(1), hirzebruch(3)]
    return ([hirzebruch2_kahler()] + [dual_kahler(fan) for fan in fans]
            + [dual_kahler(projectivize_canonical(base)) for base in catalog_bundle_bases()])


def draws(names, rng):
    """Seeded points with each value in [1, 10]: Fractions, the floats of
    a 1/100 grid as the benchmark draws them, and CLI decimals past a
    float's precision."""
    for _ in range(10):
        yield {n: Fraction(rng.randint(100, 1000), 100) for n in names}
        yield {n: rng.randint(100, 1000) / 100 for n in names}
        yield _parse_assignments([f"{n}={rng.randint(1, 9)}.{rng.randint(0, 99):02d}"
                                  f"34567890123456789" for n in names])


def test_integer_vertices_give_the_fraction_seeds():
    rng = random.Random(41)
    inside = outside = 0
    for k in catalog_kahler():
        for params in draws(k.parameter_names, rng):
            try:
                expected = fraction_vertices(k, params)
            except EmptyInterior as exc:
                outside += 1
                with pytest.raises(EmptyInterior) as caught:
                    moduli_from_polytope(k, params)
                assert str(caught.value) == str(exc)
                continue
            inside += 1
            assert moment_vertices(k, params) == expected
            assert moduli_from_polytope(k, params) == fraction_moduli_from_polytope(k, params)
    assert inside >= 100 and outside >= 20, (inside, outside)


def test_a_float_parameter_is_taken_at_its_binary_value():
    # the F2 vertex (t1, t2) at t1 = 0.1 is 0.1 itself, not the float sum
    # t1 + 2 t2 - 2 t2 = 0.10000000000000009, as in the seeds
    k = hirzebruch2_kahler()
    params = {"t1": 0.1, "t2": 0.7}
    assert moment_vertices(k, params) == fraction_vertices(k, params)
    assert (Fraction(0.1), Fraction(0.7)) in moment_vertices(k, params)


def slacks(k, params):
    """<x, v_i> - lambda_i at each cone's vertex x for every ray i off the
    cone, in the order the refusal scans them, a float parameter taken at
    its binary value; affine in the parameters."""
    exact = {n: Fraction(v) for n, v in params.items()}
    offsets = [Fraction(lam.subs(exact)) for lam in k.lambdas]
    out = []
    for cone, dual in k.fan.dual_bases.items():
        x = [sum(offsets[i] * row[j] for i, row in zip(cone, dual))
             for j in range(k.fan.dimension)]
        out += [sum(a * b for a, b in zip(x, ray)) - offsets[i]
                for i, ray in enumerate(k.fan.rays) if i not in cone]
    return out


def test_boundary_points_keep_the_refusal():
    # from an inside point p toward q, with one parameter negated, the
    # first wall is where the least slack s_p + u (s_q - s_p) reaches 0
    rng = random.Random(43)
    walls = 0
    for k in catalog_kahler():
        names = k.parameter_names
        p = next(params for params in (
            {n: Fraction(rng.randint(100, 1000), 100) for n in names} for _ in range(1000))
            if min(slacks(k, params)) > 0)
        for name in names:
            q = dict(p, **{name: -p[name]})
            u = min(sp / (sp - sq) for sp, sq in zip(slacks(k, p), slacks(k, q)) if sq <= 0)
            wall = {n: p[n] + u * (q[n] - p[n]) for n in names}
            assert min(slacks(k, wall)) == 0
            with pytest.raises(EmptyInterior) as expected:
                fraction_vertices(k, wall)
            for call in (k.scaled_vertices, lambda w: moduli_from_polytope(k, w)):
                with pytest.raises(EmptyInterior) as caught:
                    call(wall)
                assert str(caught.value) == str(expected.value)
            walls += 1
    assert walls >= 30, walls


def inside_point(k, rng):
    """A seeded point on the 1/100 grid in [1, 10] with every slack > 0."""
    names = k.parameter_names
    return next(params for params in (
        {n: Fraction(rng.randint(100, 1000), 100) for n in names} for _ in range(1000))
        if min(slacks(k, params)) > 0)


def wall_verdict(k, params):
    """Whether some wall class's area row is <= 0 at the parameters."""
    point = (*(Fraction(params[n]) for n in k.parameter_names), 1)
    return min(sum(a * x for a, x in zip(row, point)) for row in k._polytope_rows[0]) <= 0


def test_wall_rows_give_the_slack_verdict():
    # a wall row is <= 0 exactly when some vertex slack is, at random points
    # on both sides and at exact points on the cone's walls
    rng = random.Random(61)
    counts = {True: 0, False: 0}
    for k in catalog_kahler():
        names = k.parameter_names
        points = [{n: Fraction(rng.randint(-300, 1000), rng.choice((1, 7, 100))) for n in names}
                  for _ in range(40)]
        p = inside_point(k, rng)
        for name in names:
            q = dict(p, **{name: -p[name]})
            u = min(sp / (sp - sq) for sp, sq in zip(slacks(k, p), slacks(k, q)) if sq <= 0)
            points.append({n: p[n] + u * (q[n] - p[n]) for n in names})
        for params in points:
            outside = min(slacks(k, params)) <= 0
            assert wall_verdict(k, params) == outside, (k.fan.rays, params)
            counts[outside] += 1
    assert min(counts.values()) >= 100, counts


def test_inside_the_cone_no_vertex_scan():
    # every draw with every vertex slack > 0 gets the Fraction seeds; a
    # float parameter is taken at its binary value throughout
    rng = random.Random(67)
    inside = 0
    for k in catalog_kahler():
        for params in draws(k.parameter_names, rng):
            if min(slacks(k, params)) > 0:
                assert moduli_from_polytope(k, params) \
                    == fraction_moduli_from_polytope(k, params)
                inside += 1
    assert inside >= 100, inside


def test_seed_rows_are_built_on_first_use():
    # exact-ladder and `potential` build Kahler data they never ask for
    # seeds, so construction leaves the rows and the wall classes unbuilt
    rng = random.Random(71)
    for k in catalog_kahler():  # each newly built, on a newly built fan
        assert "_polytope_rows" not in vars(k) and "wall_classes" not in vars(k.fan)
        moduli_from_polytope(k, inside_point(k, rng))
        assert "_polytope_rows" in vars(k)
        assert "wall_classes" in vars(k.fan)
