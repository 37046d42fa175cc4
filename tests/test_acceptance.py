"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import cmath
import contextlib
import math
import random
import time
from fractions import Fraction

from conftest import (
    brute_force_primitive_collections,
    disk_area,
    fd_log_gradient,
    hirzebruch2,
    hirzebruch2_kahler,
    laurent,
    matrix_det,
    moment_vertices,
    p1_times_p1,
    projective_line,
    projective_plane,
    push_h2,
    random_smooth_2d_fan,
    sphere_area,
    unimodular_map_search,
)
from toricmirror.bundle import fiber_class, projectivize_canonical
from toricmirror.critical import SolverOptions, find_critical_points, moduli_from_polytope
from toricmirror.documents import fan_from_document, potential_to_document
from toricmirror.fan import Positivity, chern_degree, classify_positivity, validate_fan
from toricmirror.gw import GWProvider
from toricmirror.kahler import KahlerData
from toricmirror.laurent import QPoly, gradient
from toricmirror.potential import corrected_potential, correction_details, hori_vafa

RAT_T = Fraction(46051701859880914, 10**16)  # ln(100), so q = 0.01
T001 = math.log(100.0)


@contextlib.contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS — {description} ({elapsed:.2f}s)")


F2_DOC = {
    "dimension": 2,
    "rays": [[0, -1], [1, 0], [-1, -2], [0, 1]],
    "kahler": {
        "parameters": ["t1", "t2"],
        "lambdas": ["-t2", "0", "-t1-2*t2", "0"],
    },
    "q_basis": [[-2, 1, 1, 0], [1, 0, 0, 1]],
}


def test_criterion_1_f2_symbolic_end_to_end():
    with criterion(1, "corrected F2 potential matches the closed form exactly"):
        start = time.perf_counter()
        doc = fan_from_document(F2_DOC)
        gw = GWProvider(doc.kahler)
        for cutoff in (2, 3, 4):
            factor, records = correction_details(doc.fan, doc.kahler, gw, cutoff)
            W = corrected_potential(doc.fan, doc.kahler, gw, cutoff)
            expected = laurent({(1, 0): {(0, 0): 1}, (0, 1): {(0, 0): 1},
                                (-1, -2): {(1, 2): 1}, (0, -1): {(0, 1): 1, (1, 1): 1}})
            assert W == expected, "potential differs from the closed form"
            assert factor == QPoly(2, {(0, 0): 1, (1, 0): 1})
        payload = potential_to_document(W, branch="corrected", fandoc=doc,
                                        cutoff=4, correction=factor,
                                        gw_records=records)
        assert payload["correction"] == [
            {"q": [0, 0], "value": "1"}, {"q": [1, 0], "value": "1"},
        ]
        assert time.perf_counter() - start < 1.0, "runtime budget exceeded"


def test_criterion_2_open_invariants_reported():
    with criterion(2, "open invariants c(beta0 + k alpha) are 1, 1, 0, 0, 0, 0"):
        k = hirzebruch2_kahler()
        gw = GWProvider(k)
        alpha = (-2, 1, 1, 0)
        reported = []
        for multiple in range(6):
            cls = tuple(multiple * x for x in alpha)
            reported.append(gw.open_invariant(cls))
        assert reported[0] == Fraction(1)   # basic disk, no table consulted
        assert reported[1] == Fraction(1)
        assert reported[2:] == [Fraction(0)] * 4
        print("  open invariants:",
              ", ".join(f"c(beta0+{m}*alpha) = {v}" for m, v in enumerate(reported)))


def test_criterion_3_bundle_effective_structure():
    with criterion(3, "bundle effective cone = fiber class + degree-0 lifts"):
        start = time.perf_counter()
        for base in (projective_line(), projective_plane(), p1_times_p1()):
            x = projectivize_canonical(base)
            fiber = fiber_class(x)
            lifts = {push_h2(base, rel.coords) for rel in base.primitive_relations}
            generators = {rel.coords for rel in x.primitive_relations}
            assert generators == {fiber} | lifts
            assert chern_degree(fiber) == 2
            for lift in lifts:
                assert chern_degree(lift) == 0
            assert classify_positivity(x) is Positivity.SEMI_FANO_NOT_FANO
        assert time.perf_counter() - start < 1.0, "runtime budget exceeded"


def test_criterion_4_positivity_battery():
    with criterion(4, "positivity classification battery"):
        expected = [
            (projective_line(), Positivity.FANO),
            (projective_plane(), Positivity.FANO),
            (p1_times_p1(), Positivity.FANO),
            (hirzebruch2(), Positivity.SEMI_FANO_NOT_FANO),
            (projectivize_canonical(projective_plane()),
             Positivity.SEMI_FANO_NOT_FANO),
            (validate_fan(2, [(1, 0), (0, 1), (-1, -3), (0, -1)]),
             Positivity.NOT_NEF),
        ]
        for fan, want in expected:
            assert classify_positivity(fan) is want, (fan.rays, want)


def test_criterion_5_fan_convention_equivalence():
    with criterion(5, "bundle-built F2 is unimodular-equivalent to the "
                      "moment-polytope convention"):
        built = projectivize_canonical(projective_line())
        reference = hirzebruch2()
        T = unimodular_map_search(built.rays, built.maximal_cones,
                                  reference.rays, reference.maximal_cones)
        assert T is not None
        assert abs(matrix_det(T)) == 1
        image_rays = [
            tuple(sum(T[i][j] * r[j] for j in range(2)) for i in range(2))
            for r in built.rays
        ]
        # re-validate the image fan with the transported cone structure
        image = validate_fan(2, image_rays, built.maximal_cones)
        lookup = {r: i for i, r in enumerate(reference.rays)}
        remapped = sorted(
            tuple(sorted(lookup[image_rays[i]] for i in cone))
            for cone in image.maximal_cones
        )
        assert sorted(image_rays) == sorted(reference.rays)
        assert remapped == list(reference.maximal_cones)


def test_criterion_6_critical_point_counts():
    with criterion(6, "critical point counts 2/3/4/4 at q = 0.01, residuals "
                      "< 1e-9, gradient vs finite differences"):
        start = time.perf_counter()
        cases = []
        p1 = projective_line()
        k1 = KahlerData(p1, ["0", "-t"])
        cases.append((k1, hori_vafa(p1, k1), {"t": RAT_T}, 2))
        p2 = projective_plane()
        k2 = KahlerData(p2, ["0", "0", "-t"])
        cases.append((k2, hori_vafa(p2, k2), {"t": RAT_T}, 3))
        pp = p1_times_p1()
        kpp = KahlerData(pp, ["0", "-ta", "0", "-tb"])
        cases.append((kpp, hori_vafa(pp, kpp), {"ta": RAT_T, "tb": RAT_T}, 4))
        kf2 = hirzebruch2_kahler()
        wf2 = corrected_potential(kf2.fan, kf2, GWProvider(kf2), 2)
        cases.append((kf2, wf2, {"t1": RAT_T, "t2": RAT_T}, 4))

        for k, W, params, want in cases:
            t = [float(a.subs(params)) for a in k.basis_areas()]
            options = SolverOptions(moduli_per_coord=moduli_from_polytope(k, params))
            report = find_critical_points(W, t, options)
            assert report.deduped == want, (k.fan.rays, report.deduped)
            assert all(r < 1e-9 for r in report.residuals)

        rng = random.Random(6)
        samples = 0
        while samples < 100:
            k, W, params, _ = cases[samples % len(cases)]
            t = [float(a.subs(params)) for a in k.basis_areas()]
            n = W.zvars
            z = [cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0.0, 2 * math.pi))
                 for _ in range(n)]
            exact = gradient(W, z, t)
            approx = fd_log_gradient(W, z, t)
            err = max(abs(a - b) for a, b in zip(exact, approx))
            assert err / max(1.0, max(abs(g) for g in exact)) < 1e-6
            samples += 1
        assert time.perf_counter() - start < 10.0, "runtime budget exceeded"


def test_criterion_7_collection_oracle_equivalence():
    with criterion(7, "pruned primitive collections equal brute force on 50 "
                      "random fans"):
        rng = random.Random(2024)
        for _ in range(50):
            fan = random_smooth_2d_fan(rng, max_rays=10)
            pruned = sorted(fan.primitive_collections, key=lambda s: (len(s), s))
            assert pruned == brute_force_primitive_collections(fan)


def test_criterion_8_area_identities():
    with criterion(8, "sphere areas are t1/t2 symbolically; basic disk areas "
                      "positive at 100 interior points"):
        from toricmirror.linform import LinForm

        k = hirzebruch2_kahler()
        areas = (LinForm(0, {"t1": 1}), LinForm(0, {"t2": 1}))
        assert (sphere_area(k, (-2, 1, 1, 0)), sphere_area(k, (1, 0, 0, 1))) == areas
        # the library's areas of the same two classes, its q-basis
        assert k.q_basis == ((-2, 1, 1, 0), (1, 0, 0, 1)) and k.basis_areas() == areas
        rng = random.Random(8)
        params = {"t1": Fraction(1), "t2": Fraction(1)}
        vertices = moment_vertices(k, params)
        for _ in range(100):
            weights = [Fraction(rng.randint(1, 100)) for _ in vertices]
            total = sum(weights)
            x = tuple(sum(w * v[i] for w, v in zip(weights, vertices)) / total
                      for i in range(2))
            for i in range(4):
                beta = tuple(1 if j == i else 0 for j in range(4))
                assert disk_area(k, beta, x).subs(params) > 0
