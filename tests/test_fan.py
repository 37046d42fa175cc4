"""Fan validation, primitive collections/relations, positivity, effective cone."""

import math
import operator
import random
from collections import Counter
from itertools import combinations

import pytest
import sympy
from hypothesis import given, strategies as st

from conftest import (
    brute_force_primitive_collections,
    cone_coefficients,
    effective_classes_up_to,
    hirzebruch,
    hnf_homology_basis_test,
    matrix_det,
    p1_times_p1,
    pairwise_overlap_oracle,
    per_cone_hnf_fan,
    projective_line,
    projective_plane,
    random_smooth_2d_fan,
    random_unimodular,
    recipe_lambdas,
    spans_cone,
    validation_outcome,
)
from test_potential import BUNDLES, catalog_bases, in_three_charts
from toricmirror import fan as fan_module
from toricmirror.bundle import default_q_basis, projectivize_canonical
from toricmirror.errors import (
    BadFaceIntersection,
    DimensionMismatch,
    IncompleteFan,
    NonPrimitiveRay,
    NonUnimodularCone,
)
from toricmirror.fan import (
    Positivity,
    chern_degree,
    classify_positivity,
    infer_cones_2d,
    validate_fan,
)
from toricmirror.kahler import KahlerData

F2_H = (1, 0, 0, 1)
F2_ALPHA = (-2, 1, 1, 0)

# (dimension, rays, cones) whose first cone is not unimodular: collinear
# rays (|det| 0), and a 3-D cone of determinant -2
NON_UNIMODULAR = {
    "collinear": (2, [(1, 0), (-1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)]),
    "det-minus-2": (3, [(0, 1, 0), (1, 0, 0), (1, 1, 2), (-1, -1, -1)],
                    list(combinations(range(4), 3))),
}


class TestValidation:
    def test_plane_fan_valid(self, p2):
        assert p2.nrays == 3
        assert p2.maximal_cones == ((0, 1), (0, 2), (1, 2))

    def test_f2_cones_inferred_from_angular_order(self, f2):
        assert f2.maximal_cones == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_inferred_cones_follow_the_float_angle(self):
        # the exact key orders small rays as their angle in [0, 2*pi) does;
        # a gap between neighbours in that order is an incomplete fan
        rng = random.Random(11)
        for _ in range(300):
            rays = set()
            target = rng.randint(3, 9)
            while len(rays) < target:
                v = (rng.randint(-4, 4), rng.randint(-4, 4))
                if v != (0, 0) and math.gcd(*v) == 1:
                    rays.add(v)
            rays = list(rays)
            order = sorted(range(len(rays)),
                           key=lambda i: math.atan2(rays[i][1], rays[i][0]) % (2 * math.pi))
            pairs = [(order[k], order[(k + 1) % len(order)]) for k in range(len(order))]
            if all(rays[i][0] * rays[j][1] - rays[i][1] * rays[j][0] > 0 for i, j in pairs):
                assert infer_cones_2d(rays) == sorted(tuple(sorted(p)) for p in pairs)
            else:
                with pytest.raises(IncompleteFan):
                    infer_cones_2d(rays)

    def test_two_opposite_rays_incomplete(self):
        with pytest.raises(IncompleteFan):
            validate_fan(2, [(1, 0), (-1, 0)])

    def test_half_plane_gap_incomplete(self):
        with pytest.raises(IncompleteFan):
            validate_fan(2, [(1, 0), (1, 1), (0, 1)])

    def test_non_primitive_ray(self):
        with pytest.raises(NonPrimitiveRay):
            validate_fan(2, [(2, 4), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])

    def test_duplicate_ray(self):
        with pytest.raises(NonPrimitiveRay):
            validate_fan(2, [(1, 0), (1, 0), (0, 1)], [(0, 1), (1, 2), (0, 2)])

    def test_non_unimodular_cone(self):
        # explicit cone spanning with determinant 2
        with pytest.raises(NonUnimodularCone):
            validate_fan(2, [(1, 0), (1, 2), (0, 1), (-1, -1)],
                         [(0, 1), (1, 2), (2, 3), (0, 3)])

    @pytest.mark.parametrize("name, det", [("collinear", 0), ("det-minus-2", -2)])
    def test_non_unimodular_message_names_cone_and_abs_det(self, name, det):
        dim, rays, cones = NON_UNIMODULAR[name]
        cone = cones[0]
        assert matrix_det([[rays[j][i] for j in cone] for i in range(dim)]) == det
        with pytest.raises(NonUnimodularCone) as exc:
            validate_fan(dim, rays, cones)
        assert str(exc.value) == f"cone {cone} has |det| {abs(det)}"

    def test_overlapping_cones_rejected(self):
        # cone {0,1} (first quadrant) overlaps cone {4,2} through (1,1)
        with pytest.raises(BadFaceIntersection):
            validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)],
                         [(0, 1), (2, 4), (2, 3), (0, 3)])

    def test_missing_cone_incomplete(self):
        with pytest.raises(IncompleteFan):
            validate_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])

    def test_cones_required_above_dim_2(self):
        with pytest.raises(IncompleteFan):
            validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)])

    @pytest.mark.parametrize("args, error, message", [
        pytest.param((0, [(1,)], [(0,)]), DimensionMismatch,
                     "fan dimension must be at least 1", id="dimension-0"),
        pytest.param((2, [], []), IncompleteFan, "a fan needs rays", id="no-rays"),
        pytest.param((2, [(1, 0), (0, 0), (-1, -1)], None), NonPrimitiveRay,
                     "the zero vector is not a ray", id="zero-ray"),
        pytest.param((2, [(1, 0), (0, 1), (-1, -1)], [(0, 0), (1, 2), (0, 2)]),
                     NonUnimodularCone, "cone (0, 0) repeats a ray", id="repeated-ray"),
        pytest.param((2, [(1, 0), (0, 1), (-1, -1)], []), IncompleteFan,
                     "a fan needs maximal cones", id="no-cones"),
    ])
    def test_degenerate_input_refused(self, args, error, message):
        with pytest.raises(error) as exc:
            validate_fan(*args)
        assert str(exc.value) == message

    def test_random_fans_validate(self):
        rng = random.Random(99)
        for _ in range(15):
            fan = random_smooth_2d_fan(rng)
            assert fan.nrays <= 10


# --- the local completeness check against the pairwise oracle ---

def _unimodular(rays, subset):
    n = len(rays[0])
    return abs(matrix_det([[rays[j][i] for j in subset] for i in range(n)])) == 1


def _compact(rays, cones):
    """Drop rays no cone uses, so the input reaches the completeness check."""
    used = sorted({i for c in cones for i in c})
    index = {old: new for new, old in enumerate(used)}
    return ([rays[i] for i in used],
            sorted(tuple(sorted(index[i] for i in c)) for c in cones))


def _mutants(rays, cones, rng):
    """Drop a cone, replace one, add one, and put a facet in three cones."""
    n = len(rays[0])
    cones = [tuple(c) for c in cones]
    fresh = [s for s in combinations(range(len(rays)), n)
             if s not in cones and _unimodular(rays, s)]
    k = rng.randrange(len(cones))
    out = [_compact(rays, cones[:k] + cones[k + 1:])]
    if fresh:
        out.append(_compact(rays, cones[:k] + cones[k + 1:] + [rng.choice(fresh)]))
        out.append(_compact(rays, cones + [rng.choice(fresh)]))
    facet = set(rng.sample(rng.choice(cones), n - 1))
    third = [s for s in fresh if facet <= set(s)]
    if third:
        out.append(_compact(rays, cones + [rng.choice(third)]))
    return out


def _random_chart(rays, cones, rng):
    """The same fan in a random bounded GL(n, Z) chart with shuffled rays."""
    n = len(rays[0])
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        T[i] = [a + c * b for a, b in zip(T[i], T[j])]
    rng.shuffle(T)
    order = list(range(len(rays)))
    rng.shuffle(order)
    index = {old: new for new, old in enumerate(order)}
    new_rays = [tuple(sum(row[k] * rays[old][k] for k in range(n)) for row in T)
                for old in order]
    return new_rays, [tuple(sorted(index[i] for i in c)) for c in cones]


def _agrees_with_oracle(rays, cones):
    """validate_fan and the pairwise oracle agree on the verdict, and on the
    error class when only one fault is present. Returns the fault kinds."""
    n = len(rays[0])
    faults = set()
    if pairwise_overlap_oracle(rays, cones) is not None:
        faults.add(BadFaceIntersection)
    facets = Counter(f for c in cones for f in combinations(c, n - 1))
    if any(count != 2 for count in facets.values()):
        faults.add(IncompleteFan)
    try:
        validate_fan(n, rays, cones)
        raised = None
    except (BadFaceIntersection, IncompleteFan) as exc:
        raised = type(exc)
    if not faults:
        assert raised is None, (rays, cones)
    elif len(faults) == 1:
        assert {raised} == faults, (rays, cones, raised)
    else:
        assert raised is not None, (rays, cones)
    return frozenset(faults)


def _cycle(rays):
    """2-D cones between consecutive rays of a closed cycle."""
    return [tuple(sorted((i, (i + 1) % len(rays)))) for i in range(len(rays))]


def _suspension(rays, cones):
    """The 2-D cones in the plane x3 = 0, coned to +e3 and to -e3."""
    lifted = [tuple(r) + (0,) for r in rays] + [(0, 0, 1), (0, 0, -1)]
    tips = (len(rays), len(rays) + 1)
    return lifted, [c + (tip,) for c in cones for tip in tips]


# eight unimodular cones winding three times around the origin: every ray
# in two cones on opposite sides, yet every point is covered three times
WOUND = [(1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0), (1, -1), (0, 1), (-1, -1)]
# a cycle that steps back from (0,-1) to (-1,-1): every ray in two cones,
# the point (1, N) covered once, but (-1,-2) covered three times
FOLDED = [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)]


P3_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
DP6_RAYS = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


class TestPairwiseOracleAgreement:
    def test_one_dimensional(self, p1):
        assert _agrees_with_oracle(p1.rays, p1.maximal_cones) == frozenset()
        (dropped,) = _mutants(p1.rays, p1.maximal_cones, random.Random(0))
        assert _agrees_with_oracle(*dropped) == {IncompleteFan}

    def test_random_2d_fans_and_mutants(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(30):
            fan = random_smooth_2d_fan(rng, max_rays=8)
            seen.add(_agrees_with_oracle(fan.rays, fan.maximal_cones))
            for rays, cones in _mutants(fan.rays, fan.maximal_cones, rng):
                seen.add(_agrees_with_oracle(rays, cones))
        assert {frozenset(), frozenset({IncompleteFan})} <= seen

    def test_bundles_in_random_charts_and_mutants(self, p1, p2, p1xp1):
        rng = random.Random(7)
        bases = [p1, p2, p1xp1, hirzebruch(1), validate_fan(2, DP6_RAYS)]
        seen = set()
        for base in bases:
            x = projectivize_canonical(base)
            for _ in range(3):
                rays, cones = _random_chart(x.rays, x.maximal_cones, rng)
                seen.add(_agrees_with_oracle(rays, cones))
                for mutant in _mutants(rays, cones, rng):
                    seen.add(_agrees_with_oracle(*mutant))
        assert frozenset() in seen
        assert frozenset({IncompleteFan}) in seen
        assert frozenset({IncompleteFan, BadFaceIntersection}) in seen

    def test_p3_bundle_and_mutants(self):
        p3 = validate_fan(3, P3_RAYS, list(combinations(range(4), 3)))
        x = projectivize_canonical(p3)
        rng = random.Random(3)
        rays, cones = _random_chart(x.rays, x.maximal_cones, rng)
        assert _agrees_with_oracle(rays, cones) == frozenset()
        for mutant in _mutants(rays, cones, rng):
            assert _agrees_with_oracle(*mutant)

    @pytest.mark.parametrize("rays", [WOUND, FOLDED], ids=["wound", "folded"])
    def test_overlap_with_paired_facets(self, rays):
        cones = _cycle(rays)
        assert _agrees_with_oracle(rays, cones) == {BadFaceIntersection}
        assert _agrees_with_oracle(*_suspension(rays, cones)) == {BadFaceIntersection}


# --- the wall walk against per-cone Hermite normal forms ---

def _hnf_calls(fn, *args):
    """(what fn returns or raises, the number of Hermite normal forms that
    fan.py takes meanwhile)."""
    calls = []
    real = fan_module.hermite_normal_form

    def counting(mat):
        calls.append(mat)
        return real(mat)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fan_module, "hermite_normal_form", counting)
        outcome = validation_outcome(fn, *args)
    return outcome, len(calls)


def _swap_any_cone(rays, cones, rng):
    """One cone replaced by a random set of n rays that is not a cone yet,
    unimodular or not; None when every such set is a cone."""
    cones = [tuple(c) for c in cones]
    fresh = [s for s in combinations(range(len(rays)), len(rays[0])) if s not in cones]
    if fresh:
        k = rng.randrange(len(cones))
        return cones[:k] + cones[k + 1:] + [rng.choice(fresh)]
    return None


def _walk_inputs():
    """(dimension, rays, cones) of the catalog bases and bundles in three
    GL(n, Z) charts, and above dimension 1 also with shuffled rays; random
    2-D fans, with cones inferred and given, and their mutants; and the
    bundle mutants of TestPairwiseOracleAgreement and its wound and folded
    cycles. Every fan also with one cone swapped for a random set of rays."""
    rng = random.Random(32)
    fans = [fan for _, fan in in_three_charts(catalog_bases(), 13)]
    fans += [fan for _, fan in BUNDLES]
    out = []
    for fan in fans:
        out.append((fan.dimension, fan.rays, fan.maximal_cones))
        if fan.dimension > 1:
            out.append((fan.dimension, *_random_chart(fan.rays, fan.maximal_cones, rng)))
    for _ in range(30):
        fan = random_smooth_2d_fan(rng, max_rays=8)
        out.append((2, fan.rays, None))
        out += [(2, rays, cones) for rays, cones in _mutants(fan.rays, fan.maximal_cones, rng)]
    p3 = validate_fan(3, P3_RAYS, list(combinations(range(4), 3)))
    bases = [projective_line(), projective_plane(), p1_times_p1(), hirzebruch(1),
             validate_fan(2, DP6_RAYS), p3]
    for base in bases:
        x = projectivize_canonical(base)
        for _ in range(3):
            rays, cones = _random_chart(x.rays, x.maximal_cones, rng)
            out += [(x.dimension, *mutant) for mutant in _mutants(rays, cones, rng)]
    for rays in (WOUND, FOLDED):
        out += [(2, rays, _cycle(rays)), (3, *_suspension(rays, _cycle(rays)))]
    swapped = [(dim, rays, _swap_any_cone(rays, cones, rng))
               for dim, rays, cones in out if cones is not None]
    return out + [args for args in swapped if args[2] is not None]


# (dimension, rays, cones, error, message, Hermite normal forms taken) of
# fans refused on each branch of the walk
WALK_REFUSALS = {
    # (0, 1) reaches (1, 2) with c_k = -2 and (0, 2) with c_k = -1
    "reached-det-2": (2, [(1, 0), (0, 1), (-2, -1)], [(0, 1), (1, 2), (0, 2)],
                      NonUnimodularCone, "cone (1, 2) has |det| 2", 1),
    # (0, -1) lies on the wall of (0, 1) opposite (1, 0): c_k = 0
    "reached-det-0": (2, [(1, 0), (0, 1), (0, -1)], [(0, 1), (0, 2), (1, 2)],
                      NonUnimodularCone, "cone (1, 2) has |det| 0", 1),
    # (1, 1) lies on the side of (0, 1)'s wall that (0, 1) does: c_k = +1
    "same-side": (2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2), (0, 3)],
                  BadFaceIntersection,
                  "cones (0, 1) and (0, 3) lie on the same side of their common facet (0,)", 1),
    "no-neighbour": (2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (2, 3)],
                     IncompleteFan, "facets not shared by exactly two maximal cones: "
                     "[((0,), 1), ((1,), 1), ((2,), 1), ((3,), 1)]", 2),
    "disconnected": (2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
                     [(0, 1), (1, 2), (3, 4), (4, 5)],
                     IncompleteFan, "facets not shared by exactly two maximal cones: "
                     "[((0,), 1), ((2,), 1), ((3,), 1), ((5,), 1)]", 2),
    # the walk from (0, 1) reaches (1, 3) before (0, 2), and stops at both
    "first-bad-in-sorted-order": (2, [(1, 0), (0, 1), (1, -2), (-2, 1)],
                                  [(0, 1), (0, 2), (1, 3), (2, 3)],
                                  NonUnimodularCone, "cone (0, 2) has |det| 2", 1),
}


class TestWallWalk:
    def test_agrees_with_per_cone_hnf(self):
        seen = set()
        for args in _walk_inputs():
            outcome = validation_outcome(validate_fan, *args)
            assert outcome == validation_outcome(per_cone_hnf_fan, *args), args
            seen.add(outcome[1] if outcome[0] == "refused" else None)
        assert seen == {None, NonUnimodularCone, IncompleteFan, BadFaceIntersection}

    @pytest.mark.parametrize("name", list(WALK_REFUSALS))
    def test_refusals_on_each_branch(self, name):
        dim, rays, cones, error, message, hnf = WALK_REFUSALS[name]
        outcome = ("refused", error, message)
        assert _hnf_calls(validate_fan, dim, rays, cones) == (outcome, hnf)
        assert validation_outcome(per_cone_hnf_fan, dim, rays, cones) == outcome

    def test_first_bad_cone_is_named_though_reached_later(self):
        dim, rays, cones, *_ = WALK_REFUSALS["first-bad-in-sorted-order"]
        by_facet = {}
        for cone in cones:
            for k in range(dim):
                by_facet.setdefault(cone[:k] + cone[k + 1:], []).append(cone)
        duals = {}
        fan_module._walk_walls((0, 1), rays, by_facet, duals, [])
        assert list(duals)[1:] == [(1, 3), (0, 2)]
        assert [duals[c] for c in [(1, 3), (0, 2)]] == [2, 2]

    def test_one_normal_form_per_valid_fan(self):
        rng = random.Random(5)
        fans = [fan for _, fan in BUNDLES] + [random_smooth_2d_fan(rng) for _ in range(10)]
        for fan in fans:
            outcome = ("fan", fan, list(fan.dual_bases.items()))
            assert _hnf_calls(validate_fan, fan.dimension, fan.rays, fan.maximal_cones) \
                == (outcome, 1)


def _face_search(fan, collection):
    """Focus and multiplicities by trying every face of the fan in order of
    dimension: the first face whose cone contains the collection's ray sum."""
    s = [sum(fan.rays[i][k] for i in collection) for k in range(fan.dimension)]
    for dim in range(fan.dimension + 1):
        for face in sorted({f for c in fan.maximal_cones for f in combinations(c, dim)}):
            coeffs = cone_coefficients(s, [fan.rays[j] for j in face])
            if coeffs is not None:
                return face, coeffs
    return None


def _dual_basis_inputs():
    """30 random 2-D fans, and P(K_Y+O) for Y = P1, P2, P1xP1, F1, dP6 and
    P3, each in two random GL(n, Z) charts."""
    rng = random.Random(41)
    fans = [random_smooth_2d_fan(rng, max_rays=8) for _ in range(30)]
    p3 = validate_fan(3, P3_RAYS, list(combinations(range(4), 3)))
    bases = [projective_line(), projective_plane(), p1_times_p1(),
             hirzebruch(1), validate_fan(2, DP6_RAYS), p3]
    for base in bases:
        x = projectivize_canonical(base)
        for _ in range(2):
            rays, cones = _random_chart(x.rays, x.maximal_cones, rng)
            fans.append(validate_fan(x.dimension, rays, cones))
    return fans


class TestDualBases:
    @pytest.fixture(scope="class")
    def fans(self):
        return _dual_basis_inputs()

    def test_inverse_of_each_ray_matrix(self, fans):
        for fan in fans:
            n = fan.dimension
            assert list(fan.dual_bases) == list(fan.maximal_cones)
            for cone, dual in fan.dual_bases.items():
                cols = [[fan.rays[j][i] for j in cone] for i in range(n)]
                product = [[sum(dual[i][k] * cols[k][j] for k in range(n))
                            for j in range(n)] for i in range(n)]
                assert product == [[int(i == j) for j in range(n)] for i in range(n)]
                assert sympy.Matrix(cols).inv() == sympy.Matrix(dual)

    def test_relations_match_face_search(self, fans):
        for fan in fans:
            for rel in fan.primitive_relations:
                focus, mults = _face_search(fan, rel.collection)
                assert rel.focus == focus
                assert rel.multiplicities == mults


def _minimal_non_face_inputs():
    """The catalog bases and their bundles in three GL(n, Z) charts (the
    4-D P1^3 and P1xdP6 bundles among them), newly built P(K_Y+O) over
    every charted base, and 20 random 2-D fans."""
    bases = [fan for _, fan in in_three_charts(catalog_bases(), 13)]
    rng = random.Random(34)
    return (bases + [fan for _, fan in BUNDLES] + [projectivize_canonical(b) for b in bases]
            + [random_smooth_2d_fan(rng) for _ in range(20)])


class TestHomology:
    def test_f2_spans_h_and_alpha(self, f2):
        basis = f2.homology_basis
        assert len(basis) == 2
        from test_lattice import same_lattice

        assert same_lattice(basis, [F2_H, F2_ALPHA])

    def test_p1xp1(self, p1xp1):
        from test_lattice import same_lattice

        assert same_lattice(p1xp1.homology_basis, [(1, 1, 0, 0), (0, 0, 1, 1)])

    def test_plane(self, p2):
        assert p2.homology_basis == ((1, 1, 1),)

    def test_every_class_in_kernel(self, f2):
        for b in f2.homology_basis:
            assert f2.is_homology_class(b)


def _basis_cases(basis, rng):
    """The basis, three unimodular transforms of it, then one class
    doubled, one class negated, a repeated class (rank > 1), a dependent
    set, one class too few, one too many, and a vector off the lattice of
    classes; with whether each is a basis."""
    r, b, k = len(basis), list(basis), rng.randrange(len(basis))

    def swap(v):
        return b[:k] + [tuple(v)] + b[k + 1:]

    def combine(row):
        return tuple(sum(c * v[i] for c, v in zip(row, b)) for i in range(len(b[0])))

    others = b[:k] + b[k + 1:] or [(0,) * len(b[0])]
    cases = [b] + [list(map(combine, random_unimodular(rng, r))) for _ in range(3)]
    cases += [swap(2 * x for x in b[k]), swap(-x for x in b[k])]
    cases += [swap(b[(k + 1) % r])] if r > 1 else []
    cases += [swap(map(sum, zip(*others))), b[:-1], b + [b[0]], swap((b[k][0] + 1,) + b[k][1:])]
    return cases, [True] * 4 + [False, True] + [False] * (len(cases) - 6)


class TestHomologyBasisTest:
    def test_matches_the_hnf_test_in_three_charts(self):
        # each base and bundle keeps its cases in a chart with shuffled
        # rays, so the first maximal cone, the one the test reads, moves
        rng = random.Random(34)
        fans = list(catalog_bases().values())
        fans += [projectivize_canonical(base) for base in fans]
        for fan in fans:
            basis = default_q_basis(fan) or fan.homology_basis
            cases, expected = _basis_cases(basis, rng)
            moved = []
            for chart in range(3):
                order, rays = list(range(fan.nrays)), fan.rays
                if chart:
                    rng.shuffle(order)
                    T = random_unimodular(rng, fan.dimension)
                    rays = [tuple(sum(map(operator.mul, row, fan.rays[i])) for row in T)
                            for i in order]
                index = {old: new for new, old in enumerate(order)}
                charted = validate_fan(fan.dimension, rays,
                                       [[index[i] for i in c] for c in fan.maximal_cones])
                moved.append({order[i] for i in charted.maximal_cones[0]}
                             != set(fan.maximal_cones[0]))
                for case, want in zip(cases, expected):
                    case = [tuple(v[i] for i in order) for v in case]
                    got = charted.is_homology_basis(case)
                    assert got == want == hnf_homology_basis_test(charted, case), (fan, case)
            assert any(moved), fan

    def test_recipe_bases_leave_the_kernel_basis_unbuilt(self):
        fallbacks = 0
        for base in catalog_bases().values():
            x = projectivize_canonical(base)
            basis = default_q_basis(x)
            KahlerData(x, recipe_lambdas(x))
            if basis is None:  # dP6 and P1xdP6: the kernel basis is the q-basis
                fallbacks += 1
                assert "homology_basis" in vars(x)
                continue
            KahlerData(x, recipe_lambdas(x), q_basis=basis)
            assert "homology_basis" not in vars(x)
        assert fallbacks == 2


class TestPrimitiveCollections:
    def test_plane(self, p2):
        assert p2.primitive_collections == ((0, 1, 2),)

    def test_f2(self, f2):
        assert f2.primitive_collections == ((0, 3), (1, 2))

    def test_p1xp1(self, p1xp1):
        assert p1xp1.primitive_collections == ((0, 1), (2, 3))

    def test_definition_holds(self, f2, p2, p1xp1):
        for fan in (f2, p2, p1xp1):
            for coll in fan.primitive_collections:
                assert not spans_cone(fan, coll)
                for i in range(len(coll)):
                    assert spans_cone(fan, coll[:i] + coll[i + 1:])

    def test_matches_brute_force_on_random_fans(self):
        rng = random.Random(5)
        for _ in range(10):
            fan = random_smooth_2d_fan(rng)
            pruned = sorted(fan.primitive_collections, key=lambda s: (len(s), s))
            assert pruned == brute_force_primitive_collections(fan)

    def test_scan_stops_at_dimension_plus_one(self):
        # P2 blown up to 17 rays: every collection is a face plus one ray,
        # so none has more than dimension + 1 rays
        rays = [(1, 0), (0, 1), (-1, -1)]
        k = 0
        while len(rays) < 17:
            u, w = rays[k], rays[(k + 1) % len(rays)]
            rays.insert(k + 1, (u[0] + w[0], u[1] + w[1]))
            k = (k + 2) % len(rays)
        fan = validate_fan(2, rays)
        assert max(map(len, fan.primitive_collections)) <= 3
        assert list(fan.primitive_collections) == brute_force_primitive_collections(fan)

    @pytest.mark.parametrize("fan", _minimal_non_face_inputs())
    def test_minimal_non_faces_match_brute_force(self, fan):
        assert list(fan.primitive_collections) == brute_force_primitive_collections(fan)
        for rel in fan.primitive_relations:
            focus, mults = _face_search(fan, rel.collection)
            coords = [0] * fan.nrays
            for i in rel.collection:
                coords[i] = 1
            for j, m in zip(focus, mults):
                coords[j] = -m
            assert rel == (rel.collection, focus, tuple(mults), tuple(coords), sum(coords))


def relation_of(fan, collection):
    return next(r for r in fan.primitive_relations if r.collection == collection)


class TestPrimitiveRelations:
    def test_f2_base_relation(self, f2):
        rel = relation_of(f2, (1, 2))
        assert rel.focus == (0,)
        assert rel.multiplicities == (2,)
        assert rel.coords == F2_ALPHA
        assert rel.degree == 0

    def test_f2_fiber_relation(self, f2):
        rel = relation_of(f2, (0, 3))
        assert rel.focus == ()
        assert rel.coords == F2_H
        assert rel.degree == 2

    def test_plane_relation(self, p2):
        rel = relation_of(p2, (0, 1, 2))
        assert rel.focus == ()
        assert rel.coords == (1, 1, 1)
        assert rel.degree == 3

    def test_collection_focus_disjoint_on_random_fans(self):
        rng = random.Random(17)
        for _ in range(10):
            fan = random_smooth_2d_fan(rng)
            for rel in fan.primitive_relations:
                assert not set(rel.collection) & set(rel.focus)
                assert all(m > 0 for m in rel.multiplicities)
                assert fan.is_homology_class(rel.coords)
                assert rel.degree == sum(rel.coords)


class TestChernDegree:
    def test_examples(self):
        assert chern_degree(F2_H) == 2
        assert chern_degree(F2_ALPHA) == 0
        assert chern_degree((0, 0, 0, 0)) == 0

    @given(st.lists(st.integers(-9, 9), min_size=4, max_size=4),
           st.lists(st.integers(-9, 9), min_size=4, max_size=4))
    def test_additive(self, a, b):
        total = [x + y for x, y in zip(a, b)]
        assert chern_degree(total) == chern_degree(a) + chern_degree(b)


class TestPositivity:
    def test_battery(self, p1, p2, p1xp1, f2, f3):
        assert classify_positivity(p1) is Positivity.FANO
        assert classify_positivity(p2) is Positivity.FANO
        assert classify_positivity(p1xp1) is Positivity.FANO
        assert classify_positivity(f2) is Positivity.SEMI_FANO_NOT_FANO
        assert classify_positivity(f3) is Positivity.NOT_NEF

    def test_f3_bad_relation_degree(self, f3):
        degrees = sorted(r.degree for r in f3.primitive_relations)
        assert degrees == [-1, 2]

    def test_fano_implies_positive_effective_degrees(self, p1, p2, p1xp1):
        for fan in (p1, p2, p1xp1):
            for cutoff in range(5):
                for cls in effective_classes_up_to(fan, cutoff):
                    if any(cls):
                        assert chern_degree(cls) > 0


class TestEffectiveClasses:
    def test_f2_cutoffs(self, f2):
        zero = (0, 0, 0, 0)
        assert effective_classes_up_to(f2, 0) == [zero]
        assert set(effective_classes_up_to(f2, 1)) == {zero, F2_H, F2_ALPHA}
        expect2 = {
            zero, F2_H, F2_ALPHA,
            tuple(2 * x for x in F2_H),
            tuple(2 * x for x in F2_ALPHA),
            tuple(h + a for h, a in zip(F2_H, F2_ALPHA)),
        }
        assert set(effective_classes_up_to(f2, 2)) == expect2

    def test_monotone_in_cutoff(self, f2, p2):
        for fan in (f2, p2):
            prev = set()
            for cutoff in range(5):
                cur = set(effective_classes_up_to(fan, cutoff))
                assert prev <= cur
                prev = cur

    def test_every_class_is_a_kernel_vector(self, f2):
        for cls in effective_classes_up_to(f2, 3):
            assert f2.is_homology_class(cls)


class TestForcedDivisors:
    def test_examples(self, f2):
        # a class pairing negatively with D_i forces its curves into D_i; on
        # a primitive relation the negative coordinates sit on the focus
        forced = {rel.coords: tuple(i for i, a in enumerate(rel.coords) if a < 0)
                  for rel in f2.primitive_relations}
        assert forced == {F2_ALPHA: (0,), F2_H: ()}
        assert all(forced[rel.coords] == rel.focus for rel in f2.primitive_relations)
