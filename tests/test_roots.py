"""The factored solve: W's structure record, closed-form factors against
their formulas, and every root set against the multistart grid on W whole."""

import cmath
import math
import random
import re

import pytest

from conftest import (
    dual_kahler,
    fd_log_gradient,
    grid_report,
    laurent,
    projective_line,
    projective_plane,
)
from test_critical import (
    SECTIONS,
    T001,
    assert_point_sets_match_relative,
    bundle_setup,
    cone_point,
    grid_solve,
    rounding_bound,
    solve,
    spy_newton,
)
from test_integer_solves import DP6, F1, product_fan
from test_moment_polytope import P3
from test_potential import BUNDLES, catalog_bases, in_three_charts
from toricmirror.bundle import decompose_bundle, projectivize_canonical
from toricmirror import roots
from toricmirror.critical import SolverOptions, find_critical_points, moduli_from_polytope
from toricmirror.documents import critical_report_to_document
from toricmirror.errors import NoConvergence, RootBoundExceeded
from toricmirror.fan import validate_fan
from toricmirror.gw import GWProvider
from toricmirror.lattice import unit_grading
from toricmirror.laurent import numeric_terms
from toricmirror.laurent import evaluate, gradient
from toricmirror.potential import corrected_potential, hori_vafa
from toricmirror.roots import (
    _exponent_structure,
    _factor_moduli,
    _polyhedral_starts,
    _thin,
    candidate,
    compile_terms,
)

LINE = projective_line()
# the crit-sweep classes: P(K_Y+O) over these bases (F2 is the P1 one)
SWEEP_BASES = {
    "P1": LINE, "P2": projective_plane(), "F1": validate_fan(2, F1),
    "dP6": validate_fan(2, DP6), "P1^3": product_fan(product_fan(LINE, LINE), LINE),
    "P1xdP6": product_fan(LINE, validate_fan(2, DP6)),
}
# seeded charts of the crit-sweep classes, in which the grid on W whole
# finds every root; the steeper ones are in test_steep_charts_reach_the_bound
SWEEP_CHARTS = in_three_charts(
    {name: projectivize_canonical(base) for name, base in SWEEP_BASES.items()}, 5)
# (dimension, closed form?) of each factor of a catalog base's Hori-Vafa W,
# and whether it has a fiber grading; F1's and dP6's W does not factor: it
# is one Newton factor
FANO_FACTORS = {
    "P1": (True, []), "P2": (False, [(2, True)]), "F1": (False, [(2, False)]),
    "P1xP1": (False, [(1, True), (1, True)]), "dP6": (False, [(2, False)]),
    "P3": (False, [(3, True)]),
    "P1^3": (False, [(1, True)] * 3), "P1xdP6": (False, [(1, True), (2, False)]),
}

# the Fano bases whose Hori-Vafa W does not factor, in three charts
UNFACTORED = [(name, fan) for name, fan in in_three_charts(catalog_bases(), 13)
         if name.split("-")[0] in ("F1", "dP6")]


def structure_of(poly):
    return _exponent_structure(tuple(sorted(poly.terms)))


def chart_setup(charts, name, seed):
    """The named bundle chart's corrected potential at cutoff 2, its
    structure record and W's terms in its chart as the evaluator takes
    them, at the seeded Kahler-cone point, with t there."""
    k = dual_kahler(charts[name])
    W = corrected_potential(charts[name], k, GWProvider(k, assume_zero=True), 2)
    params = cone_point(k, seed)
    t = [float(a.subs(params)) for a in k.basis_areas()]
    structure = structure_of(W)
    terms = compile_terms(numeric_terms(W, t), structure.images, structure.chart)
    return k, W, params, t, structure, terms


def to_chart(structure, w) -> tuple:
    """The chart log point of the log point w = log z: M^-T w."""
    return tuple(sum(row[k] * x for row, x in zip(structure.inverse, w)) for k in range(len(w)))


def kinds(structure):
    return sorted((f.dim, f.simplex is not None) for f in structure.factors)


def assert_values_match(values, expected, rel=1e-9):
    unmatched = list(expected)
    assert len(values) == len(unmatched)
    for value in values:
        best = min(unmatched, key=lambda e: abs(value - e))
        assert abs(value - best) <= rel * abs(best)
        unmatched.remove(best)


class TestStructure:
    @pytest.mark.parametrize("name, fan", SECTIONS, ids=[name for name, _ in SECTIONS])
    def test_bound_is_the_factor_product(self, name, fan):
        # pinned here, not checked at run time: the bound of W is twice the
        # product of its factor bounds on P(K_Y+O), and that product on the
        # Fano fans that factor
        structure = _exponent_structure(tuple(sorted(fan.rays)))
        if name.startswith("bundle-"):
            assert structure.fiber is not None
        lift = 2 if structure.fiber is not None else 1
        assert structure.bound == lift * math.prod(f.bound for f in structure.factors)

    @pytest.mark.parametrize("name, fan", SECTIONS, ids=[name for name, _ in SECTIONS])
    def test_catalog_factors(self, name, fan):
        structure = _exponent_structure(tuple(sorted(fan.rays)))
        base = name.split("-")[1]
        expected = FANO_FACTORS[base]
        if name.startswith("bundle-"):
            # the base is the factors; P1 is a simplex
            expected = (True, [(1, True)] if base == "P1" else expected[1])
        elif base in ("F1", "dP6"):
            assert structure.chart == ((1, 0), (0, 1))
        assert (structure.fiber is not None, kinds(structure)) == (expected[0], sorted(expected[1]))

    @pytest.mark.parametrize("name, fan", BUNDLES, ids=[name for name, _ in BUNDLES])
    def test_chart_is_unimodular_and_graded(self, name, fan):
        # the grading is decompose_bundle's; the chart
        # sends every term to the block of its factor, or to the fiber
        structure = _exponent_structure(tuple(sorted(fan.rays)))
        chart, inverse = structure.chart, structure.inverse
        n = fan.dimension
        assert chart[-1] == decompose_bundle(fan).chart[-1]
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inverse)]
                for row in chart] == [[int(i == j) for j in range(n)] for i in range(n)]
        exponents = sorted(fan.rays)
        head, tail = structure.fiber
        image = [tuple(sum(r * x for r, x in zip(row, a)) for row in chart) for a in exponents]
        assert image[head] == (0,) * (n - 1) + (1,) and image[tail] == (0,) * (n - 1) + (-1,)
        for factor in structure.factors:
            for i, a in factor.terms:
                block = (0,) * factor.first + a + (0,) * (n - 1 - factor.first - factor.dim)
                assert image[i] == block + (1,)

    def test_unit_grading(self):
        assert unit_grading([(1, 0), (0, 1), (2, -1)]) == (1, 1)
        assert unit_grading([(1, 0), (0, 1), (1, 1)]) is None  # no functional
        assert unit_grading([(2, 0), (0, 1)]) is None  # not an integer one
        assert unit_grading([(1, 1), (2, 2)]) is None  # the points span a line

    def test_does_not_factor(self):
        # dP6 and F1 are one Newton factor over the identity chart, with no
        # fiber grading; so is z1^2 + z1^-2 + z2 + 1/z2, which splits over
        # Q but not over Z; z1 + z1^2 + z2 has the factor z2, which has no
        # critical point: its record has no chart and carries the reason
        # the solve refuses it for
        for W in (laurent({a: {(): 1} for a in DP6}), laurent({a: {(): 1} for a in F1}),
                  laurent({(2, 0): {(): 1}, (-2, 0): {(): 1}, (0, 1): {(): 1},
                           (0, -1): {(): 1}})):
            structure = structure_of(W)
            assert (structure.chart, structure.fiber, kinds(structure)) == (
                ((1, 0), (0, 1)), None, [(2, False)])
            assert structure.refusal is None
        structure = structure_of(laurent({(1, 0): {(): 1}, (2, 0): {(): 1}, (0, 1): {(): 1}}))
        assert structure.chart is None and structure.factors == ()
        assert structure.refusal == ("potential has no isolated critical points: the Newton "
                                     "polytope of one of its factors is not full-dimensional")

    @pytest.mark.parametrize("max_starts", [4096, 5])
    @pytest.mark.parametrize("name, fan", UNFACTORED, ids=[name for name, _ in UNFACTORED])
    def test_one_newton_factor_is_the_solve_on_w_whole(self, name, fan, max_starts):
        # a W that does not factor is solved as one Newton factor over the
        # identity chart: the same report, field by field and bit for bit,
        # as one Newton system on W whole from its polyhedral starts
        k = dual_kahler(fan)
        W = hori_vafa(fan, k)
        for seed in range(10):
            report, t = solve(k, W, cone_point(k, seed), max_starts=max_starts)
            assert report == grid_report(W, t, report.options, polyhedral=True)

    def test_newton_factors_of_the_sweep(self):
        # the corrected potentials keep the Hori-Vafa structure: only the F1
        # and dP6 bases need the grid
        for name, base in SWEEP_BASES.items():
            k, W, _ = bundle_setup(base)
            structure = structure_of(W)
            assert structure.chart is not None
            assert (any(f.simplex is None for f in structure.factors)
                    == (name in ("F1", "dP6", "P1xdP6")))

    def test_factor_seeds_in_the_construction_chart(self):
        # the dP6 factor of P(K_{P1xdP6}+O) takes W's first two coordinates:
        # its seeds are theirs
        k, W, params = bundle_setup(SWEEP_BASES["P1xdP6"])
        structure = structure_of(W)
        moduli = moduli_from_polytope(k, params)
        (newton,) = [f for f in structure.factors if f.simplex is None]
        assert _factor_moduli(structure, newton, moduli) == moduli[newton.first:
                                                                   newton.first + newton.dim]

    def test_factor_seeds_fold_and_thin(self):
        # in a chart where a factor coordinate draws on two of W's, its
        # seeds are the thinned products, no more than the longer list
        name, fan = SWEEP_CHARTS[-1]
        assert name == "P1xdP6-chart2"
        k = dual_kahler(fan)
        W = corrected_potential(fan, k, GWProvider(k, assume_zero=True), 2)
        structure = structure_of(W)
        moduli = moduli_from_polytope(k, cone_point(k, 5))
        (newton,) = [f for f in structure.factors if f.simplex is None]
        seeds = _factor_moduli(structure, newton, moduli)
        for i, coord in zip(range(newton.first, newton.first + newton.dim), seeds):
            rows = [j for j in range(len(moduli)) if structure.inverse[j][i]]
            assert len(rows) > 1
            assert len(coord) <= max(len(moduli[j]) for j in rows)
            assert list(coord) == sorted(coord, reverse=True)
            # every seed lies between the least and the largest product
            ends = [sum(pick(structure.inverse[j][i] * math.log(r) for r in moduli[j])
                        for j in rows) for pick in (min, max)]
            assert all(ends[0] - 1e-9 <= math.log(r) <= ends[1] + 1e-9 for r in coord)
        # the ends, evenly spaced ranks between them, or the middle one alone
        assert _thin([1, 2, 3, 4, 5], 3) == [1, 3, 5]
        assert _thin([1, 2, 3, 4], 1) == [3]
        assert _thin([1, 2], 2) == [1, 2]


class TestCandidate:
    """roots.candidate, the one evaluation the solver admits points by,
    against laurent's z-power evaluation and finite differences."""

    @pytest.mark.parametrize("name", [name for name, _ in SWEEP_CHARTS])
    def test_matches_laurent_and_finite_differences(self, name):
        _, W, _, t, structure, terms = chart_setup(dict(SWEEP_CHARTS), name, 5)
        tol = SolverOptions().tol
        rng = random.Random(29)
        for _ in range(10):
            # dyadic log z, so that M^-T log z and M^T of that are exact and
            # both evaluations see one z
            w = [complex(rng.randint(-1200, 700), rng.randint(-3217, 3217)) / 1024
                 for _ in range(W.zvars)]
            point = candidate(terms, to_chart(structure, w))
            assert point.z == tuple(map(cmath.exp, w))
            bound = rounding_bound(W, point.z, t, tol)
            assert abs(point.value - evaluate(W, point.z, t)) <= bound
            exact = gradient(W, point.z, t)
            assert max(abs(a - b) for a, b in zip(point.gradient, exact)) <= bound
            assert point.residual == pytest.approx(math.sqrt(sum(abs(g) ** 2 for g in exact)),
                                                   abs=bound)
            approx = fd_log_gradient(W, point.z, t)
            err = max(abs(a - b) for a, b in zip(point.gradient, approx))
            assert err / max(1.0, max(abs(g) for g in point.gradient)) < 1e-6

    def test_finite_where_z_powers_are_not(self):
        # at every root of this steep chart (entries up to 61, |log z| up to
        # 106) z_j^e overflows and laurent's gradient reads NaN; the terms
        # in the chart are moderate
        _, W, params, t, structure, terms = chart_setup(dict(BUNDLES), "F1-chart1", 5)
        report, _ = solve(dual_kahler(dict(BUNDLES)["F1-chart1"]), W, params)
        assert report.deduped == 8
        for z in report.points:
            assert not all(map(cmath.isfinite, gradient(W, z, t)))
            point = candidate(terms, to_chart(structure, [cmath.log(x) for x in z]))
            assert cmath.isfinite(point.value) and all(map(cmath.isfinite, point.gradient))
            assert point.residual < 1e-6


class TestClosedForm:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projective_space_values(self, n):
        # the critical values of Hori-Vafa P^n are (n+1) (c_0 ... c_n)^(1/(n+1))
        # times the (n+1)-th roots of unity, in every chart
        fan = {1: LINE, 2: projective_plane(), 3: P3}[n]
        for name, chart in in_three_charts({"P": fan}, 30 + n):
            k = dual_kahler(chart)
            W = hori_vafa(chart, k)
            for seed in (5, 6):
                params = cone_point(k, seed)
                report, t = solve(k, W, params)
                assert report.attempted == report.grid_size == 0
                product = math.prod(c for _, c in numeric_terms(W, t))
                root = (n + 1) * product ** (1 / (n + 1))
                assert_values_match(report.values, [root * cmath.exp(2j * math.pi * j / (n + 1))
                                                    for j in range(n + 1)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bundle_values(self, n):
        # on P(K_{P^n}+O) the critical values are +-2 sqrt(c P(y)), P(y) the
        # zero-section coefficient plus the base's critical value
        fan = projectivize_canonical({1: LINE, 2: projective_plane(), 3: P3}[n])
        # the points are admitted by W evaluated in the chart, where its
        # terms are moderate: for each n every chart of seeds 30-59 passes
        # here (270 in all, entries up to 176), and in 14 of them z-powers
        # read a non-finite gradient at some root
        for name, chart in in_three_charts({"P": fan}, 40):
            k = dual_kahler(chart)
            W = corrected_potential(chart, k, GWProvider(k, assume_zero=True), 2)
            params = cone_point(k, 5)
            report, t = solve(k, W, params)
            coeff = dict(numeric_terms(W, t))
            c0, c = coeff[chart.rays[0]], coeff[chart.rays[-1]]
            base = (n + 1) * math.prod(coeff[r] for r in chart.rays[1:-1]) ** (1 / (n + 1))
            expected = []
            for j in range(n + 1):
                lift = 2 * cmath.sqrt(c * (c0 + base * cmath.exp(2j * math.pi * j / (n + 1))))
                expected += [lift, -lift]
            assert report.deduped == report.expected == 2 * (n + 1)
            assert_values_match(report.values, expected)

    def test_unlifted_base_root_leaves_the_report_short(self):
        # W = u (y + 1/y - 2) + 1/u: the base root y = 1 has P(y) = 0 and no
        # critical point above it; y = -1 lifts to two
        W = laurent({(1, 1): {(): 1}, (-1, 1): {(): 1}, (0, 1): {(): -2}, (0, -1): {(): 1}})
        report = find_critical_points(W, [])
        assert (report.deduped, report.expected, report.unlifted) == (2, 4, 1)
        assert not report.truncated
        assert_point_sets_match_relative(report.points, [(-1.0, 0.5j), (-1.0, -0.5j)])

    def test_one_sided_simplex(self):
        # z + z^2 has its one root at -1/2, the constant aside
        W = laurent({(1,): {(0,): 1}, (2,): {(0,): 1}, (0,): {(0,): 5}})
        report = find_critical_points(W, [T001])
        assert report.factors == ((1, 1, "closed-form"),)
        assert report.points[0][0] == pytest.approx(-0.5, abs=1e-12)


class TestAgainstGrid:
    @pytest.mark.parametrize("name, fan", SWEEP_CHARTS, ids=[name for name, _ in SWEEP_CHARTS])
    def test_root_sets_match_the_grid(self, name, fan):
        k = dual_kahler(fan)
        W = corrected_potential(fan, k, GWProvider(k, assume_zero=True), 2)
        params = cone_point(k, 5)
        report, _ = solve(k, W, params)
        whole, _ = grid_solve(k, W, params)
        assert report.deduped == whole.deduped == report.expected
        assert_point_sets_match_relative(report.points, whole.points, rel=1e-8)
        assert (report.expected, report.orbit_size) == (whole.expected, whole.orbit_size)

    @pytest.mark.parametrize("seed, name, found", [(3, "P1-chart1", 1), (1, "F1-chart2", 6)])
    def test_polished_points_reach_tol(self, seed, name, found):
        # in these steeper charts a lifted point can miss W's tol by the
        # scale of u and of the chart (two of F1-chart2's eight do); a Newton
        # step or two on W in the chart admits every one, as the grid does.
        # `found` passed unpolished when the residual was taken by z-powers
        charts = dict(in_three_charts(
            {n: projectivize_canonical(b) for n, b in SWEEP_BASES.items()}, seed))
        k = dual_kahler(charts[name])
        W = corrected_potential(charts[name], k, GWProvider(k, assume_zero=True), 2)
        params = cone_point(k, 5)
        report, _ = solve(k, W, params)
        assert found < report.deduped == report.expected
        assert_point_sets_match_relative(report.points, grid_solve(k, W, params)[0].points,
                                         rel=1e-8)

    def test_points_near_the_float_range_are_admitted(self):
        # in this chart some roots have a coordinate whose power for a
        # negative exponent underflows to 0, although every term is moderate:
        # W evaluated in the chart (the factored solve) or in log coordinates
        # (the grid) admits all eight
        fan = dict(BUNDLES)["F1-chart2"]
        k = dual_kahler(fan)
        W = corrected_potential(fan, k, GWProvider(k, assume_zero=True), 2)
        params = cone_point(k, 6)
        for run in (solve, grid_solve):
            report, _ = run(k, W, params)
            assert report.deduped == report.expected == 8
            assert all(r <= report.options.tol for r in report.residuals)

    @pytest.mark.parametrize("t", [24.0, -24.0])
    def test_points_past_the_float_range_are_refused(self, monkeypatch, t):
        # W = z1 + q/z1 + z2/z1^63 + z1^63/z2 has its roots at z1 = +-q^(1/2)
        # and z2 = +-z1^63, so |log z2| = 63 |t|/2 = 756: z2 underflows to 0
        # or overflows although every term is moderate. Both solves refuse
        # every root, the grid after Newton has converged to them; at t/12
        # (|log z2| = 63) the factored solve admits all four, the grid some
        W = laurent({(1, 0): {(0,): 1}, (-1, 0): {(1,): 1}, (-63, 1): {(0,): 1},
                     (63, -1): {(0,): 1}})
        refused = []
        admit = roots.candidate
        monkeypatch.setattr(roots, "candidate",
                            lambda *args: admit(*args) or refused.append(args))

        def seeded(t):
            # seeds at the roots' moduli, as near as a float holds them
            log_r = max(-713.0, min(-31.5 * t, 700.0))
            return SolverOptions(moduli_per_coord=((math.exp(-t / 2),), (math.exp(log_r),)))

        with pytest.raises(NoConvergence, match="beyond the float range"):
            find_critical_points(W, [t], seeded(t))
        refused.clear()
        # the grid names the refusal, and quotes only the residuals of the
        # starts it dropped, never those of the roots it refused
        with pytest.raises(NoConvergence) as caught:
            grid_report(W, [t], seeded(t))
        found = re.fullmatch(r"no critical point found from 64 starts; best residual reached "
                             r"(\S+); (\d+) roots lie beyond the float range", str(caught.value))
        assert found, str(caught.value)
        assert float(found.group(1)) > 1e-12 and int(found.group(2)) == len(refused) > 0
        refused.clear()
        assert find_critical_points(W, [t / 12], seeded(t / 12)).deduped == 4
        assert grid_report(W, [t / 12], seeded(t / 12)).deduped > 0
        assert not refused

    @pytest.mark.parametrize("seed, name, point", [
        (12, "F1-chart1", 5), (12, "F1-chart1", 6), (12, "F1-chart1", 7), (41, "P3-chart2", 6)])
    def test_steep_charts_reach_the_bound(self, seed, name, point):
        # with entries up to 61 (F1) z_j^e overflows at these roots, and
        # neither solve admitted one; with W evaluated in the chart, or in
        # log coordinates on the grid, both find all eight, with the
        # critical values of the standard chart
        charts = dict(in_three_charts(
            {n: projectivize_canonical(b) for n, b in catalog_bases().items()}, seed))
        setups = []
        for chart in (name.split("-")[0], name):
            k = dual_kahler(charts[chart])
            W = corrected_potential(charts[chart], k, GWProvider(k, assume_zero=True), 2)
            setups.append((k, W, cone_point(k, point)))
        standard, _ = solve(*setups[0])
        for run in (solve, grid_solve):
            report, _ = run(*setups[1])
            assert report.deduped == report.expected == 8
            assert all(r <= report.options.tol for r in report.residuals)
            assert_values_match(report.values, standard.values)

    @pytest.mark.parametrize("name", ["F1", "dP6"])
    def test_whole_grid_when_w_does_not_factor(self, name):
        # W whole, 2-D: Newton from its polyhedral starts alone reaches
        # every root, in the order and within rounding of the points of the
        # grid alone
        fan = SWEEP_BASES[name]
        k = dual_kahler(fan)
        W = hori_vafa(fan, k)
        params = cone_point(k, 5)
        report, t = solve(k, W, params)
        starts = _polyhedral_starts(numeric_terms(W, t), report.expected)
        assert report.polyhedral == report.attempted == len(starts) == report.expected
        assert report.grid_fallbacks == 0
        whole, _ = grid_solve(k, W, params)
        assert whole.polyhedral == 0 and report.deduped == whole.deduped == report.expected
        assert_point_sets_match_relative(report.points, whole.points)
        for point, other in zip(report.points, whole.points):
            assert all(abs(a - b) <= 1e-9 * abs(b) for a, b in zip(point, other))
        assert all(abs(a - b) <= 1e-9 * abs(b) for a, b in zip(report.values, whole.values))

    def test_newton_factor_replays(self):
        # the seeds of the dP6 factor come from the document's own options
        k, W, params = bundle_setup(SWEEP_BASES["P1xdP6"])
        report, t = solve(k, W, params)
        assert report.attempted > 0
        doc = critical_report_to_document(report, params)
        assert doc["factors"] == [{"dimension": 1, "expected": 2, "solve": "closed-form"},
                                  {"dimension": 2, "expected": 6, "solve": "newton"}]
        opts = dict(doc["options"])
        opts["moduli_per_coord"] = tuple(tuple(m) for m in opts["moduli_per_coord"])
        replay = find_critical_points(W, t, SolverOptions(**opts))
        assert critical_report_to_document(replay, params) == doc

    def test_newton_factor_counts(self):
        # attempted, converged and grid_size are the dP6 factor's; a cut
        # budget leaves the report truncated and short
        k, W, params = bundle_setup(SWEEP_BASES["P1xdP6"])
        moduli = moduli_from_polytope(k, params)
        (newton,) = [f for f in structure_of(W).factors if f.simplex is None]
        report, _ = solve(k, W, params)
        assert report.grid_size == math.prod(
            len(m) * 8 for m in moduli[newton.first:newton.first + newton.dim])
        assert report.converged <= report.attempted < report.grid_size
        short, _ = solve(k, W, params, max_starts=2)
        assert short.attempted == 2
        assert short.deduped < short.expected and short.truncated
        assert short.deduped % 4 == 0  # whole factor roots, each lifted twice, times P1's two

    def test_newton_factor_exceeds_its_bound(self, monkeypatch):
        # at cone point 8 two of the dP6 factor's polyhedral starts end
        # within 1e-8 of each other, on one root, so the grid runs; at
        # radius 0 both copies are kept, and with the root the grid adds
        # they outnumber the factor's own bound. At cone point 112 one start
        # is dropped and none collide, so the grid adds the sixth root, from
        # its 16th start, and no copy, at any radius: the 15 before it
        # revisit roots the starts reached. At cone point 3 the six starts
        # reach the six roots
        k, W, _ = bundle_setup(SWEEP_BASES["P1xdP6"])
        ends = spy_newton(monkeypatch)
        assert solve(k, W, cone_point(k, 8))[0].grid_fallbacks == 1
        starts = ends[:6]  # the polyhedral starts run first
        assert None not in starts and any(roots._log_distance(a, b) <= 1e-8
                                          for i, a in enumerate(starts) for b in starts[:i])
        with pytest.raises(RootBoundExceeded, match=r"^\d+ distinct verified critical "
                           r"points exceed the root bound 6: the dedup radius 0.0 "):
            solve(k, W, cone_point(k, 8), dedup_radius=0.0)
        for radius in (1e-8, 0.0):
            ends.clear()
            at_112, _ = solve(k, W, cone_point(k, 112), dedup_radius=radius)
            assert (at_112.grid_fallbacks, at_112.deduped, at_112.attempted) == (1, 24, 22)
            assert [end is None for end in ends].count(True) == 1
        assert solve(k, W, cone_point(k, 3), dedup_radius=0.0)[0].deduped == 24

    def test_grid_report_is_the_whole_grid(self):
        # the test helper runs the grid on W whole: the same roots as the
        # factored solve on F2, from Newton starts
        k, W, params = bundle_setup(SWEEP_BASES["P1"])
        report, t = grid_solve(k, W, params)
        assert report.attempted > 0 and report.factors == ((2, 4, "newton"),)
        assert_point_sets_match_relative(report.points, solve(k, W, params)[0].points)
        assert grid_report(W, t, report.options) == report
