"""The factored solve: W's structure record, closed-form factors against
their formulas, and every root set against the multistart grid on W whole."""

import cmath
import math

import pytest

from conftest import (
    dual_kahler,
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
    solve,
)
from test_integer_solves import DP6, F1, product_fan
from test_moment_polytope import P3
from test_potential import BUNDLES, in_three_charts
from toricmirror.bundle import decompose_bundle, projectivize_canonical
from toricmirror.critical import SolverOptions, find_critical_points, moduli_from_polytope
from toricmirror.documents import critical_report_to_document
from toricmirror.errors import RootBoundExceeded
from toricmirror.fan import validate_fan
from toricmirror.gw import GWProvider
from toricmirror.lattice import unit_grading
from toricmirror.laurent import numeric_terms
from toricmirror.potential import corrected_potential, hori_vafa
from toricmirror.roots import _exponent_structure, _factor_moduli

LINE = projective_line()
# the crit-sweep classes: P(K_Y+O) over these bases (F2 is the P1 one)
SWEEP_BASES = {
    "P1": LINE, "P2": projective_plane(), "F1": validate_fan(2, F1),
    "dP6": validate_fan(2, DP6), "P1^3": product_fan(product_fan(LINE, LINE), LINE),
    "P1xdP6": product_fan(LINE, validate_fan(2, DP6)),
}
# seeded charts in which the grid on W whole finds every root; in some
# others (entries up to 61 on F1) it finds none, nor does the factored solve
SWEEP_CHARTS = in_three_charts(
    {name: projectivize_canonical(base) for name, base in SWEEP_BASES.items()}, 5)
# (dimension, closed form?) of each factor of a catalog base's Hori-Vafa W,
# and whether it has a fiber grading; None: W does not factor
FANO_FACTORS = {
    "P1": (True, []), "P2": (False, [(2, True)]), "F1": None,
    "P1xP1": (False, [(1, True), (1, True)]), "dP6": None, "P3": (False, [(3, True)]),
    "P1^3": (False, [(1, True)] * 3), "P1xdP6": (False, [(1, True), (2, False)]),
}


def structure_of(poly):
    return _exponent_structure(tuple(sorted(poly.terms)))


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
        if structure.chart is not None:
            lift = 2 if structure.fiber is not None else 1
            assert structure.bound == lift * math.prod(f.bound for f in structure.factors)

    @pytest.mark.parametrize("name, fan", SECTIONS, ids=[name for name, _ in SECTIONS])
    def test_catalog_factors(self, name, fan):
        structure = _exponent_structure(tuple(sorted(fan.rays)))
        base = name.split("-")[1]
        expected = FANO_FACTORS[base]
        if name.startswith("bundle-"):
            # the base is the factors; P1 is a simplex, F1 and dP6 one Newton factor
            alone = {"P1": [(1, True)], "F1": [(2, False)], "dP6": [(2, False)]}
            expected = (True, alone.get(base) or expected[1])
        if expected is None:
            assert structure.chart is None and structure.factors == ()
            return
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
        # dP6 and F1 are one Newton factor; z1^2 + z1^-2 + z2 + 1/z2 splits
        # over Q but not over Z, so it stays whole; z1 + z1^2 + z2 is a
        # simplex whose binomial system has no root in the torus
        for W in (laurent({a: {(): 1} for a in DP6}), laurent({a: {(): 1} for a in F1}),
                  laurent({(2, 0): {(): 1}, (-2, 0): {(): 1}, (0, 1): {(): 1},
                           (0, -1): {(): 1}}),
                  laurent({(1, 0): {(): 1}, (2, 0): {(): 1}, (0, 1): {(): 1}})):
            structure = structure_of(W)
            assert structure.chart is None and structure.factors == ()

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
        # in charts with entries past about 30, some z_j^a underflows and
        # laurent.sum_terms divides by zero, in the grid as here
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
        # in these steeper charts the lifted points miss W's tol by the scale
        # of u and of the chart (only `found` of them pass unpolished); a
        # Newton step or two on W admits every one, as the grid does
        charts = dict(in_three_charts(
            {n: projectivize_canonical(b) for n, b in SWEEP_BASES.items()}, seed))
        k = dual_kahler(charts[name])
        W = corrected_potential(charts[name], k, GWProvider(k, assume_zero=True), 2)
        params = cone_point(k, 5)
        report, _ = solve(k, W, params)
        assert found < report.deduped == report.expected
        assert_point_sets_match_relative(report.points, grid_solve(k, W, params)[0].points,
                                         rel=1e-8)

    def test_points_past_the_float_range_are_refused(self):
        # in this chart some roots have a coordinate whose power for a
        # negative exponent underflows to 0: both solves refuse them and
        # report the rest, where the residual check once raised
        # ZeroDivisionError
        fan = dict(BUNDLES)["F1-chart2"]
        k = dual_kahler(fan)
        W = corrected_potential(fan, k, GWProvider(k, assume_zero=True), 2)
        params = cone_point(k, 6)
        for run in (solve, grid_solve):
            report, _ = run(k, W, params)
            assert 0 < report.deduped < report.expected == 8
            assert all(r <= report.options.tol for r in report.residuals)

    @pytest.mark.parametrize("name", ["F1", "dP6"])
    def test_whole_grid_when_w_does_not_factor(self, name):
        fan = SWEEP_BASES[name]
        k = dual_kahler(fan)
        W = hori_vafa(fan, k)
        params = cone_point(k, 5)
        assert solve(k, W, params) == grid_solve(k, W, params)

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

    def test_newton_factor_exceeds_its_bound(self):
        # at radius 0 the dP6 grid keeps copies of one root, which its own
        # bound refuses
        k, W, _ = bundle_setup(SWEEP_BASES["P1xdP6"])
        with pytest.raises(RootBoundExceeded, match=r"^\d+ distinct verified critical "
                           r"points exceed the root bound 6: the dedup radius 0.0 "):
            solve(k, W, cone_point(k, 3), dedup_radius=0.0)

    def test_grid_report_is_the_whole_grid(self):
        # the test helper runs the grid on W whole: the same roots as the
        # factored solve on F2, from Newton starts
        k, W, params = bundle_setup(SWEEP_BASES["P1"])
        report, t = grid_solve(k, W, params)
        assert report.attempted > 0 and report.factors == ((2, 4, "newton"),)
        assert_point_sets_match_relative(report.points, solve(k, W, params)[0].points)
        assert grid_report(W, t, report.options) == report
