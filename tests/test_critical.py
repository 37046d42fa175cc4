"""Multistart Newton solver against closed-form root sets.

The expected critical points below were derived by hand-eliminating the
gradient systems (monomial substitutions and a resultant step for the
corrected Hirzebruch potential), so the solver is checked against algebra it
does not share.
"""

import cmath
import math
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    FACTOR_WITHOUT_ROOTS,
    NO_ISOLATED_ROOTS,
    batch_boundary_oracle,
    dual_kahler,
    fd_log_gradient,
    grid_report,
    hirzebruch2_kahler,
    laurent,
    moment_vertices,
    newton_found,
    newton_must_not_run,
    p1_times_p1,
    pairwise_dedup_oracle,
    pass_stop_oracle,
    projective_line,
    projective_plane,
    random_unimodular,
    reference_evaluate,
    seed_table_starts,
    symmetry_group_oracle,
)
from test_integer_solves import DP6, F1, product_fan
from test_potential import BUNDLES, catalog_bases, in_three_charts
from toricmirror import roots
from toricmirror.bundle import projectivize_canonical
from toricmirror.critical import SolverOptions, find_critical_points, moduli_from_polytope
from toricmirror.documents import critical_report_to_document, canonical_json
from toricmirror.errors import (
    EmptyInterior,
    NoConvergence,
    RootBoundExceeded,
    SchemaError,
    ZeroCoordinate,
)
from toricmirror.fan import validate_fan
from toricmirror.gw import GWProvider
from toricmirror.kahler import KahlerData
from toricmirror.laurent import LaurentPoly, evaluate, gradient, numeric_terms
from toricmirror.potential import corrected_potential, hori_vafa
from toricmirror.roots import (
    _exponent_structure,
    _grid_starts,
    _merge,
    _stride,
    start_grid_size,
)

T001 = math.log(100.0)  # q = 0.01
RAT_T = Fraction(46051701859880914, 10**16)  # rational stand-in for ln(100)


def line_setup():
    fan = projective_line()
    k = KahlerData(fan, ["0", "-t"])
    return k, hori_vafa(fan, k), {"t": RAT_T}


def plane_setup():
    fan = projective_plane()
    k = KahlerData(fan, ["0", "0", "-t"])
    return k, hori_vafa(fan, k), {"t": RAT_T}


def product_setup():
    fan = p1_times_p1()
    k = KahlerData(fan, ["0", "-ta", "0", "-tb"])
    return k, hori_vafa(fan, k), {"ta": RAT_T, "tb": RAT_T}


def f2_setup():
    k = hirzebruch2_kahler()
    W = corrected_potential(k.fan, k, GWProvider(k), 2)
    return k, W, {"t1": RAT_T, "t2": RAT_T}


def solve(k, W, params, run=find_critical_points, **overrides):
    t = [float(a.subs(params)) for a in k.basis_areas()]
    options = SolverOptions(
        moduli_per_coord=moduli_from_polytope(k, params), **overrides
    )
    return run(W, t, options), t


def grid_solve(k, W, params, **overrides):
    """solve with the start grid alone on W whole, factored or not."""
    return solve(k, W, params, run=grid_report, **overrides)


def f2_closed_form_roots(q1, q2):
    """The four critical points of the corrected F2 potential:
    z2 = +-sqrt(q2) (1 + s sqrt(q1)), z1 = s sqrt(q1) q2 / z2."""
    roots = []
    for s in (1, -1):
        for sign in (1, -1):
            z2 = sign * math.sqrt(q2) * (1 + s * math.sqrt(q1))
            roots.append((s * math.sqrt(q1) * q2 / z2, z2))
    return roots


def assert_point_sets_match(report, expected, tol=1e-9):
    assert len(report.points) == len(expected)
    unmatched = list(expected)
    for point in report.points:
        best = min(unmatched,
                   key=lambda e: sum(abs(a - b) for a, b in zip(point, e)))
        assert sum(abs(a - b) for a, b in zip(point, best)) < tol
        unmatched.remove(best)


def assert_point_sets_match_relative(points, expected, rel=1e-9):
    """The two point lists hold the same points, each coordinate matched to
    a relative tolerance."""
    assert len(points) == len(expected)
    unmatched = list(expected)
    for point in points:
        best = min(unmatched,
                   key=lambda e: max(abs(a - b) / abs(b) for a, b in zip(point, e)))
        assert all(abs(a - b) <= rel * abs(b) for a, b in zip(point, best))
        unmatched.remove(best)


class TestGradient:
    def test_line_critical_point(self):
        k, W, _ = line_setup()
        g = gradient(W, [0.1], [T001])
        assert abs(g[0]) < 1e-15

    def test_product_monomial(self):
        W = laurent({(1, 1): {(): 1}})
        assert gradient(W, [1.0, 1.0], []) == (1.0, 1.0)

    def test_zero_coordinate(self):
        W = laurent({(1,): {(): 1}})
        with pytest.raises(ZeroCoordinate):
            gradient(W, [0.0], [])

    def test_matches_finite_differences(self):
        rng = random.Random(12)
        k, W, _ = f2_setup()
        kp, Wp, _ = plane_setup()
        for _ in range(60):
            for poly, n, t in ((W, 2, [T001, T001]), (Wp, 2, [T001])):
                z = [cmath.rect(rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi))
                     for _ in range(n)]
                exact = gradient(poly, z, t)
                approx = fd_log_gradient(poly, z, t)
                err = max(abs(a - b) for a, b in zip(exact, approx))
                scale = max(1.0, max(abs(g) for g in exact))
                assert err / scale < 1e-6


class TestRootCounts:
    def test_line_two_points(self):
        k, W, params = line_setup()
        report, t = solve(k, W, params)
        assert_point_sets_match(report, [(-0.1,), (0.1,)])
        assert sorted(v.real for v in report.values) == pytest.approx([-0.2, 0.2])
        assert all(r < 1e-9 for r in report.residuals)

    def test_plane_three_points_at_q_one(self):
        # t = 0 collapses the moment polytope, so seed moduli explicitly
        fan = projective_plane()
        k = KahlerData(fan, ["0", "0", "-t"])
        W = hori_vafa(fan, k)
        report = find_critical_points(
            W, [0.0], SolverOptions(moduli_per_coord=((0.5, 1.0, 2.0),) * 2)
        )
        cube_roots = [cmath.exp(2j * math.pi * j / 3) for j in range(3)]
        expected = [(z, z) for z in cube_roots]
        assert_point_sets_match(report, expected)
        # two values share the real part -1.5, so match them as a set
        unmatched = [3 * z for z in cube_roots]
        assert len(report.values) == len(unmatched)
        for value in report.values:
            best = min(unmatched, key=lambda want: abs(value - want))
            assert value == pytest.approx(best, abs=1e-9)
            unmatched.remove(best)

    def test_plane_three_points(self):
        k, W, params = plane_setup()
        report, _ = solve(k, W, params)
        zeta = 0.01 ** (1 / 3)
        expected = [(zeta * w, zeta * w)
                    for w in (cmath.exp(2j * math.pi * j / 3) for j in range(3))]
        assert_point_sets_match(report, expected, tol=1e-8)

    def test_product_four_points(self):
        k, W, params = product_setup()
        report, _ = solve(k, W, params)
        expected = [(sa * 0.1, sb * 0.1) for sa in (1, -1) for sb in (1, -1)]
        assert_point_sets_match(report, expected)

    def test_corrected_f2_four_points(self):
        k, W, params = f2_setup()
        report, _ = solve(k, W, params)
        assert_point_sets_match(report, f2_closed_form_roots(0.01, 0.01))
        assert all(r < 1e-9 for r in report.residuals)

    def test_counts_match_euler_characteristics(self):
        # critical point count = number of maximal cones for these cases
        for setup in (line_setup, plane_setup, product_setup, f2_setup):
            k, W, params = setup()
            report, _ = solve(k, W, params)
            assert report.deduped == len(k.fan.maximal_cones)


class TestSolverBehavior:
    def test_deterministic_reports(self):
        k, W, params = f2_setup()
        report1, _ = solve(k, W, params)
        report2, _ = solve(k, W, params)
        doc1 = canonical_json(critical_report_to_document(report1, {"t1": T001}))
        doc2 = canonical_json(critical_report_to_document(report2, {"t1": T001}))
        assert doc1 == doc2

    def test_counts_stable_under_tolerance(self):
        for setup in (line_setup, plane_setup, product_setup, f2_setup):
            k, W, params = setup()
            counts = set()
            for tol in (1e-10, 1e-12):
                report, _ = solve(k, W, params, tol=tol)
                counts.add(report.deduped)
            assert len(counts) == 1

    def test_residuals_below_tolerance(self):
        k, W, params = f2_setup()
        report, t = solve(k, W, params)
        for point, resid in zip(report.points, report.residuals):
            assert resid <= report.options.tol
            recomputed = gradient(W, point, t)
            assert math.sqrt(sum(abs(g) ** 2 for g in recomputed)) <= report.options.tol

    @pytest.mark.parametrize("max_steps", [100, 30])
    def test_no_convergence_when_no_roots(self, max_steps):
        # a single monomial has no critical point on the torus; its gradient
        # decays toward the boundary, so this guards the step-size gate
        # against reporting the valley flow as a root. Each Newton step moves
        # Re w by -1: at 100 steps every start leaves the band, at 30 every
        # start is dropped at its cap, with a residual below tol either way
        options = SolverOptions(max_steps=max_steps)
        found = newton_found(laurent({(1,): {(): 1}}), [], options, 1, ((0.0,),))
        assert found.attempted == 24  # the whole default grid
        assert (found.converged, found.points) == (0, [])
        assert found.best <= options.tol
        # z + q/z flows the same way from |z| = 1 toward its roots at
        # |z| = q^(1/2) = exp(-345), far outside the band; the message's best
        # residual is the lockstep loop's
        W = laurent({(1,): {(0,): 1}, (-1,): {(1,): 1}})
        options = options._replace(moduli_per_coord=((1.0,),))
        with pytest.raises(NoConvergence) as caught:
            grid_report(W, [690.0], options)
        with pytest.raises(NoConvergence) as oracle:
            pass_stop_oracle(W, [690.0], options)
        assert str(caught.value) == str(oracle.value)
        assert "best residual reached" in str(caught.value)

    def test_constant_rejected(self):
        W = laurent({(0,): {(): 1}})
        with pytest.raises(ValueError):
            find_critical_points(W, [])

    def test_constant_is_an_input_error(self):
        for W in (laurent({(0, 0): {(0,): 3}}), LaurentPoly(2, 1)):
            with pytest.raises(SchemaError, match="potential has no nonconstant term"):
                find_critical_points(W, [1.0])

    @pytest.mark.parametrize("n, starts, step", [(2, 576, "_step_2d"), (3, 4096, "_step")])
    def test_singular_jacobians_end_in_no_convergence(self, monkeypatch, n, starts, step):
        # W = z1...zn + 1/(z1...zn): every Jacobian is exactly singular, in
        # the 2-D closed form and under elimination, so each start ends at
        # its first pass with no step; the critical points form curves, and
        # none converges: the whole grid runs, or max_starts of it in 3-D.
        # The solver refuses this W before Newton, so the start grid runs
        # alone
        W = laurent({(1,) * n: {(): 1}, (-1,) * n: {(): 1}})
        passes = []
        kernel = getattr(roots, step)
        monkeypatch.setattr(roots, step, lambda *args: passes.append(kernel(*args)) or passes[-1])
        found = newton_found(W, [], SolverOptions(), 1, ((0.0,) * n,))
        assert found.attempted == len(passes) == starts
        assert (found.converged, found.points) == (0, [])
        assert all(step is None for _, step in passes)

    @pytest.mark.parametrize("terms", NO_ISOLATED_ROOTS.values(), ids=NO_ISOLATED_ROOTS)
    def test_no_isolated_roots_refused_before_newton(self, monkeypatch, terms):
        # the Newton polytope is a segment (or a point, for z): the bound is
        # 0, and no coefficients give W an isolated critical point
        monkeypatch.setattr(roots, "_newton", newton_must_not_run)
        with pytest.raises(SchemaError, match="no isolated critical points: the Newton "
                           "polytope of its nonconstant terms is not full-dimensional"):
            find_critical_points(laurent({z: {(): c} for z, c in terms.items()}), [])

    @pytest.mark.parametrize("terms, reason", FACTOR_WITHOUT_ROOTS.values(),
                             ids=FACTOR_WITHOUT_ROOTS)
    def test_factor_without_roots_refused_before_newton(self, monkeypatch, terms, reason):
        # the bound is positive, but a factor has no isolated root, so W has
        # none: Newton on W whole would admit points drifting along a curve
        # or toward infinity. No start runs
        monkeypatch.setattr(roots, "_newton", newton_must_not_run)
        W = laurent({z: {(): c} for z, c in terms.items()})
        assert _exponent_structure(tuple(sorted(W.terms))).bound > 0
        with pytest.raises(SchemaError, match=re.escape(
                f"potential has no isolated critical points: {reason}")):
            find_critical_points(W, [])

    def test_exact_residual_refuses_a_false_root(self, monkeypatch):
        # a corrector that passes z = 1 off as a root of z + q/z beside the
        # true root z = 0.1: only the true root and its image -0.1 are
        # reported, and alone z = 1 is refused with its residual |1 - q|
        W = laurent({(1,): {(0,): 1}, (-1,): {(1,): 1}})

        def kernel(found):
            ends = iter([(cmath.log(z),) for z in found])
            return lambda *_: (next(ends, None), math.inf)

        monkeypatch.setattr(roots, "_newton", kernel([1.0, 0.1]))
        report = grid_report(W, [T001])
        assert_point_sets_match(report, [(-0.1,), (0.1,)])
        assert report.attempted == 2  # stopped at the true root
        monkeypatch.setattr(roots, "_newton", kernel([1.0]))
        with pytest.raises(NoConvergence, match=f"best residual reached {1 - 0.01:.3e}; "):
            grid_report(W, [T001])

    def test_moduli_need_one_list_per_coordinate(self):
        _, W, _ = f2_setup()
        with pytest.raises(ValueError, match="need one modulus list per z-coordinate"):
            find_critical_points(W, [T001, T001], SolverOptions(moduli_per_coord=((1.0,),)))

    @pytest.mark.parametrize("bad", [(0.0, 1.0), (2.0, -1.0), (math.inf,), (math.nan,), ()],
                             ids=["zero", "negative", "inf", "nan", "empty"])
    def test_moduli_must_be_positive_finite_and_nonempty(self, monkeypatch, bad):
        # refused before any Newton run: 0 or a negative modulus has no
        # log, inf would reach the document, NaN would end in advice to try
        # other moduli, and an empty list would leave the grid empty and
        # the report short without being truncated
        fan = validate_fan(2, F1)
        k = dual_kahler(fan)
        W = hori_vafa(fan, k)
        monkeypatch.setattr(roots, "_newton", newton_must_not_run)
        options = SolverOptions(max_starts=2, moduli_per_coord=((0.5, 1.0), bad))
        with pytest.raises(SchemaError, match="^need one modulus list per z-coordinate, "
                           "each a nonempty list of positive finite floats$"):
            find_critical_points(W, [1.0, 1.0], options)

    def test_stats_accounting(self):
        # each converged start of the grid brings at most its orbit under
        # the symmetry
        k, W, params = line_setup()
        report, _ = grid_solve(k, W, params)
        assert report.attempted >= report.converged
        assert report.deduped <= report.orbit_size * report.converged
        assert report.deduped == len(report.points) == len(report.values)


def bundle_setup(base, seed=3):
    """P(K_Y + O) over the base fan with lambda 0 on the first maximal
    cone's rays and -t_j on the others, in the dual q-basis; its corrected
    potential at cutoff 2 (invariants absent from every source read as 0);
    and a seeded parameter point inside the Kahler cone."""
    fan = projectivize_canonical(base)
    k = dual_kahler(fan)
    W = corrected_potential(fan, k, GWProvider(k, assume_zero=True), 2)
    return k, W, cone_point(k, seed)


def cone_point(k, seed):
    """A seeded parameter point, each value in [3, 6], inside the open
    Kahler cone."""
    rng = random.Random(seed)
    for _ in range(1000):
        params = {name: Fraction(rng.randint(300, 600), 100) for name in k.parameter_names}
        try:
            moment_vertices(k, params)
        except EmptyInterior:
            continue
        return params
    raise AssertionError("no Kahler-cone point found")


BUNDLE_BASES = {
    "P1": projective_line,
    "P2": projective_plane,
    "F1": lambda: validate_fan(2, F1),
    "dP6": lambda: validate_fan(2, DP6),
    "P1xdP6": lambda: product_fan(projective_line(), validate_fan(2, DP6)),
}


# the two kinds of fan section `potential` writes: Fano fans and P(K_Y+O)
SECTIONS = ([(f"fano-{name}", fan) for name, fan in in_three_charts(catalog_bases(), 13)]
            + [(f"bundle-{name}", fan) for name, fan in BUNDLES])


CATALOG = {"P1": line_setup, "P2": plane_setup, "P1xP1": product_setup, "F2": f2_setup}
BOUND_CASES = list(CATALOG) + [f"P(K_{base}+O)" for base in BUNDLE_BASES]


def bound_case(name):
    """The named catalog setup at its own parameters, or the named bundle
    setup at its seeded Kahler-cone point."""
    if name in CATALOG:
        return CATALOG[name]()
    return bundle_setup(BUNDLE_BASES[name[4:-3]]())


def spy_newton(monkeypatch):
    """The end of each start the solver runs (None for one dropped), in
    the order they run."""
    ends = []
    newton = roots._newton

    def spy(*args):
        end, residual = newton(*args)
        ends.append(end)
        return end, residual

    monkeypatch.setattr(roots, "_newton", spy)
    return ends


class TestRootBound:
    """The run stops at Kouchnirenko's bound, which these potentials reach."""

    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_reaches_bound(self, name):
        k, W, params = bound_case(name)
        start = time.perf_counter()
        report, _ = solve(k, W, params)
        elapsed = time.perf_counter() - start
        assert report.deduped == report.expected == len(k.fan.maximal_cones)
        assert not report.truncated
        # stopped at the bound, before the end of the grid, when one ran
        assert report.attempted < report.grid_size or report.grid_size == 0
        if name == "P(K_F1+O)":
            assert elapsed < 1.0

    def test_bundle_reports_repeat(self):
        k, W, params = bundle_setup(BUNDLE_BASES["P1xdP6"]())
        report1, _ = solve(k, W, params)
        report2, _ = solve(k, W, params)
        assert report1 == report2
        assert (report1.attempted, report1.converged) == (report2.attempted, report2.converged)

    def test_constant_term_left_out(self):
        # z + q/z + 5: the constant drops out of z dW/dz, so 2 roots, not 2
        # plus whatever the origin would add to the polytope
        W = laurent({(1,): {(0,): 1}, (-1,): {(1,): 1}, (0,): {(0,): 5}})
        assert _exponent_structure(tuple(sorted(W.terms))).bound == 2
        one_sided = laurent({(1,): {(0,): 1}, (2,): {(0,): 1}})
        assert _exponent_structure(tuple(sorted(one_sided.terms))).bound == 1
        report = find_critical_points(one_sided, [T001])
        assert len(report.points) == 1
        assert report.points[0][0] == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("terms", [{(-1,): 1, (3,): 2, (6,): Fraction(-1, 3)},
                                       {a: 1 for a in DP6}], ids=["line", "dP6"])
    def test_constant_term_does_not_steer_the_solve(self, terms):
        # the constant drops out of every z_j dW/dz_j, and out of the Newton
        # factor the solve runs on: W + k has W's points in W's order, its
        # residuals and counters, and W's values plus k
        report = find_critical_points(laurent({a: {(): c} for a, c in terms.items()}), [])
        origin = (0,) * len(next(iter(terms)))
        for k in (5, Fraction(-7, 2), 100):
            shifted = find_critical_points(
                laurent({a: {(): c} for a, c in {**terms, origin: k}.items()}), [])
            assert shifted._replace(values=report.values) == report
            assert shifted.values == pytest.approx([v + k for v in report.values],
                                                   rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name, fan", SECTIONS, ids=[name for name, _ in SECTIONS])
    def test_bound_is_the_cone_count(self, name, fan):
        # a fan section's rays are W's nonconstant exponents, and on these
        # fans the maximal cones triangulate the boundary of their Newton
        # polytope unimodularly
        assert _exponent_structure(tuple(sorted(fan.rays))).bound == len(fan.maximal_cones)

    @pytest.mark.parametrize("setup", [f2_setup, plane_setup, product_setup])
    def test_stops_at_the_start_that_reaches_bound(self, monkeypatch, setup):
        # the starts run one at a time, and the run stops at the start whose
        # root, with its images under G, brings the verified roots to the
        # bound: here within the first four starts of the grid
        k, W, params = setup()
        ends = spy_newton(monkeypatch)
        report, _ = grid_solve(k, W, params)
        assert report.deduped == report.expected
        assert len(ends) == report.attempted <= 4
        assert ends[-1] is not None

    @pytest.mark.parametrize("seed", [5, 7])
    def test_runs_fewer_starts_than_lockstep_batches(self, seed):
        # the lockstep oracle admits 2304 and 768 starts here, in batches of
        # 384, each stepped for its stragglers before the next is admitted;
        # one start at a time, the run stops at the 822nd and the 82nd
        k, W, _ = bundle_setup(BUNDLE_BASES["P1xdP6"]())
        report, t = grid_solve(k, W, cone_point(k, seed))
        attempted, *_ = pass_stop_oracle(W, t, report.options)
        assert report.deduped == report.expected == 24
        assert 2 * report.attempted <= attempted

    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_matches_pass_stop_oracle(self, name):
        k, W, _ = bound_case(name)
        for seed in (5, 6, 7):
            params = cone_point(k, seed)
            report, t = grid_solve(k, W, params)
            _, _, deduped, expected, points = pass_stop_oracle(W, t, report.options)
            assert (report.expected, report.deduped) == (expected, deduped)
            assert_point_sets_match_relative(report.points, points)

    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_matches_batch_boundary_oracle(self, name):
        k, W, _ = bound_case(name)
        for seed in (5, 6, 7):
            params = cone_point(k, seed)
            report, t = grid_solve(k, W, params)
            # the starts admitted differ: the oracle admits whole batches
            _, converged, deduped, expected, points = batch_boundary_oracle(
                W, t, report.options)
            assert (report.expected, report.deduped) == (expected, deduped)
            assert report.converged <= converged
            assert_point_sets_match_relative(report.points, points)

    @pytest.mark.parametrize("max_steps", [0, 2])
    def test_no_convergence_reports_best_residual(self, max_steps):
        # no start converges: at max_steps = 0 none takes the step that
        # convergence needs, and at 2 every start is dropped at its cap, the
        # best of them at residual 1.7e-12. Starts step independently and
        # the whole grid is admitted either way, so the best residual over
        # the last iterates is the lockstep loop's
        k, W, params = f2_setup()
        with pytest.raises(NoConvergence) as caught:
            grid_solve(k, W, params, max_steps=max_steps)
        found = re.search(r"from (\d+) starts; best residual reached (\S+);",
                          str(caught.value))
        assert found, str(caught.value)
        moduli = moduli_from_polytope(k, params)
        grid = math.prod(len(m) * 8 for m in moduli)
        assert int(found.group(1)) == grid
        t = [float(a.subs(params)) for a in k.basis_areas()]
        with pytest.raises(NoConvergence) as oracle:
            pass_stop_oracle(W, t, SolverOptions(moduli_per_coord=moduli, max_steps=max_steps))
        assert str(caught.value) == str(oracle.value)
        if max_steps == 0:
            best = min(math.sqrt(sum(abs(g) ** 2 for g in gradient(W, list(map(cmath.exp, w)), t)))
                       for w in _grid_starts(moduli, 8, 0, grid))
            assert float(found.group(2)) == pytest.approx(best, rel=1e-3)

    def test_truncated_when_max_starts_runs_out(self):
        k, W, params = f2_setup()
        report, _ = grid_solve(k, W, params, max_starts=1)
        assert report.attempted == 1
        assert report.deduped < report.expected == 4
        assert report.truncated

    def test_report_document_replays(self):
        k, W, params = f2_setup()
        report, t = solve(k, W, params)
        doc = critical_report_to_document(report, params)
        assert doc["multistart"] == {
            "attempted": report.attempted, "converged": report.converged,
            "deduped": 4, "expected": 4, "orbit_size": 2, "grid_size": report.grid_size,
            "truncated": False, "unlifted": 0, "polyhedral": 0, "grid_fallbacks": 0,
        }
        opts = dict(doc["options"])
        opts["moduli_per_coord"] = tuple(tuple(m) for m in opts["moduli_per_coord"])
        replay = find_critical_points(W, t, SolverOptions(**opts))
        assert critical_report_to_document(replay, params) == doc


def shift_classes(shifts) -> set:
    """Log-coordinate shifts 2 pi theta as theta tuples of Fractions in [0, 1)."""
    return {tuple(Fraction(x / (2 * math.pi)).limit_denominator(1000) % 1 for x in shift)
            for shift in shifts}


def random_exponents(rng, n):
    """A few small random exponent vectors in Z^n, the zero vector (a
    constant term) among them now and then, sorted as W's terms are."""
    span = {1: 6, 2: 3, 3: 1}[n]
    exponents = {tuple(rng.randint(-span, span) for _ in range(n))
                 for _ in range(rng.randint(n + 1, n + 4))}
    if rng.random() < 0.3:
        exponents.add((0,) * n)
    return tuple(sorted(exponents))


# the P(K_{P1 x dP6}+O) potential of crit-sweep, in its ray order, support
# constants and q-basis
P1XDP6_RAYS = [(0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1),
               (-1, -1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1), (0, 0, 0, -1)]
P1XDP6_CONES = [(0, 1, 2, 7), (0, 1, 2, 8), (0, 1, 6, 7), (0, 1, 6, 8), (0, 2, 3, 7),
                (0, 2, 3, 8), (0, 3, 4, 7), (0, 3, 4, 8), (0, 4, 5, 7), (0, 4, 5, 8),
                (0, 5, 6, 7), (0, 5, 6, 8), (1, 2, 7, 9), (1, 2, 8, 9), (1, 6, 7, 9),
                (1, 6, 8, 9), (2, 3, 7, 9), (2, 3, 8, 9), (3, 4, 7, 9), (3, 4, 8, 9),
                (4, 5, 7, 9), (4, 5, 8, 9), (5, 6, 7, 9), (5, 6, 8, 9)]
P1XDP6_LAMBDAS = ["0", "0", "0", "-t1", "-t2", "-t3", "-t4", "0", "-t5", "-t6"]
P1XDP6_Q_BASIS = [(-1, 1, -1, 1, 0, 0, 0, 0, 0, 0), (-2, 1, 0, 0, 1, 0, 0, 0, 0, 0),
                  (-2, 0, 1, 0, 0, 1, 0, 0, 0, 0), (-1, -1, 1, 0, 0, 0, 1, 0, 0, 0),
                  (-2, 0, 0, 0, 0, 0, 0, 1, 1, 0), (1, 0, 0, 0, 0, 0, 0, 0, 0, 1)]


class TestSymmetry:
    """Every root's images under G = L*/Z^n are roots; the solver closes
    the converged iterates under G, and verifies each image by the exact
    residual, as it does the grid's roots."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_group_matches_brute_force(self, n):
        rng = random.Random(60 + n)
        full = larger = 0
        for _ in range(25):
            exponents = random_exponents(rng, n)
            T = random_unimodular(rng, n)
            image = tuple(sorted(tuple(sum(a[i] * T[i][j] for i in range(n)) for j in range(n))
                                 for a in exponents))
            for exps in (exponents, image):
                oracle = symmetry_group_oracle(exps)
                if oracle is None:  # L of lower rank: the bound would be 0
                    with pytest.raises(SchemaError, match="not full-dimensional"):
                        _exponent_structure(exps)
                    continue
                bound, shifts = _exponent_structure(exps)[:2]
                assert shifts[0] == (0.0,) * n
                assert shift_classes(shifts) == oracle
                assert len(shifts) == len(oracle)  # no class listed twice
                assert bound > 0 and bound % len(shifts) == 0
            if oracle is None:
                continue
            # the bound and the group's order do not depend on the chart
            (bound, shifts), (image_bound, image_shifts) = (
                _exponent_structure(exps)[:2] for exps in (exponents, image))
            assert (bound, len(shifts)) == (image_bound, len(image_shifts))
            full += 1
            larger += len(shifts) > 1
        assert 15 <= full < 25 and larger >= 5  # some samples have L of lower rank

    def test_f2_image_is_negation(self):
        k, W, params = f2_setup()
        shifts = _exponent_structure(tuple(sorted(W.terms))).shifts
        half = Fraction(1, 2)
        assert shift_classes(shifts) == {(0, 0), (half, half)}
        roots = f2_closed_form_roots(0.01, 0.01)
        assert_point_sets_match_relative([(-z1, -z2) for z1, z2 in roots], roots)
        report, _ = solve(k, W, params)
        assert report.orbit_size == 2
        assert_point_sets_match_relative([(-z1, -z2) for z1, z2 in report.points],
                                         report.points)

    def test_bundle_orbits_flip_the_fiber(self):
        # on P(K_Y+O) the rays +-e_n and w_i + e_n make z_n -> -z_n the
        # symmetry, and the only one on these bases
        for base in BUNDLE_BASES.values():
            k, W, params = bundle_setup(base())
            n = W.zvars
            assert shift_classes(_exponent_structure(tuple(sorted(W.terms))).shifts) == {
                (0,) * n, (0,) * (n - 1) + (Fraction(1, 2),)}

    def test_item_8_point_completes(self):
        # crit-sweep seed 21, draw 134: 23 of 24 roots after all 4096 starts
        # without the images, all 24 after 3046 starts with them
        fan = validate_fan(4, P1XDP6_RAYS, P1XDP6_CONES)
        k = KahlerData(fan, P1XDP6_LAMBDAS, P1XDP6_Q_BASIS)
        W = corrected_potential(fan, k, GWProvider(k, assume_zero=True), 2)
        params = {"t1": Fraction(413, 100), "t2": Fraction(473, 100),
                  "t3": Fraction(128, 25), "t4": Fraction(483, 100),
                  "t5": Fraction(78, 25), "t6": Fraction(83, 25)}
        report, _ = solve(k, W, params)
        assert report.deduped == report.expected == 24
        assert not report.truncated
        assert report.attempted < 4096

    @pytest.mark.parametrize("name, seed", [("P(K_F1+O)", 6), ("P(K_P1xdP6+O)", 3)])
    def test_zero_radius_exceeds_the_bound(self, name, seed):
        # copies of one root a few ulps apart are all kept at radius 0; the
        # run does not stop at a bound they fill, so the next root exceeds
        # it, which the root bound refuses instead of reporting. (On F2 the
        # first two starts reach both orbits, and no copy is kept)
        k, W, _ = bound_case(name)
        with pytest.raises(RootBoundExceeded, match=r"^\d+ distinct verified critical "
                           r"points exceed the root bound (8|24): the dedup radius 0.0 "):
            grid_solve(k, W, cone_point(k, seed), dedup_radius=0.0)
        k, W, _ = bound_case("F2")
        assert grid_solve(k, W, cone_point(k, 6), dedup_radius=0.0)[0].deduped == 4


class TestStartOrder:
    def test_order_permutes_the_grid(self):
        moduli = ((0.5, 1.0, 2.0), (1.0, 3.0))
        grid = 12 * 8
        starts = list(_grid_starts(moduli, 4, 0, grid))
        assert len(set(starts)) == grid
        # any stretch of the order decodes alone to the same starts
        parts = [list(_grid_starts(moduli, 4, a, b - a))
                 for a, b in ((0, 7), (7, 40), (40, grid))]
        assert [w for part in parts for w in part] == starts

    @pytest.mark.parametrize("n, radii", [(2, 3), (4, 5)])
    def test_every_seed_starts_early(self, n, radii):
        # the lexicographic prefix the order replaces held the first n - 1
        # coordinates at their first seed
        moduli = (tuple(1.0 + j for j in range(radii)),) * n
        grid = (8 * radii) ** n
        starts = list(_grid_starts(moduli, 8, 0, 64))
        for j in range(n):
            assert len({w[j] for w in starts}) == 8 * radii

    @pytest.mark.parametrize("moduli, phases", [
        (((0.5, 1.0, 2.0), (1.0, 3.0)), 4),
        (((0.1, 0.7, 5.0),) * 4, 8),
        # at 24 and 100 phases, 2 pi p / phases depends on the operation order
        (((2.0,),), 100),
        (((1e-30, 0.3), (7.0,), (0.9, 1.1)), 24),
    ])
    def test_matches_seed_table(self, moduli, phases):
        grid = math.prod(len(m) * phases for m in moduli)
        for first, count in ((0, min(grid, 500)), (3, 7), (grid - 5, 5)):
            got = list(_grid_starts(moduli, phases, first, count))
            assert got == seed_table_starts(moduli, phases, first, count)

    def test_phase_count_costs_no_memory(self):
        # a grid of 10**6 phases per modulus: only the starts run are built,
        # at most 64 here, or 64 of them when none converges
        k, W, params = line_setup()
        tracemalloc.start()
        try:
            report, _ = grid_solve(k, W, params, phases_per_coord=10**6, max_starts=64)
            starts = list(_grid_starts(report.options.moduli_per_coord, 10**6, 0, 64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < report.attempted <= 64 and len(starts) == 64
        assert report.grid_size == len(report.options.moduli_per_coord[0]) * 10**6
        assert peak < 10 * 2**20

    def test_stride_is_coprime(self):
        for grid in (1, 2, 12, 64, 1344, 8 ** 4, 240 ** 4):
            stride = _stride(grid)
            assert math.gcd(stride, grid) == 1
            assert abs(stride - 0.618 * grid) <= 0.01 * grid + 2

    def test_stride_past_the_float_range_refused(self):
        # the largest power of two a float holds keeps the float rule's
        # stride (the rounded share is even, so one is added); the next one
        # has no float share, and its grid is refused as input before any
        # stride is taken
        grid = 2 ** 1023
        assert _stride(grid) == round((math.sqrt(5.0) - 1.0) / 2.0 * float(grid)) + 1
        assert start_grid_size(((1.0,),), grid) == grid
        with pytest.raises(SchemaError, match="more points than a float can hold"):
            start_grid_size(((1.0,),), 2 * grid)


def log_cloud(rng, n, count, radius):
    """Log-coordinate points with planted near-duplicates, some straddling
    the phase cut at +-pi, in a shuffled order."""
    base = [np.array([complex(rng.uniform(-5, 5), rng.uniform(-math.pi, math.pi))
                      for _ in range(n)]) for _ in range(count)]
    for j in range(0, count, 4):
        base[j][0] = complex(base[j][0].real, math.pi - 0.2 * radius)
    points = []
    for p in base:
        points.append(p)
        for _ in range(rng.randint(0, 3)):
            shift = np.array([complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
                              for _ in range(n)]) * radius
            dup = p + shift
            if rng.random() < 0.5:
                dup[0] += 2j * math.pi * rng.choice((-1, 1))
            points.append(dup)
    rng.shuffle(points)
    return np.array(points)


class TestDedup:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_pairwise_scan(self, n):
        # the ends in order, then their images shift by shift, first wins
        rng = random.Random(40 + n)
        shifts = [(0.0,) * n, (math.pi,) + (0.0,) * (n - 1), (0.5,) * n]

        def images(ends):
            return [tuple(x + 1j * s for x, s in zip(p, shift)) for shift in shifts for p in ends]

        for radius in (1e-8, 0.05):
            cloud = [tuple(p) for p in log_cloud(rng, n, 40, radius).tolist()]
            assert 40 <= len(pairwise_dedup_oracle(cloud, radius)) < len(cloud)
            kept = []
            oracle = pairwise_dedup_oracle(images(cloud), radius)
            assert _merge(kept, cloud, shifts, radius) == kept == oracle
            # the ends in batches: each merged against the points kept before
            kept = []
            first = _merge(kept, cloud[:25], shifts, radius)
            second = _merge(kept, cloud[25:], shifts, radius)
            assert first == pairwise_dedup_oracle(images(cloud[:25]), radius)
            assert second == pairwise_dedup_oracle(images(cloud[25:]), radius, first)
            assert kept == first + second

    def test_ends_come_before_their_images(self):
        # the second end lies within the radius of the first one's image:
        # the end is kept, and the image is dropped
        first = (0.3 + 0.1j, -1.0 + 0.2j)
        second = (0.3 + (0.1 + math.pi) * 1j + 1e-9, -1.0 + 0.2j)
        kept = []
        assert _merge(kept, [first, second], [(0.0, 0.0), (math.pi, 0.0)], 1e-8) == [
            first, second]
        assert kept == [first, second]

    def test_zero_radius_merges_only_exact_copies(self):
        cloud = [(1 + 1j,), (1 + 1j,), (1 + 1j + 1e-15,)]
        assert _merge([], cloud, [(0.0,)], 0.0) == [(1 + 1j,), (1 + 1j + 1e-15,)]


class TestCompiledForm:
    """evaluate and gradient come from laurent.numeric_terms; they must
    equal, bit for bit, the term-by-term evaluation they replaced. The
    reports take W and its residual from roots.candidate instead, one pass
    over the terms c exp(<a, log z>) in the chart; they agree with that
    evaluation at the reported points up to rounding."""

    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_evaluate_and_gradient_bit_identical(self, name):
        k, W, _ = bound_case(name)
        rng = random.Random(17)
        for seed in (5, 6, 7):
            t = [float(a.subs(cone_point(k, seed))) for a in k.basis_areas()]
            for _ in range(5):
                z = [cmath.rect(rng.uniform(0.01, 3.0), rng.uniform(-math.pi, math.pi))
                     for _ in range(W.zvars)]
                assert evaluate(W, z, t) == reference_evaluate(W, z, t)
                assert gradient(W, z, t) == tuple(
                    reference_evaluate(W.log_derivative(j), z, t) for j in range(W.zvars))

    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_report_values_and_residuals_within_rounding(self, name):
        k, W, _ = bound_case(name)
        for seed in (5, 6):
            params = cone_point(k, seed)
            for run in (solve, grid_solve):
                report, t = run(k, W, params)
                assert report.points
                for z, value, resid in zip(report.points, report.values, report.residuals):
                    bound = rounding_bound(W, z, t, report.options.tol)
                    assert abs(value - reference_evaluate(W, z, t)) <= bound
                    g = [reference_evaluate(W.log_derivative(j), z, t) for j in range(W.zvars)]
                    assert abs(resid - math.sqrt(sum(abs(v) ** 2 for v in g))) <= bound
                    assert resid <= report.options.tol


def rounding_bound(W, z, t, tol) -> float:
    """perfbench's allowance for two float evaluations of W or its
    log-gradient at z to differ: tol + 64 eps sum |a| |c z^a| over W's
    terms, |a| the largest exponent entry and at least 1."""
    scale = sum(abs(c * math.prod(x ** e for x, e in zip(z, a))) * max(1, *map(abs, a))
                for a, c in numeric_terms(W, t))
    return tol + 64 * sys.float_info.epsilon * scale
