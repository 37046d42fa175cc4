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
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    NO_ISOLATED_ROOTS,
    batch_boundary_oracle,
    dual_kahler,
    fd_log_gradient,
    hirzebruch2_kahler,
    laurent,
    moment_vertices,
    newton_must_not_run,
    newton_yields,
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
from toricmirror import critical
from toricmirror.bundle import projectivize_canonical
from toricmirror.critical import (
    SolverOptions,
    _dedup,
    _exponent_structure,
    _grid_starts,
    _stride,
    find_critical_points,
    moduli_from_polytope,
)
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
from toricmirror.laurent import LaurentPoly, evaluate, gradient
from toricmirror.potential import corrected_potential, hori_vafa

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


def solve(k, W, params, **overrides):
    t = [float(a.subs(params)) for a in k.basis_areas()]
    options = SolverOptions(
        moduli_per_coord=moduli_from_polytope(k, params), **overrides
    )
    return find_critical_points(W, t, options), t


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
        yields, attempted = newton_yields(laurent({(1,): {(): 1}}), [], options)
        assert attempted == 24  # the whole default grid
        [(found, least)] = yields  # only the closing yield: nothing converged
        assert len(found) == 0 and least <= options.tol
        # z + q/z flows the same way from |z| = 1 toward its roots at
        # |z| = q^(1/2) = exp(-345), far outside the band; the message's best
        # residual is the lockstep loop's
        W = laurent({(1,): {(0,): 1}, (-1,): {(1,): 1}})
        options = options._replace(moduli_per_coord=((1.0,),))
        with pytest.raises(NoConvergence) as caught:
            find_critical_points(W, [690.0], options)
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

    def test_singular_jacobians_end_in_no_convergence(self, monkeypatch):
        # W = z1*z2 + 1/(z1*z2): every Jacobian is exactly singular, so each
        # batched solve raises and falls back to one solve per row, which
        # raises too; its critical points form curves, and none converges.
        # The solver refuses this W before Newton, so the kernel runs alone
        W = laurent({(1, 1): {(): 1}, (-1, -1): {(): 1}})
        ranks = []
        solve_ = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: ranks.append(np.ndim(a)) or solve_(a, b))
        yields, attempted = newton_yields(W, [], SolverOptions())
        assert attempted == 576
        [(found, _)] = yields
        assert len(found) == 0
        assert {2, 3} <= set(ranks)  # batched, then per row

    @pytest.mark.parametrize("terms", NO_ISOLATED_ROOTS.values(), ids=NO_ISOLATED_ROOTS)
    def test_no_isolated_roots_refused_before_newton(self, monkeypatch, terms):
        # the Newton polytope is a segment (or a point, for z): the bound is
        # 0, and no coefficients give W an isolated critical point
        monkeypatch.setattr(critical, "_newton", newton_must_not_run)
        with pytest.raises(SchemaError, match="no isolated critical points: the Newton "
                           "polytope of its nonconstant terms is not full-dimensional"):
            find_critical_points(laurent({z: {(): c} for z, c in terms.items()}), [])

    def test_exact_residual_refuses_a_false_root(self, monkeypatch):
        # a Newton kernel that passes z = 1 off as a root of z + q/z beside
        # the true root z = 0.1: only the true root and its image -0.1 are
        # reported, and alone z = 1 is refused with its residual |1 - q|
        W = laurent({(1,): {(0,): 1}, (-1,): {(1,): 1}})

        def kernel(found):
            def newton(admit, *_):
                admit(len(found))
                yield np.log(np.array(found, dtype=complex))[:, None], math.inf
                yield np.empty((0, 1), dtype=complex), math.inf
            return newton

        monkeypatch.setattr(critical, "_newton", kernel([1.0, 0.1]))
        report = find_critical_points(W, [T001])
        assert_point_sets_match(report, [(-0.1,), (0.1,)])
        monkeypatch.setattr(critical, "_newton", kernel([1.0]))
        with pytest.raises(NoConvergence, match=f"best residual reached {1 - 0.01:.3e}; "):
            find_critical_points(W, [T001])

    def test_moduli_need_one_list_per_coordinate(self):
        _, W, _ = f2_setup()
        with pytest.raises(ValueError, match="need one modulus list per z-coordinate"):
            find_critical_points(W, [T001, T001], SolverOptions(moduli_per_coord=((1.0,),)))

    def test_stats_accounting(self):
        # each converged start brings at most its orbit under the symmetry
        k, W, params = line_setup()
        report, _ = solve(k, W, params)
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


def count_passes(monkeypatch):
    """The rows of each call of the solver's term-value kernel, which runs
    once per Newton pass over the working set (and once per pass of a
    batch in the lockstep oracles)."""
    calls = []
    kernel = critical._term_values

    def counted(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(critical, "_term_values", counted)
    return calls


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
        # stopped at the bound, unless the whole grid fits in one batch
        assert report.attempted < report.grid_size or report.grid_size <= 64
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
        assert _exponent_structure(tuple(sorted(W.terms)))[0] == 2
        one_sided = laurent({(1,): {(0,): 1}, (2,): {(0,): 1}})
        assert _exponent_structure(tuple(sorted(one_sided.terms)))[0] == 1
        report = find_critical_points(one_sided, [T001])
        assert len(report.points) == 1
        assert report.points[0][0] == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("name, fan", SECTIONS, ids=[name for name, _ in SECTIONS])
    def test_bound_is_the_cone_count(self, name, fan):
        # a fan section's rays are W's nonconstant exponents, and on these
        # fans the maximal cones triangulate the boundary of their Newton
        # polytope unimodularly
        assert _exponent_structure(tuple(sorted(fan.rays)))[0] == len(fan.maximal_cones)

    @pytest.mark.parametrize("setup", [f2_setup, plane_setup, product_setup])
    def test_stops_at_the_pass_that_reaches_bound(self, monkeypatch, setup):
        # the first 64 starts reach the bound within 20 passes, before the
        # working set drains to a quarter; stepping every start to its end
        # instead runs 61-68 passes here, until the slowest converges or
        # reaches max_steps
        k, W, params = setup()
        passes = count_passes(monkeypatch)
        report, _ = solve(k, W, params)
        assert report.deduped == report.expected
        assert len(passes) <= 20
        assert report.attempted == 64
        if setup is f2_setup:
            assert report.converged < report.attempted

    @pytest.mark.parametrize("seed", [5, 7])
    def test_rolling_admission_halves_the_passes(self, monkeypatch, seed):
        # the lockstep loop runs 356 and 83 passes here: a batch that does
        # not reach the bound steps on for its stragglers before the next
        # batch is admitted
        k, W, _ = bundle_setup(BUNDLE_BASES["P1xdP6"]())
        params = cone_point(k, seed)
        passes = count_passes(monkeypatch)
        report, t = solve(k, W, params)
        rolling = len(passes)
        passes.clear()
        pass_stop_oracle(W, t, report.options)
        assert report.deduped == report.expected == 24
        assert 2 * rolling <= len(passes)

    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_matches_pass_stop_oracle(self, name):
        k, W, _ = bound_case(name)
        for seed in (5, 6, 7):
            params = cone_point(k, seed)
            report, t = solve(k, W, params)
            _, _, deduped, expected, points = pass_stop_oracle(W, t, report.options)
            assert (report.expected, report.deduped) == (expected, deduped)
            assert_point_sets_match_relative(report.points, points)

    @pytest.mark.parametrize("name", BOUND_CASES)
    def test_matches_batch_boundary_oracle(self, name):
        k, W, _ = bound_case(name)
        for seed in (5, 6, 7):
            params = cone_point(k, seed)
            report, t = solve(k, W, params)
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
            solve(k, W, params, max_steps=max_steps)
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
            best = min(math.sqrt(sum(abs(g) ** 2 for g in gradient(W, np.exp(w), t)))
                       for w in _grid_starts(moduli, 8, 0, grid))
            assert float(found.group(2)) == pytest.approx(best, rel=1e-3)

    def test_truncated_when_max_starts_runs_out(self):
        k, W, params = f2_setup()
        report, _ = solve(k, W, params, max_starts=1)
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
            "truncated": False,
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
                bound, shifts = _exponent_structure(exps)
                assert shifts[0] == (0.0,) * n
                assert shift_classes(shifts) == oracle
                assert len(shifts) == len(oracle)  # no class listed twice
                assert bound > 0 and bound % len(shifts) == 0
            if oracle is None:
                continue
            # the bound and the group's order do not depend on the chart
            (bound, shifts), (image_bound, image_shifts) = map(_exponent_structure,
                                                               (exponents, image))
            assert (bound, len(shifts)) == (image_bound, len(image_shifts))
            full += 1
            larger += len(shifts) > 1
        assert 15 <= full < 25 and larger >= 5  # some samples have L of lower rank

    def test_f2_image_is_negation(self):
        k, W, params = f2_setup()
        shifts = _exponent_structure(tuple(sorted(W.terms)))[1]
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
            assert shift_classes(_exponent_structure(tuple(sorted(W.terms)))[1]) == {
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

    @pytest.mark.parametrize("name, seed", [("F2", 6), ("P(K_P1xdP6+O)", 3)])
    def test_zero_radius_exceeds_the_bound(self, name, seed):
        # copies of one root a few ulps apart are all kept at radius 0,
        # which the root bound refuses instead of reporting
        k, W, _ = bound_case(name)
        with pytest.raises(RootBoundExceeded, match=r"^\d+ distinct verified critical "
                           r"points exceed the root bound (4|24): the dedup radius 0.0 "):
            solve(k, W, cone_point(k, seed), dedup_radius=0.0)


class TestStartOrder:
    def test_order_permutes_the_grid(self):
        moduli = ((0.5, 1.0, 2.0), (1.0, 3.0))
        grid = 12 * 8
        starts = _grid_starts(moduli, 4, 0, grid)
        assert len({tuple(w) for w in starts.tolist()}) == grid
        # the batches of a run are slices of the same order
        parts = [_grid_starts(moduli, 4, a, b - a)
                 for a, b in ((0, 7), (7, 40), (40, grid))]
        assert np.array_equal(np.concatenate(parts), starts)

    @pytest.mark.parametrize("n, radii", [(2, 3), (4, 5)])
    def test_every_seed_starts_early(self, n, radii):
        # the lexicographic prefix the order replaces held the first n - 1
        # coordinates at their first seed
        moduli = (tuple(1.0 + j for j in range(radii)),) * n
        grid = (8 * radii) ** n
        starts = _grid_starts(moduli, 8, 0, 64)
        for j in range(n):
            assert len(set(starts[:, j].tolist())) == 8 * radii

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
            got = _grid_starts(moduli, phases, first, count)
            assert got.tobytes() == seed_table_starts(moduli, phases, first, count).tobytes()

    def test_phase_count_costs_no_memory(self):
        # a grid of 10**6 phases per modulus: only the 64 starts run are built
        k, W, params = line_setup()
        tracemalloc.start()
        try:
            report, _ = solve(k, W, params, phases_per_coord=10**6, max_starts=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.attempted == 64
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
        # has no float share and is refused as input
        grid = 2 ** 1023
        assert _stride(grid) == round((math.sqrt(5.0) - 1.0) / 2.0 * float(grid)) + 1
        with pytest.raises(SchemaError, match="more points than a float can hold"):
            _stride(2 * grid)


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
        rng = random.Random(40 + n)
        for radius in (1e-8, 0.05):
            cloud = log_cloud(rng, n, 40, radius)
            empty = np.empty((0, n), dtype=complex)
            kept = _dedup(cloud, empty, radius)
            oracle = pairwise_dedup_oracle(cloud.tolist(), radius)
            assert kept.tolist() == oracle
            assert 40 <= len(kept) < len(cloud)
            # the same set when the points arrive in batches
            first = _dedup(cloud[:25], empty, radius)
            second = _dedup(cloud[25:], first, radius)
            assert np.concatenate([first, second]).tolist() == oracle

    def test_zero_radius_merges_only_exact_copies(self):
        cloud = np.array([[1 + 1j], [1 + 1j], [1 + 1j + 1e-15]])
        assert _dedup(cloud, np.empty((0, 1), dtype=complex), 0.0).tolist() == [
            [1 + 1j], [1 + 1j + 1e-15]]


class TestCompiledForm:
    """evaluate, gradient and the report's values and residuals come from
    laurent.numeric_terms; they must equal, bit for bit, the term-by-term
    evaluation they replaced."""

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
    def test_report_values_and_residuals_bit_identical(self, name):
        k, W, _ = bound_case(name)
        for seed in (5, 6):
            report, t = solve(k, W, cone_point(k, seed))
            assert report.points
            assert list(report.values) == [reference_evaluate(W, z, t) for z in report.points]
            assert list(report.residuals) == [
                float(np.linalg.norm([reference_evaluate(W.log_derivative(j), z, t)
                                      for j in range(W.zvars)]))
                for z in report.points]
