"""Polyhedral starts of the 2-D Newton systems: the volumes of their mixed
cells against the root bound and the mixed volume, their solves against the
grid alone, the order of the reported points, and the critical values
against the Jacobian ring, an oracle the solver does not share."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import toricmirror
from conftest import dual_kahler, grid_alone, jacobian_charpoly, laurent
from test_critical import assert_point_sets_match_relative, cone_point, solve, spy_newton
from test_documents_cli import DP6_DOC, bundle_potential
from test_integer_solves import DP6
from test_potential import BUNDLES, catalog_bases, in_three_charts
from test_roots import SWEEP_BASES
from toricmirror import roots
from toricmirror.bundle import projectivize_canonical
from toricmirror.cli import main
from toricmirror.critical import find_critical_points
from toricmirror.fan import validate_fan
from toricmirror.gw import GWProvider
from toricmirror.lattice import normalized_volume
from toricmirror.laurent import numeric_terms
from toricmirror.potential import corrected_potential, hori_vafa
from toricmirror.roots import _exponent_structure, _polyhedral_starts, compile_terms

NEWTON_BASES = ("F1", "dP6", "P1xdP6")  # the catalog bases with a 2-D Newton system


def fano_w(fan):
    """The dual Kahler data of a Fano fan and its Hori-Vafa W."""
    k = dual_kahler(fan)
    return k, hori_vafa(fan, k)


def bundle_w(fan):
    """The dual Kahler data of a bundle fan and its corrected W at cutoff
    2, invariants absent from every source read as 0."""
    k = dual_kahler(fan)
    return k, corrected_potential(fan, k, GWProvider(k, assume_zero=True), 2)


def steep_chart(seed, name):
    charts = dict(in_three_charts(
        {n: projectivize_canonical(b) for n, b in catalog_bases().items()}, seed))
    return charts[name]


# every catalog fan with a 2-D Newton system, in three GL(n, Z) charts: the
# Fano bases (W itself for F1 and dP6, the dP6 factor of P1 x dP6) and their
# bundles; then the steep charts of the bundles' dP6 factor where the grid
# alone missed roots or found none (ray entries up to 237)
CELL_CASES = (
    [(f"fano-{name}", fan, fano_w) for name, fan in in_three_charts(catalog_bases(), 13)
     if name.split("-")[0] in NEWTON_BASES]
    + [(f"bundle-{name}", fan, bundle_w) for name, fan in BUNDLES
       if name.split("-")[0] in NEWTON_BASES]
    + [(f"steep-{name}-seed{seed}", steep_chart(seed, name), bundle_w)
       for seed, name in ((5, "P1xdP6-chart2"), (3, "dP6-chart1"), (12, "dP6-chart1"))]
)


def newton_systems(W, t) -> list:
    """(pairs, bound) of each 2-D Newton system of W at t: each 2-D factor
    that is not a simplex, its pairs in its own chart coordinates."""
    structure = _exponent_structure(tuple(sorted(W.terms)))
    pairs = numeric_terms(W, t)
    coefficient = compile_terms(pairs, structure.images, structure.chart).coefficients
    return [([(a, coefficient[i]) for i, a in f.terms], f.bound)
            for f in structure.factors if f.simplex is None and f.dim == 2]


def mixed_volume(pairs) -> int:
    """The mixed volume of the two log-gradient equations' Newton polygons
    Q_j = conv{a : a_j != 0}: area(Q1 + Q2) - area(Q1) - area(Q2), each
    area half a normalized volume."""
    Q = [[a for a, _ in pairs if a[j]] for j in range(2)]
    total = normalized_volume([tuple(x + y for x, y in zip(p, q)) for p in Q[0] for q in Q[1]])
    twice = total - normalized_volume(Q[0]) - normalized_volume(Q[1])
    assert twice % 2 == 0
    return twice // 2


@pytest.mark.parametrize("name, fan, setup", CELL_CASES, ids=[c[0] for c in CELL_CASES])
def test_cell_volumes_are_the_bound(name, fan, setup):
    # the cells a generic lifting picks cover the mixed volume, which is the
    # Kouchnirenko bound on these systems; in the steep charts the
    # candidates with |det B| above the bound are dropped before their
    # phase shifts are built, so the search stays quick (1 s, cache cleared)
    k, W = setup(fan)
    t = [float(a.subs(cone_point(k, 5))) for a in k.basis_areas()]
    systems = newton_systems(W, t)
    assert systems
    roots._candidate_cells.cache_clear()
    start = time.perf_counter()
    found = [_polyhedral_starts(pairs, bound) for pairs, bound in systems]
    assert time.perf_counter() - start < 1.0
    for starts, (pairs, bound) in zip(found, systems):
        assert starts is not None and len(starts) == bound == mixed_volume(pairs)


def base(name):
    return lambda: fano_w(SWEEP_BASES[name])


def bundle(name):
    return lambda: bundle_w(projectivize_canonical(SWEEP_BASES[name]))


NEWTON_CLASSES = {"F1": base("F1"), "dP6": base("dP6"), "P(K_F1+O)": bundle("F1"),
                  "P(K_dP6+O)": bundle("dP6"), "P(K_P1xdP6+O)": bundle("P1xdP6")}


@pytest.mark.parametrize("name", NEWTON_CLASSES)
def test_starts_find_the_roots_of_the_grid_alone(name):
    # the same root set, and with the order rule the same order, on 30
    # seeded points; the roots move only at rounding level, so the order
    # does not follow them. A system whose starts come up short continues
    # on the grid from the roots they found, and runs each start once
    k, W = NEWTON_CLASSES[name]()
    for seed in range(30):
        report, t = solve(k, W, cone_point(k, seed))
        alone = grid_alone(W, t, report.options)
        bound = sum(b for _, b in newton_systems(W, t))
        assert report.polyhedral == bound
        assert (alone.polyhedral, alone.grid_fallbacks) == (0, 1)
        assert report.deduped == alone.deduped == report.expected
        assert_point_sets_match_relative(report.points, alone.points, rel=1e-9)
        for point, other in zip(report.points, alone.points):
            assert all(abs(a - b) <= 1e-9 * abs(b) for a, b in zip(point, other))
        assert all(abs(a - b) <= 1e-9 * abs(b) for a, b in zip(report.values, alone.values))


def test_cells_that_miss_the_bound_run_the_grid_alone(monkeypatch):
    # never a silent fallback: a system whose cells miss its bound (here,
    # with every candidate dropped) runs the grid alone and is counted
    k, W = bundle("P1xdP6")()
    params = cone_point(k, 5)
    report, t = solve(k, W, params)
    alone = grid_alone(W, t, report.options)
    cells = roots._candidate_cells
    monkeypatch.setattr(roots, "_candidate_cells",
                        lambda *args: cells(*args)[:1] + ((),) + cells(*args)[2:])
    fallback, _ = solve(k, W, params)
    assert (fallback.polyhedral, fallback.grid_fallbacks) == (0, 1)
    assert fallback.deduped == fallback.expected
    assert fallback == alone


def test_collided_starts_fall_back_to_the_grid(monkeypatch):
    # a kernel that sends the second start onto the first one's root leaves
    # five of dP6's six roots: the grid continues from those five on what
    # is left of the max_starts budget, the starts are not run again, and
    # the system is counted. The grid stops at the start that verifies the
    # sixth root, no later than the grid alone stops, which needs all six
    k, W = base("dP6")()
    params = cone_point(k, 5)
    report, t = solve(k, W, params)
    assert (report.polyhedral, report.grid_fallbacks, report.deduped) == (6, 0, 6)
    newton = roots._newton
    seen = []

    def collide(system, w, *args):
        seen.append(w)
        return newton(system, seen[0] if len(seen) == 2 else w, *args)

    monkeypatch.setattr(roots, "_newton", collide)
    fallback, _ = solve(k, W, params)
    assert len(seen) == fallback.attempted  # each start runs once
    assert (fallback.polyhedral, fallback.grid_fallbacks) == (6, 1)
    alone = grid_alone(W, t, report.options)
    assert fallback.deduped == alone.deduped == 6
    assert 6 < fallback.attempted <= 6 + alone.attempted
    assert 6 < fallback.converged <= 6 + alone.converged
    for point, other in zip(fallback.points, alone.points):
        assert all(abs(a - b) <= 1e-9 * abs(b) for a, b in zip(point, other))
    # max_starts caps both runs: two starts are left for the grid, and the
    # sixth root the first of them reaches joins the five the starts
    # verified
    seen.clear()
    capped, _ = solve(k, W, params, max_starts=8)
    assert (capped.attempted, capped.polyhedral, capped.grid_fallbacks) == (7, 6, 1)
    assert not capped.truncated and capped.deduped == 6


def test_unit_dp6_continues_one_start_at_a_time():
    # dP6 with unit coefficients at t = (): three of the six polyhedral
    # starts end on one root, so the grid continues from the four roots
    # kept. A working set of 96 grid starts ran to 102 starts in all; one at
    # a time, the grid stops at its sixth start, which verifies the sixth
    # root
    W = laurent({a: {(): 1} for a in DP6})
    report = find_critical_points(W, [])
    assert (report.deduped, report.expected) == (6, 6)
    assert (report.polyhedral, report.grid_fallbacks) == (6, 1)
    assert report.attempted == 12


@pytest.mark.parametrize("name, cap", [("F1", 3), ("dP6", 1), ("P(K_dP6+O)", 5)])
def test_max_starts_below_the_bound_caps_the_starts(monkeypatch, name, cap):
    # the first max_starts starts run, and with no start left for it the
    # grid does not run: the report is short and truncated, never padded
    k, W = NEWTON_CLASSES[name]()
    ends = spy_newton(monkeypatch)
    report, _ = solve(k, W, cone_point(k, 5), max_starts=cap)
    assert len(ends) == cap
    assert (report.attempted, report.polyhedral, report.grid_fallbacks) == (cap, cap, 0)
    assert report.converged <= cap and report.truncated
    assert 0 < report.deduped < report.expected


@pytest.mark.parametrize("seed", [3, 12])
@pytest.mark.parametrize("point", [5, 6, 7])
def test_steep_dp6_charts_reach_the_bound(seed, point):
    # steep charts of the dP6 bundle (ray entries up to 237), where the grid
    # alone found 8 or 10 of 12 roots: from the polyhedral starts, with the
    # grid behind them when they come up short, all twelve
    k, W = bundle_w(steep_chart(seed, "dP6-chart1"))
    report, _ = solve(k, W, cone_point(k, point))
    assert report.deduped == report.expected == 12
    assert all(r <= report.options.tol for r in report.residuals)


@pytest.mark.parametrize("point", [1, 9])
def test_grid_starts_cross_steep_charts(point):
    # in this chart of P(K_dP6+O) (ray entries up to 34) the dP6 factor's
    # polyhedral starts collide, and its grid seeds lie hundreds of log
    # units from every root: with steps clipped to 10, the grid reaches the
    # missing roots within 75 starts; clipped to 0.5, as a polyhedral
    # start's are, 4096 starts found 10 of 12
    charts = dict(in_three_charts(
        {n: projectivize_canonical(SWEEP_BASES[n]) for n in ("F1", "dP6")}, 12))
    k, W = bundle_w(charts["dP6-chart2"])
    report, _ = solve(k, W, cone_point(k, point))
    assert (report.grid_fallbacks, report.deduped, report.expected) == (1, 12, 12)
    assert report.attempted <= 6 + 75


@pytest.mark.parametrize("case", ["starts", "fallback"])
def test_crit_documents_ignore_the_hash_seed(tmp_path, case):
    # byte-identical across runs and hash seeds: on the bundle whose dP6
    # factor is solved from its polyhedral starts alone, and on the dP6
    # base at a point where two starts reach one root and the grid runs
    if case == "starts":
        pot, t = bundle_potential(tmp_path, SWEEP_BASES["P1xdP6"], "P1xdP6")
    else:
        fan = tmp_path / "dp6-fan.json"
        fan.write_text(json.dumps(DP6_DOC), encoding="utf-8")
        pot = str(tmp_path / "dp6.json")
        assert main(["potential", str(fan), "--cutoff", "2", "-o", pot]) == 0
        t = [f"--t=t{j}={v}" for j, v in enumerate((2, 3, 3, 2), 1)]
    src = str(Path(toricmirror.__file__).parents[1])
    outputs = []
    for seed in ("0", "1", "4242", "0"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "toricmirror.cli", "crit", pot, *t],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    multistart = json.loads(outputs[0])["multistart"]
    assert (multistart["polyhedral"], multistart["grid_fallbacks"]) == (
        (6, 0) if case == "starts" else (6, 1))
    assert len(set(outputs)) == 1


def poly_from_roots(values) -> tuple:
    """(prod(s - v), its rounding scale): the coefficients highest degree
    first, and beside each the same elementary symmetric sum of the |v|."""
    product, scale = [1 + 0j], [1.0]
    for v in values:
        product = [a - v * b for a, b in zip(product + [0], [0] + product)]
        scale = [a + abs(v) * b for a, b in zip(scale + [0], [0] + scale)]
    return product, scale


def times(p, q) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def assert_charpoly_matches(values, exact, rel=1e-9):
    """prod(s - v) over the values against the exact coefficients, each
    within rel times the k-th elementary symmetric sum of the |v|: a
    missing or doubled value fails on the degree, a moved one on some
    coefficient."""
    product, scale = poly_from_roots(values)
    assert len(product) == len(exact)
    for p, c, s in zip(product, exact, scale):
        assert abs(p - float(c)) <= rel * s


def base_values(W, t, report):
    """The critical values of W_Y, the Newton factor of a bundle
    W = u (c_0 + W_Y(y)) + c/u, at the reported points, and the factor's
    pairs. A critical point of W lies over a root y of W_Y, with value v,
    v^2 = 4 c P(y): so W_Y(y) = v^2 / (4c) - c_0, each one twice."""
    structure = _exponent_structure(tuple(sorted(W.terms)))
    coefficient = compile_terms(numeric_terms(W, t), structure.images,
                                structure.chart).coefficients
    head, tail = structure.fiber
    (pairs, _), = newton_systems(W, t)
    return [v * v / (4 * coefficient[tail]) - coefficient[head] for v in report.values], pairs


# (class, ring): "W" is W's own Jacobian ring; "base" that of the bundle's
# 2-D Newton factor W_Y, whose critical values the lifted points give. The
# 4-D P1 x dP6 bundle whole (dimension 24) is left out: its Groebner basis
# takes about 30 s
JACOBIAN_CASES = [("F1", "W"), ("dP6", "W"), ("P(K_F1+O)", "base"), ("P(K_dP6+O)", "base"),
                  ("P(K_F1+O)", "W"), ("P(K_dP6+O)", "W")]


@pytest.mark.parametrize("name, ring", JACOBIAN_CASES)
def test_critical_values_are_the_jacobian_eigenvalues(name, ring):
    # the ring has dimension the bound (4 on F1, 6 on dP6, 8 and 12 on their
    # bundles), and W acts on it with the critical values as eigenvalues:
    # the reported values are checked against algebra, not against the
    # exponent data the solver counts with. A mutant that drops a value, or
    # moves one, fails
    k, W = NEWTON_CLASSES[name]()
    report, t = solve(k, W, cone_point(k, 5))
    if ring == "base":
        values, pairs = base_values(W, t, report)
        exact = jacobian_charpoly(pairs)
        exact = times(exact, exact)  # each base root is lifted twice
    else:
        values, exact = list(report.values), jacobian_charpoly(numeric_terms(W, t))
    assert len(exact) - 1 == report.expected
    assert_charpoly_matches(values, exact)
    with pytest.raises(AssertionError):
        assert_charpoly_matches(values[1:], exact)
    moved = list(values)
    moved[0] += 1e-6 * max(abs(v) for v in values)
    with pytest.raises(AssertionError):
        assert_charpoly_matches(moved, exact)


# the blow-up of P3 at a point: its Hori-Vafa W does not factor, a Newton
# system of dimension 3, which has no polyhedral starts
BLP3 = validate_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
                    [(0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_a_3d_newton_system_runs_the_grid_alone():
    # through roots.solve, W, one 3-D Newton factor, and the bundle's 3-D
    # base factor reach their bounds on the grid alone, which is not
    # counted as a fallback; W's values are the eigenvalues of its Jacobian
    # ring (degree 6)
    k, W = fano_w(BLP3)
    kb, Wb = bundle_w(projectivize_canonical(BLP3))
    for seed in range(5):
        report, t = solve(k, W, cone_point(k, seed))
        assert report.factors == ((3, 6, "newton"),)
        assert (report.deduped, report.expected) == (6, 6)
        assert (report.polyhedral, report.grid_fallbacks) == (0, 0)
        if seed == 0:
            exact = jacobian_charpoly(numeric_terms(W, t))
            assert_charpoly_matches(list(report.values), exact)
            with pytest.raises(AssertionError):
                assert_charpoly_matches(list(report.values[1:]), exact)
        report, _ = solve(kb, Wb, cone_point(kb, seed))
        assert report.factors == ((3, 6, "newton"),)
        assert (report.deduped, report.expected) == (12, 12)
        assert (report.polyhedral, report.grid_fallbacks) == (0, 0)


def test_p1xdp6_bundle_values_through_its_factor_and_the_lift():
    # the 4-D bundle's own ring (dimension 24) takes about 30 s; its values
    # are checked through the base instead. W = u (c_0 + W_P1 + W_dP6) + c/u,
    # so each value v has v^2 = 4 c (c_0 + v_P1 + v_dP6) over the factors'
    # critical values, which are the eigenvalues of their Jacobian rings:
    # prod(s - v) = prod over (v_P1, v_dP6) of (s^2 - 4 c (c_0 + v_P1 +
    # v_dP6)), coefficient by coefficient within 1e-9 times the elementary
    # symmetric sums of |v|. The product over v_dP6 is the charpoly of dP6
    # at x - v_P1, the product over v_P1 the resultant in y
    import sympy

    start = time.perf_counter()
    k, W = NEWTON_CLASSES["P(K_P1xdP6+O)"]()
    report, t = solve(k, W, cone_point(k, 5))
    structure = _exponent_structure(tuple(sorted(W.terms)))
    coefficient = compile_terms(numeric_terms(W, t), structure.images,
                                structure.chart).coefficients
    head, tail = (sympy.Rational(*Fraction(coefficient[i]).as_integer_ratio())
                  for i in structure.fiber)
    p1, dp6 = ([(a, coefficient[i]) for i, a in f.terms] for f in structure.factors)
    s, x, y = sympy.symbols("s x y")
    charpolys = [sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                             for c in jacobian_charpoly(pairs)], y).as_expr()
                 for pairs in (p1, dp6)]
    base = sympy.resultant(charpolys[0], charpolys[1].subs(y, x - y), y)
    exact = sympy.Poly(sympy.expand((4 * tail) ** 12 * base.subs(x, s ** 2 / (4 * tail) - head)),
                       s).all_coeffs()
    exact = [Fraction(int(c.p), int(c.q)) for c in exact]
    values = list(report.values)
    assert len(exact) - 1 == report.expected == 24
    assert_charpoly_matches(values, exact)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(AssertionError):
        assert_charpoly_matches(values[1:], exact)
    moved = list(values)
    moved[0] += 1e-6 * max(abs(v) for v in values)
    with pytest.raises(AssertionError):
        assert_charpoly_matches(moved, exact)
