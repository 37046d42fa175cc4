"""Integer lattice algebra against sympy oracles and brute force."""

import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, strategies as st

from conftest import (
    accepts_q_basis,
    cone_coefficients,
    elementary_divisors,
    hirzebruch2,
    matrix_det,
    p1_times_p1,
    projective_line,
    projective_plane,
    random_smooth_2d_fan,
    random_unimodular,
    solve_unique,
    unimodular_map_search,
)
from test_integer_solves import product_fan
from toricmirror.bundle import projectivize_canonical
from toricmirror.errors import (
    DependentGenerators,
    DimensionMismatch,
    NotFullRank,
    ZeroVector,
)
from toricmirror.fan import validate_fan
from toricmirror.gw import GWProvider
from toricmirror.kahler import KahlerData
from toricmirror.lattice import (
    hermite_normal_form,
    is_primitive,
    kernel_basis,
    lattice_coordinates,
    normalized_volume,
    rank,
)
from toricmirror.potential import correction_details

F2_RAY_MATRIX = [[0, 1, -1, 0], [-1, 0, -2, 1]]  # columns are the F2 rays


def in_lattice(vec, basis):
    """Exact test that vec is an integer combination of the basis rows."""
    if not basis:
        return all(x == 0 for x in vec)
    cols = [[b[i] for b in basis] for i in range(len(vec))]
    sol = solve_unique(cols, list(vec))
    return sol is not None and all(c.denominator == 1 for c in sol)


def same_lattice(basis_a, basis_b):
    return all(in_lattice(v, basis_b) for v in basis_a) and all(
        in_lattice(v, basis_a) for v in basis_b
    )


class TestKernelBasis:
    def test_f2_spans_fiber_and_base_classes(self):
        basis = kernel_basis(F2_RAY_MATRIX)
        assert len(basis) == 2
        assert same_lattice(basis, [(1, 0, 0, 1), (-2, 1, 1, 0)])

    def test_plane_and_line(self):
        assert kernel_basis([[1, 0, -1], [0, 1, -1]]) == [(1, 1, 1)]
        assert kernel_basis([[1, -1]]) == [(1, 1)]

    def test_dependent_rows_rejected(self):
        with pytest.raises(NotFullRank):
            kernel_basis([[1, 2, 3], [2, 4, 6]])

    def test_exactness_and_rank_on_random_matrices(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(1, 3)
            cols = rng.randint(rows, 5)
            mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            if sympy.Matrix(mat).rank() < rows:
                with pytest.raises(NotFullRank):
                    kernel_basis(mat)
                continue
            basis = kernel_basis(mat)
            assert len(basis) == cols - rows
            for b in basis:
                assert all(sum(r[j] * b[j] for j in range(cols)) == 0 for r in mat)

    def test_saturation_by_brute_force(self):
        # every small integer kernel vector must be an integer combination
        # of the returned basis
        rng = random.Random(21)
        for _ in range(10):
            cols = rng.randint(2, 4)
            mat = [[rng.randint(-3, 3) for _ in range(cols)]]
            if all(x == 0 for x in mat[0]):
                continue
            basis = kernel_basis(mat)
            for cand in product(range(-3, 4), repeat=cols):
                if sum(a * b for a, b in zip(mat[0], cand)) == 0:
                    assert in_lattice(cand, basis), (mat, cand, basis)

    def test_saturation_of_multi_row_kernels(self):
        # elementary divisors all 1: the basis spans a direct summand, so no
        # kernel vector is a fractional combination of it
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            rows = rng.randint(2, 3)
            cols = rng.randint(rows + 1, 6)
            mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            if sympy.Matrix(mat).rank() < rows:
                continue
            basis = kernel_basis(mat)
            assert elementary_divisors(basis) == [1] * (cols - rows), (mat, basis)
            checked += 1


class TestHermiteSmith:
    @pytest.mark.parametrize("mat, message", [
        ([[1, 2], [3]], "ragged matrix"),
        ([[1, 2.0]], "matrix entries must be integers, got 2.0"),
        ([[True, 0]], "matrix entries must be integers, got True"),
    ])
    def test_malformed_matrix_refused(self, mat, message):
        for function in (hermite_normal_form, rank):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                function(mat)

    def test_hnf_transform_is_unimodular(self):
        rng = random.Random(11)
        for _ in range(25):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            mat = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            H, U = hermite_normal_form(mat)
            assert abs(matrix_det(U)) == 1
            for i in range(m):
                for j in range(n):
                    assert sum(U[i][k] * mat[k][j] for k in range(m)) == H[i][j]

    def test_elementary_divisors_match_sympy(self):
        from sympy.matrices.normalforms import smith_normal_form

        rng = random.Random(13)
        for _ in range(25):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            snf = smith_normal_form(sympy.Matrix(mat))
            expected = [abs(int(snf[i, i])) for i in range(min(m, n)) if snf[i, i] != 0]
            assert elementary_divisors(mat) == expected

    def test_rank_matches_sympy(self):
        # small entries make many random matrices singular
        rng = random.Random(17)
        for _ in range(40):
            m = rng.randint(1, 5)
            n = rng.randint(0, 5)
            mat = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(m)]
            assert rank(mat) == (sympy.Matrix(mat).rank() if n else 0), mat
        assert rank([]) == 0


class TestPrimitive:
    def test_examples(self):
        assert is_primitive((-1, -2))
        assert not is_primitive((2, 4))
        assert is_primitive((0, 1))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            is_primitive((0, 0, 0))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
    def test_matches_gcd(self, vec):
        import math

        if not any(vec):
            with pytest.raises(ZeroVector):
                is_primitive(vec)
        else:
            assert is_primitive(vec) == (math.gcd(*(abs(x) for x in vec)) == 1)


class TestConeCoefficients:
    def test_base_relation_direction(self):
        assert cone_coefficients((0, -2), [(0, -1)]) == (Fraction(2),)

    def test_origin_in_zero_cone(self):
        assert cone_coefficients((0, 0), []) == ()
        assert cone_coefficients((1, 0), []) is None

    def test_outside_span(self):
        assert cone_coefficients((1, 1), [(1, 0)]) is None

    def test_negative_coefficient_rejected(self):
        assert cone_coefficients((-1, 0), [(1, 0), (0, 1)]) is None

    def test_dependent_generators(self):
        with pytest.raises(DependentGenerators):
            cone_coefficients((1, 1), [(1, 0), (2, 0)])

    def test_reconstruction_is_exact(self):
        rng = random.Random(3)
        for _ in range(30):
            gens = [(1, 0, 0), (0, 1, 1), (0, 0, 2)]
            coeffs = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in gens]
            point = [
                sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3)
            ]
            got = cone_coefficients(point, gens)
            assert got == tuple(coeffs)


class TestUnimodularSearch:
    BUNDLE = ([(0, 1), (1, 1), (-1, 1), (0, -1)],
              [(0, 1), (0, 2), (1, 3), (2, 3)])
    PAPERF2 = ([(0, -1), (1, 0), (-1, -2), (0, 1)],
               [(0, 1), (0, 2), (1, 3), (2, 3)])

    def test_two_f2_conventions(self):
        T = unimodular_map_search(*self.BUNDLE, *self.PAPERF2)
        assert T is not None
        assert abs(matrix_det(T)) == 1
        rays_a, cones_a = self.BUNDLE
        rays_b, cones_b = self.PAPERF2
        images = [
            tuple(sum(T[i][j] * r[j] for j in range(2)) for i in range(2))
            for r in rays_a
        ]
        assert sorted(images) == sorted(rays_b)
        lookup = {r: i for i, r in enumerate(rays_b)}
        mapped = {frozenset(lookup[images[i]] for i in c) for c in cones_a}
        assert mapped == {frozenset(c) for c in cones_b}

    def test_identity_on_self(self):
        rays, cones = self.PAPERF2
        assert unimodular_map_search(rays, cones, rays, cones) == ((1, 0), (0, 1))

    def test_ray_count_mismatch(self):
        plane = ([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
        assert unimodular_map_search(*plane, *self.PAPERF2) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            unimodular_map_search([(1,), (-1,)], [(0,), (1,)], *self.PAPERF2)

    def test_caps(self):
        rays = [(1, 0)] * 20
        with pytest.raises(ValueError):
            unimodular_map_search(rays, [], rays, [])


def combine(coeffs, basis):
    return tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                 for i in range(len(basis[0])))


def cone_zero_kahler(fan):
    """Kahler data with lambda 0 on the first maximal cone's rays and -t_j
    on the others: a nonempty polytope for every positive t."""
    first = set(fan.maximal_cones[0])
    lambdas, j = [], 0
    for i in range(fan.nrays):
        if i in first:
            lambdas.append("0")
        else:
            j += 1
            lambdas.append(f"-t{j}")
    return KahlerData(fan, lambdas)


DP6 = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]


def bundle_fans():
    return [
        hirzebruch2(),
        projectivize_canonical(projective_plane()),
        projectivize_canonical(p1_times_p1()),
        projectivize_canonical(validate_fan(2, DP6)),
    ]


class TestLatticeCoordinates:
    """lattice_coordinates against in_lattice (Fraction rref per vector)."""

    def test_examples(self):
        coords = lattice_coordinates([(2, 0), (1, 3)])
        assert coords((3, 3)) == (1, 1)
        assert coords((1, 3)) == (0, 1)
        assert coords((1, 0)) is None  # half of a basis vector
        assert lattice_coordinates([(-3, 1, 1, 1, 0)])((6, -2, -2, -2, 0)) == (-2,)
        assert lattice_coordinates([(1, 1, 1)])((1, 2, 1)) is None  # off the span

    def test_empty_basis(self):
        coords = lattice_coordinates([])
        assert coords((0, 0)) == ()
        assert coords((0, 1)) is None

    def test_dependent_rows_rejected(self):
        base = (-3, 1, 1, 1, 0)
        with pytest.raises(DependentGenerators):
            lattice_coordinates([base, tuple(2 * x for x in base)])
        with pytest.raises(DependentGenerators):
            lattice_coordinates([(1, 0, 0), (0, 1, 0), (1, 1, 0)])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lattice_coordinates([(1, 0)])((1, 0, 0))

    def test_against_rational_solver(self):
        rng = random.Random(29)
        for _ in range(200):
            rows = rng.randint(1, 4)
            cols = rng.randint(rows, 6)
            basis = [tuple(rng.randint(-4, 4) for _ in range(cols)) for _ in range(rows)]
            roll = rng.random()
            if roll < 0.2:  # not saturated: a multiple of a row
                k = rng.randrange(rows)
                basis[k] = tuple(rng.choice((2, 3, -2)) * x for x in basis[k])
            elif roll < 0.35 and rows > 1:  # dependent: a combination of rows
                k = rng.randrange(rows)
                others = [b for i, b in enumerate(basis) if i != k]
                basis[k] = combine([rng.randint(-2, 2) for _ in others], others)
            if sympy.Matrix(basis).rank() < rows:
                with pytest.raises(DependentGenerators):
                    lattice_coordinates(basis)
                continue
            coords = lattice_coordinates(basis)
            for _ in range(8):
                c = [rng.randint(-5, 5) for _ in range(rows)]
                vec = combine(c, basis)
                assert in_lattice(vec, basis)
                assert coords(vec) == tuple(c)
                half = [Fraction(x) for x in c]
                half[rng.randrange(rows)] += Fraction(1, 2)
                vec = combine(half, basis)
                if all(x.denominator == 1 for x in vec):
                    vec = tuple(int(x) for x in vec)
                    assert coords(vec) is None
                    assert not in_lattice(vec, basis)
                vec = tuple(rng.randint(-6, 6) for _ in range(cols))
                got = coords(vec)
                assert (got is not None) == in_lattice(vec, basis), (basis, vec)
                if got is not None:
                    assert combine(got, basis) == vec

    @pytest.mark.parametrize("fan", bundle_fans()[1:], ids=["P2", "P1xP1", "dP6"])
    def test_q_weight_on_correction_classes(self, fan):
        kahler = cone_zero_kahler(fan)
        gw = GWProvider(kahler, assume_zero=True)
        _, records = correction_details(fan, kahler, gw, 3)
        assert records
        for rec in records:
            assert in_lattice(rec.alpha, kahler.q_basis)
            assert combine(rec.q_exponents, kahler.q_basis) == rec.alpha
            assert kahler.q_weight(rec.alpha) == rec.q_exponents


def old_span_check(fan, classes):
    """The rational test the span check replaced: integer coordinates in
    the canonical homology basis and a change of basis of determinant +-1."""
    canonical = fan.homology_basis
    if len(classes) != len(canonical):
        return False
    if not canonical:
        return True
    cols = [[b[i] for b in canonical] for i in range(fan.nrays)]
    change = []
    for vec in classes:
        coords = solve_unique(cols, list(vec))
        if coords is None or any(c.denominator != 1 for c in coords):
            return False
        change.append([int(c) for c in coords])
    return abs(matrix_det(change)) == 1


class TestHomologyBasisCheck:
    def test_agrees_with_change_of_basis_test(self):
        rng = random.Random(31)
        fans = bundle_fans() + [random_smooth_2d_fan(rng, 7) for _ in range(8)]
        for fan in fans:
            canonical = fan.homology_basis
            r = len(canonical)
            for _ in range(6):
                change = random_unimodular(rng, r)
                basis = [combine(row, canonical) for row in change]
                candidates = [basis]
                k = rng.randrange(r)
                scaled = list(basis)
                scaled[k] = tuple(2 * x for x in basis[k])
                candidates.append(scaled)
                if r > 1:
                    repeated = list(basis)
                    repeated[k] = basis[(k + 1) % r]
                    candidates.append(repeated)
                off_kernel = list(basis)
                off_kernel[k] = (basis[k][0] + 1,) + basis[k][1:]
                candidates.append(off_kernel)
                candidates.append(basis[:-1])
                candidates.append(basis + [basis[0]])
                for cand in candidates:
                    expected = old_span_check(fan, cand)
                    assert accepts_q_basis(fan, cand) == expected, (fan, cand)
                assert accepts_q_basis(fan, basis)
                assert not accepts_q_basis(fan, scaled)


class TestNormalizedVolume:
    """normalized_volume (d! vol of the convex hull) against Qhull, and
    against the cone count of fans whose rays all lie on the boundary of
    their convex hull (Fano and semi-Fano)."""

    def test_examples(self):
        assert normalized_volume([(0, 0), (1, 0), (0, 1)]) == 1
        assert normalized_volume([(1,), (-1,)]) == 2
        assert normalized_volume([(3,)]) == 0
        assert normalized_volume([(0, 0), (1, 1), (3, 3), (-2, -2)]) == 0  # a segment
        assert normalized_volume([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 0  # flat
        assert normalized_volume([(0, 0), (2, 0), (0, 2), (1, 1), (1, 0)]) == 4
        cube = list(product((0, 1), repeat=4))
        assert normalized_volume(cube) == math.factorial(4)

    def test_matches_qhull(self):
        spatial = pytest.importorskip("scipy.spatial")
        rng = random.Random(41)
        flat = 0
        for d in range(1, 5):
            for trial in range(40):
                count = rng.randint(d + 1, d + 8)
                pts = sorted({tuple(rng.randint(-3, 3) for _ in range(d))
                              for _ in range(count)})
                if trial % 8 == 0:  # planted: every point on the hyperplane x_0 = x_d-1
                    pts = sorted({p[:-1] + (p[0],) for p in pts})
                if d == 1:  # Qhull needs dimension 2 or more
                    want = max(pts)[0] - min(pts)[0]
                else:
                    try:
                        want = spatial.ConvexHull(pts).volume * math.factorial(d)
                    except spatial.QhullError:  # fewer than d + 1 independent points
                        want = 0
                flat += want == 0
                assert normalized_volume(pts) == pytest.approx(want, abs=1e-6), pts
        assert flat >= 12

    def test_matches_cone_count(self):
        rng = random.Random(43)
        p1 = projective_line()
        dp6 = validate_fan(2, DP6)
        bases = [p1, projective_plane(), p1_times_p1(),
                 validate_fan(2, [(1, 0), (0, 1), (-1, -1), (0, -1)]), dp6,
                 product_fan(p1, dp6), product_fan(p1, product_fan(p1, p1))]
        fans = [p1, hirzebruch2(), *bases[1:]]
        fans += [projectivize_canonical(base) for base in bases]
        for fan in fans:
            assert normalized_volume(fan.rays) == len(fan.maximal_cones), fan.rays
            # the volume is invariant under GL(n, Z) and translation
            chart = random_unimodular(rng, fan.dimension)
            shift = [rng.randint(-3, 3) for _ in range(fan.dimension)]
            moved = [tuple(sum(a * x for a, x in zip(row, r)) + c
                           for row, c in zip(chart, shift)) for r in fan.rays]
            assert normalized_volume(moved) == len(fan.maximal_cones)
