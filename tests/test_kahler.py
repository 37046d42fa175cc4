"""Support functions, areas, q-weights, interior points."""

import random
import re
from fractions import Fraction

import pytest

from conftest import disk_area, interior_point, moment_vertices, sphere_area, support_value
from toricmirror.errors import EmptyInterior, LambdaNotQExpressible, NotInBasisSpan
from toricmirror.fan import Fan, chern_degree
from toricmirror import kahler
from toricmirror.kahler import KahlerData
from toricmirror.linform import LinForm, parse_linear_form

T1, T2, X1, X2 = (LinForm(0, {name: 1}) for name in ("t1", "t2", "x1", "x2"))

F2_ALPHA = (-2, 1, 1, 0)
F2_H = (1, 0, 0, 1)


class TestSupportValues:
    def test_upper_facet_is_x2(self, f2_kahler):
        assert support_value(f2_kahler, 3, (X1, X2)) == X2

    def test_slanted_facet_at_origin(self, f2_kahler):
        assert support_value(f2_kahler, 2, (0, 0)) == parse_linear_form("t1 + 2*t2")

    def test_zero_lambda_at_origin(self, f2_kahler):
        # rays with zero support constant have l_i(0) = 0
        assert support_value(f2_kahler, 1, (0, 0)) == LinForm(0)
        assert support_value(f2_kahler, 3, (0, 0)) == LinForm(0)


class TestDiskAreas:
    def test_basic_disk_area_is_coordinate(self, f2_kahler):
        assert disk_area(f2_kahler, (0, 1, 0, 0), (X1, X2)) == X1

    def test_zero_class(self, f2_kahler):
        assert disk_area(f2_kahler, (0, 0, 0, 0), (X1, X2)) == LinForm(0)

    def test_fiber_disk_pair_is_constant(self, f2_kahler):
        # zero-section disk + infinity-section disk: areas of the two fiber
        # halves sum to the fiber area t2 at every fiber
        assert disk_area(f2_kahler, (1, 0, 0, 1), (X1, X2)) == T2

    def test_positive_at_interior_points(self, f2_kahler):
        rng = random.Random(1)
        params = {"t1": Fraction(1), "t2": Fraction(1)}
        vertices = moment_vertices(f2_kahler, params)
        for _ in range(100):
            weights = [Fraction(rng.randint(1, 50)) for _ in vertices]
            total = sum(weights)
            x = tuple(
                sum(w * v[i] for w, v in zip(weights, vertices)) / total
                for i in range(2)
            )
            for i in range(4):
                areas = disk_area(
                    f2_kahler, tuple(1 if j == i else 0 for j in range(4)), x
                )
                assert areas.subs(params) > 0


class TestSphereAreas:
    def test_base_class_area(self, f2_kahler):
        assert sphere_area(f2_kahler, F2_ALPHA) == T1 == f2_kahler.basis_areas()[0]

    def test_fiber_class_area(self, f2_kahler):
        assert sphere_area(f2_kahler, F2_H) == T2 == f2_kahler.basis_areas()[1]

    def test_zero_class(self, f2_kahler):
        assert sphere_area(f2_kahler, (0, 0, 0, 0)) == LinForm(0)

    def test_agrees_with_pointwise_sum(self, f2_kahler):
        # sum(a_i l_i(x)) is x-independent and equals -sum(a_i lambda_i)
        rng = random.Random(2)
        for cls in (F2_ALPHA, F2_H, (-1, 1, 1, 1)):
            for _ in range(2):
                x = (Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(-9, 9), 5))
                total = disk_area(f2_kahler, cls, x)
                assert total == sphere_area(f2_kahler, cls)

    def test_non_class_rejected(self, f2_kahler):
        with pytest.raises(ValueError):
            sphere_area(f2_kahler, (1, 0, 0, 0))


class TestQWeights:
    def test_basis_classes(self, f2_kahler):
        assert f2_kahler.q_weight(F2_ALPHA) == (1, 0)
        assert f2_kahler.q_weight(F2_H) == (0, 1)
        assert f2_kahler.q_weight((0, 0, 0, 0)) == (0, 0)

    def test_monomial_multiplicativity(self, f2_kahler):
        rng = random.Random(3)
        basis = [F2_ALPHA, F2_H]
        for _ in range(25):
            c1 = [rng.randint(-3, 3) for _ in basis]
            c2 = [rng.randint(-3, 3) for _ in basis]
            a1 = tuple(sum(c * b[i] for c, b in zip(c1, basis)) for i in range(4))
            a2 = tuple(sum(c * b[i] for c, b in zip(c2, basis)) for i in range(4))
            total = tuple(x + y for x, y in zip(a1, a2))
            w1, w2, w = (f2_kahler.q_weight(a) for a in (a1, a2, total))
            assert tuple(x + y for x, y in zip(w1, w2)) == w

    def test_out_of_span(self, f2_kahler):
        with pytest.raises(NotInBasisSpan):
            f2_kahler.q_weight((1, 1, 0, 0))


class TestLambdaExponents:
    def test_f2_exponents(self, f2_kahler):
        assert [f2_kahler.lambda_q_exponents(i) for i in range(4)] == [
            (0, 1), (0, 0), (1, 2), (0, 0),
        ]

    def test_inexpressible(self, f2):
        k = KahlerData(f2, ["-t2", "1", "-t1-2*t2", "0"])
        with pytest.raises(LambdaNotQExpressible):
            k.lambda_q_exponents(1)

    @pytest.mark.parametrize("lam", ["-t", "1/2"])
    def test_no_q_variables(self, lam):
        # a hand-built one-ray fan has no curve classes, so only lambda = 0
        # is a q-monomial, the empty one
        fan = Fan(1, ((1,),), ((0,),), {(0,): ((1,),)})
        assert KahlerData(fan, ["0"]).lambda_q_exponents(0) == ()
        k = KahlerData(fan, [lam])
        assert k.rank == 0
        with pytest.raises(LambdaNotQExpressible):
            k.lambda_q_exponents(0)

    def test_internal_error_propagates(self, f2_kahler, monkeypatch):
        def broken(*_):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(kahler, "lattice_coordinates", broken)
        with pytest.raises(RuntimeError, match="solver bug"):
            f2_kahler.lambda_q_exponents(0)


class TestInteriorPoint:
    def test_f2_unit_parameters(self, f2_kahler):
        params = {"t1": Fraction(1), "t2": Fraction(1)}
        x = interior_point(f2_kahler, params)
        for i in range(4):
            assert support_value(f2_kahler, i, x).subs(params) > 0

    def test_line_midpoint(self, p1):
        k = KahlerData(p1, ["0", "-t"])
        for t in (Fraction(1), Fraction(7), Fraction(3, 2)):
            assert interior_point(k, {"t": t}) == (t / 2,)

    def test_collapsed_polytope(self, f2_kahler):
        with pytest.raises(EmptyInterior):
            interior_point(f2_kahler, {"t1": Fraction(1), "t2": Fraction(0)})

    @pytest.mark.parametrize("lambdas", [["0"], ["0", "-t", "0"]])
    def test_one_lambda_per_ray(self, p1, lambdas):
        with pytest.raises(ValueError, match=re.escape(
                f"need one support constant per ray (2), got {len(lambdas)}")):
            KahlerData(p1, lambdas)

    def test_degenerate_at_construction(self, p1):
        with pytest.raises(EmptyInterior):
            KahlerData(p1, ["0", "0"])

    @pytest.mark.parametrize("lambdas", [["t", "-t"], ["t", "1-t"], ["1/2*t", "-1/2*t + 3"]])
    def test_constant_circuit_area_refused(self, p1, lambdas):
        # the circuit v0 + v1 = 0 has area -(lambda_0 + lambda_1), a constant <= 0
        with pytest.raises(EmptyInterior, match="^moment polytope has empty interior$"):
            KahlerData(p1, lambdas)

    @pytest.mark.parametrize("lambdas", [["0", "2-t"], ["t", "-2*t"], ["-t", "-s"]])
    def test_symbolic_area_accepted(self, p1, lambdas):
        # empty for some parameter values only; `vertices` refuses those
        k = KahlerData(p1, lambdas)
        with pytest.raises(EmptyInterior):
            moment_vertices(k, {n: Fraction(-1) for n in k.parameter_names})

    def test_missing_parameters(self, f2_kahler):
        with pytest.raises(ValueError):
            interior_point(f2_kahler, {"t1": Fraction(1)})


class TestRelativeClasses:
    # a disk class sum(b_i beta_i) has boundary sum(b_i v_i) and Maslov
    # index 2 * sum(b_i); a sphere class has boundary 0
    def test_boundary_vectors(self, f2):
        def boundary(beta):
            return tuple(sum(b * ray[k] for b, ray in zip(beta, f2.rays)) for k in range(2))

        assert boundary((1, 0, 0, 0)) == (0, -1)
        assert boundary((1, 0, 0, 1)) == (0, 0)

    def test_maslov_of_basic_disks(self, f2):
        for i in range(4):
            beta = tuple(1 if j == i else 0 for j in range(4))
            assert 2 * sum(beta) == 2

    def test_maslov_is_twice_chern_on_sphere_classes(self, f2):
        for cls in (F2_ALPHA, F2_H, (-1, 1, 1, 1), (0, 0, 0, 0)):
            assert f2.is_homology_class(cls)
            assert 2 * sum(cls) == 2 * chern_degree(cls)


class TestBasisValidation:
    def test_non_basis_rejected(self, f2):
        with pytest.raises(ValueError):
            KahlerData(f2, ["-t2", "0", "-t1-2*t2", "0"],
                       q_basis=[(2, 0, 0, 2), (-2, 1, 1, 0)])

    def test_non_class_rejected(self, f2):
        with pytest.raises(ValueError):
            KahlerData(f2, ["-t2", "0", "-t1-2*t2", "0"],
                       q_basis=[(1, 0, 0, 0), (0, 1, 0, 0)])

    def test_each_class_is_checked_once(self, f2, monkeypatch):
        calls = []
        real = Fan.is_homology_class

        def counted(self, coords):
            calls.append(tuple(coords))
            return real(self, coords)

        monkeypatch.setattr(Fan, "is_homology_class", counted)
        q_basis = [(-2, 1, 1, 0), (1, 0, 0, 1)]
        KahlerData(f2, ["-t2", "0", "-t1-2*t2", "0"], q_basis=q_basis)
        assert calls == q_basis

    def test_fallback_to_homology_basis(self, p2):
        k = KahlerData(p2, ["0", "0", "-t"])
        assert k.q_basis == ((1, 1, 1),)
