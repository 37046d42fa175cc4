"""Exact Laurent data, serialization order, numeric evaluation."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import hirzebruch2_kahler, laurent
from toricmirror.errors import SchemaError, ZeroCoordinate
from toricmirror.gw import GWProvider
from toricmirror.laurent import LaurentPoly, QPoly, evaluate, gradient
from toricmirror.potential import corrected_potential

# random small polynomials in 2 z-variables and 2 q-variables
q_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=3,
).map(lambda d: QPoly(2, d))

laurent_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    q_polys,
    max_size=4,
).map(lambda d: LaurentPoly(2, 2, d))


class TestQPoly:
    def test_zero_terms_dropped(self):
        p = QPoly(1, {(0,): Fraction(1), (1,): Fraction(0)})
        assert p.terms == {(0,): Fraction(1)}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            QPoly(1, {(-1,): Fraction(1)})

    def test_str(self):
        assert str(QPoly(2, {(0, 0): 1, (1, 0): 1})) == "1 + q1"
        assert str(QPoly(2, {(1, 2): Fraction(3, 2)})) == "3/2*q1*q2^2"


F2_W = {(1, 0): {(0, 0): 1}, (0, 1): {(0, 0): 1},
        (-1, -2): {(1, 2): 1}, (0, -1): {(0, 1): 1, (1, 1): 1}}


class TestLaurentPoly:
    def test_serialization_order(self):
        p = laurent(F2_W)
        zexps = [z for z, _ in p.sorted_terms()]
        assert zexps == sorted(zexps)
        for _, coeff in p.sorted_terms():
            degrees = [sum(e) for e, _ in coeff.sorted_terms()]
            assert degrees == sorted(degrees)

    def test_str_matches_display_form(self):
        assert str(laurent(F2_W)) == "q1*q2^2/(z1*z2^2) + (q2 + q1*q2)/z2 + z2 + z1"

    def test_log_derivative(self):
        # z + q/z: z d/dz = z - q/z
        d = laurent({(1,): {(0,): 1}, (-1,): {(1,): 1}}).log_derivative(0)
        assert d == laurent({(1,): {(0,): 1}, (-1,): {(1,): -1}})

    @pytest.mark.parametrize("coeff", [1, Fraction(1), QPoly(2, {(0, 0): 1})])
    def test_coefficient_must_be_a_qpoly_in_its_q_variables(self, coeff):
        with pytest.raises(ValueError, match=r"coefficient of z-exponent \(1,\) must be a QPoly"):
            LaurentPoly(1, 1, {(1,): coeff})


class TestEvaluate:
    def test_line_potential(self):
        p = laurent({(1,): {(0,): 1}, (-1,): {(1,): 1}})
        t = math.log(100.0)  # q = 0.01
        assert evaluate(p, [0.1], [t]) == pytest.approx(0.2)

    def test_constant(self):
        p = laurent({(0, 0): {(): 1}})
        assert evaluate(p, [3.0, -2.0], []) == 1.0

    def test_zero_coordinate(self):
        p = laurent({(1,): {(): 1}})
        with pytest.raises(ZeroCoordinate):
            evaluate(p, [0.0], [])

    @given(laurent_polys,
           st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)),
           st.tuples(st.floats(-0.5, 3.0), st.floats(-0.5, 3.0)))
    @settings(max_examples=50)
    def test_matches_naive_summation(self, poly, zmag, t):
        # naive oracle: plain repeated-multiplication sum of every term
        z = [complex(m, 0.3) for m in zmag]
        q = [math.exp(-v) for v in t]

        def naive():
            total = 0j
            for zexp, coeff in poly.terms.items():
                for qexp, frac in coeff.terms.items():
                    term = complex(float(frac))
                    for base, e in zip(q, qexp):
                        for _ in range(e):
                            term *= base
                    for base, e in zip(z, zexp):
                        if e >= 0:
                            for _ in range(e):
                                term *= base
                        else:
                            for _ in range(-e):
                                term /= base
                    total += term
            return total

        got = evaluate(poly, z, t)
        expected = naive()
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestFloatGuards:
    """evaluate and gradient share the solver's refusals of a q that
    overflows a float and of a term lost to underflow or cancellation."""

    @pytest.mark.parametrize("t, message", [
        ((-800.0, 1.0), "q1 = exp(-t) overflows a float at these parameter values: "
                        "its q-area t is -800.0"),
        # q1 = exp(-800) underflows to 0, which would drop q1*q2^2/(z1*z2^2)
        ((800.0, 1.0), "a q-monomial underflows a float at these parameter values"),
    ])
    @pytest.mark.parametrize("function", [evaluate, gradient])
    def test_f2_refused(self, function, t, message):
        k = hirzebruch2_kahler()
        W = corrected_potential(k.fan, k, GWProvider(k), 2)
        with pytest.raises(SchemaError, match=re.escape(message)):
            function(W, [1.0, 1.0], t)

    @pytest.mark.parametrize("function", [evaluate, gradient])
    def test_coefficient_that_cancels_refused(self, function):
        # at t = 0 the coefficient 1 - q1 of 1/(z1 z2) is exactly 0.0: W
        # would lose the term, and no q-monomial underflows
        W = laurent({(1, 0): {(0,): 1}, (0, 1): {(0,): 1},
                     (-1, -1): {(0,): 1, (1,): -1}})
        with pytest.raises(SchemaError, match="evaluates to 0 at these parameter values: "
                                              "W would lose a term"):
            function(W, [1.0, 1.0], [0.0])
        assert evaluate(W, [1.0, 1.0], [1.0]) == pytest.approx(3 - math.exp(-1))
