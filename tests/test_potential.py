"""Superpotential assembly: Hori-Vafa branch and corrected branch."""

from fractions import Fraction

import pytest

from toricmirror.bundle import projectivize_canonical
from toricmirror.errors import NotBundleShaped, NotFano, UnknownInvariant
from toricmirror.gw import GWProvider
from toricmirror.kahler import KahlerData, boundary_vector, maslov_index
from toricmirror.laurent import LaurentPoly, QPoly
from toricmirror.potential import (
    basic_monomial,
    contributing_classes,
    corrected_potential,
    correction_details,
    hori_vafa,
)

F2_ALPHA = (-2, 1, 1, 0)


def zmono(zexp, qexp, coeff=1):
    return LaurentPoly.monomial(zexp, QPoly.monomial(qexp, coeff))


def f2_closed_form():
    """z1 + z2 + q1*q2^2/(z1*z2^2) + (q2 + q1*q2)/z2, exactly."""
    return (zmono((1, 0), (0, 0)) + zmono((0, 1), (0, 0))
            + zmono((-1, -2), (1, 2))
            + LaurentPoly.monomial(
                (0, -1), QPoly.monomial((0, 1)) + QPoly.monomial((1, 1))))


class TestBasicMonomials:
    def test_zero_section_term(self, f2_kahler):
        assert basic_monomial(f2_kahler, 0) == zmono((0, -1), (0, 1))

    def test_slanted_term(self, f2_kahler):
        assert basic_monomial(f2_kahler, 2) == zmono((-1, -2), (1, 2))

    def test_plain_terms(self, f2_kahler):
        assert basic_monomial(f2_kahler, 1) == zmono((1, 0), (0, 0))
        assert basic_monomial(f2_kahler, 3) == zmono((0, 1), (0, 0))


class TestHoriVafa:
    def test_plane(self, p2):
        k = KahlerData(p2, ["0", "0", "-t"])
        assert hori_vafa(p2, k) == (
            zmono((1, 0), (0,)) + zmono((0, 1), (0,)) + zmono((-1, -1), (1,))
        )

    def test_line(self, p1):
        k = KahlerData(p1, ["0", "-t"])
        assert hori_vafa(p1, k) == zmono((1,), (0,)) + zmono((-1,), (1,))

    def test_semi_fano_gate(self, f2_kahler):
        with pytest.raises(NotFano):
            hori_vafa(f2_kahler.fan, f2_kahler)


class TestContributingClasses:
    def test_f2_cutoff_one(self, f2):
        got = contributing_classes(f2, 1)
        assert set(got) == {
            (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),  # beta_1..beta_3
            (1, 0, 0, 0),                               # beta_0
            (-1, 1, 1, 0),                              # beta_0 + alpha
        }

    def test_cutoff_zero(self, f2):
        got = contributing_classes(f2, 0)
        assert set(got) == {
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        }

    def test_all_maslov_two(self, f2, p2):
        for fan in (f2, projectivize_canonical(p2)):
            for beta in contributing_classes(fan, 3):
                assert maslov_index(beta) == 2

    def test_requires_bundle(self, p2):
        with pytest.raises(NotBundleShaped):
            contributing_classes(p2, 1)


class TestCorrectionFactor:
    def test_f2_stabilizes_at_one_plus_q1(self, f2_kahler):
        gw = GWProvider(f2_kahler)
        expected = QPoly.constant(2, 1) + QPoly.monomial((1, 0))
        for cutoff in (2, 3, 5):
            assert correction_details(f2_kahler.fan, f2_kahler, gw, cutoff)[0] == expected

    def test_cutoff_zero_is_one(self, f2_kahler):
        gw = GWProvider(f2_kahler)
        assert correction_details(f2_kahler.fan, f2_kahler, gw, 0)[0] == QPoly.constant(2, 1)

    def test_unknown_invariant_names_class(self, p2):
        x = projectivize_canonical(p2)
        k = KahlerData(x, ["0", "0", "0", "-t1", "-t2"])
        with pytest.raises(UnknownInvariant) as err:
            correction_details(x, k, GWProvider(k), 1)[0]
        assert "(-3, 1, 1, 1, 0)" in str(err.value)

    def test_provenance_records(self, f2_kahler):
        gw = GWProvider(f2_kahler)
        _, records = correction_details(f2_kahler.fan, f2_kahler, gw, 2)
        assert [(r.alpha, r.value, r.source) for r in records] == [
            ((-4, 2, 2, 0), Fraction(0), "builtin"),
            (F2_ALPHA, Fraction(1), "builtin"),
        ]


class TestCorrectedPotential:
    def test_f2_exact_formula(self, f2_kahler):
        gw = GWProvider(f2_kahler)
        W = corrected_potential(f2_kahler.fan, f2_kahler, gw, 2)
        assert W == f2_closed_form()

    def test_f2_cutoff_zero(self, f2_kahler):
        gw = GWProvider(f2_kahler)
        W = corrected_potential(f2_kahler.fan, f2_kahler, gw, 0)
        expected = (zmono((1, 0), (0, 0)) + zmono((0, 1), (0, 0))
                    + zmono((-1, -2), (1, 2)) + zmono((0, -1), (0, 1)))
        assert W == expected

    def test_zero_invariants_reduce_to_hori_vafa_shape(self, p1xp1):
        # with every invariant zero-filled the correction factor is 1 and
        # the potential is the plain sum of basic monomials
        x = projectivize_canonical(p1xp1)
        k = KahlerData(x, ["0", "0", "-t1", "0", "-t2", "-t3"])
        gw = GWProvider(k, assume_zero=True)
        W = corrected_potential(x, k, gw, 3)
        expected = LaurentPoly.zero(3, 3)
        for i in range(x.nrays):
            expected += basic_monomial(k, i)
        assert W == expected

    def test_monotone_truncation(self, f2_kahler, p2):
        cases = [(f2_kahler.fan, f2_kahler, GWProvider(f2_kahler))]
        x = projectivize_canonical(p2)
        kx = KahlerData(x, ["0", "0", "0", "-t1", "-t2"])
        cases.append((x, kx, GWProvider(kx, assume_zero=True)))
        for fan, k, gw in cases:
            for low, high in ((0, 1), (1, 2), (2, 4)):
                w_low = corrected_potential(fan, k, gw, low)
                w_high = corrected_potential(fan, k, gw, high)
                diff = w_high - w_low
                for zexp, coeff in diff.terms.items():
                    new_degrees = coeff.total_degrees()
                    old = w_low.terms.get(zexp)
                    old_max = max(old.total_degrees()) if old else -1
                    assert min(new_degrees) > old_max

    def test_boundary_class_bookkeeping(self, f2_kahler):
        # every z-exponent of the potential is the boundary of some
        # contributing disk class
        gw = GWProvider(f2_kahler)
        W = corrected_potential(f2_kahler.fan, f2_kahler, gw, 3)
        boundaries = {
            boundary_vector(f2_kahler.fan, beta)
            for beta in contributing_classes(f2_kahler.fan, 3)
        }
        assert set(W.terms) <= boundaries

    def test_corrected_matches_open_invariant_coefficients(self, f2_kahler):
        # the zero-section coefficient lists open invariants by q-weight
        gw = GWProvider(f2_kahler)
        W = corrected_potential(f2_kahler.fan, f2_kahler, gw, 4)
        coeff = W.terms[(0, -1)]  # boundary of the zero-section disk
        # C * q2: constant term 1*q2 (alpha=0), q1*q2 (alpha), nothing higher
        assert coeff == QPoly.monomial((0, 1)) + QPoly.monomial((1, 1))
