"""Superpotential assembly: Hori-Vafa branch and corrected branch."""

import random
from fractions import Fraction

import pytest

from conftest import (
    dual_kahler,
    effective_classes_up_to,
    laurent,
    p1_times_p1,
    projective_line,
    projective_plane,
    random_unimodular,
    set_degree_zero_sums,
    summed_potential,
)
from test_integer_solves import DP6, F1, in_chart, product_fan
from test_moment_polytope import P3
from toricmirror import bundle, potential
from toricmirror.bundle import fiber_class, projectivize_canonical, require_bundle
from toricmirror.errors import NotBundleShaped, NotFano, UnknownInvariant
from toricmirror.fan import chern_degree, validate_fan
from toricmirror.gw import GWProvider
from toricmirror.kahler import KahlerData
from toricmirror.laurent import QPoly
from toricmirror.potential import (
    GWRecord,
    corrected_potential,
    correction_details,
    hori_vafa,
)

F2_ALPHA = (-2, 1, 1, 0)


def f2_closed_form():
    """z1 + z2 + q1*q2^2/(z1*z2^2) + (q2 + q1*q2)/z2, exactly."""
    return laurent({(1, 0): {(0, 0): 1}, (0, 1): {(0, 0): 1},
                    (-1, -2): {(1, 2): 1}, (0, -1): {(0, 1): 1, (1, 1): 1}})


def nested(poly) -> dict:
    """A LaurentPoly as {z: {q: Fraction}}, in its insertion orders."""
    return {z: dict(c.terms) for z, c in poly.terms.items()}


class TestBasicMonomials:
    """At cutoff 0, W is the one-disk term exp(lambda_i) z^{v_i} per ray."""

    @pytest.fixture
    def terms(self, f2_kahler):
        return corrected_potential(f2_kahler.fan, f2_kahler, GWProvider(f2_kahler), 0).terms

    def test_zero_section_term(self, terms):
        assert terms[(0, -1)] == QPoly(2, {(0, 1): 1})

    def test_slanted_term(self, terms):
        assert terms[(-1, -2)] == QPoly(2, {(1, 2): 1})

    def test_plain_terms(self, terms):
        assert terms[(1, 0)] == terms[(0, 1)] == QPoly(2, {(0, 0): 1})


class TestHoriVafa:
    def test_plane(self, p2):
        k = KahlerData(p2, ["0", "0", "-t"])
        assert hori_vafa(p2, k) == laurent({(1, 0): {(0,): 1}, (0, 1): {(0,): 1},
                                            (-1, -1): {(1,): 1}})

    def test_line(self, p1):
        k = KahlerData(p1, ["0", "-t"])
        assert hori_vafa(p1, k) == laurent({(1,): {(0,): 1}, (-1,): {(1,): 1}})

    def test_semi_fano_gate(self, f2_kahler):
        with pytest.raises(NotFano):
            hori_vafa(f2_kahler.fan, f2_kahler)


def f2_disk_classes(f2_kahler, cutoff):
    _, records = correction_details(f2_kahler.fan, f2_kahler, GWProvider(f2_kahler), cutoff)
    return recorded_disk_classes(f2_kahler.fan, records)


class TestContributingClasses:
    def test_f2_cutoff_one(self, f2_kahler):
        got = f2_disk_classes(f2_kahler, 1)
        assert set(got) == {
            (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),  # beta_1..beta_3
            (1, 0, 0, 0),                               # beta_0
            (-1, 1, 1, 0),                              # beta_0 + alpha
        }

    def test_cutoff_zero(self, f2_kahler):
        got = f2_disk_classes(f2_kahler, 0)
        assert set(got) == {
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
        }

    def test_all_maslov_two(self, f2, p2):
        for fan in (f2, projectivize_canonical(p2)):
            for beta in reference_contributing(fan, 3):
                assert 2 * sum(beta) == 2  # the Maslov index

    def test_requires_bundle(self, p2):
        k = KahlerData(p2, ["0", "0", "-t"])
        with pytest.raises(NotBundleShaped):
            correction_details(p2, k, GWProvider(k), 1)


class TestCorrectionFactor:
    def test_f2_stabilizes_at_one_plus_q1(self, f2_kahler):
        gw = GWProvider(f2_kahler)
        expected = QPoly(2, {(0, 0): 1, (1, 0): 1})
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


class TestBundleHypothesis:
    @pytest.fixture
    def decompositions(self, monkeypatch):
        calls = []
        real = bundle.decompose_bundle
        monkeypatch.setattr(bundle, "decompose_bundle", lambda fan: calls.append(fan) or real(fan))
        require_bundle.cache_clear()
        return calls

    def test_checked_once_per_fan(self, f2_kahler, decompositions):
        gw = GWProvider(f2_kahler)
        correction_details(f2_kahler.fan, f2_kahler, gw, 2)
        corrected_potential(f2_kahler.fan, f2_kahler, gw, 2)
        assert len(decompositions) == 1

    def test_refusal_fires_on_every_call(self, p2, decompositions):
        k = KahlerData(p2, ["0", "0", "-t"])
        for _ in range(2):
            with pytest.raises(NotBundleShaped):
                correction_details(p2, k, GWProvider(k), 1)
        assert len(decompositions) == 2


class TestCorrectedPotential:
    def test_f2_exact_formula(self, f2_kahler):
        gw = GWProvider(f2_kahler)
        W = corrected_potential(f2_kahler.fan, f2_kahler, gw, 2)
        assert W == f2_closed_form()

    def test_f2_cutoff_zero(self, f2_kahler):
        gw = GWProvider(f2_kahler)
        W = corrected_potential(f2_kahler.fan, f2_kahler, gw, 0)
        assert W == laurent({(1, 0): {(0, 0): 1}, (0, 1): {(0, 0): 1},
                             (-1, -2): {(1, 2): 1}, (0, -1): {(0, 1): 1}})

    def test_zero_invariants_reduce_to_hori_vafa_shape(self, p1xp1):
        # with every invariant zero-filled the correction factor is 1 and
        # the potential is the plain sum of basic monomials
        x = projectivize_canonical(p1xp1)
        k = KahlerData(x, ["0", "0", "-t1", "0", "-t2", "-t3"])
        gw = GWProvider(k, assume_zero=True)
        W = corrected_potential(x, k, gw, 3)
        assert nested(W) == summed_potential(k, QPoly.constant(k.rank, 1))

    def test_monotone_truncation(self, f2_kahler, p2):
        cases = [(f2_kahler.fan, f2_kahler, GWProvider(f2_kahler))]
        x = projectivize_canonical(p2)
        kx = KahlerData(x, ["0", "0", "0", "-t1", "-t2"])
        cases.append((x, kx, GWProvider(kx, assume_zero=True)))
        for fan, k, gw in cases:
            for low, high in ((0, 1), (1, 2), (2, 4)):
                w_low = nested(corrected_potential(fan, k, gw, low))
                w_high = nested(corrected_potential(fan, k, gw, high))
                for zexp in w_low.keys() | w_high.keys():
                    old, new = w_low.get(zexp, {}), w_high.get(zexp, {})
                    changed = [sum(e) for e in old.keys() | new.keys()
                               if old.get(e) != new.get(e)]
                    if changed:
                        assert min(changed) > max(map(sum, old), default=-1)

    def test_boundary_class_bookkeeping(self, f2_kahler):
        # every z-exponent of the potential is the boundary of some
        # contributing disk class
        gw = GWProvider(f2_kahler)
        W = corrected_potential(f2_kahler.fan, f2_kahler, gw, 3)
        rays = f2_kahler.fan.rays
        boundaries = {
            tuple(sum(b * ray[k] for b, ray in zip(beta, rays)) for k in range(2))
            for beta in f2_disk_classes(f2_kahler, 3)
        }
        assert set(W.terms) <= boundaries

    def test_corrected_matches_open_invariant_coefficients(self, f2_kahler):
        # the zero-section coefficient lists open invariants by q-weight
        gw = GWProvider(f2_kahler)
        W = corrected_potential(f2_kahler.fan, f2_kahler, gw, 4)
        coeff = W.terms[(0, -1)]  # boundary of the zero-section disk
        # C * q2: constant term 1*q2 (alpha=0), q1*q2 (alpha), nothing higher
        assert coeff == QPoly(2, {(0, 1): 1, (1, 1): 1})


# --- the degree-0 enumeration against the full one ---

def catalog_bases():
    """The catalog's Fano bases: P1, P2, F1, P1xP1, dP6, P3, P1^3 and P1xdP6."""
    line = projective_line()
    return {
        "P1": line, "P2": projective_plane(), "F1": validate_fan(2, F1),
        "P1xP1": p1_times_p1(), "dP6": validate_fan(2, DP6), "P3": P3,
        "P1^3": product_fan(product_fan(line, line), line),
        "P1xdP6": product_fan(line, validate_fan(2, DP6)),
    }


def in_three_charts(fans, seed):
    """(name, fan) for each named fan in its standard chart and in two
    seeded GL(n, Z) charts."""
    rng = random.Random(seed)
    out = []
    for name, fan in fans.items():
        out.append((name, fan))
        out += [(f"{name}-chart{i}", in_chart(fan, random_unimodular(rng, fan.dimension)))
                for i in (1, 2)]
    return out


# P(K_Y+O) over each catalog base, named by the base
BUNDLES = in_three_charts(
    {name: projectivize_canonical(base) for name, base in catalog_bases().items()}, 12)
# the same bundles in charts of seed 5, whose ray entries reach 237
STEEP_BUNDLES = in_three_charts(
    {name: projectivize_canonical(base) for name, base in catalog_bases().items()}, 5)


class PatternProvider:
    """Invariants by a fixed pattern over the classes: sum(i^2 * a_i) mod 4, so
    zeros and nonzeros mix, and 0 on a class with a negative q-exponent,
    where a nonzero value has no term in C."""

    def __init__(self, kahler):
        self.kahler = kahler

    def lookup(self, alpha):
        if min(self.kahler.q_weight(alpha)) < 0:
            return Fraction(0), "assumed-zero"
        return Fraction(sum(i * i * a for i, a in enumerate(alpha)) % 4), "table"


def reference_details(fan, kahler, gw, cutoff):
    """correction_details over the full enumeration, filtered to degree 0,
    with q-exponents solved class by class."""
    factor = {(0,) * kahler.rank: Fraction(1)}
    records = []
    for alpha in effective_classes_up_to(fan, cutoff):
        if not any(alpha) or chern_degree(alpha) != 0:
            continue
        value, source = gw.lookup(alpha)
        qexp = kahler.q_weight(alpha)
        records.append(GWRecord(alpha=alpha, q_exponents=qexp, value=value, source=source))
        if value:
            factor[qexp] = factor.get(qexp, Fraction(0)) + value
    return QPoly(kahler.rank, factor), records


def recorded_disk_classes(fan, records):
    """The disk classes that can carry counts, read off correction_details:
    beta_1..beta_{d-1}, then beta_0 + alpha for alpha = 0 and each recorded
    class, sorted."""
    d = fan.nrays
    basic = [tuple(int(j == i) for j in range(d)) for i in range(1, d)]
    alphas = [(0,) * d] + [r.alpha for r in records]
    return basic + sorted((a[0] + 1,) + a[1:] for a in alphas)


def reference_contributing(fan, cutoff):
    d = fan.nrays
    basic = [tuple(int(j == i) for j in range(d)) for i in range(1, d)]
    return basic + sorted((alpha[0] + 1,) + alpha[1:]
                          for alpha in effective_classes_up_to(fan, cutoff)
                          if chern_degree(alpha) == 0)


class TestDegreeZeroEnumeration:
    @pytest.mark.parametrize("name, fan", BUNDLES, ids=[n for n, _ in BUNDLES])
    def test_matches_full_enumeration(self, name, fan):
        kahlers = [dual_kahler(fan)]
        kahlers.append(KahlerData(fan, kahlers[0].lambdas))  # the default q-basis
        for cutoff in range(6):
            for k in kahlers:
                for gw in (GWProvider(k, assume_zero=True), PatternProvider(k)):
                    got = correction_details(fan, k, gw, cutoff)
                    assert got == reference_details(fan, k, gw, cutoff), (cutoff, k.q_basis)
                    assert recorded_disk_classes(fan, got[1]) == reference_contributing(fan, cutoff)

    def test_pattern_reaches_nonzero_terms(self):
        # the comparison above is not vacuous: factors get terms, zeros
        # are recorded, and a negative q-exponent comes up
        for name in ("F1", "dP6-chart1"):
            fan = dict(BUNDLES)[name]
            k = dual_kahler(fan)
            factor, records = correction_details(fan, k, PatternProvider(k), 3)
            assert len(factor.terms) > 1
            assert any(not r.value for r in records)
            assert any(min(r.q_exponents) < 0 for r in records)

    @pytest.mark.parametrize("name, fan", BUNDLES + STEEP_BUNDLES,
                             ids=[n for n, _ in BUNDLES] + [f"{n}-steep" for n, _ in STEEP_BUNDLES])
    def test_packed_sums_match_the_sets_of_tuples(self, name, fan):
        # the recipe q-basis, the default one (HNF on dP6 and P1xdP6, with
        # negative q-exponents), and a seeded unimodular mix of the recipe
        # one: the classes are in ray coordinates, so only the mix makes
        # the q-exponents, and the packing base, large
        k = dual_kahler(fan)
        mix = random_unimodular(random.Random(name), k.rank)
        mixed = [tuple(sum(c * b[i] for c, b in zip(row, k.q_basis)) for i in range(fan.nrays))
                 for row in mix]
        for kahler in (k, KahlerData(fan, k.lambdas), KahlerData(fan, k.lambdas, mixed)):
            for cutoff in range(6):
                assert (potential._degree_zero_sums(fan, cutoff, kahler)
                        == set_degree_zero_sums(fan, cutoff, kahler)), (cutoff, kahler.q_basis)

    @pytest.mark.parametrize("name, fan", BUNDLES, ids=[n for n, _ in BUNDLES])
    def test_one_fiber_relation_and_the_rest_degree_zero(self, name, fan):
        # why only the degree-0 relations are enumerated: on every fan that
        # require_bundle accepts, the other relation is the degree-2 fiber
        require_bundle(fan)
        rels = fan.primitive_relations
        assert [(r.coords, r.degree) for r in rels if r.degree != 0] == [(fiber_class(fan), 2)]
        assert len(rels) >= 2

    def test_negative_cutoff_refused(self, f2_kahler):
        with pytest.raises(ValueError):
            correction_details(f2_kahler.fan, f2_kahler, GWProvider(f2_kahler), -1)



# --- W built one term per ray against the sum of one-disk monomials ---

ASSEMBLY_BASES = ("P1", "P2", "P1xP1", "F1", "dP6")
ASSEMBLY_BUNDLES = [(n, f) for n, f in BUNDLES if n.split("-")[0] in ASSEMBLY_BASES]


@pytest.mark.parametrize("name, fan", ASSEMBLY_BUNDLES, ids=[n for n, _ in ASSEMBLY_BUNDLES])
def test_assembly_matches_summed_monomials(name, fan):
    # the terms, and the order of every coefficient's q-terms, which sets
    # the order of the float sum in numeric_terms
    k0, k1 = dual_kahler(fan), dual_kahler(fan, cone=-1)
    # in k1 the built-in F2 value of the P1 bundles has a negative q-exponent
    for k, gw in ((k0, GWProvider(k0, assume_zero=True)), (k0, PatternProvider(k0)),
                  (k1, PatternProvider(k1))):
        for cutoff in range(4):
            factor, _ = correction_details(fan, k, gw, cutoff)
            got = nested(corrected_potential(fan, k, gw, cutoff))
            want = summed_potential(k, factor)
            assert [(z, list(c.items())) for z, c in got.items()] == \
                [(z, list(c.items())) for z, c in want.items()], (cutoff, k.q_basis)
