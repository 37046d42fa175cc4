"""Invariant sources: built-in rule, tables, and the open/closed identity."""

import random
import re
from fractions import Fraction

import pytest

from conftest import dual_kahler, hirzebruch, push_h2
from toricmirror.bundle import projectivize_canonical
from toricmirror.errors import (
    BadChernDegree,
    DependentGenerators,
    DimensionMismatch,
    FingerprintMismatch,
    InconsistentTable,
    UnknownInvariant,
)
from toricmirror.fan import validate_fan
from toricmirror.gw import GWProvider, f2_one_point_rule, fan_fingerprint, validate_table
from toricmirror.kahler import KahlerData

F2_ALPHA = (-2, 1, 1, 0)


def alpha_multiple(k):
    return tuple(k * x for x in F2_ALPHA)


@pytest.fixture
def f2_provider(f2_kahler):
    return GWProvider(f2_kahler)


@pytest.fixture
def p2_bundle_kahler(p2):
    x = projectivize_canonical(p2)
    return KahlerData(x, ["0", "0", "0", "-t1", "-t2"])


class TestBuiltinRule:
    def test_values(self):
        assert f2_one_point_rule(0) == 1
        assert f2_one_point_rule(1) == 1
        assert all(f2_one_point_rule(k) == 0 for k in range(2, 8))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            f2_one_point_rule(-1)


class TestLookup:
    def test_f2_multiples(self, f2_provider):
        assert f2_provider.lookup(alpha_multiple(0))[0] == 1
        assert f2_provider.lookup(alpha_multiple(1))[0] == 1
        assert f2_provider.lookup(alpha_multiple(2))[0] == 0

    def test_builtin_provenance(self, f2_provider):
        value, source = f2_provider.lookup(F2_ALPHA)
        assert (value, source) == (1, "builtin")

    def test_builtin_applies_to_other_f2_coordinates(self, p1):
        # the bundle-built fan uses different ray coordinates but is the
        # same surface; detection is up to unimodular equivalence
        x = projectivize_canonical(p1)
        k = KahlerData(x, ["-t2", "0", "-t1-2*t2", "0"])
        provider = GWProvider(k)
        base = next(r.coords for r in x.primitive_relations if r.degree == 0)
        assert provider.lookup(base)[0] == 1
        assert provider.lookup(tuple(2 * c for c in base))[0] == 0

    def test_unknown_without_table(self, p2, p2_bundle_kahler):
        provider = GWProvider(p2_bundle_kahler)
        lifted_line = push_h2(p2, (1, 1, 1))
        with pytest.raises(UnknownInvariant) as err:
            provider.lookup(lifted_line)
        assert str(tuple(lifted_line)) in str(err.value)

    def test_never_fabricates(self, p2_bundle_kahler):
        provider = GWProvider(p2_bundle_kahler)
        rng = random.Random(4)
        base = (-3, 1, 1, 1, 0)
        for _ in range(20):
            k = rng.randint(1, 6)
            with pytest.raises(UnknownInvariant):
                provider.lookup(tuple(k * x for x in base))

    def test_assume_zero_opt_in(self, p2, p2_bundle_kahler):
        provider = GWProvider(p2_bundle_kahler, assume_zero=True)
        value, source = provider.lookup(push_h2(p2, (1, 1, 1)))
        assert (value, source) == (0, "assumed-zero")

    def test_degree_gate(self, f2_provider):
        with pytest.raises(BadChernDegree):
            f2_provider.lookup((1, 0, 0, 1))


class TestOpenClosedIdentity:
    def test_zero_class_is_basic_disk(self, f2_provider):
        assert f2_provider.open_invariant((0, 0, 0, 0)) == 1

    def test_reported_open_values(self, f2_provider):
        assert f2_provider.open_invariant(alpha_multiple(1)) == 1
        for k in range(2, 6):
            assert f2_provider.open_invariant(alpha_multiple(k)) == 0

    def test_identity_with_closed_values(self, f2_provider):
        # the open value is defined as the closed one; never computed twice
        for k in range(1, 6):
            alpha = alpha_multiple(k)
            assert f2_provider.open_invariant(alpha) == f2_provider.lookup(alpha)[0]

    def test_zero_class_needs_no_table(self, p2_bundle_kahler):
        provider = GWProvider(p2_bundle_kahler)
        assert provider.open_invariant((0,) * 5) == 1


class TestTables:
    def make_table(self, fan, entries, basis=None, fingerprint=None):
        basis = basis or [F2_ALPHA, (1, 0, 0, 1)]
        return validate_table(
            fingerprint or fan_fingerprint(fan), basis, entries, fan
        )

    def test_valid_table_accepted(self, f2):
        table = self.make_table(f2, {(1, 0): Fraction(1)})
        assert table.by_class == {F2_ALPHA: 1}

    @pytest.mark.parametrize("key", [(1, 0, 5), (1,)])
    def test_key_of_the_wrong_length_rejected(self, f2, key):
        # zipped with the basis, both keys would name the class F2_ALPHA
        with pytest.raises(DimensionMismatch, match=re.escape(
                f"table key {key} has {len(key)} coordinates; the basis has 2 classes")):
            self.make_table(f2, {key: Fraction(1)})
        assert DimensionMismatch.exit_code == 2

    def test_degree_two_key_rejected(self, f2):
        with pytest.raises(BadChernDegree):
            self.make_table(f2, {(0, 1): Fraction(1)})  # the fiber class

    def test_fingerprint_mismatch(self, f2, p2):
        with pytest.raises(FingerprintMismatch):
            self.make_table(f2, {(1, 0): Fraction(1)},
                            fingerprint=fan_fingerprint(p2))

    def test_table_of_another_fan_refused(self):
        # the key (1,) names (-2, 0, 1, 0, 1, 0) in the rays of P(K_P1xP1+O);
        # read on P(K_F1+O) it would name a curve of that fan instead
        x = projectivize_canonical(validate_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)]))
        table = validate_table(fan_fingerprint(x), [(-2, 0, 1, 0, 1, 0)],
                               {(1,): Fraction(7)}, x)
        with pytest.raises(FingerprintMismatch):
            GWProvider(dual_kahler(projectivize_canonical(hirzebruch(1))), table, True)
        # the fingerprint ignores ray order, the keys do not
        rays = x.rays[1:] + x.rays[:1]
        cones = [[(i - 1) % x.nrays for i in c] for c in x.maximal_cones]
        shifted = validate_fan(3, rays, cones)
        assert fan_fingerprint(shifted) == fan_fingerprint(x)
        with pytest.raises(FingerprintMismatch):
            GWProvider(dual_kahler(shifted), table, True)
        assert GWProvider(dual_kahler(x), table, True).lookup((-2, 0, 1, 0, 1, 0)) == (7, "table")

    def test_consistent_table_usable(self, f2_kahler):
        # the key (-1, 0) is no base multiple, so no F2 rule value checks it
        table = self.make_table(f2_kahler.fan, {(1, 0): Fraction(1), (2, 0): Fraction(0),
                                                (-1, 0): Fraction(5)})
        provider = GWProvider(f2_kahler, table=table)
        assert provider.lookup(F2_ALPHA)[0] == 1
        assert provider.lookup(tuple(-a for a in F2_ALPHA)) == (5, "table")

    def test_inconsistent_table_aborts(self, f2_kahler):
        table = self.make_table(f2_kahler.fan, {(2, 0): Fraction(7)})
        with pytest.raises(InconsistentTable):
            GWProvider(f2_kahler, table=table)

    def test_table_supplies_unknown_classes(self, p2, p2_bundle_kahler):
        x = p2_bundle_kahler.fan
        basis = [(-3, 1, 1, 1, 0), (1, 0, 0, 0, 1)]
        table = validate_table(
            fan_fingerprint(x), basis, {(1, 0): Fraction(21)}, x
        )
        provider = GWProvider(p2_bundle_kahler, table=table)
        value, source = provider.lookup(push_h2(p2, (1, 1, 1)))
        assert (value, source) == (21, "table")

    def test_dependent_basis_rejected_at_load(self, p2_bundle_kahler):
        x = p2_bundle_kahler.fan
        base = (-3, 1, 1, 1, 0)
        basis = [base, tuple(2 * c for c in base)]
        with pytest.raises(DependentGenerators):
            validate_table(fan_fingerprint(x), basis,
                           {(2, 0): Fraction(0), (0, 1): Fraction(5)}, x)
