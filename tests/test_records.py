"""Record semantics: equality, hashing and immutability of the library's
records (NamedTuples, and the plain class Fan)."""

from fractions import Fraction

import pytest

from conftest import hirzebruch2, projective_plane
from toricmirror.bundle import (
    decompose_bundle,
    default_q_basis,
    projectivize_canonical,
    require_bundle,
)
from toricmirror.roots import CriticalReport, SolverOptions
from toricmirror.documents import fan_from_document
from toricmirror.fan import Fan, validate_fan
from toricmirror.gw import GWTable, fan_fingerprint, validate_table
from toricmirror.potential import GWRecord


def f2_table(entries):
    f2 = hirzebruch2()  # basis: the degree-0 base class, then the fiber class
    return validate_table(fan_fingerprint(f2), [(-2, 1, 1, 0), (1, 0, 0, 1)], entries, f2)


def report(**changes):
    fields = dict(points=((1 + 2j,),), values=(3j,), residuals=(0.0,), attempted=4,
                  converged=2, deduped=1, expected=1, orbit_size=1, grid_size=8,
                  truncated=False, factors=((1, 1, "newton"),), unlifted=0, polyhedral=0,
                  grid_fallbacks=0)
    return CriticalReport(**{**fields, **changes})


class TestFan:
    def test_equality_and_hash_ignore_dual_bases(self):
        fan = hirzebruch2()
        bare = Fan(fan.dimension, fan.rays, fan.maximal_cones, {})
        assert fan == bare and not fan != bare
        assert hash(fan) == hash(bare)
        assert fan != validate_fan(2, [(1, 0), (0, 1), (-1, -1)])
        assert fan != (fan.dimension, fan.rays, fan.maximal_cones)

    def test_equal_fans_share_cache_entries(self):
        base = projective_plane()
        a, b = projectivize_canonical(base), projectivize_canonical(base)
        assert a is not b and a == b
        first = require_bundle(a)
        hits = require_bundle.cache_info().hits
        assert require_bundle(b) is first
        assert require_bundle.cache_info().hits == hits + 1
        assert default_q_basis(a) == default_q_basis(b) is not None

    def test_cached_properties_survive_immutability(self):
        fan = hirzebruch2()
        assert fan.homology_basis is fan.homology_basis
        assert "homology_basis" in vars(fan)

    def test_repr_leaves_out_dual_bases(self):
        fan = validate_fan(1, [(1,), (-1,)], [(0,), (1,)])
        assert repr(fan) == "Fan(dimension=1, rays=((1,), (-1,)), maximal_cones=((0,), (1,)))"


def test_table_equality_compares_values():
    # a table is the fan it was validated against and its class -> value
    # dict, so two tables are equal when they bind the same fan and name the
    # same values
    table = f2_table({(1, 0): Fraction(1)})
    assert table == GWTable(hirzebruch2(), {(-2, 1, 1, 0): Fraction(1)})
    assert table != GWTable(projective_plane(), {(-2, 1, 1, 0): Fraction(1)})
    assert table == f2_table({(1, 0): 1}) and not table != f2_table({(1, 0): 1})
    assert table != f2_table({(1, 0): Fraction(2)})
    with pytest.raises(TypeError):
        hash(table)


FROZEN = {  # record -> (builder, one of its fields)
    "PrimitiveRelation": (lambda: hirzebruch2().primitive_relations[0], "collection"),
    "Fan": (hirzebruch2, "rays"),
    "BundleDecomposition": (
        lambda: decompose_bundle(projectivize_canonical(projective_plane())), "base"),
    "GWRecord": (lambda: GWRecord((0, 0, 0, 0), (0, 0), Fraction(1), "builtin"), "value"),
    "GWTable": (lambda: f2_table({}), "by_class"),
    "SolverOptions": (SolverOptions, "max_steps"),
    "CriticalReport": (report, "deduped"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_records_refuse_assignment(name):
    build, field = FROZEN[name]
    record = build()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is not None


def test_documents_are_immutable():
    doc = fan_from_document({"dimension": 1, "rays": [[1], [-1]], "maximal_cones": [[0], [1]]})
    with pytest.raises(AttributeError):
        doc.fan = None
