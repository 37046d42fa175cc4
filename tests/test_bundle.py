"""Projectivized canonical bundles: construction, recognition, class lifts."""

import random

import pytest

from conftest import (
    assert_splitting_chart,
    hnf_homology_basis_test,
    matrix_det,
    nonnegative_combinations,
    push_h2,
    random_smooth_2d_fan,
    unimodular_map_search,
    validation_outcome,
    wall_relation_classes,
)
from test_golden import K_F2_FAN, NOT_A_BUNDLE_FAN
from test_polyhedral import BLP3
from test_potential import BUNDLES, catalog_bases, in_three_charts
from toricmirror import bundle, lattice
from toricmirror import fan as fan_module
from toricmirror.bundle import (
    decompose_bundle,
    default_q_basis,
    fiber_class,
    projectivize_canonical,
    require_bundle,
)
from toricmirror.errors import NotBundleShaped, NotFano
from toricmirror.fan import (
    Positivity,
    chern_degree,
    classify_positivity,
    validate_fan,
)

# every catalog base, in its standard chart and two seeded GL(n, Z) charts
BASES = in_three_charts(catalog_bases(), 32)
# and every other Fano base the tests build: Bl_pt P3, and the Fano ones
# among the random surfaces (F1, P1xP1, dP7 and dP6 in shuffled ray orders)
_RNG = random.Random(41)
FANO_BASES = BASES + [("BlP3", BLP3)] + [
    (f"random-{k}", fan) for k, fan in enumerate(random_smooth_2d_fan(_RNG, 6) for _ in range(60))
    if classify_positivity(fan) is Positivity.FANO]


def general_path(fan):
    """The fan validated afresh, so nothing it caches is lifted."""
    return validate_fan(fan.dimension, fan.rays, fan.maximal_cones)


class TestProjectivize:
    def test_over_line_gives_hirzebruch2(self, p1, f2):
        x = projectivize_canonical(p1)
        assert x.rays == ((0, 1), (1, 1), (-1, 1), (0, -1))
        assert len(x.maximal_cones) == 4
        T = unimodular_map_search(x.rays, x.maximal_cones, f2.rays, f2.maximal_cones)
        assert T is not None
        assert abs(matrix_det(T)) == 1

    def test_over_plane(self, p2):
        x = projectivize_canonical(p2)
        assert x.rays == (
            (0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1), (0, 0, -1),
        )
        assert len(x.maximal_cones) == 6

    def test_non_fano_base_rejected(self, f3):
        with pytest.raises(NotFano):
            projectivize_canonical(f3)

    def test_output_is_semi_fano(self, p1, p2, p1xp1):
        for base in (p1, p2, p1xp1):
            x = projectivize_canonical(base)
            assert classify_positivity(x) is Positivity.SEMI_FANO_NOT_FANO

    @pytest.mark.parametrize("name, base", BASES, ids=[name for name, _ in BASES])
    def test_closed_form_equals_validated(self, name, base):
        # the same Fan, and the same dual bases in the same order, as
        # validating the built rays and cones
        x = projectivize_canonical(base)
        assert validation_outcome(validate_fan, x.dimension, x.rays, x.maximal_cones) \
            == ("fan", x, list(x.dual_bases.items()))

    def test_built_without_validation_or_normal_forms(self, monkeypatch):
        calls = []

        def spy(name, real):
            def wrapped(*args):
                calls.append(name)
                return real(*args)
            return wrapped

        for module, name in [(bundle, "validate_fan"), (fan_module, "hermite_normal_form"),
                             (lattice, "hermite_normal_form")]:
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        for _, base in BASES:
            projectivize_canonical(base)
        assert calls == []


class TestFiberClass:
    def test_over_line(self, p1):
        assert fiber_class(projectivize_canonical(p1)) == (1, 0, 0, 1)

    def test_over_plane(self, p2):
        assert fiber_class(projectivize_canonical(p2)) == (1, 0, 0, 0, 1)

    def test_degree_always_two(self, p1, p2, p1xp1):
        for base in (p1, p2, p1xp1):
            assert chern_degree(fiber_class(projectivize_canonical(base))) == 2

    def test_rejects_non_bundle(self, p2):
        with pytest.raises(NotBundleShaped):
            fiber_class(p2)


class TestPushforward:
    def test_line_base_class(self, p1):
        assert push_h2(p1, (1, 1)) == (-2, 1, 1, 0)

    def test_zero(self, p1):
        assert push_h2(p1, (0, 0)) == (0, 0, 0, 0)

    def test_plane_line_class(self, p2):
        x = projectivize_canonical(p2)
        lifted = push_h2(p2, (1, 1, 1))
        assert lifted == (-3, 1, 1, 1, 0)
        assert x.is_homology_class(lifted)
        assert chern_degree(lifted) == 0

    def test_lift_degree_zero_for_base_relations(self, p1, p2, p1xp1):
        for base in (p1, p2, p1xp1):
            x = projectivize_canonical(base)
            for rel in base.primitive_relations:
                lifted = push_h2(base, rel.coords)
                assert x.is_homology_class(lifted)
                assert chern_degree(lifted) == 0

    def test_zero_section_pairing_negative(self, p1, p2, p1xp1):
        # nonzero effective base classes pair negatively with the zero
        # section, so curves in them are forced into that divisor
        for base in (p1, p2, p1xp1):
            for rel in base.primitive_relations:
                lifted = push_h2(base, rel.coords)
                assert lifted[0] < 0

    def test_invalid_class_rejected(self, p1):
        with pytest.raises(ValueError):
            push_h2(p1, (1, 0))


class TestEffectiveGenerators:
    def test_generators_are_fiber_plus_lifts(self, p1, p2, p1xp1):
        for base in (p1, p2, p1xp1):
            x = general_path(projectivize_canonical(base))
            got = {rel.coords for rel in x.primitive_relations}
            expected = {fiber_class(x)}
            expected |= {push_h2(base, rel.coords) for rel in base.primitive_relations}
            assert got == expected


class TestLiftedRelations:
    @pytest.mark.parametrize("name, base", FANO_BASES, ids=[name for name, _ in FANO_BASES])
    def test_equal_the_general_path(self, name, base):
        # collections, foci, multiplicities, classes and degrees, in order
        x = projectivize_canonical(base)
        fresh = general_path(x)
        assert x.primitive_collections == fresh.primitive_collections
        assert x.primitive_relations == fresh.primitive_relations

    def test_random_bases_reach_beyond_the_catalog(self):
        assert {fan.nrays for name, fan in FANO_BASES if name.startswith("random")} \
            == {4, 5, 6}

    def test_default_q_basis_searches_no_relation(self, monkeypatch):
        # the base's relations are cached by its Fano check; the bundle's
        # are lifted from them, not searched
        expected = [default_q_basis(general_path(projectivize_canonical(base)))
                    for _, base in BASES]
        calls = []
        real = fan_module.Fan._primitive_relation
        monkeypatch.setattr(fan_module.Fan, "_primitive_relation",
                            lambda fan, collection: calls.append(fan) or real(fan, collection))
        assert [default_q_basis(projectivize_canonical(base)) for _, base in BASES] == expected
        assert calls == []


class TestRecognition:
    def test_paper_convention_f2(self, f2):
        dec = decompose_bundle(f2)
        assert dec is not None
        assert dec.chart[-1] == (1, -1)
        assert dec.base.rays == ((1,), (-1,))
        assert_splitting_chart(f2, dec)
        assert classify_positivity(dec.base) is Positivity.FANO

    def test_constructed_bundles_recognized(self, p1, p2, p1xp1):
        for base in (p1, p2, p1xp1):
            x = projectivize_canonical(base)
            dec = decompose_bundle(x)
            assert dec is not None
            assert dec.base.nrays == base.nrays
            assert classify_positivity(dec.base) is classify_positivity(base)

    @pytest.mark.parametrize("name, fan", BUNDLES, ids=[name for name, _ in BUNDLES])
    def test_catalog_bundles_split_in_the_chart(self, name, fan):
        dec = decompose_bundle(fan)
        assert_splitting_chart(fan, dec)
        assert classify_positivity(dec.base) is Positivity.FANO

    def test_plain_fano_not_recognized(self, p2, p1xp1):
        assert decompose_bundle(p2) is None
        assert decompose_bundle(p1xp1) is None
        with pytest.raises(NotBundleShaped):
            require_bundle(p2)

    def test_bundle_over_a_base_that_is_not_fano(self):
        # P(K_F2+O), built by hand: recognized, then refused for its base
        fan = validate_fan(3, K_F2_FAN["rays"], K_F2_FAN["maximal_cones"])
        dec = decompose_bundle(fan)
        assert_splitting_chart(fan, dec)
        assert classify_positivity(dec.base) is Positivity.SEMI_FANO_NOT_FANO
        with pytest.raises(NotFano):
            require_bundle(fan)

    def test_graded_fan_whose_middle_rays_miss_ray_0(self):
        # every ray but the last has grading 1, but the corner rays share no
        # cone with ray 0, so the base read off ray 0's cones is incomplete
        fan = validate_fan(3, NOT_A_BUNDLE_FAN["rays"], NOT_A_BUNDLE_FAN["maximal_cones"])
        assert classify_positivity(fan) is Positivity.SEMI_FANO_NOT_FANO
        assert decompose_bundle(fan) is None

    def test_other_projective_bundle_not_recognized(self):
        # P(O(-1) + O) over the line: a Hirzebruch surface of parameter 1,
        # which is not the canonical-bundle grading
        f1 = validate_fan(2, [(0, 1), (1, 1), (-1, 0), (0, -1)])
        assert decompose_bundle(f1) is None

    def test_internal_error_propagates(self, f2, monkeypatch):
        def broken(*_):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(bundle, "validate_fan", broken)
        with pytest.raises(RuntimeError, match="solver bug"):
            decompose_bundle(f2)


class TestDefaultBasis:
    def test_f2_basis_is_base_then_fiber(self, f2):
        assert default_q_basis(f2) == ((-2, 1, 1, 0), (1, 0, 0, 1))

    def test_p2_bundle(self, p2):
        x = projectivize_canonical(p2)
        assert default_q_basis(x) == ((-3, 1, 1, 1, 0), (1, 0, 0, 0, 1))

    def test_p1xp1_bundle(self, p1xp1):
        x = projectivize_canonical(p1xp1)
        assert default_q_basis(x) == (
            (-2, 0, 0, 1, 1, 0), (-2, 1, 1, 0, 0, 0), (1, 0, 0, 0, 0, 1),
        )

    def test_none_for_plain_fans(self, p2):
        assert default_q_basis(p2) is None

    def test_none_when_the_classes_do_not_span(self):
        # cones inferred; the first and last rays are opposite. The 4
        # degree-0 relations and the fiber are as many classes as the rank,
        # yet they span a proper sublattice of the curve classes
        fan = validate_fan(2, [(0, 1), (1, 2), (1, 0), (1, -1), (-1, 1), (1, 1), (0, -1)])
        classes = sorted(rel.coords for rel in fan.primitive_relations if rel.degree == 0)
        classes.append(fiber_class(fan))
        assert len(classes) == fan.nrays - fan.dimension
        assert not hnf_homology_basis_test(fan, classes)
        assert default_q_basis(fan) is None


class TestWallClasses:
    @pytest.mark.parametrize("name, fan", BUNDLES, ids=[name for name, _ in BUNDLES])
    def test_primitive_relations_are_sums_of_wall_classes(self, name, fan):
        # the wall classes generate the Mori cone: every primitive relation
        # is a sum of at most two of them on the catalog bundles
        walls = fan.wall_classes
        assert all(fan.is_homology_class(w) for w in walls)
        sums = set(nonnegative_combinations(walls, 2))
        assert [rel.coords for rel in fan.primitive_relations if rel.coords not in sums] == []

    def test_match_the_wall_relations(self):
        # every catalog base and bundle in three charts, the bundles built
        # in closed form over the charted bases, and random 2-D fans
        rng = random.Random(37)
        fans = ([fan for _, fan in BASES + BUNDLES]
                + [projectivize_canonical(base) for _, base in BASES]
                + [random_smooth_2d_fan(rng) for _ in range(30)])
        for fan in fans:
            assert fan.wall_classes == wall_relation_classes(fan), fan.rays
