import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalex.errors import InvalidInterval, NegativeEndpoint, NotAdmissible, NotMember
from scalex.spectra import (
    GeneratorDescriptor,
    Properness,
    ScalingSpectrum,
    SpectralSet,
    has_compact_open_at_one,
    has_infinite_projection,
    hom_exists,
    iso_exists,
    nonproper_admissible,
    normalize,
)

from conftest import descriptors, raw_interval_lists, scaling_spectra, spectral_sets


def spectrum(*pairs):
    return ScalingSpectrum(normalize(pairs))


def descriptor(pairs, proper=True):
    return GeneratorDescriptor(
        spectrum(*pairs), Properness.PROPER if proper else Properness.NON_PROPER
    )


POINTS_01 = [(0, 0), (1, 1)]
POINTS_0H1 = [(0, 0), (0.5, 0.5), (1, 1)]
FULL_01 = [(0, 1)]
ZERO_TAIL = [(0, 0), (0.5, 1)]


class TestNormalize:
    def test_empty(self):
        assert normalize([]).intervals == ()

    def test_hand_merge(self):
        s = normalize([(0.5, 1), (0, 0), (0.9, 1.2)])
        assert s.intervals == ((0.0, 0.0), (0.5, 1.2))

    def test_already_normal(self):
        assert normalize([(0, 1)]).intervals == ((0.0, 1.0),)

    def test_touching_intervals_merge(self):
        assert normalize([(0, 0.5), (0.5, 1)]).intervals == ((0.0, 1.0),)

    def test_negative_endpoint(self):
        with pytest.raises(NegativeEndpoint):
            normalize([(-0.1, 1)])

    def test_inverted_interval(self):
        with pytest.raises(InvalidInterval):
            SpectralSet(((1.0, 0.5),))

    def test_direct_construction_requires_normal_form(self):
        with pytest.raises(InvalidInterval):
            SpectralSet(((0.0, 1.0), (0.5, 2.0)))

    @given(raw_interval_lists())
    def test_idempotent(self, raw):
        once = normalize(raw)
        assert normalize(once.intervals) == once

    @given(raw_interval_lists(), st.floats(0, 4.5, allow_nan=False))
    def test_contains_respects_normalize(self, raw, x):
        raw_member = any(lo <= x <= hi for lo, hi in raw)
        assert normalize(raw).contains(x) == raw_member


class TestContains:
    def test_endpoint(self):
        assert normalize(POINTS_01).contains(1)

    def test_interior(self):
        assert normalize(FULL_01).contains(0.5)

    def test_gap(self):
        assert not normalize(POINTS_01).contains(0.5)


class TestSubset:
    def test_endpoints_inside(self):
        assert normalize(POINTS_01).is_subset(normalize([(0, 0), (0.5, 1)]))

    def test_interior_missing(self):
        assert not normalize(FULL_01).is_subset(normalize(POINTS_01))

    @given(spectral_sets())
    def test_reflexive(self, s):
        assert s.is_subset(s)

    @given(spectral_sets(), spectral_sets())
    def test_antisymmetric(self, a, b):
        if a.is_subset(b) and b.is_subset(a):
            assert a == b

    @given(spectral_sets(), spectral_sets(), spectral_sets())
    def test_transitive(self, a, b, c):
        if a.is_subset(b) and b.is_subset(c):
            assert a.is_subset(c)


class TestIsolated:
    def test_singleton_component(self):
        assert normalize(ZERO_TAIL).isolated_at(0)

    def test_endpoint_of_interval(self):
        assert not normalize(ZERO_TAIL).isolated_at(1)

    def test_middle_point(self):
        assert normalize([(0, 0), (0.5, 0.5), (1, 1)]).isolated_at(0.5)

    def test_not_member(self):
        with pytest.raises(NotMember):
            normalize(POINTS_01).isolated_at(0.5)


class TestNonproperAdmissible:
    def test_with_middle_point(self):
        assert nonproper_admissible(spectrum(*POINTS_0H1))

    def test_bare_endpoints(self):
        assert not nonproper_admissible(spectrum(*POINTS_01))

    def test_one_not_isolated(self):
        assert not nonproper_admissible(spectrum(*ZERO_TAIL))

    def test_middle_above_one_counts(self):
        assert nonproper_admissible(spectrum((0, 0), (1, 1), (1.5, 2)))

    @given(scaling_spectra())
    def test_implies_isolated_endpoints(self, s):
        if nonproper_admissible(s):
            assert s.set.isolated_at(0.0) and s.set.isolated_at(1.0)

    def test_descriptor_construction_guard(self):
        with pytest.raises(NotAdmissible):
            descriptor(POINTS_01, proper=False)
        with pytest.raises(NotAdmissible):
            descriptor(ZERO_TAIL, proper=False)


class TestHomExists:
    def test_proper_onto_smaller(self):
        assert hom_exists(descriptor(ZERO_TAIL), descriptor(POINTS_01))

    def test_shift_onto_shift(self):
        assert hom_exists(descriptor(POINTS_01), descriptor(POINTS_01))

    def test_nonproper_needs_nonproper_target(self):
        assert not hom_exists(descriptor(POINTS_0H1, proper=False), descriptor(POINTS_0H1))

    def test_nonproper_onto_nonproper(self):
        assert hom_exists(descriptor(POINTS_0H1, proper=False), descriptor(POINTS_0H1, proper=False))

    def test_subset_failure(self):
        assert not hom_exists(descriptor(POINTS_01), descriptor(POINTS_0H1))

    @given(descriptors())
    def test_reflexive(self, d):
        assert hom_exists(d, d)

    @given(descriptors(), descriptors(), descriptors())
    def test_transitive(self, x, y, z):
        if hom_exists(x, y) and hom_exists(y, z):
            assert hom_exists(x, z)


class TestIsoExists:
    def test_equal_shift_descriptors(self):
        assert iso_exists(descriptor(POINTS_01), descriptor(POINTS_01))

    def test_flag_mismatch(self):
        assert not iso_exists(descriptor(POINTS_0H1), descriptor(POINTS_0H1, proper=False))

    @given(descriptors())
    def test_reflexive(self, d):
        assert iso_exists(d, d)

    @given(descriptors(), descriptors())
    def test_iso_iff_hom_both_ways(self, x, y):
        assert iso_exists(x, y) == (hom_exists(x, y) and hom_exists(y, x))


class TestInfiniteProjection:
    def test_full_interval_covered(self):
        assert not has_infinite_projection(spectrum(*FULL_01))

    def test_bare_endpoints_uncovered(self):
        assert has_infinite_projection(spectrum(*POINTS_01))

    def test_values_above_one_irrelevant(self):
        assert not has_infinite_projection(spectrum((0, 1), (2, 2)))

    def test_compact_open_examples(self):
        assert has_compact_open_at_one(spectrum(*POINTS_01))
        assert not has_compact_open_at_one(spectrum(*FULL_01))
        assert has_compact_open_at_one(spectrum((0, 0), (0.75, 1)))

    @given(scaling_spectra())
    def test_two_criteria_agree(self, s):
        assert has_infinite_projection(s) == has_compact_open_at_one(s)


class TestProperDescriptor:
    @pytest.mark.parametrize("pairs", [POINTS_01, FULL_01, POINTS_0H1])
    def test_always_proper(self, pairs):
        # a proper generator exists for every spectrum
        d = GeneratorDescriptor(spectrum(*pairs), Properness.PROPER)
        assert d.properness is Properness.PROPER
        assert d.spectrum == spectrum(*pairs)


class TestJson:
    def test_roundtrip(self):
        s = spectrum(*POINTS_0H1)
        assert ScalingSpectrum.from_json(s.to_json()) == s

    def test_load_normalizes(self):
        s = SpectralSet.from_json({"intervals": [[0.5, 1], [0, 0], [0.9, 1.2]]})
        assert s.intervals == ((0.0, 0.0), (0.5, 1.2))

    def test_descriptor_roundtrip(self):
        d = descriptor(POINTS_0H1, proper=False)
        assert GeneratorDescriptor.from_json(d.to_json()) == d

    def test_bad_payload(self):
        with pytest.raises(InvalidInterval):
            SpectralSet.from_json({"nope": []})

    def test_scaling_spectrum_requires_endpoints(self):
        with pytest.raises(NotAdmissible):
            ScalingSpectrum.from_json({"intervals": [[0.5, 1]]})
