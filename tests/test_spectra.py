import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalex.errors import InvalidInterval, NegativeEndpoint, NotAdmissible
from scalex.spectra import (
    GeneratorDescriptor,
    Properness,
    ScalingSpectrum,
    SpectralSet,
    has_infinite_projection,
    hom_exists,
    iso_exists,
    nonproper_admissible,
    normalize,
)

from conftest import (
    cover_walk_oracle,
    descriptors,
    gap_scan_oracle,
    raw_interval_lists,
    scaling_spectra,
    seeded_scaling_spectra,
    spectral_sets,
)


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


def isolated(s, v):
    """Whether v is a point of s with a gap on both sides, probed by s.contains alone: the
    midpoints between v and its nearest endpoints below and above lie outside s."""
    ends = {x for iv in s.intervals for x in iv}
    near = (max((x for x in ends if x < v), default=v), min((x for x in ends if x > v), default=v))
    return s.contains(v) and not any(s.contains((v + x) / 2) for x in near if x != v)


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
            assert isolated(s.set, 0.0) and isolated(s.set, 1.0)

    def test_isolated_probe(self):
        assert isolated(normalize(ZERO_TAIL), 0.0) and not isolated(normalize(ZERO_TAIL), 1.0)
        assert isolated(normalize(POINTS_0H1), 0.5) and not isolated(normalize(POINTS_01), 0.5)

    @pytest.mark.parametrize("flag", ["nonproper", "proper", None, True])
    def test_descriptor_flag_must_be_a_properness(self, flag):
        # a string is not the enum: to_json would read "nonproper" as non-proper, hom_exists as proper
        with pytest.raises(NotAdmissible, match="^properness must be a Properness, got "):
            GeneratorDescriptor(spectrum((0, 1)), flag)

    @pytest.mark.parametrize("flag", list(Properness), ids=lambda f: f.value)
    @pytest.mark.parametrize("spec", [normalize([(0.5, 1)]), normalize(POINTS_0H1), None],
                             ids=["set-without-0", "set-with-0-and-1", "none"])
    def test_descriptor_spectrum_must_be_a_scaling_spectrum(self, spec, flag):
        # k_of_generator and hom_exists read spectrum.set: a bare SpectralSet would end in an AttributeError
        with pytest.raises(NotAdmissible, match="^spectrum must be a ScalingSpectrum, got "):
            GeneratorDescriptor(spec, flag)

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
        # a compact open piece around 1 exactly where the criterion finds an infinite projection
        for pairs, want in ((POINTS_01, True), (FULL_01, False), ([(0, 0), (0.75, 1)], True)):
            s = spectrum(*pairs)
            assert gap_scan_oracle(s) == has_infinite_projection(s) == want

    @given(scaling_spectra())
    def test_two_criteria_agree(self, s):
        assert has_infinite_projection(s) == cover_walk_oracle(s) == gap_scan_oracle(s)

    @pytest.mark.parametrize(
        "pairs, want",
        [
            ([(0, 0), (1, 1)], True),
            ([(0, 1)], False),
            ([(0, 1), (2, 2)], False),
            ([(0, 0), (1, 2)], True),
            ([(0, 0.999), (1, 1)], True),
            ([(0, 2)], False),
        ],
    )
    def test_first_interval_edge_cases(self, pairs, want):
        s = spectrum(*pairs)
        assert has_infinite_projection(s) == cover_walk_oracle(s) == gap_scan_oracle(s) == want

    def test_both_oracles_on_seeded_spectra(self):
        outcomes = {True: 0, False: 0}
        for s in seeded_scaling_spectra(seed=33, count=10_000):
            infinite = has_infinite_projection(s)
            assert infinite == cover_walk_oracle(s) == gap_scan_oracle(s), s
            outcomes[infinite] += 1
        # neither answer is rare, so the agreement is tested on both sides
        assert min(outcomes.values()) >= 1000, outcomes


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
