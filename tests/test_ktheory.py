import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalex.errors import InvalidInterval, NotAdmissible, NotMember
from scalex.ktheory import (
    KGroupResult,
    PuncturedSet,
    components,
    ev_component_class,
    k_of_functions,
    k_of_generator,
    k_of_quotient_algebra,
    k_of_toeplitz_algebra,
)
from scalex.spectra import GeneratorDescriptor, Properness, ScalingSpectrum, normalize

from conftest import spectral_sets


def punctured(pairs, removed=()):
    return PuncturedSet(normalize(pairs), tuple(removed))


def kinds(p):
    return [c.kind for c in components(p)]


class TestComponents:
    def test_whole_interval(self):
        comps = components(punctured([(0, 1)]))
        assert kinds(punctured([(0, 1)])) == ["closed"]
        assert (comps[0].lo, comps[0].hi) == (0.0, 1.0)

    def test_left_endpoint_removed(self):
        comps = components(punctured([(0, 1)], [0]))
        assert [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in comps] == [(0.0, 1.0, False, True)]
        assert kinds(punctured([(0, 1)], [0])) == ["half-open"]

    def test_interior_split(self):
        comps = components(punctured([(0, 1)], [0.5]))
        assert [(c.lo, c.hi, c.lo_closed, c.hi_closed) for c in comps] == [
            (0.0, 0.5, True, False),
            (0.5, 1.0, False, True),
        ]

    def test_both_endpoints_removed(self):
        assert kinds(punctured([(0, 1)], [0, 1])) == ["open"]

    def test_removed_point_kills_point_component(self):
        assert kinds(punctured([(0, 0), (1, 1)], [0])) == ["point"]

    def test_increasing_order(self):
        comps = components(punctured([(0, 1), (2, 2), (3, 4)], [0.5, 3]))
        assert [c.lo for c in comps] == sorted(c.lo for c in comps)

    def test_membership_consistency(self):
        p = punctured([(0, 1), (2, 2)], [0, 0.25])
        for x in [0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0]:
            assert any(c.contains(x) for c in components(p)) == p.contains(x)


class TestPuncturedSet:
    def test_removed_must_be_member(self):
        with pytest.raises(NotMember):
            punctured([(0, 1)], [2])

    def test_removed_must_be_distinct(self):
        with pytest.raises(NotMember):
            punctured([(0, 1)], [0.5, 0.5])

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    def test_removed_must_be_finite(self, x):
        # a non-finite point is malformed input, as a non-finite endpoint is, not a non-member
        with pytest.raises(InvalidInterval):
            punctured([(0, 1)], [x])
        with pytest.raises(InvalidInterval):
            PuncturedSet.from_json({"base": {"intervals": [[0, 1]]}, "removed": [0.5, x]})

    @pytest.mark.parametrize("x", [0.5, 2])
    def test_without_a_non_member(self, x):
        # 0.5 is already removed, 2 was never in the base
        with pytest.raises(NotMember):
            punctured([(0, 1)], [0.5]).without(x)

    def test_json_roundtrip(self):
        p = punctured([(0, 1)], [0.5])
        assert PuncturedSet.from_json(p.to_json()) == p


class TestKOfFunctions:
    def test_two_points(self):
        assert k_of_functions(punctured([(0, 0), (1, 1)])) == KGroupResult(2, 0)

    def test_half_open(self):
        assert k_of_functions(punctured([(0, 1)], [0])) == KGroupResult(0, 0)

    def test_open_interval_suspension(self):
        assert k_of_functions(punctured([(0, 1)], [0, 1])) == KGroupResult(0, 1)

    @given(spectral_sets(max_intervals=4), spectral_sets(max_intervals=4))
    def test_additive_over_shifted_union(self, a, b):
        # shift b to sit strictly above a so the union is disjoint
        offset = (a.intervals[-1][1] + 1.0) if a.intervals else 0.0
        b_shifted = normalize([(lo + offset, hi + offset) for lo, hi in b.intervals])
        union = normalize(list(a.intervals) + list(b_shifted.intervals))
        ka = k_of_functions(PuncturedSet(a))
        kb = k_of_functions(PuncturedSet(b_shifted))
        ku = k_of_functions(PuncturedSet(union))
        assert (ku.k0_rank, ku.k1_rank) == (ka.k0_rank + kb.k0_rank, ka.k1_rank + kb.k1_rank)


class TestKOfToeplitzAlgebra:
    def test_single_point(self):
        assert k_of_toeplitz_algebra(punctured([(1, 1)]), 1) == KGroupResult(1, 0)

    def test_half_open_interval(self):
        assert k_of_toeplitz_algebra(punctured([(0, 1)], [0]), 1) == KGroupResult(0, 0)

    def test_two_points(self):
        assert k_of_toeplitz_algebra(punctured([(0.5, 0.5), (1, 1)]), 1) == KGroupResult(2, 0)

    def test_marked_point_must_be_member(self):
        with pytest.raises(NotMember):
            k_of_toeplitz_algebra(punctured([(0, 1)], [1]), 1)


class TestKOfQuotientAlgebra:
    def test_one_remaining_point(self):
        assert k_of_quotient_algebra(punctured([(0.5, 0.5), (1, 1)]), 1) == KGroupResult(1, 0)

    def test_two_remaining_points(self):
        p = punctured([(0.25, 0.25), (0.5, 0.5), (1, 1)])
        assert k_of_quotient_algebra(p, 1) == KGroupResult(2, 0)

    def test_empty_remainder_rejected(self):
        with pytest.raises(NotAdmissible):
            k_of_quotient_algebra(punctured([(1, 1)]), 1)

    def test_non_isolated_marked_point_rejected(self):
        with pytest.raises(NotAdmissible):
            k_of_quotient_algebra(punctured([(0.5, 1)]), 1)

    def test_noncompact_remainder_rejected(self):
        with pytest.raises(NotAdmissible):
            k_of_quotient_algebra(punctured([(0, 0.5), (1, 1)], [0]), 1)

    def test_marked_point_must_be_member(self):
        with pytest.raises(NotMember):
            k_of_quotient_algebra(punctured([(0.5, 0.5), (1, 1)]), 0.75)


class TestKOfGenerator:
    def test_proper_shift_case(self):
        d = GeneratorDescriptor(ScalingSpectrum.from_intervals([(0, 0), (1, 1)]), Properness.PROPER)
        assert k_of_generator(d) == KGroupResult(1, 0)

    def test_nonproper_middle_point(self):
        d = GeneratorDescriptor(
            ScalingSpectrum.from_intervals([(0, 0), (0.5, 0.5), (1, 1)]), Properness.NON_PROPER
        )
        assert k_of_generator(d) == KGroupResult(1, 0)

    def test_full_interval(self):
        d = GeneratorDescriptor(ScalingSpectrum.from_intervals([(0, 1)]), Properness.PROPER)
        assert k_of_generator(d) == KGroupResult(0, 0)


class TestFiniteCaseConsistency:
    @given(st.data())
    def test_no_infinite_projection_forces_component_count(self, data):
        from scalex.spectra import has_infinite_projection
        from conftest import scaling_spectra

        s = data.draw(scaling_spectra())
        if has_infinite_projection(s):
            return
        # [0,1] covered: puncturing 0 turns the component of 1 half-open
        punctured_spec = PuncturedSet(s.set, (0.0,))
        comps = components(punctured_spec)
        one_comp = next(c for c in comps if c.contains(1.0))
        assert one_comp.kind == "half-open"
        closed = sum(1 for c in comps if c.kind in ("closed", "point"))
        d = GeneratorDescriptor(s, Properness.PROPER)
        assert k_of_generator(d) == KGroupResult(closed, 0)


class TestEvComponentClass:
    def test_second_component(self):
        assert ev_component_class(normalize([(0, 0), (0.5, 1)]), 1) == 1

    def test_first_component(self):
        assert ev_component_class(normalize([(0, 0), (0.5, 1)]), 0) == 0

    def test_single_component(self):
        assert ev_component_class(normalize([(0, 1)]), 0.3) == 0

    def test_not_member(self):
        with pytest.raises(NotMember):
            ev_component_class(normalize([(0, 0), (1, 1)]), 0.5)

    @given(spectral_sets(max_intervals=4), st.floats(0, 4, allow_nan=False), st.floats(0, 4, allow_nan=False))
    def test_same_class_iff_same_component(self, s, v, w):
        if not (s.contains(v) and s.contains(w)):
            return
        same_component = any(lo <= v <= hi and lo <= w <= hi for lo, hi in s.intervals)
        assert (ev_component_class(s, v) == ev_component_class(s, w)) == same_component
