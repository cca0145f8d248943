import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalex.errors import InvalidInterval, NotAdmissible, NotMember
from scalex.ktheory import (
    KGroupResult,
    PuncturedSet,
    components,
    k_of_functions,
    k_of_generator,
)
from scalex.spectra import GeneratorDescriptor, Properness, ScalingSpectrum, nonproper_admissible, normalize

from conftest import scaling_spectra, spectral_sets


def punctured(pairs, removed=()):
    return PuncturedSet(normalize(pairs), tuple(removed))


def kinds(p):
    return [c.kind for c in components(p)]


def in_component(c, x):
    """Whether x lies in the component c, read from its endpoints and their closedness."""
    return c.lo < x < c.hi or (x == c.lo and c.lo_closed) or (x == c.hi and c.hi_closed)


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
            assert any(in_component(c, x) for c in components(p)) == p.contains(x)


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


def descriptor(pairs, proper=True):
    return GeneratorDescriptor(
        ScalingSpectrum.from_intervals(pairs), Properness.PROPER if proper else Properness.NON_PROPER
    )


class TestKOfGenerator:
    @pytest.mark.parametrize(
        "pairs, proper, want",
        [
            # proper: the Toeplitz-type algebra, K-equivalent to functions on the spectrum minus {0}
            ([(0, 0), (1, 1)], True, (1, 0)),
            ([(0, 1)], True, (0, 0)),
            ([(0, 0), (0.5, 0.5), (1, 1)], True, (2, 0)),
            # non-proper: the quotient by the compacts at 1, functions on the spectrum minus {0, 1}
            ([(0, 0), (0.5, 0.5), (1, 1)], False, (1, 0)),
            ([(0, 0), (0.25, 0.25), (0.5, 0.5), (1, 1)], False, (2, 0)),
        ],
        ids=["shift", "full-interval", "two-points", "nonproper-middle-point", "nonproper-two-points"],
    )
    def test_ranks(self, pairs, proper, want):
        assert k_of_generator(descriptor(pairs, proper)) == KGroupResult(*want)

    @pytest.mark.parametrize(
        "pairs",
        [[(0, 0), (1, 1)], [(0, 0), (0.5, 1)], [(0, 0.5), (1, 1)]],
        ids=["empty-remainder", "one-not-isolated", "zero-not-isolated"],
    )
    def test_inadmissible_nonproper_descriptor_is_refused(self, pairs):
        # the spectrum minus {0, 1} must be non-empty and compact; the descriptor decides it, once
        with pytest.raises(NotAdmissible):
            descriptor(pairs, proper=False)

    @given(scaling_spectra())
    def test_one_puncture(self, s):
        # proper: puncture {0}; non-proper, where the spectrum admits it: puncture {0, 1}
        assert k_of_generator(GeneratorDescriptor(s, Properness.PROPER)) == k_of_functions(PuncturedSet(s.set, (0.0,)))
        if nonproper_admissible(s):
            got = k_of_generator(GeneratorDescriptor(s, Properness.NON_PROPER))
            assert got == k_of_functions(PuncturedSet(s.set, (0.0, 1.0)))


class TestFiniteCaseConsistency:
    @given(st.data())
    def test_no_infinite_projection_forces_component_count(self, data):
        from scalex.spectra import has_infinite_projection

        s = data.draw(scaling_spectra())
        if has_infinite_projection(s):
            return
        # [0,1] covered: puncturing 0 turns the component of 1 half-open
        punctured_spec = PuncturedSet(s.set, (0.0,))
        comps = components(punctured_spec)
        one_comp = next(c for c in comps if in_component(c, 1.0))
        assert one_comp.kind == "half-open"
        closed = sum(1 for c in comps if c.kind in ("closed", "point"))
        d = GeneratorDescriptor(s, Properness.PROPER)
        assert k_of_generator(d) == KGroupResult(closed, 0)


class TestEvaluationComponent:
    # evaluation at v hits the K0 generator of the component holding v
    def test_second_component(self):
        assert normalize([(0, 0), (0.5, 1)]).interval_index_of(1) == 1

    def test_first_component(self):
        assert normalize([(0, 0), (0.5, 1)]).interval_index_of(0) == 0

    def test_single_component(self):
        assert normalize([(0, 1)]).interval_index_of(0.3) == 0

    def test_not_member(self):
        with pytest.raises(NotMember):
            normalize([(0, 0), (1, 1)]).interval_index_of(0.5)

    @given(spectral_sets(max_intervals=4), st.floats(0, 4, allow_nan=False), st.floats(0, 4, allow_nan=False))
    def test_same_class_iff_same_component(self, s, v, w):
        if not (s.contains(v) and s.contains(w)):
            return
        same_component = any(lo <= v <= hi and lo <= w <= hi for lo, hi in s.intervals)
        assert (s.interval_index_of(v) == s.interval_index_of(w)) == same_component
