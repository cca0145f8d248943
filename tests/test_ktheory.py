import pytest
from hypothesis import given
from hypothesis import strategies as st

from scalex.errors import InvalidInterval, NotAdmissible, NotMember
from scalex.ktheory import KGroupResult, PuncturedSet, k_of_functions, k_of_generator
from scalex.spectra import GeneratorDescriptor, Properness, ScalingSpectrum, nonproper_admissible, normalize

from conftest import k_ranks_oracle, scaling_spectra, spectral_sets


def punctured(pairs, removed=()):
    return PuncturedSet(normalize(pairs), tuple(removed))


@st.composite
def grid_punctured_sets(draw):
    """Punctured sets with every endpoint and puncture a multiple of 1/8, up to 4 punctures per interval."""
    ends = st.integers(0, 32)
    base = normalize(sorted((a / 8, b / 8)) for a, b in draw(st.lists(st.tuples(ends, ends), max_size=4)))
    removed = []
    for lo, hi in base.intervals:
        grid = [k / 8 for k in range(round(lo * 8), round(hi * 8) + 1)]
        removed += draw(st.lists(st.sampled_from(grid), max_size=4, unique=True))
    return PuncturedSet(base, tuple(removed))


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

    @pytest.mark.parametrize(
        "x, member",
        [(0.0, False), (0.1, True), (0.25, False), (0.5, True), (1.0, True), (1.5, False), (2.0, True)],
    )
    def test_contains(self, x, member):
        # the K-rank oracle sees the set only through this predicate: removed points and gaps are out
        assert punctured([(0, 1), (2, 2)], [0, 0.25]).contains(x) == member


class TestKOfFunctions:
    def test_two_points(self):
        assert k_of_functions(punctured([(0, 0), (1, 1)])) == KGroupResult(2, 0)

    def test_half_open(self):
        assert k_of_functions(punctured([(0, 1)], [0])) == KGroupResult(0, 0)

    def test_open_interval_suspension(self):
        assert k_of_functions(punctured([(0, 1)], [0, 1])) == KGroupResult(0, 1)

    RANKS = pytest.mark.parametrize(
        "pairs, removed, want",
        [
            ([(0, 1)], [], (1, 0)),
            # [0, 1/2) and (1/2, 1] are both half-open
            ([(0, 1)], [0.5], (0, 0)),
            ([(0, 0), (1, 1)], [0], (1, 0)),
            # [0, 1/2), (1/2, 1], {2}, (3, 4]
            ([(0, 1), (2, 2), (3, 4)], [0.5, 3], (1, 0)),
            # (0, 1/4), (1/4, 1], {2}
            ([(0, 1), (2, 2)], [0, 0.25], (1, 1)),
            # three open pieces between four punctures, and nothing at either end
            ([(0, 1)], [0, 0.25, 0.5, 1], (0, 3)),
        ],
        ids=["closed", "interior-split", "point-removed", "three-intervals", "open-and-point", "four-punctures"],
    )

    @RANKS
    def test_ranks(self, pairs, removed, want):
        assert k_of_functions(punctured(pairs, removed)) == KGroupResult(*want)

    @RANKS
    def test_oracle_ranks(self, pairs, removed, want):
        # the oracle the hypothesis test and acceptance c8 trust is itself held to the hand-derived ranks
        assert k_ranks_oracle(punctured(pairs, removed)) == want

    @given(grid_punctured_sets())
    def test_matches_the_membership_oracle(self, p):
        # up to 4 punctures an interval reach c >= 2 interior ones, which acceptance c8 never draws
        got = k_of_functions(p)
        assert (got.k0_rank, got.k1_rank) == k_ranks_oracle(p)

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

    def test_flag_that_is_not_a_properness_is_refused(self):
        # a string is not the enum: k_of_generator would read "nonproper" as non-proper, hom_exists as proper
        with pytest.raises(NotAdmissible, match="^properness must be a Properness, got 'nonproper'$"):
            k_of_generator(GeneratorDescriptor(ScalingSpectrum.from_intervals([(0, 1)]), "nonproper"))

    @given(scaling_spectra())
    def test_one_puncture(self, s):
        # proper: puncture {0}; non-proper, where the spectrum admits it: puncture {0, 1}
        assert k_of_generator(GeneratorDescriptor(s, Properness.PROPER)) == k_of_functions(PuncturedSet(s.set, (0.0,)))
        if nonproper_admissible(s):
            got = k_of_generator(GeneratorDescriptor(s, Properness.NON_PROPER))
            assert got == k_of_functions(PuncturedSet(s.set, (0.0, 1.0)))


class TestFiniteCaseConsistency:
    @given(scaling_spectra())
    def test_no_infinite_projection_forces_component_count(self, s):
        from scalex.spectra import has_infinite_projection

        if has_infinite_projection(s):
            return
        # [0, 1] covered: puncturing 0 leaves the interval holding it half-open, every other one closed
        d = GeneratorDescriptor(s, Properness.PROPER)
        assert k_of_generator(d) == KGroupResult(len(s.set.intervals) - 1, 0)
