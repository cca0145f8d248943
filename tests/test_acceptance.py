"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value is either hand-derived or computed by an
independent oracle inside this file or in conftest.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from scalex.errors import NoGap
from scalex.ktheory import PuncturedSet, k_of_functions, k_of_generator
from scalex.operators import (
    TruncatedShiftModel,
    classify_properness,
    estimate_spectrum,
    infinite_projection_witness,
    opnorm,
    realize,
    synthesize,
)
from scalex.spectra import (
    GeneratorDescriptor,
    Properness,
    ScalingSpectrum,
    has_infinite_projection,
    hom_exists,
    iso_exists,
    nonproper_admissible,
    normalize,
)
from scalex.wold import wold_decompose

from conftest import conjugate_random, gap_scan_oracle, k_ranks_oracle, random_positive_definite, random_unitary


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] {name}: FAIL")
                raise
            print(f"\n[criterion {num}] {name}: PASS")

        return wrapper

    return deco


def spectrum(*pairs):
    return ScalingSpectrum(normalize(pairs))


CURATED_SPECTRA = [
    spectrum((0, 0), (1, 1)),
    spectrum((0, 1)),
    spectrum((0, 0), (0.5, 0.5), (1, 1)),
    spectrum((0, 0), (0.5, 1)),
    spectrum((0, 1), (2, 2)),
    spectrum((0, 0), (0.25, 0.5), (1, 1)),
    spectrum((0, 0.75), (1, 1)),
    spectrum((0, 2)),
    spectrum((0, 0), (1 / 3, 2 / 3), (1, 1), (1.5, 2)),
    spectrum((0, 0.6), (0.4, 1)),
]


def random_scaling_spectrum(rng) -> ScalingSpectrum:
    pairs = [(0.0, 0.0), (1.0, 1.0)]
    for _ in range(int(rng.integers(0, 4))):
        a, b = np.sort(rng.uniform(0.0, 2.5, size=2))
        if rng.uniform() < 0.4:
            b = a
        pairs.append((float(a), float(b)))
    return ScalingSpectrum(normalize(pairs))


def random_admissible_spectrum(rng) -> ScalingSpectrum:
    """Admissible spectra whose gaps around 0 and 1 respect the 0.1 gap threshold."""
    pairs = [(0.0, 0.0), (1.0, 1.0)]
    cuts = np.sort(rng.uniform(0.15, 0.85, size=2 * int(rng.integers(1, 3))))
    for a, b in zip(cuts[0::2], cuts[1::2]):
        if rng.uniform() < 0.4:
            b = a
        pairs.append((float(a), float(b)))
    if rng.uniform() < 0.3:
        a, b = np.sort(rng.uniform(1.15, 1.9, size=2))
        pairs.append((float(a), float(b)))
    s = ScalingSpectrum(normalize(pairs))
    assert nonproper_admissible(s)
    return s


@criterion(1, "decision table and infinite-projection criteria")
def test_c1_decision_table():
    start = time.perf_counter()

    def cover_oracle(s: ScalingSpectrum) -> bool:
        # canonical form: [0,1] is covered iff one interval swallows it whole
        return any(lo <= 0.0 and hi >= 1.0 for lo, hi in s.set.intervals)

    expected = [True, False, True, True, False, True, True, False, True, False]
    for s, want in zip(CURATED_SPECTRA, expected):
        assert has_infinite_projection(s) == (not cover_oracle(s)) == want

    rng = np.random.default_rng(101)
    for _ in range(1000):
        s = random_scaling_spectrum(rng)
        assert has_infinite_projection(s) == (not cover_oracle(s))
        assert has_infinite_projection(s) == gap_scan_oracle(s)

    assert time.perf_counter() - start < 1.0


@criterion(2, "realized singular values match the block spectrum formula")
def test_c2_spectrum_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for d in (1, 2, 3):
        for n in range(3, 9):
            a = random_positive_definite(rng, d, lo=0.2, hi=2.2)
            x = realize(TruncatedShiftModel(d, n, a))
            got = np.sort(np.linalg.svd(x, compute_uv=False))
            want = np.sort(
                np.concatenate(
                    [np.zeros(d), np.linalg.svd(a, compute_uv=False), np.ones((n - 2) * d)]
                )
            )
            assert np.max(np.abs(got - want)) <= 1e-10
    assert time.perf_counter() - start < 5.0


def _match_multiset(got, expected, tol):
    expected = list(expected)
    assert len(got) == len(expected)
    for g in got:
        dists = [abs(g - e) for e in expected]
        j = int(np.argmin(dists))
        assert dists[j] <= tol
        expected.pop(j)


@criterion(3, "Wold roundtrip on unitary-plus-kernel instances")
def test_c3_wold_unitary_branch():
    rng = np.random.default_rng(303)
    for _ in range(50):
        du = int(rng.integers(1, 5))
        k = int(rng.integers(0, 4))
        u = random_unitary(du, rng)
        x = np.zeros((du + k, du + k), dtype=complex)
        x[:du, :du] = u
        x = conjugate_random(x, int(rng.integers(0, 2**31)))
        rep = wold_decompose(x)
        assert rep.fiber_bases == []
        assert rep.kernel_rank == k
        _match_multiset(np.linalg.eigvals(rep.unitary_part), np.linalg.eigvals(u), 1e-9)


@criterion(4, "Wold roundtrip on conjugated shift models")
def test_c4_wold_shift_branch():
    rng = np.random.default_rng(404)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(3, 9))
        a = random_positive_definite(rng, d, lo=0.25, hi=2.0)
        x = conjugate_random(realize(TruncatedShiftModel(d, n, a)), int(rng.integers(0, 2**31)))
        rep = wold_decompose(x)
        _match_multiset(rep.a_eigenvalues, np.linalg.eigvalsh(a), 1e-8)
        assert rep.residuals["orthogonality_defect"] <= 1e-9
        assert rep.boundary_overlap_rank == d
        assert len(rep.q_ranks) == n  # the boundary fiber is the last of the n


@criterion(5, "properness classifier inverts the synthesis flag")
def test_c5_properness_classifier():
    for weights, want in [
        ((1.0,), Properness.PROPER),
        ((0.5,), Properness.NON_PROPER),
        ((0.5, 1.0), Properness.PROPER),
    ]:
        x = realize(TruncatedShiftModel(len(weights), 6, np.diag(weights).astype(complex)))
        got = classify_properness(x)
        assert got.verdict is want, weights

    rng = np.random.default_rng(505)
    for _ in range(100):
        s = random_admissible_spectrum(rng)
        flag = Properness.PROPER if rng.uniform() < 0.5 else Properness.NON_PROPER
        seed = int(rng.integers(0, 2**31))
        model = synthesize(s, flag, depth=6, samples_per_interval=3, seed=seed)
        verdict = classify_properness(realize(model))
        assert verdict.verdict is flag, (s, flag, seed)


@criterion(6, "infinite-projection witnesses at gap points")
def test_c6_witness():
    start = time.perf_counter()
    gapped = [
        (spectrum((0, 0), (1, 1)), 0.5),
        (spectrum((0, 0), (0.5, 0.5), (1, 1)), 0.25),
        (spectrum((0, 0), (0.5, 0.5), (1, 1)), 0.75),
        (spectrum((0, 0), (0.5, 1)), 0.25),
        (spectrum((0, 0), (0.25, 0.5), (1, 1)), 0.75),
        (spectrum((0, 0.75), (1, 1)), 0.875),
    ]
    for s, c in gapped:
        assert has_infinite_projection(s)
        model = synthesize(s, Properness.PROPER, depth=6, samples_per_interval=3, seed=1)
        x = realize(model)
        u, rep = infinite_projection_witness(x, c)
        p = u.conj().T @ u  # a projection by construction
        assert opnorm(p @ p - p) <= 1e-8
        assert rep.dominated
        assert rep.norm_difference >= 0.5
        assert rep.infinite_projection_witnessed

    for covering in (spectrum((0, 1)), spectrum((0, 2)), spectrum((0, 1), (2, 2))):
        assert not has_infinite_projection(covering)
        # dense equispaced model of the covering spectrum: gaps below cluster_tol
        weights: list[float] = []
        for lo, hi in covering.set.intervals:
            if lo == hi:
                weights.append(lo)
            else:
                count = int(np.ceil((hi - lo) / 0.04)) + 1
                weights.extend(np.linspace(max(lo, 0.04), hi, count).tolist())
        weights = sorted(w for w in weights if w > 0)
        x = realize(TruncatedShiftModel(len(weights), 4, np.diag(weights).astype(complex)))
        est = estimate_spectrum(x, 0.05)
        for c in (0.25, 0.5, 0.75):
            assert est.contains(c)
            with pytest.raises(NoGap):
                infinite_projection_witness(x, c, cluster_tol=0.05)

    assert time.perf_counter() - start < 2.0


@criterion(7, "matrix-unit relations at desk scale")
def test_c7_matrix_units():
    # Coburn's matrix units E_nm = X^n (1 - XX*) X*^m of a conjugated truncated shift obey
    # E_nm E_kl = delta_mk E_nl for n, m <= depth - 2; with A = I/2 in place of I they must not
    for fiber, depth in itertools.product(range(1, 5), (3, 4, 6)):
        worst = {}
        for weight in (1.0, 0.5):
            x = conjugate_random(realize(TruncatedShiftModel(fiber, depth, weight * np.eye(fiber))), fiber)
            powers = [np.linalg.matrix_power(x, n) for n in range(depth - 1)]
            defect = np.eye(len(x)) - x @ x.conj().T
            units = {(n, m): powers[n] @ defect @ powers[m].conj().T
                     for n, m in itertools.product(range(depth - 1), repeat=2)}
            worst[weight] = max(
                opnorm(units[n, m] @ units[k, l] - (units[n, l] if m == k else 0))
                for (n, m), (k, l) in itertools.product(units, repeat=2)
            )
        assert worst[1.0] <= 1e-10 < worst[0.5], (fiber, depth, worst)


@criterion(8, "K-rank computation against the component oracle")
def test_c8_k_oracle():
    rng = np.random.default_rng(808)
    for _ in range(500):
        pairs = []
        for _ in range(int(rng.integers(1, 5))):
            a, b = np.sort(rng.uniform(0.0, 3.0, size=2))
            if rng.uniform() < 0.3:
                b = a
            pairs.append((float(a), float(b)))
        base = normalize(pairs)
        removed = set()
        for lo, hi in base.intervals:
            if rng.uniform() < 0.3:
                removed.add(lo)
            if rng.uniform() < 0.3:
                removed.add(hi)
            for _ in range(int(rng.integers(0, 2))):
                if lo < hi:
                    removed.add(float(rng.uniform(lo, hi)))
        p = PuncturedSet(base, tuple(removed))
        got = k_of_functions(p)
        assert (got.k0_rank, got.k1_rank) == k_ranks_oracle(p)

    # Coburn's case: the proper descriptor on {0, 1} generates the Toeplitz algebra, K = (Z, 0)
    coburn = k_of_generator(GeneratorDescriptor(ScalingSpectrum.from_intervals([(0, 0), (1, 1)]), Properness.PROPER))
    assert (coburn.k0_rank, coburn.k1_rank) == (1, 0)


@criterion(9, "descriptor algebra: iso iff hom both ways")
def test_c9_descriptor_algebra():
    family = []
    for s in CURATED_SPECTRA:
        family.append(GeneratorDescriptor(s, Properness.PROPER))
        if nonproper_admissible(s):
            family.append(GeneratorDescriptor(s, Properness.NON_PROPER))
    assert any(d.properness is Properness.NON_PROPER for d in family)
    for x, y in itertools.product(family, repeat=2):
        assert iso_exists(x, y) == (hom_exists(x, y) and hom_exists(y, x))
