"""The matrix pipeline against the decision engine on random admissible spectra.

A spectrum is drawn, synthesized with a planted properness flag and put
behind a random unitary; the lab's verdict, spectrum estimate and witnesses
must then agree with what the exact engine decides for the planted spectrum.
The unitary either acts alike on every fiber slot, with the fiber dimension
passed along, or on the whole space, with no slot structure left to pass.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scalex.errors import NoGap
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
    Properness,
    ScalingSpectrum,
    has_infinite_projection,
    nonproper_admissible,
    normalize,
)
from scalex.wold import wold_decompose

from conftest import conjugate_random, random_unitary

# components strictly inside (0, 1) sit in these slots, so 0 and 1 stay isolated
SLOTS = [(0.15, 0.3), (0.45, 0.6), (0.75, 0.85)]


@st.composite
def planted(draw):
    """(spectrum, flag, samples_per_interval, seed) with the spectrum admissible for the flag."""
    pairs = [(0.0, 0.0), (1.0, 1.0)]
    for lo, hi in SLOTS:
        if draw(st.booleans()):
            a, b = sorted(draw(st.floats(lo, hi)) for _ in range(2))
            pairs.append((a, a) if draw(st.booleans()) else (a, b))
    if draw(st.booleans()):
        pairs.append(tuple(sorted(draw(st.floats(1.15, 1.9)) for _ in range(2))))
    flag = Properness.NON_PROPER
    if len(pairs) == 2 or draw(st.booleans()):
        flag = Properness.PROPER
        # a proper generator may also fill up to 0 or 1, or cover [0, 1]
        if draw(st.booleans()):
            pairs.append((0.0, draw(st.floats(0.05, 0.9))))
        if draw(st.booleans()):
            pairs.append((draw(st.floats(0.1, 0.95)), 1.0))
        if draw(st.integers(0, 4)) == 0:
            pairs.append((0.0, 1.0))
    spectrum = ScalingSpectrum(normalize(pairs))
    assert flag is Properness.PROPER or nonproper_admissible(spectrum)
    return spectrum, flag, draw(st.integers(3, 5)), draw(st.integers(0, 2**31 - 1))


def distance_to(spectrum, v):
    return min(max(lo - v, v - hi, 0.0) for lo, hi in spectrum.set.intervals)


def interval_of(spectrum, v):
    """Index of the interval of the spectrum that holds v."""
    return next(i for i, (lo, hi) in enumerate(spectrum.set.intervals) if lo <= v <= hi)


def sample_spacing(spectrum, values):
    """Largest distance between consecutive planted values in [0, 1] of one component."""
    values = sorted(v for v in {0.0, 1.0, *values} if v <= 1.0)
    index = [interval_of(spectrum, v) for v in values]
    steps = [b - a for a, b, i, j in zip(values, values[1:], index, index[1:]) if i == j]
    return max(steps, default=0.0)


def gaps(spectral_set):
    """(hi, lo) of every gap between consecutive intervals with its midpoint below 1."""
    ivs = spectral_set.intervals
    return [(hi, lo) for (_, hi), (lo, _) in zip(ivs, ivs[1:]) if hi + lo < 2.0]


@settings(max_examples=40, deadline=None)
@given(planted())
def test_lab_agrees_with_the_decision_engine(case):
    spectrum, flag, samples, seed = case
    m = synthesize(spectrum, flag, depth=3, samples_per_interval=samples, seed=seed)
    assume(m.dimension <= 48)
    values = np.diag(m.A).real.tolist()
    # the unitary acts alike on every fiber slot, so the last slot stays the boundary
    a = conjugate_random(m.A, seed)
    x = realize(TruncatedShiftModel(m.fiber_dim, m.depth, (a + a.conj().T) / 2))

    assert classify_properness(x).verdict is flag

    # a unitary on the whole space moves no singular value off the planted set
    for lo, hi in estimate_spectrum(conjugate_random(x, seed + 1), 1e-8).intervals:
        assert distance_to(spectrum, lo) <= 1e-8 and distance_to(spectrum, hi) <= 1e-8

    assert_witnesses_follow_the_engine(x, spectrum, values)


@settings(max_examples=40, deadline=None)
@given(planted())
def test_whole_space_conjugation_needs_no_fiber_dimension(case):
    spectrum, flag, samples, seed = case
    m = synthesize(spectrum, flag, depth=3, samples_per_interval=samples, seed=seed)
    assume(m.dimension <= 48)
    x = conjugate_random(realize(m), seed)

    assert classify_properness(x).verdict is flag
    assert_witnesses_follow_the_engine(x, spectrum, np.diag(m.A).real.tolist())


@settings(max_examples=30, deadline=None)
@given(planted(), st.integers(0, 10), st.integers(0, 5))
def test_unitary_and_zero_summands_are_booked_apart(case, r, k):
    """X + U + 0_k behind a random unitary, U unitary of rank r, answers as X does;
    Wold books U as the unitary summand and 0_k as the kernel."""
    spectrum, flag, samples, seed = case
    m = synthesize(spectrum, flag, depth=3, samples_per_interval=samples, seed=seed)
    assume(m.dimension <= 48)
    x = realize(m)
    n = len(x)
    y = np.zeros((n + r + k,) * 2, dtype=complex)
    y[:n, :n] = x
    y[n : n + r, n : n + r] = random_unitary(r, seed)
    y = conjugate_random(y, seed + 1)

    assert classify_properness(y).verdict is classify_properness(x).verdict is flag
    est_x, est_y = estimate_spectrum(x).intervals, estimate_spectrum(y).intervals
    assert len(est_y) == len(est_x) and np.allclose(est_y, est_x, rtol=0, atol=1e-10)
    for hi, lo in gaps(spectrum.set):
        if lo - hi > 1e-6:  # the planted gap holds no singular value, of X or of Y
            wx, wy = (infinite_projection_witness(z, (hi + lo) / 2)[1] for z in (x, y))
            assert (wy.infinite_projection_witnessed, wy.dominated) == (wx.infinite_projection_witnessed, wx.dominated)
            assert abs(wy.norm_difference - wx.norm_difference) <= 1e-8
    wold_x, wold_y = wold_decompose(x), wold_decompose(y)
    assert wold_y.q_ranks == wold_x.q_ranks
    assert (wold_y.unitary_rank, wold_y.kernel_rank) == (r, k)


def assert_witnesses_follow_the_engine(x, spectrum, values):
    """A witness at every gap of the estimate in (0, 1), and such gaps iff the
    planted spectrum has an infinite projection."""
    # clustered at the planted sample spacing, the estimate leaves a gap in (0, 1)
    # exactly where the planted set does, as long as no planted gap is narrower
    cluster_tol = 1.01 * sample_spacing(spectrum, values) + 1e-9
    assume(all(lo - hi > cluster_tol for hi, lo in gaps(spectrum.set)))
    witnessed = []
    for hi, lo in gaps(estimate_spectrum(x, cluster_tol)):
        c = (hi + lo) / 2
        u, rep = infinite_projection_witness(x, c, cluster_tol=cluster_tol)
        p = u.conj().T @ u  # a projection by construction
        witnessed.append(opnorm(p @ p - p) <= 1e-8 and rep.dominated and rep.norm_difference >= 0.5)
        assert rep.infinite_projection_witnessed is (rep.dominated and rep.norm_difference >= 0.5)
    assert all(witnessed)
    assert bool(witnessed) is has_infinite_projection(spectrum)
    if not witnessed:
        for c in (0.25, 0.5, 0.75):
            try:
                infinite_projection_witness(x, c, cluster_tol=cluster_tol)
            except NoGap:
                continue
            raise AssertionError(f"a witness at {c} for a spectrum that covers [0, 1]")
