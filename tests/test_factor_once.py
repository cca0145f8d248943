"""The witness and the properness verdict from one SVD of X, against the
formulations they replace: |X| and g(|X|) through an eigendecomposition for
the witness, and n x n projections compared by spectral norms for the verdict,
both compressed onto the right support of X."""

import math

import numpy as np
import pytest

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
from scalex.spectra import Properness, ScalingSpectrum

from conftest import PiecewiseFunction, conjugate_random, functional_calculus, reference_defect

SPECTRUM = ScalingSpectrum.from_intervals([(0, 0), (0.3, 0.6), (1, 1)])
DEPTH = 5


def matrix_abs(x):
    """|X| = (X*X)^(1/2) via SVD."""
    _, s, vh = np.linalg.svd(x)
    return vh.conj().T @ (s[:, None] * vh)


def interior(m, x, tol):
    """m compressed onto the right support of x: B* m B for an orthonormal basis B."""
    _, s, vh = np.linalg.svd(x)
    b = vh[s > tol].conj().T
    return b.conj().T @ m @ b


def reference_witness(x, c, tol=1e-9, cluster_tol=1e-8):
    if estimate_spectrum(x, cluster_tol).contains(c):
        raise NoGap(f"{c} lies in the estimated spectrum")
    # eigh of |X| can report eigenvalues a hair below 0; the flat piece absorbs them
    g = PiecewiseFunction([(-math.inf, c, 0.0), (c, math.inf, lambda t: 1.0 / t)])
    u = x @ functional_calculus(matrix_abs(x), g)
    uu = interior(u.conj().T @ u, x, tol)
    uut = interior(u @ u.conj().T, x, tol)
    dominated = bool(np.min(np.linalg.eigvalsh(uu - uut)) >= -tol)
    return u, (c, opnorm(uu @ uu - uu), dominated, opnorm(uu - uut))


def reference_verdict(x, tol=1e-8, gap_tol=0.1):
    u, s, vh = np.linalg.svd(x)
    dist0, dist1 = s, np.abs(s - 1.0)
    gap_at_0 = not np.any((dist0 > tol) & (dist0 <= gap_tol))
    gap_at_1 = not np.any((dist1 > tol) & (dist1 <= gap_tol))
    p1 = vh.conj().T[:, dist1 <= tol]
    left = u[:, s > tol]
    distance = opnorm(interior(p1 @ p1.conj().T - left @ left.conj().T, x, tol))
    nonproper = gap_at_0 and gap_at_1 and distance <= tol
    return (Properness.NON_PROPER if nonproper else Properness.PROPER, gap_at_0, gap_at_1, distance)


def operand(flag, seed, per_slot):
    """A synthesized model behind a random unitary.

    Per slot the unitary acts alike on every fiber slot (it conjugates A), so
    the last slot stays the boundary; otherwise the whole space is conjugated."""
    m = synthesize(SPECTRUM, flag, depth=DEPTH, samples_per_interval=4, seed=seed)
    if per_slot:
        a = conjugate_random(m.A, seed)
        return realize(TruncatedShiftModel(m.fiber_dim, m.depth, (a + a.conj().T) / 2))
    return conjugate_random(realize(m), seed)


CASES = [
    pytest.param(flag, seed, per_slot, id=f"{flag.value}-{seed}-{'fiber' if per_slot else 'flat'}")
    for flag in Properness
    for seed in (1, 2)
    for per_slot in (True, False)
]


@pytest.mark.parametrize("flag, seed, per_slot", CASES)
@pytest.mark.parametrize("c", [0.2, 0.8])
def test_witness_matches_reference_at_a_gap_point(flag, seed, per_slot, c):
    x = operand(flag, seed, per_slot)
    u, rep = infinite_projection_witness(x, c)
    want_u, want = reference_witness(x, c)
    assert opnorm(u - want_u) <= 1e-10
    assert rep.gap_point == want[0] and rep.dominated is want[2]
    # U*U is a projection by construction: the dense defect of the returned U, on the right support
    uu = interior(u.conj().T @ u, x, 1e-9)
    assert want[1] <= 1e-10 and opnorm(uu @ uu - uu) <= 1e-10
    assert abs(rep.norm_difference - want[3]) <= 1e-10
    assert rep.dominated and rep.norm_difference >= 0.5
    assert rep.infinite_projection_witnessed


@pytest.mark.parametrize("flag, seed, per_slot", CASES)
def test_witness_refuses_where_the_reference_does(flag, seed, per_slot):
    x = operand(flag, seed, per_slot)
    assert estimate_spectrum(x, 0.35).contains(0.45)
    with pytest.raises(NoGap):
        reference_witness(x, 0.45, cluster_tol=0.35)
    with pytest.raises(NoGap):
        infinite_projection_witness(x, 0.45, cluster_tol=0.35)


@pytest.mark.parametrize("flag, seed, per_slot", CASES)
def test_verdict_matches_reference(flag, seed, per_slot):
    # a flat conjugation mixes the slots, so there the residual is not boundary-localized
    x = operand(flag, seed, per_slot)
    fiber_dim = len(x) // DEPTH
    got = classify_properness(x, fiber_dim=fiber_dim)
    want = reference_verdict(x)
    assert (got.verdict, got.gap_at_0, got.gap_at_1) == want[:3]
    assert abs(got.projection_distance - want[3]) <= 1e-10
    assert got.verdict is flag
    norm, localized = reference_defect(x, fiber_dim)
    assert abs(got.scaling_residual - norm) <= 1e-12 * max(1.0, norm)
    assert got.boundary_localized is localized is per_slot


def factorizations(monkeypatch, call, *args, **kwargs):
    """(name, shape) of every svd, eigh, eigvalsh and norm(., 2) that call makes."""
    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            if name != "norm" or (args[0] if args else kwargs.get("ord")) == 2:
                calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("svd", "eigh", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    call(*args, **kwargs)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("per_slot", [True, False], ids=["fiber", "flat"])
def test_witness_takes_one_svd_and_no_eigh_or_spectral_norm(monkeypatch, per_slot):
    x = operand(Properness.PROPER, 3, per_slot)
    n = x.shape[0]
    calls = factorizations(monkeypatch, infinite_projection_witness, x, 0.8)
    assert [c for c in calls if c[0] == "svd"] == [("svd", (n, n))]
    assert not [c for c in calls if c[0] in ("eigh", "norm")]


@pytest.mark.parametrize("per_slot", [True, False], ids=["fiber", "flat"])
def test_verdict_takes_one_square_svd_and_only_thin_spectral_norms(monkeypatch, per_slot):
    # the scaling gate and the residual read this SVD; the residual's norm is taken on its
    # rows with s != 1, here the weights and the kernel.  The slot flag needs a norm of
    # that size only where the Frobenius bound cannot decide it: when a flat conjugation
    # has mixed the slots
    x = operand(Properness.NON_PROPER, 3, per_slot)
    n = x.shape[0]
    calls = factorizations(monkeypatch, classify_properness, x, fiber_dim=n // DEPTH)
    assert [c for c in calls if c == ("svd", (n, n))] == [("svd", (n, n))]
    assert not [c for c in calls if c[0] == "eigh"]
    assert [c for c in calls if c[0] == "norm"] == [("norm", (2 * n // DEPTH, n))] * (1 if per_slot else 2)
