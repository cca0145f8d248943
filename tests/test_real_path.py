"""Real operands are factored in real arithmetic; the answers are the complex path's.

A synthesized model X is real.  D X D*, with D a diagonal unitary of random
phases, is complex, keeps the fiber-slot structure (D is diagonal on every
slot) and has the same singular values, verdict and defect, and witness
D U D*.  So every report on X must match the report on D X D*, while the
factorizations on X see only float64 arrays, and as many of them.
"""

import json

import numpy as np
import pytest

from scalex import matio
from scalex.cli import main
from scalex.operators import (
    classify_properness,
    estimate_spectrum,
    infinite_projection_witness,
    realize,
    synthesize,
)
from scalex.spectra import Properness, ScalingSpectrum, SpectralSet
from scalex.wold import reconstruct, wold_decompose

SPECTRUM = ScalingSpectrum.from_intervals([(0, 0), (0.2, 0.4), (0.6, 0.8), (1, 1)])
TOL = 1e-10


def synthesized(flag, seed):
    return synthesize(SPECTRUM, flag, depth=5, samples_per_interval=6, seed=seed)


def model_pair(flag, seed):
    """(X, D X D*, D, fiber dimension) for a synthesized model and random phases D."""
    m = synthesized(flag, seed)
    x = realize(m)
    d = np.exp(2j * np.pi * np.random.default_rng(seed).random(len(x)))
    return x, d[:, None] * x * d.conj()[None, :], d, m.fiber_dim


CASES = [
    pytest.param(flag, seed, fd, id=f"{flag.value}-{seed}-{'fiber' if fd else 'flat'}")
    for flag in Properness
    for seed in (1, 2)
    for fd in (True, False)
]


def close(a, b):
    assert abs(a - b) <= TOL, (a, b)


def same_set(got, want):
    assert len(got.intervals) == len(want.intervals)
    for (a, b), (c, d) in zip(got.intervals, want.intervals):
        close(a, c)
        close(b, d)


@pytest.mark.parametrize("flag, seed, with_fd", CASES)
def test_reports_match_the_complex_path(flag, seed, with_fd):
    x, xc, d, fiber_dim = model_pair(flag, seed)
    fiber_dim = fiber_dim if with_fd else None
    assert np.iscomplexobj(xc) and np.abs(xc.imag).max() > 0.1

    got, want = classify_properness(x), classify_properness(xc)
    assert (got.verdict, got.gap_at_0, got.gap_at_1) == (want.verdict, want.gap_at_0, want.gap_at_1)
    close(got.projection_distance, want.projection_distance)
    if with_fd:
        assert got.verdict is flag

    got, want = (classify_properness(z, fiber_dim=fiber_dim) for z in (x, xc))
    close(got.scaling_residual, want.scaling_residual)
    assert got.boundary_localized is want.boundary_localized

    same_set(estimate_spectrum(x, 0.1), estimate_spectrum(xc, 0.1))

    u, rep = infinite_projection_witness(x, 0.5)
    uc, repc = infinite_projection_witness(xc, 0.5)
    assert u.dtype == np.complex128
    assert np.abs(d[:, None] * u * d.conj()[None, :] - uc).max() <= TOL
    assert (rep.gap_point, rep.dominated) == (repc.gap_point, repc.dominated)
    close(rep.norm_difference, repc.norm_difference)


@pytest.mark.parametrize("flag", list(Properness), ids=lambda f: f.value)
def test_verify_shares_the_residual_with_scaling_defect(capsys, tmp_path, flag):
    # a model file reports the slot flag; a matrix file, which has no slots, reports None
    x, xc, _, fiber_dim = model_pair(flag, 3)
    matio.save_model(str(tmp_path / "model.json"), synthesized(flag, 3))
    matio.save_matrix(str(tmp_path / "x.mat"), x)
    matio.save_matrix(str(tmp_path / "xc.mat"), xc)
    for name, op, fd in (("model.json", x, fiber_dim), ("x.mat", x, None), ("xc.mat", xc, None)):
        assert main(["verify", "--in", str(tmp_path / name)]) == 0, name
        verify = json.loads(capsys.readouterr().out)
        verdict = classify_properness(op, fiber_dim=fd)
        assert verify["verdict"] == verdict.verdict.value
        assert (verify["scaling_residual"], verify["boundary_localized"]) == (
            wold_decompose(op).residuals["scaling_defect"], verdict.boundary_localized), name
        assert verdict.boundary_localized is (True if fd else None)


def factorizations(monkeypatch, call, *args, **kwargs):
    """(name, shape, dtype) of every svd, eigh, eigvalsh and norm(., 2) that call makes."""
    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            if name != "norm" or (args[0] if args else kwargs.get("ord")) == 2:
                calls.append((name, np.shape(a), np.asarray(a).dtype))
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("svd", "eigh", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    call(*args, **kwargs)
    monkeypatch.undo()
    return calls


CALLS = [
    pytest.param(classify_properness, (), False, id="classify_properness"),
    pytest.param(classify_properness, (), True, id="classify_properness-fiber_dim"),
    pytest.param(infinite_projection_witness, (0.5,), False, id="witness"),
    pytest.param(estimate_spectrum, (0.1,), False, id="estimate_spectrum"),
]


@pytest.mark.parametrize("fn, args, with_fd", CALLS)
@pytest.mark.parametrize("flag", list(Properness), ids=lambda f: f.value)
def test_real_operands_factor_in_float64_as_often(monkeypatch, fn, args, with_fd, flag):
    x, xc, _, fiber_dim = model_pair(flag, 4)
    kwargs = {"fiber_dim": fiber_dim} if with_fd else {}
    real = factorizations(monkeypatch, fn, x, *args, **kwargs)
    cplx = factorizations(monkeypatch, fn, xc, *args, **kwargs)
    assert real and {c[2] for c in real} == {np.dtype(float)}
    assert {c[2] for c in cplx} == {np.dtype(complex)}
    assert [c[:2] for c in real] == [c[:2] for c in cplx]


def test_real_operands_keep_the_factorization_counts(monkeypatch):
    x, _, _, fiber_dim = model_pair(Properness.NON_PROPER, 5)
    n = x.shape[0]
    calls = factorizations(monkeypatch, infinite_projection_witness, x, 0.5)
    assert [c[:2] for c in calls if c[0] == "svd"] == [("svd", (n, n))]
    assert not [c for c in calls if c[0] in ("eigh", "norm")]
    # the verdict's one spectral norm is the residual's, on its rows with s != 1
    calls = factorizations(monkeypatch, classify_properness, x, fiber_dim=fiber_dim)
    assert [c[:2] for c in calls if c[:2] == ("svd", (n, n))] == [("svd", (n, n))]
    assert not [c for c in calls if c[0] == "eigh"]
    assert [c for c in calls if c[0] == "norm"] == [("norm", (2 * fiber_dim, n), np.dtype(float))]


@pytest.mark.parametrize("flag", list(Properness), ids=lambda f: f.value)
def test_wold_on_real_operands_matches_the_complex_path(monkeypatch, flag):
    x, xc, _, _ = model_pair(flag, 8)
    got, want = wold_decompose(x).to_json(), wold_decompose(xc).to_json()
    for key in ("q_ranks", "unitary_rank", "kernel_rank"):
        assert got[key] == want[key], key
    assert len(got["a_eigenvalues"]) == len(want["a_eigenvalues"])
    for a, b in zip(got["a_eigenvalues"], want["a_eigenvalues"]):
        close(a, b)
    assert got["residuals"].keys() == want["residuals"].keys()
    for key, value in want["residuals"].items():
        close(got["residuals"][key], value)

    real = factorizations(monkeypatch, wold_decompose, x)
    cplx = factorizations(monkeypatch, wold_decompose, xc)
    assert real and {c[2] for c in real} == {np.dtype(float)}
    assert {c[2] for c in cplx} == {np.dtype(complex)}
    assert [c[:2] for c in real] == [c[:2] for c in cplx]


def test_wold_polar_step_keeps_a_real_operand_real():
    x = np.ascontiguousarray(model_pair(Properness.PROPER, 9)[0].real)
    r = wold_decompose(x)  # the polar isometry of X V0 is the second fiber basis, |X V0| the weight block
    assert r.fiber_bases[1].dtype == r.a_restricted.dtype == np.float64
    assert np.abs(reconstruct(r) - x).max() <= TOL


def test_a_tiny_imaginary_part_keeps_the_complex_path(monkeypatch):
    x, _, _, fiber_dim = model_pair(Properness.PROPER, 6)
    xt = x.copy()
    xt[fiber_dim, 0] += 1e-300j
    calls = factorizations(monkeypatch, classify_properness, xt)
    assert {c[2] for c in calls} == {np.dtype(complex)}
    got, want = classify_properness(xt), classify_properness(x)
    assert (got.verdict, got.gap_at_0, got.gap_at_1) == (want.verdict, want.gap_at_0, want.gap_at_1)
    close(got.projection_distance, want.projection_distance)
    u, _ = infinite_projection_witness(xt, 0.5)
    assert np.abs(u - infinite_projection_witness(x, 0.5)[0]).max() <= TOL


@pytest.mark.parametrize("flag", list(Properness), ids=lambda f: f.value)
def test_cli_reports_match_the_complex_path(capsys, tmp_path, flag):
    spec = json.dumps(SPECTRUM.to_json())
    out = str(tmp_path)

    def run(*argv):
        code = main(list(argv))
        rep = json.loads(capsys.readouterr().out)
        assert code == 0, rep
        return rep

    synth = run("synth", "--spec", spec, "--properness", flag.value, "--depth", "5",
                "--samples", "6", "--out", out, "--cluster-tol", "0.1")
    verify = run("verify", "--in", synth["model_path"])
    witness = run("witness", "--in", synth["model_path"], "--gap", "0.5", "--out", out)
    estimate = run("specestimate", "--in", synth["matrix_path"], "--cluster-tol", "0.1")

    model = matio.load_model(synth["model_path"])
    x = realize(model)
    d = np.exp(2j * np.pi * np.random.default_rng(7).random(len(x)))
    xc = d[:, None] * x * d.conj()[None, :]
    want = estimate_spectrum(xc, 0.1)
    for rep in (synth["estimated_spectrum"], estimate):
        same_set(SpectralSet.from_json(rep), want)

    verdict = classify_properness(xc, 1e-8, 0.1, fiber_dim=model.fiber_dim)
    assert verify["verdict"] == verdict.verdict.value == flag.value
    assert (verify["gap_at_0"], verify["gap_at_1"]) == (verdict.gap_at_0, verdict.gap_at_1)
    assert verify["boundary_localized"] is verdict.boundary_localized is True
    close(verify["projection_distance"], verdict.projection_distance)
    close(verify["scaling_residual"], verdict.scaling_residual)

    uc, rep = infinite_projection_witness(xc, 0.5, 1e-9, 1e-8)
    assert witness["dominated"] is rep.dominated
    close(witness["norm_difference"], rep.norm_difference)
    u = matio.load_matrix(witness["witness_path"])
    assert np.array_equal(u, infinite_projection_witness(x, 0.5, 1e-9, 1e-8)[0])
    assert np.abs(d[:, None] * u * d.conj()[None, :] - uc).max() <= TOL
