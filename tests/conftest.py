import operator
from itertools import repeat
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from scalex.errors import DimensionMismatch, NotAdmissible
from scalex.ktheory import PuncturedSet
from scalex.operators import BOUNDARY_TOL, HERMITIAN_TOL, _require_finite, opnorm
from scalex.spectra import (
    GeneratorDescriptor,
    Properness,
    ScalingSpectrum,
    nonproper_admissible,
    normalize,
)

finite_endpoints = st.floats(
    min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False, width=32
)


@st.composite
def raw_interval_lists(draw, max_intervals=5):
    n = draw(st.integers(min_value=0, max_value=max_intervals))
    pairs = []
    for _ in range(n):
        a = draw(finite_endpoints)
        b = draw(finite_endpoints)
        pairs.append((min(a, b), max(a, b)))
    return pairs


@st.composite
def spectral_sets(draw, max_intervals=5):
    return normalize(draw(raw_interval_lists(max_intervals)))


@st.composite
def scaling_spectra(draw, max_intervals=4):
    raw = draw(raw_interval_lists(max_intervals)) + [(0.0, 0.0), (1.0, 1.0)]
    return ScalingSpectrum(normalize(raw))


@st.composite
def descriptors(draw):
    spectrum = draw(scaling_spectra())
    if nonproper_admissible(spectrum) and draw(st.booleans()):
        return GeneratorDescriptor(spectrum, Properness.NON_PROPER)
    return GeneratorDescriptor(spectrum, Properness.PROPER)


def k_ranks_oracle(p: PuncturedSet) -> tuple[int, int]:
    """K-ranks from the membership predicate alone: each maximal connected piece,
    closed (K0), open (K1) or half-open (nothing), is found by probing marks and midpoints."""
    marks = sorted(
        {lo for lo, _ in p.base.intervals}
        | {hi for _, hi in p.base.intervals}
        | set(p.removed)
    )
    atoms = []  # (is_point, lo, hi, member)
    for i, m in enumerate(marks):
        atoms.append((True, m, m, p.contains(m)))
        if i + 1 < len(marks):
            mid = (m + marks[i + 1]) / 2.0
            atoms.append((False, m, marks[i + 1], p.contains(mid)))
    k0 = k1 = 0
    run = None  # [lo, hi, lo_closed, hi_closed]
    for is_point, lo, hi, member in atoms + [(True, None, None, False)]:
        if member:
            if run is None:
                run = [lo, hi, is_point, is_point]
            else:
                run[1], run[3] = hi, is_point
        elif run is not None:
            lo_closed, hi_closed = run[2], run[3]
            if lo_closed and hi_closed:
                k0 += 1
            elif not lo_closed and not hi_closed:
                k1 += 1
            run = None
    return k0, k1


def random_positive_definite(rng: np.random.Generator, dim: int, lo=0.3, hi=1.8) -> np.ndarray:
    """Random Hermitian positive-definite block with eigenvalues in [lo, hi]."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    eigs = rng.uniform(lo, hi, size=dim)
    a = q @ np.diag(eigs).astype(complex) @ q.conj().T
    return (a + a.conj().T) / 2


def random_unitary(dim: int, rng: np.random.Generator | int) -> np.ndarray:
    """Haar-ish random unitary from the QR of a seeded complex Gaussian."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def conjugate_random(x: np.ndarray, seed: int) -> np.ndarray:
    """W x W* for a deterministic seeded random unitary W."""
    x = np.asarray(x, dtype=complex)
    w = random_unitary(x.shape[0], seed)
    return w @ x @ w.conj().T


def cyclic_shift(a: float) -> np.ndarray:
    """e0 -> e1 -> e2 -> a e0: for a != 1 the scaling identity fails on the whole support.

    It is the truncated model of weight 1 on one-dimensional slots, with the
    boundary slot fed back to the first with weight a."""
    x = np.eye(3, k=-1)
    x[0, 2] = a
    return x


def reference_defect(x: np.ndarray, fiber_dim: int | None = None) -> tuple[float, bool | None]:
    """(||R||, slot flag) with R = (X*X)X - X formed by two n x n products: the reference
    for the residual the lab reads from its SVD.  The flag says whether R's rows outside
    the last fiber slot vanish within BOUNDARY_TOL."""
    x = np.asarray(x, dtype=complex)
    r = (x.conj().T @ x) @ x - x
    return opnorm(r), None if fiber_dim is None else opnorm(r[: len(r) - fiber_dim]) <= BOUNDARY_TOL


class UndefinedAt(ValueError):
    """A piecewise function was evaluated outside its pieces."""


class PiecewiseFunction:
    """A function defined piecewise on closed intervals; first match wins.

    Pieces are (lo, hi, value) with value either a constant or a callable;
    endpoints may be infinite.  Evaluation outside every piece raises
    :class:`UndefinedAt`.
    """

    def __init__(self, pieces: Sequence[tuple[float, float, Callable[[float], complex] | complex]]):
        self.pieces = [(float(lo), float(hi), v) for lo, hi, v in pieces]

    def __call__(self, x: float) -> complex:
        for lo, hi, v in self.pieces:
            if lo <= x <= hi:
                return v(x) if callable(v) else complex(v)
        raise UndefinedAt(f"{x} lies in no piece of the function's definition")


def functional_calculus(h: np.ndarray, f: Callable[[float], complex]) -> np.ndarray:
    """Apply f to a Hermitian matrix through its eigendecomposition: the reference for g(|X|)."""
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL:
        raise NotAdmissible("matrix is not Hermitian within 1e-12")
    w, q = np.linalg.eigh(h)
    fv = np.array([f(float(lam)) for lam in w], dtype=complex)
    return q @ (fv[:, None] * q.conj().T)


def reference_save_matrix(path, m) -> None:
    """The per-field matrix writer: ``repr`` of both parts of every entry, +0.0 or not."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    rows, cols = m.shape
    with open(path, "w") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in m:
            fh.write(" ".join([f"{z.real!r},{z.imag!r}" for z in row.tolist()]) + "\n")


def reference_load_matrix(path) -> np.ndarray:
    """The per-row matrix reader that parses every field, +0.0 or not.

    Its header refusals predate the rule that a header which is not two
    integers >= 0 is a DimensionMismatch; every other refusal is the library's."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DimensionMismatch(f"{path}: malformed matrix header {header!r}")
        rows, cols = int(header[0]), int(header[1])
        try:
            out = np.zeros((rows, cols), dtype=complex)
        except MemoryError:
            raise DimensionMismatch(f"{path}: header claims a {rows}x{cols} matrix") from None
        for r in range(rows):
            line = fh.readline()
            fields = line.split()
            if len(fields) != cols:
                raise DimensionMismatch(f"{path}: row {r} has {len(fields)} fields, expected {cols}")
            if line.count(",") != cols or not all(map(operator.contains, fields, repeat(","))):
                raise ValueError(f"{path}: row {r} has a field that is not one re,im pair")
            if cols:
                out[r] = np.array(",".join(fields).split(","), dtype=float).view(complex)
        if fh.read().strip():
            raise DimensionMismatch(f"{path}: more than the {rows} rows its header declares")
    return _require_finite(out, path)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
