"""Dense-matrix lab for truncated scaling-element models.

A truncated model places a positive block A on the first step of a block
shift and identity blocks afterwards, on N fiber slots of dimension d.  Exact
finite-dimensional scaling elements do not exist: the identity (X*X)X = X
necessarily fails at the last slot, so every check here either reports the
boundary defect explicitly or works on the interior compression (boundary
slot excluded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    NoGap,
    NotAdmissible,
    NotScalinglike,
    UndefinedAt,
)
from .spectra import Properness, ScalingSpectrum, SpectralSet, nonproper_admissible, normalize

__all__ = [
    "TruncatedShiftModel",
    "PropernessVerdict",
    "ScalingDefect",
    "WitnessReport",
    "PiecewiseFunction",
    "opnorm",
    "require_square",
    "matrix_abs",
    "realize",
    "scaling_defect",
    "estimate_spectrum",
    "synthesize",
    "classify_properness",
    "functional_calculus",
    "infinite_projection_witness",
    "conjugate_random",
    "random_unitary",
]

HERMITIAN_TOL = 1e-12
BOUNDARY_TOL = 1e-10


def opnorm(x: np.ndarray) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(x, 2)) if x.size else 0.0


def require_square(x: np.ndarray) -> np.ndarray:
    """x itself, once checked to be a non-empty square matrix; else :class:`DimensionMismatch`."""
    shape = np.shape(x)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
        raise DimensionMismatch(f"need a non-empty square matrix, got shape {shape}")
    return x


def _operand(x) -> np.ndarray:
    """x checked square, as float64 when its imaginary part is exactly zero, else complex128."""
    x = require_square(np.asarray(x, dtype=complex))
    return x if x.imag.any() else np.ascontiguousarray(x.real)


def _opnorm_at_most(m: np.ndarray, tol: float) -> bool:
    """opnorm(m) <= tol, skipping the SVD when the Frobenius bound decides it."""
    return bool(np.linalg.norm(m) <= tol or opnorm(m) <= tol)


def matrix_abs(x: np.ndarray) -> np.ndarray:
    """|X| = (X*X)^(1/2) via SVD."""
    _, s, vh = np.linalg.svd(x)
    return vh.conj().T @ (s[:, None] * vh)


@dataclass(frozen=True, eq=False)
class TruncatedShiftModel:
    """Fiber dimension d, depth N and the positive-definite weight block A."""

    fiber_dim: int
    depth: int
    A: np.ndarray

    def __post_init__(self):
        a = np.array(self.A, dtype=complex)
        if self.fiber_dim < 1 or self.depth < 2:
            raise NotAdmissible("need fiber_dim >= 1 and depth >= 2")
        if a.shape != (self.fiber_dim, self.fiber_dim):
            raise NotAdmissible(f"A must be {self.fiber_dim}x{self.fiber_dim}, got {a.shape}")
        if np.max(np.abs(a - a.conj().T)) > HERMITIAN_TOL:
            raise NotAdmissible("A must be Hermitian within 1e-12")
        if np.min(np.linalg.eigvalsh(a)) <= 0.0:
            raise NotAdmissible("A must be positive definite (trivial kernel)")
        a.setflags(write=False)
        object.__setattr__(self, "A", a)

    @property
    def dimension(self) -> int:
        return self.fiber_dim * self.depth


def realize(m: TruncatedShiftModel) -> np.ndarray:
    """The (N d) x (N d) matrix with A on step 0 -> 1 and identities after."""
    d = m.fiber_dim
    x = np.eye(m.dimension, k=-d, dtype=complex)  # slot k -> k + 1; the last slot -> 0
    x[d : 2 * d, :d] = m.A
    return x


class ScalingDefect(NamedTuple):
    residual_norm: float
    boundary_localized: bool | None


def _defect(x: np.ndarray) -> np.ndarray:
    return (x.conj().T @ x) @ x - x


def _boundary_localized(r: np.ndarray, fiber_dim: int | None) -> bool | None:
    """Whether the residual's range lies in the last fiber slot; None without a fiber dimension."""
    if fiber_dim is None:
        return None
    if len(r) % fiber_dim:
        raise NotAdmissible(f"dimension {len(r)} is not a multiple of fiber_dim {fiber_dim}")
    return _opnorm_at_most(r[: len(r) - fiber_dim, :], BOUNDARY_TOL)


def scaling_defect(x: np.ndarray, fiber_dim: int | None = None) -> ScalingDefect:
    """Residual of the scaling identity, and whether it sits in the last slot.

    With a fiber dimension the residual counts as boundary-localized when its
    range lies in the last fiber slot within 1e-10; without one the slot
    structure is unknown and the flag is None.
    """
    r = _defect(_operand(x))
    return ScalingDefect(opnorm(r), _boundary_localized(r, fiber_dim))


def _support_bases(x: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the right and left supports, from one SVD."""
    u, s, vh = np.linalg.svd(x)
    keep = s > tol
    return vh.conj().T[:, keep], u[:, keep]


def defect_is_boundary(residual: np.ndarray, right: np.ndarray, tol: float) -> bool:
    """Basis-free boundary test: the residual's range avoids the right support.

    ``right`` is an orthonormal basis of the right support.  For truncated
    models the last slot is exactly the complement of the right support, and
    this formulation survives unitary conjugation.
    """
    return _opnorm_at_most(right @ (right.conj().T @ residual), tol)


def _clusters(s: np.ndarray, cluster_tol: float) -> SpectralSet:
    """Values s clustered into intervals: values closer than cluster_tol coalesce."""
    if cluster_tol <= 0:
        raise NotAdmissible("cluster_tol must be > 0")
    values = np.sort(s).tolist()
    intervals = []
    lo = hi = values[0]
    for v in values[1:]:
        if v - hi > cluster_tol:
            intervals.append((lo, hi))
            lo = v
        hi = v
    intervals.append((lo, hi))
    return normalize(intervals)


def estimate_spectrum(x: np.ndarray, cluster_tol: float) -> SpectralSet:
    """Singular values of x, clustered into intervals of width <= the gaps.

    Values closer than cluster_tol coalesce; each cluster becomes the interval
    [min, max], so exact multiple values come back as points.  An empty or
    non-square x raises :class:`DimensionMismatch`.
    """
    return _clusters(np.linalg.svd(_operand(x), compute_uv=False), cluster_tol)


def synthesize(
    spec: ScalingSpectrum,
    properness: Properness,
    depth: int,
    samples_per_interval: int = 3,
    seed: int = 0,
) -> TruncatedShiftModel:
    """Build a diagonal model whose realized spectrum reproduces ``spec``.

    Interval endpoints are always sampled (so the extreme points of the
    estimate are exact) plus seeded uniform interior points.  Proper models
    always carry eigenvalue 1 inside A; non-proper models sample only the part
    away from 0 and 1, which requires the non-proper admissibility of the
    spectrum.
    """
    if depth < 3:
        raise NotAdmissible("synthesis needs depth >= 3")
    if properness is Properness.NON_PROPER and not nonproper_admissible(spec):
        raise NotAdmissible("spectrum does not admit a non-proper generator")
    rng = np.random.default_rng(seed)
    values: list[float] = []
    for lo, hi in spec.set.intervals:
        if lo == hi:
            pts = [lo]
        else:
            interior = rng.uniform(lo, hi, size=max(0, samples_per_interval - 2))
            pts = sorted({lo, hi, *interior.tolist()})
        values.extend(pts)
    values = [v for v in values if v != 0.0]
    if properness is Properness.NON_PROPER:
        values = [v for v in values if v != 1.0]
    elif 1.0 not in values:
        values.append(1.0)
    values.sort()
    a = np.diag(np.array(values, dtype=complex))
    return TruncatedShiftModel(len(values), depth, a)


@dataclass(frozen=True)
class PropernessVerdict:
    verdict: Properness
    gap_at_0: bool
    gap_at_1: bool
    projection_distance: float


def _interior_projection(basis: np.ndarray, fiber_dim: int | None) -> np.ndarray:
    """B B* on the interior: the basis drops the last fiber slot's rows first."""
    b = basis if fiber_dim is None else basis[: len(basis) - fiber_dim]
    return b @ b.conj().T


def _require_scalinglike(x: np.ndarray, tol: float, fiber_dim: int | None, right: np.ndarray):
    """The residual R and its boundary flag; :class:`NotScalinglike` unless R is small or boundary.

    ``right`` is the right-support basis from the caller's SVD.  The spectral
    norm is taken only when the Frobenius bound and the boundary test both fail.
    """
    r = _defect(x)
    ok = _boundary_localized(r, fiber_dim)
    if not (np.linalg.norm(r) <= tol or ok or (ok is None and defect_is_boundary(r, right, tol))):
        norm = opnorm(r)
        if norm > tol:
            raise NotScalinglike(f"scaling identity fails by {norm:.3e} away from the boundary slot")
    return r, ok


def _has_shift_summand(coker: np.ndarray, ker: np.ndarray) -> bool:
    """Whether right minus left support has an eigenvalue above 1/2 (Wold's q0).

    That eigenvalue is the largest sine of the angles between ker X and ker X*,
    whose cosines are the singular values of coker* ker.
    """
    cos = np.linalg.svd(coker.conj().T @ ker, compute_uv=False)
    return bool(np.min(cos, initial=1.0) ** 2 < 0.75)


def classify_properness(
    x: np.ndarray,
    tol: float = 1e-8,
    gap_tol: float = 0.1,
    fiber_dim: int | None = None,
) -> PropernessVerdict:
    """Decide proper vs non-proper for a (truncated) scaling-like matrix.

    Non-proper needs spectral gaps just above 0 and around 1 (the compactness
    side) and agreement, away from the boundary slot, between the spectral
    projection of |X| at 1 and the left support of X.  An X without a shift
    summand is normal, not a scaling element, and raises :class:`NotAdmissible`.
    One SVD of X serves every test.
    """
    return _classify(_operand(x), tol, gap_tol, fiber_dim)[0]


def _verify(x: np.ndarray, tol: float, gap_tol: float, fiber_dim: int | None):
    """(classify_properness, scaling_defect) of one X, forming the residual R once."""
    verdict, r, localized = _classify(_operand(x), tol, gap_tol, fiber_dim)
    return verdict, ScalingDefect(opnorm(r), localized)


def _classify(x: np.ndarray, tol: float, gap_tol: float, fiber_dim: int | None):
    """The verdict on an operand from :func:`_operand`, with the gate's residual and flag."""
    u, s, vh = np.linalg.svd(x)
    r, localized = _require_scalinglike(x, tol, fiber_dim, vh[s > tol].conj().T)
    if not _has_shift_summand(u[:, s <= tol], vh[s <= tol].conj().T):
        raise NotAdmissible("X has no shift summand (its right and left supports coincide)")

    # distances of the singular values from the two distinguished points
    dist0, dist1 = s, np.abs(s - 1.0)
    for dist in (dist0, dist1):
        if np.any((dist > tol) & (dist < 2 * tol)):
            raise IllConditioned("singular values inside the (tol, 2 tol) ambiguity band")
    gap_at_0 = not np.any((dist0 > tol) & (dist0 <= gap_tol))
    gap_at_1 = not np.any((dist1 > tol) & (dist1 <= gap_tol))

    # eigenvectors of |X| are right singular vectors; of |X*|, left ones
    p1 = _interior_projection(vh[dist1 <= tol].conj().T, fiber_dim)
    diff = p1 - _interior_projection(u[:, s > tol], fiber_dim)
    distance = float(np.max(np.abs(np.linalg.eigvalsh(diff)), initial=0.0))

    verdict = Properness.NON_PROPER if gap_at_0 and gap_at_1 and distance <= tol else Properness.PROPER
    return PropernessVerdict(verdict, gap_at_0, gap_at_1, distance), r, localized


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
    """Apply f to a Hermitian matrix through its eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    if np.max(np.abs(h - h.conj().T)) > HERMITIAN_TOL:
        raise NotAdmissible("matrix is not Hermitian within 1e-12")
    w, q = np.linalg.eigh(h)
    fv = np.array([f(float(lam)) for lam in w], dtype=complex)
    return q @ (fv[:, None] * q.conj().T)


@dataclass(frozen=True)
class WitnessReport:
    gap_point: float
    projection_defect: float
    dominated: bool
    norm_difference: float


def infinite_projection_witness(
    x: np.ndarray,
    c: float,
    tol: float = 1e-9,
    cluster_tol: float = 1e-8,
    fiber_dim: int | None = None,
) -> tuple[np.ndarray, WitnessReport]:
    """Build the partial isometry witnessing an infinite projection.

    With c a gap point of the estimated spectrum, U = X g(|X|) for
    g(t) = 1/t above c and 0 below; on the interior compression U*U is a
    projection strictly dominating UU*.
    """
    if not (0.0 < c < 1.0):
        raise NotAdmissible(f"gap point must lie in (0, 1), got {c}")
    x = _operand(x)
    left, s, vh = np.linalg.svd(x)
    if _clusters(s, cluster_tol).contains(c):
        raise NoGap(f"{c} lies in the estimated spectrum")
    _require_scalinglike(x, tol, fiber_dim, vh[s > tol].conj().T)

    # X = L S V* and g(|X|) = V g(S) V*, so U keeps the singular pairs above c
    left, vh = left[:, s > c], vh[s > c]
    u = (left @ vh).astype(complex, copy=False)

    uu = _interior_projection(vh.conj().T, fiber_dim)
    uut = _interior_projection(left, fiber_dim)
    defect = float(np.max(np.abs(np.linalg.eigvalsh(uu @ uu - uu))))
    w = np.linalg.eigvalsh(uu - uut)
    dominated = bool(np.min(w) >= -tol)
    return u, WitnessReport(c, defect, dominated, float(np.max(np.abs(w))))


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
