"""Dense-matrix lab for truncated scaling-element models.

A truncated model places a positive block A on the first step of a block
shift and identity blocks afterwards, on N fiber slots of dimension d.  Exact
finite-dimensional scaling elements do not exist: the identity (X*X)X = X
necessarily fails at the last slot, so every check here either reports the
boundary defect explicitly or works on the compression to the right
support of X, which for a truncated model is every slot but the last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    NoGap,
    NonFiniteEntry,
    NotAdmissible,
    NotScalinglike,
)
from .spectra import GeneratorDescriptor, Properness, ScalingSpectrum, SpectralSet, normalize

__all__ = [
    "TruncatedShiftModel",
    "PropernessVerdict",
    "WitnessReport",
    "opnorm",
    "realize",
    "estimate_spectrum",
    "synthesize",
    "classify_properness",
    "infinite_projection_witness",
]

HERMITIAN_TOL = 1e-12
BOUNDARY_TOL = 1e-10
GATE_FLOOR = 16  # the rounding the scaling gate allows for, in units of n * eps * max(1, s0)


def opnorm(x: np.ndarray) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(x, 2)) if x.size else 0.0


def _require_finite(m: np.ndarray, where: str) -> np.ndarray:
    """m itself, once every entry is checked finite; else :class:`NonFiniteEntry` naming the first."""
    if not np.isfinite(m).all():
        r, c = np.argwhere(~np.isfinite(m))[0]
        raise NonFiniteEntry(f"{where}: entry ({r}, {c}) is {m[r, c]}")
    return m


def _operand(x, **tolerances: float) -> np.ndarray:
    """x checked square and finite, as float64 when its imaginary part is exactly zero, else complex128.

    Each named tolerance must be finite and > 0.  Every refusal comes before any
    factorization: LAPACK may not return on a non-finite matrix.
    """
    x = np.asarray(x, dtype=complex)
    if len(x.shape) != 2 or x.shape[0] != x.shape[1] or x.shape[0] == 0:
        raise DimensionMismatch(f"need a non-empty square matrix, got shape {x.shape}")
    x = _require_finite(x, "operand")
    for name, value in tolerances.items():
        if not 0 < value < np.inf:  # NaN is not
            raise NotAdmissible(f"{name} must be > 0 and finite, got {value}")
    return x if x.imag.any() else np.ascontiguousarray(x.real)


def _opnorm_at_most(m: np.ndarray, tol: float) -> bool:
    """opnorm(m) <= tol, skipping the SVD when the Frobenius bound decides it."""
    with np.errstate(over="ignore"):  # past entries of ~1e154 the Frobenius norm is inf, and the SVD decides
        return bool(np.linalg.norm(m) <= tol or opnorm(m) <= tol)


@dataclass(frozen=True, eq=False)
class TruncatedShiftModel:
    """Fiber dimension d, depth N and the positive-definite weight block A."""

    fiber_dim: int
    depth: int
    A: np.ndarray

    def __post_init__(self):
        a = np.array(self.A, dtype=complex)
        if type(self.fiber_dim) is not int or type(self.depth) is not int:  # bool is a subclass of int
            raise NotAdmissible(f"fiber_dim and depth must be integers, got {self.fiber_dim!r} and {self.depth!r}")
        if self.fiber_dim < 1 or self.depth < 2:
            raise NotAdmissible("need fiber_dim >= 1 and depth >= 2")
        if a.shape != (self.fiber_dim, self.fiber_dim):
            raise NotAdmissible(f"A must be {self.fiber_dim}x{self.fiber_dim}, got {a.shape}")
        _require_finite(a, "A")
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


def _residual_rows(s: np.ndarray, cross: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
    """The given rows of V* R V = (S^2 - I)(V* L) S; :class:`NotAdmissible` when they overflow float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        block = (s[rows] ** 2 - 1)[:, None] * cross[rows] * s
    if not np.isfinite(block).all():  # LAPACK may not return on inf or nan
        raise NotAdmissible(f"the scaling residual overflows float64 at the largest singular value {s[0]:.6g}")
    return block


def _defect_of_svd(s: np.ndarray, vh: np.ndarray, cross: np.ndarray, fiber_dim: int | None) -> tuple:
    """||R|| for R = (X*X)X - X, and whether R lies in the last fiber slot within 1e-10 (None without
    a fiber dimension), read from the caller's SVD X = L S V* and its cross product V* L.
    V* R = (S^2 - I)(V* L) S V*, so R lives on the rows where s^2 != 1.  Those
    with |s^2 - 1| <= BOUNDARY_TOL are dropped; they add at most BOUNDARY_TOL * s[0].
    """
    off = np.abs(np.minimum(s, 2.0) ** 2 - 1) > BOUNDARY_TOL  # s clipped at 2: the same rows, and no overflow
    block = _residual_rows(s, cross, off)
    if fiber_dim is None:
        return opnorm(block), None
    if type(fiber_dim) is not int or fiber_dim < 1 or len(s) % fiber_dim:  # bool is a subclass of int
        raise NotAdmissible(f"fiber_dim {fiber_dim!r} is < 1 or not an int,"
                            f" or dimension {len(s)} is not a multiple of it")
    # R's rows outside the last slot are vh[off, :n - d]* block up to unitaries; a QR keeps them thin
    rows = np.linalg.qr(vh[off, : len(s) - fiber_dim].conj().T, mode="r") @ block
    return opnorm(block), _opnorm_at_most(rows, BOUNDARY_TOL)


def _clusters(s: np.ndarray, cluster_tol: float) -> SpectralSet:
    """Values s clustered into intervals: values closer than cluster_tol coalesce."""
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


def estimate_spectrum(x: np.ndarray, cluster_tol: float = 1e-8) -> SpectralSet:
    """Singular values of x, clustered into intervals of width <= the gaps.

    Values closer than cluster_tol coalesce; each cluster becomes the interval
    [min, max], so exact multiple values come back as points.  An empty or
    non-square x raises :class:`DimensionMismatch`.
    """
    return _clusters(np.linalg.svd(_operand(x, cluster_tol=cluster_tol), compute_uv=False), cluster_tol)


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
    spectrum.  samples_per_interval 0-2 samples only the endpoints; a negative
    or non-int one is refused, as is a seed that is not an int >= 0.
    """
    if depth < 3:
        raise NotAdmissible("synthesis needs depth >= 3")
    if type(samples_per_interval) is not int:  # bool is a subclass of int
        raise NotAdmissible(f"samples_per_interval must be an int, got {samples_per_interval!r}")
    if samples_per_interval < 0:
        raise NotAdmissible(f"samples_per_interval must be >= 0, got {samples_per_interval}")
    if type(seed) is not int or seed < 0:  # bool is a subclass of int
        raise NotAdmissible(f"seed must be an int >= 0, got {seed!r}")
    GeneratorDescriptor(spec, properness)  # refuses a flag that is not a Properness, or an inadmissible one
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
    scaling_residual: float
    boundary_localized: bool | None


def _factor(x, tol: float,
            **tolerances: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The lab's one prelude: the operand X, its SVD L, s, V*, the cross product V* L and the rank.

    rank counts the s above tol, so the right support is the prefix V*[:rank].
    The scaling residual R = (X*X)X - X has V* R V = (S^2 - I)(V* L) S: the gate,
    the residual and the support differences are all blocks of V* L.  Refusals,
    in this order: :class:`DimensionMismatch` (x empty or non-square),
    :class:`NonFiniteEntry`, :class:`NotAdmissible` (tol or one of the caller's
    ``tolerances`` not finite and > 0, or tol leaves a nonzero X no support) and
    :class:`NotScalinglike` (R's rows on the right support exceed tol plus a
    rounding floor in norm; the test is basis-free, so it survives unitary
    conjugation).  The rows carry X's rounding, of order delta = GATE_FLOOR * n *
    eps * max(1, s0), through the other two factors of (X*X)X, so the floor is
    delta * s0^2.  It is granted only while delta is at most sqrt(eps), so that
    a singular value at 1, which the identity pins, keeps half its digits; past
    that it is 0.
    """
    x = _operand(x, tol=tol, **tolerances)
    left, s, vh = np.linalg.svd(x)
    rank = np.count_nonzero(s > tol)
    if not rank and s[0] > 0:
        raise NotAdmissible(f"tol {tol:g} is at or above the largest singular value {s[0]:.6g}")
    cross = vh @ left
    block = _residual_rows(s, cross, slice(rank))
    eps = np.finfo(float).eps
    delta = GATE_FLOOR * len(s) * eps * max(1.0, s[0])
    floor = delta * max(1.0, s[0]) ** 2 if delta <= np.sqrt(eps) else 0.0  # s0 < 5e6, so no overflow
    if not _opnorm_at_most(block, tol + floor):
        raise NotScalinglike(f"scaling identity fails by {opnorm(block):.3e} away from the boundary,"
                             f" above tol {tol:g} plus the rounding floor {floor:.3e}")
    return x, left, s, vh, cross, rank


def _support_difference(cross: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Eigenvalues of L L* - P compressed onto the right support.

    ``cross`` is the block V_r* L of the cross product: the right-support rows
    against the orthonormal columns L in play.  P projects onto the right
    singular vectors that ``mask`` selects, so in the basis V_r it is a 0/1 diagonal.
    """
    m = cross @ cross.conj().T
    m[np.diag_indices_from(m)] -= mask
    return np.linalg.eigvalsh(m)


def _shift_basis(coker: np.ndarray, ker: np.ndarray) -> np.ndarray:
    """Orthonormal basis of Wold's q0, the cut of right minus left support above 1/2.

    That difference is P_coker - P_ker.  On the plane of each principal pair
    c = coker y, k = ker z (cos(theta) a singular value of coker* ker) it has
    eigenvalues +-sin(theta), and the + one has the eigenvector
    ((c + k) / 2cos(theta/2) + (c - k) / 2sin(theta/2)) / sqrt(2).
    """
    y, cos, zh = np.linalg.svd(coker.conj().T @ ker)
    keep = cos**2 < 0.75
    c, k = coker @ y[:, keep], ker @ zh[keep].conj().T
    half = np.arccos(cos[keep]) / 2
    return ((c + k) / (2 * np.cos(half)) + (c - k) / (2 * np.sin(half))) / np.sqrt(2)


def classify_properness(x: np.ndarray, tol: float = 1e-8, gap_tol: float = 0.1,
                        fiber_dim: int | None = None) -> PropernessVerdict:
    """Decide proper vs non-proper for a (truncated) scaling-like matrix.

    Non-proper needs spectral gaps just above 0 and around 1 (the compactness
    side) and agreement, on the right support of X, between the spectral
    projection of |X| at 1 and the left support of X.  An X without a shift
    summand is normal, not a scaling element, and raises :class:`NotAdmissible`.
    One SVD of X serves every test and the residual fields; fiber_dim feeds only boundary_localized.
    """
    u, s, vh, cross, rank = _factor(x, tol, gap_tol=gap_tol)[1:]  # the operand is not needed past its SVD
    if not _shift_basis(u[:, rank:], vh[rank:].conj().T).shape[1]:
        raise NotAdmissible("X has no shift summand (its right and left supports coincide)")

    # distances of the singular values from the two distinguished points
    dist0, dist1 = s, np.abs(s - 1.0)
    for dist in (dist0, dist1):
        if np.any((dist > tol) & (dist < 2 * tol)):
            raise IllConditioned("singular values inside the (tol, 2 tol) ambiguity band")
    gap_at_0 = not np.any((dist0 > tol) & (dist0 <= gap_tol))
    gap_at_1 = not np.any((dist1 > tol) & (dist1 <= gap_tol))

    # eigenvectors of |X| are right singular vectors; of |X*|, left ones
    w = _support_difference(cross[:rank, :rank], dist1[:rank] <= tol)
    distance = float(np.max(np.abs(w), initial=0.0))

    verdict = Properness.NON_PROPER if gap_at_0 and gap_at_1 and distance <= tol else Properness.PROPER
    return PropernessVerdict(verdict, gap_at_0, gap_at_1, distance, *_defect_of_svd(s, vh, cross, fiber_dim))


@dataclass(frozen=True)
class WitnessReport:
    gap_point: float
    dominated: bool
    norm_difference: float
    infinite_projection_witnessed: bool


def infinite_projection_witness(
    x: np.ndarray,
    c: float,
    tol: float = 1e-9,
    cluster_tol: float = 1e-8,
) -> tuple[np.ndarray, WitnessReport]:
    """Build the partial isometry witnessing an infinite projection.

    With c a gap point of the estimated spectrum, U = X g(|X|) for
    g(t) = 1/t above c and 0 below; compressed onto the right support of X, U*U
    is a projection dominating UU*, strictly (the witness) when norm_difference >= 1/2.
    The refusals of :func:`_factor` come first, then :class:`NoGap` when c lies in the clustered spectrum.
    """
    if not (0.0 < c < 1.0):
        raise NotAdmissible(f"gap point must lie in (0, 1), got {c}")
    left, s, vh, cross, rank = _factor(x, tol, cluster_tol=cluster_tol)[1:]
    if _clusters(s, cluster_tol).contains(c):
        raise NoGap(f"{c} lies in the estimated spectrum")

    # X = L S V* and g(|X|) = V g(S) V*, so U keeps the singular pairs above c,
    # a prefix since s is sorted; on the right support U*U is the 0/1 diagonal
    # of those pairs, a projection by construction
    k = np.count_nonzero(s > c)
    w = _support_difference(cross[:rank, :k], np.arange(rank) < k)
    del cross  # before U, the other n x n array of the call
    u = (left[:, :k] @ vh[:k]).astype(complex, copy=False)
    dominated, difference = bool(np.max(w, initial=0.0) <= tol), float(np.max(np.abs(w), initial=0.0))
    return u, WitnessReport(c, dominated, difference, dominated and difference >= 0.5)

