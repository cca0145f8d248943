"""Wold-type decomposition of matrices satisfying the scaling identity.

Any X with (X*X)X = X splits, up to unitary equivalence, into a weighted
one-sided shift, a unitary and a zero block.  The recursion below recovers
that splitting from a dense matrix: the first projection comes from the gap
between right and left support, the polar decomposition of X on it yields the
weight block, and multiplying its basis by X walks down the shift fibers.

Truncated inputs violate the identity at one boundary slot.  The recursion
tolerates exactly that failure mode: the boundary test is basis-free (the
residual's range must avoid the right support), the first projection is a
spectral cut rather than a literal difference, and when the recursion claims
space that the support analysis booked as kernel the overlap is reported, not
hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence
from .operators import opnorm, require_square, _require_scalinglike

__all__ = ["WoldReport", "polar", "wold_decompose", "reconstruct"]


def polar(x: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition x = u p with u a partial isometry and p = |x|."""
    x = np.asarray(x, dtype=complex)
    u_, s, vh = np.linalg.svd(x, full_matrices=False)
    keep = s > tol
    u = u_[:, keep] @ vh[keep, :]
    p = vh.conj().T @ (s[:, None] * vh)
    return u, p


def _spectral_projection_above(h: np.ndarray, cut: float) -> tuple[np.ndarray, np.ndarray]:
    """(projection, orthonormal basis) onto eigenvectors of Hermitian h above cut."""
    w, v = np.linalg.eigh(h)
    basis = v[:, w > cut]
    return basis @ basis.conj().T, basis


@dataclass(eq=False)
class WoldReport:
    """Everything the recursion recovered, plus diagnostics.

    fiber_bases[k] is an n x r basis of the k-th shift fiber: the first spans
    the spectral cut of right minus left support, the second is its image
    under the polar isometry, and each later one is X times the previous.
    a_restricted is the weight block expressed on the first fiber basis.
    """

    dimension: int
    a_restricted: np.ndarray
    unitary_part: np.ndarray
    kernel_projection: np.ndarray
    fiber_bases: list[np.ndarray] = field(repr=False, default_factory=list)
    p2_basis: np.ndarray = field(repr=False, default=None)
    boundary_overlap_rank: int = 0
    boundary_q_index: int | None = None
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def q_projections(self) -> list[np.ndarray]:
        """The shift-fiber projections V V*, formed on demand."""
        return [v @ v.conj().T for v in self.fiber_bases]

    @property
    def q_ranks(self) -> list[int]:
        # trace(V V*) = trace(V* V), the diagonal Gram block
        return [int(round(float(np.vdot(v, v).real))) for v in self.fiber_bases]

    @property
    def unitary_rank(self) -> int:
        return self.unitary_part.shape[0]

    @property
    def kernel_rank(self) -> int:
        return int(round(float(np.trace(self.kernel_projection).real)))

    @property
    def a_eigenvalues(self) -> list[float]:
        if self.a_restricted.size == 0:
            return []
        return [float(v) for v in np.linalg.eigvalsh(self.a_restricted)]

    def to_json(self) -> dict:
        return {
            "q_ranks": self.q_ranks,
            "a_eigenvalues": self.a_eigenvalues,
            "unitary_rank": self.unitary_rank,
            "kernel_rank": self.kernel_rank,
            "residuals": self.residuals,
        }


def wold_decompose(x: np.ndarray, tol: float = 1e-9, max_steps: int | None = None) -> WoldReport:
    """Split x into shift-type, unitary and kernel summands.

    The recursion carries only the n x r fiber bases, so a call does a fixed
    number of n x n factorizations whatever the depth; per step it takes the
    singular values of the n x r image X V_k.

    Raises :class:`NotScalinglike` when the scaling identity fails beyond tol
    away from the boundary, :class:`NoConvergence` when the fiber recursion
    exceeds max_steps (default: the dimension) without dying out, and
    :class:`DimensionMismatch` on an empty or non-square x.
    """
    x = require_square(np.asarray(x, dtype=complex))
    n = x.shape[0]
    if max_steps is None:
        max_steps = n

    # one SVD serves the scaling gate and both supports; the masks copy out
    # the support rows and columns, so the full factors are freed
    left, s, right = np.linalg.svd(x)
    left, right = left[:, s > tol], right[s > tol]
    residual, _ = _require_scalinglike(x, tol, None, right)
    defect_norm = opnorm(residual)

    p0, p0p = right.conj().T @ right, left @ left.conj().T
    eye = np.eye(n, dtype=complex)

    # the literal difference right - left is a projection only when the
    # identity holds exactly; the > 1/2 spectral cut survives the boundary
    _, q0_basis = _spectral_projection_above(p0 - p0p, 0.5)

    fiber_bases: list[np.ndarray] = []
    a_restricted = np.zeros((0, 0), dtype=complex)
    tail_norm = 0.0

    if q0_basis.shape[1] > 0:
        # |X Q0| = V0 |X V0| V0* and U0 V0 is the polar isometry of X V0
        v1, a_restricted = polar(x @ q0_basis, tol)
        fiber_bases += [q0_basis, v1]
        while True:
            # ||X Q_k X*|| = sigma_max(X V_k)^2 for Q_k = V_k V_k*
            image = x @ fiber_bases[-1]
            tail_norm = opnorm(image) ** 2
            if tail_norm < 0.5:
                break
            if len(fiber_bases) >= max_steps:
                raise NoConvergence(f"fiber recursion still alive after {max_steps} steps")
            fiber_bases.append(image)

    stacked = np.hstack(fiber_bases) if fiber_bases else np.zeros((n, 0), dtype=complex)
    p1 = stacked @ stacked.conj().T

    # kernel estimate, shrunk by whatever the recursion already claimed
    p3_raw = eye - p0
    p3, _ = _spectral_projection_above(p3_raw @ (eye - p1) @ p3_raw, 0.5)
    raw_rank = int(round(float(np.trace(p3_raw).real)))
    p3_rank = int(round(float(np.trace(p3).real)))
    overlap = raw_rank - p3_rank

    p2, p2_basis = _spectral_projection_above(eye - p1 - p3, 0.5)
    unitary_part = p2_basis.conj().T @ x @ p2_basis

    report = WoldReport(
        dimension=n,
        a_restricted=a_restricted,
        unitary_part=unitary_part,
        kernel_projection=p3,
        fiber_bases=fiber_bases,
        p2_basis=p2_basis,
        boundary_overlap_rank=overlap,
        boundary_q_index=len(fiber_bases) - 1 if overlap > 0 and fiber_bases else None,
    )
    report.residuals = _diagnostics(x, report, stacked, p1, p2, p3, defect_norm, tail_norm)
    return report


def _fiber_defects(stacked: np.ndarray, fibers: int) -> tuple[float, float]:
    """(projection, orthogonality) defects of the fibers from one Gram matrix.

    With G = B* B for the stacked bases B, ||Q_k^2 - Q_k|| = max |g^2 - g| over
    the eigenvalues g of the block G_kk, and ||Q_i Q_j|| is the norm of
    G_ii^(1/2) G_ij G_jj^(1/2); every block is r x r.
    """
    if fibers == 0:
        return 0.0, 0.0
    # the recursion yields either no fibers or at least two, all of rank r
    r = stacked.shape[1] // fibers
    gram = stacked.conj().T @ stacked
    blocks = gram.reshape(fibers, r, fibers, r).transpose(0, 2, 1, 3)
    diag = blocks[np.arange(fibers), np.arange(fibers)]
    g, w = np.linalg.eigh(diag)
    proj_defect = float(np.max(np.abs(g * g - g)))
    i, j = np.triu_indices(fibers, 1)
    root = (w * np.sqrt(np.clip(g, 0.0, None))[:, None, :]) @ w.conj().transpose(0, 2, 1)
    cross = root[i] @ blocks[i, j] @ root[j]
    ortho_defect = float(np.max(np.linalg.svd(cross, compute_uv=False)))
    return proj_defect, ortho_defect


def _diagnostics(x, report, stacked, p1, p2, p3, defect_norm, tail_norm) -> dict[str, float]:
    proj_defect, ortho_defect = _fiber_defects(stacked, len(report.fiber_bases))
    eye = np.eye(report.dimension, dtype=complex)
    xc = report.unitary_part
    k = xc.shape[0]
    unit_defect = 0.0
    if k:
        unit_defect = max(
            opnorm(xc.conj().T @ xc - np.eye(k)), opnorm(xc @ xc.conj().T - np.eye(k))
        )
    return {
        "scaling_defect": defect_norm,
        "projection_defect": proj_defect,
        "orthogonality_defect": ortho_defect,
        "completeness_defect": opnorm(p1 + p2 + p3 - eye),
        "unitarity_defect": unit_defect,
        "commutation_defect": opnorm(p1 @ x - x @ p1),
        "reconstruction_defect": opnorm(reconstruct(report) - x),
        "boundary_overlap_rank": float(report.boundary_overlap_rank),
        "rejected_tail_norm": tail_norm,
    }


def reconstruct(r: WoldReport) -> np.ndarray:
    """Reassemble shift-block + unitary + zero in the recovered basis."""
    out = np.zeros((r.dimension, r.dimension), dtype=complex)
    if r.fiber_bases:
        v0, v1 = r.fiber_bases[0], r.fiber_bases[1]
        out += v1 @ r.a_restricted @ v0.conj().T
        for va, vb in zip(r.fiber_bases[1:], r.fiber_bases[2:]):
            out += vb @ va.conj().T
    if r.p2_basis is not None and r.p2_basis.shape[1] > 0:
        out += r.p2_basis @ r.unitary_part @ r.p2_basis.conj().T
    return out
