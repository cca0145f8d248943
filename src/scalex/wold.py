"""Wold-type decomposition of matrices satisfying the scaling identity.

Any X with (X*X)X = X splits, up to unitary equivalence, into a weighted
one-sided shift, a unitary and a zero block.  The recursion below recovers
that splitting from a dense matrix: the first projection comes from the gap
between right and left support, the polar decomposition of X on it yields the
weight block, and multiplying its basis by X walks down the shift fibers.

Truncated inputs violate the identity at one boundary slot.  The recursion
tolerates exactly that failure mode.  The boundary test is basis-free (the
residual's range must avoid the right support).  The first projection is the
eigenspace of right minus left support above 1/2, read off the principal
angles between ker X and ker X*; the difference itself is a projection only
where the identity holds.  Space that the recursion claims and the support
analysis booked as kernel is reported as overlap, not hidden.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergence
from .operators import opnorm, _defect_of_svd, _factor, _shift_basis

__all__ = ["WoldReport", "wold_decompose", "reconstruct"]


@dataclass(eq=False)
class WoldReport:
    """Everything the recursion recovered, plus diagnostics.

    fiber_bases[k] is an n x r basis of the k-th shift fiber: the first spans
    the spectral cut of right minus left support, the second is its image
    under the polar isometry, and each later one is X times the previous.
    a_restricted is the weight block on the first fiber basis, kernel_basis
    an n x k basis of the zero summand; all are float64 for a real operand.
    """

    a_restricted: np.ndarray
    unitary_part: np.ndarray
    kernel_basis: np.ndarray
    fiber_bases: list[np.ndarray] = field(repr=False, default_factory=list)
    p2_basis: np.ndarray = field(repr=False, default=None)
    boundary_overlap_rank: int = 0
    residuals: dict[str, float] = field(default_factory=dict)

    @property
    def q_ranks(self) -> list[int]:
        # trace(V V*) = trace(V* V), the diagonal Gram block
        return [int(round(float(np.vdot(v, v).real))) for v in self.fiber_bases]

    @property
    def unitary_rank(self) -> int:
        return self.unitary_part.shape[0]

    @property
    def kernel_rank(self) -> int:
        return self.kernel_basis.shape[1]

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


def wold_decompose(x: np.ndarray, tol: float = 1e-9) -> WoldReport:
    """Split x into shift-type, unitary and kernel summands.

    The recursion carries only the n x r fiber bases, so a call does a fixed
    number of n x n factorizations whatever the depth; per step it takes the
    singular values of the n x r image X V_k.  A real x stays in float64.

    Raises :class:`NotScalinglike` when the scaling identity fails beyond tol
    away from the boundary, :class:`NotAdmissible` when tol is at or above the
    largest singular value of a nonzero x, :class:`NoConvergence` when the
    fiber recursion is still alive after n steps (orthogonal fibers cannot
    number more than the dimension n), and :class:`DimensionMismatch` on an empty or non-square x.
    """
    # one SVD serves the scaling gate, the residual, the shift basis and the kernel basis
    x, left, s, right, cross, rank = _factor(x, tol)
    defect_norm = _defect_of_svd(s, right, cross, None)[0]
    del cross
    n = x.shape[0]

    ker = right[rank:].conj().T
    q0_basis = _shift_basis(left[:, rank:], ker)

    fiber_bases: list[np.ndarray] = []
    a_restricted = np.zeros((0, 0), dtype=x.dtype)
    stacked = np.zeros((n, 0), dtype=x.dtype)
    # with no shift summand every fiber residual is exactly 0
    tail_norm = proj_defect = ortho_defect = commutation = 0.0

    if q0_basis.shape[1] > 0:
        # |X Q0| = V0 |X V0| V0*, and the polar isometry of X V0 (its pairs above tol) is V1
        x_q0 = x @ q0_basis
        y, t, zh = np.linalg.svd(x_q0, full_matrices=False)
        a_restricted = zh.conj().T @ (t[:, None] * zh)
        fiber_bases += [q0_basis, y[:, t > tol] @ zh[t > tol]]
        while True:
            # ||X Q_k X*|| = sigma_max(X V_k)^2 for Q_k = V_k V_k*
            image = x @ fiber_bases[-1]
            tail_norm = opnorm(image) ** 2
            if tail_norm < 0.5:
                break
            if len(fiber_bases) >= n:
                raise NoConvergence(f"fiber recursion still alive after {n} steps")
            fiber_bases.append(image)
        stacked = np.hstack(fiber_bases)
        proj_defect, ortho_defect = _fiber_defects(stacked, len(fiber_bases))
        # P1 X - X P1 for P1 = B B*; X V_k = V_{k+1} makes X B the recursion's own
        # blocks: [X V0, V2 ... V_last, the image the tail cut rejected]
        bh = stacked.conj().T
        commutation = opnorm(stacked @ (bh @ x) - np.hstack([x_q0, *fiber_bases[2:], image]) @ bh)

    # kernel estimate K, shrunk by whatever the recursion B already claimed:
    # P3 is the cut of K*(I - B B*)K above 1/2, an m x m problem
    kb = right[rank:] @ stacked
    w, z = np.linalg.eigh(np.eye(len(kb)) - kb @ kb.conj().T)
    kernel_basis = ker @ z[:, w > 0.5]
    overlap = ker.shape[1] - kernel_basis.shape[1]

    # the unitary summand P2 is the cut of H = I - B B* - P3 above 1/2, and
    # P1 + P2 + P3 - I = P2 - H has eigenvalues 1[w > 1/2] - w
    claimed = np.hstack([stacked, kernel_basis])
    h = -(claimed @ claimed.conj().T)
    h[np.diag_indices(n)] += 1.0
    w, v = np.linalg.eigh(h)
    p2_basis = v[:, w > 0.5]
    unitary_part = p2_basis.conj().T @ x @ p2_basis
    # U*U - I and UU* - I share the eigenvalues sigma^2 - 1 of the k x k block U
    sigma = np.linalg.svd(unitary_part, compute_uv=False) if unitary_part.size else np.zeros(0)

    report = WoldReport(
        a_restricted=a_restricted,
        unitary_part=unitary_part,
        kernel_basis=kernel_basis,
        fiber_bases=fiber_bases,
        p2_basis=p2_basis,
        boundary_overlap_rank=overlap,
    )
    report.residuals = {
        "scaling_defect": defect_norm,
        "projection_defect": proj_defect,
        "orthogonality_defect": ortho_defect,
        "completeness_defect": float(np.max(np.abs((w > 0.5) - w))),
        "unitarity_defect": float(np.max(np.abs(sigma**2 - 1), initial=0.0)),
        "commutation_defect": commutation,
        "reconstruction_defect": opnorm(reconstruct(report) - x),
        "boundary_overlap_rank": float(overlap),
        "rejected_tail_norm": tail_norm,
    }
    return report


def _fiber_defects(stacked: np.ndarray, fibers: int) -> tuple[float, float]:
    """(projection, orthogonality) defects of the fibers from one Gram matrix.

    With G = B* B for the stacked bases B, ||Q_k^2 - Q_k|| = max |g^2 - g| over
    the eigenvalues g of the block G_kk, and ||Q_i Q_j|| is the norm of
    G_ii^(1/2) G_ij G_jj^(1/2); every block is r x r.
    """
    # the recursion yields at least two fibers, all of rank r
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


def reconstruct(r: WoldReport) -> np.ndarray:
    """Reassemble shift-block + unitary + zero in the recovered basis.

    The summands V1 A V0*, V_{k+1} V_k* and P2 U P2* are all of the form
    head tail*, so one product of the stacked heads and tails forms their sum.
    """
    heads, tails = [r.p2_basis, *r.fiber_bases[1:]], [r.p2_basis @ r.unitary_part.conj().T]
    if r.fiber_bases:
        tails += [r.fiber_bases[0] @ r.a_restricted.conj().T, *r.fiber_bases[1:-1]]
    return np.hstack(heads) @ np.hstack(tails).conj().T
