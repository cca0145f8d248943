"""Truncated representations of the universal function/shift pair.

A representation is determined by finitely many spectrum samples with one
marked point, acting on N fiber slots of dimension k (one coordinate per
sample).  Functions act diagonally on slot 0 and by their marked-point value
afterwards; the shifted action composes with the truncated block shift.  The
defect projection and the matrix units it generates realize, at truncation
depth, the compact-operator ideal sitting inside the pair algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, IndexOutOfDepth, NotAdmissible, NotIsolated

__all__ = [
    "SampledPairRep",
    "SampledFunction",
    "PairRelationReport",
    "function_action",
    "shift_action",
    "block_shift",
    "defect_projection",
    "matrix_units",
    "pair_relation_check",
]

COINCIDENCE_TOL = 1e-12


@dataclass(frozen=True)
class SampledPairRep:
    """Sample points, the index of the marked point, and the truncation depth."""

    samples: tuple[float, ...]
    v_index: int
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(float(s) for s in self.samples))
        if not self.samples:
            raise NotAdmissible("need at least one sample point")
        if len(set(self.samples)) != len(self.samples):
            raise NotAdmissible("sample points must be distinct")
        if not 0 <= self.v_index < len(self.samples):
            raise NotAdmissible(f"marked index {self.v_index} out of range")
        if self.depth < 3:
            raise NotAdmissible("truncation depth must be >= 3")

    @property
    def fiber_dim(self) -> int:
        return len(self.samples)

    @property
    def dimension(self) -> int:
        return self.fiber_dim * self.depth

    @property
    def marked_value(self) -> float:
        return self.samples[self.v_index]

    def to_json(self) -> dict:
        return {"samples": list(self.samples), "v": self.marked_value, "depth": self.depth}

    @classmethod
    def from_json(cls, obj: dict) -> "SampledPairRep":
        samples = [float(s) for s in obj["samples"]]
        v = float(obj["v"])
        if v not in samples:
            raise NotAdmissible(f"marked point {v} is not among the samples")
        return cls(tuple(samples), samples.index(v), int(obj["depth"]))


@dataclass(frozen=True)
class SampledFunction:
    """A function known by its values at the sample points."""

    values: tuple[complex, ...]
    value_at_v: complex

    @classmethod
    def from_values(cls, rep: SampledPairRep, values) -> "SampledFunction":
        vals = tuple(complex(v) for v in values)
        if len(vals) != rep.fiber_dim:
            raise DimensionMismatch(
                f"{len(vals)} values for a representation with {rep.fiber_dim} samples"
            )
        return cls(vals, vals[rep.v_index])

    @classmethod
    def from_callable(cls, rep: SampledPairRep, fn: Callable[[float], complex]) -> "SampledFunction":
        return cls.from_values(rep, [fn(s) for s in rep.samples])

    @classmethod
    def constant(cls, rep: SampledPairRep, c: complex) -> "SampledFunction":
        return cls.from_values(rep, [c] * rep.fiber_dim)

    @classmethod
    def indicator_at_v(cls, rep: SampledPairRep) -> "SampledFunction":
        vals = [0.0] * rep.fiber_dim
        vals[rep.v_index] = 1.0
        return cls.from_values(rep, vals)


def _check_match(rep: SampledPairRep, f: SampledFunction) -> None:
    if len(f.values) != rep.fiber_dim:
        raise DimensionMismatch(
            f"function has {len(f.values)} values, representation has {rep.fiber_dim} samples"
        )


def function_action(rep: SampledPairRep, f: SampledFunction) -> np.ndarray:
    """Diagonal action: f's sample values on slot 0, f at the marked point after."""
    _check_match(rep, f)
    k, n = rep.fiber_dim, rep.depth
    diag = np.concatenate(
        [np.asarray(f.values, dtype=complex), np.full(k * (n - 1), complex(f.value_at_v))]
    )
    return np.diag(diag)


def block_shift(rep: SampledPairRep) -> np.ndarray:
    """The truncated block shift: slot i -> slot i+1, last slot annihilated."""
    return np.eye(rep.dimension, k=-rep.fiber_dim, dtype=complex)


def shift_action(rep: SampledPairRep, f: SampledFunction) -> np.ndarray:
    """Shifted action: block shift composed with the diagonal action."""
    return block_shift(rep) @ function_action(rep, f)


def defect_projection(rep: SampledPairRep) -> np.ndarray:
    """Indicator of the marked point minus the shift range projection.

    The rank-one projection generating the compact ideal; requires the marked
    point to be numerically isolated among the samples.
    """
    v_val = rep.marked_value
    for i, s in enumerate(rep.samples):
        if i != rep.v_index and abs(s - v_val) <= COINCIDENCE_TOL:
            raise NotIsolated(f"sample {s} coincides with the marked point {v_val}")
    vv = shift_action(rep, SampledFunction.constant(rep, 1.0))
    return function_action(rep, SampledFunction.indicator_at_v(rep)) - vv @ vv.conj().T


def matrix_units(rep: SampledPairRep, n: int, m: int) -> np.ndarray:
    """E_{n,m}: shift the defect projection n slots left-of and m right-of."""
    if not (0 <= n <= rep.depth - 2 and 0 <= m <= rep.depth - 2):
        raise IndexOutOfDepth(f"indices ({n}, {m}) exceed depth {rep.depth} - 2")
    # V^n moves slot i to slot i + n, so V^n P V*^m is P moved n slots down and m right
    p, k = defect_projection(rep), rep.fiber_dim
    e = np.zeros_like(p)
    e[n * k :, m * k :] = p[: len(p) - n * k, : len(p) - m * k]
    return e


@dataclass(frozen=True)
class PairRelationReport:
    """Interior residual norms of the three defining pair relations."""

    adjoint_product: float
    right_module: float
    marked_evaluation: float


def pair_relation_check(
    rep: SampledPairRep, f: SampledFunction, g: SampledFunction
) -> PairRelationReport:
    """Residuals of t(f)*t(g) = pi(conj(f) g), t(f)pi(g) = t(fg), pi(f)t(g) = f(v)t(g).

    All three are measured on the interior compression (last slot excluded),
    where the truncated shift is still isometric.
    """
    _check_match(rep, f)
    _check_match(rep, g)
    interior = rep.fiber_dim * (rep.depth - 1)

    def inorm(m: np.ndarray) -> float:
        return float(np.linalg.norm(m[:interior, :interior], 2))

    tf, tg = shift_action(rep, f), shift_action(rep, g)
    pig = function_action(rep, g)
    conj_fg = SampledFunction.from_values(
        rep, [np.conj(a) * b for a, b in zip(f.values, g.values)]
    )
    fg = SampledFunction.from_values(rep, [a * b for a, b in zip(f.values, g.values)])

    return PairRelationReport(
        adjoint_product=inorm(tf.conj().T @ tg - function_action(rep, conj_fg)),
        right_module=inorm(tf @ pig - shift_action(rep, fg)),
        marked_evaluation=inorm(function_action(rep, f) @ tg - complex(f.value_at_v) * tg),
    )
