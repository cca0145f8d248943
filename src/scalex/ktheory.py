"""K-group ranks of function algebras over punctured interval sets.

Inputs here are finite unions of closed intervals with finitely many points
deleted.  The K0/K1 ranks of continuous functions vanishing at the deleted
points are a count of punctures per interval (see :func:`k_of_functions`).
"""

from __future__ import annotations

import math

from .errors import InvalidInterval, NotMember
from .spectra import GeneratorDescriptor, Properness, SpectralSet, _is_numbers, _Record

__all__ = [
    "PuncturedSet",
    "KGroupResult",
    "k_of_functions",
    "k_of_generator",
]


class KGroupResult(_Record):
    """Free-abelian ranks of K0 and K1."""

    __slots__ = ("k0_rank", "k1_rank")
    k0_rank: int
    k1_rank: int

    def to_json(self) -> dict:
        return {"k0": self.k0_rank, "k1": self.k1_rank}


class PuncturedSet(_Record):
    """A spectral set with finitely many points deleted."""

    __slots__ = ("base", "removed")
    _defaults = {"removed": ()}
    base: SpectralSet
    removed: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(x) for x in self.removed)
        if not all(map(math.isfinite, pts)):
            raise InvalidInterval(f"removed points must be finite, got {list(pts)}")
        if len(set(pts)) != len(pts):
            raise NotMember("removed points must be pairwise distinct")
        for x in pts:
            if not self.base.contains(x):
                raise NotMember(f"removed point {x} is not in the base set")
        object.__setattr__(self, "removed", tuple(sorted(pts)))

    def contains(self, x: float) -> bool:
        return self.base.contains(x) and float(x) not in self.removed

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "removed": list(self.removed)}

    @classmethod
    def from_json(cls, obj: dict) -> "PuncturedSet":
        if not isinstance(obj, dict) or "base" not in obj or not _is_numbers(obj.get("removed", [])):
            raise InvalidInterval("punctured-set JSON must be {'base': <spectral-set>, 'removed': [x, ...]}")
        return cls(SpectralSet.from_json(obj["base"]), tuple(obj.get("removed", ())))


def k_of_functions(p: PuncturedSet) -> KGroupResult:
    """K-ranks of continuous functions on p vanishing toward the punctures.

    The ranks add up over the intervals of the base.  A closed interval or a
    point gives K0 = Z, a half-open piece is contractible and gives 0, and an
    open piece is a suspension and gives K1 = Z.  An interval with no puncture
    is one closed piece.  c >= 1 punctures leave c - 1 open pieces between
    consecutive punctures, and at each end a half-open piece, or nothing where
    the puncture is the endpoint: c - 1 K1 generators and no K0 generator.
    """
    cuts = [sum(lo <= x <= hi for x in p.removed) for lo, hi in p.base.intervals]
    return KGroupResult(cuts.count(0), sum(c - 1 for c in cuts if c))


def k_of_generator(d: GeneratorDescriptor) -> KGroupResult:
    """K-ranks of the algebra generated by a scaling element with descriptor d.

    Proper: the universal Toeplitz-type algebra, K-equivalent to C0(spec|X*| minus {0}).
    Non-proper: its quotient by the compacts at 1, K-equivalent to C0(spec|X*| minus {0, 1}).
    """
    removed = (0.0,) if d.properness is Properness.PROPER else (0.0, 1.0)
    return k_of_functions(PuncturedSet(d.spectrum.set, removed))
