"""K-group ranks of function algebras over punctured interval sets.

Inputs here are finite unions of closed intervals with finitely many points
deleted, so every connected component is a point, a closed, half-open or open
interval.  The K0/K1 ranks of continuous functions vanishing at the missing
endpoints follow from a per-component lookup: closed pieces (and points) carry
one K0 generator, open pieces one K1 generator, half-open pieces nothing.
"""

from __future__ import annotations

import math

from .errors import InvalidInterval, NotAdmissible, NotMember
from .spectra import GeneratorDescriptor, Properness, SpectralSet, _is_numbers, _Record

__all__ = [
    "Component",
    "PuncturedSet",
    "KGroupResult",
    "components",
    "k_of_functions",
    "k_of_toeplitz_algebra",
    "k_of_quotient_algebra",
    "k_of_generator",
    "ev_component_class",
]


class KGroupResult(_Record):
    """Free-abelian ranks of K0 and K1."""

    __slots__ = ("k0_rank", "k1_rank")
    k0_rank: int
    k1_rank: int

    def to_json(self) -> dict:
        return {"k0": self.k0_rank, "k1": self.k1_rank}


class Component(_Record):
    """One maximal connected piece of a punctured set."""

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    @property
    def kind(self) -> str:
        if self.lo == self.hi:
            return "point"
        if self.lo_closed and self.hi_closed:
            return "closed"
        if self.lo_closed or self.hi_closed:
            return "half-open"
        return "open"

    def contains(self, x: float) -> bool:
        if not (self.lo <= x <= self.hi):
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True


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

    def without(self, x: float) -> "PuncturedSet":
        if not self.contains(x):
            raise NotMember(f"{x} is not in the punctured set")
        return PuncturedSet(self.base, self.removed + (float(x),))

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "removed": list(self.removed)}

    @classmethod
    def from_json(cls, obj: dict) -> "PuncturedSet":
        if not isinstance(obj, dict) or "base" not in obj or not _is_numbers(obj.get("removed", [])):
            raise InvalidInterval("punctured-set JSON must be {'base': <spectral-set>, 'removed': [x, ...]}")
        return cls(SpectralSet.from_json(obj["base"]), tuple(obj.get("removed", ())))


def components(p: PuncturedSet) -> list[Component]:
    """Maximal connected pieces of the punctured set, in increasing order."""
    out: list[Component] = []
    for lo, hi in p.base.intervals:
        cuts = [x for x in p.removed if lo <= x <= hi]
        if lo == hi:
            if not cuts:
                out.append(Component(lo, hi, True, True))
            continue
        left, left_closed = lo, True
        for c in cuts:
            if c == left:
                left_closed = False
            else:
                out.append(Component(left, c, left_closed, False))
                left, left_closed = c, False
        if left < hi:
            out.append(Component(left, hi, left_closed, True))
        # left == hi happens when the last cut removed the right endpoint;
        # the leftover single point is already gone.
    return out


def k_of_functions(p: PuncturedSet) -> KGroupResult:
    """K-ranks of continuous functions on p vanishing toward the punctures."""
    comps = components(p)
    k0 = sum(1 for c in comps if c.kind in ("closed", "point"))
    k1 = sum(1 for c in comps if c.kind == "open")
    return KGroupResult(k0, k1)


def k_of_toeplitz_algebra(omega: PuncturedSet, v: float) -> KGroupResult:
    """K-ranks of the universal pair algebra on (omega, v).

    The diagonal embedding of the function algebra is a K-equivalence, so the
    ranks coincide with :func:`k_of_functions`.
    """
    if not omega.contains(v):
        raise NotMember(f"marked point {v} is not in the set")
    return k_of_functions(omega)


def k_of_quotient_algebra(omega: PuncturedSet, v: float) -> KGroupResult:
    """K-ranks of the quotient by the compact ideal at an isolated marked point.

    Requires omega minus {v} to be non-empty and compact (every remaining
    component closed); the ranks are those of functions on omega minus {v}.
    """
    if not omega.contains(v):
        raise NotMember(f"marked point {v} is not in the set")
    comp = next(c for c in components(omega) if c.contains(v))
    if comp.kind != "point":
        raise NotAdmissible(f"marked point {v} is not isolated")
    punctured = omega.without(v)
    comps = components(punctured)
    if not comps:
        raise NotAdmissible("the set minus the marked point is empty")
    if any(c.kind not in ("closed", "point") for c in comps):
        raise NotAdmissible("the set minus the marked point is not compact")
    return k_of_functions(punctured)


def k_of_generator(d: GeneratorDescriptor) -> KGroupResult:
    """K-ranks of the algebra generated by a scaling element with descriptor d."""
    omega = PuncturedSet(d.spectrum.set, (0.0,))
    if d.properness is Properness.PROPER:
        return k_of_toeplitz_algebra(omega, 1.0)
    return k_of_quotient_algebra(omega, 1.0)


def ev_component_class(omega: SpectralSet, v: float) -> int:
    """K0 basis index hit by evaluation at v: its connected-component index."""
    return omega.interval_index_of(v)
