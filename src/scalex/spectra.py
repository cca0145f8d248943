"""Exact interval-set algebra over [0, oo) and the generator decision procedures.

A spectrum is described by finitely many disjoint closed intervals with exact
endpoints (points are degenerate intervals).  Every comparison in this module
is exact on endpoints; tolerances belong to the numerical lab, not here, so
each decision procedure is deterministic.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from enum import Enum

from .errors import InvalidInterval, NegativeEndpoint, NotAdmissible

__all__ = [
    "SpectralSet",
    "ScalingSpectrum",
    "GeneratorDescriptor",
    "Properness",
    "normalize",
    "nonproper_admissible",
    "hom_exists",
    "iso_exists",
    "has_infinite_projection",
    "has_compact_open_at_one",
]


class Properness(Enum):
    PROPER = "proper"
    NON_PROPER = "nonproper"


def _is_number(value) -> bool:
    """Whether a JSON value is a number that fits a float (booleans are not numbers)."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def _is_numbers(value) -> bool:
    """Whether a JSON value is a list of numbers that fit a float."""
    return isinstance(value, list) and all(map(_is_number, value))


def _check_endpoints(lo: float, hi: float) -> tuple[float, float]:
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInterval(f"non-finite interval endpoint ({lo}, {hi})")
    if lo > hi:
        raise InvalidInterval(f"interval with lo > hi: ({lo}, {hi})")
    if lo < 0.0:
        raise NegativeEndpoint(f"spectrum endpoints must be >= 0, got {lo}")
    return lo, hi


class _Record:
    """Immutable value record: its ``__slots__`` are its fields, given by position or keyword.

    ``_defaults`` fills omitted fields; ``__post_init__`` then validates, and may
    rebind a field with ``object.__setattr__``.  The lab's records stay
    dataclasses: they load after numpy, which imports ``inspect`` itself.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or kwargs.keys() & set(names[: len(args)]) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(names)}), each once")
        for name in names:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._fields()


class SpectralSet(_Record):
    """A finite union of disjoint closed intervals in [0, oo), kept sorted."""

    __slots__ = ("intervals",)
    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        ivs = tuple(_check_endpoints(lo, hi) for lo, hi in self.intervals)
        for (_, hi), (lo2, _) in zip(ivs, ivs[1:]):
            if hi >= lo2:
                raise InvalidInterval(
                    "intervals must be sorted and strictly disjoint; "
                    "use normalize() to coalesce raw input"
                )
        object.__setattr__(self, "intervals", ivs)

    def contains(self, x: float) -> bool:
        """Closed-endpoint membership test."""
        i = bisect_right(self.intervals, (float(x), math.inf)) - 1
        return i >= 0 and self.intervals[i][0] <= x <= self.intervals[i][1]

    def is_subset(self, other: "SpectralSet") -> bool:
        """Exact interval-wise containment: every point of self lies in other."""
        # A closed interval is connected, so it fits inside the disjoint union
        # `other` iff a single interval of `other` contains it.
        return all(
            any(blo <= lo and hi <= bhi for blo, bhi in other.intervals)
            for lo, hi in self.intervals
        )

    def to_json(self) -> dict:
        return {"intervals": [[lo, hi] for lo, hi in self.intervals]}

    @classmethod
    def from_json(cls, obj: dict) -> "SpectralSet":
        raw = obj.get("intervals") if isinstance(obj, dict) else None
        if not (isinstance(raw, list) and all(_is_numbers(p) and len(p) == 2 for p in raw)):
            raise InvalidInterval("spectral-set JSON must be {'intervals': [[lo, hi], ...]}")
        return normalize(raw)


def normalize(raw: Iterable[Sequence[float]]) -> SpectralSet:
    """Sort and coalesce raw (lo, hi) pairs into the canonical representation.

    Overlapping or touching intervals merge; the result is strictly disjoint
    and the map is idempotent.
    """
    pairs = sorted(_check_endpoints(lo, hi) for lo, hi in raw)
    merged: list[tuple[float, float]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return SpectralSet(tuple(merged))


class ScalingSpectrum(_Record):
    """A spectral set that is admissible as spec(|X*|): it must contain 0 and 1."""

    __slots__ = ("set",)
    set: SpectralSet

    def __post_init__(self):
        if not (self.set.contains(0.0) and self.set.contains(1.0)):
            raise NotAdmissible("a scaling spectrum must contain both 0 and 1")

    @classmethod
    def from_intervals(cls, raw: Iterable[Sequence[float]]) -> "ScalingSpectrum":
        return cls(normalize(raw))

    def to_json(self) -> dict:
        return self.set.to_json()

    @classmethod
    def from_json(cls, obj: dict) -> "ScalingSpectrum":
        return cls(SpectralSet.from_json(obj))


class GeneratorDescriptor(_Record):
    """Complete isomorphism invariant of a generated algebra: spectrum + flag."""

    __slots__ = ("spectrum", "properness")
    spectrum: ScalingSpectrum
    properness: Properness

    def __post_init__(self):
        if type(self.spectrum) is not ScalingSpectrum:
            raise NotAdmissible(f"spectrum must be a ScalingSpectrum, got {self.spectrum!r}")
        if type(self.properness) is not Properness:
            raise NotAdmissible(f"properness must be a Properness, got {self.properness!r}")
        if self.properness is Properness.NON_PROPER and not nonproper_admissible(self.spectrum):
            raise NotAdmissible(
                "non-proper generators exist only when the spectrum minus {0, 1} "
                "is non-empty and compact (0 and 1 isolated)"
            )

    def to_json(self) -> dict:
        return {
            "spectrum": self.spectrum.to_json(),
            "proper": self.properness is Properness.PROPER,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GeneratorDescriptor":
        if not isinstance(obj, dict) or "spectrum" not in obj or not isinstance(obj.get("proper"), bool):
            raise InvalidInterval(
                "descriptor JSON must be {'spectrum': <spectral-set>, 'proper': true|false}"
            )
        flag = Properness.PROPER if obj["proper"] else Properness.NON_PROPER
        return cls(ScalingSpectrum.from_json(obj["spectrum"]), flag)


def nonproper_admissible(s: ScalingSpectrum) -> bool:
    """Whether a non-proper generator with this spectrum exists.

    Requires the spectrum minus {0, 1} to be non-empty and compact: 0 and 1 are
    isolated points (0 the first interval, as endpoints are >= 0) and at least
    one further interval exists.
    """
    ivs = s.set.intervals
    return ivs[0] == (0.0, 0.0) and (1.0, 1.0) in ivs and len(ivs) >= 3


def hom_exists(x: GeneratorDescriptor, y: GeneratorDescriptor) -> bool:
    """Whether a generator-sending *-homomorphism from x's algebra onto y's exists."""
    if not y.spectrum.set.is_subset(x.spectrum.set):
        return False
    if x.properness is Properness.NON_PROPER:
        return y.properness is Properness.NON_PROPER
    return True


def iso_exists(x: GeneratorDescriptor, y: GeneratorDescriptor) -> bool:
    """Whether a generator-sending *-isomorphism exists: equal spectra, equal flags."""
    return x.spectrum.set == y.spectrum.set and x.properness is y.properness


def has_infinite_projection(s: ScalingSpectrum) -> bool:
    """True iff the generated algebra contains an infinite projection.

    Decided by an interval cover walk: the algebra has an infinite projection
    exactly when the spectrum fails to cover all of [0, 1].
    """
    cursor = 0.0
    for lo, hi in s.set.intervals:
        if lo > cursor:
            return True
        cursor = max(cursor, hi)
        if cursor >= 1.0:
            return False
    return True


def has_compact_open_at_one(s: ScalingSpectrum) -> bool:
    """True iff the punctured spectrum has a compact open piece around 1.

    Equivalent criterion to :func:`has_infinite_projection`, decided by a
    different route: scan for a gap below 1, i.e. some cut c in [0, 1) outside
    the set, which makes the part of the spectrum above c clopen and compact.
    """
    # Gaps of a normalized set sit strictly between consecutive intervals.
    for (_, hi), _next in zip(s.set.intervals, s.set.intervals[1:]):
        if hi < 1.0:
            return True
    return False
