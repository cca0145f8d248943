"""Exception taxonomy shared by the decision engine and the operator lab.

Two families matter to callers: malformed input (``InvalidInterval``,
``NegativeEndpoint``, ``DimensionMismatch``, ``NonFiniteEntry``) and
mathematically inadmissible requests (everything deriving from
``AdmissibilityError``).  The CLI maps the first family to exit code 2 and the
second to exit code 3.
"""


class ScalexError(Exception):
    """Base class for all package-specific errors."""


class InvalidInterval(ScalexError, ValueError):
    """An interval with lo > hi, a non-finite endpoint or a non-finite removed point."""


class NegativeEndpoint(ScalexError, ValueError):
    """Spectrum values live in [0, oo); a negative endpoint was supplied."""


class DimensionMismatch(ScalexError, ValueError):
    """Operands whose shapes cannot be combined."""


class NonFiniteEntry(ScalexError, ValueError):
    """A matrix entry that is NaN or infinite."""


class AdmissibilityError(ScalexError):
    """A request that is well-formed but mathematically inadmissible."""


class NotMember(AdmissibilityError):
    """A point required to lie in a set does not."""


class NotAdmissible(AdmissibilityError):
    """A spectrum/flag combination ruled out by the classification."""


class NoGap(AdmissibilityError):
    """No spectral gap at the requested cut point."""


class NotScalinglike(AdmissibilityError):
    """The scaling identity fails beyond tolerance and not only at the boundary."""


class NoConvergence(AdmissibilityError):
    """An iteration exhausted its step budget without terminating."""


class IllConditioned(AdmissibilityError):
    """Singular values fall inside the ambiguity band of a threshold test."""

