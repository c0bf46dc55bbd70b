"""Domain error hierarchy.

Every failure mode that callers are expected to branch on gets its own
class; the CLI maps any EqstateError to exit code 1 with the class name
on stderr.
"""

__all__ = [
    "EqstateError",
    "AtCriticalOrBoundary",
    "NotInImage",
    "OrbitTruncated",
    "OrbitEscaped",
    "NotMarkovCompatible",
    "ToleranceFailure",
    "UnknownGenerator",
    "OutOfRange",
    "NoRoot",
    "NoFiniteRoot",
    "DivergentEntropy",
    "InfiniteMeanReturn",
    "OrbitHitsCritical",
    "NoNeutralPoints",
]


class EqstateError(Exception):
    """Base class for all domain errors raised by this package."""


class AtCriticalOrBoundary(EqstateError):
    """Point evaluation requested at a critical point or branch boundary."""


class NotInImage(EqstateError):
    """Inverse requested for a value outside the branch image."""


class OrbitTruncated(EqstateError):
    """Orbit hit the critical set / a boundary before the requested length."""


class OrbitEscaped(EqstateError):
    """Critical orbit left the invariant interval."""

    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


class NotMarkovCompatible(EqstateError):
    """A forward image of the base partially overlaps the base."""


class ToleranceFailure(EqstateError):
    """Endpoint certification of a scheme branch failed at the given tol."""


class UnknownGenerator(EqstateError):
    """Unrecognized closed-form level-count generator."""


class OutOfRange(EqstateError):
    """Argument outside its documented domain."""


class NoRoot(EqstateError):
    """The series solve found no root: no positive level weight, a truncated
    series below 1 at its growth rate, or a residual above tol."""


class NoFiniteRoot(EqstateError):
    """Induced potential values whose level weights overflow a double."""


class DivergentEntropy(EqstateError):
    """Entropy series failed its ratio test at the summation horizon."""


class InfiniteMeanReturn(EqstateError):
    """Operation requires a finite mean return time."""


class OrbitHitsCritical(EqstateError):
    """An orbit sample of a scheme branch meets the critical set."""


class NoNeutralPoints(EqstateError):
    """Map declares no neutral/indifferent fixed points."""
