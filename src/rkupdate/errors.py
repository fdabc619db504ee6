"""Exception hierarchy for rkupdate.

All errors derive from :class:`RKUpdateError` so callers can catch the
library's failures with a single handler while still being able to
distinguish numerical breakdowns from invalid arguments.
"""

__all__ = [
    "RKUpdateError",
    "RankDeficient",
    "NonFiniteResult",
    "SingularShift",
    "SingularityOnSpectrum",
    "IllConditionedEigenbasis",
    "SupportOverlapsSpectrum",
    "PoleInsideDomain",
    "EtaNotContracting",
    "LastPoleNotInfinite",
    "SpectraIntersect",
    "CompressedNotSolvable",
    "DenominatorZero",
    "MSingular",
]


class RKUpdateError(Exception):
    """Base class for all rkupdate errors; ``step`` is the step of the run
    that raised it (set by the step loop), None outside a run."""

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


class RankDeficient(RKUpdateError):
    """A block vector lost rank during orthogonalization (Krylov breakdown).

    Deflation is out of scope, so this is a hard error carrying the step
    at which the breakdown occurred.  ``exhausted`` is True when every
    column of the block lost rank, that is, when the block lies in the span
    the basis already has.
    """

    def __init__(self, msg, step=None, exhausted=False):
        super().__init__(msg, step)
        self.exhausted = exhausted


class NonFiniteResult(RKUpdateError):
    """The small projected problem of a step returned a non-finite entry
    (f overflowed on the spectrum of the compression)."""


class SingularShift(RKUpdateError):
    """A shifted matrix A - xi*I is numerically singular (xi is an eigenvalue)."""


class SingularityOnSpectrum(RKUpdateError):
    """The requested scalar function has a singularity on (or too close to)
    the spectrum of the matrix it is applied to."""


class IllConditionedEigenbasis(RKUpdateError):
    """The eigenvector matrix of a non-normal matrix is too ill conditioned
    for a reliable function evaluation and no fallback exists for this f."""


class SupportOverlapsSpectrum(RKUpdateError):
    """The support interval of a Markov function overlaps the spectral window."""


class PoleInsideDomain(RKUpdateError):
    """A pole lies inside the spectral set; Blaschke factors are undefined."""


class EtaNotContracting(RKUpdateError):
    """The Blaschke bound eta is >= 1, so the non-Hermitian Markov bound is void."""


class LastPoleNotInfinite(RKUpdateError):
    """The modified Markov bound requires the final pole of the plan to be infinite."""


class SpectraIntersect(RKUpdateError):
    """The two coefficient spectra of a Sylvester equation (nearly) intersect."""


class CompressedNotSolvable(RKUpdateError):
    """Compressed Sylvester spectra intersect numerically; signals degeneracy."""


class DenominatorZero(RKUpdateError):
    """1 + c* A^{-1} b vanished; the rank-one inverse update does not exist."""


class MSingular(RKUpdateError):
    """The small coupling matrix of the generalized rank-one update is singular."""
