"""Shared exception types.

Errors split into two families: mathematical negatives that are valid
outputs (reported via verdict values, never raised) and genuine failures
to decide (raised).  Anything that a larger working precision could fix
derives from PrecisionError.
"""


class WplabError(Exception):
    """Base class for all package errors."""


class PrecisionError(WplabError):
    """Raising the working precision may make the operation succeed."""


class PrecisionExhausted(PrecisionError):
    pass


class UndecidablePoleProximity(PrecisionError):
    """Argument's error radius overlaps a lattice point."""


class IndistinguishableBranch(PrecisionError):
    """Group-law case split (P = Q vs P = -Q) undecidable at this radius."""


class RankNotCertified(PrecisionError):
    """A pivot interval straddles zero; rank cannot be certified."""


class PoleAtLatticePoint(WplabError):
    pass


class DegenerateLattice(WplabError):
    pass


class UnknownUpToBound(WplabError):
    """Neither confirmation nor exclusion certified within the search bound."""

    def __init__(self, bound, message=""):
        self.bound = bound
        super().__init__(message or f"undecided up to search bound {bound}")


class GroundSetTooLarge(WplabError):
    pass


class BaseNotStrong(WplabError):
    pass


class NotStrong(WplabError):
    pass


class IncompatibleConfiguration(WplabError):
    """The finite model violates intersection-compatibility; the failure is
    a modelling artifact, reported distinctly from a genuine lemma failure."""


class SingularSpecialization(WplabError):
    pass


class InvalidConfiguration(WplabError):
    pass
