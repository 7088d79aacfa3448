"""Shared exception types, and the base of the package's immutable classes.

Errors split into two families: mathematical negatives that are valid
outputs (reported via verdict values, never raised) and genuine failures
to decide (raised).  Anything that a larger working precision could fix
derives from PrecisionError.
"""


class Frozen:
    """Base of the value classes that validate or normalise their fields:
    each lists its fields in __slots__ and sets them in __init__ with
    object.__setattr__.  Later assignment or deletion raises AttributeError;
    equality and hash are over the field values in order, the repr shows
    the fields without a leading underscore, and copy and pickle rebuild an
    instance through __init__ from its field values."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__ if name[0] != "_")
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
