"""Exception types shared across the package."""

from __future__ import annotations


class EtacalcError(Exception):
    """Base class for every error raised deliberately by this package."""


class DegreeMismatchError(EtacalcError, ValueError):
    """Permutations of different degrees were combined."""


class MembershipError(EtacalcError, ValueError):
    """An element was required to lie in a group it does not belong to."""


class CapacityError(EtacalcError, RuntimeError):
    """A computation exceeded its configured size cap.

    The ``count`` attribute records how far the computation got (cosets
    defined, or the order bound that was crossed) so callers can report it.
    """

    def __init__(self, message: str, *, count: int):
        super().__init__(message)
        self.count = count


class ParseError(EtacalcError, ValueError):
    """Malformed presentation text; carries 1-based line and column."""

    def __init__(self, message: str, *, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class IllDefinedHomError(EtacalcError, ValueError):
    """A generator-image assignment does not extend to a homomorphism.

    ``edge`` is one (point, generator index) pair of the source where the
    labelling of source points by target points breaks: the label of the
    generator's image of the point is not the generator's target image of
    the point's label.
    """

    def __init__(self, message: str, *, edge):
        super().__init__(message)
        self.edge = edge


class InvalidActionError(EtacalcError, ValueError):
    """An action table violates the action axioms; carries the report."""

    def __init__(self, message: str, *, report=None):
        super().__init__(message)
        self.report = report


class IncompatibleActionError(EtacalcError, ValueError):
    """A pair of mutual actions fails the compatibility condition."""

    def __init__(self, message: str, *, report=None):
        super().__init__(message)
        self.report = report


class InvarianceError(EtacalcError, ValueError):
    """A set of elements is not closed under conjugation by a group.

    ``witness`` names the first escape: the member and the conjugator's index.
    """

    def __init__(self, message: str, *, witness=None):
        super().__init__(message)
        self.witness = witness


class IncompleteTableError(EtacalcError, ValueError):
    """An operation needed a complete coset table but got a partial one."""


class ConstructionError(EtacalcError, RuntimeError):
    """An internal invariant of a constructed object failed verification."""
