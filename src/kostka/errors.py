"""Exception types shared across the package."""


class KostkaError(Exception):
    """Base class for all domain errors."""


class NegativeEntryError(KostkaError):
    """A partition or composition entry was negative."""


class NonIntegerEntryError(KostkaError):
    """An entry was not an integer, or a container not a sequence of them."""


class NonMonotoneError(KostkaError):
    """A partition's parts increased after zero-stripping."""


class SizeMismatchError(KostkaError):
    """Two objects that must have equal total size do not."""


class ShapeMismatchError(KostkaError):
    """Rows or columns do not match the declared shape."""


class NotDominatedError(KostkaError):
    """The greedy filling requires the shape to dominate the weight."""


class InvalidDivisorError(KostkaError):
    """Subgroup order must divide the group order."""


class UnequalOrbitSizesError(KostkaError):
    """All orbit sizes must be equal for this criterion."""


class EmptyShapeError(KostkaError):
    """Orbit entries must carry a nonempty partition."""


class ParseError(KostkaError):
    """Malformed command-line input."""
