"""Shared exception types."""


class AxialError(Exception):
    """Base class for all library errors."""


class FieldMismatchError(AxialError):
    """Operands live over different base fields."""


class DimensionMismatchError(AxialError):
    """Vector/matrix shapes are incompatible."""


class ScalarParseError(AxialError, ValueError):
    """A scalar literal could not be parsed."""


class NotIdempotentError(AxialError):
    """An element required to be idempotent is not."""


class NotSemisimpleError(AxialError):
    """An element whose multiplication operator must be diagonalizable is not,
    or its spectrum could not be fully determined inside the base field."""


class CatalogError(AxialError):
    """Unknown catalog entry or invalid parameters."""


class ExtensionError(AxialError):
    """A central-extension construction received inconsistent data."""
