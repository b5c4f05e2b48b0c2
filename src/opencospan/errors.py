"""Exception types shared across the package."""

from __future__ import annotations


class OpenCospanError(Exception):
    """Base class for every domain error raised by this package."""


class CompositionError(OpenCospanError):
    """Functions or morphisms were chained whose endpoints do not meet."""


class SpanError(OpenCospanError):
    """A pushout was requested for two maps that do not share a domain."""


class BudgetExceeded(OpenCospanError):
    """An isomorphism search visited more nodes than its budget allows."""


class MorphismShapeError(OpenCospanError):
    """A system morphism's component maps do not fit the two systems."""


class KindError(OpenCospanError):
    """Two different kinds of system were mixed in one operation."""


class UnsupportedGluing(OpenCospanError):
    """A rated Petri net pushout was requested along a non-discrete span."""


class ComposabilityError(OpenCospanError):
    """Two cospans were glued whose adjacent feet disagree."""


class BoundaryError(OpenCospanError):
    """Two 2-morphisms were pasted along boundaries that do not match."""


class NotInImageOfL(OpenCospanError):
    """A structured cospan has a non-discrete foot, so it has no decorated form."""


class DimensionError(OpenCospanError):
    """A state vector or flow schedule has the wrong number of entries."""


class DivergenceError(OpenCospanError):
    """Numerical integration produced a non-finite state."""

    def __init__(self, message: str, last_good_time: float):
        super().__init__(message)
        self.last_good_time = last_good_time


class SimulationTooLarge(OpenCospanError):
    """A simulation asks for more steps, or more trajectory values, than
    one run may produce."""


class FieldTooLarge(OpenCospanError):
    """A field's dense form, one exponent per place in each term, holds more
    exponents than one model file may."""


class CoefficientOverflow(OpenCospanError):
    """A polynomial coefficient is not a finite float: a rate, or a sum or
    product of them, overflowed; or an exponent is too large for a float,
    so no state can be raised to it."""


class ModelFormatError(OpenCospanError):
    """A model or config file does not match the documented JSON schema."""


class ModelValidationError(OpenCospanError):
    """A well-formed file describes a semantically invalid model or run."""
