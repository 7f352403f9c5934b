"""Exception types shared across the library."""


class FusionError(Exception):
    """Base class for all errors raised by this library."""


class UnknownLabelError(FusionError, KeyError):
    """A basis or module label does not belong to the ring/module at hand."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep messages readable
        return Exception.__str__(self)


class StructuralError(FusionError):
    """A table is malformed (missing entries, bad involution, bad labels).

    Distinct from an axiom failure: a structurally sound table may still
    violate the based-ring or based-module axioms, which verification
    reports instead of raising.  The module search and the torsion verdict
    raise it for a table that fails an axiom.
    """


class NoDimensionFunctionError(FusionError):
    """The Perron candidate fails positivity or multiplicativity."""


class NotAFusionSubringError(FusionError):
    """A basis subset is not closed under unit, involution or products."""


class UnitGroupError(FusionError):
    """The dimension-one labels fail to close under product or involution."""


class IncompatibleDimensionsError(FusionError):
    """A candidate module dimension vector violates action multiplicativity."""


class InfiniteInnerProductError(FusionError):
    """An inner product over an infinite ring could not be certified finite."""


class NonIntegerDimensionError(FusionError):
    """An operation requiring integer dimensions met a non-integer one."""


class MalformedDocumentError(FusionError):
    """A ring or module document failed to parse or validate."""
