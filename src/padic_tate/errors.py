"""Exception hierarchy shared by all modules."""


class PadicError(Exception):
    """Base class for every library error; the CLI exits 2 on one."""


class PrecisionError(PadicError):
    """The precision at hand cannot decide the answer; the CLI exits 3."""


class UsageError(PadicError):
    """The input is malformed; the CLI exits 2 with "usage error"."""


# ---- field construction -------------------------------------------------

class NotPrime(PadicError):
    pass


class ReducibleDefiningPolynomial(PadicError):
    pass


class NonUnitEisensteinConstant(PadicError):
    pass


# ---- element arithmetic -------------------------------------------------

class FieldMismatch(PadicError):
    pass


class DivisionByImpreciseZero(PrecisionError):
    """Divisor has no known nonzero digit at its precision."""


class InsufficientPrecision(PrecisionError):
    pass


class ZeroElement(PrecisionError):
    pass


class ImpreciseValuation(PrecisionError):
    """An exact valuation was required but only a lower bound is known."""


class ParseError(UsageError):
    """Element literal does not conform to the grammar."""


class DenominatorNotInvertible(UsageError):
    pass


# ---- analytic maps ------------------------------------------------------

class OutsideConvergenceDomain(PadicError):
    pass


class DomainError(PadicError):
    """Argument violates a documented domain precondition."""


# ---- Tate curve ---------------------------------------------------------

class NonpositiveValuation(PadicError):
    pass


class OnKernel(PadicError):
    """The multiplicative argument is indistinguishable from a kernel point."""


class OffCurveInput(PadicError):
    pass


class PrecisionCollapse(PrecisionError):
    """A denominator is indistinguishable from zero but the numerator is not."""


# ---- ball combinatorics -------------------------------------------------

class MemberOfC(PadicError):
    pass


class ImpreciseDistance(PrecisionError):
    pass


# ---- power series division ----------------------------------------------

class NotRegular(PadicError):
    pass


class DegreeCapExceeded(PadicError):
    """An intermediate product overflows the total-degree cap; raise the cap."""


class AmbiguousAtPrecision(PrecisionError):
    pass


class CoefficientOutsideValuationRing(PadicError):
    pass


# ---- lattice calculus ---------------------------------------------------

class DimensionMismatch(PadicError):
    pass


class FullRank(PadicError):
    pass


class InconsistentDimensions(PadicError):
    pass


class SearchSpaceTooLarge(PadicError):
    pass
