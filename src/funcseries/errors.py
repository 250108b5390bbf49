"""Exception types shared across the package."""


class FuncSeriesError(Exception):
    """Base class for every error this package raises deliberately."""


def nested_too_deeply(verb: str) -> FuncSeriesError:
    """What a recursive walk raises in place of a RecursionError on a too-deep tree."""
    return FuncSeriesError(f"expression nested too deeply to {verb}")


class ParseError(FuncSeriesError):
    """Input text does not conform to the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which here are not the
        # constructor's; an error crosses from one process to another by pickle
        return type(self), (self.message, self.position)


class UnknownFunction(ParseError):
    """A call names a function outside the supported set."""


class MultipleVariables(ParseError):
    """More than one distinct variable letter appears in one expression."""


class SingularEvaluation(FuncSeriesError):
    """Evaluation hit a pole, branch point, or produced a non-finite value."""


class ConstantComposite(FuncSeriesError):
    """The inner function's derivative is identically zero."""


class CompositeDerivativeZero(FuncSeriesError):
    """The inner function's derivative vanishes at the expansion point."""


class SingularAtExpansionPoint(FuncSeriesError):
    """Some quantity needed for the expansion is not evaluable at the point."""


class InverseMismatch(FuncSeriesError):
    """The supplied inverse does not undo the inner function at the point."""


class DivisionBySingularSeries(FuncSeriesError):
    """Truncated-series division by a series with (near-)zero constant term."""


class LeadingCoefficientZero(FuncSeriesError):
    """The shifted inner series has no linear term, so matching cannot start."""


class NonMonotoneComposite(FuncSeriesError):
    """The inner function is not monotone on the requested real segment."""


class QuadratureSingularity(FuncSeriesError):
    """A contour integrand is singular or non-finite at a quadrature node."""


class AnnulusViolation(FuncSeriesError):
    """The evaluation point lies outside the expansion's validity annulus,
    or the contours leave that annulus empty while some B_n is not
    negligible."""
