"""Exception types shared across the package.

They are collected here because most of them cross module boundaries: the
solver catches the quotient module's ``NotReadable`` and the change-of-ordering
module's ``ChangeOrderingFailed`` as ordinary control flow, the CLI maps each
family to an exit code, and so on.
"""


class PolysolveError(Exception):
    """Base class for every error raised by this package."""


# --- field -----------------------------------------------------------------

class NonPrimeModulus(PolysolveError):
    """The requested modulus is not an odd prime in the supported range."""


class ZeroInverse(PolysolveError):
    """Multiplicative inverse of zero requested."""


# --- linear algebra --------------------------------------------------------

class DimensionMismatch(PolysolveError):
    """Matrix/vector shapes are incompatible for the requested operation."""


class SingularMatrix(PolysolveError):
    """A nonsingular matrix was required (inverse, change of variables)."""


# --- quotient structure ----------------------------------------------------

class NotZeroDimensional(PolysolveError):
    """The ideal is not zero-dimensional: it contains 1, or some variable
    has no pure power among the leading terms, so the quotient is
    infinite-dimensional.  The message names which: ``cause``, or else the
    variable ``var`` (its index), under ``name`` if given."""

    def __init__(self, cause=None, var=None, name=None):
        self.var = var
        super().__init__(cause or f"{name or f'x{var + 1}'} has no pure-power leading term")


class ClassificationFailure(PolysolveError):
    """Internal invariant violation: a frontier monomial fit neither the
    generator case nor the one-step-product case."""


class NotReadable(PolysolveError):
    """The multiplication matrix cannot be read off for free from the basis.

    Expected control flow in the Las Vegas pipeline: the offending monomial
    is carried so diagnostics can report it, under ``name`` if given.
    """

    def __init__(self, offending, name=None):
        self.offending = offending
        super().__init__(f"column monomial {name or offending} is neither standard "
                         "nor a leading term")


# --- change of ordering ----------------------------------------------------

class ChangeOrderingFailed(PolysolveError):
    """The sequence's minimal polynomial came out with degree < D for this
    projection vector; retry with a fresh vector (expected control flow)."""

    def __init__(self, degree, expected):
        self.degree = degree
        self.expected = expected
        super().__init__(f"minimal polynomial degree {degree} < quotient dimension {expected}")


class NotShapePosition(PolysolveError):
    """The ideal's LEX basis is not of shape {x_1 - h_1(x_n), ..., h_n(x_n)}."""


# --- solver ----------------------------------------------------------------

class ExhaustedRestarts(PolysolveError):
    """All random-transform restarts failed; diagnostics attached."""

    def __init__(self, attempts, read_failures, chord_failures):
        self.attempts = attempts
        self.read_failures = read_failures
        self.chord_failures = chord_failures
        super().__init__(f"gave up after {attempts} transforms ({read_failures} unreadable, "
                         f"{chord_failures} change-of-ordering failures)")


class BudgetExceeded(PolysolveError):
    """Brute-force enumeration would exceed the configured point budget."""


# --- parsing ---------------------------------------------------------------

class ParseError(PolysolveError):
    """Syntax error in a system file; 1-based line/column of the offender."""

    def __init__(self, message, line, col):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class UnknownVariable(ParseError):
    """An identifier that is not in the declared variable list."""
