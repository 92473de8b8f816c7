"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError -> 1, every other
PolynovError (InputError and its subclasses, IncreaseOrder,
CyclicMatchingError) -> 2, with the error as a JSON object on stderr.
Any other exception is a bug and escapes.
"""


class PolynovError(Exception):
    pass


class InputError(PolynovError, ValueError):
    """Malformed or out-of-contract input (bad JSON, wrong rank, non-convex
    weights, empty subpolytope, and so on)."""


class ValidationError(PolynovError):
    """A chain complex failed the square-zero check.

    Carries the first offending position so callers can report it.
    """

    def __init__(self, message, degree=None, row=None, col=None):
        super().__init__(message)
        self.degree = degree
        self.row = row
        self.col = col

    def location(self):
        return {"degree": self.degree, "row": self.row, "col": self.col}


class CoverMismatch(InputError):
    """A relator does not die in the chosen free-abelian quotient, so the
    requested cover does not exist for the presentation."""


class IncreaseOrder(PolynovError):
    """The truncated homology oracle could not certify its ranks at the
    orders tried; retry with a larger truncation order."""


class CyclicMatchingError(PolynovError):
    """A V-path enumeration revisited a cell: the matching is not acyclic."""
