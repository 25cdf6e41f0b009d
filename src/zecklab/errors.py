"""Exception types shared across the package."""


class ZecklabError(Exception):
    """Base class for all package-specific errors.

    Carries a ``diagnostics`` dict with everything computed so far so the
    failure can be inspected rather than re-derived.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class RecurrenceError(ZecklabError, ValueError):
    """Invalid recurrence coefficient text."""


class EmptyInputError(RecurrenceError):
    pass


class NonIntegerTokenError(RecurrenceError):
    pass


class TrailingZeroError(RecurrenceError):
    pass


class AllZeroError(RecurrenceError):
    pass


class DegenerateError(RecurrenceError):
    """gcd of the nonzero-coefficient indices exceeds 1; the sequence would
    split into non-interacting subsequences."""


class DecompositionTextError(ZecklabError, ValueError):
    """Invalid "index:mult,..." decomposition text."""


class AlignmentTooSmallError(ZecklabError, ValueError):
    """Dense vector has a nonzero entry below position 1 for the alignment."""


class NonProgressError(ZecklabError, RuntimeError):
    """A walk that cannot make progress: the constant family's terms never
    grow past 1, or a greedy block took every cap and left a remainder."""


class BudgetExceededError(ZecklabError, RuntimeError):
    """Enumeration target or search size beyond the configured budget."""


class OracleBoundExceededError(ZecklabError, RuntimeError):
    """Brute-force oracle asked for a value above its small-input bound."""


class NotApplicableError(ZecklabError, ValueError):
    """Operation requires coefficient inequalities the family does not meet."""


class NotPLRSError(ZecklabError, ValueError):
    """Operation is defined only for positive (depth-0) recurrences."""


class ConstructionFailedError(ZecklabError, RuntimeError):
    """Counterexample construction could not be verified end to end."""
