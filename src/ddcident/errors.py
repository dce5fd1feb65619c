"""Exception types shared across the package.  A restriction that holds at
every discount factor raises nothing: its set is flagged ``uninformative``."""


class ConvergenceError(RuntimeError):
    """Raised when a fixed-point solver fails to reach its tolerance.

    Carries the last residual (and, when available, a short tail of the
    residual history) so callers can diagnose slow contractions or cycling.
    """

    def __init__(self, message, residual=None, history=None):
        super().__init__(message)
        self.residual = residual
        self.history = history


class RankDeficiencyError(ValueError):
    """Raised when a matrix that must have full (row or column) rank does not.

    ``rank`` holds the numerically determined rank, ``required`` the rank the
    operation needs.
    """

    def __init__(self, message, rank=None, required=None):
        super().__init__(message)
        self.rank = rank
        self.required = required
