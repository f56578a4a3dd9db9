"""Exception types shared across the package."""


class HomtopoError(Exception):
    """Base class for all errors raised on purpose."""


class DomainError(HomtopoError):
    """Input violates a documented precondition."""


class BudgetError(HomtopoError):
    """A size or work budget was exceeded.

    `found` is the exact total (cells, maps, ...) where it was counted
    before any work, as build_hom does for a loopless complete target and
    kmn_matching for Hom(K_m,K_n); otherwise it is the count at which
    enumeration stopped, when that is meaningful.
    """

    def __init__(self, message: str, found: int | None = None):
        super().__init__(message)
        self.found = found


class ResourceError(HomtopoError):
    """Instance exceeds a hard implementation cap (matrix bits, iso size)."""


class ConsistencyError(HomtopoError):
    """An internal structural invariant failed (e.g. boundary square != 0)."""
