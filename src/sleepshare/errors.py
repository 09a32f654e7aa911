"""Exception types shared across the package.

Every numerical failure mode maps onto one of these so the CLI can turn
them into stable exit codes. Each rebuilds from its constructor
arguments when unpickled, so it crosses from a `--jobs N` worker process
to the CLI with its message and attributes intact.
"""

from typing import Optional


class ShapeError(ValueError):
    """Operands have incompatible shapes; message carries both."""


class SingularMatrixError(ArithmeticError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, pivot: int, detail: str = ""):
        self.pivot = pivot
        self.detail = detail
        msg = f"matrix is not positive definite (failing pivot index {pivot})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)

    def __reduce__(self):
        return type(self), (self.pivot, self.detail)


class DivergenceError(ArithmeticError):
    """Non-finite values appeared during iteration.

    `context` is free-form (elapsed simulated time, epoch/batch, ...) so
    the caller can report where the run blew up. `cell` is the index of
    the failing cell when a stacked run of several cells diverged.
    """

    def __init__(self, message: str, context: str = "", cell: Optional[int] = None):
        self.message = message
        self.context = context
        self.cell = cell
        super().__init__(f"{message} [{context}]" if context else message)

    def __reduce__(self):
        return type(self), (self.message, self.context, self.cell)


class ToleranceError(Exception):
    """A checked quantity exceeded its allowed tolerance."""

    def __init__(self, message: str, worst: float):
        self.worst = worst
        super().__init__(message)

    def __reduce__(self):
        return type(self), (*self.args, self.worst)
