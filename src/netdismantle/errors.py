"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed edge-list input."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class InvalidCostError(ValueError):
    """Cost vector is negative, mis-sized, or inconsistent with its mode."""


class ComponentTooSmallError(ValueError):
    """Spectral bisection needs a component with at least two nodes."""


class DegenerateSpectrumError(RuntimeError):
    """Power iteration collapsed twice; the shifted operator has no usable
    second eigenvector (for example a component whose zero-mean subspace is
    annihilated exactly)."""


class InternalInvariantError(RuntimeError):
    """A state the algorithm promises can never occur occurred anyway.
    Reserved for bugs, not for bad input."""


class EnsembleMemberError(RuntimeError):
    """A single ensemble member failed; carries the member index, the seed
    and the budget multiplier it ran with, so the failure can be rerun
    alone."""

    def __init__(self, member_index: int, seed: int, multiplier: int, cause: BaseException):
        super().__init__(
            f"ensemble member {member_index} (seed {seed}) at multiplier {multiplier} failed: {cause!r}"
        )
        self.member_index = member_index
        self.seed = seed
        self.multiplier = multiplier
        self.cause = cause
