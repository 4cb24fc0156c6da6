"""Exception types shared across the package."""


class GydetError(Exception):
    """Base class for all package-specific errors."""


class SingularCrossing(GydetError):
    """A recursion pivot fell below the singularity threshold.

    The determinant is passing through (or sitting at) zero somewhere
    along the sweep; sign bookkeeping is ill-defined past this point, so
    the computation is aborted rather than silently continued.
    """

    def __init__(self, slice_index: int, pivot: float, message: str = ""):
        self.slice_index = slice_index
        self.pivot = pivot
        msg = message or (
            f"singular crossing at slice {slice_index}: "
            f"pivot magnitude {pivot:.3e} below threshold"
        )
        super().__init__(msg)


class NonFiniteRecursion(GydetError):
    """An iterate left the finite floating-point range."""

    def __init__(self, slice_index: int, message: str = ""):
        self.slice_index = slice_index
        super().__init__(message or f"non-finite values at slice {slice_index}")


class SingularMatrix(GydetError):
    """Dense factorization hit an exactly zero pivot."""


class SizeCapExceeded(GydetError):
    """Dense construction refused: problem too large for dense storage."""


class SignChange(GydetError):
    """Continuum solution crossed zero; the log of the ratio is undefined
    in real arithmetic (a negative eigenvalue was crossed)."""


class QuadratureError(GydetError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature did not converge: achieved {achieved:.3e}, "
            f"requested {requested:.3e}"
        )


class NonConvergentRatio(GydetError):
    """A continuum ratio did not meet its tolerance before the step cap."""

    def __init__(self, achieved: float, requested: float, step_count: int):
        self.achieved = achieved
        self.requested = requested
        self.step_count = step_count
        super().__init__(
            f"continuum ratio did not converge by {step_count} steps: "
            f"achieved {achieved:.3e}, requested {requested:.3e}"
        )


class PotentialFileError(GydetError):
    """A potential file is malformed, has missing sites, or duplicates."""
