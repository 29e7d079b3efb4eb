"""Exception types that callers may want to catch individually."""


class CapExceededError(ValueError):
    """A configured resource cap (dimension, enumeration, search space) was hit."""


class DimensionCapError(CapExceededError):
    """Matrix dimension beyond the configured cap."""


class EnumerationCapError(CapExceededError):
    """Exact enumeration would exceed the configured term budget."""


class VanishingProjectionError(ArithmeticError):
    """A projection left (numerically) zero trace, so it cannot be renormalized;
    an empty band (lo, hi) is named with the observable's ``nearest`` eigenvalue."""

    def __init__(self, step: int, trace: float, band: tuple | None = None, nearest=None):
        self.step, self.trace, self.band, self.nearest = step, trace, band, nearest
        reason = "degenerate instance, cannot renormalize" if band is None else (
            f"band [{band[0]:.6g}, {band[1]:.6g}] holds no eigenvalue of F, "
            f"the nearest being {nearest:.6g}")
        super().__init__(f"projection at step {step} has trace {trace:.3e}; {reason}")


class PromiseViolationError(ValueError):
    """An input pair fell outside a promise problem's domain."""


class ReplayMismatchError(ValueError):
    """A learning record is inconsistent with the measurement family it is replayed against."""
