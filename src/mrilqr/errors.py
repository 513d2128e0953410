"""Exception types shared across the package."""

from __future__ import annotations


class NumericalError(RuntimeError):
    """A linear-algebra step failed (singular solve, nonfinite result)."""


class UncontrollablePlantError(ValueError):
    """Raised by operations whose hypotheses require a controllable (A, B)."""


class DareDivergenceError(NumericalError):
    """The Riccati doubling diverged: its 2^k-step cost passed 1e12 max(1, ||Qhat||_F),
    as for a pair not stabilizable, a pathological period or a stabilizing
    P beyond that bound.

    Carries the last iterate, the value-iteration cost of a horizon of
    2^iterations periods (from 0 where Qhat is positive definite, from
    1e-12 I where it has a kernel), so sweep-style callers can still
    report a best-effort cost alongside a warning; iterations counts
    doublings.
    """

    def __init__(self, message: str, last_iterate=None, iterations: int = 0):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.iterations = iterations


class SimulationDivergence(NumericalError):
    """State escaped to a non-finite value during trajectory generation."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step
