"""Exception types shared across the package."""
from __future__ import annotations


class RevplastError(Exception):
    """Base class for all package-specific errors."""


class SymmetryError(RevplastError, ValueError):
    """Input tensor violates a required symmetry."""


class SingularOperatorError(RevplastError, ValueError):
    """Fourth-order operator is singular or too ill-conditioned to invert;
    ``index`` is the flat position of the rejected operator in a batch."""

    def __init__(self, message: str, condition: float = float("inf"), index: int = 0):
        super().__init__(f"{message} (condition estimate {condition:.3e})")
        self.condition = condition
        self.index = index


class IncompressibilityError(RevplastError, ValueError):
    """Poisson ratio at the incompressible limit; stiffness would be singular."""


class MorphologyError(RevplastError, ValueError):
    """Phase morphology incompatible with the requested operation."""


class ApexSingularityError(RevplastError, ValueError):
    """Stress state at the pressure-axis apex where the flow direction is undefined."""


class StepFailureError(RevplastError, RuntimeError):
    """Return mapping failed to converge; retry with a subdivided increment.

    The error that leaves ``drive`` once the subdivision cap is used up
    carries the 1-based ``segment`` and ``increment`` of the load program and
    the subdivision ``depth`` it failed at; an attempt's error carries None.
    """

    def __init__(self, message: str, segment: int | None = None,
                 increment: int | None = None, depth: int | None = None):
        super().__init__(message)
        self.segment = segment
        self.increment = increment
        self.depth = depth


class ActiveSetOscillationError(RevplastError, RuntimeError):
    """Active-set iteration failed to settle on a stable plastic phase set."""


class ScenarioError(RevplastError, ValueError):
    """Scenario document rejected; carries the offending line number (0 = global)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line
