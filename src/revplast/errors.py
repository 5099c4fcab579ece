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
    """Stress state at the pressure-axis apex where the flow direction is undefined;
    ``index`` is the position of the first apex stress in a batch."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class StepFailureError(RevplastError, RuntimeError):
    """An increment failed, whatever the cause.

    The error that leaves ``drive`` carries the 1-based ``segment`` and
    ``increment`` of the load program, with the increment's own error as its
    cause; that error carries None for both.
    """

    def __init__(self, message: str, segment: int | None = None,
                 increment: int | None = None):
        super().__init__(message)
        self.segment = segment
        self.increment = increment


class ScenarioError(RevplastError, ValueError):
    """Scenario document rejected; carries the offending line number (0 = global)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line
