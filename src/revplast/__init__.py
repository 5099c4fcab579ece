"""Mean-field homogenization of elasto-plastic matrix-inclusion volumes.

Plastic strains are treated as eigen-strains of an equivalent pre-stressed
elastic medium: Mori-Tanaka concentration and influence tensors localize the
macroscopic strain and all phase eigen-strains, a coupled return mapping
enforces the phase yield surfaces, and upscaling maps return the macroscopic
stress and plastic strain.
"""
from .errors import (ApexSingularityError, IncompressibilityError, MorphologyError,
                     RevplastError, ScenarioError, SingularOperatorError,
                     StepFailureError, SymmetryError)
from .eshelby import eshelby_tensor, hill_tensor
from .mean_field import (MeanFieldOperators, PhaseSpec, Spheroid,
                         assemble_operators, localize, macro_plastic_strain,
                         upscale_stress)
from .plasticity import DruckerPrager, stress_invariants
from .scenario import (InclusionFamily, Scenario, default_scenario,
                       parse_scenario, serialize_scenario)
from .solver import (IncrementStats, LoadProgram, LoadSegment, REVState, SolverSettings,
                     drive, strain_program)

__version__ = "0.1.0"

__all__ = [
    "ApexSingularityError", "DruckerPrager", "IncompressibilityError",
    "IncrementStats", "InclusionFamily", "LoadProgram", "LoadSegment", "MeanFieldOperators",
    "MorphologyError", "PhaseSpec", "REVState", "RevplastError", "Scenario",
    "ScenarioError", "SingularOperatorError", "SolverSettings", "Spheroid",
    "StepFailureError", "SymmetryError", "assemble_operators", "default_scenario",
    "drive", "eshelby_tensor", "hill_tensor", "localize", "macro_plastic_strain",
    "parse_scenario", "serialize_scenario", "strain_program", "stress_invariants",
    "upscale_stress",
]
