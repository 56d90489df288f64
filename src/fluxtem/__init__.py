"""fluxtem: entanglement-assisted TEM simulation with an rf-SQUID flux qubit.

Modules:
  protocol   - two-amplitude measurement cycle and phase accumulation
  optics     - Fourier-optics beam path from stencil mask to detector
  detector   - per-pixel branch amplitudes, compensation angles, regions
  estimator  - Monte Carlo phase estimation, dose scaling, imaging
  device     - beam deflection and SQUID sizing calculators
  config     - key = value run configuration with units and limits
  fileio     - deterministic CSV, PGM and manifest output
  streams    - seeded random streams derived from (seed, path)
  constants  - pinned CODATA constants
  errors     - exception types
  cli        - deterministic experiment runner (also `python -m fluxtem`)
"""

from .constants import CODATA, PhysicalConstants
from .detector import DetectorModel
from .estimator import (
    EstimationResult,
    SpecimenMap,
    dose_scaling_experiment,
    estimate_phase,
    image_scan,
    make_checkerboard,
    required_electrons_conventional,
    required_electrons_entangled,
)
from .optics import MaskSpec, OpticsConfig, RingSpec, WaveField, build_detector, propagate
from .protocol import (
    GroupPlan,
    QubitState,
    compensate,
    measure_qubit,
    prepare_symmetric,
    run_group,
)
from .streams import derive

__version__ = "0.1.0"

__all__ = [
    "CODATA",
    "PhysicalConstants",
    "DetectorModel",
    "EstimationResult",
    "SpecimenMap",
    "dose_scaling_experiment",
    "estimate_phase",
    "image_scan",
    "make_checkerboard",
    "required_electrons_conventional",
    "required_electrons_entangled",
    "MaskSpec",
    "OpticsConfig",
    "RingSpec",
    "WaveField",
    "build_detector",
    "propagate",
    "GroupPlan",
    "QubitState",
    "compensate",
    "measure_qubit",
    "prepare_symmetric",
    "run_group",
    "derive",
    "__version__",
]
