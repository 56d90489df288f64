"""fluxtem: entanglement-assisted TEM simulation with an rf-SQUID flux qubit.

The command line, `fluxtem <command>` or `python -m fluxtem <command>`, is
the package's only interface, so this file re-exports nothing.

Modules:
  protocol   - two-amplitude measurement cycle and phase accumulation
  optics     - Fourier-optics beam path from stencil mask to detector,
               read from the run config by SCHEMA key
  detector   - per-pixel branch amplitudes, compensation angles, regions
  estimator  - Monte Carlo phase estimation, dose scaling, imaging
  device     - beam deflection and SQUID sizing calculators; the design
               report reads the run config by SCHEMA key
  config     - key = value run configuration with units and limits; SCHEMA
               is each run parameter's only description
  fileio     - deterministic CSV, PGM and manifest output
  streams    - seeded random streams derived from (seed, path)
  constants  - pinned CODATA constants
  errors     - the two error types, one per exit code
  cli        - deterministic experiment runner (also `python -m fluxtem`)
"""

__version__ = "0.1.0"
