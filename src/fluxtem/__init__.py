"""fluxtem: entanglement-assisted TEM simulation with an rf-SQUID flux qubit.

The command line, `fluxtem <command>` or `python -m fluxtem <command>`, is
the package's only interface, so this file re-exports nothing.

The eleven modules, in layer order: each imports only modules listed
above it, and tests/test_layers.py holds that order.
  errors     - the two error types, one per exit code
  streams    - seeded random streams derived from (seed, path)
  fileio     - deterministic CSV, PGM and manifest output
  hexcsv     - the detector's table, each float an exact hex cell of one width
  config     - key = value run configuration with units and limits; SCHEMA
               is each run parameter's only description
  detector   - per-pixel branch amplitudes, compensation angles, regions,
               the one angle wrap to (-pi, pi] and the one |amplitude|^2
  device     - pinned CODATA constants, beam deflection and SQUID sizing
               calculators; the design report reads the run config by
               SCHEMA key
  optics     - Fourier-optics beam path from stencil mask to detector,
               read from the run config by SCHEMA key
  protocol   - two-amplitude measurement cycle and phase accumulation
  estimator  - Monte Carlo phase estimation, dose scaling, imaging
  cli        - deterministic experiment runner (also `python -m fluxtem`)
"""

__version__ = "0.1.0"
