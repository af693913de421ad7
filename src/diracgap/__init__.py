"""Numerical toolkit for finite-prime truncated chiral Dirac models.

Submodules follow the pipeline order: `floquet` (band structure of the even
periodic background), `arithmetic` (primes, deterministic synthetic Hecke
ensembles, mass shifts), `gapspec` (gap-eigenvalue enumeration), `shift`
(spectral-shift staircases and scans), `tracekit` (trace-formula
cross-checks), `zeta` (zero-ordinate alignment diagnostics), and `expcli`
(configuration, orchestration, artifacts, CLI).  `matmodel` holds only the
docstring of the block matrix models.
"""

from .expcli import VERSION as __version__  # noqa: F401
