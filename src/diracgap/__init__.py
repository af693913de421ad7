"""Numerical toolkit for finite-prime truncated chiral Dirac models.

Submodules follow the pipeline order: `floquet` (band structure of the even
periodic background), `arithmetic` (primes, deterministic synthetic Hecke
ensembles, mass shifts), `gapspec` (gap-eigenvalue enumeration), `shift`
(spectral-shift staircases and scans), `tracekit` (trace-formula
cross-checks), `matmodel` (the spectral shift's jumps in the chiral gap
against the gap filter), `zeta` (zero-ordinate alignment diagnostics), and
`expcli` (configuration, orchestration, artifacts, CLI).
"""

from .expcli import VERSION as __version__  # noqa: F401
