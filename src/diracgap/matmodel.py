"""The diagonal matrix models of the chiral Dirac operator, kept as a name only.

The models are block off-diagonal, D = [[0, B], [B, 0]] with B = diag(q_nj)
(background) or diag(q_nj + m_m), q_nj = E_n(kappa_j) - E*, so their spectra
are the pairs +-b over the diagonal entries b.  The run builds the spectral
shift xi from the gap values gapspec keeps, so its jumps match them by
construction and no run-time check compares the two.  This module stays
because perfbench/worker.py imports it; ROADMAP item 5b deletes it.
"""
