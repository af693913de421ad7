"""Primes, synthetic Hecke ensembles, and prime-indexed mass data.

The arithmetic input to the truncated Dirac model is a finite prime set S,
one sampled eigenvalue tuple {lambda_p(m)} in [-1, 1] per synthetic mode m,
an even coefficient family eta_p, and the derived mass shifts

    m_m = sum_{p in S} eta_p(lambda_p(m)).

A HeckeEnsemble holds only the primes and the (N_P, N_H) sample array; the
seed and mode it was drawn with are the run configuration's.

Sampling is fully deterministic and index-keyed: the sample for (seed, p, m)
is a fixed integer mix of those three values, so regeneration is bitwise
stable and independent of iteration order or threading.  All integer mixing
uses splitmix64 (the standard finalizer constants) on the key

    seed XOR (p * 0x9E3779B97F4A7C15) XOR (m * 0xBF58476D1CE4E5B9)

with mode indices m = 1..N_H, and the 53 high bits of the output mapped
affinely onto [-1, 1).  The mix runs in blocks of primes under BLOCK_ELEMENTS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

MODES = ("iid_uniform", "constant_one")
# Elements per block of every temporary that would grow with the (N_P, N_H) samples or
# outgrow its output: the sampler's mix, and in tracekit the Euler factors' centred rows
# and powers, the Taylor route's phases and moments and theta_fiber's Gaussians.
BLOCK_ELEMENTS = 2**15


def splitmix64(x: int) -> int:
    """One splitmix64 step: golden-ratio increment plus the standard finalizer.

    x may also be a np.uint64 array, whose arithmetic wraps mod 2^64 too.
    """
    x = (x + _GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def sample_unit(seed: int, p: int, m: int) -> float:
    """Deterministic sample in [-1, 1) keyed by (seed, p, m); p, m may be np.uint64 arrays."""
    key = (seed ^ ((p * _GAMMA) & _MASK64) ^ ((m * _MIX1) & _MASK64)) & _MASK64
    z = splitmix64(key)
    return 2.0 * (z >> 11) / 2.0**53 - 1.0


def generate_primes(count: int) -> tuple[int, ...]:
    """First `count` primes, ascending, by sieve of Eratosthenes."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    # p_n < n (ln n + ln ln n) for n >= 6 (Rosser and Schoenfeld 1962, (3.13)), and p_5 = 11.
    bound = 15 if count < 6 else int(count * (np.log(count) + np.log(np.log(count)))) + 3
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(bound**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return tuple(np.flatnonzero(sieve)[:count].tolist())


@dataclass(frozen=True)
class HeckeEnsemble:
    """Joint synthetic eigenvalue samples lambda_p(m), p in S, m = 1..N_H.

    samples[i, m-1] is the value for the i-th prime and mode m, so N_H is
    samples.shape[1].  The array is a pure function of (seed, primes, N_H,
    mode) and regenerates bitwise identically.
    """

    primes: tuple[int, ...]
    samples: np.ndarray = field(repr=False, compare=False)


def sample_hecke_ensemble(
    primes: tuple[int, ...], n_modes: int, seed: int, mode: str = "iid_uniform"
) -> HeckeEnsemble:
    """Generate the deterministic ensemble for (seed, primes, n_modes, mode)."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if mode == "constant_one":
        samples = np.ones((len(primes), n_modes))
    else:
        # Each sample is keyed by its own (seed, p, m), so the blocks move no bit.
        samples = np.empty((len(primes), n_modes))
        p = np.array(primes, dtype=np.uint64)[:, None]
        m = np.arange(1, n_modes + 1, dtype=np.uint64)
        step = max(1, BLOCK_ELEMENTS // n_modes)
        for lo in range(0, len(primes), step):
            samples[lo : lo + step] = sample_unit(seed, p[lo : lo + step], m)
    samples.setflags(write=False)
    return HeckeEnsemble(primes=primes, samples=samples)


@dataclass(frozen=True)
class MassShifts:
    """Per-mode mass shifts m_m, on the same energy scale as the bands.

    terms[i, m-1] = eta_p(lambda_p(m)) for the i-th prime p; values[m-1] = m_m
    is the sum of column m-1 over the primes.
    """

    values: np.ndarray = field(repr=False, compare=False)
    terms: np.ndarray = field(repr=False, compare=False)  # shape (N_P, N_H)

    def __len__(self) -> int:
        return len(self.values)


def mass_shifts(ensemble: HeckeEnsemble, epsilon: float) -> MassShifts:
    """m_m = sum_{p in S} eta_p(lambda_p(m)), accumulated in ascending-prime order.

    eta_p(lambda) = p^-(1+epsilon) lambda^2 is the even quadratic family, with
    sup norm p^-(1+epsilon) on [-1, 1]; a finite epsilon > 0 is required for
    summability of sum_p ||eta_p||_inf (an infinite one would zero every coefficient).
    Each eta_p row is evaluated once, and the summation order is fixed for float
    reproducibility.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive (got {epsilon}): the prime "
                         "sum sum_p p^-(1+epsilon) diverges for epsilon <= 0 and vanishes at "
                         "infinity")
    # Python's scalar pow per prime: NumPy's SIMD pow need not round like libm's.
    coef = np.array([p ** -(1.0 + epsilon) for p in ensemble.primes])
    terms = coef[:, None] * ensemble.samples * ensemble.samples
    # NumPy sums pairwise only along the fast axis in memory; along any other it adds the
    # rows one after another.  Axis 0 is the fast axis only with one mode.
    total = terms.sum(axis=0) if terms.shape[1] > 1 else np.cumsum(terms, axis=0)[-1]
    terms.setflags(write=False)
    total.setflags(write=False)
    return MassShifts(values=total, terms=terms)
