"""Seeded inputs for the benchmark workloads.

Everything here uses numpy alone, so an edit to ``kreinshift.generators``
cannot change a workload.  Every pair is built from a known spectral
decomposition of V, which also gives the positive part V+ that the answer
checks need without asking the program for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pair:
    """A Hermitian base matrix, an indefinite perturbation of known rank and
    the positive spectral part of that perturbation."""

    name: str
    h0: np.ndarray
    v: np.ndarray
    v_plus: np.ndarray


def _gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = _gaussian(rng, n, n)
    return 0.5 * (a + a.conj().T)


def isometry(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(_gaussian(rng, n, r))
    return q


def pair(rng: np.random.Generator, n: int, r: int, name: str) -> Pair:
    """H0 Hermitian with unit-variance entries; V = Q diag(d) Q* of rank r
    with alternating signs and |d| in [0.4, 1.6], so the rank cutoff of the
    program's factorization never sits near an eigenvalue of V."""
    h0 = hermitian(rng, n)
    q = isometry(rng, n, r)
    signs = np.where(np.arange(r) % 2 == 0, 1.0, -1.0)
    d = signs * rng.uniform(0.4, 1.6, size=r)
    v = (q * d) @ q.conj().T
    v = 0.5 * (v + v.conj().T)
    dp = np.maximum(d, 0.0)
    v_plus = (q * dp) @ q.conj().T
    v_plus = 0.5 * (v_plus + v_plus.conj().T)
    return Pair(name, h0, v, v_plus)


def dissipative(rng: np.random.Generator, n: int, im_rank: int) -> np.ndarray:
    """T = A + iB with A Hermitian and B = CC*/n positive semidefinite of rank
    ``im_rank`` (singular imaginary part when im_rank < n).  Redrawn until
    the condition number is at most 1e6, the range in which the program's
    logarithm is specified."""
    while True:
        a = hermitian(rng, n)
        if im_rank:
            c = _gaussian(rng, n, im_rank)
            b = c @ c.conj().T / n
            b = 0.5 * (b + b.conj().T)
        else:
            b = np.zeros((n, n), dtype=np.complex128)
        t = a + 1j * b
        if np.linalg.cond(t) <= 1e6:
            return t
