"""Seeded random matrix generators for the verification suites."""

from __future__ import annotations

import numpy as np

from .matkit import hermitian_part

__all__ = [
    "random_unitary",
    "random_hermitian",
    "random_psd",
    "random_indefinite",
    "random_dissipative",
    "random_pair",
]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    # fix the phase ambiguity of QR so output depends only on the draws
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(a)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    rank = n if rank is None else rank
    c = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return hermitian_part(c @ c.conj().T / max(rank, 1))


def random_indefinite(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Hermitian matrix of the given rank with eigenvalues of both signs
    (rank >= 2) and magnitudes bounded away from the rank cutoff."""
    if rank < 1 or rank > n:
        raise ValueError(f"rank must lie in 1..{n}")
    signs = np.array([1.0 if i % 2 == 0 else -1.0 for i in range(rank)])
    mags = rng.uniform(0.4, 1.6, size=rank)
    q = random_unitary(rng, n)[:, :rank]
    return hermitian_part((q * (signs * mags)) @ q.conj().T)


def random_dissipative(
    rng: np.random.Generator, n: int, min_strict: float = 0.05, allow_flat: bool = True
) -> np.ndarray:
    """Invertible matrix with positive semidefinite imaginary part.

    Generic draws are non-normal.  Roughly every third draw gets a singular
    imaginary part (when ``allow_flat``), exercising the boundary of the
    dissipative cone.  Resamples until the condition number is at most 1e6.
    """
    for _ in range(100):
        re = random_hermitian(rng, n)
        if allow_flat and rng.integers(3) == 0 and n > 1:
            c = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
            im = hermitian_part(c @ c.conj().T / n)
        else:
            im = random_psd(rng, n) + min_strict * np.eye(n)
        t = re + 1j * im
        if np.linalg.cond(t) <= 1e6:
            return t
    raise RuntimeError("failed to draw a well-conditioned dissipative matrix")


def random_pair(
    rng: np.random.Generator, dim_lo: int = 4, dim_hi: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """A random Hermitian base matrix and an indefinite perturbation of
    random rank between 2 and the dimension."""
    n = int(rng.integers(dim_lo, dim_hi + 1))
    rank = int(rng.integers(2, n + 1))
    return random_hermitian(rng, n), random_indefinite(rng, n, rank)
