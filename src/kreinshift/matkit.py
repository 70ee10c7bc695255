"""Dense complex linear algebra kit.

Matrices are plain numpy arrays of complex128; every public function accepts
anything array-like and validates shape and finiteness at the boundary.
Everything here is a pure function of its inputs and safe to call from
several threads at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "HermitianEig",
    "SignedFactorization",
    "as_matrix",
    "trace",
    "frobenius",
    "trace_norm",
    "is_hermitian",
    "hermitian_part",
    "imaginary_part",
    "eig_hermitian",
    "apply_spectral_function",
    "solve_shifted",
    "expm",
    "sign_factorization",
    "check_tolerance",
]

HERMITIAN_RTOL = 1e-12
SOLVE_COND_LIMIT = 1e14


def _require_finite(name: str, points) -> None:
    """Refuse a point, or an array of points, that is not finite."""
    points = np.asarray(points)
    bad = ~np.isfinite(points)
    if bad.any():
        raise PreconditionError(f"{name}={points[bad].ravel()[0].item()!r} is not finite")


def check_tolerance(name: str, value: float) -> float:
    """Refuse a tolerance that is not a finite positive number: an infinite
    or NaN one would switch off the criterion it sets."""
    if not (math.isfinite(value) and value > 0):
        raise PreconditionError(f"{name} must be finite and positive")
    return value


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex128 matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise PreconditionError("matrix entries must be finite")
    return m


def trace(a) -> complex:
    return complex(np.trace(np.asarray(a)))


def frobenius(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def trace_norm(a) -> float:
    """Sum of singular values, computed from the eigenvalues of A*A."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(m.conj().T @ m)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def _sorted_unique(x) -> np.ndarray:
    """``np.unique`` of a 1-D float array: sorted, each value kept once.

    It sorts and keeps each value that differs from its predecessor, the
    mask ``np.unique`` itself builds, so for finite input the two agree bit
    for bit (a run of +0.0 and -0.0 keeps whichever sorts first).
    ``np.unique`` first asks ``np.ma.is_masked``, which imports numpy.ma in
    every process that calls it.
    """
    s = np.sort(np.asarray(x).ravel())
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def hermitian_part(a) -> np.ndarray:
    """(A + A*)/2, or one per matrix of a stack.

    Formed as A/2 + A*/2: halving is exact, so this is (A + A*)/2 to the
    bit outside the subnormal range, and it does not overflow where the
    entries of A are finite.
    """
    half = 0.5 * np.asarray(a, dtype=np.complex128)
    return half + half.conj().swapaxes(-1, -2)


def imaginary_part(a) -> np.ndarray:
    """The Hermitian matrix (A - A*)/(2i), or one per matrix of a stack.

    Formed as A/(2i) - A*/(2i), which, like ``hermitian_part``, does not
    overflow where the entries of A are finite.
    """
    m = np.asarray(a, dtype=np.complex128)
    return m / 2j - m.conj().swapaxes(-1, -2) / 2j


def _as_stack(a) -> tuple[np.ndarray, bool]:
    """A square matrix, or a stack of them (m, n, n), as a complex stack
    with finite entries, and whether it was a single matrix.  A refusal of
    a stack names the first matrix at fault."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 3:
        return as_matrix(m)[None], True
    if m.shape[1] != m.shape[2]:
        raise PreconditionError(f"expected a stack of square matrices, got shape {m.shape}")
    bad = ~np.isfinite(m).all(axis=(1, 2))
    if bad.any():
        raise PreconditionError(f"matrix {int(np.argmax(bad))} of the stack has non-finite entries")
    return m, False


def _batches(count: int, item_size: int, budget: int, least: int = 1) -> list:
    """Slices of a stack of ``count`` items: as many items a slice as keep a
    batched temporary of ``item_size`` per item within ``budget``, but never
    fewer than ``least``; items of size 0 are one slice.  An empty stack
    gives one empty slice."""
    size = max(least, budget // item_size if item_size else count)
    return [slice(i, i + size) for i in range(0, max(count, 1), size)]


def _entry_scale(m: np.ndarray, axis=None) -> np.ndarray:
    """The power of two at the largest entry of m (over ``axis``), inverted:
    scaled by it, that entry's modulus lies in [1/2, 1), so Frobenius norms
    of finite matrices do not overflow, and the scaling is exact."""
    # the modulus of a finite entry can pass the double range (its
    # exponent is then 1024); a subnormal one would need a factor past it
    top = np.fmin(np.abs(m).max(axis=axis, initial=0.0), np.finfo(float).max)
    return np.ldexp(1.0, np.fmin(-np.frexp(top)[1], 1023))


def _asymmetry(m: np.ndarray, rtol: float) -> tuple:
    """For a finite matrix, or per matrix of a stack (k, n, n): whether
    ||A - A*||_F exceeds rtol * ||A||_F, and those two sides.

    Both norms are taken of A scaled by ``_entry_scale``.  Unscaled they
    overflow once entries pass about 1e154, and inf <= inf would pass any
    matrix.  The scaling is exact, so wherever the unscaled norms are
    finite and normal the verdict is theirs.  The two sides are returned
    unscaled, for messages.
    """
    axis = None if m.ndim == 2 else (-2, -1)
    scale = _entry_scale(m, axis)
    s = m * scale[..., None, None]
    dev = np.linalg.norm(s - s.conj().swapaxes(-1, -2), axis=axis)
    limit = rtol * np.linalg.norm(s, axis=axis)
    with np.errstate(over="ignore"):  # a side past the double range reads inf
        return dev > limit, dev / scale, limit / scale


def is_hermitian(a, rtol: float = HERMITIAN_RTOL) -> bool:
    return not _asymmetry(as_matrix(a), rtol)[0]


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix, or one per matrix of a
    stack (eigenvalues (m, n), vectors (m, n, n)).

    ``eigenvalues`` is real and ascending; the columns of ``vectors`` are the
    matching orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def eig_hermitian(a) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues).

    ``a`` is one matrix or a stack (m, n, n); a stack is decomposed by one
    batched ``eigh``, each item equal to the decomposition of its matrix
    alone.  Each matrix must be Hermitian within ``1e-12 * ||A||_F`` (a
    refusal of a stack names the index of the first that is not); it is
    symmetrized before factorization so that roundoff-level asymmetry is
    harmless.  Finite entries can overflow on the way to the eigenvalues; a
    decomposition whose eigenvalues are not finite is refused, as is one
    that LAPACK does not bring to convergence.
    """
    m, single = _as_stack(a)
    asym, dev, limit = _asymmetry(m, HERMITIAN_RTOL)
    bad = np.flatnonzero(asym)
    if bad.size:
        i = int(bad[0])
        which = "matrix" if single else f"matrix {i} of the stack"
        raise PreconditionError(
            f"{which} is not Hermitian: asymmetry {dev[i]:.3e} exceeds "
            f"{HERMITIAN_RTOL:g} * ||A||_F = {limit[i]:.3e}"
        )
    try:
        w, u = np.linalg.eigh(hermitian_part(m))
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"the Hermitian eigendecomposition failed: {exc}") from exc
    finite = np.isfinite(w).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        which = "" if single else f" of matrix {i} of the stack"
        raise PreconditionError(
            f"the Hermitian eigendecomposition{which} has non-finite eigenvalues "
            f"{w[i][~np.isfinite(w[i])]}"
        )
    return HermitianEig(w[0], u[0]) if single else HermitianEig(w, u)


def apply_spectral_function(a, f) -> np.ndarray:
    """Return U diag(f(w_i)) U* for the Hermitian eigendecomposition of ``a``.

    ``a`` is one matrix or a stack (m, n, n), decomposed and checked by
    ``eig_hermitian``; a stack gives the stack of results, each equal to
    the result for its matrix alone.  ``f`` is a scalar function evaluated
    at each eigenvalue; it must be finite there.  A decomposition whose
    eigenvalues overflow is refused by ``eig_hermitian``, before ``f`` is
    evaluated.  The output is re-symmetrized when ``f`` is real valued.
    """
    e = eig_hermitian(a)
    single = e.eigenvalues.ndim == 1
    w, u = (e.eigenvalues[None], e.vectors[None]) if single else (e.eigenvalues, e.vectors)
    try:
        vals = np.asarray(
            [complex(f(float(x))) for x in w.ravel()], dtype=np.complex128
        ).reshape(w.shape)
    except (ArithmeticError, ValueError) as exc:
        raise PreconditionError(f"function is undefined at an eigenvalue: {exc}") from exc
    finite = np.isfinite(vals)
    if not finite.all():
        i = int(np.flatnonzero(~finite.all(axis=1))[0])
        which = "" if single else f" of matrix {i} of the stack"
        raise PreconditionError(
            f"function is not finite at eigenvalue(s) {w[i][~finite[i]]}{which}"
        )
    out = (u * vals[:, None, :]) @ u.conj().swapaxes(-1, -2)
    if vals.size == 0 or np.all(vals.imag == 0.0):
        out = hermitian_part(out)
    return out[0] if single else out


def solve_shifted(a, z, b) -> np.ndarray:
    """Solve (A - z I) X = B.

    Refuses shifts whose condition estimate exceeds 1e14, which signals that
    ``z`` sits (numerically) inside the spectrum of ``A``.
    """
    m = as_matrix(a)
    rhs = np.asarray(b, dtype=np.complex128)
    if rhs.ndim == 1:
        rhs = rhs[:, None]
    if rhs.ndim != 2 or rhs.shape[0] != m.shape[0]:
        raise PreconditionError(
            f"right-hand side shape {rhs.shape} does not match dimension {m.shape[0]}"
        )
    shifted = m - complex(z) * np.eye(m.shape[0])
    cond = np.linalg.cond(shifted)
    if not np.isfinite(cond) or cond > SOLVE_COND_LIMIT:
        raise PreconditionError(
            f"shifted matrix is singular or near-singular: condition estimate "
            f"{cond:.3e} exceeds {SOLVE_COND_LIMIT:.0e} (shift may lie in the spectrum)"
        )
    return np.linalg.solve(shifted, rhs)


_EXPM_TERMS = 18
_EXPM_TARGET = 0.5


def expm(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    The argument is scaled by 2**-s until its Frobenius norm is at most 0.5,
    the series is summed through order 18 (remainder below 1e-20 at that
    norm), and the result is squared back up.
    """
    m = as_matrix(a)
    n = m.shape[0]
    nrm = frobenius(m)
    s = 0 if nrm <= _EXPM_TARGET else int(np.ceil(np.log2(nrm / _EXPM_TARGET)))
    b = m / (2.0**s)
    acc = np.eye(n, dtype=np.complex128)
    term = np.eye(n, dtype=np.complex128)
    for k in range(1, _EXPM_TERMS + 1):
        term = term @ b / k
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return acc


@dataclass(frozen=True)
class SignedFactorization:
    """Factorization V = K J K* with the +1 block leading.

    ``k`` has one column per retained eigenpair (dim x r); the first
    ``n_plus`` columns carry the sign +1 and the rest -1, so J =
    diag(``j_signs``) and ``n_minus`` follow from the two fields.
    """

    k: np.ndarray
    n_plus: int

    def __post_init__(self):
        if not 0 <= self.n_plus <= self.rank:
            raise PreconditionError(f"n_plus = {self.n_plus} is outside [0, {self.rank}]")

    @property
    def rank(self) -> int:
        return self.k.shape[1]

    @property
    def n_minus(self) -> int:
        return self.rank - self.n_plus

    @property
    def dim(self) -> int:
        return self.k.shape[0]

    @property
    def j_signs(self) -> np.ndarray:
        return np.repeat([1.0, -1.0], [self.n_plus, self.n_minus])

    def j_matrix(self) -> np.ndarray:
        return np.diag(self.j_signs.astype(np.complex128))

    def reconstruct(self) -> np.ndarray:
        """K diag(j_signs) K*."""
        return hermitian_part((self.k * self.j_signs) @ self.k.conj().T)


def sign_factorization(v, rank_tol: float = 1e-12) -> SignedFactorization:
    """Factor a Hermitian V as K diag(+-1) K*.

    Eigenpairs with |w| > rank_tol * ||V|| (spectral norm) are retained;
    column i of K is sqrt(|w_i|) times the eigenvector, positives ordered
    by descending eigenvalue followed by negatives ascending.
    """
    check_tolerance("rank_tol", rank_tol)
    e = eig_hermitian(v)
    w = e.eigenvalues
    thresh = rank_tol * (float(np.max(np.abs(w))) if w.size else 0.0)
    pos = [i for i in np.argsort(-w) if w[i] > thresh]
    neg = [i for i in np.argsort(w) if w[i] < -thresh]
    cols = [e.vectors[:, i] * np.sqrt(abs(w[i])) for i in pos + neg]
    n = e.dim
    k = np.column_stack(cols) if cols else np.zeros((n, 0), dtype=np.complex128)
    return SignedFactorization(k=k, n_plus=len(pos))
