"""Matrix families with sign-split perturbations and their boundary logs.

A Hermitian base matrix H0 and a Hermitian perturbation V = K J K* (J a
difference of projections onto the positive and negative auxiliary blocks)
give rise to three block transfer matrices:

    phi(z)        = J  + K* (H0 - z)^(-1) K          on the full block,
    phi_plus(z)   = I+ + K+* (H0 - z)^(-1) K+        on the + block,
    phi_minus(z)~ = I- - K-* (H+ - z)^(-1) K-        on the - block,

where H+ = H0 + K+ K+*.  The first two have nonnegative imaginary part in
the upper half-plane, the third nonpositive.  Their logarithms at lambda+i0
carry the spectral shift data.  Off the real spectra the boundary matrix is
invertible Hermitian, so the boundary value is an honest limit, and the
shift operator is the projection onto its negative eigenspace;
``shift_projection`` computes it for a whole stack of boundary matrices with
one batched eigendecomposition, and it alone serves the shift operators and
profiles.  ``boundary_log`` gives the logarithm itself, either directly at
eps = 0 or by the definition: a vertical epsilon schedule lambda + i*eps
with Richardson extrapolation, which the verification suites compare with
the direct value.  The schedule is the heights eps0 * 2^(-k),
k = 0, ..., 19 (EPS_FACTOR, EPS_STEPS), stopping once two successive
Richardson extrapolants differ by at most EPS_CONV_TOL = 1e-9 in Frobenius
norm (the raw error is linear in eps, the extrapolated one quadratic, so
the schedule meets that tolerance within its steps).  It starts at
eps0 = min(EPS0, d) with EPS0 = 1e-2 and d the distance from lambda to the
nearest eigenvalue of H0, H+ or H, where the block transfer matrices have
their poles and their singular points: the expansion in eps holds for eps
well below d, so a schedule that starts above d spends its steps before
the expansion holds.  The logarithms of the whole schedule are one stacked
logarithm (which ``oplog`` cuts into pieces when the block is large),
scanned in order; if that stack raises, the heights are taken again one at
a time, so the route raises only at a height that the scan reaches.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, KreinShiftError, PreconditionError
from .matkit import (
    HermitianEig,
    SignedFactorization,
    as_matrix,
    eig_hermitian,
    frobenius,
    hermitian_part,
    is_hermitian,
    sign_factorization,
)
from .oplog import logm_antidissipative, logm_dissipative

__all__ = [
    "SignBlock",
    "ConvergenceRecord",
    "HerglotzFamily",
    "ShiftProjection",
    "shift_projection",
    "boundary_log",
]

EXCLUSION_RTOL = 1e-9
SINGULAR_RTOL = 1e-12
EPS0 = 1e-2
EPS_FACTOR = 0.5
EPS_STEPS = 20
EPS_CONV_TOL = 1e-9


class SignBlock(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class ConvergenceRecord:
    """How a boundary value was obtained."""

    route: str
    steps: int
    cauchy: float
    converged: bool


class HerglotzFamily:
    """A bound pair (H0, V) with eagerly cached spectral data.

    Instances are immutable after construction and safe to share between
    threads.  The factorization fixes the auxiliary block sizes n_plus and
    n_minus; either block may be empty, in which case the corresponding
    transfer matrix is 0x0 with trace zero.
    """

    def __init__(self, h0, factorization: SignedFactorization):
        h0 = as_matrix(h0)
        if not is_hermitian(h0):
            raise PreconditionError("base matrix must be Hermitian")
        self.h0 = hermitian_part(h0)
        self.fact = factorization
        if factorization.dim != self.h0.shape[0]:
            raise PreconditionError(
                f"factorization dimension {factorization.dim} does not match "
                f"base dimension {self.h0.shape[0]}"
            )
        k = factorization.k
        kplus = k[:, : factorization.n_plus]
        self.v = factorization.reconstruct()
        self.v_plus = hermitian_part(kplus @ kplus.conj().T)
        self.h_plus = hermitian_part(self.h0 + self.v_plus)
        self.h = hermitian_part(self.h0 + self.v)
        self.eig0: HermitianEig = eig_hermitian(self.h0)
        self.eig_plus: HermitianEig = eig_hermitian(self.h_plus)
        self.eig_h: HermitianEig = eig_hermitian(self.h)
        # resolvent sandwiches reduce to diagonal sums through these
        self._w0 = self.eig0.vectors.conj().T @ k
        self._wp = self.eig_plus.vectors.conj().T @ k

    @classmethod
    def from_potential(cls, h0, v, rank_tol: float = 1e-12) -> "HerglotzFamily":
        return cls(h0, sign_factorization(v, rank_tol))

    @classmethod
    def from_positive_root(cls, h0, v) -> "HerglotzFamily":
        """Family for a positive semidefinite V factored through its
        Hermitian square root, K = V^(1/2).

        Unlike the rank factorization this keeps the auxiliary block in the
        physical basis (K*K = V there), which is what closed-form statements
        about the shift operator of a nonnegative perturbation refer to.
        Traces are basis-independent, so either construction yields the same
        shift function.
        """
        e = eig_hermitian(v)
        w, u = e.eigenvalues, e.vectors
        scale = max(float(np.max(np.abs(w))) if w.size else 0.0, np.finfo(float).tiny)
        if w.size and w[0] < -1e-12 * scale:
            raise PreconditionError(
                f"perturbation is not positive semidefinite (min eigenvalue {w[0]:.3e})"
            )
        root = hermitian_part((u * np.sqrt(np.maximum(w, 0.0))) @ u.conj().T)
        fact = SignedFactorization(k=root, j_signs=np.ones(e.dim), n_plus=e.dim, n_minus=0)
        return cls(h0, fact)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    @property
    def rank(self) -> int:
        return self.fact.rank

    @property
    def n_plus(self) -> int:
        return self.fact.n_plus

    @property
    def n_minus(self) -> int:
        return self.fact.n_minus

    def all_spectra(self) -> np.ndarray:
        return np.concatenate(
            [self.eig0.eigenvalues, self.eig_plus.eigenvalues, self.eig_h.eigenvalues]
        )

    def spectral_diameter(self) -> float:
        s = self.all_spectra()
        diam = float(s.max() - s.min())
        return diam if diam > 0 else max(1.0, float(np.max(np.abs(s))))

    def exclusion_width(self) -> float:
        return EXCLUSION_RTOL * self.spectral_diameter()

    def near_spectrum(self, lam, which: SignBlock | None = None) -> np.ndarray:
        """Whether each point of lam sits inside the exclusion zone of the
        spectra that the requested boundary value depends on (all three when
        ``which`` is None)."""
        if which is SignBlock.PLUS:
            eigs = self.eig0.eigenvalues
        elif which is SignBlock.MINUS:
            eigs = np.concatenate([self.eig0.eigenvalues, self.eig_plus.eigenvalues])
        else:
            eigs = self.all_spectra()
        lam = np.asarray(lam, dtype=float)[..., None]
        return np.any(np.abs(eigs - lam) <= self.exclusion_width(), axis=-1)

    def check_off_spectrum(self, lam, which: SignBlock | None = None) -> None:
        """Raise if lam (a point or an array of points) sits inside an
        exclusion zone; see ``near_spectrum``."""
        near = self.near_spectrum(lam, which)
        if near.any():
            raise PreconditionError(
                f"lambda={float(np.asarray(lam, dtype=float)[near][0])!r} lies within "
                f"the exclusion zone ({self.exclusion_width():.3e}) of an eigenvalue"
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _quad(eigs: np.ndarray, w: np.ndarray, z) -> np.ndarray:
        """W* diag(1/(eigs - z)) W, the resolvent sandwich.

        A scalar z gives one matrix; a 1-D array of m points gives the
        stack of shape (m, r, r).
        """
        z = np.asarray(z, dtype=np.complex128)
        denom = eigs - z[..., None]
        if denom.size and np.min(np.abs(denom)) < 1e-300:
            raise PreconditionError("z is an eigenvalue of the resolvent base")
        return w.conj().T @ (w / denom[..., None])

    def evaluate_phi(self, z) -> np.ndarray:
        """J + K*(H0 - z)^(-1) K on the full auxiliary block."""
        return self.fact.j_matrix() + self._quad(self.eig0.eigenvalues, self._w0, z)

    def evaluate_phi_plus(self, z) -> np.ndarray:
        """Transfer matrix of the pair (H0, H+) on the + block."""
        npl = self.n_plus
        q = self._quad(self.eig0.eigenvalues, self._w0[:, :npl], z)
        return np.eye(npl, dtype=np.complex128) + q

    def evaluate_phi_minus_tilde(self, z) -> np.ndarray:
        """Transfer matrix of the pair (H+, H) on the - block; its negative
        has nonnegative imaginary part in the upper half-plane."""
        npl = self.n_plus
        q = self._quad(self.eig_plus.eigenvalues, self._wp[:, npl:], z)
        return np.eye(self.n_minus, dtype=np.complex128) - q

    # closed-form inverses, used as independent cross-checks ------------
    @property
    def _wh(self) -> np.ndarray:
        """K in the eigenbasis of H; built on demand, since only these
        cross-checks need it."""
        return self.eig_h.vectors.conj().T @ self.fact.k

    def evaluate_phi_inverse(self, z) -> np.ndarray:
        """J - J K*(H - z)^(-1) K J."""
        q = self._quad(self.eig_h.eigenvalues, self._wh, z)
        s = self.fact.j_signs
        return self.fact.j_matrix() - s[:, None] * q * s[None, :]

    def evaluate_phi_plus_inverse(self, z) -> np.ndarray:
        """I+ - K+*(H+ - z)^(-1) K+."""
        npl = self.n_plus
        q = self._quad(self.eig_plus.eigenvalues, self._wp[:, :npl], z)
        return np.eye(npl, dtype=np.complex128) - q

    def evaluate_phi_minus_tilde_inverse(self, z) -> np.ndarray:
        """I- + K-*(H - z)^(-1) K-."""
        npl = self.n_plus
        q = self._quad(self.eig_h.eigenvalues, self._wh[:, npl:], z)
        return np.eye(self.n_minus, dtype=np.complex128) + q


class ShiftProjection(NamedTuple):
    """Per matrix of a stack (m, r, r): the projection onto the negative
    eigenspace, which off the real spectra is the shift operator
    pi^(-1) Im log of the boundary value; its rank; whether the matrix is
    numerically singular (an eigenvalue of modulus at most SINGULAR_RTOL *
    max(1, largest modulus)), where it is not; and the eigendecomposition
    (eigenvalues ascending) it was read from."""

    projection: np.ndarray
    rank: np.ndarray
    singular: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray


def shift_projection(stack) -> ShiftProjection:
    """Shift projections of a stack of Hermitian matrices of shape (m, r, r),
    from one batched eigendecomposition of their Hermitian parts."""
    w, u = np.linalg.eigh(hermitian_part(stack))
    absw = np.abs(w)
    scale = np.maximum(1.0, absw.max(axis=-1, initial=0.0))
    singular = np.any(absw <= SINGULAR_RTOL * scale[..., None], axis=-1)
    neg = w < 0.0
    p = (u * neg[..., None, :]) @ u.conj().swapaxes(-1, -2)
    return ShiftProjection(hermitian_part(p), np.count_nonzero(neg, axis=-1), singular, w, u)


def _direct_boundary_log(m0: np.ndarray, which: SignBlock) -> np.ndarray | None:
    """Spectral-calculus log of the Hermitian boundary matrix,
    log|M| + i*pi*P with P its shift projection (conjugated on the - block),
    or None when it is numerically singular."""
    sp = shift_projection(m0[None])
    if sp.singular[0]:
        return None
    u = sp.vectors[0]
    log_abs = (u * np.log(np.abs(sp.eigenvalues[0]))) @ u.conj().T
    sign = 1.0 if which is SignBlock.PLUS else -1.0
    return log_abs + (sign * math.pi * 1j) * sp.projection[0]


def boundary_log(
    fam: HerglotzFamily,
    which: SignBlock,
    lam: float,
    route: str = "direct",
) -> tuple[np.ndarray, ConvergenceRecord]:
    """Boundary value of the block logarithm at lambda + i0.

    ``route`` selects "direct" (evaluate at eps = 0, valid off the real
    spectra where the boundary matrix is invertible Hermitian; raises
    where it is singular) or "eps" (the vertical schedule; approach is
    vertical only).
    """
    lam = float(lam)
    if route not in ("direct", "eps"):
        raise PreconditionError(f"unknown route {route!r}")
    fam.check_off_spectrum(lam, which)
    if which is SignBlock.PLUS:
        evaluate = fam.evaluate_phi_plus
        block = fam.n_plus
        take_log = logm_dissipative
    else:
        evaluate = fam.evaluate_phi_minus_tilde
        block = fam.n_minus
        take_log = logm_antidissipative
    if block == 0:
        return (
            np.zeros((0, 0), dtype=np.complex128),
            ConvergenceRecord("empty", 0, 0.0, True),
        )

    if route == "direct":
        val = _direct_boundary_log(evaluate(lam), which)
        if val is None:
            raise PreconditionError(
                f"boundary matrix is singular at lambda={lam!r}; "
                "the direct route is unavailable"
            )
        return val, ConvergenceRecord("direct", 0, 0.0, True)

    eps0 = min(EPS0, float(np.min(np.abs(fam.all_spectra() - lam))))
    heights = eps0 * EPS_FACTOR ** np.arange(EPS_STEPS)
    try:
        logs = take_log(evaluate(lam + 1j * heights))
    except KreinShiftError:
        logs = (take_log(evaluate(lam + 1j * eps)) for eps in heights)
    prev = None
    prev_rich = None
    cauchy = np.inf
    for step, cur in enumerate(logs, start=1):
        if prev is not None:
            rich = (cur - EPS_FACTOR * prev) / (1.0 - EPS_FACTOR)
            if prev_rich is not None:
                cauchy = frobenius(rich - prev_rich)
                if cauchy <= EPS_CONV_TOL:
                    return rich, ConvergenceRecord("eps", step, cauchy, True)
            prev_rich = rich
        prev = cur
    raise ConvergenceError(
        f"epsilon schedule did not converge at lambda={lam!r} within "
        f"{EPS_STEPS} steps (last Cauchy difference {cauchy:.3e}); "
        "lambda may be too close to an eigenvalue"
    )
