"""Logarithms of dissipative matrices.

A bounded T with Im(T) = (T - T*)/(2i) >= 0 gets its logarithm from the
half-line resolvent representation

    log(T) = -i * int_0^inf [ (T + i mu)^(-1) - (1 + i mu)^(-1) I ] d mu,

evaluated with adaptive Gauss-Kronrod panels.  The integrand decays like
mu^(-2); the tail beyond a switch point L is folded to a finite interval by
u = 1/mu, where it is O(1) and smooth.  The first panel is split at
delta = smin(T)/2 because the resolvent norm is controlled by ||T^(-1)||
only below that scale.

The induced branch for scalars has its cut along the negative imaginary
axis, so negative real arguments carry imaginary part +i*pi.  The principal
branch (cut along the negative reals) is kept alongside for comparisons.
Anti-dissipative matrices (Im(S) <= 0) are handled by conjugation:
log(S) = (log(S*))*.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .matkit import (
    as_matrix,
    det,
    imaginary_part,
    operator_norm,
    trace,
)
from .quadrature import integrate_adaptive

__all__ = [
    "Branch",
    "QuadratureConfig",
    "BridgeResult",
    "scalar_log",
    "logm_dissipative",
    "logm_antidissipative",
    "logm_oracle_diag",
    "tr_log_det_bridge",
    "dissipativity_margin",
]

DISSIPATIVE_RTOL = 1e-12
LOGM_COND_LIMIT = 1e12
ORACLE_COND_LIMIT = 1e8


class Branch(enum.Enum):
    """Scalar logarithm branches.

    LOG cuts along the negative imaginary axis (argument in (-pi/2, 3pi/2));
    LN is the principal branch with its cut along the negative reals.  The
    two coincide on the open upper half-plane.
    """

    LOG = "log"
    LN = "ln"


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and layout of the logarithm quadrature.

    ``tail_switch`` is the point where the integral is folded; ``None`` means
    max(1, 4*||T||), chosen per call.
    """

    rel_tol: float = 1e-11
    split_fraction: float = 0.5
    tail_switch: float | None = None
    max_panels: int = 1024

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise PreconditionError("rel_tol must be positive")
        if not 0.0 < self.split_fraction < 1.0:
            raise PreconditionError("split_fraction must lie in (0, 1)")
        if self.max_panels < 64:
            raise PreconditionError("max_panels must be at least 64")


DEFAULT_QUADRATURE = QuadratureConfig()


def scalar_log(z, branch: Branch = Branch.LOG) -> complex:
    """Scalar logarithm on the requested branch.

    Raises for arguments on the branch cut (LOG: the negative imaginary
    axis including 0; LN: the closed negative real axis).
    """
    z = complex(z)
    if z == 0:
        raise PreconditionError("logarithm undefined at 0")
    if branch is Branch.LOG:
        if z.real == 0.0 and z.imag < 0.0:
            raise PreconditionError(
                f"argument {z} lies on the negative imaginary axis cut"
            )
        a = math.atan2(z.imag, z.real)
        if a < -0.5 * math.pi:
            a += 2.0 * math.pi
        return complex(math.log(abs(z)), a)
    if z.imag == 0.0 and z.real < 0.0:
        raise PreconditionError(f"argument {z} lies on the negative real axis cut")
    return cmath.log(z)


def dissipativity_margin(t) -> float:
    """Smallest eigenvalue of Im(T); nonnegative for dissipative T."""
    m = as_matrix(t)
    if m.shape[0] == 0:
        return 0.0
    return float(np.min(np.linalg.eigvalsh(imaginary_part(m))))


def _require_dissipative(m: np.ndarray, sign: int) -> None:
    scale = max(operator_norm(m), np.finfo(float).tiny)
    margin = dissipativity_margin(m if sign > 0 else m.conj().T)
    if margin < -DISSIPATIVE_RTOL * scale:
        kind = "dissipative" if sign > 0 else "anti-dissipative"
        raise PreconditionError(
            f"matrix is not {kind}: extremal eigenvalue of the imaginary part is "
            f"{sign * margin:.3e}, tolerance {DISSIPATIVE_RTOL:g} * ||T|| = "
            f"{DISSIPATIVE_RTOL * scale:.3e}"
        )


def logm_dissipative(t, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Logarithm of an invertible dissipative matrix via the half-line
    resolvent integral.

    Satisfies expm(log(T)) = T and 0 <= Im(log(T)) <= pi*I up to the
    quadrature tolerance.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    m = as_matrix(t)
    n = m.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    _require_dissipative(m, +1)
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[-1] == 0.0 or svals[0] / svals[-1] > LOGM_COND_LIMIT:
        cond = np.inf if svals[-1] == 0.0 else svals[0] / svals[-1]
        raise PreconditionError(
            f"matrix is singular within working precision: condition estimate "
            f"{cond:.3e} exceeds {LOGM_COND_LIMIT:.0e}"
        )
    delta = 0.5 * float(svals[-1])
    lam_max = cfg.tail_switch if cfg.tail_switch is not None else max(1.0, 4.0 * float(svals[0]))
    eye = np.eye(n, dtype=np.complex128)
    residue = eye - m  # the difference of resolvents equals
    # (T + i mu)^(-1) (I - T) / (1 + i mu), cancellation-free even for T ~ I

    def head(mus):
        shifted = m[None, :, :] + 1j * mus[:, None, None] * eye[None, :, :]
        rhs = np.broadcast_to(residue, shifted.shape)
        return np.linalg.solve(shifted, rhs) / (1.0 + 1j * mus)[:, None, None]

    def tail(us):
        # substitution mu = 1/u folds [lam_max, inf) onto (0, 1/lam_max]
        shifted = us[:, None, None] * m[None, :, :] + 1j * eye[None, :, :]
        rhs = np.broadcast_to(residue, shifted.shape)
        return np.linalg.solve(shifted, rhs) / (us + 1j)[:, None, None]

    if delta < lam_max:
        segments = [(0.0, delta), (delta, lam_max)]
    else:
        segments = [(0.0, lam_max)]
    head_val, _ = integrate_adaptive(
        head, segments, cfg.rel_tol, cfg.max_panels, cfg.split_fraction
    )
    tail_val, _ = integrate_adaptive(
        tail, [(0.0, 1.0 / lam_max)], cfg.rel_tol, cfg.max_panels, cfg.split_fraction
    )
    return -1j * (head_val + tail_val)


def logm_antidissipative(s, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Logarithm of an invertible anti-dissipative matrix, defined as the
    adjoint of the dissipative logarithm of the adjoint."""
    m = as_matrix(s)
    if m.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    _require_dissipative(m, -1)
    return logm_dissipative(m.conj().T, cfg).conj().T


def logm_oracle_diag(t, branch: Branch = Branch.LOG) -> np.ndarray:
    """Independent logarithm through a general eigendecomposition.

    Requires a diagonalizable argument with a reasonably conditioned
    eigenvector basis and eigenvalues off the chosen branch cut.  This is the
    cross-check route; the integral representation above is the method of
    record.
    """
    m = as_matrix(t)
    if m.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    w, s = np.linalg.eig(m)
    cond = np.linalg.cond(s)
    if not np.isfinite(cond) or cond > ORACLE_COND_LIMIT:
        raise PreconditionError(
            f"eigenvector basis is ill-conditioned (cond {cond:.3e} > "
            f"{ORACLE_COND_LIMIT:.0e}); matrix may be defective"
        )
    vals = np.array([scalar_log(x, branch) for x in w], dtype=np.complex128)
    return (s * vals) @ np.linalg.inv(s)


@dataclass(frozen=True)
class BridgeResult:
    """Both sides of the trace/determinant identity for log(I + A).

    ``log_det`` is the scalar logarithm of det(I+A) shifted by the integer
    multiple of 2*pi*i that brings it closest to ``trace_log``; ``winding``
    records that integer.  The determinant only pins the phase modulo 2*pi,
    the operator trace does not, hence the explicit bookkeeping.
    """

    trace_log: complex
    log_det: complex
    winding: int

    @property
    def residual(self) -> float:
        return abs(self.trace_log - self.log_det)


def tr_log_det_bridge(a, cfg: QuadratureConfig | None = None) -> BridgeResult:
    """Compare tr(log(I+A)) with log(det(I+A)) for (anti)dissipative I+A."""
    m = as_matrix(a)
    t = m + np.eye(m.shape[0], dtype=np.complex128)
    scale = max(operator_norm(t), np.finfo(float).tiny)
    im_eigs = np.linalg.eigvalsh(imaginary_part(t)) if t.size else np.zeros(0)
    tol = DISSIPATIVE_RTOL * scale
    if im_eigs.size == 0 or im_eigs[0] >= -tol:
        lhs = trace(logm_dissipative(t, cfg))
    elif im_eigs[-1] <= tol:
        lhs = trace(logm_antidissipative(t, cfg))
    else:
        raise PreconditionError(
            "I + A is neither dissipative nor anti-dissipative within tolerance"
        )
    d = det(t)
    if d == 0:
        raise PreconditionError("det(I + A) vanishes")
    rhs0 = scalar_log(d, Branch.LOG)
    k = int(round((lhs.imag - rhs0.imag) / (2.0 * math.pi)))
    return BridgeResult(trace_log=lhs, log_det=rhs0 + 2j * math.pi * k, winding=k)
