"""Logarithms of dissipative matrices.

A bounded T with Im(T) = (T - T*)/(2i) >= 0 gets its logarithm from the
half-line resolvent representation

    log(T) = -i * int_0^inf [ (T + i mu)^(-1) - (1 + i mu)^(-1) I ] d mu,

evaluated as one adaptive Gauss-Kronrod integral.  The integrand decays like
mu^(-2); the tail beyond a switch point L (default max(1, 4||T||)) is folded
by u = 1/mu onto a finite interval, where it is O(1) and smooth, and placed
after the head: on [0, L] the variable is mu itself, on (L, L + 1/L] it is
u = x - L.  Both parts are one batched solve of a(x) T + b(x) I per round
of the quadrature.  The variable is scaled by a power of two that brings L
within a factor sqrt(2) of 1, so the folded panel keeps its digits however
large ||T|| is.  The initial mesh is [0, delta] with delta = smin(T)/2
(below it the resolvent norm is set by ||T^(-1)||), dyadic panels
delta * 2^k up to L, and the folded tail: about log2(8 cond(T)) panels, on
which most logarithms converge in one round.

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
        if self.tail_switch is not None and not self.tail_switch > 0:
            raise PreconditionError("tail_switch must be positive")
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


def _require_dissipative(m: np.ndarray, scale: float, sign: int) -> None:
    """Refuse m unless Im(m) >= 0 within DISSIPATIVE_RTOL * scale; ``sign``
    -1 means m is the adjoint of the caller's anti-dissipative argument."""
    margin = dissipativity_margin(m)
    if margin < -DISSIPATIVE_RTOL * scale:
        kind = "dissipative" if sign > 0 else "anti-dissipative"
        raise PreconditionError(
            f"matrix is not {kind}: extremal eigenvalue of the imaginary part is "
            f"{sign * margin:.3e}, tolerance {DISSIPATIVE_RTOL:g} * ||T|| = "
            f"{DISSIPATIVE_RTOL * scale:.3e}"
        )


def _logm(m: np.ndarray, cfg: QuadratureConfig | None, sign: int) -> np.ndarray:
    """The half-line integral for a nonempty matrix m, checked to be
    dissipative and invertible first."""
    cfg = cfg or DEFAULT_QUADRATURE
    n = m.shape[0]
    svals = np.linalg.svd(m, compute_uv=False)
    _require_dissipative(m, max(float(svals[0]), np.finfo(float).tiny), sign)
    if svals[-1] == 0.0 or svals[0] / svals[-1] > LOGM_COND_LIMIT:
        cond = np.inf if svals[-1] == 0.0 else svals[0] / svals[-1]
        raise PreconditionError(
            f"matrix is singular within working precision: condition estimate "
            f"{cond:.3e} exceeds {LOGM_COND_LIMIT:.0e}"
        )
    lam_max = cfg.tail_switch if cfg.tail_switch is not None else max(1.0, 4.0 * float(svals[0]))
    # mu = scale * x on the head; the power of two is exact and puts the fold
    # within a factor sqrt(2) of 1, so the tail panel keeps its digits
    scale = math.ldexp(1.0, round(math.log2(lam_max)))
    fold = lam_max / scale
    delta = 0.5 * float(svals[-1]) / scale
    residue = np.eye(n, dtype=np.complex128) - m  # the difference of resolvents
    # equals (T + i mu)^(-1) (I - T) / (1 + i mu), cancellation-free for T ~ I

    def integrand(xs):
        # head x <= fold: mu = scale * x; tail: mu = scale / (x - fold)
        head = xs <= fold
        a = np.where(head, 1.0, xs - fold)
        b = 1j * scale * np.where(head, xs, 1.0)
        shifted = np.multiply(a[:, None, None], m, out=np.empty((xs.size, n, n), complex))
        shifted.reshape(xs.size, -1)[:, :: n + 1] += b[:, None]
        out = np.linalg.solve(shifted, np.broadcast_to(residue, shifted.shape))
        out *= (scale / (a + b))[:, None, None]
        return out

    # [0, delta], dyadic panels up to the fold (the resolvent norm is set by
    # ||T^(-1)|| below delta = smin(T)/2), then the folded tail
    edges = [0.0]
    if delta < fold:
        steps = np.ldexp(delta, np.arange(math.ceil(math.log2(fold / delta)) + 1))
        edges += steps[steps < fold].tolist()
    edges += [fold, fold + 1.0 / fold]
    val, _ = integrate_adaptive(
        integrand, zip(edges[:-1], edges[1:]), cfg.rel_tol, cfg.max_panels, cfg.split_fraction
    )
    return -1j * val


def logm_dissipative(t, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Logarithm of an invertible dissipative matrix via the half-line
    resolvent integral.

    Satisfies expm(log(T)) = T and 0 <= Im(log(T)) <= pi*I up to the
    quadrature tolerance.
    """
    m = as_matrix(t)
    if m.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    return _logm(m, cfg, +1)


def logm_antidissipative(s, cfg: QuadratureConfig | None = None) -> np.ndarray:
    """Logarithm of an invertible anti-dissipative matrix, defined as the
    adjoint of the dissipative logarithm of the adjoint."""
    m = as_matrix(s)
    if m.shape[0] == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    return _logm(m.conj().T, cfg, -1).conj().T


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
