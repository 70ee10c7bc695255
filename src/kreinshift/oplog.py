"""Logarithms of dissipative matrices.

A bounded T with Im(T) = (T - T*)/(2i) >= 0 gets its logarithm from the
half-line resolvent representation

    log(T) = -i * int_0^inf [ (T + i mu)^(-1) - (1 + i mu)^(-1) I ] d mu,

evaluated as one adaptive Gauss-Kronrod integral in a variable x that
runs over three parts.  The integrand decays like mu^(-2); the tail beyond
the switch point L = max(1, 4||T||) is folded by u = 1/mu onto a finite
interval, where it is O(1) and smooth.  Below L the integrand has poles at
mu = i*lambda for the eigenvalues lambda of T and at mu = i from the
reference term, all at |mu| >= 2*delta with delta = min(smin(T), 1)/2: on
the head [0, delta] the variable is mu itself; on the middle part
[delta, L] it is logarithmic, mu = delta * e^(x - delta) with Jacobian mu,
so that every pole lies at least pi/2 from the real x-axis whatever its
modulus (Trefethen & Weideman, SIAM Review 56, 2014); on the tail it is
u = x - x_L past the end x_L = delta + ln(L/delta) of the middle part.  All
parts are one batched solve of a(x) T + b(x) I per round of the
quadrature.  The variable is scaled by a power of two that brings L within
a factor sqrt(2) of 1, so the folded panel keeps its digits however large
||T|| is.  The initial mesh is the head, panels of width ln 2 on the middle
part (dyadic points delta * 2^k in mu) and the folded tail: about
log2(L/delta) + 2 panels (log2(8 cond(T)) + 2 when smin(T) <= 1 <= 4||T||),
on which nearly every logarithm converges in one round.  Each further round bisects panels at their midpoints, within a
budget of MAX_PANELS = 1024 panels.  The relative tolerance,
DEFAULT_REL_TOL = 1e-11 unless the caller passes ``rel_tol``, is the one
setting of the quadrature.  The ratio 2 max(1, 4||T||) / min(smin(T), 1)
of the ends of the mesh must be a double: a matrix past that range
(||T|| above about 2.2e307, or smin(T) below about 1.1e-308) is refused
with PreconditionError.

Both logarithms also take a stack of matrices (m, n, n) and return the
stack of their logarithms from one integral: one batched SVD and one
batched eigendecomposition of the imaginary parts check every item (an
error names the offending item), the fold and the mesh come from the
largest norm and the smallest singular value of the stack, and the
quadrature holds each item to the tolerance it would get alone.  A stack
of more than STACK_ENTRIES entries is taken in pieces, one integral each,
which bounds the memory of a round.  A single matrix is integrated as a
stack of one.

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
    _as_stack,
    _batches,
    as_matrix,
    check_tolerance,
    imaginary_part,
    trace,
)
from .quadrature import integrate_adaptive

__all__ = [
    "Branch",
    "BridgeResult",
    "scalar_log",
    "logm_dissipative",
    "logm_antidissipative",
    "logm_oracle_diag",
    "tr_log_det_bridge",
]

DISSIPATIVE_RTOL = 1e-12
LOGM_COND_LIMIT = 1e12
ORACLE_COND_LIMIT = 1e8
DEFAULT_REL_TOL = 1e-11
MAX_PANELS = 1024
# entries (items * n * n) of the largest stack that one integral takes: a
# round of the quadrature holds a few arrays of hundreds of abscissae times
# this many complex numbers, so a longer stack is taken in pieces
STACK_ENTRIES = 1024


class Branch(enum.Enum):
    """Scalar logarithm branches.

    LOG cuts along the negative imaginary axis (argument in (-pi/2, 3pi/2));
    LN is the principal branch with its cut along the negative reals.  The
    two coincide on the open upper half-plane.
    """

    LOG = "log"
    LN = "ln"


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


def _margins(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of Im(T) for each T of a non-empty stack."""
    return np.linalg.eigvalsh(imaginary_part(stack))[:, 0]


def _require_dissipative(stack: np.ndarray, scale: np.ndarray, sign: int, single: bool) -> None:
    """Refuse the stack unless every Im(m) >= 0 within DISSIPATIVE_RTOL times
    its item's ``scale``; ``sign`` -1 means the items are the adjoints of
    the caller's anti-dissipative arguments."""
    margin = _margins(stack)
    bad = margin < -DISSIPATIVE_RTOL * scale
    if bad.any():
        i = int(np.argmax(bad))
        what = "matrix" if single else f"matrix {i} of the stack"
        kind = "dissipative" if sign > 0 else "anti-dissipative"
        raise PreconditionError(
            f"{what} is not {kind}: extremal eigenvalue of the imaginary part is "
            f"{sign * margin[i]:.3e}, tolerance {DISSIPATIVE_RTOL:g} * ||T|| = "
            f"{DISSIPATIVE_RTOL * scale[i]:.3e}"
        )


def _logm(stack: np.ndarray, rel_tol: float, sign: int, single: bool) -> np.ndarray:
    """Logarithms of a stack (m, n, n), every item checked to be dissipative
    and invertible first, from one integral per STACK_ENTRIES entries."""
    check_tolerance("rel_tol", rel_tol)
    count, n = stack.shape[:2]
    if stack.size == 0:
        return np.zeros(stack.shape, dtype=np.complex128)
    svals = np.linalg.svd(stack, compute_uv=False)
    smax, smin = svals[:, 0], svals[:, -1]
    _require_dissipative(stack, np.maximum(smax, np.finfo(float).tiny), sign, single)
    cond = np.divide(smax, smin, out=np.full(count, np.inf), where=smin > 0.0)
    bad = cond > LOGM_COND_LIMIT
    if bad.any():
        i = int(np.argmax(bad))
        what = "matrix" if single else f"matrix {i} of the stack"
        raise PreconditionError(
            f"{what} is singular within working precision: condition estimate "
            f"{cond[i]:.3e} exceeds {LOGM_COND_LIMIT:.0e}"
        )
    batches = _batches(count, n * n, STACK_ENTRIES)
    pieces = [_half_line(stack[s], svals[s], rel_tol) for s in batches]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _half_line(stack: np.ndarray, svals: np.ndarray, rel_tol: float) -> np.ndarray:
    """The half-line integral for a checked stack with singular values
    ``svals`` (descending per item)."""
    count, n = stack.shape[:2]
    smax, smin = float(svals[:, 0].max()), float(svals[:, -1].min())
    lam_max = max(1.0, 4.0 * smax)
    try:
        # mu = scale * y; the power of two is exact and puts the fold within
        # a factor sqrt(2) of 1, so the tail panel keeps its digits
        scale = math.ldexp(1.0, round(math.log2(lam_max)))
        fold = lam_max / scale
        # every pole, mu = i*lambda for an eigenvalue of T or mu = i of the
        # reference term, has |mu| >= min(smin(T), 1): twice the head's length
        delta = 0.5 * min(smin, 1.0) / scale
        cells = math.ceil(math.log2(fold / delta))
    except (OverflowError, ZeroDivisionError):
        raise PreconditionError(
            f"the mesh of the quadrature logarithm is past the double range at "
            f"||T|| = {smax:.3e} and smin(T) = {smin:.3e}: the ratio "
            "2 max(1, 4||T||) / min(smin(T), 1) of its ends overflows"
        ) from None
    x_fold = delta + math.log(fold / delta)
    residue = np.eye(n, dtype=np.complex128) - stack  # the difference of resolvents
    # equals (T + i mu)^(-1) (I - T) / (1 + i mu), cancellation-free for T ~ I

    def integrand(xs):
        # head x <= delta: y = x; middle: y = delta * e^(x - delta), Jacobian
        # y; tail x > x_fold: mu = scale / (x - x_fold)
        head, tail = xs <= delta, xs > x_fold
        # the tail reads x_fold, so no exponential of it overflows
        y = np.where(head, xs, delta * np.exp(np.minimum(xs, x_fold) - delta))
        a = np.where(tail, xs - x_fold, 1.0)
        b = 1j * scale * np.where(tail, 1.0, y)
        shifted = np.multiply(
            a[:, None, None, None], stack, out=np.empty((xs.size, count, n, n), complex)
        )
        shifted.reshape(xs.size, count, -1)[:, :, :: n + 1] += b[:, None, None]
        out = np.linalg.solve(shifted, np.broadcast_to(residue, shifted.shape))
        out *= (scale * np.where(head | tail, 1.0, y) / (a + b))[:, None, None, None]
        return out

    # [0, delta], panels of width ln 2 in x (dyadic in mu) up to the fold,
    # then the folded tail; in x every pole of the middle part lies at least
    # pi/2 from the real axis
    steps = delta + math.log(2.0) * np.arange(cells)
    edges = [0.0, *steps[steps < x_fold].tolist(), x_fold, x_fold + 1.0 / fold]
    val, _ = integrate_adaptive(integrand, zip(edges[:-1], edges[1:]), rel_tol, MAX_PANELS)
    return -1j * val


def logm_dissipative(t, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Logarithm of an invertible dissipative matrix via the half-line
    resolvent integral; a stack (m, n, n) gives the stack of logarithms.

    Satisfies expm(log(T)) = T and 0 <= Im(log(T)) <= pi*I up to the
    quadrature tolerance ``rel_tol`` (finite and positive).
    """
    stack, single = _as_stack(t)
    out = _logm(stack, rel_tol, +1, single)
    return out[0] if single else out


def logm_antidissipative(s, rel_tol: float = DEFAULT_REL_TOL) -> np.ndarray:
    """Logarithm of an invertible anti-dissipative matrix (or of each matrix
    of a stack), defined as the adjoint of the dissipative logarithm of the
    adjoint."""
    stack, single = _as_stack(s)
    adj = _logm(stack.conj().swapaxes(-1, -2), rel_tol, -1, single).conj().swapaxes(-1, -2)
    return adj[0] if single else adj


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


def tr_log_det_bridge(a) -> BridgeResult:
    """Compare tr(log(I+A)) with log(det(I+A)) for (anti)dissipative I+A."""
    m = as_matrix(a)
    t = m + np.eye(m.shape[0], dtype=np.complex128)
    scale = max(float(np.linalg.norm(t, 2)), np.finfo(float).tiny)
    im_eigs = np.linalg.eigvalsh(imaginary_part(t))
    tol = DISSIPATIVE_RTOL * scale
    if im_eigs.size == 0 or im_eigs[0] >= -tol:
        lhs = trace(logm_dissipative(t))
    elif im_eigs[-1] <= tol:
        lhs = trace(logm_antidissipative(t))
    else:
        raise PreconditionError(
            "I + A is neither dissipative nor anti-dissipative within tolerance"
        )
    d = complex(np.linalg.det(t))
    if d == 0:
        raise PreconditionError("det(I + A) vanishes")
    rhs0 = scalar_log(d, Branch.LOG)
    k = int(round((lhs.imag - rhs0.imag) / (2.0 * math.pi)))
    return BridgeResult(trace_log=lhs, log_det=rhs0 + 2j * math.pi * k, winding=k)
