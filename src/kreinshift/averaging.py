"""Parameter averaging of spectral data along linear perturbation paths.

For V(s) = V0 + s*V1 on [s1, s2] the averaged perturbed spectral measure,
paired against a test function f, equals the pairing of f against the
increment of the shift function:

    int_s1^s2 ds tr(V1 * f(H0 + V(s)))  =  int f(lam) * dxi(lam) dlam.

The left side is a Gauss-Legendre quadrature in s; the right side is exact,
integrating f against the step representation of the counting difference
with closed-form antiderivatives.  For paths whose direction V1 is
indefinite the right side runs through a shifted base point W chosen so
that V(s) + W stays positive semidefinite on the whole interval (the shift
cancels in the increment, but its validity is asserted, mirroring how the
identity is actually established beyond sign-definite directions).

The operator-valued refinement handles rank-structured nonnegative
perturbations s*K*K directly: the s-average of K* E_{H(s)} K paired with f
equals the lam-integral of f against the shift operator of the pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .herglotz import shift_projection
from .matkit import (
    apply_spectral_function,
    as_matrix,
    eig_hermitian,
    frobenius,
    hermitian_part,
    positive_negative_parts,
    sign_factorization,
    solve_shifted,
    trace,
)
from .oplog import logm_dissipative
from .quadrature import integrate_piecewise
from .shift import (
    IDENTITY_REL_TOL,
    LAM_ABS_TOL,
    LAM_MAX_PANELS,
    LAM_REL_TOL,
    counting_steps,
    step_integral,
)

__all__ = [
    "PerturbationPath",
    "TestFunction",
    "averaged_pairing_lhs",
    "averaged_pairing_rhs",
    "derivative_identity_residual",
    "operator_average_residual",
    "operator_average_increment",
    "operator_increment_residual",
    "OperatorAverageReport",
]

# Gauss-Legendre nodes of the s-quadratures
S_NODES = 32
# step of the central difference in the derivative identity
FD_STEP = 1e-5


@dataclass(frozen=True)
class PerturbationPath:
    """Linear family V(s) = V0 + s*V1 on [s1, s2]; the derivative is the
    constant V1, so the path is trivially C^1 in every norm."""

    v0: np.ndarray
    v1: np.ndarray
    s1: float
    s2: float

    def __post_init__(self):
        object.__setattr__(self, "v0", hermitian_part(as_matrix(self.v0)))
        object.__setattr__(self, "v1", hermitian_part(as_matrix(self.v1)))
        if self.v0.shape != self.v1.shape:
            raise PreconditionError("path endpoints must share a dimension")
        if not self.s1 < self.s2:
            raise PreconditionError("require s1 < s2")

    def v(self, s: float) -> np.ndarray:
        return self.v0 + s * self.v1


@dataclass(frozen=True)
class TestFunction:
    """Real-valued pairing function with a closed-form antiderivative.

    kinds: "poly" (coeffs ascending), "gauss" (center, width), "imres"
    (imaginary part of the resolvent at a point in the upper half-plane).
    """

    __test__ = False  # not a pytest class, despite the name

    kind: str
    coeffs: tuple = ()
    center: float = 0.0
    width: float = 1.0
    z: complex = 1j

    @classmethod
    def polynomial(cls, coeffs) -> "TestFunction":
        coeffs = tuple(float(c) for c in coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise PreconditionError("polynomial coefficients must be finite")
        return cls(kind="poly", coeffs=coeffs)

    @classmethod
    def gaussian(cls, center: float, width: float) -> "TestFunction":
        center, width = float(center), float(width)
        if not (math.isfinite(center) and math.isfinite(width)):
            raise PreconditionError("gaussian center and width must be finite")
        if width <= 0:
            raise PreconditionError("gaussian width must be positive")
        return cls(kind="gauss", center=center, width=width)

    @classmethod
    def resolvent_im(cls, z: complex) -> "TestFunction":
        z = complex(z)
        if not cmath.isfinite(z):
            raise PreconditionError("resolvent point must be finite")
        if z.imag <= 0:
            raise PreconditionError("resolvent point must have positive imaginary part")
        return cls(kind="imres", z=z)

    def __call__(self, x: float) -> float:
        if self.kind == "poly":
            return float(np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs)))
        if self.kind == "gauss":
            u = (x - self.center) / self.width
            return float(math.exp(-0.5 * u * u))
        if self.kind == "imres":
            return float((1.0 / (x - self.z)).imag)
        raise PreconditionError(f"unknown test function kind {self.kind!r}")

    def antiderivative(self, x: float) -> float:
        if self.kind == "poly":
            ints = np.polynomial.polynomial.polyint(np.asarray(self.coeffs))
            return float(np.polynomial.polynomial.polyval(x, ints))
        if self.kind == "gauss":
            u = (x - self.center) / (self.width * math.sqrt(2.0))
            return float(self.width * math.sqrt(0.5 * math.pi) * math.erf(u))
        if self.kind == "imres":
            # d/dx arg(x - z) = Im(1/(x - z)) for Im z > 0
            return float(np.angle(x - self.z))
        raise PreconditionError(f"unknown test function kind {self.kind!r}")


def _gauss_legendre(a: float, b: float, n: int):
    xs, ws = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * xs, half * ws


def averaged_pairing_lhs(
    h0, path: PerturbationPath, f: TestFunction, s_nodes: int = S_NODES
) -> float:
    """s-quadrature of tr(V1 * f(H(s))) over the path interval.

    Exact (to roundoff) for polynomial f up to degree 2*s_nodes - 1, since
    the integrand is then itself a polynomial in s.
    """
    if s_nodes < 8:
        raise PreconditionError("s_nodes must be at least 8")
    h0 = as_matrix(h0)
    xs, ws = _gauss_legendre(path.s1, path.s2, s_nodes)
    acc = 0.0
    for s, w in zip(xs, ws):
        fh = apply_spectral_function(h0 + path.v(float(s)), f)
        acc += w * trace(path.v1 @ fh).real
    return float(acc)


def averaged_pairing_rhs(h0, path: PerturbationPath, f: TestFunction) -> float:
    """Exact pairing of f against the increment of the shift function
    between the path endpoints.

    Runs through the shifted base H0 - W with W = (s2-s1)*(V1)_- - V(s1)
    whenever V1 is indefinite; V(s) + W is then positive semidefinite on the
    whole interval (checked at the endpoints, which suffices for a linear
    path since the smallest eigenvalue is concave in s).
    """
    h0 = as_matrix(h0)
    scale = max(frobenius(path.v1), np.finfo(float).tiny)
    w1 = np.linalg.eigvalsh(path.v1)
    base = h0
    if w1.size and w1[0] < -1e-12 * scale and w1[-1] > 1e-12 * scale:
        _, v1_minus = positive_negative_parts(path.v1)
        shift = (path.s2 - path.s1) * v1_minus - path.v(path.s1)
        for s_end in (path.s1, path.s2):
            m = np.linalg.eigvalsh(hermitian_part(path.v(s_end) + shift))
            if m.size and m[0] < -1e-10 * max(frobenius(shift), scale, 1.0):
                raise PreconditionError(
                    "shifted perturbation failed to be positive semidefinite"
                )
        base = hermitian_part(h0 - shift)

    eigs_base = np.linalg.eigvalsh(base)
    eigs_end = np.linalg.eigvalsh(hermitian_part(h0 + path.v(path.s2)))
    eigs_start = np.linalg.eigvalsh(hermitian_part(h0 + path.v(path.s1)))
    k2, v2 = counting_steps(eigs_base, eigs_end)
    k1, v1 = counting_steps(eigs_base, eigs_start)
    val = step_integral(k2, v2, f.antiderivative) - step_integral(k1, v1, f.antiderivative)
    return float(np.real(val))


def derivative_identity_residual(h0, path: PerturbationPath, s: float, z: complex) -> float:
    """Residual of d/ds tr(log(phi(z, s))) = tr(V1 (H(s) - z)^(-1)).

    Valid for paths that stay positive semidefinite near s (shift the path
    first otherwise); the left side is a central finite difference (step
    FD_STEP) of the traced logarithm, the right an exact resolvent trace,
    so the two sides share no machinery.
    """
    z = complex(z)
    if z.imag == 0:
        raise PreconditionError("z must be off the real axis")
    h0 = as_matrix(h0)
    scale = max(frobenius(path.v(s)), 1.0)
    for s_probe in (s - FD_STEP, s, s + FD_STEP):
        w = np.linalg.eigvalsh(hermitian_part(path.v(s_probe)))
        if w.size and w[0] < -1e-10 * scale:
            raise PreconditionError(
                f"path is not positive semidefinite near s={s!r} "
                f"(min eigenvalue {w[0]:.3e}); shift the path first"
            )

    def tr_log(s_val: float) -> complex:
        fact = sign_factorization(path.v(s_val))
        k = fact.k  # n_minus is 0 up to rounding for a psd slice
        r = k.shape[1]
        if r == 0:
            return 0.0 + 0.0j
        phi = np.eye(r, dtype=np.complex128) + k.conj().T @ solve_shifted(h0, z, k)
        return trace(logm_dissipative(phi, IDENTITY_REL_TOL))

    fd = (tr_log(s + FD_STEP) - tr_log(s - FD_STEP)) / (2.0 * FD_STEP)
    rhs = trace(path.v1 @ solve_shifted(h0 + path.v(s), z, np.eye(h0.shape[0])))
    return float(abs(fd - rhs))


# ----------------------------------------------------------------------
# operator-valued averaging for V = s * K K*

def _xi_op_scaled(h0_eig, w, lams: np.ndarray, s: float) -> np.ndarray:
    """Shift operators of the pair (H0, H0 + s*KK*) at the points lams,
    stacked (m, r, r): the projections onto the negative spectral subspaces
    of I + s*K*(H0-lam)^(-1)K."""
    r = w.shape[1]
    denom = h0_eig - lams[:, None]
    hit = np.min(np.abs(denom), axis=-1) < 1e-300
    if hit.any():
        bad = float(lams[hit][0])
        raise PreconditionError(f"lambda={bad!r} is an eigenvalue of the base matrix")
    phi = np.eye(r, dtype=np.complex128) + s * (w.conj().T @ (w / denom[..., None]))
    return shift_projection(phi).projection


def _check_full_column_rank(k: np.ndarray) -> None:
    if k.shape[1] == 0:
        return
    s = np.linalg.svd(k, compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], np.finfo(float).tiny):
        raise PreconditionError("factor K must have full column rank")


@dataclass(frozen=True)
class OperatorAverageReport:
    residual: float
    lhs: np.ndarray
    rhs: np.ndarray


def _operator_pairing(h0, k, f: TestFunction, s1: float, s2: float) -> OperatorAverageReport:
    h0 = as_matrix(h0)
    k = np.asarray(k, dtype=np.complex128)
    if k.ndim == 1:
        k = k[:, None]
    if k.shape[0] != h0.shape[0]:
        raise PreconditionError("factor K must have as many rows as the base matrix")
    _check_full_column_rank(k)
    r = k.shape[1]
    if r == 0 or not np.any(k):
        z = np.zeros((r, r), dtype=np.complex128)
        return OperatorAverageReport(0.0, z, z)
    kk = hermitian_part(k @ k.conj().T)

    xs, ws = _gauss_legendre(s1, s2, S_NODES)
    lhs = np.zeros((r, r), dtype=np.complex128)
    for s, w in zip(xs, ws):
        fh = apply_spectral_function(h0 + float(s) * kk, f)
        lhs = lhs + w * (k.conj().T @ fh @ k)

    e0 = eig_hermitian(h0)
    w0 = e0.vectors.conj().T @ k
    ends = [np.linalg.eigvalsh(hermitian_part(h0 + s * kk)) for s in (s1, s2) if s != 0.0]
    breakpoints = np.unique(np.concatenate([e0.eigenvalues] + ends))

    def integrand(lams):
        inc = _xi_op_scaled(e0.eigenvalues, w0, lams, s2)
        if s1 != 0.0:
            inc = inc - _xi_op_scaled(e0.eigenvalues, w0, lams, s1)
        return np.array([f(float(lam)) for lam in lams])[:, None, None] * inc

    if breakpoints.size < 2:
        rhs = np.zeros((r, r), dtype=np.complex128)
    else:
        rhs, _ = integrate_piecewise(
            integrand, breakpoints, LAM_REL_TOL, LAM_MAX_PANELS, abs_tol=LAM_ABS_TOL
        )
    rhs = hermitian_part(rhs) if f.kind != "imres" else rhs
    return OperatorAverageReport(float(frobenius(lhs - rhs)), lhs, rhs)


def operator_average_residual(h0, k, f: TestFunction) -> OperatorAverageReport:
    """Frobenius residual of the operator averaging identity on [0, 1]:
    the s-average of K* f(H0 + s KK*) K against the lam-integral of
    f(lam) times the shift operator of (H0, H0 + KK*)."""
    return _operator_pairing(h0, k, f, 0.0, 1.0)


def operator_increment_residual(
    h0, k, s1: float, s2: float, f: TestFunction
) -> OperatorAverageReport:
    """Same pairing restricted to [s1, s2], checked against the increment of
    the scaled shift operators."""
    if not s1 < s2:
        raise PreconditionError("require s1 < s2")
    return _operator_pairing(h0, k, f, s1, s2)


def operator_average_increment(h0, k, s1: float, s2: float, lam: float) -> np.ndarray:
    """Increment of the scaled shift operator between coupling strengths:
    Xi(lam, s2) - Xi(lam, s1) for the pairs (H0, H0 + s*KK*).

    Hermitian with eigenvalues in [-1, 1] up to roundoff; vanishes when
    s1 = s2 and reduces to the plain shift operator when s1 = 0.
    """
    h0 = as_matrix(h0)
    k = np.asarray(k, dtype=np.complex128)
    if k.ndim == 1:
        k = k[:, None]
    r = k.shape[1]
    if s1 == s2 or r == 0:
        return np.zeros((r, r), dtype=np.complex128)
    e0 = eig_hermitian(h0)
    w0 = e0.vectors.conj().T @ k
    lams = np.array([float(lam)])
    out = _xi_op_scaled(e0.eigenvalues, w0, lams, float(s2))
    if s1 != 0.0:
        out = out - _xi_op_scaled(e0.eigenvalues, w0, lams, float(s1))
    return out[0]
