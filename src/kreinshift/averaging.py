"""Parameter averaging of spectral data along linear perturbation paths.

For V(s) = V0 + s*V1 on [s1, s2] the averaged perturbed spectral measure,
paired against a test function f, equals the pairing of f against the
increment of the shift function:

    int_s1^s2 ds tr(V1 * f(H0 + V(s)))  =  int f(lam) * dxi(lam) dlam.

The left side is a Gauss-Legendre quadrature in s; the right side is exact,
integrating f against the step representation of the counting difference
N_start - N_end of the endpoint spectra with closed-form antiderivatives.
That difference is the increment xi(s2) - xi(s1) of the shift functions
from any common base, so the direction V1 may be indefinite and no base
enters the computation.

The operator-valued refinement handles rank-structured perturbations
s*K*K* with a coupling s of either sign: the s-average of K* E_{H(s)} K
paired with f equals the lam-integral of f against the increment of the
shift operators Xi(lam, s).  Each Xi(lam, s) comes from the
``HerglotzFamily`` with factor sqrt|s|*K and J = sign(s): its + block
operator when s > 0, minus its - block operator when s < 0.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PreconditionError
from .herglotz import HerglotzFamily, SignBlock
from .matkit import (
    SignedFactorization,
    _require_finite,
    apply_spectral_function,
    as_matrix,
    frobenius,
    hermitian_part,
    solve_shifted,
    trace,
)
from .shift import (
    IDENTITY_REL_TOL,
    _shift_integral,
    counting_steps,
    step_integral,
    xi_operator,
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
        _require_finite("s", [self.s1, self.s2])
        if not self.s1 < self.s2:
            raise PreconditionError("require s1 < s2")

    def v(self, s: float) -> np.ndarray:
        return self.v0 + s * self.v1


@dataclass(frozen=True)
class TestFunction:
    """Real-valued pairing function f (``value``, also the call) with a
    closed-form antiderivative F, F' = f (``antiderivative``).

    The factories bind both once: ``polynomial`` (coefficients ascending),
    ``gaussian`` (center, width) and ``resolvent_im`` (the imaginary part
    of the resolvent at a point in the upper half-plane).
    """

    __test__ = False  # not a pytest class, despite the name

    value: Callable[[float], float]
    antiderivative: Callable[[float], float]

    @classmethod
    def polynomial(cls, coeffs) -> "TestFunction":
        c = np.asarray([float(x) for x in coeffs])
        if not c.size:
            raise PreconditionError("a polynomial needs at least one coefficient")
        if not np.isfinite(c).all():
            raise PreconditionError("polynomial coefficients must be finite")
        ints = np.polynomial.polynomial.polyint(c)
        polyval = np.polynomial.polynomial.polyval
        return cls(lambda x: float(polyval(x, c)), lambda x: float(polyval(x, ints)))

    @classmethod
    def gaussian(cls, center: float, width: float) -> "TestFunction":
        center, width = float(center), float(width)
        if not (math.isfinite(center) and math.isfinite(width)):
            raise PreconditionError("gaussian center and width must be finite")
        if width <= 0:
            raise PreconditionError("gaussian width must be positive")

        def value(x: float) -> float:
            u = (x - center) / width
            return float(math.exp(-0.5 * u * u))

        def antiderivative(x: float) -> float:
            u = (x - center) / (width * math.sqrt(2.0))
            return float(width * math.sqrt(0.5 * math.pi) * math.erf(u))

        return cls(value, antiderivative)

    @classmethod
    def resolvent_im(cls, z: complex) -> "TestFunction":
        z = complex(z)
        if not cmath.isfinite(z):
            raise PreconditionError("resolvent point must be finite")
        if z.imag <= 0:
            raise PreconditionError("resolvent point must have positive imaginary part")
        # d/dx arg(x - z) = Im(1/(x - z)) for Im z > 0
        return cls(lambda x: float((1.0 / (x - z)).imag), lambda x: float(np.angle(x - z)))

    def __call__(self, x: float) -> float:
        return self.value(x)


@functools.lru_cache(maxsize=16)
def _legendre_rule(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n."""
    xs, ws = np.polynomial.legendre.leggauss(n)
    xs.setflags(write=False)
    ws.setflags(write=False)
    return xs, ws


def _gauss_legendre(a: float, b: float, n: int):
    xs, ws = _legendre_rule(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * xs, half * ws


def averaged_pairing_lhs(h0, path: PerturbationPath, f: TestFunction) -> float:
    """s-quadrature of tr(V1 * f(H(s))) over the path interval on S_NODES
    Gauss-Legendre nodes.

    Exact (to roundoff) for polynomial f up to degree 2*S_NODES - 1, since
    the integrand is then itself a polynomial in s.
    """
    h0 = as_matrix(h0)
    xs, ws = _gauss_legendre(path.s1, path.s2, S_NODES)
    fhs = apply_spectral_function(np.stack([h0 + path.v(float(s)) for s in xs]), f)
    acc = 0.0
    for w, prod in zip(ws, path.v1 @ fhs):
        acc += w * trace(prod).real
    return float(acc)


def averaged_pairing_rhs(h0, path: PerturbationPath, f: TestFunction) -> float:
    """Exact pairing of f against the increment of the shift function
    between the path endpoints: the counting difference N_start - N_end of
    the spectra of H0 + V(s1) and H0 + V(s2), integrated against f."""
    h0 = as_matrix(h0)
    eigs_start = np.linalg.eigvalsh(hermitian_part(h0 + path.v(path.s1)))
    eigs_end = np.linalg.eigvalsh(hermitian_part(h0 + path.v(path.s2)))
    knots, values = counting_steps(eigs_start, eigs_end)
    return float(np.real(step_integral(knots, values, f.antiderivative)))


def derivative_identity_residual(h0, path: PerturbationPath, s: float, z: complex) -> float:
    """Residual of d/ds tr(log(phi(z, s))) = tr(V1 (H(s) - z)^(-1)).

    Valid for paths that stay positive semidefinite near s (shift the path
    first otherwise); the left side is a central finite difference (step
    FD_STEP) of the traced logarithm, the right an exact resolvent trace,
    so the two sides share no machinery.
    """
    z = complex(z)
    _require_finite("s", s)
    _require_finite("z", z)
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
        # a psd slice has an empty - block up to rounding
        fam = HerglotzFamily.from_potential(h0, path.v(s_val))
        return trace(fam.block_log(SignBlock.PLUS, z, IDENTITY_REL_TOL))

    fd = (tr_log(s + FD_STEP) - tr_log(s - FD_STEP)) / (2.0 * FD_STEP)
    rhs = trace(path.v1 @ solve_shifted(h0 + path.v(s), z, np.eye(h0.shape[0])))
    return float(abs(fd - rhs))


# ----------------------------------------------------------------------
# operator-valued averaging for V = s * K K*

def _checked_factor(h0: np.ndarray, k, *params: float) -> np.ndarray:
    """K as an (n, r) complex array, refused unless it has as many rows as
    H0, finite entries and full column rank, and every coupling or point of
    ``params`` is finite."""
    k = np.asarray(k, dtype=np.complex128)
    if k.ndim == 1:
        k = k[:, None]
    if k.ndim != 2 or k.shape[0] != h0.shape[0]:
        raise PreconditionError("factor K must have as many rows as the base matrix")
    if not np.all(np.isfinite(k)):
        raise PreconditionError("factor K must have finite entries")
    if not all(math.isfinite(p) for p in params):
        raise PreconditionError("couplings and lambda must be finite")
    if k.shape[1]:
        sv = np.linalg.svd(k, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], np.finfo(float).tiny):
            raise PreconditionError("factor K must have full column rank")
    return k


def _endpoint_terms(h0, k, s1: float, s2: float) -> list:
    """(family, sign block, weight) per nonzero end s of [s1, s2]: the
    family of (H0, H0 + s*KK*) with factor sqrt|s|*K and J = sign(s), whose
    shift operator Xi(lam, s) is its + block operator when s > 0 and minus
    its - block operator when s < 0.  The weight carries that sign and the
    sign of the end in Xi(lam, s2) - Xi(lam, s1)."""
    r = k.shape[1]
    terms = []
    for s, end in ((s2, 1.0), (s1, -1.0)):
        if s == 0.0:
            continue
        sign = math.copysign(1.0, s)
        fam = HerglotzFamily(h0, SignedFactorization(math.sqrt(abs(s)) * k, r if s > 0 else 0))
        which = SignBlock.PLUS if s > 0 else SignBlock.MINUS
        terms.append((fam, which, end * sign))
    return terms


@dataclass(frozen=True)
class OperatorAverageReport:
    residual: float
    lhs: np.ndarray
    rhs: np.ndarray


def _operator_pairing(h0, k, f: TestFunction, s1: float, s2: float) -> OperatorAverageReport:
    h0 = as_matrix(h0)
    k = _checked_factor(h0, k, s1, s2)
    r = k.shape[1]
    if r == 0:
        z = np.zeros((0, 0), dtype=np.complex128)
        return OperatorAverageReport(0.0, z, z)
    kk = hermitian_part(k @ k.conj().T)

    xs, ws = _gauss_legendre(s1, s2, S_NODES)
    fhs = apply_spectral_function(np.stack([h0 + float(s) * kk for s in xs]), f)
    lhs = np.zeros((r, r), dtype=np.complex128)
    for w, sandwich in zip(ws, k.conj().T @ fhs @ k):
        lhs = lhs + w * sandwich

    # Xi(lam, s2) - Xi(lam, s1) against f; a coupling too small to move any
    # eigenvalue leaves a single breakpoint and a zero integral
    rhs = hermitian_part(_shift_integral(
        _endpoint_terms(h0, k, s1, s2),
        lambda lams: np.array([f(float(lam)) for lam in lams]),
    ))
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
    the scaled shift operators; either coupling may be negative."""
    if not s1 < s2:
        raise PreconditionError("require s1 < s2")
    return _operator_pairing(h0, k, f, s1, s2)


def operator_average_increment(h0, k, s1: float, s2: float, lam: float) -> np.ndarray:
    """Increment of the scaled shift operator between coupling strengths:
    Xi(lam, s2) - Xi(lam, s1) for the pairs (H0, H0 + s*KK*), s of either
    sign, each read by ``xi_operator``.

    Hermitian with eigenvalues in [-1, 1] up to roundoff; vanishes when
    s1 = s2 and reduces to the plain shift operator when s1 = 0.  Raises
    PreconditionError inside an exclusion zone of H0 and where the boundary
    matrix of either end is singular, at an eigenvalue of H0 + s*KK*
    among them.
    """
    h0 = as_matrix(h0)
    k = _checked_factor(h0, k, s1, s2, lam)
    r = k.shape[1]
    if s1 == s2 or r == 0:
        return np.zeros((r, r), dtype=np.complex128)
    terms = _endpoint_terms(h0, k, s1, s2)
    return sum(w * xi_operator(fam, which, lam) for fam, which, w in terms)
