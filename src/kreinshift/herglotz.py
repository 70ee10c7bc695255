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
nearest eigenvalue of the block's pair, (H0, H+) for the + block and
(H+, H) for the - block, where its transfer matrix has its poles and its
singular points: the expansion in eps holds for eps well below d, so a
schedule that starts above d spends its steps before the expansion holds.
The logarithms of the whole schedule are one stacked logarithm (which
``oplog`` cuts into pieces when the block is large), scanned in order; if
that stack raises, the heights are taken again one at a time, so the route
raises only at a height that the scan reaches.
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
    _require_finite,
    as_matrix,
    eig_hermitian,
    frobenius,
    hermitian_part,
    is_hermitian,
    sign_factorization,
)

__all__ = [
    "SignBlock",
    "ConvergenceRecord",
    "HerglotzFamily",
    "ShiftProjection",
    "shift_projection",
    "refuse_singular",
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

    H0, H+ = H0 + V+ and H = H0 + V are decomposed by one stacked
    ``eig_hermitian`` call; a pair whose sums overflow is refused.  The
    sorted joint spectra and their diameter, which set the exclusion zones,
    are computed once there too (a pair whose diameter overflows is
    refused), as is one table of block facts that every transfer matrix
    (``evaluate_block``) and inverse (``evaluate_inverse``), each block's
    zones (``near_spectrum``), pair (``block_spectra``) and logarithm
    (``block_log``) read.  Instances are immutable and thread-safe.  The
    factorization fixes the auxiliary block sizes n_plus and n_minus; either
    block may be empty, in which case the corresponding transfer matrix is
    0x0 with trace zero.
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
        kp = k[:, : factorization.n_plus]
        self.v_plus, self.v = hermitian_part(kp @ kp.conj().T), factorization.reconstruct()
        # exactly Hermitian sums; one that overflows is refused, unwarned
        with np.errstate(over="ignore", invalid="ignore"):
            self.h_plus, self.h = self.h0 + self.v_plus, self.h0 + self.v
        if not (np.isfinite(self.h_plus).all() and np.isfinite(self.h).all()):
            raise PreconditionError("H0 + V overflows: its entries are not finite")
        eig = eig_hermitian(np.stack([self.h0, self.h_plus, self.h]))
        self.eig0, self.eig_plus, self.eig_h = (
            HermitianEig(w, u) for w, u in zip(eig.eigenvalues, eig.vectors)
        )
        # per base H0, H+, H: its eigenvalues E and W = U*K, so that
        # K*(base - z)^(-1) K = W*(E - z)^(-1) W
        self._bases = tuple(zip(eig.eigenvalues, eig.vectors.conj().swapaxes(-1, -2) @ k))
        # the table, per block (None: the full block): its columns of K, the
        # pair of bases whose shift it carries (0: H0, 1: H+, 2: H), and the
        # signs D of the identity part and s of the sandwich of ``_transfer``
        npl, j = factorization.n_plus, factorization.j_signs
        self._blocks = {
            None: (slice(None), 0, 2, j, 1.0),
            SignBlock.PLUS: (slice(None, npl), 0, 1, j[:npl], 1.0),
            SignBlock.MINUS: (slice(npl, None), 1, 2, -j[npl:], -1.0),
        }
        s = self._spectra = np.sort(eig.eigenvalues.ravel())
        s.setflags(write=False)
        # Python floats, so that a difference past the double range is inf
        # without a warning
        diam = float(s[-1]) - float(s[0]) if s.size else 0.0
        if not math.isfinite(diam):
            raise PreconditionError("the spectral diameter of H0, H+ and H overflows")
        self._diameter = diam if diam > 0 else max(1.0, float(np.max(np.abs(s), initial=0.0)))

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
        return cls(h0, SignedFactorization(k=root, n_plus=e.dim))

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
        """The eigenvalues of H0, H+ and H together, sorted (read-only)."""
        return self._spectra

    def spectral_diameter(self) -> float:
        return self._diameter

    def exclusion_width(self) -> float:
        return EXCLUSION_RTOL * self._diameter

    def _row(self, which: SignBlock) -> tuple:
        """The table row of a sign block; anything else is refused."""
        if not isinstance(which, SignBlock):
            raise PreconditionError(f"which must be a SignBlock, not {which!r}")
        return self._blocks[which]

    def near_spectrum(self, lam, which: SignBlock | None = None) -> np.ndarray:
        """Whether each point of lam is not clear of the exclusion zones of the
        block's poles, the start of its pair (H0 for PLUS, H+ for MINUS), or
        of all three spectra (None); a point not finite is never clear."""
        eigs = self._spectra if which is None else self._bases[self._row(which)[1]][0]
        lam = np.asarray(lam, dtype=float)
        clear = np.all(np.abs(eigs - lam[..., None]) > self.exclusion_width(), axis=-1)
        return ~(clear & np.isfinite(lam))

    def check_off_spectrum(self, lam, which: SignBlock | None = None) -> None:
        """Raise if lam (a point or an array of points) is not finite or
        sits inside an exclusion zone; see ``near_spectrum``."""
        near = self.near_spectrum(lam, which)
        if near.any():
            x = float(np.asarray(lam, dtype=float)[near][0])
            where = (
                f"lies within the exclusion zone ({self.exclusion_width():.3e}) of an eigenvalue"
                if math.isfinite(x) else "is not finite"
            )
            raise PreconditionError(f"lambda={x!r} {where}")

    def block_spectra(self, which: SignBlock) -> tuple:
        """The spectra (start, end) of the pair whose shift the block
        carries: (H0, H+) for PLUS, (H+, H) for MINUS."""
        _, start, end, _, _ = self._row(which)
        return self._bases[start][0], self._bases[end][0]

    def block_log(self, which: SignBlock, z, rel_tol: float | None = None) -> np.ndarray:
        """Logarithm of ``evaluate_block(which, z)``: dissipative where the
        row's sandwich is added (PLUS), anti-dissipative where subtracted;
        ``rel_tol`` is the quadrature tolerance, ``oplog.DEFAULT_REL_TOL``
        when None.  The logarithms are read from ``oplog`` at call time,
        so the module is imported only by a caller that takes one."""
        from . import oplog

        row = self._row(which)
        take_log = oplog.logm_dissipative if row[4] > 0 else oplog.logm_antidissipative
        if rel_tol is None:
            rel_tol = oplog.DEFAULT_REL_TOL
        return take_log(self.evaluate_block(which, z), rel_tol)

    # ------------------------------------------------------------------
    def _transfer(self, which: SignBlock | None, z, inverse: bool = False) -> np.ndarray:
        """The transfer matrix at z of the block ``which`` (None: the full
        block), D + s W*(E - z)^(-1) W on the columns of W of its row in the
        start of its pair, or its inverse D - s (W D)*(E - z)^(-1) (W D) in
        the end (scaling by the signs D is exact).  A scalar z gives one
        matrix, a 1-D array of m points the stack (m, r, r).  A z that is
        not finite, or where E - z vanishes, is refused."""
        cols, start, end, d, s = self._blocks[None] if which is None else self._row(which)
        eigs, w = self._bases[end if inverse else start]
        w = w[:, cols] * d if inverse else w[:, cols]
        z = np.asarray(z, dtype=np.complex128)
        _require_finite("z", z)
        denom = eigs - z[..., None]
        if denom.size and np.min(np.abs(denom)) < 1e-300:
            raise PreconditionError("z is an eigenvalue of the resolvent base")
        q = w.conj().T @ (w / denom[..., None])
        ident = np.diag(d.astype(np.complex128))
        return ident - q if (s < 0) != inverse else ident + q

    def evaluate_block(self, which: SignBlock | None, z) -> np.ndarray:
        """The transfer matrix of a block at z: phi = J + K*(H0 - z)^(-1) K
        on the full block (None); phi_plus = I+ + K+*(H0 - z)^(-1) K+ for
        PLUS and phi_minus~ = I- - K-*(H+ - z)^(-1) K- for MINUS, whose
        boundary values carry the shift data of the pairs (H0, H+) and
        (H+, H)."""
        return self._transfer(which, z)

    def evaluate_inverse(self, which: SignBlock | None, z) -> np.ndarray:
        """The closed-form inverse of ``evaluate_block(which, z)``, an
        independent cross-check: J - J K*(H - z)^(-1) K J (None),
        I+ - K+*(H+ - z)^(-1) K+ (PLUS), I- + K-*(H - z)^(-1) K- (MINUS)."""
        return self._transfer(which, z, inverse=True)


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


def refuse_singular(singular, lams) -> None:
    """Raise unless no boundary matrix of a stack, taken at the points lams,
    is flagged ``singular`` (per matrix, as ``shift_projection`` flags it):
    there the direct route has no value."""
    if singular.any():
        lam = float(np.asarray(lams, dtype=float)[singular][0])
        raise PreconditionError(
            f"boundary matrix is singular at lambda={lam!r}; "
            "the direct route is unavailable"
        )


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
    _, _, _, d, s = fam._row(which)
    fam.check_off_spectrum(lam, which)
    if not d.size:
        return np.zeros((0, 0), dtype=np.complex128), ConvergenceRecord("empty", 0, 0.0, True)

    if route == "direct":
        # spectral calculus: log|M| + i*pi*P with P the shift projection of
        # the Hermitian boundary matrix M (conjugated on the - block)
        sp = shift_projection(fam.evaluate_block(which, lam)[None])
        refuse_singular(sp.singular, [lam])
        u = sp.vectors[0]
        log_abs = (u * np.log(np.abs(sp.eigenvalues[0]))) @ u.conj().T
        val = log_abs + (s * math.pi * 1j) * sp.projection[0]
        return val, ConvergenceRecord("direct", 0, 0.0, True)

    eps0 = min(EPS0, float(np.min(np.abs(np.concatenate(fam.block_spectra(which)) - lam))))
    heights = eps0 * EPS_FACTOR ** np.arange(EPS_STEPS)
    try:
        logs = fam.block_log(which, lam + 1j * heights)
    except KreinShiftError:
        logs = (fam.block_log(which, lam + 1j * eps) for eps in heights)
    prev = prev_rich = None
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
