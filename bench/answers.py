"""Answer checks made apart from the program.

Every check returns ``(attempted, failed)`` for the operations it covers.
Ground truth comes from the benchmark's own ``numpy.linalg.eigvalsh``
counts and its own matrix exponential; nothing here calls kreinshift.

    xi       = N(H0) - N(H0 + V)
    xi_plus  = N(H0) - N(H0 + V+)
    xi_minus = N(H0 + V) - N(H0 + V+)

where N counts eigenvalues <= lambda and V+ is the positive spectral part
of V, known from the way the benchmark built V.  ``xi_minus`` follows the
program's documented convention xi = xi_plus - xi_minus: it is the trace of
the - block shift operator, which lies in [0, 1] pointwise, so it is
nonnegative.
"""

from __future__ import annotations

import math
import re

import numpy as np

XI_TOL = 1e-6
EIG_TOL = 1e-6
LOGM_TOL = 1e-8

XI_HEADER = [
    "lambda", "xi", "xi_plus", "xi_minus", "xi_oracle", "xi_det",
    "xiop_plus_1", "xiop_plus_2", "xiop_plus_3",
    "xiop_minus_1", "xiop_minus_2", "xiop_minus_3", "converged",
]
SUITES = ("logm", "herglotz", "trace", "chain", "average", "op-average", "example39")


class Truth:
    """Eigenvalue counts of H0, H0 + V+ and H0 + V for one pair."""

    def __init__(self, pair):
        self.e0 = np.linalg.eigvalsh(pair.h0)
        self.ep = np.linalg.eigvalsh(pair.h0 + pair.v_plus)
        self.eh = np.linalg.eigvalsh(pair.h0 + pair.v)
        self.spectra = np.concatenate([self.e0, self.ep, self.eh])
        self.scale = max(float(self.spectra.max() - self.spectra.min()), 1.0)

    @staticmethod
    def _count(eigs, lam) -> int:
        return int(np.searchsorted(eigs, lam, side="right"))

    def clear(self, lam: float) -> bool:
        """True when lam is far enough from every eigenvalue that the counts
        cannot depend on roundoff in either eigensolver."""
        return math.isfinite(lam) and float(np.min(np.abs(self.spectra - lam))) > 1e-9 * self.scale

    def xi(self, lam: float) -> tuple[int, int, int]:
        n0 = self._count(self.e0, lam)
        np_ = self._count(self.ep, lam)
        nh = self._count(self.eh, lam)
        return n0 - nh, n0 - np_, nh - np_


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def _in_unit_interval(vals) -> bool:
    return all(math.isfinite(x) and -EIG_TOL <= x <= 1.0 + EIG_TOL for x in vals)


def point_ok(truth: Truth, lam, xi, xi_plus, xi_minus, eigs, converged, extra=()) -> bool:
    """One grid point: the shift function and its two halves against the
    counts, each further column in ``extra`` against xi, and every
    shift-operator eigenvalue in [0, 1]."""
    lam = float(lam)
    if not (converged and truth.clear(lam)):
        return False
    t, tp, tm = truth.xi(lam)
    return (
        _close(xi, t, XI_TOL)
        and _close(xi_plus, tp, XI_TOL)
        and _close(xi_minus, tm, XI_TOL)
        and all(_close(x, t, XI_TOL) for x in extra)
        and _in_unit_interval(eigs)
    )


def check_xi_csv(text: str, truth: Truth) -> tuple[int, int]:
    """The CSV of ``kreinshift xi``: one operation per row; a malformed
    document counts as one failed operation."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != XI_HEADER or len(lines) < 2:
        return 1, 1
    failed = 0
    for line in lines[1:]:
        cells = line.split(",")
        try:
            if len(cells) != len(XI_HEADER):
                raise ValueError(line)
            lam, xi, xp, xm, xo, xd = (float(c) for c in cells[:6])
            eigs = [float(c) for c in cells[6:12] if c != ""]
            ok = point_ok(truth, lam, xi, xp, xm, eigs, cells[12] == "1", (xo, xd))
        except ValueError:
            ok = False
        failed += not ok
    return len(lines) - 1, failed


def check_profile(prof, truth: Truth) -> tuple[int, int]:
    """A ShiftProfile computed without the determinant route: one operation
    per grid point."""
    failed = 0
    conv = prof.converged
    for i, lam in enumerate(prof.grid):
        eigs = list(prof.xi_op_plus_eigs[i]) + list(prof.xi_op_minus_eigs[i])
        ok = point_ok(
            truth, lam, prof.xi[i], prof.xi_plus[i], prof.xi_minus[i], eigs,
            bool(conv[i]), (prof.xi_oracle[i],),
        )
        failed += not ok
    return len(prof.grid), failed


# ----------------------------------------------------------------------
# logarithms

def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a Taylor series; the
    scaled argument has norm <= 1/2, where 24 terms reach double precision."""
    a = np.asarray(a, dtype=np.complex128)
    norm = float(np.linalg.norm(a, 1))
    s = max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2.0 ** s)
    eye = np.eye(a.shape[0], dtype=np.complex128)
    out = eye.copy()
    term = eye.copy()
    for k in range(1, 25):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _im_eigs(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((m - m.conj().T) / 2j)


def logm_ok(t: np.ndarray, log_t: np.ndarray) -> bool:
    """exp(L) = T to 1e-8 relative, and 0 <= Im L <= pi to 1e-8."""
    if not np.all(np.isfinite(log_t)):
        return False
    resid = np.linalg.norm(expm(log_t) - t) / max(np.linalg.norm(t), 1e-300)
    im = _im_eigs(log_t)
    return bool(resid <= LOGM_TOL and im[0] >= -LOGM_TOL and im[-1] <= math.pi + LOGM_TOL)


def eps_value_ok(truth: Truth, lam: float, plus: bool, log_b, rec) -> bool:
    """A boundary value from the eps route: +tr Im L / pi on the + block
    equals xi_plus, -tr Im L / pi on the - block equals xi_minus."""
    if rec.route != "eps" or not rec.converged or not truth.clear(lam):
        return False
    _, tp, tm = truth.xi(lam)
    val = float(np.trace(log_b).imag) / math.pi
    return _close(val, tp, XI_TOL) if plus else _close(-val, tm, XI_TOL)


# ----------------------------------------------------------------------
# check all

_SUITE_HEAD = re.compile(r"^suite (\S+) \(seed (-?\d+)\)$")
_SUITE_TAIL = re.compile(r"^suite (\S+): (PASS|FAIL)$")
_CHECK_PASS = re.compile(r" \(bound [^)]*\) PASS(  \[.*\])?$")


def check_report(text: str, returncode: int, seed: int) -> tuple[int, int]:
    """The report of ``kreinshift check all``: one operation per check line,
    each must end in PASS.  A missing suite, a bad exit code or a missing
    ``overall: PASS`` adds one failed operation."""
    lines = text.splitlines()
    checks = [ln for ln in lines if ln.startswith("  ")]
    failed = sum(1 for ln in checks if not _CHECK_PASS.search(ln))
    heads = [m.group(1) for m in map(_SUITE_HEAD.match, lines) if m and int(m.group(2)) == seed]
    tails = [m.groups() for m in map(_SUITE_TAIL.match, lines) if m]
    whole = (
        returncode == 0
        and tuple(heads) == SUITES
        and tails == [(s, "PASS") for s in SUITES]
        and lines[-1:] == ["overall: PASS"]
    )
    if not whole:
        return len(checks) + 1, failed + 1
    return len(checks), failed
