"""Spectral shift operators and the spectral shift function.

Three independent routes to the shift function of a pair (H0, H0 + V):

* operator route: traces, that is ranks, of the boundary-value shift
  projections obtained from the imaginary parts of the block logarithms
  (the primary output, since it alone yields the operators themselves);
* determinant route: the tracked phase of det(I + V (H0 - z)^(-1)) as
  z = lambda + i*eta descends to the real axis, evaluated through Sylvester's
  identity as det(J) det(phi(z)) from the spectrum of H0 and the r x r
  transfer matrix alone;
* counting route: the difference of eigenvalue counting functions, exact
  in finite dimensions and used as ground truth throughout.

Also here: the trace-formula and trace-identity residuals, chain rule and
monotonicity checks, the 2x2 worked example showing that the shift
*operator* is not monotone, and grid utilities that keep evaluation points
out of the exclusion zones around eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, PreconditionError
from .herglotz import HerglotzFamily, SignBlock, refuse_singular, shift_projection
from .matkit import (
    _batches,
    _require_finite,
    _sorted_unique,
    as_matrix,
    eig_hermitian,
    frobenius,
    hermitian_part,
    imaginary_part,
    trace,
    trace_norm,
)

__all__ = [
    "ShiftProfile",
    "TraceIdentityReport",
    "ChainReport",
    "ExampleReport",
    "xi_operator",
    "xi_at",
    "xi_counting_oracle",
    "xi_via_det",
    "counting_steps",
    "step_integral",
    "trace_formula_residual",
    "trace_identity_checks",
    "chain_and_monotonicity",
    "example_3_9",
    "herglotz_reconstruction_residual",
    "snap_grid",
    "auto_grid",
    "safe_grid",
    "compute_profile",
]

SNAP_RTOL = 1e-6
# bytes of one stacked (points, dim, block) complex temporary of the batched
# operator route; grids are evaluated in chunks that stay under it
PROFILE_CHUNK_BYTES = 1 << 18
# fewest heights per batched determinant of the determinant route, about
# one point's ladder, whatever PROFILE_CHUNK_BYTES gives
DET_CHUNK_MIN = 64
# bisections of one point's path after which the determinant route gives up
DET_MAX_REFINEMENTS = 2000
# quadrature tolerance of the logarithms in the finite-difference identities
IDENTITY_REL_TOL = 1e-13
# padding of the spectral hull on the grids, relative to its diameter
GRID_MARGIN = 0.05


# ----------------------------------------------------------------------
# operator route


def _chunks(fam: HerglotzFamily, count: int) -> list:
    """Slices of ``count`` points whose stacked (points, dim, block)
    temporaries stay under PROFILE_CHUNK_BYTES."""
    return _batches(count, 16 * fam.dim * max(fam.n_plus, fam.n_minus, 1), PROFILE_CHUNK_BYTES)


def _ranks(fam: HerglotzFamily, lams: np.ndarray) -> tuple:
    """Ranks of the + and - shift operators at each point of the 1-D array
    lams, and whether either boundary matrix there is flagged singular:
    each block's exclusion-zone check (H0 for +, H+ for -), then one batched
    ``shift_projection`` per block per ``_chunks`` slice.  A flagged point
    has no rank; callers move it or refuse it (``refuse_singular``)."""
    for which in SignBlock:
        fam.check_off_spectrum(lams, which)
    cols = []
    for s in _chunks(fam, lams.size):
        plus, minus = (shift_projection(fam.evaluate_block(b, lams[s])) for b in SignBlock)
        cols.append((plus.rank, minus.rank, plus.singular | minus.singular))
    return tuple(np.concatenate(col) for col in zip(*cols))


def xi_operator(fam: HerglotzFamily, which: SignBlock, lam: float) -> np.ndarray:
    """Shift operator of the pair (H0, H+) (PLUS) or (H+, H) (MINUS) at lam:
    the orthogonal projection onto the negative eigenspace of the boundary
    matrix.  Raises PreconditionError inside the zones of its poles (H0 for
    PLUS, H+ for MINUS) and where it is singular, and a which that is not a
    SignBlock (the full block has no shift operator)."""
    fam._row(which)  # refuses None, which evaluate_block takes
    lams = np.array([float(lam)])
    fam.check_off_spectrum(lams, which)
    sp = shift_projection(fam.evaluate_block(which, lams))
    refuse_singular(sp.singular, lams)
    return sp.projection[0]


def xi_at(fam: HerglotzFamily, lam):
    """Shift function via the operator route: the rank of the + projection
    minus that of the - projection (``_ranks``), an exact integer held as a
    float.  A scalar lam gives a float; an array of points gives the array
    of values.  Raises PreconditionError inside an exclusion zone of H0 or
    H+ and at a point where a boundary matrix is singular."""
    lams = np.asarray(lam, dtype=float).ravel()
    plus, minus, singular = _ranks(fam, lams)
    refuse_singular(singular, lams)
    vals = (plus - minus).astype(float)
    return float(vals[0]) if np.ndim(lam) == 0 else vals.reshape(np.shape(lam))


# ----------------------------------------------------------------------
# counting route

def _refuse_for_counting(fam: HerglotzFamily, name: str, points) -> None:
    """Refuse points, real or complex, that are not finite or lie within
    1e-12 of the spectral diameter of an eigenvalue of H0 or H, the spectra
    the counting route reads; apart from ``near_spectrum``, so that the
    route does not depend on the exclusion zones of the others."""
    points = np.asarray(points)
    _require_finite(name, points)
    eigs = np.concatenate([fam.eig0.eigenvalues, fam.eig_h.eigenvalues])
    near = np.any(np.abs(eigs - points[..., None]) <= 1e-12 * fam.spectral_diameter(), axis=-1)
    if near.any():
        x = points[near].ravel()[0].item()
        raise PreconditionError(f"{name}={x!r} coincides with an eigenvalue of H0 or H")


def xi_counting_oracle(fam: HerglotzFamily, lam):
    """Exact integer shift: eigenvalues of H0 up to lam minus eigenvalues of
    H up to lam.  The brute-force ground truth for everything else.  A
    scalar lam gives an int; an array of points gives an integer array.
    A point is refused as ``_refuse_for_counting`` says."""
    lams = np.asarray(lam, dtype=float)
    _refuse_for_counting(fam, "lambda", lams)
    e0, eh = fam.eig0.eigenvalues, fam.eig_h.eigenvalues
    diff = np.count_nonzero(e0 <= lams[..., None], axis=-1) - np.count_nonzero(
        eh <= lams[..., None], axis=-1
    )
    return int(diff) if np.ndim(diff) == 0 else diff


def counting_steps(eigs0, eigs1) -> tuple[np.ndarray, np.ndarray]:
    """Step representation of the counting difference N_0 - N_1.

    Returns knots (sorted union of both spectra) and the value taken on each
    open interval (knots[i], knots[i+1]); the function vanishes outside the
    hull.
    """
    eigs0 = np.asarray(eigs0, dtype=float)
    eigs1 = np.asarray(eigs1, dtype=float)
    knots = np.concatenate([eigs0, eigs1])
    deltas = np.concatenate([np.ones_like(eigs0), -np.ones_like(eigs1)])
    order = np.argsort(knots, kind="stable")
    return knots[order], np.cumsum(deltas[order])


def step_integral(knots: np.ndarray, values: np.ndarray, antiderivative) -> complex:
    """Exact integral of a step function against f, given F with F' = f."""
    fk = np.asarray([antiderivative(float(t)) for t in knots])
    return complex(np.sum(values[:-1] * (fk[1:] - fk[:-1])))


# ----------------------------------------------------------------------
# determinant route

def _path_dets(fam: HerglotzFamily, lams: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """(-1)^n_minus det(phi(lams + i*heights)), pairwise, in chunks whose
    stacked (heights, dim, rank) resolvent temporaries stay under
    PROFILE_CHUNK_BYTES, of at least DET_CHUNK_MIN heights; raises where one
    vanishes."""
    sign = (-1.0) ** fam.n_minus
    chunks = _batches(heights.size, 16 * fam.dim * fam.rank, PROFILE_CHUNK_BYTES, DET_CHUNK_MIN)
    d = np.concatenate([
        sign * np.linalg.det(fam.evaluate_block(None, lams[s] + 1j * heights[s])) for s in chunks
    ])
    if np.any(d == 0):
        lam = float(lams[np.flatnonzero(d == 0)[0]])
        raise PreconditionError(
            f"perturbation determinant vanished on the path at lambda={lam!r}"
        )
    return d


def xi_via_det(fam: HerglotzFamily, lam):
    """Shift function via the phase of the perturbation determinant.

    Sylvester's identity gives det(I + V (H0 - z)^(-1)) = det(J) det(phi(z))
    with phi the r x r transfer matrix on the full block, so the route needs
    only the spectrum of H0 and K.  At z = lam + i*eta_top, with
    eta_top = 4 ||K||_F^2 (= 4 ||V||_1 for a sign factorization), the
    logarithm of the determinant is below 1/3 in modulus, so its principal
    phase is the canonical one (a K whose eta_top overflows is refused).
    The phase is then tracked down a ladder of halving heights to a floor
    and on to the real axis, and every step whose phase moves by more than
    pi/2 is bisected.  No eigenvalue of H or H+ and no matrix logarithm
    enters its values; its refusal, like the grids', tests the exclusion
    zones of all three spectra (``near_spectrum``).

    A scalar lam gives a float; an array of points gives the array of
    values, of its shape.  Each point keeps its own ladder (down to its own floor), its
    own bisections and its own phase sum, but the ladders of all points, and
    then each round of bisections over all points, are one stack of
    determinants, taken in chunks (``_path_dets``).  A point still
    bisecting after DET_MAX_REFINEMENTS bisections raises ConvergenceError.
    """
    lams = np.asarray(lam, dtype=float).ravel()
    fam.check_off_spectrum(lams)
    vals = _det_phases(fam, lams) if fam.rank and lams.size else np.zeros(lams.size)
    return float(vals[0]) if np.ndim(lam) == 0 else vals.reshape(np.shape(lam))


def _det_phases(fam: HerglotzFamily, lams: np.ndarray) -> np.ndarray:
    """The determinant route at the 1-D array of points lams, over pi; see
    ``xi_via_det``."""
    # inf, unwarned, where the norm or its square overflows
    with np.errstate(over="ignore"):
        top = 4.0 * float(np.linalg.norm(fam.fact.k) ** 2)
    if not math.isfinite(top):
        raise PreconditionError(
            "the top height 4 ||K||_F^2 of the determinant route overflows double precision"
        )
    eigs0 = fam.eig0.eigenvalues
    spread = float(eigs0[-1] - eigs0[0])
    # halvings from top to the floor 1e-10 * max(1, |x|, spread, top): none
    # where their ratio is at most 1, as where it underflows to 0
    ratios = [top / (1e-10 * max(1.0, abs(x), spread, top)) for x in lams.tolist()]
    steps = np.array([math.ceil(math.log2(r)) if r > 1.0 else 0 for r in ratios])
    # every point's ladder, top * 2^-k down to its floor and then 0, back
    # to back in one flat array; owner[j] is the point of heights[j]
    ladder = top * 0.5 ** np.arange(steps.max() + 1)
    heights = np.concatenate([np.append(ladder[: k + 1], 0.0) for k in steps.tolist()])
    owner = np.repeat(np.arange(lams.size), steps + 2)
    d = _path_dets(fam, lams[owner], heights)
    refinements = np.zeros(lams.size, dtype=int)
    while True:
        dphi = np.angle(d[1:] / d[:-1])
        # the step from one point's 0 to the next point's top goes up, so
        # the height test never selects it
        bad = np.flatnonzero(
            (np.abs(dphi) > 0.5 * math.pi) & (heights[:-1] - heights[1:] > 1e-300)
        )
        if not bad.size:
            break
        per_point = np.bincount(owner[bad], minlength=lams.size)
        capped = (per_point > 0) & (refinements >= DET_MAX_REFINEMENTS)
        if capped.any():
            raise ConvergenceError(
                f"determinant phase still jumps after {DET_MAX_REFINEMENTS} bisections "
                f"at lambda={float(lams[capped][0])!r}"
            )
        refinements += per_point
        mid = 0.5 * (heights[bad] + heights[bad + 1])
        heights = np.insert(heights, bad + 1, mid)
        d = np.insert(d, bad + 1, _path_dets(fam, lams[owner[bad]], mid))
        owner = np.insert(owner, bad + 1, owner[bad])
    # one sum per point over its own contiguous slice of steps, as a lone
    # call makes it; np.add.reduceat adds in another order and moves the
    # last bit
    bounds = np.searchsorted(owner, np.arange(lams.size + 1)).tolist()
    sums = np.array([dphi[a : b - 1].sum() for a, b in zip(bounds[:-1], bounds[1:])])
    return (np.angle(d[bounds[:-1]]) + sums) / math.pi


# ----------------------------------------------------------------------
# trace formula and trace identities

def trace_formula_residual(fam: HerglotzFamily, z: complex) -> float:
    """Relative residual of the resolvent trace formula at z:
    |lhs - rhs| / (1 + |lhs|).

    The left side is the exact trace of the resolvent difference; the right
    side integrates the counting-route step function against (lam - z)^(-2)
    with the exact antiderivative per step.  Both sides are independent of
    the operator route.  A z is refused as ``_refuse_for_counting`` says.
    """
    z = complex(z)
    _refuse_for_counting(fam, "z", z)
    lhs = complex(np.sum(1.0 / (fam.eig_h.eigenvalues - z)) - np.sum(1.0 / (fam.eig0.eigenvalues - z)))
    knots, values = counting_steps(fam.eig0.eigenvalues, fam.eig_h.eigenvalues)
    integral = step_integral(knots, values, lambda t: -1.0 / (t - z))
    return abs(lhs + integral) / (1.0 + abs(lhs))


@dataclass(frozen=True)
class TraceIdentityReport:
    trace_v_residual: float
    l1_slack: float
    fd_plus_residual: float
    fd_minus_residual: float


def trace_identity_checks(fam: HerglotzFamily, zs=(1.0 + 2.0j,)) -> TraceIdentityReport:
    """tr V against the exact step integral of the shift function, the L1
    bound against the trace norm of V, and finite-difference residuals of
    the derivative identities for the traced block logarithms.  A z that is
    not finite is refused."""
    knots, values = counting_steps(fam.eig0.eigenvalues, fam.eig_h.eigenvalues)
    integral = step_integral(knots, values, lambda t: t).real
    tr_v = trace(fam.v).real
    l1 = float(np.sum(np.abs(values[:-1]) * np.diff(knots)))
    v1norm = trace_norm(fam.v)

    # the central differences of every z: the logarithms of each block at
    # all 2 * len(zs) points as one stack, against the resolvent traces
    # tr(start - z)^(-1) - tr(end - z)^(-1) of the block's pair
    zs = np.asarray(zs, dtype=np.complex128).ravel()
    _require_finite("z", zs)
    hs = 1e-5 * (1.0 + np.abs(zs))
    ws = np.concatenate([zs + hs, zs - hs])

    fd = []
    for which in SignBlock:
        tr = np.trace(fam.block_log(which, ws, IDENTITY_REL_TOL), axis1=1, axis2=2)
        start, end = [(1.0 / (e - zs[:, None])).sum(axis=1) for e in fam.block_spectra(which)]
        diff = (tr[: zs.size] - tr[zs.size :]) / (2.0 * hs)
        fd.append(float(np.max(np.abs(diff - (start - end)), initial=0.0)))

    return TraceIdentityReport(
        trace_v_residual=abs(integral - tr_v),
        l1_slack=v1norm + 1e-8 - l1,
        fd_plus_residual=fd[0],
        fd_minus_residual=fd[1],
    )


# ----------------------------------------------------------------------
# chain rule, antisymmetry, monotonicity

@dataclass(frozen=True)
class ChainReport:
    chain_residual: float
    antisymmetry_residual: float
    oracle_residual: float
    monotonicity_violation_totals: float | None
    monotonicity_violation_added: float | None
    points_used: int


def chain_and_monotonicity(h0, v1, v2, grid) -> ChainReport:
    """Chain rule, antisymmetry and monotonicity of the shift function.

    All shift values are computed through the operator route and guarded by
    the counting oracle.  The monotonicity comparisons are reported only
    when the relevant semidefiniteness actually holds: totals compares the
    pairs (H0, H0+V2) vs (H0, H0+V1) when V2 - V1 >= 0; added compares
    (H0, H0+V1+V2) vs (H0, H0+V1) when V2 >= 0.
    """
    h0 = as_matrix(h0)
    v1 = as_matrix(v1)
    v2 = as_matrix(v2)
    fam_sum = HerglotzFamily.from_potential(h0, v1 + v2)
    fam_1 = HerglotzFamily.from_potential(h0, v1)
    fam_2 = HerglotzFamily.from_potential(h0, v2)
    fam_12 = HerglotzFamily.from_potential(h0 + v1, v2)
    fam_back = HerglotzFamily.from_potential(h0 + v1, -v1)
    fams = (fam_sum, fam_1, fam_2, fam_12, fam_back)

    lams = np.asarray(grid, dtype=float)
    pts = lams[~np.any([f.near_spectrum(lams) for f in fams], axis=0)]
    if not pts.size:
        raise PreconditionError("no grid points clear the exclusion zones of all pairs")

    def psd(m) -> bool:
        return float(np.min(np.linalg.eigvalsh(hermitian_part(m)))) >= -1e-12 * max(
            frobenius(m), 1.0
        )

    v2_minus_v1_psd = psd(v2 - v1)
    v2_psd = psd(v2)
    vals = {}
    oracle = 0.0
    for name, f in zip(("sum", "v1", "v2", "step", "back"), fams):
        vals[name] = xi_at(f, pts)
        oracle = max(oracle, float(np.max(np.abs(vals[name] - xi_counting_oracle(f, pts)))))

    return ChainReport(
        chain_residual=float(np.max(np.abs(vals["sum"] - vals["v1"] - vals["step"]))),
        antisymmetry_residual=float(np.max(np.abs(vals["v1"] + vals["back"]))),
        oracle_residual=oracle,
        monotonicity_violation_totals=(
            float(np.max(vals["v1"] - vals["v2"])) if v2_minus_v1_psd else None
        ),
        monotonicity_violation_added=(
            float(np.max(vals["v1"] - vals["sum"])) if v2_psd else None
        ),
        points_used=int(pts.size),
    )


# ----------------------------------------------------------------------
# the 2x2 worked example

@dataclass(frozen=True)
class ExampleReport:
    """Shift operators of two ordered rank-structured perturbations of 0.

    Although the second perturbation dominates the first, the two shift
    operators are rank-one projections onto non-parallel directions, so
    neither dominates the other; ``difference_eigenvalues`` certifies the
    indefiniteness.  Both traces equal 1 exactly (a projection onto a line
    has unit trace regardless of where its eigenvalue sits).
    """

    xi_op_1: np.ndarray
    xi_op_2: np.ndarray
    projection_residual_1: float
    projection_residual_2: float
    step_route_residual: float
    difference_eigenvalues: np.ndarray
    trace_1: float
    trace_2: float


def _projection_above(m: np.ndarray, lam: float) -> np.ndarray:
    e = eig_hermitian(m)
    sel = (e.eigenvalues > lam).astype(float)
    return hermitian_part((e.vectors * sel) @ e.vectors.conj().T)


def example_3_9(a: float, b: float, c: float, lam: float) -> ExampleReport:
    """2x2 counterexample to operator monotonicity of the spectral shift.

    Requires 0 < a < b < c < 1 with a*c - b*b >= 0 and lam strictly between
    1+a and 1+b; then the first perturbation has eigenvalues {1-b, 1+b}, the
    second {1+a, 1+c}, the second dominates the first, and at lam the two
    shift operators are the spectral projections onto the top eigenvectors.
    """
    if not (0.0 < a < b < c < 1.0):
        raise PreconditionError("parameters must satisfy 0 < a < b < c < 1")
    if a * c - b * b < 0.0:
        raise PreconditionError("parameters must satisfy a*c - b^2 >= 0")
    if not (1.0 + a < lam < 1.0 + b):
        raise PreconditionError("lambda must lie in (1+a, 1+b)")
    v1 = np.array([[1.0, b], [b, 1.0]], dtype=np.complex128)
    v2 = np.diag([1.0 + a, 1.0 + c]).astype(np.complex128)
    h0 = np.zeros((2, 2), dtype=np.complex128)
    # square-root factorizations keep the operators in the physical basis,
    # where the closed-form spectral projections live
    xi1 = xi_operator(HerglotzFamily.from_positive_root(h0, v1), SignBlock.PLUS, lam)
    xi2 = xi_operator(HerglotzFamily.from_positive_root(h0, v2), SignBlock.PLUS, lam)
    e1 = _projection_above(v1, lam)
    e2 = _projection_above(v2, lam)
    # independent route: imaginary part of log(I - V/lam) has the same
    # projection structure for lam > 0
    from .oplog import logm_dissipative

    step = hermitian_part(
        imaginary_part(logm_dissipative(np.eye(2) - v1 / lam)) / math.pi
    )
    diff_eigs = np.linalg.eigvalsh(hermitian_part(xi2 - xi1))
    return ExampleReport(
        xi_op_1=xi1,
        xi_op_2=xi2,
        projection_residual_1=frobenius(xi1 - e1),
        projection_residual_2=frobenius(xi2 - e2),
        step_route_residual=frobenius(step - xi1),
        difference_eigenvalues=diff_eigs,
        trace_1=float(trace(xi1).real),
        trace_2=float(trace(xi2).real),
    )


# ----------------------------------------------------------------------
# lam-integrals of shift operators

def _shift_integral(terms, weight) -> np.ndarray:
    """Integral of weight(lam) times the sum of w * Xi over (family, sign
    block, w) terms, Xi the block's shift operator, over the hull of the
    spectra of the blocks' pairs (``block_spectra``), which are the
    breakpoints of ``integrate_piecewise``; weight vectorized over lam; zero
    when those spectra are one point."""
    from .quadrature import integrate_piecewise

    pts = _sorted_unique(np.concatenate([
        e for fam, which, _ in terms for e in fam.block_spectra(which)
    ]))

    def integrand(lams):
        # read without the exclusion zones of the profiles: a small
        # perturbation or coupling leaves pieces between breakpoints
        # narrower than a zone
        return weight(lams)[:, None, None] * sum(
            w * shift_projection(fam.evaluate_block(which, lams)).projection
            for fam, which, w in terms
        )

    if pts.size < 2:
        return integrand(pts[:0]).sum(axis=0)  # the empty stack sums to zero
    return integrate_piecewise(integrand, pts)[0]


def herglotz_reconstruction_residual(fam: HerglotzFamily, z: complex) -> float:
    """Frobenius distance between log(phi_plus(z)) and the integral of the
    + shift operator against (lam - z)^(-1) over the support hull.  A z
    that is not finite is refused."""
    z = complex(z)
    _require_finite("z", z)
    if z.imag == 0:
        raise PreconditionError("z must be off the real axis")
    target = fam.block_log(SignBlock.PLUS, z)
    if fam.n_plus == 0:
        return 0.0
    val = _shift_integral([(fam, SignBlock.PLUS, 1.0)], lambda lams: 1.0 / (lams - z))
    return float(frobenius(val - target))


# ----------------------------------------------------------------------
# grids

def _snapper(fam: HerglotzFamily, accept=None):
    """A function of one point x: x itself when it is clear of the exclusion
    zones of fam (``near_spectrum``) and ``accept`` (if given) takes it;
    otherwise the first such point among origin + d * snap * 2^k,
    k = 0, 1, ..., where snap is SNAP_RTOL times the spectral diameter,
    origin is the nearest eigenvalue when x lies in its zone and x
    otherwise, and d points toward the hull center."""
    eigs = fam.all_spectra()
    snap = SNAP_RTOL * fam.spectral_diameter()
    # a family of dimension 0 has no zones: only a point that is not finite
    # comes to the search, and it finds no spot
    center = 0.5 * (eigs[0] + eigs[-1]) if eigs.size else 0.0

    def ok(c: float) -> bool:
        return not fam.near_spectrum(c) and (accept is None or accept(c))

    def snap_point(x) -> float:
        x = float(x)
        if ok(x):
            return x
        d = np.abs(eigs - x)
        origin = float(eigs[np.argmin(d)]) if d.min(initial=np.inf) <= fam.exclusion_width() else x
        direction = 1.0 if origin <= center else -1.0
        step = snap
        for _ in range(60):
            cand = origin + direction * step
            if ok(cand):
                return cand
            step *= 2.0
        raise PreconditionError(f"could not snap grid point {x!r} to a safe spot")

    return snap_point


def snap_grid(fam: HerglotzFamily, pts) -> np.ndarray:
    """Move any grid point inside an exclusion zone to a safe spot nearby,
    nudging toward the midpoint of the joint spectral hull.  One
    ``near_spectrum`` call flags the points of the whole grid; only those
    are moved, each by the search of ``_snapper``."""
    pts = np.array(pts, dtype=float)
    near = fam.near_spectrum(pts)
    snap = _snapper(fam)
    pts[near] = [snap(x) for x in pts[near]]
    return pts


def _distinct_spectra(fam: HerglotzFamily) -> np.ndarray:
    """The sorted joint spectra, each value within 1e-12 of the spectral
    diameter of the one kept before it dropped; refused for a family of
    dimension 0, which has no spectrum to place grid points on."""
    eigs = fam.all_spectra()
    if not eigs.size:
        raise PreconditionError("the family has dimension 0: no spectrum to place grid points on")
    scale = fam.spectral_diameter()
    keep = [float(eigs[0])]
    for x in eigs[1:]:
        if x - keep[-1] > 1e-12 * scale:
            keep.append(float(x))
    return np.asarray(keep)


def auto_grid(fam: HerglotzFamily) -> np.ndarray:
    """Eigenvalue-derived grid: the joint spectra (snapped off their own
    exclusion zones), the midpoint of each gap, and hull endpoints padded by
    GRID_MARGIN."""
    eigs = _distinct_spectra(fam)
    pad = GRID_MARGIN * max(fam.spectral_diameter(), 1.0)
    pts = np.concatenate([[eigs[0] - pad, eigs[-1] + pad], eigs, eigs[:-1] + np.diff(eigs) / 2])
    return _sorted_unique(snap_grid(fam, np.sort(pts)))


def safe_grid(fam: HerglotzFamily, n_min: int = 50) -> np.ndarray:
    """At least n_min points clear of every exclusion zone: gap interiors of
    the joint spectra plus hull endpoints padded by GRID_MARGIN."""
    eigs = _distinct_spectra(fam)
    scale = fam.spectral_diameter()
    excl = fam.exclusion_width()
    pad = GRID_MARGIN * max(scale, 1.0)
    for k in range(1, 64):
        pts = [eigs[0] - pad, eigs[-1] + pad, eigs[0] - 0.5 * pad, eigs[-1] + 0.5 * pad]
        for a, b in zip(eigs[:-1], eigs[1:]):
            for i in range(k):
                x = a + (b - a) * (i + 1) / (k + 1)
                if min(x - a, b - x) > 10 * excl:
                    pts.append(x)
        if len(pts) >= n_min:
            return _sorted_unique(pts)
    raise PreconditionError(
        f"could not place {n_min} safe grid points; spectra may be too clustered"
    )


# ----------------------------------------------------------------------
# profiles

@dataclass
class ShiftProfile:
    """Shift data on a grid of evaluated points: the shift function, its two
    halves (the ranks of the two shift operators), the eigenvalues of both
    operators per point (descending: as many ones as the rank of the
    projection, then zeros), the counting oracle and optionally the
    determinant route."""

    grid: np.ndarray
    xi: np.ndarray
    xi_plus: np.ndarray
    xi_minus: np.ndarray
    xi_op_plus_eigs: list
    xi_op_minus_eigs: list
    xi_oracle: np.ndarray
    xi_det: np.ndarray

    @property
    def converged(self) -> np.ndarray:
        """All true: every value is the direct route at the evaluated point."""
        return np.ones(self.grid.size, dtype=bool)


def compute_profile(fam: HerglotzFamily, grid, include_det: bool = False) -> ShiftProfile:
    """Evaluate the shift data over a grid.

    A grid of any shape is read as its points in order, flattened as
    ``xi_at`` reads one, so the profile has one entry per point.  Points
    inside an exclusion zone are snapped off it (``snap_grid``).  One
    ``_ranks`` read over the whole grid gives the ranks of both shift
    operators at every point.  A point where either boundary matrix is
    flagged singular is moved by the same doubling search, from the point
    itself toward the hull center, to the first spot where neither is; the
    flagged points alone are nudged and read again, and ``grid`` holds the
    evaluated points.  Every operator is an exact projection, so
    ``xi_plus`` and ``xi_minus`` are ranks (exact integers as floats) and
    its eigenvalues are its rank in ones, then zeros.  The counting oracle
    is one vectorized count over the grid; the determinant route
    (``include_det``) is one ``xi_via_det`` call over the whole grid.
    """
    grid = snap_grid(fam, np.ravel(grid))
    plus, minus, moved = _ranks(fam, grid)
    if moved.any():
        nudge = _snapper(fam, lambda x: not _ranks(fam, np.array([x]))[2][0])
        grid[moved] = [nudge(x) for x in grid[moved]]
        plus[moved], minus[moved], singular = _ranks(fam, grid[moved])
        refuse_singular(singular, grid[moved])
    xp, xm = plus.astype(float), minus.astype(float)
    return ShiftProfile(
        grid=grid,
        xi=xp - xm,
        xi_plus=xp,
        xi_minus=xm,
        xi_op_plus_eigs=list((np.arange(fam.n_plus) < plus[:, None]).astype(float)),
        xi_op_minus_eigs=list((np.arange(fam.n_minus) < minus[:, None]).astype(float)),
        xi_oracle=xi_counting_oracle(fam, grid).astype(float),
        xi_det=xi_via_det(fam, grid) if include_det else np.full(grid.size, math.nan),
    )
