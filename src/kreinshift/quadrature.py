"""Adaptive Gauss-Kronrod quadrature for matrix-valued integrands.

A 15-point Kronrod rule with its embedded 7-point Gauss rule supplies per
panel error estimates (Frobenius norm of the difference of the two rules,
a deliberately conservative choice).  The panels are kept as arrays in
left-endpoint order (ends, values, error estimates, masses) and refined in
rounds, after the round-based idiom of scipy's ``quad_vec``: each round
bisects the panels with the largest estimates until those left unsplit sum
to at most half the tolerance, and evaluates all new panels in one call of
the batched integrand.  Values are read as their float view (real and
imaginary parts side by side): one real matmul of the two rows [Kronrod;
Kronrod - Gauss] over (panels, 15 nodes, values) gives every panel's sum
and its difference of the two rules, and the estimates, masses and each
round's tolerance are norms of that same view.  Sums run in left-endpoint
order, so results are bit-stable however the caller orders the
segments.

The leading axis of the integrand's values (after the abscissae) holds a
stack of independent integrals that share one mesh.  Each item keeps its
own estimate and tolerance, as if it were integrated alone; a round splits
the panels ranked by their estimate relative to the item's tolerance, and
the run ends when every item meets its own.  A lone integral is a stack of
one through the same loop.

``integrate_piecewise`` integrates across breakpoints in one such run,
starting from the pieces between them, with the fixed tolerances of the
lam-integrals of shift operators (LAM_REL_TOL, LAM_ABS_TOL,
LAM_MAX_PANELS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

__all__ = ["PanelInfo", "integrate_adaptive", "integrate_piecewise"]

# QUADPACK's qk15 (Piessens et al., 1983) to full double precision: the
# Kronrod nodes on [-1, 1], their weights, and the weights of the embedded
# 7-point Gauss rule (zero at the Kronrod-only nodes)
_NODES = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)

_KRONROD_W = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)

_GAUSS_W = np.array(
    [
        0.0,
        0.129484966168869693270611432679082,
        0.0,
        0.279705391489276667901467771423780,
        0.0,
        0.381830050505118944950369775488975,
        0.0,
        0.417959183673469387755102040816327,
        0.0,
        0.381830050505118944950369775488975,
        0.0,
        0.279705391489276667901467771423780,
        0.0,
        0.129484966168869693270611432679082,
        0.0,
    ]
)

# the Kronrod weights and the Kronrod minus Gauss weights: one real matmul
# over the float view of a panel's values gives its sum and the difference
# of the two rules
_RULES = np.stack([_KRONROD_W, _KRONROD_W - _GAUSS_W])

# Termination floor: relative criteria cannot beat roundoff in the panel
# sums, which scales with the absolute mass of the integrand rather than
# with the (possibly cancelling) result.
_EPS_FLOOR = 256 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
# tolerances and panel budget of ``integrate_piecewise``, which takes the
# lam-integrals of shift operators
LAM_REL_TOL = 1e-7
LAM_ABS_TOL = 1e-9
LAM_MAX_PANELS = 4096


@dataclass(frozen=True)
class PanelInfo:
    """Diagnostics of one adaptive integration run."""

    panels: int
    error: float


def _panels(f, lo: np.ndarray, hi: np.ndarray):
    """Kronrod sums (panels, 2 * values), real and imaginary parts side by
    side, error estimates and masses (panels, items) of the panels [lo, hi],
    all evaluated in one call of ``f``, and the shape (items, ...) of one
    value of f.  Raises ConvergenceError when a panel's value or estimate
    is not finite, which no bisection repairs."""
    half = 0.5 * (hi - lo)
    xs = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    vals = np.ascontiguousarray(f(xs.ravel()), dtype=np.complex128)
    shape = vals.shape[1:]
    re_im = vals.view(np.float64).reshape(lo.size, _NODES.size, shape[0], -1)
    sums = _RULES @ re_im.reshape(lo.size, _NODES.size, -1)
    sums *= half[:, None, None]
    value, diff = sums[:, 0], sums[:, 1].reshape(lo.size, shape[0], -1)
    errs = np.sqrt(np.einsum("pbv,pbv->pb", diff, diff))
    if not (np.isfinite(value).all() and np.isfinite(errs).all()):
        finite = np.isfinite(value).all(axis=1) & np.isfinite(errs).all(axis=1)
        p = int(np.argmin(finite))
        raise ConvergenceError(
            f"quadrature panel [{lo[p]:g}, {hi[p]:g}] has a value or error estimate "
            "that is not finite"
        )
    mags = np.sqrt(np.einsum("pkbv,pkbv->pkb", re_im, re_im))
    return value, errs, half[:, None] * (_KRONROD_W @ mags), shape


def integrate_adaptive(
    f,
    segments,
    rel_tol: float,
    max_panels: int,
    abs_tol: float = 0.0,
):
    """Integrate a batched integrand over a union of intervals.

    ``f`` maps an array of abscissae (m,) to values (m, items, ...): a stack
    of integrals, each held to the tolerance it would get alone,
    max(rel_tol * |its value|, abs_tol, roundoff floor * its mass); a lone
    integral is a stack of one.  The interval endpoints themselves are never
    evaluated (the Kronrod nodes are interior), so integrable endpoint
    behavior is tolerated.

    Works in rounds: each round bisects the panels with the largest error
    estimates, relative to their items' tolerances, until the panels left
    unsplit carry at most half the tolerance of every item, never going
    past ``max_panels``, and evaluates all new panels in one call of ``f``.

    Returns ``(value, PanelInfo)``, with value (items, ...) and error the
    largest estimate of an item, or raises ConvergenceError when the panel
    budget is exhausted (naming the worst item when there are several) or
    as soon as a panel's value or estimate is not finite.
    """
    ends = np.array(sorted((float(a), float(b)) for a, b in segments if b > a), dtype=float)
    if ends.size == 0:
        raise ConvergenceError("no integration segments supplied")
    lo, hi = ends[:, 0], ends[:, 1]
    floor = max(abs_tol, _TINY)
    vals, errs, masses, shape = _panels(f, lo, hi)
    while True:
        total = vals.sum(axis=0)
        err = errs.sum(axis=0)
        parts = total.reshape(err.size, -1)
        tol = rel_tol * np.sqrt(np.einsum("bv,bv->b", parts, parts))
        np.maximum(tol, floor, out=tol)
        np.maximum(tol, _EPS_FLOOR * masses.sum(axis=0), out=tol)
        if (err <= tol).all():
            value = total.view(np.complex128).reshape(shape)
            return value, PanelInfo(lo.size, max(err.tolist(), default=0.0))
        if lo.size >= max_panels:
            worst = int(np.argmax(err / tol))
            where = f" in item {worst} of {err.size}" if err.size > 1 else ""
            raise ConvergenceError(
                f"quadrature left a residual estimate {err[worst]:.3e}{where} after "
                f"{lo.size} panels (rel_tol {rel_tol:g})"
            )
        # rank the panels by their worst estimate relative to its item's
        # tolerance and split the fewest that leave at most tol/2 unsplit in
        # every item
        worst = np.argsort(-(errs / tol).max(axis=1), kind="stable")
        unsplit = err - np.cumsum(errs[worst], axis=0)
        count = min(int((unsplit > 0.5 * tol).sum(axis=0).max()) + 1, max_panels - lo.size)
        split = np.zeros(lo.size, dtype=bool)
        split[worst[:count]] = True
        mid = lo[split] + (hi[split] - lo[split]) * 0.5
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new = (new_lo, new_hi, *_panels(f, new_lo, new_hi)[:3])
        old = (lo, hi, vals, errs, masses)
        merged = [np.concatenate([x[~split], y]) for x, y in zip(old, new)]
        order = np.argsort(merged[0], kind="stable")
        lo, hi, vals, errs, masses = (x[order] for x in merged)


def integrate_piecewise(f, breakpoints):
    """Integrate over [min(breakpoints), max(breakpoints)] in one adaptive
    run whose first panels are the consecutive pieces between breakpoints
    (zero-length pieces skipped), so no panel straddles a breakpoint, as in
    QUADPACK's ``qagp``.  The tolerances are fixed: LAM_REL_TOL relative to
    the whole integral, LAM_ABS_TOL absolute, within LAM_MAX_PANELS panels.
    ``f`` maps abscissae (m,) to the values (m, ...) of one integral, taken
    as a stack of one.  Returns ``(value, PanelInfo)`` as
    ``integrate_adaptive`` does, value of the shape of one value of f."""
    pts = np.sort(np.asarray(breakpoints, dtype=float))
    if pts.size < 2 or not pts[-1] > pts[0]:
        raise ConvergenceError("breakpoints span an empty interval")
    val, info = integrate_adaptive(
        lambda xs: f(xs)[:, None], zip(pts[:-1], pts[1:]), LAM_REL_TOL, LAM_MAX_PANELS,
        abs_tol=LAM_ABS_TOL,
    )
    return val[0], info
