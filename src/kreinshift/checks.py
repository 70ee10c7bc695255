"""Seeded verification suites.

``SUITES`` maps each suite name to its checks in report order.
``run_suites`` runs the checks of the named suites on a pool of worker
processes, one task per check and one worker per CPU this process may run
on (at most one per check), and concatenates their lines in suite order;
``run_suite`` is its one-suite call.  A check takes only the suite seed: it
draws a fixed number of instances from a generator seeded by the seed plus
a fixed offset, measures a residual, and compares it against the pinned
bound.  Reports are plain text with fixed float formatting, so a given
(suite, seed) pair produces byte-identical output on every run, at any
worker count.  Seeds are non-negative integers.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .averaging import (
    PerturbationPath,
    TestFunction,
    averaged_pairing_lhs,
    averaged_pairing_rhs,
    derivative_identity_residual,
    operator_average_residual,
    operator_increment_residual,
)
from .errors import PreconditionError
from .generators import (
    random_dissipative,
    random_hermitian,
    random_indefinite,
    random_pair,
    random_psd,
)
from .herglotz import HerglotzFamily, SignBlock, boundary_log
from .matkit import expm, frobenius, imaginary_part, trace_norm
from .oplog import (
    DEFAULT_REL_TOL,
    Branch,
    logm_dissipative,
    logm_oracle_diag,
    scalar_log,
    tr_log_det_bridge,
)
from .shift import (
    chain_and_monotonicity,
    example_3_9,
    herglotz_reconstruction_residual,
    safe_grid,
    trace_formula_residual,
    trace_identity_checks,
    xi_at,
    xi_counting_oracle,
    xi_via_det,
)

__all__ = ["CheckLine", "SuiteReport", "SUITES", "SUITE_NAMES", "run_suite", "run_suites"]

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CheckLine:
    name: str
    value: float
    bound: float
    ok: bool
    note: str = ""

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        pad = "." * max(2, 44 - len(self.name))
        extra = f"  [{self.note}]" if self.note else ""
        return f"  {self.name} {pad} {self.value:.3e} (bound {self.bound:.1e}) {status}{extra}"


@dataclass
class SuiteReport:
    name: str
    seed: int
    lines: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def render(self) -> str:
        out = [f"suite {self.name} (seed {self.seed})"]
        out.extend(line.render() for line in self.lines)
        out.append(f"suite {self.name}: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(out)


def _line_max(name, values, bound, note="") -> CheckLine:
    worst = float(max(values))
    return CheckLine(name, worst, float(bound), worst < bound, note)


# ----------------------------------------------------------------------
# logm suite

def check_logm_roundtrip(seed: int) -> list:
    rng = np.random.default_rng(seed + 101)
    rel = []
    im_low = []
    im_high = []
    for _ in range(50):
        n = int(rng.integers(1, 7))
        t = random_dissipative(rng, n)
        l = logm_dissipative(t)
        rel.append(frobenius(expm(l) - t) / frobenius(t))
        w = np.linalg.eigvalsh(imaginary_part(l))
        im_low.append(-float(w.min()))
        im_high.append(float(w.max()) - math.pi)
    return [
        _line_max("expm-roundtrip relative residual", rel, 1e-8, f"{len(rel)} draws"),
        _line_max("Im(log) below 0 by", im_low, 1e-8),
        _line_max("Im(log) above pi by", im_high, 1e-8),
    ]


def check_logm_scalar(seed: int) -> list:
    rng = np.random.default_rng(seed + 102)
    devs = []
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.5))
        l = logm_dissipative(z * np.eye(3))
        devs.append(frobenius(l - scalar_log(z) * np.eye(3)))
    return [_line_max("scalar consistency on z*I", devs, DEFAULT_REL_TOL * 10)]


def check_logm_continuity(seed: int) -> list:
    rng = np.random.default_rng(seed + 103)
    t = random_dissipative(rng, 4)
    base = logm_dissipative(t)
    epss = np.array([1e-3, 1e-4, 1e-5])
    devs = np.array(
        [frobenius(logm_dissipative(t + 1j * e * np.eye(4)) - base) for e in epss]
    )
    slope = float(np.polyfit(np.log(epss), np.log(devs), 1)[0])
    return [
        CheckLine("eps-continuity log-log slope", slope, 0.9, slope >= 0.9, "want >= bound"),
        _line_max("eps-continuity constant", devs / epss, 1e3),
    ]


def check_logm_cross_oracle(seed: int) -> list:
    rng = np.random.default_rng(seed + 104)
    devs = []
    for _ in range(20):
        t = random_dissipative(rng, 5, min_strict=0.2, allow_flat=False)
        devs.append(frobenius(logm_dissipative(t) - logm_oracle_diag(t, Branch.LOG)))
    return [_line_max("quadrature vs eigendecomposition log", devs, 1e-8, f"{len(devs)} draws")]


def check_bridge(seed: int) -> list:
    rng = np.random.default_rng(seed + 105)
    devs = []
    winds = []
    for _ in range(10):
        t = random_dissipative(rng, 4)
        br = tr_log_det_bridge(t - np.eye(4))
        devs.append(br.residual)
        winds.append(abs(br.winding))
    return [
        _line_max("trace-log vs log-det bridge residual", devs, 1e-8),
        CheckLine(
            "bridge windings used", float(max(winds)), 4.0, max(winds) <= 4, "integer 2*pi*i shifts"
        ),
    ]


# ----------------------------------------------------------------------
# herglotz suite

def check_herglotz_property(seed: int) -> list:
    rng = np.random.default_rng(seed + 201)
    neg = []
    pos = []
    for _ in range(50):
        h0, v = random_pair(rng, 3, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3.0))
        # phi and phi_plus are Herglotz, phi_minus~ anti-Herglotz
        for which in (None, *SignBlock):
            m = fam.evaluate_block(which, z)
            if m.size:
                w = np.linalg.eigvalsh(imaginary_part(m))
                if which is SignBlock.MINUS:
                    pos.append(float(w.max()))
                else:
                    neg.append(-float(w.min()))
    return [
        _line_max("Im phi, Im phi_plus below 0 by", neg, 1e-12),
        _line_max("Im phi_minus above 0 by", pos, 1e-12),
    ]


def check_inverse_identities(seed: int) -> list:
    rng = np.random.default_rng(seed + 202)
    devs = []
    for _ in range(20):
        h0, v = random_pair(rng, 3, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        products = [
            fam.evaluate_block(which, z) @ fam.evaluate_inverse(which, z)
            for which in (None, *SignBlock)
        ]
        devs.append(max(frobenius(p - np.eye(p.shape[0])) for p in products))
    return [_line_max("closed-form inverse identities", devs, 1e-10, f"{len(devs)} draws")]


def check_decay(seed: int) -> list:
    rng = np.random.default_rng(seed + 203)
    h0, v = random_pair(rng, 4, 6)
    fam = HerglotzFamily.from_potential(h0, v)
    ys = (1e2, 1e3, 1e4)
    scaled = [y * trace_norm(fam.block_log(SignBlock.PLUS, 1j * y)) for y in ys]
    variation = max(scaled) / min(scaled) - 1.0
    y_big = 1e6
    lin = frobenius(fam.block_log(SignBlock.PLUS, 1j * y_big)) / y_big
    jvals = [frobenius(fam.evaluate_block(None, 1j * y) - fam.fact.j_matrix()) * y for y in ys]
    jvar = max(jvals) / min(jvals) - 1.0
    return [
        _line_max("trace-norm decay variation over y", [variation], 0.2),
        _line_max("no-linear-term bound at y=1e6", [lin], 1e-6),
        _line_max("phi(iy) -> J at rate 1/y, variation", [jvar], 0.2),
    ]


def check_reconstruction(seed: int) -> list:
    rng = np.random.default_rng(seed + 204)
    devs = []
    for _ in range(5):
        n = int(rng.integers(3, 6))
        h0 = random_hermitian(rng, n)
        v = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        fam = HerglotzFamily.from_potential(h0, v)
        devs.append(herglotz_reconstruction_residual(fam, 1.0 + 2.0j))
    return [_line_max("log(phi_plus) from shift-operator integral", devs, 1e-4, f"{len(devs)} draws")]


def _end_gap_points(fam: HerglotzFamily, grid: np.ndarray) -> list:
    """The first and the last point of ``grid`` inside the spectral hull."""
    eigs = fam.all_spectra()
    gaps = grid[(grid > eigs.min()) & (grid < eigs.max())]
    return [float(gaps[0]), float(gaps[-1])]


def check_eps_limit(seed: int) -> list:
    """The vertical limit of the eps schedule against the direct boundary
    log, on both blocks at the first and the last gap point that
    ``safe_grid`` places for each pair."""
    rng = np.random.default_rng(seed + 205)
    fams = [HerglotzFamily.from_potential(*random_pair(rng, 4, 6)) for _ in range(2)]
    devs = []
    for fam in fams:
        for lam in _end_gap_points(fam, safe_grid(fam, 20)):
            for which in SignBlock:
                direct, _ = boundary_log(fam, which, lam, route="direct")
                limit, _ = boundary_log(fam, which, lam, route="eps")
                devs.append(frobenius(limit - direct))
    return [_line_max("eps limit vs direct boundary log", devs, 1e-6, f"{len(fams)} pairs x 2 points")]


# ----------------------------------------------------------------------
# trace suite

def _trace_instances(seed: int, count: int = 20):
    rng = np.random.default_rng(seed + 301)
    out = []
    for _ in range(count):
        h0, v = random_pair(rng, 4, 8)
        out.append(HerglotzFamily.from_potential(h0, v))
    return out


def check_oracle_equivalence(seed: int) -> list:
    """The operator route against the counting oracle on the safe grid of
    each instance and beyond the hull.  The integrality line reads the
    paper's definition of the boundary value, the eps route of
    ``boundary_log``: pi^(-1) tr Im of the block logarithm, xi_plus on the
    + block and -xi_minus on the - block, must be an integer.  It takes
    both blocks at the first and the last gap point of the first two
    instances' grids, since each eps value costs a stack of logarithms."""
    fams = _trace_instances(seed, 20)
    grids = [safe_grid(fam, 50) for fam in fams]

    def worst_for(fam, grid):
        lo = float(np.min(fam.all_spectra()))
        hi = float(np.max(fam.all_spectra()))
        pad = 0.2 * fam.spectral_diameter()
        # every point once: the grid, then one point beyond each end of the hull
        xi = xi_at(fam, np.append(grid, [lo - pad, hi + pad]))
        inside, outside = xi[: grid.size], np.abs(xi[grid.size :])
        devs = np.abs(inside - xi_counting_oracle(fam, grid))
        return float(np.max(devs)), float(np.max(outside))

    rows = [worst_for(fam, grid) for fam, grid in zip(fams, grids)]
    offs = []
    for fam, grid in zip(fams[:2], grids[:2]):
        for lam in _end_gap_points(fam, grid):
            for which in SignBlock:
                val, _ = boundary_log(fam, which, lam, route="eps")
                tr = float(np.trace(val).imag) / math.pi
                offs.append(abs(tr - round(tr)))
    return [
        _line_max(
            "operator route vs counting oracle",
            [r[0] for r in rows],
            1e-6,
            f"{len(rows)} instances, >= {min(g.size for g in grids)} points",
        ),
        _line_max(
            "shift function off integers by", offs, 1e-6,
            f"eps route, {len(offs)} values: 2 instances x 2 gap points x 2 blocks",
        ),
        _line_max("shift outside spectral hull", [r[1] for r in rows], 1e-8),
    ]


def check_trace_formula(seed: int) -> list:
    fams = _trace_instances(seed + 11, 10)
    rng = np.random.default_rng(seed + 302)
    zs_per_fam = []
    for fam in fams:
        lo = float(np.min(fam.all_spectra())) - 1.0
        hi = float(np.max(fam.all_spectra())) + 1.0
        zs = [
            complex(rng.uniform(lo, hi), rng.uniform(0.4, 2.5) * (1 if rng.integers(2) else -1))
            for _ in range(10)
        ]
        zs_per_fam.append(zs)

    rows = [max(trace_formula_residual(fam, z) for z in zs) for fam, zs in zip(fams, zs_per_fam)]
    return [
        _line_max(
            "resolvent trace formula relative residual",
            rows,
            1e-8,
            f"{len(rows)} instances x {len(zs_per_fam[0])} points",
        )
    ]


def check_det_route(seed: int) -> list:
    fams = _trace_instances(seed, 20)  # same instances as the oracle check

    def worst_for(fam):
        grid = safe_grid(fam, 50)
        return float(np.max(np.abs(xi_via_det(fam, grid) - xi_counting_oracle(fam, grid))))

    rows = [worst_for(fam) for fam in fams]
    return [
        _line_max(
            "determinant route vs counting oracle", rows, 1e-6, f"{len(rows)} instances"
        )
    ]


def check_trace_identities(seed: int) -> list:
    fams = _trace_instances(seed + 23, 20)
    trv = []
    slack = []
    for fam in fams:
        rep = trace_identity_checks(fam, zs=())
        trv.append(rep.trace_v_residual)
        slack.append(-rep.l1_slack)
    return [
        _line_max("tr(V) vs integral of shift function", trv, 1e-8, f"{len(trv)} instances"),
        _line_max("L1 norm of shift above trace-norm bound", slack, 1e-12),
    ]


def check_fd_identities(seed: int) -> list:
    fams = _trace_instances(seed + 31, 10)
    zs = (1.0 + 2.0j, -2.0 + 1.5j, 3.0j, 0.5 + 1.0j, -1.0 + 2.5j)
    plus = []
    minus = []
    for fam in fams:
        rep = trace_identity_checks(fam, zs=zs)
        plus.append(rep.fd_plus_residual)
        minus.append(rep.fd_minus_residual)
    return [
        _line_max("derivative of traced + log (5 z-points)", plus, 1e-6, f"{len(plus)} instances"),
        _line_max("derivative of traced - log (5 z-points)", minus, 1e-6),
    ]


# ----------------------------------------------------------------------
# chain suite

def check_chain(seed: int) -> list:
    rng = np.random.default_rng(seed + 401)
    chain = []
    antisym = []
    oracle = []
    mono = []
    for i in range(10):
        n = int(rng.integers(4, 7))
        h0 = random_hermitian(rng, n)
        v1 = random_indefinite(rng, n, max(2, n - 2))
        if i % 2 == 0:
            v2 = v1 + random_psd(rng, n)  # ordered pair: monotonicity applies
        else:
            v2 = random_indefinite(rng, n, max(2, n - 1))
        fam = HerglotzFamily.from_potential(h0, v1 + v2)
        grid = safe_grid(fam, 30)
        rep = chain_and_monotonicity(h0, v1, v2, grid)
        chain.append(rep.chain_residual)
        antisym.append(rep.antisymmetry_residual)
        oracle.append(rep.oracle_residual)
        if rep.monotonicity_violation_totals is not None:
            mono.append(rep.monotonicity_violation_totals)
        if rep.monotonicity_violation_added is not None:
            mono.append(rep.monotonicity_violation_added)
    lines = [
        _line_max("chain rule pointwise residual", chain, 1e-6, f"{len(chain)} instances"),
        _line_max("antisymmetry residual", antisym, 1e-6),
        _line_max("route vs counting oracle", oracle, 1e-6),
    ]
    if mono:
        lines.append(_line_max("monotonicity violation", mono, 1e-8))
    return lines


# ----------------------------------------------------------------------
# averaging suites

def check_averaging(seed: int) -> list:
    rng = np.random.default_rng(seed + 501)
    cases = []
    for _ in range(10):
        n = int(rng.integers(3, 7))
        h0 = random_hermitian(rng, n)
        v1 = random_indefinite(rng, n, max(2, n - 1))
        v0 = 0.4 * random_indefinite(rng, n, 2)
        s1 = float(rng.uniform(-0.5, 0.0))
        s2 = float(rng.uniform(0.6, 1.4))
        coeffs = rng.uniform(-1.0, 1.0, size=7)
        cases.append((h0, PerturbationPath(v0, v1, s1, s2), coeffs))

    def residual_for(case):
        h0, path, coeffs = case
        worst = 0.0
        for f in (TestFunction.polynomial(coeffs), TestFunction.gaussian(0.3, 1.2)):
            lhs = averaged_pairing_lhs(h0, path, f)
            rhs = averaged_pairing_rhs(h0, path, f)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        return worst

    rows = [residual_for(case) for case in cases]

    # positive direction, nonnegative test function: pairing must be >= 0
    h0 = random_hermitian(rng, 4)
    pospath = PerturbationPath(np.zeros((4, 4)), random_psd(rng, 4), 0.0, 1.0)
    pos = averaged_pairing_lhs(h0, pospath, TestFunction.gaussian(0.0, 1.0))
    return [
        _line_max(
            "weak averaging identity relative residual",
            rows,
            1e-4,
            f"{len(rows)} instances, poly deg 6 + gaussian",
        ),
        _line_max(
            "pairing negativity for psd direction",
            [-pos],
            1e-10,
            "negated pairing; must not be positive",
        ),
    ]


def check_derivative_identity(seed: int) -> list:
    rng = np.random.default_rng(seed + 502)
    devs = []
    for _ in range(5):
        n = int(rng.integers(2, 5))
        w = random_psd(rng, n)
        path = PerturbationPath(w, w, 0.0, 1.0)  # V(s) = (1+s) W stays psd
        h0 = random_hermitian(rng, n)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.8, 2.0))
        devs.append(derivative_identity_residual(h0, path, float(rng.uniform(0.2, 0.8)), z))
    return [_line_max("traced-log derivative identity", devs, 1e-6, f"{len(devs)} instances")]


def check_op_average(seed: int) -> list:
    rng = np.random.default_rng(seed + 601)
    resid = []
    increments = []
    for _ in range(5):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, min(3, n) + 1))
        h0 = random_hermitian(rng, n)
        k = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        f = TestFunction.polynomial(rng.uniform(-1.0, 1.0, size=4))
        resid.append(operator_average_residual(h0, k, f).residual)
        s1, s2 = sorted(rng.uniform(0.1, 1.0, size=2))
        if s2 - s1 > 1e-3:
            increments.append(operator_increment_residual(h0, k, float(s1), float(s2), f).residual)
    return [
        _line_max("operator averaging residual", resid, 1e-4, f"{len(resid)} instances"),
        _line_max("increment consistency residual", increments, 1e-4),
    ]


# ----------------------------------------------------------------------
# worked example suite

def check_example39(seed: int) -> list:
    rep = example_3_9(0.2, 0.4, 0.9, 1.3)
    lo = float(rep.difference_eigenvalues.min())
    hi = float(rep.difference_eigenvalues.max())
    return [
        _line_max("shift op 1 vs spectral projection", [rep.projection_residual_1], 1e-8),
        _line_max("shift op 2 vs spectral projection", [rep.projection_residual_2], 1e-8),
        _line_max("log(I - V/lam) route agreement", [rep.step_route_residual], 1e-8),
        CheckLine(
            "indefiniteness: most negative eigenvalue",
            lo,
            -0.1,
            lo <= -0.1,
            f"difference eigenvalues {lo:+.6f}, {hi:+.6f}",
        ),
        CheckLine("indefiniteness: most positive eigenvalue", hi, 0.1, hi >= 0.1),
        _line_max(
            "both operators have unit trace",
            [abs(rep.trace_1 - 1.0), abs(rep.trace_2 - 1.0)],
            1e-8,
            "rank-one projections; see README on the trace convention",
        ),
    ]


# ----------------------------------------------------------------------

SUITES: dict[str, tuple] = {
    "logm": (
        check_logm_roundtrip,
        check_logm_scalar,
        check_logm_continuity,
        check_logm_cross_oracle,
        check_bridge,
    ),
    "herglotz": (
        check_herglotz_property,
        check_inverse_identities,
        check_decay,
        check_reconstruction,
        check_eps_limit,
    ),
    "trace": (
        check_oracle_equivalence,
        check_trace_formula,
        check_det_route,
        check_trace_identities,
        check_fd_identities,
    ),
    "chain": (check_chain,),
    "average": (check_averaging, check_derivative_identity),
    "op-average": (check_op_average,),
    "example39": (check_example39,),
}
SUITE_NAMES = tuple(SUITES)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_check(name: str, index: int, seed: int) -> list:
    """The lines of check ``index`` of suite ``name``, looked up in the
    worker's own ``SUITES``."""
    return SUITES[name][index](seed)


def run_suites(names, seed: int = DEFAULT_SEED) -> list:
    """The reports of the suites ``names``, in order; raises KeyError for an
    unknown name and PreconditionError for a negative seed, which the
    generators of the checks (seeded by the seed plus an offset) cannot all
    take.

    Each check is one task of a process pool with one worker per usable
    CPU, at most one per check.  Where the platform offers it the workers
    are forked, so they share this process's imported suites, warning
    filters and BLAS thread setting.  Lines are read back in suite order,
    so the first check that raises re-raises here; the pending checks are
    then cancelled, and no worker outlives the call.
    """
    if seed < 0:
        raise PreconditionError(f"seed must be non-negative, got {seed}")
    reports = [SuiteReport(name, seed) for name in names]
    tasks = [(rep, i) for rep in reports for i in range(len(SUITES[rep.name]))]
    if not tasks:
        return reports
    # imported here: the other commands, and the import of the CLI, need no pool
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    pool = ProcessPoolExecutor(
        min(len(tasks), _usable_cpus()), mp_context=multiprocessing.get_context(method)
    )
    try:
        futures = [(rep, pool.submit(_run_check, rep.name, i, seed)) for rep, i in tasks]
        for rep, future in futures:
            rep.lines.extend(future.result())
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return reports


def run_suite(name: str, seed: int = DEFAULT_SEED) -> SuiteReport:
    """The report of suite ``name``, as ``run_suites`` gives it."""
    return run_suites([name], seed)[0]
