"""Edge and stress coverage beyond the per-module contracts."""

import numpy as np
import pytest

from kreinshift.errors import PreconditionError
from kreinshift.generators import random_hermitian, random_indefinite, random_pair
from kreinshift import herglotz
from kreinshift.herglotz import HerglotzFamily, SignBlock, boundary_log
from kreinshift.matkit import expm, frobenius, sign_factorization
from kreinshift.oplog import (
    Branch,
    logm_dissipative,
    logm_oracle_diag,
    tr_log_det_bridge,
)
from kreinshift.shift import (
    compute_profile,
    safe_grid,
    xi_counting_oracle,
    xi_via_det,
)


class TestConfigValidation:
    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize(
        "name, build",
        [
            ("rel_tol", lambda x: logm_dissipative(np.eye(2), rel_tol=x)),
            ("rank_tol", lambda x: sign_factorization(np.eye(2), rank_tol=x)),
        ],
        ids=["rel_tol", "rank_tol"],
    )
    def test_non_finite_tolerances_refused(self, name, build, value):
        with pytest.raises(PreconditionError, match=f"{name} must be finite and positive"):
            build(value)


class TestOracleBranchCuts:
    def test_ln_cut_eigenvalue_rejected(self):
        with pytest.raises(PreconditionError):
            logm_oracle_diag(np.diag([-1.0, 2.0]), Branch.LN)

    def test_log_branch_handles_negative_reals(self):
        l = logm_oracle_diag(np.diag([-1.0, 2.0]), Branch.LOG)
        assert l[0, 0] == pytest.approx(1j * np.pi)


class TestBridgeAntiDissipative:
    def test_anti_dissipative_argument(self):
        rng = np.random.default_rng(200)
        re = random_hermitian(rng, 3)
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = re - 1j * (c @ c.conj().T / 3 + 0.1 * np.eye(3))
        br = tr_log_det_bridge(t - np.eye(3))
        assert br.residual < 1e-8

    def test_indefinite_imaginary_part_rejected(self):
        with pytest.raises(PreconditionError, match="neither"):
            tr_log_det_bridge(np.diag([1.0j, -1.0j]))


class TestEpsRouteStress:
    def test_agreement_across_instances(self):
        rng = np.random.default_rng(999)
        worst = 0.0
        for _ in range(4):
            h0, v = random_pair(rng, 4, 6)
            fam = HerglotzFamily.from_potential(h0, v)
            grid = safe_grid(fam, 12)
            for lam in grid[::4]:
                for which in (SignBlock.PLUS, SignBlock.MINUS):
                    direct, _ = boundary_log(fam, which, float(lam), route="direct")
                    via_eps, rec = boundary_log(fam, which, float(lam), route="eps")
                    assert rec.converged and rec.steps <= herglotz.EPS_STEPS
                    worst = max(worst, frobenius(direct - via_eps))
        assert worst < 1e-8


class TestNearExclusionDeterminant:
    def test_phase_tracking_close_to_eigenvalues(self):
        rng = np.random.default_rng(123)
        h0, v = random_pair(rng, 5, 5)
        fam = HerglotzFamily.from_potential(h0, v)
        eigs = np.sort(fam.all_spectra())
        diam = fam.spectral_diameter()
        checked = 0
        for e in eigs:
            for off in (1e-6 * diam, 1e-8 * diam):
                for sgn in (+1.0, -1.0):
                    lam = float(e + sgn * off)
                    try:
                        expected = xi_counting_oracle(fam, lam)
                    except PreconditionError:
                        continue  # clash with a neighboring eigenvalue
                    try:
                        got = xi_via_det(fam, lam)
                    except PreconditionError:
                        continue  # inside the exclusion zone
                    assert got == pytest.approx(expected, abs=1e-6)
                    checked += 1
        assert checked >= 10


class TestModerateDimensions:
    def test_dim_forty_profile(self):
        rng = np.random.default_rng(77)
        h0 = random_hermitian(rng, 40)
        v = random_indefinite(rng, 40, 8)
        fam = HerglotzFamily.from_potential(h0, v)
        grid = safe_grid(fam, 30)[:8]
        prof = compute_profile(fam, grid, include_det=True)
        assert np.all(np.abs(prof.xi - prof.xi_oracle) <= 1e-6)
        assert np.all(np.abs(prof.xi_det - prof.xi_oracle) <= 1e-6)

    def test_dim_thirty_logm_roundtrip(self):
        rng = np.random.default_rng(78)
        n = 30
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        t = random_hermitian(rng, n) + 1j * (c @ c.conj().T / n + 0.05 * np.eye(n))
        l = logm_dissipative(t)
        assert frobenius(expm(l) - t) <= 1e-8 * frobenius(t)
