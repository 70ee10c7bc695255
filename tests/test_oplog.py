import warnings

import numpy as np
import pytest

from kreinshift import quadrature
from kreinshift.errors import ConvergenceError, PreconditionError
from kreinshift.generators import random_dissipative, random_hermitian, random_unitary
from kreinshift.matkit import expm, frobenius, imaginary_part, trace
from kreinshift.oplog import (
    DEFAULT_REL_TOL,
    Branch,
    logm_antidissipative,
    logm_dissipative,
    logm_oracle_diag,
    scalar_log,
    tr_log_det_bridge,
)


class TestScalarLog:
    def test_upper_half_plane(self):
        assert scalar_log(1j) == pytest.approx(1j * np.pi / 2)
        assert scalar_log(1j, Branch.LN) == pytest.approx(1j * np.pi / 2)

    def test_negative_real_on_log_branch(self):
        assert scalar_log(-1.0) == pytest.approx(1j * np.pi)

    def test_cut_rejected(self):
        with pytest.raises(PreconditionError):
            scalar_log(-1j)
        with pytest.raises(PreconditionError):
            scalar_log(0.0)
        with pytest.raises(PreconditionError):
            scalar_log(-2.0, Branch.LN)

    def test_branches_agree_upper_half_plane(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = complex(rng.uniform(-3, 3), rng.uniform(1e-3, 3))
            assert scalar_log(z) == pytest.approx(scalar_log(z, Branch.LN))

    def test_lower_half_plane_difference(self):
        # right lower quadrant: LOG keeps the small negative angle too
        z = 1.0 - 0.5j
        assert scalar_log(z) == pytest.approx(scalar_log(z, Branch.LN))
        # left lower quadrant: LOG wraps through pi, LN through -pi
        z = -1.0 - 0.5j
        assert scalar_log(z).imag > 0 > scalar_log(z, Branch.LN).imag


class TestLogmDissipative:
    def test_scalar_matrix(self):
        t = (2.0 + 1.0j) * np.eye(2)
        assert frobenius(logm_dissipative(t) - scalar_log(2.0 + 1.0j) * np.eye(2)) < 1e-10

    def test_real_positive_scalar_matrix(self):
        assert frobenius(logm_dissipative(2.0 * np.eye(3)) - np.log(2.0) * np.eye(3)) < 1e-10

    def test_non_normal_jordan_like(self):
        t = np.array([[1j, 1.0], [0.0, 1j]])
        l = logm_dissipative(t)
        assert frobenius(expm(l) - t) <= 1e-8 * frobenius(t)
        # nearby diagonalizable arguments have nearby logarithms
        errs = []
        for eta in (1e-2, 1e-3, 1e-4):
            t_eta = t + eta * np.diag([1.0, -1.0])
            errs.append(frobenius(logm_oracle_diag(t_eta) - l))
        assert errs[0] < 2e-1 and errs[1] < 2e-2 and errs[2] < 2e-3

    def test_roundtrip_and_imaginary_bounds(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            t = random_dissipative(rng, n)
            l = logm_dissipative(t)
            assert frobenius(expm(l) - t) <= 1e-8 * frobenius(t)
            w = np.linalg.eigvalsh(imaginary_part(l))
            assert w.min() >= -1e-8
            assert w.max() <= np.pi + 1e-8

    def test_eps_continuity(self):
        rng = np.random.default_rng(101)
        t = random_dissipative(rng, 4)
        base = logm_dissipative(t)
        eps = np.array([1e-3, 1e-4, 1e-5])
        devs = np.array(
            [frobenius(logm_dissipative(t + 1j * e * np.eye(4)) - base) for e in eps]
        )
        slope = np.polyfit(np.log(eps), np.log(devs), 1)[0]
        assert slope >= 0.9
        assert np.all(devs <= 10.0 * eps)  # fitted constant stays moderate

    def test_scalar_consistency_random(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2.5))
            l = logm_dissipative(z * np.eye(2))
            assert frobenius(l - scalar_log(z) * np.eye(2)) <= DEFAULT_REL_TOL * 10

    def test_agrees_with_eigendecomposition_oracle(self):
        # per size: a strictly dissipative draw, imaginary parts of rank n-1,
        # 1 and 0, and a condition number of about 1e8 that starts the mesh
        # some 30 dyadic panels deep; the small eigenvalue sits in its own
        # (permuted) 1x1 block, so the LU solves stay exact in it
        rng = np.random.default_rng(109)
        for n in range(2, 11):
            cases = [random_dissipative(rng, n, allow_flat=False)]
            for rank in (n - 1, 1, 0):
                c = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
                cases.append(random_hermitian(rng, n) + 1j * (c @ c.conj().T) / n)
            body = random_dissipative(rng, n - 1, allow_flat=False)
            tiny = 1e-8 * np.linalg.norm(body, 2) * np.exp(1j * rng.uniform(0.0, np.pi))
            block = np.zeros((n, n), dtype=complex)
            block[0, 0], block[1:, 1:] = tiny, body
            perm = rng.permutation(n)
            cases.append(block[np.ix_(perm, perm)])
            assert np.linalg.cond(cases[-1]) == pytest.approx(1e8, rel=0.5)
            for t in cases:
                assert frobenius(logm_dissipative(t) - logm_oracle_diag(t)) <= 1e-10

    def test_large_and_small_norms(self):
        # the fold sits near 1 whatever the norm, so the tail keeps its digits
        rng = np.random.default_rng(110)
        t = random_dissipative(rng, 4, min_strict=0.2, allow_flat=False)
        base = logm_dissipative(t)
        for scale in (1e-6, 1e3, 1e9):
            shifted = base + np.log(scale) * np.eye(4)
            assert frobenius(logm_dissipative(scale * t) - shifted) <= 1e-12 * frobenius(shifted)

    @pytest.mark.parametrize(
        "t",
        [
            1e308j * np.eye(2),
            3e307j * np.eye(2),
            1e-310j * np.eye(1),
            5e-324j * np.eye(1),
            np.array([1e200j * np.eye(2), 1e-200j * np.eye(2)]),
        ],
        ids=["1e308", "3e307", "1e-310", "5e-324", "stack-1e200-1e-200"],
    )
    def test_mesh_past_the_double_range_refused(self, t):
        with pytest.raises(PreconditionError, match="past the double range"):
            logm_dissipative(t)
        with pytest.raises(PreconditionError, match="past the double range"):
            logm_antidissipative(t.conj().swapaxes(-1, -2))

    @pytest.mark.parametrize("z", [2e307j, 1e307j, 3e-308j])
    def test_near_the_range_ends_unwarned(self, z):
        # the tail nodes once overflowed an exponential they never use
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logm_dissipative(z * np.eye(2))
        want = scalar_log(z) * np.eye(2)
        assert frobenius(got - want) <= 1e-12 * frobenius(want)

    def test_one_round_of_quadrature(self, monkeypatch):
        # in the logarithmic variable every pole of the middle part lies at
        # least pi/2 from its panel, so the initial mesh already meets the
        # tolerance: one integrand call per logarithm, also for ||T|| >> 1
        rng = np.random.default_rng(0)
        cases = []
        for n in range(2, 11):
            for _ in range(3):
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                cases.append(0.5 * (a + a.conj().T) + 1j * (b @ b.conj().T) / n)
        cases.append(100j * np.eye(3))
        calls = []
        panels = quadrature._panels
        monkeypatch.setattr(
            quadrature, "_panels", lambda *args: calls.append(1) or panels(*args)
        )
        for t in cases:
            calls.clear()
            logm = logm_dissipative(t)
            assert len(calls) == 1
            assert frobenius(logm - logm_oracle_diag(t)) <= 1e-12

    def test_one_round_for_stacks_with_singular_imaginary_parts(self, monkeypatch):
        # the same for stacks of random draws, a third of them with a
        # singular imaginary part, at every n = 2..10
        rng = np.random.default_rng(1)
        calls = []
        panels = quadrature._panels
        monkeypatch.setattr(
            quadrature, "_panels", lambda *args: calls.append(1) or panels(*args)
        )
        for n in range(2, 11):
            stack = np.array([random_dissipative(rng, n) for _ in range(4)])
            calls.clear()
            logs = logm_dissipative(stack)
            assert len(calls) == 1
            for t, logm in zip(stack, logs):
                assert frobenius(logm - logm_oracle_diag(t)) <= 1e-11

    @pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
    def test_overflowing_norm_refused_without_warnings(self, stacked):
        # finite entries whose modulus 1.97e308 overflows: the SVD returns
        # NaN, which is a norm past the range, not a singular matrix
        t = np.array([[1e308 + 1.7e308j]])
        arg = np.array([2j * np.eye(1), t]) if stacked else t
        what = "matrix 1 of the stack" if stacked else "matrix"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match=f"^{what} is past the double range"):
                logm_dissipative(arg)
            with pytest.raises(PreconditionError, match=f"^{what} is past the double range"):
                logm_antidissipative(arg.conj().swapaxes(-1, -2))

    def test_overflowing_condition_estimate_refused_without_warnings(self):
        # smax / smin = 1.4e300 / 1.4e-10 overflows: singular, unwarned
        t = np.diag([1e300 + 1e300j, 1e-10 + 1e-10j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="singular.*condition estimate inf"):
                logm_dissipative(t)

    def test_ill_conditioned_draws_refused_at_most_16_of_100(self):
        # eigenvalues from 1e-8 to 1 at random phases under a random unitary:
        # below smin(T) the solves carry noise of about cond(T) eps, which the
        # estimate reads as quadrature error on some draws (a known fault).
        # Scaling the solution by the node's weight, not the matrix, keeps
        # those refusals at 16; the other draws agree with the oracle.
        rng = np.random.default_rng(7)
        refused = 0
        for _ in range(100):
            n = int(rng.integers(2, 11))
            u = random_unitary(rng, n)
            th = rng.uniform(0.0, np.pi, n)
            t = (u * (np.logspace(-8, 0, n) * np.exp(1j * th))) @ u.conj().T
            try:
                logm = logm_dissipative(t)
            except ConvergenceError:
                refused += 1
                continue
            oracle = logm_oracle_diag(t)
            assert frobenius(logm - oracle) <= 1e-9 * frobenius(oracle)
        assert refused <= 16

    def test_rejects_non_dissipative(self):
        with pytest.raises(PreconditionError, match="not dissipative"):
            logm_dissipative(np.array([[-1j]]))

    def test_rejects_singular(self):
        with pytest.raises(PreconditionError, match="singular"):
            logm_dissipative(np.zeros((2, 2)))


class TestLogmOracle:
    def test_diagonal(self):
        l = logm_oracle_diag(np.diag([1j, 2.0]))
        assert np.allclose(np.diag(l), [1j * np.pi / 2, np.log(2.0)])

    def test_roundtrip_upper_spectrum(self):
        rng = np.random.default_rng(103)
        s = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        t = s @ np.diag([1.0 + 1.0j, 3.0j]) @ np.linalg.inv(s)
        l = logm_oracle_diag(t)
        assert frobenius(expm(l) - t) <= 1e-9 * frobenius(t)

    def test_cross_oracle_agreement(self):
        rng = np.random.default_rng(104)
        for _ in range(20):
            t = random_dissipative(rng, 5, min_strict=0.2, allow_flat=False)
            assert frobenius(logm_dissipative(t) - logm_oracle_diag(t)) <= 1e-8

    def test_defective_rejected(self):
        with pytest.raises(PreconditionError):
            logm_oracle_diag(np.array([[1j, 1.0], [0.0, 1j]]))

    @pytest.mark.parametrize(
        "t, shown",
        [
            (np.array([[1e308 + 1.7e308j]]), "nan+nanj"),
            (
                np.array([
                    [-1e308 + 1j, -1e308 + 5e-324j, 1e200 + 1e-308j],
                    [1.7e308 - 1e200j, 1.7e308j, 1 + 1j],
                    [1e-308 + 5e-324j, 5e-324 + 1e-200j, 5e-324 - 1e308j],
                ]),
                "+infj",
            ),
        ],
        ids=["nan", "inf"],
    )
    def test_non_finite_eigenvalues_refused_without_warnings(self, t, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="non-finite eigenvalues") as exc:
                logm_oracle_diag(t, Branch.LN)
        assert shown in str(exc.value)

    def test_failed_decomposition_refused(self, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", fail)
        with pytest.raises(
            PreconditionError, match="the eigendecomposition failed: Eigenvalues did not converge"
        ):
            logm_oracle_diag(2j * np.eye(2))


class TestLogmAntidissipative:
    def test_scalar_conjugate(self):
        s = (2.0 - 1.0j) * np.eye(2)
        expected = np.conj(scalar_log(2.0 + 1.0j)) * np.eye(2)
        assert frobenius(logm_antidissipative(s) - expected) < 1e-10

    def test_positive_definite_real_log(self):
        rng = np.random.default_rng(105)
        c = rng.standard_normal((3, 3))
        s = c @ c.T + np.eye(3)
        l = logm_antidissipative(s)
        assert frobenius(imaginary_part(l)) <= 1e-10
        assert frobenius(expm(l) - s) <= 1e-8 * frobenius(s)

    def test_definitional_adjoint(self):
        rng = np.random.default_rng(106)
        t = random_dissipative(rng, 4)
        s = t.conj().T
        assert np.array_equal(logm_antidissipative(s), logm_dissipative(s.conj().T).conj().T)


class TestBridge:
    def test_zero(self):
        br = tr_log_det_bridge(np.zeros((3, 3)))
        assert br.residual < 1e-12 and br.winding == 0
        assert br.trace_log == pytest.approx(0.0)

    def test_diagonal(self):
        br = tr_log_det_bridge(np.diag([1.0, 1j]))
        expected = np.log(2.0) + scalar_log(1.0 + 1.0j)
        assert br.trace_log == pytest.approx(expected, abs=1e-10)
        assert br.residual < 1e-10 and br.winding == 0

    def test_random_dissipative(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            t = random_dissipative(rng, 4)
            br = tr_log_det_bridge(t - np.eye(4))
            assert br.residual < 1e-8

    def test_winding_counted(self):
        # three eigenvalues near the negative reals push the summed phase
        # beyond one branch period
        t = np.diag([-1.0 + 0.05j, -1.0 + 0.05j, -1.0 + 0.05j])
        br = tr_log_det_bridge(t - np.eye(3))
        assert br.residual < 1e-8
        assert br.winding == 1

    def test_trace_matches_sum_of_scalar_logs(self):
        rng = np.random.default_rng(108)
        t = random_dissipative(rng, 4, min_strict=0.3, allow_flat=False)
        w = np.linalg.eigvals(t)
        expected = sum(scalar_log(x) for x in w)
        assert trace(logm_dissipative(t)) == pytest.approx(expected, abs=1e-9)


def _mixed_stack(rng, n, count):
    """Dissipative matrices with norms from 1e-3 to 1e3, every other one
    with a singular imaginary part (rank n - 1, or 0 when n = 1)."""
    mats = []
    for i, scale in enumerate(np.logspace(-3, 3, count)):
        if i % 2:
            c = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
            t = random_hermitian(rng, n) + 1j * (c @ c.conj().T) / n
        else:
            t = random_dissipative(rng, n, allow_flat=False)
        mats.append(scale * t)
    return np.array(mats)


class TestStackedLogarithms:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_items_match_lone_logarithms(self, n):
        rng = np.random.default_rng(300 + n)
        stack = _mixed_stack(rng, n, 9)
        assert min(np.linalg.eigvalsh(imaginary_part(t))[0] for t in stack) <= 1e-12
        logs = logm_dissipative(stack)
        assert logs.shape == stack.shape
        for t, l in zip(stack, logs):
            lone = logm_dissipative(t)
            assert frobenius(l - lone) <= 1e-13 * frobenius(lone)

    @pytest.mark.parametrize("n", [2, 4])
    def test_anti_dissipative_items_match_lone_logarithms(self, n):
        rng = np.random.default_rng(310 + n)
        stack = _mixed_stack(rng, n, 7).conj().swapaxes(1, 2)
        logs = logm_antidissipative(stack)
        for s, l in zip(stack, logs):
            lone = logm_antidissipative(s)
            assert frobenius(l - lone) <= 1e-13 * frobenius(lone)

    def test_stack_longer_than_one_integral_takes(self):
        n = 12  # STACK_ENTRIES // n**2 = 7 matrices per integral
        rng = np.random.default_rng(320)
        stack = np.array([random_dissipative(rng, n, allow_flat=False) for _ in range(9)])
        logs = logm_dissipative(stack)
        for t, l in zip(stack, logs):
            lone = logm_dissipative(t)
            assert frobenius(l - lone) <= 1e-13 * frobenius(lone)

    def test_two_dimensional_argument_stays_two_dimensional(self):
        t = (2.0 + 1.0j) * np.eye(3)
        assert logm_dissipative(t).shape == (3, 3)
        assert np.array_equal(logm_dissipative(t[None])[0], logm_dissipative(t))

    @pytest.mark.parametrize(
        "bad, message",
        [
            (np.array([[-1j, 0.0], [0.0, 1.0]]), "matrix 2 of the stack is not dissipative"),
            (np.zeros((2, 2)), "matrix 2 of the stack is singular"),
            (np.full((2, 2), np.nan), "matrix 2 of the stack has non-finite entries"),
        ],
    )
    def test_bad_item_is_named(self, bad, message):
        good = (2.0 + 1.0j) * np.eye(2)
        with pytest.raises(PreconditionError, match=message):
            logm_dissipative(np.array([good, good, bad, good]))

    def test_bad_anti_dissipative_item_is_named(self):
        good = (2.0 - 1.0j) * np.eye(2)
        bad = np.array([[1j, 0.0], [0.0, 1.0]])
        with pytest.raises(PreconditionError, match="matrix 1 of the stack is not anti-dissipative"):
            logm_antidissipative(np.array([good, bad]))

    @pytest.mark.parametrize("shape", [(3, 0, 0), (0, 2, 2)])
    def test_empty_stacks(self, shape):
        for fn in (logm_dissipative, logm_antidissipative):
            out = fn(np.zeros(shape, dtype=complex))
            assert out.shape == shape and not out.any()
