import math

import numpy as np
import pytest

from kreinshift import averaging, shift
from kreinshift.averaging import (
    PerturbationPath,
    TestFunction,
    averaged_pairing_lhs,
    averaged_pairing_rhs,
    derivative_identity_residual,
    operator_average_increment,
    operator_average_residual,
    operator_increment_residual,
)
from kreinshift.errors import PreconditionError
from kreinshift.generators import random_hermitian, random_indefinite, random_psd
from kreinshift.matkit import apply_spectral_function, frobenius, hermitian_part, trace


def unit_path(v1, s1=0.0, s2=1.0):
    return PerturbationPath(np.zeros_like(np.asarray(v1)), v1, s1, s2)


class TestTestFunction:
    def test_polynomial_antiderivative(self):
        f = TestFunction.polynomial([1.0, 2.0, 3.0])
        xs = np.linspace(-2, 2, 7)
        h = 1e-6
        for x in xs:
            fd = (f.antiderivative(x + h) - f.antiderivative(x - h)) / (2 * h)
            assert fd == pytest.approx(f(x), abs=1e-6)

    def test_gaussian_antiderivative(self):
        f = TestFunction.gaussian(0.5, 1.3)
        h = 1e-6
        for x in (-1.0, 0.5, 2.0):
            fd = (f.antiderivative(x + h) - f.antiderivative(x - h)) / (2 * h)
            assert fd == pytest.approx(f(x), abs=1e-6)

    def test_resolvent_im_antiderivative(self):
        f = TestFunction.resolvent_im(0.3 + 0.8j)
        h = 1e-6
        for x in (-1.0, 0.3, 2.0):
            fd = (f.antiderivative(x + h) - f.antiderivative(x - h)) / (2 * h)
            assert fd == pytest.approx(f(x), abs=1e-6)
        assert f(0.0) > 0.0

    def test_validation(self):
        with pytest.raises(PreconditionError):
            TestFunction.gaussian(0.0, -1.0)
        with pytest.raises(PreconditionError):
            TestFunction.resolvent_im(1.0 - 1.0j)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TestFunction.polynomial([math.nan]),
            lambda: TestFunction.polynomial([math.inf, 1.0]),
            lambda: TestFunction.gaussian(0.0, math.inf),
            lambda: TestFunction.gaussian(0.0, math.nan),
            lambda: TestFunction.gaussian(math.nan, 1.0),
            lambda: TestFunction.resolvent_im(complex(0.0, math.inf)),
            lambda: TestFunction.resolvent_im(complex(math.nan, 1.0)),
        ],
        ids=["poly-nan", "poly-inf", "gauss-width-inf", "gauss-width-nan", "gauss-center-nan",
             "imres-im-inf", "imres-re-nan"],
    )
    def test_non_finite_parameters_refused(self, build):
        with pytest.raises(PreconditionError, match="finite"):
            build()


class TestWeakPairing:
    def test_frozen_half(self):
        h0 = np.diag([0.0, 1.0]).astype(complex)
        path = unit_path(np.diag([1.0, 0.0]))
        f = TestFunction.polynomial([0.0, 1.0])
        assert averaged_pairing_lhs(h0, path, f) == pytest.approx(0.5, abs=1e-12)
        assert averaged_pairing_rhs(h0, path, f) == pytest.approx(0.5, abs=1e-12)

    def test_constant_function(self):
        rng = np.random.default_rng(70)
        h0 = random_hermitian(rng, 4)
        v1 = random_indefinite(rng, 4, 3)
        path = PerturbationPath(0.2 * random_indefinite(rng, 4, 2), v1, -0.4, 0.9)
        f = TestFunction.polynomial([1.0])
        expected = trace(v1).real * (path.s2 - path.s1)
        assert averaged_pairing_lhs(h0, path, f) == pytest.approx(expected, abs=1e-10)
        assert averaged_pairing_rhs(h0, path, f) == pytest.approx(expected, abs=1e-10)

    def test_zero_direction(self):
        rng = np.random.default_rng(71)
        h0 = random_hermitian(rng, 3)
        path = unit_path(np.zeros((3, 3)))
        f = TestFunction.gaussian(0.0, 1.0)
        assert averaged_pairing_lhs(h0, path, f) == 0.0
        assert averaged_pairing_rhs(h0, path, f) == 0.0

    def test_no_crossings_far_support(self):
        # test function supported far from every eigenvalue the path visits
        h0 = np.diag([0.0, 1.0]).astype(complex)
        path = unit_path(np.diag([0.1, 0.0]))
        f = TestFunction.gaussian(50.0, 0.2)
        assert averaged_pairing_lhs(h0, path, f) == pytest.approx(0.0, abs=1e-12)
        assert averaged_pairing_rhs(h0, path, f) == pytest.approx(0.0, abs=1e-12)

    def test_equality_indefinite_directions(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            h0 = random_hermitian(rng, n)
            v1 = random_indefinite(rng, n, max(2, n - 1))
            v0 = 0.4 * random_indefinite(rng, n, 2)
            path = PerturbationPath(v0, v1, float(rng.uniform(-0.5, 0)), float(rng.uniform(0.6, 1.4)))
            for f in (
                TestFunction.polynomial(rng.uniform(-1, 1, size=7)),
                TestFunction.gaussian(0.3, 1.2),
                TestFunction.resolvent_im(0.2 + 1.1j),
            ):
                lhs = averaged_pairing_lhs(h0, path, f)
                rhs = averaged_pairing_rhs(h0, path, f)
                assert abs(lhs - rhs) <= 1e-4 * (1.0 + abs(lhs))

    def test_positivity(self):
        rng = np.random.default_rng(73)
        h0 = random_hermitian(rng, 4)
        path = unit_path(random_psd(rng, 4))
        for f in (TestFunction.gaussian(0.0, 1.0), TestFunction.polynomial([1.0, 0.0, 1.0])):
            assert averaged_pairing_lhs(h0, path, f) >= -1e-10

    def test_exactness_degree_twelve(self):
        # S_NODES Gauss-Legendre nodes integrate the degree-12 polynomial
        # integrand exactly, so the left side is the exact pairing
        rng = np.random.default_rng(74)
        h0 = random_hermitian(rng, 3)
        path = unit_path(random_indefinite(rng, 3, 2))
        f = TestFunction.polynomial(rng.uniform(-0.5, 0.5, size=13))
        lhs = averaged_pairing_lhs(h0, path, f)
        rhs = averaged_pairing_rhs(h0, path, f)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestStackedQuadratures:
    """The s-nodes of both averaging quadratures are one stacked spectral
    function; each weighted term is summed in node order, so the result
    equals the node-by-node sum bit for bit."""

    @staticmethod
    def instance(seed):
        rng = np.random.default_rng(seed)
        h0 = random_hermitian(rng, 5)
        path = PerturbationPath(
            0.4 * random_indefinite(rng, 5, 2), random_indefinite(rng, 5, 4), -0.3, 1.1
        )
        k = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        return h0, path, k

    @pytest.mark.parametrize(
        "f",
        [TestFunction.polynomial([0.3, -1.0, 0.5]), TestFunction.gaussian(0.2, 0.9),
         TestFunction.resolvent_im(0.1 + 0.7j)],
        ids=["poly", "gauss", "imres"],
    )
    def test_equal_to_node_by_node_sums(self, f):
        h0, path, k = self.instance(80)
        xs, ws = averaging._gauss_legendre(path.s1, path.s2, averaging.S_NODES)
        acc = 0.0
        for s, w in zip(xs, ws):
            fh = apply_spectral_function(h0 + path.v(float(s)), f)
            acc += w * trace(path.v1 @ fh).real
        assert averaged_pairing_lhs(h0, path, f) == float(acc)

        kk = hermitian_part(k @ k.conj().T)
        xs, ws = averaging._gauss_legendre(-0.4, 0.8, averaging.S_NODES)
        lhs = np.zeros((2, 2), dtype=np.complex128)
        for s, w in zip(xs, ws):
            lhs = lhs + w * (k.conj().T @ apply_spectral_function(h0 + float(s) * kk, f) @ k)
        assert np.array_equal(operator_increment_residual(h0, k, -0.4, 0.8, f).lhs, lhs)

    def test_legendre_rule_computed_once_per_size(self):
        first = averaging._legendre_rule(32)
        assert averaging._legendre_rule(32) is first
        xs, ws = np.polynomial.legendre.leggauss(32)
        assert np.array_equal(first[0], xs) and np.array_equal(first[1], ws)
        assert not first[0].flags.writeable and not first[1].flags.writeable


class TestDerivativeIdentity:
    def test_zero_direction(self):
        rng = np.random.default_rng(75)
        h0 = random_hermitian(rng, 3)
        w = random_psd(rng, 3)
        path = PerturbationPath(w, np.zeros((3, 3)), 0.0, 1.0)
        assert derivative_identity_residual(h0, path, 0.5, 1j) < 1e-8

    def test_scalar_frozen(self):
        # base 0, path s: both sides equal 1/(s - i) at z = i
        path = unit_path(np.ones((1, 1)))
        res = derivative_identity_residual(np.zeros((1, 1)), path, 0.3, 1j)
        assert res < 1e-8

    def test_random_psd_path(self):
        rng = np.random.default_rng(76)
        for _ in range(3):
            n = int(rng.integers(2, 5))
            w = random_psd(rng, n)
            path = PerturbationPath(w, w, 0.0, 1.0)
            h0 = random_hermitian(rng, n)
            res = derivative_identity_residual(h0, path, 0.4, 1j)
            assert res < 1e-6

    def test_indefinite_slice_rejected(self):
        rng = np.random.default_rng(77)
        path = unit_path(random_indefinite(rng, 3, 2))
        with pytest.raises(PreconditionError, match="positive semidefinite"):
            derivative_identity_residual(random_hermitian(rng, 3), path, 0.5, 1j)


class TestOperatorAverage:
    def test_scalar_reduces_to_plain_integral(self):
        f = TestFunction.polynomial([0.2, 1.0, -0.5, 3.0])
        rep = operator_average_residual(np.zeros((1, 1)), np.ones((1, 1)), f)
        exact = f.antiderivative(1.0) - f.antiderivative(0.0)
        assert rep.residual < 1e-8
        assert rep.lhs[0, 0].real == pytest.approx(exact, abs=1e-10)

    def test_constant_function_first_moment(self):
        rng = np.random.default_rng(78)
        k = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        h0 = random_hermitian(rng, 4)
        rep = operator_average_residual(h0, k, TestFunction.polynomial([1.0]))
        assert frobenius(rep.lhs - k.conj().T @ k) <= 1e-10
        assert rep.residual < 1e-4

    def test_zero_factor(self):
        rep = operator_average_residual(np.zeros((3, 3)), np.zeros((3, 0)), TestFunction.polynomial([1.0]))
        assert rep.residual == 0.0

    def test_coupling_that_moves_no_eigenvalue(self, monkeypatch):
        # K K* = 1e-340 underflows to 0: H = H0, so the lam-integral has no
        # piece to integrate and the right side is zero without quadrature
        def refuse(*args, **kwargs):
            raise AssertionError("integrate_piecewise called")

        monkeypatch.setattr(shift, "integrate_piecewise", refuse)
        rep = operator_average_residual(np.zeros((1, 1)), np.array([[1e-170]]), TestFunction.polynomial([1.0]))
        assert rep.residual == 0.0
        assert np.array_equal(rep.rhs, np.zeros((1, 1)))

    def test_random_instances(self):
        rng = np.random.default_rng(79)
        for _ in range(3):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, min(3, n) + 1))
            h0 = random_hermitian(rng, n)
            k = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            f = TestFunction.polynomial(rng.uniform(-1, 1, size=4))
            assert operator_average_residual(h0, k, f).residual < 1e-4


class TestOperatorIncrement:
    def test_equal_endpoints(self):
        inc = operator_average_increment(np.zeros((2, 2)), np.eye(2), 0.7, 0.7, 0.3)
        assert np.array_equal(inc, np.zeros((2, 2)))

    def test_zero_start_is_plain_operator(self):
        rng = np.random.default_rng(80)
        h0 = random_hermitian(rng, 3)
        k = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        lam = float(np.max(np.linalg.eigvalsh(h0))) + 0.378
        a = operator_average_increment(h0, k, 0.0, 1.0, lam)
        b = operator_average_increment(h0, k, 0.5, 1.0, lam) + operator_average_increment(
            h0, k, 0.0, 0.5, lam
        )
        assert frobenius(a - b) <= 1e-10

    def test_scalar_increment(self):
        inc = operator_average_increment(np.zeros((1, 1)), np.ones((1, 1)), 0.0, 1.0, 0.5)
        assert inc[0, 0] == pytest.approx(1.0)

    def test_eigenvalue_window(self):
        rng = np.random.default_rng(81)
        h0 = random_hermitian(rng, 4)
        k = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        lam = float(np.max(np.linalg.eigvalsh(h0))) + 0.613
        inc = operator_average_increment(h0, k, 0.2, 0.9, lam)
        w = np.linalg.eigvalsh(inc)
        assert w.min() >= -1.0 - 1e-8 and w.max() <= 1.0 + 1e-8

    def test_increment_pairing(self):
        rng = np.random.default_rng(82)
        h0 = random_hermitian(rng, 3)
        k = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        f = TestFunction.polynomial([0.5, 0.3, -0.2])
        rep = operator_increment_residual(h0, k, 0.25, 0.9, f)
        assert rep.residual < 1e-4

    @pytest.mark.parametrize("s1, s2", [(-1.0, -0.2), (-0.8, 0.6)])
    def test_negative_couplings(self, s1, s2):
        # the pairs (H0, H0 + s KK*) with s < 0 have nonpositive shift operators
        rng = np.random.default_rng(83)
        for _ in range(3):
            n = int(rng.integers(2, 5))
            r = int(rng.integers(1, min(2, n) + 1))
            h0 = random_hermitian(rng, n)
            k = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            f = TestFunction.polynomial(rng.uniform(-1, 1, size=3))
            assert operator_increment_residual(h0, k, s1, s2, f).residual < 1e-4

    def test_negative_coupling_worked_pair(self):
        h0 = np.diag([0.0, 1.0])
        k = np.array([1.0, 0.5])
        rep = operator_increment_residual(h0, k, -1.0, -0.2, TestFunction.polynomial([0.3, 1.0]))
        assert rep.residual < 1e-4

    @pytest.mark.parametrize("s1, s2", [(0.0, 1e-9), (0.5, 0.5 + 1e-12), (-1.0, -1.0 + 1e-10)])
    def test_narrow_coupling_intervals(self, s1, s2):
        # the pieces between breakpoints are narrower than the exclusion
        # zones of the profiles, and the lam-integral still reads them
        h0 = np.diag([0.0, 1.0])
        k = np.array([[1.0, 0.0], [0.5, 1.0]])
        f = TestFunction.polynomial([0.3, 1.0])
        assert operator_increment_residual(h0, k, s1, s2, f).residual < 1e-12

    @pytest.mark.parametrize("s", [-0.4, -1.3])
    def test_negative_coupling_trace_is_counting_shift(self, s):
        rng = np.random.default_rng(84)
        h0 = random_hermitian(rng, 4)
        k = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        e0 = np.linalg.eigvalsh(h0)
        eh = np.linalg.eigvalsh(h0 + s * (k @ k.conj().T))
        for lam in np.linspace(min(e0[0], eh[0]) - 0.3, max(e0[-1], eh[-1]) + 0.3, 11):
            count = np.count_nonzero(e0 <= lam) - np.count_nonzero(eh <= lam)
            inc = operator_average_increment(h0, k, 0.0, s, float(lam))
            assert trace(inc).real == pytest.approx(count, abs=1e-10)


def _factor_case(kind):
    h0 = np.diag([0.0, 1.0, 2.5])
    k = np.array([[1.0, 0.0], [0.5, 1.0], [0.2, -0.3]])
    args = {"s1": 0.0, "s2": 1.0, "lam": 0.7}
    if kind == "rows":
        k = k[:2]
    elif kind == "rank":
        k = np.column_stack([k[:, 0], 2.0 * k[:, 0]])
    elif kind == "nan-k":
        k = k.copy()
        k[1, 1] = math.nan
    else:
        args[kind] = math.nan
    return h0, k, args


FACTOR_CASES = ["rows", "rank", "nan-k", "s1", "s2", "lam"]


class TestFactorCheck:
    @pytest.mark.parametrize("kind", FACTOR_CASES)
    def test_increment_refuses(self, kind):
        h0, k, args = _factor_case(kind)
        with pytest.raises(PreconditionError):
            operator_average_increment(h0, k, args["s1"], args["s2"], args["lam"])

    @pytest.mark.parametrize("kind", ["rows", "rank", "nan-k"])
    def test_average_refuses(self, kind):
        h0, k, _ = _factor_case(kind)
        with pytest.raises(PreconditionError):
            operator_average_residual(h0, k, TestFunction.polynomial([1.0, 0.5]))
