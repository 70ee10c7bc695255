import numpy as np
import pytest

from kreinshift.errors import ConvergenceError
from kreinshift.quadrature import PanelInfo, integrate_adaptive, integrate_piecewise


def _matrix_integrand(xs):
    # [[cos x, x^2], [e^x, 1/(1 + x^2)]] for every abscissa
    out = np.empty((xs.size, 2, 2))
    out[:, 0, 0] = np.cos(xs)
    out[:, 0, 1] = xs**2
    out[:, 1, 0] = np.exp(xs)
    out[:, 1, 1] = 1.0 / (1.0 + xs**2)
    return out


def _matrix_antiderivative(x):
    return np.array([[np.sin(x), x**3 / 3.0], [np.exp(x), np.arctan(x)]])


SEGMENTS = [(-1.0, 0.5), (0.5, 2.0), (3.0, 4.5), (5.0, 5.25)]


class TestIntegrateAdaptive:
    @pytest.mark.parametrize("degree", range(14))
    def test_polynomials_exact_on_one_panel(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.standard_normal(degree + 1)
        a, b = -0.7, 1.9
        val, info = integrate_adaptive(
            lambda xs: np.polyval(coeffs, xs), [(a, b)], rel_tol=1e-12, max_panels=64
        )
        anti = np.polyint(coeffs)
        exact = np.polyval(anti, b) - np.polyval(anti, a)
        assert info.panels == 1
        assert abs(val - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_matrix_valued_over_several_segments(self):
        val, info = integrate_adaptive(_matrix_integrand, SEGMENTS, rel_tol=1e-12, max_panels=256)
        exact = sum(_matrix_antiderivative(b) - _matrix_antiderivative(a) for a, b in SEGMENTS)
        assert val.shape == (2, 2)
        assert np.max(np.abs(val - exact)) <= 1e-11 * np.max(np.abs(exact))
        assert info.panels >= len(SEGMENTS) and info.error >= 0.0

    def test_bit_identical_for_any_segment_order(self):
        def oscillating(xs):
            return np.stack([np.exp(8j * xs), xs**3 * np.sin(xs)], axis=1)

        ref_val, ref_info = integrate_adaptive(oscillating, SEGMENTS, rel_tol=1e-12, max_panels=512)
        assert ref_info.panels > len(SEGMENTS)  # several rounds of bisection
        rng = np.random.default_rng(0)
        for _ in range(5):
            order = rng.permutation(len(SEGMENTS))
            val, info = integrate_adaptive(
                oscillating, [SEGMENTS[i] for i in order], rel_tol=1e-12, max_panels=512
            )
            assert np.array_equal(val, ref_val)
            assert info == ref_info

    def test_budget_exhausted_raises_within_budget(self):
        calls = []

        def divergent(xs):
            calls.append(xs.size // 15)
            return 1.0 / (xs - 0.3) ** 2

        max_panels = 100
        with pytest.raises(ConvergenceError, match=f"after {max_panels} panels"):
            integrate_adaptive(divergent, [(0.0, 1.0)], rel_tol=1e-10, max_panels=max_panels)
        # each bisection replaces one live panel by two new ones
        live = calls[0] + sum(calls[1:]) // 2
        assert len(calls) > 2 and live == max_panels

    @pytest.mark.parametrize("segments", [[], [(1.0, 1.0)], [(2.0, 1.0), (0.5, 0.5)]])
    def test_empty_segments_raise(self, segments):
        with pytest.raises(ConvergenceError, match="no integration segments"):
            integrate_adaptive(np.cos, segments, rel_tol=1e-10, max_panels=64)

    def test_scalar_integrand(self):
        val, info = integrate_adaptive(np.cos, [(0.0, np.pi / 2)], rel_tol=1e-12, max_panels=64)
        assert np.ndim(val) == 0
        assert val == pytest.approx(1.0, abs=1e-14)
        assert isinstance(info, PanelInfo)


class TestIntegratePiecewise:
    def test_pieces_sum(self):
        breakpoints = [2.0, -1.0, 0.5]
        val, info = integrate_piecewise(
            _matrix_integrand, breakpoints, rel_tol=1e-12, max_panels=64
        )
        exact = _matrix_antiderivative(2.0) - _matrix_antiderivative(-1.0)
        assert np.max(np.abs(val - exact)) <= 1e-11 * np.max(np.abs(exact))
        assert info.panels >= 2

    def test_empty_interval_raises(self):
        with pytest.raises(ConvergenceError, match="empty interval"):
            integrate_piecewise(np.cos, [1.0, 1.0], rel_tol=1e-10, max_panels=64)
