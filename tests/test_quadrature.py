import math

import numpy as np
import pytest

from kreinshift.errors import ConvergenceError
from kreinshift.quadrature import (
    _GAUSS_W,
    _KRONROD_W,
    _NODES,
    LAM_ABS_TOL,
    LAM_MAX_PANELS,
    LAM_REL_TOL,
    PanelInfo,
    _panels,
    integrate_adaptive,
    integrate_piecewise,
)


def _matrix_integrand(xs):
    # [[cos x, x^2], [e^x, 1/(1 + x^2)]] for every abscissa
    out = np.empty((xs.size, 2, 2))
    out[:, 0, 0] = np.cos(xs)
    out[:, 0, 1] = xs**2
    out[:, 1, 0] = np.exp(xs)
    out[:, 1, 1] = 1.0 / (1.0 + xs**2)
    return out


def _one(f):
    """f as a stack of one integral: values (m, ...) become (m, 1, ...)."""
    return lambda xs: f(xs)[:, None]


def _matrix_antiderivative(x):
    return np.array([[np.sin(x), x**3 / 3.0], [np.exp(x), np.arctan(x)]])


SEGMENTS = [(-1.0, 0.5), (0.5, 2.0), (3.0, 4.5), (5.0, 5.25)]


class TestRule:
    """The 15-point Kronrod rule and its embedded 7-point Gauss rule."""

    @pytest.mark.parametrize("weights", [_KRONROD_W, _GAUSS_W], ids=["kronrod", "gauss"])
    def test_weights_sum_to_the_length_of_the_interval(self, weights):
        assert abs(math.fsum(weights) - 2.0) <= 4 * np.spacing(2.0)

    @pytest.mark.parametrize(
        "weights, degree", [(_KRONROD_W, 22), (_GAUSS_W, 13)], ids=["kronrod", "gauss"]
    )
    def test_monomials_exact_up_to_the_degree_of_the_rule(self, weights, degree):
        for d in range(degree + 1):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(math.fsum(weights * _NODES**d) - exact) <= 4 * np.spacing(2.0), d


def _reference_panels(f, lo, hi):
    """Kronrod sums, estimates and masses of the panels [lo, hi] by two
    complex einsum contractions, as the rule defines them: the estimate is
    the Frobenius norm of Kronrod minus Gauss per item, the mass the
    Kronrod sum of the Frobenius norms of the item's values."""
    half = 0.5 * (hi - lo)
    xs = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    vals = np.asarray(f(xs.ravel()), dtype=complex)
    items = vals.shape[1]
    vals = vals.reshape(lo.size, _NODES.size, -1)
    ik = half[:, None] * np.einsum("k,pkv->pv", _KRONROD_W, vals)
    ig = half[:, None] * np.einsum("k,pkv->pv", _GAUSS_W, vals)
    errs = np.linalg.norm((ik - ig).reshape(lo.size, items, -1), axis=2)
    mags = np.linalg.norm(vals.reshape(lo.size, _NODES.size, items, -1), axis=3)
    mass = half[:, None] * np.einsum("k,pkb->pb", _KRONROD_W, mags)
    return ik, errs, mass


class TestPanels:
    """One real matmul over the float view of the values against the two
    complex contractions it replaces."""

    @pytest.mark.parametrize("items", [1, 5])
    def test_matches_the_two_einsum_reference(self, items):
        rng = np.random.default_rng(40 + items)
        lo = np.sort(rng.uniform(-3.0, 3.0, 9))
        hi = lo + rng.uniform(0.05, 2.0, 9)
        freq = rng.standard_normal((items, 3, 4)) + 1j * rng.standard_normal((items, 3, 4))
        phase = rng.standard_normal((items, 3, 4))
        weight = 10.0 ** rng.uniform(-6.0, 6.0, (items, 1, 1))

        def f(xs):
            return weight * np.exp(1j * (xs[:, None, None, None] * freq + phase))

        vals, errs, mass, shape = _panels(f, lo, hi)
        want_vals, want_errs, want_mass = _reference_panels(f, lo, hi)
        assert shape == (items, 3, 4)
        got = np.ascontiguousarray(vals).view(complex).reshape(lo.size, items, -1)
        # every sum, its difference of the rules and its norms stay below the
        # item's mass on the panel, so a few ulps of that bound them all
        scale = 8 * np.finfo(float).eps * want_mass
        assert np.all(np.abs(got - want_vals.reshape(lo.size, items, -1)) <= scale[:, :, None])
        assert np.all(np.abs(errs - want_errs) <= scale)
        assert np.all(np.abs(mass - want_mass) <= scale)


class TestIntegrateAdaptive:
    @pytest.mark.parametrize("degree", range(14))
    def test_polynomials_exact_on_one_panel(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.standard_normal(degree + 1)
        a, b = -0.7, 1.9
        val, info = integrate_adaptive(
            _one(lambda xs: np.polyval(coeffs, xs)), [(a, b)], rel_tol=1e-12, max_panels=64
        )
        anti = np.polyint(coeffs)
        exact = np.polyval(anti, b) - np.polyval(anti, a)
        assert info.panels == 1
        assert abs(val[0] - exact) <= 16 * np.finfo(float).eps * max(1.0, abs(exact))

    def test_matrix_valued_over_several_segments(self):
        val, info = integrate_adaptive(
            _one(_matrix_integrand), SEGMENTS, rel_tol=1e-12, max_panels=256
        )
        exact = sum(_matrix_antiderivative(b) - _matrix_antiderivative(a) for a, b in SEGMENTS)
        assert val.shape == (1, 2, 2)
        assert np.max(np.abs(val[0] - exact)) <= 1e-11 * np.max(np.abs(exact))
        assert info.panels >= len(SEGMENTS) and info.error >= 0.0

    def test_bit_identical_for_any_segment_order(self):
        def oscillating(xs):
            return np.stack([np.exp(8j * xs), xs**3 * np.sin(xs)], axis=1)[:, None]

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
            return (1.0 / (xs - 0.3) ** 2)[:, None]

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

    def test_overflowing_panel_raises_at_once(self):
        # the Kronrod and Gauss sums of 1e308 overflow; no bisection repairs
        # that, so the run stops after its first call of the integrand
        calls = []

        def huge(xs):
            calls.append(xs.size)
            return np.full((xs.size, 1), 1e308)

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ConvergenceError, match="not finite"):
                integrate_adaptive(huge, [(0.0, 1.0)], rel_tol=1e-10, max_panels=4096)
        assert len(calls) == 1

    def test_scalar_integrand(self):
        val, info = integrate_adaptive(
            _one(np.cos), [(0.0, np.pi / 2)], rel_tol=1e-12, max_panels=64
        )
        assert val.shape == (1,)
        assert val[0] == pytest.approx(1.0, abs=1e-14)
        assert isinstance(info, PanelInfo)


class TestIntegratePiecewise:
    def test_pieces_sum(self):
        breakpoints = [2.0, -1.0, 0.5]
        val, info = integrate_piecewise(_matrix_integrand, breakpoints)
        exact = _matrix_antiderivative(2.0) - _matrix_antiderivative(-1.0)
        assert np.max(np.abs(val - exact)) <= 1e-11 * np.max(np.abs(exact))
        assert info.panels >= 2

    def test_empty_interval_raises(self):
        with pytest.raises(ConvergenceError, match="empty interval"):
            integrate_piecewise(np.cos, [1.0, 1.0])

    def test_equal_to_the_stack_of_one(self):
        # integrate_piecewise is integrate_adaptive on the stack of one at
        # its fixed tolerances, bit for bit
        breakpoints = [2.0, -1.0, 0.5, 0.75]
        val, info = integrate_piecewise(_matrix_integrand, breakpoints)
        pts = sorted(breakpoints)
        ref_val, ref_info = integrate_adaptive(
            _one(_matrix_integrand),
            zip(pts[:-1], pts[1:]),
            LAM_REL_TOL,
            LAM_MAX_PANELS,
            abs_tol=LAM_ABS_TOL,
        )
        assert val.shape == (2, 2)
        assert np.array_equal(val, ref_val[0])
        assert info == ref_info


def _mixed_stack():
    """1e6 (x - 0.3)^3, exact on one panel, and two Lorentzian peaks
    c / ((x - x0)^2 + w^2) of weights 1e-6 and 1, with their exact integrals."""
    peaks = ((1e-6, 0.7, 1e-2), (1.0, -0.4, 5e-2))

    def f(xs):
        items = [1e6 * (xs - 0.3) ** 3]
        items += [c / ((xs - x0) ** 2 + w**2) for c, x0, w in peaks]
        return np.stack(items, axis=1)

    def exact(a, b):
        out = [1e6 * ((b - 0.3) ** 4 - (a - 0.3) ** 4) / 4.0]
        out += [c / w * (np.arctan((b - x0) / w) - np.arctan((a - x0) / w)) for c, x0, w in peaks]
        return np.array(out)

    return f, exact


class TestStackedIntegrals:
    def test_each_item_meets_its_own_tolerance(self):
        f, exact = _mixed_stack()
        segments = [(-1.0, 0.5), (0.5, 2.0)]
        want = exact(-1.0, 2.0)
        rel_tol = 1e-12
        val, info = integrate_adaptive(f, segments, rel_tol=rel_tol, max_panels=512)
        assert val.shape == (3,)
        assert np.all(np.abs(val - want) <= rel_tol * np.abs(want))
        assert info.panels > len(segments)
        # one tolerance for the whole vector, set by the large item, leaves
        # the small peak unresolved
        joint, _ = integrate_adaptive(_one(f), segments, rel_tol=rel_tol, max_panels=512)
        assert abs(joint[0, 1] - want[1]) > 1e3 * rel_tol * abs(want[1])

    def test_one_item_budget_failure_names_no_item(self):
        def f(xs):
            return (1.0 / (xs - 0.3) ** 2)[:, None]

        with pytest.raises(ConvergenceError) as exc:
            integrate_adaptive(f, [(0.0, 1.0)], rel_tol=1e-10, max_panels=100)
        assert "item" not in str(exc.value)
        assert "estimate" in str(exc.value) and "after 100 panels" in str(exc.value)

    def test_one_divergent_item_exhausts_the_budget(self):
        def f(xs):
            return np.stack([np.cos(xs), 1.0 / (xs - 0.3) ** 2], axis=1)

        with pytest.raises(ConvergenceError, match="in item 1 of 2 after 100 panels"):
            integrate_adaptive(f, [(0.0, 1.0)], rel_tol=1e-10, max_panels=100)

    def test_bit_identical_for_any_segment_order(self):
        def f(xs):
            return np.stack([np.exp(8j * xs), 1e-6 * xs**3 * np.sin(xs), 1e6 / (1.0 + xs**2)], axis=1)

        ref_val, ref_info = integrate_adaptive(f, SEGMENTS, rel_tol=1e-12, max_panels=512)
        assert ref_info.panels > len(SEGMENTS)
        rng = np.random.default_rng(1)
        for _ in range(5):
            order = rng.permutation(len(SEGMENTS))
            val, info = integrate_adaptive(
                f, [SEGMENTS[i] for i in order], rel_tol=1e-12, max_panels=512
            )
            assert np.array_equal(val, ref_val)
            assert info == ref_info
