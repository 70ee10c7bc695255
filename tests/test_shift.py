import copy
import math
import warnings

import numpy as np
import pytest

from kreinshift import matkit, shift
from kreinshift.checks import DEFAULT_SEED, _trace_instances
from kreinshift.errors import ConvergenceError, PreconditionError
from kreinshift.generators import random_hermitian, random_indefinite, random_pair, random_psd
from kreinshift.herglotz import HerglotzFamily, SignBlock, boundary_log, shift_projection
from kreinshift.matkit import (
    HermitianEig,
    _sorted_unique,
    frobenius,
    hermitian_part,
    imaginary_part,
    trace,
)
from kreinshift.shift import (
    auto_grid,
    chain_and_monotonicity,
    compute_profile,
    counting_steps,
    example_3_9,
    herglotz_reconstruction_residual,
    safe_grid,
    snap_grid,
    step_integral,
    trace_formula_residual,
    trace_identity_checks,
    xi_at,
    xi_counting_oracle,
    xi_operator,
    xi_via_det,
)


def rank_one_family(v: float) -> HerglotzFamily:
    return HerglotzFamily.from_potential(np.zeros((1, 1)), v * np.ones((1, 1)))


@pytest.fixture(scope="module")
def clustered_family():
    """Six clusters of five eigenvalues of H0, each within about 1e-6, under
    a rank-12 indefinite V: halving steps of the determinant route can turn
    the phase by about 2 pi across a cluster."""
    rng = np.random.default_rng(104)
    d = np.repeat(rng.uniform(-1.0, 1.0, 6), 5) + 1e-6 * rng.standard_normal(30)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    v = 5.0 * random_indefinite(rng, 30, 12)
    return HerglotzFamily.from_potential((q * d) @ q.T, v)


@pytest.fixture(scope="module")
def random_family():
    rng = np.random.default_rng(55)
    h0 = random_hermitian(rng, 6)
    v = random_indefinite(rng, 6, 4)
    return HerglotzFamily.from_potential(h0, v)


class TestXiOperator:
    def test_worked_projection(self):
        v = np.array([[1.0, 0.4], [0.4, 1.0]])
        fam = HerglotzFamily.from_positive_root(np.zeros((2, 2)), v)
        op = xi_operator(fam, SignBlock.PLUS, 1.2)
        assert frobenius(op - np.full((2, 2), 0.5)) <= 1e-8

    def test_zero_below_joint_spectrum(self):
        rng = np.random.default_rng(56)
        h0 = random_hermitian(rng, 4)
        v = random_psd(rng, 4)
        fam = HerglotzFamily.from_potential(h0, v)
        lam = float(np.min(fam.all_spectra())) - 1.0
        assert frobenius(xi_operator(fam, SignBlock.PLUS, lam)) <= 1e-8

    def test_trivial_perturbation(self):
        fam = HerglotzFamily.from_potential(np.diag([0.0, 1.0]), np.zeros((2, 2)))
        assert fam.rank == 0
        assert xi_operator(fam, SignBlock.PLUS, 0.5).shape == (0, 0)
        assert xi_at(fam, 0.5) == 0.0

    def test_operator_bounds(self, random_family):
        for lam in safe_grid(random_family, 20):
            for which in (SignBlock.PLUS, SignBlock.MINUS):
                w = np.linalg.eigvalsh(xi_operator(random_family, which, lam))
                assert w.min() >= -1e-8 and w.max() <= 1.0 + 1e-8


class TestXiAt:
    def test_rank_one_steps(self):
        fam = rank_one_family(1.0)
        assert xi_at(fam, 0.5) == pytest.approx(1.0, abs=1e-8)
        assert xi_at(fam, -0.5) == pytest.approx(0.0, abs=1e-8)
        assert xi_at(fam, 1.5) == pytest.approx(0.0, abs=1e-8)

    def test_rank_one_negative(self):
        fam = rank_one_family(-1.0)
        assert xi_at(fam, -0.5) == pytest.approx(-1.0, abs=1e-8)
        assert xi_at(fam, -1.5) == pytest.approx(0.0, abs=1e-8)
        assert xi_at(fam, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_matches_counting_oracle(self, random_family):
        for lam in safe_grid(random_family, 50):
            assert xi_at(random_family, lam) == pytest.approx(
                xi_counting_oracle(random_family, lam), abs=1e-6
            )

    def test_each_block_refuses_in_its_own_zones(self, random_family):
        # the + block checks H0 first, then the - block H+: of a point at
        # an eigenvalue of H+ and a later one at an eigenvalue of H0, the
        # refusal names the second
        fam = random_family
        at_h0, at_plus = float(fam.eig0.eigenvalues[1]), float(fam.eig_plus.eigenvalues[3])
        assert np.min(np.abs(fam.eig0.eigenvalues - at_plus)) > fam.exclusion_width()
        with pytest.raises(PreconditionError, match=f"lambda={at_h0!r} lies within"):
            xi_at(fam, np.array([at_plus, at_h0]))
        with pytest.raises(PreconditionError, match=f"lambda={at_plus!r} lies within"):
            xi_at(fam, at_plus)

    def test_a_grid_of_two_dimensions_keeps_the_chunk_budget(self, random_family, monkeypatch):
        fam = random_family
        grid = safe_grid(fam, 8)[:8]
        flat = xi_at(fam, grid)
        per_point = 16 * fam.dim * max(fam.n_plus, fam.n_minus)
        monkeypatch.setattr(shift, "PROFILE_CHUNK_BYTES", 2 * per_point)
        assert [s.stop - s.start for s in shift._chunks(fam, grid.size)] == [2] * 4
        stacks = []

        def recording(stack):
            stacks.append(len(stack))
            return shift_projection(stack)

        monkeypatch.setattr(shift, "shift_projection", recording)
        square = xi_at(fam, grid.reshape(2, 4))
        assert stacks == [2] * 8
        assert np.array_equal(square, flat.reshape(2, 4))


class TestCountingOracle:
    def test_shifted_diagonal(self):
        fam = HerglotzFamily.from_potential(
            np.diag([0.0, 1.0]), np.diag([0.5, 0.0])
        )
        assert xi_counting_oracle(fam, 0.25) == 1

    def test_above_everything(self, random_family):
        lam = float(np.max(random_family.all_spectra())) + 1.0
        assert xi_counting_oracle(random_family, lam) == 0

    def test_scalar(self):
        assert xi_counting_oracle(rank_one_family(1.0), 0.5) == 1

    def test_eigenvalue_rejected(self):
        with pytest.raises(PreconditionError):
            xi_counting_oracle(rank_one_family(1.0), 1.0)

    def test_one_refusal_with_the_trace_formula(self, random_family):
        # the oracle and the trace formula refuse the same zone, within 1e-12
        # of the spectral diameter of an eigenvalue of H0 or H, in one message
        width = 1e-12 * random_family.spectral_diameter()
        for eig in (random_family.eig0.eigenvalues[2], random_family.eig_h.eigenvalues[-1]):
            lam = float(eig) + 0.5 * width
            with pytest.raises(PreconditionError, match="coincides with an eigenvalue of H0 or H"):
                xi_counting_oracle(random_family, lam)
            with pytest.raises(PreconditionError, match="coincides with an eigenvalue of H0 or H"):
                trace_formula_residual(random_family, complex(lam, 0.5 * width))
        lam = float(random_family.eig_h.eigenvalues[-1]) + 2.0 * width
        xi_counting_oracle(random_family, lam)
        trace_formula_residual(random_family, complex(lam, 0.0))


class TestXiViaDet:
    def test_scalar(self):
        assert xi_via_det(rank_one_family(1.0), 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_zero_perturbation(self):
        fam = HerglotzFamily.from_potential(np.diag([0.0, 1.0]), np.zeros((2, 2)))
        assert xi_via_det(fam, 0.5) == 0.0

    def test_matches_oracle(self, random_family):
        for lam in safe_grid(random_family, 30):
            assert xi_via_det(random_family, lam) == pytest.approx(
                xi_counting_oracle(random_family, lam), abs=1e-6
            )

    def test_determinant_split_identity(self, random_family):
        # the two block determinants multiply to the full perturbation
        # determinant
        fam = random_family
        z = 0.37 + 0.81j
        lhs = np.linalg.det(fam.evaluate_block(SignBlock.PLUS, z)) * np.linalg.det(
            fam.evaluate_block(SignBlock.MINUS, z)
        )
        rhs = np.prod((fam.eig_h.eigenvalues - z) / (fam.eig0.eigenvalues - z))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_sylvester_identity(self, random_family):
        # det(I + V (H0 - z)^(-1)) = det(J) det(phi(z)), pointwise and batched
        fam = random_family
        zs = np.array([0.37 + 0.81j, -1.2 + 1e-3j, 2.5 + 10.0j, 0.1 + 0.0j])
        det_j = np.prod(fam.fact.j_signs)
        expected = [
            np.prod((fam.eig_h.eigenvalues - z) / (fam.eig0.eigenvalues - z)) for z in zs
        ]
        batched = fam.evaluate_block(None, zs)
        assert batched.shape == (zs.size, fam.rank, fam.rank)
        for z, phi, want in zip(zs, batched, expected):
            lone = fam.evaluate_block(None, z)
            assert frobenius(phi - lone) <= 1e-14 * frobenius(phi)
            assert det_j * np.linalg.det(lone) == pytest.approx(want, rel=1e-10)
            assert det_j * np.linalg.det(phi) == pytest.approx(want, rel=1e-10)

    def test_independent_of_perturbed_spectra(self, random_family):
        # moving the cached spectra of H and H+ far away changes the
        # counting oracle but not the determinant route
        fam = random_family
        grid = safe_grid(fam, 30)
        shifted = copy.copy(fam)
        for name in ("eig_h", "eig_plus"):
            eig = getattr(fam, name)
            setattr(shifted, name, HermitianEig(eig.eigenvalues + 1e3, eig.vectors))
        assert any(
            xi_counting_oracle(shifted, lam) != xi_counting_oracle(fam, lam) for lam in grid
        )
        for lam in grid:
            assert xi_via_det(shifted, lam) == xi_via_det(fam, lam)

    def test_negative_perturbation(self):
        rng = np.random.default_rng(57)
        h0 = random_hermitian(rng, 6)
        fam = HerglotzFamily.from_potential(h0, -random_psd(rng, 6, 3))
        assert fam.n_plus == 0 and fam.n_minus == 3
        for lam in safe_grid(fam, 30):
            assert xi_via_det(fam, lam) == pytest.approx(xi_counting_oracle(fam, lam), abs=1e-6)

    def test_positive_root_family(self):
        rng = np.random.default_rng(58)
        h0 = random_hermitian(rng, 5)
        fam = HerglotzFamily.from_positive_root(h0, random_psd(rng, 5))
        assert fam.rank == fam.dim
        for lam in safe_grid(fam, 30):
            assert xi_via_det(fam, lam) == pytest.approx(xi_counting_oracle(fam, lam), abs=1e-6)


class TestDetRouteStack:
    """``xi_via_det`` over an array of points: one stack of determinants,
    each point's value equal bit for bit to its own scalar call."""

    def test_array_equals_scalar_calls_across_bisection_rounds(self, clustered_family):
        fam = clustered_family
        grid = safe_grid(fam, 200)
        assert grid.size == 231
        stacked = xi_via_det(fam, grid)
        assert np.array_equal(stacked, [xi_via_det(fam, float(lam)) for lam in grid])

    def test_chunks_equal_scalar_calls(self, random_family, monkeypatch):
        fam = random_family
        grid = safe_grid(fam, 40)
        whole = xi_via_det(fam, grid)
        # a byte budget of 1 leaves the floor: DET_CHUNK_MIN heights a chunk
        monkeypatch.setattr(shift, "PROFILE_CHUNK_BYTES", 1)
        calls = []

        def batches(*args):
            calls.append(matkit._batches(*args))
            return calls[-1]

        monkeypatch.setattr(shift, "_batches", batches)
        assert np.array_equal(xi_via_det(fam, grid), whole)
        assert len(calls[0]) > 4  # the ladders of all points, 30+ heights each
        assert {s.stop - s.start for chunks in calls for s in chunks} == {shift.DET_CHUNK_MIN}
        assert np.array_equal(whole, [xi_via_det(fam, float(lam)) for lam in grid])

    def test_types(self, random_family):
        grid = safe_grid(random_family, 10)
        assert type(xi_via_det(random_family, float(grid[0]))) is float
        assert type(xi_via_det(random_family, grid[0])) is float
        vals = xi_via_det(random_family, grid)
        assert isinstance(vals, np.ndarray) and vals.shape == grid.shape
        assert vals.dtype == np.float64
        assert xi_via_det(random_family, grid[:0]).shape == (0,)
        assert np.array_equal(xi_via_det(random_family, grid[:6].reshape(2, 3)), vals[:6].reshape(2, 3))

    def test_rank_zero_family_gives_zeros(self):
        fam = HerglotzFamily.from_potential(np.diag([0.0, 1.0]), np.zeros((2, 2)))
        assert type(xi_via_det(fam, 0.5)) is float and xi_via_det(fam, 0.5) == 0.0
        vals = xi_via_det(fam, np.array([-1.0, 0.5, 2.0]))
        assert isinstance(vals, np.ndarray) and np.array_equal(vals, np.zeros(3))

    def test_refinement_cap_raises(self, clustered_family, monkeypatch):
        monkeypatch.setattr(shift, "DET_MAX_REFINEMENTS", 0)
        with pytest.raises(ConvergenceError, match=r"after 0 bisections at lambda="):
            xi_via_det(clustered_family, safe_grid(clustered_family, 200))

    def test_overflowing_top_height_refused_without_warnings(self):
        # 4 ||K||_F^2 = 6.8e308 is past the double range
        fam = rank_one_family(1.7e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="top height"):
                xi_via_det(fam, 1e305)

    def test_floor_far_above_the_top_height_takes_no_halving(self):
        # top / (1e-10 |lam|) = 4e-590 underflows to 0: no step down the
        # ladder, the phase at the top is already the one on the axis
        fam = rank_one_family(1e-300)
        lams = np.array([1e300, 1e301])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = xi_via_det(fam, lams)
        assert np.array_equal(vals, xi_counting_oracle(fam, lams).astype(float))

    def test_point_inside_exclusion_zone_refused(self, random_family):
        eig = float(random_family.eig0.eigenvalues[0])
        with pytest.raises(PreconditionError, match="exclusion zone"):
            xi_via_det(random_family, np.array([eig - 1.0, eig]))

    @pytest.mark.xfail(
        strict=True,
        reason="halving steps across a cluster of eigenvalues can turn the phase by "
        "about 2 pi, which the |dphi| > pi/2 bisection test reads as about 0",
    )
    def test_clustered_spectrum_matches_oracle(self, clustered_family):
        fam = clustered_family
        grid = safe_grid(fam, 200)
        assert np.max(np.abs(xi_via_det(fam, grid) - xi_counting_oracle(fam, grid))) <= 1e-6


class TestTraceFormula:
    def test_zero_perturbation(self):
        fam = HerglotzFamily.from_potential(np.diag([0.0, 1.0]), np.zeros((2, 2)))
        assert trace_formula_residual(fam, 1j) == pytest.approx(0.0, abs=1e-14)

    def test_rank_one_closed_form(self):
        fam = rank_one_family(1.0)
        # both sides equal 1/(1-z) + 1/z at z = i
        assert trace_formula_residual(fam, 1j) < 1e-10

    def test_random_many_z(self, random_family):
        rng = np.random.default_rng(57)
        for _ in range(10):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 2.5))
            lhs = complex(
                np.sum(1.0 / (random_family.eig_h.eigenvalues - z))
                - np.sum(1.0 / (random_family.eig0.eigenvalues - z))
            )
            knots, values = counting_steps(
                random_family.eig0.eigenvalues, random_family.eig_h.eigenvalues
            )
            rhs = -step_integral(knots, values, lambda t: -1.0 / (t - z))
            # the residual is relative: |lhs - rhs| / (1 + |lhs|)
            assert trace_formula_residual(random_family, z) == abs(lhs - rhs) / (1.0 + abs(lhs))
            assert trace_formula_residual(random_family, z) < 1e-8

    def test_near_spectrum_rejected(self, random_family):
        lam0 = float(random_family.eig0.eigenvalues[0])
        with pytest.raises(PreconditionError):
            trace_formula_residual(random_family, lam0 + 1e-14j)


class TestTraceIdentities:
    def test_rank_one(self):
        rep = trace_identity_checks(rank_one_family(1.0), zs=())
        assert rep.trace_v_residual < 1e-12
        assert rep.l1_slack >= 0

    def test_random(self, random_family):
        rep = trace_identity_checks(random_family, zs=(1.0 + 2.0j,))
        assert rep.trace_v_residual < 1e-8
        assert rep.l1_slack >= 0
        assert rep.fd_plus_residual < 1e-6
        assert rep.fd_minus_residual < 1e-6

    def test_step_integral_polynomial(self):
        knots, values = counting_steps(np.array([0.0, 1.0]), np.array([0.5, 2.0]))
        # difference of counts is +1 on (0, 0.5), 0 on (0.5, 1), +1 on (1, 2),
        # and its integral is the trace of the perturbation
        val = step_integral(knots, values, lambda t: t)
        assert val == pytest.approx((0.5 + 2.0) - (0.0 + 1.0))


class TestChain:
    def test_trivial_second_step(self):
        rng = np.random.default_rng(58)
        h0 = random_hermitian(rng, 4)
        v1 = random_indefinite(rng, 4, 2)
        fam = HerglotzFamily.from_potential(h0, v1)
        grid = safe_grid(fam, 20)
        rep = chain_and_monotonicity(h0, v1, np.zeros((4, 4)), grid)
        assert rep.chain_residual < 1e-6
        assert rep.antisymmetry_residual < 1e-6

    def test_doubled_positive_rank_one(self):
        rng = np.random.default_rng(59)
        h0 = random_hermitian(rng, 4)
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = np.outer(u, u.conj())
        fam = HerglotzFamily.from_potential(h0, 2 * v)
        grid = safe_grid(fam, 25)
        rep = chain_and_monotonicity(h0, v, v, grid)
        assert rep.chain_residual < 1e-6
        # both monotonicity comparisons apply: V2 - V1 = 0 and V2 >= 0
        assert rep.monotonicity_violation_totals <= 1e-8
        assert rep.monotonicity_violation_added <= 1e-8

    def test_grid_inside_the_zones_refused(self):
        # both points are eigenvalues of H0, so no pair leaves them clear
        with pytest.raises(PreconditionError, match="no grid points clear"):
            chain_and_monotonicity(
                np.diag([0.0, 1.0]), np.diag([0.5, 0.0]), np.eye(2), [0.0, 1.0]
            )

    def test_random_indefinite(self):
        rng = np.random.default_rng(60)
        h0 = random_hermitian(rng, 5)
        v1 = random_indefinite(rng, 5, 3)
        v2 = random_indefinite(rng, 5, 4)
        grid = safe_grid(HerglotzFamily.from_potential(h0, v1 + v2), 30)
        rep = chain_and_monotonicity(h0, v1, v2, grid)
        assert rep.points_used >= 20
        assert rep.chain_residual < 1e-6
        assert rep.oracle_residual < 1e-6


class TestExample39:
    def test_reference_parameters(self):
        rep = example_3_9(0.2, 0.4, 0.9, 1.3)
        assert rep.projection_residual_1 < 1e-8
        assert rep.projection_residual_2 < 1e-8
        assert rep.step_route_residual < 1e-8
        assert rep.difference_eigenvalues.min() == pytest.approx(-1.0 / np.sqrt(2), abs=1e-8)
        assert rep.difference_eigenvalues.max() == pytest.approx(+1.0 / np.sqrt(2), abs=1e-8)
        assert rep.trace_1 == pytest.approx(1.0, abs=1e-8)
        assert rep.trace_2 == pytest.approx(1.0, abs=1e-8)

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            example_3_9(0.4, 0.2, 0.9, 1.3)
        with pytest.raises(PreconditionError):
            example_3_9(0.2, 0.5, 0.6, 1.3)  # a*c < b^2
        with pytest.raises(PreconditionError):
            example_3_9(0.2, 0.4, 0.9, 1.5)  # lam outside the window

    def test_step_function_vanishes_below_zero(self):
        # for negative lam the matrix I - V/lam is positive definite, so the
        # boundary operator vanishes even though V - lam is positive
        v = np.array([[1.0, 0.4], [0.4, 1.0]])
        fam = HerglotzFamily.from_positive_root(np.zeros((2, 2)), v)
        assert frobenius(xi_operator(fam, SignBlock.PLUS, -0.7)) <= 1e-10


class TestReconstruction:
    def test_rank_one(self):
        fam = rank_one_family(1.0)
        assert herglotz_reconstruction_residual(fam, 1.0 + 2.0j) < 1e-6

    @pytest.mark.parametrize("t", [1e-8, 1e-10])
    def test_small_perturbation(self, t):
        # the pieces between breakpoints are narrower than an exclusion
        # zone, and the integral still reads the operator inside them
        v = t * np.array([[1.0, 0.5], [0.5, 0.25]])
        fam = HerglotzFamily.from_potential(np.diag([0.0, 1.0]), v)
        assert herglotz_reconstruction_residual(fam, 1.0 + 2.0j) < 1e-12

    def test_random_psd(self):
        rng = np.random.default_rng(61)
        h0 = random_hermitian(rng, 4)
        v = random_psd(rng, 4, 2)
        fam = HerglotzFamily.from_potential(h0, v)
        assert herglotz_reconstruction_residual(fam, 1.0 + 2.0j) < 1e-4

    def test_empty_plus_block(self):
        # a negative V leaves the + block 0x0: log(phi_plus) and the
        # integral of its shift operator are both empty
        fam = HerglotzFamily.from_potential(np.diag([0.0, 1.0]), -np.diag([1.0, 0.5]))
        assert fam.n_plus == 0
        assert herglotz_reconstruction_residual(fam, 1.0 + 2.0j) == 0.0


class TestEmptyFamily:
    """A family of dimension 0: no spectrum, so every shift value is 0 and
    no grid can be placed on a spectrum."""

    @pytest.fixture
    def fam(self):
        return HerglotzFamily.from_potential(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_xi_at_is_zero(self, fam):
        assert xi_at(fam, 0.5) == 0.0
        assert xi_at(fam, np.array([-1.0, 0.5, 2.0])).tolist() == [0.0, 0.0, 0.0]

    def test_profile_on_an_explicit_grid_is_zero(self, fam):
        prof = compute_profile(fam, [0.5, 2.0], include_det=True)
        assert prof.grid.tolist() == [0.5, 2.0]
        for key in ("xi", "xi_plus", "xi_minus", "xi_oracle", "xi_det"):
            assert getattr(prof, key).tolist() == [0.0, 0.0], key

    def test_auto_grid_refused(self, fam):
        with pytest.raises(PreconditionError, match="no spectrum to place grid points on"):
            auto_grid(fam)

    def test_safe_grid_refused(self, fam):
        with pytest.raises(PreconditionError, match="no spectrum to place grid points on"):
            safe_grid(fam, 5)


class TestGrids:
    def test_snap_matches_worked_profile(self):
        fam = rank_one_family(1.0)
        snapped = snap_grid(fam, [-0.5, 0.0, 0.5, 1.0, 1.5])
        assert snapped[0] == -0.5 and snapped[2] == 0.5 and snapped[4] == 1.5
        assert 0.0 < snapped[1] < 1e-5       # nudged toward the hull center
        assert 1.0 - 1e-5 < snapped[3] < 1.0
        for x in snapped:
            fam.check_off_spectrum(float(x))

    def test_nan_point_is_never_clear(self):
        # no snap moves a NaN point clear of the zones, and no shift value
        # is read there
        fam = rank_one_family(1.0)
        assert fam.near_spectrum([np.nan, 0.5]).tolist() == [True, False]
        with pytest.raises(PreconditionError, match="could not snap grid point nan"):
            snap_grid(fam, [0.5, np.nan])
        with pytest.raises(PreconditionError, match="lambda=nan"):
            xi_at(fam, np.nan)

    def test_non_finite_points_refused_by_every_route(self):
        fam = HerglotzFamily.from_potential(*random_pair(np.random.default_rng(3), 5, 6))
        for x in (np.inf, -np.inf, np.nan):
            assert fam.near_spectrum([x, 0.5]).tolist()[0]
            # the oracle refuses by itself, not through the exclusion zones
            with pytest.raises(PreconditionError, match="is not finite"):
                xi_counting_oracle(fam, x)
            with pytest.raises(PreconditionError, match="is not finite"):
                xi_counting_oracle(fam, np.array([0.5, x]))
            for route in (xi_via_det, xi_at):
                with pytest.raises(PreconditionError, match="is not finite"):
                    route(fam, x)
            for block in SignBlock:
                with pytest.raises(PreconditionError, match="is not finite"):
                    boundary_log(fam, block, x)
        for z in (complex(0.0, np.inf), complex(np.inf, 1.0), complex(np.nan, 1.0)):
            with pytest.raises(PreconditionError, match="is not finite"):
                trace_formula_residual(fam, z)
            with pytest.raises(PreconditionError, match="is not finite"):
                herglotz_reconstruction_residual(fam, z)
            with pytest.raises(PreconditionError, match="is not finite"):
                trace_identity_checks(fam, (1.0 + 2.0j, z))

    def test_safe_grid_size_and_safety(self, random_family):
        grid = safe_grid(random_family, 50)
        assert grid.size >= 50
        for lam in grid:
            random_family.check_off_spectrum(float(lam))

    def test_auto_grid_safe(self, random_family):
        for lam in auto_grid(random_family):
            random_family.check_off_spectrum(float(lam))

    def test_distinct_points_as_np_unique(self, clustered_family, random_family, monkeypatch):
        # the grids keep their points through shift._sorted_unique; on the
        # inputs it gets from seeded families it must equal np.unique bit
        # for bit
        seen = []

        def spy(x):
            out = _sorted_unique(x)
            seen.append((np.asarray(x).copy(), out))
            return out

        monkeypatch.setattr(shift, "_sorted_unique", spy)
        rng = np.random.default_rng(56)
        fams = [rank_one_family(1.0), clustered_family, random_family]
        for n, r in ((4, 2), (6, 4), (8, 7), (12, 3)):
            h0, v = random_hermitian(rng, n), random_indefinite(rng, n, r)
            fams.append(HerglotzFamily.from_potential(h0, v))
        for fam in fams:
            auto_grid(fam)
            safe_grid(fam, 40)
        assert len(seen) == 2 * len(fams)
        for x, out in seen:
            assert np.array_equal(out.view(np.uint64), np.unique(x).view(np.uint64))


class TestProfile:
    def test_invariants(self, random_family):
        prof = compute_profile(random_family, safe_grid(random_family, 50), include_det=True)
        assert np.all(np.abs(prof.xi - (prof.xi_plus - prof.xi_minus)) <= 1e-8)
        assert np.all(np.abs(prof.xi - prof.xi_oracle) <= 1e-6)
        assert np.all(np.abs(prof.xi_det - prof.xi_oracle) <= 1e-6)
        assert np.all(prof.converged)
        for i in range(prof.grid.size):
            for eigs in (prof.xi_op_plus_eigs[i], prof.xi_op_minus_eigs[i]):
                if eigs.size:
                    assert eigs.min() >= -1e-8 and eigs.max() <= 1.0 + 1e-8
                    assert np.all(np.diff(eigs) <= 1e-15)
            assert prof.xi_plus[i] == pytest.approx(np.sum(prof.xi_op_plus_eigs[i]), abs=1e-8)
            assert prof.xi_minus[i] == pytest.approx(np.sum(prof.xi_op_minus_eigs[i]), abs=1e-8)

    def test_vanishes_outside_hull(self, random_family):
        lo = float(np.min(random_family.all_spectra()))
        hi = float(np.max(random_family.all_spectra()))
        pad = 0.3 * random_family.spectral_diameter()
        prof = compute_profile(random_family, [lo - pad, hi + pad])
        assert np.all(np.abs(prof.xi) <= 1e-8)

    def test_a_grid_of_two_dimensions_is_read_flat(self, random_family):
        # one entry per point, as for the same points in a row
        grid = safe_grid(random_family, 8)[:8]
        square = compute_profile(random_family, grid.reshape(2, 4), include_det=True)
        flat = compute_profile(random_family, grid, include_det=True)
        assert square.grid.shape == (8,)
        assert len(square.xi_op_plus_eigs) == len(square.xi_op_minus_eigs) == 8
        for name in ("grid", "xi", "xi_plus", "xi_minus", "xi_oracle", "xi_det"):
            assert np.array_equal(getattr(square, name), getattr(flat, name)), name
        for name in ("xi_op_plus_eigs", "xi_op_minus_eigs"):
            assert all(map(np.array_equal, getattr(square, name), getattr(flat, name))), name


class TestBatchedProfile:
    @staticmethod
    def scalar_point(fam, lam):
        """xi_plus, xi_minus and the descending operator eigenvalues at lam
        from one boundary_log call per block."""
        out = []
        for which, sign in ((SignBlock.PLUS, 1.0), (SignBlock.MINUS, -1.0)):
            l, _ = boundary_log(fam, which, lam)
            op = hermitian_part(sign * imaginary_part(l) / math.pi)
            out += [trace(op).real, np.linalg.eigvalsh(op)[::-1]]
        return out

    def test_matches_scalar_boundary_logs(self):
        for fam in _trace_instances(DEFAULT_SEED):
            grid = safe_grid(fam, 50)
            prof = compute_profile(fam, grid)
            assert np.array_equal(prof.grid, grid)
            for i, lam in enumerate(grid):
                xp, ep, xm, em = self.scalar_point(fam, float(lam))
                assert abs(prof.xi_plus[i] - xp) <= 1e-12
                assert abs(prof.xi_minus[i] - xm) <= 1e-12
                assert abs(prof.xi[i] - (xp - xm)) <= 1e-12
                assert np.max(np.abs(prof.xi_op_plus_eigs[i] - ep), initial=0.0) <= 1e-12
                assert np.max(np.abs(prof.xi_op_minus_eigs[i] - em), initial=0.0) <= 1e-12

    def test_chunks_match_pointwise(self, random_family, monkeypatch):
        fam = random_family
        grid = safe_grid(fam, 40)
        per_point = 16 * fam.dim * max(fam.n_plus, fam.n_minus)
        monkeypatch.setattr(shift, "PROFILE_CHUNK_BYTES", 3 * per_point)
        assert len(shift._chunks(fam, grid.size)) == math.ceil(grid.size / 3)
        whole = compute_profile(fam, grid, include_det=True)
        points = [compute_profile(fam, [lam], include_det=True) for lam in grid]
        for key in ("grid", "xi", "xi_plus", "xi_minus", "xi_oracle", "xi_det"):
            assert np.array_equal(
                getattr(whole, key), np.concatenate([getattr(p, key) for p in points])
            ), key
        for i, p in enumerate(points):
            assert np.array_equal(whole.xi_op_plus_eigs[i], p.xi_op_plus_eigs[0])
            assert np.array_equal(whole.xi_op_minus_eigs[i], p.xi_op_minus_eigs[0])
        assert np.array_equal(xi_at(fam, grid), whole.xi)

    def test_shift_columns_are_rank_differences(self):
        rng = np.random.default_rng(41)
        fam = HerglotzFamily.from_potential(
            random_hermitian(rng, 40), random_indefinite(rng, 40, 20)
        )
        grid = auto_grid(fam)
        plus, minus = (shift_projection(fam.evaluate_block(b, grid)).rank for b in SignBlock)
        prof = compute_profile(fam, grid)
        assert np.array_equal(prof.grid, grid)
        assert np.array_equal(prof.xi_plus, plus) and np.array_equal(prof.xi_minus, minus)
        assert np.array_equal(prof.xi, plus - minus)
        assert np.array_equal(xi_at(fam, grid), plus - minus)

    def test_operator_eigenvalues_are_exact(self, random_family):
        grid = safe_grid(random_family, 50)
        prof = compute_profile(random_family, grid)
        ranks = [shift_projection(random_family.evaluate_block(b, grid)).rank for b in SignBlock]
        assert ranks[0].any() and ranks[1].any()
        for col, rank in zip((prof.xi_op_plus_eigs, prof.xi_op_minus_eigs), ranks):
            for eigs, r in zip(col, rank):
                assert np.array_equal(eigs, np.r_[np.ones(r), np.zeros(eigs.size - r)])

    def test_singular_point_is_nudged(self, monkeypatch):
        rng = np.random.default_rng(62)
        fam = HerglotzFamily.from_potential(random_hermitian(rng, 5), random_indefinite(rng, 5, 4))
        grid = safe_grid(fam, 20)
        spectra = fam.all_spectra()
        inside = np.flatnonzero((grid > spectra.min()) & (grid < spectra.max()))
        gap = [np.min(np.abs(spectra - grid[i])) for i in inside]
        k = int(inside[int(np.argmax(gap))])
        evaluate = fam.evaluate_block

        def singular_at_k(which, z):
            # phi_plus is exactly singular at grid[k] and nowhere else
            out = evaluate(which, z)
            if which is SignBlock.PLUS:
                out[np.asarray(z) == grid[k]] = 0.0
            return out

        monkeypatch.setattr(fam, "evaluate_block", singular_at_k)
        prof = compute_profile(fam, grid, include_det=True)
        others = np.arange(grid.size) != k
        assert prof.grid[k] != grid[k]
        assert abs(prof.grid[k] - grid[k]) <= 4 * shift.SNAP_RTOL * fam.spectral_diameter()
        assert np.array_equal(prof.grid[others], grid[others])
        assert np.all(np.abs(prof.xi - prof.xi_oracle) <= 1e-6)
        assert np.all(np.abs(prof.xi_det - prof.xi_oracle) <= 1e-6)
        assert prof.xi[k] == xi_at(fam, prof.grid[k])
        # one point per chunk moves the same point to the same spot
        monkeypatch.setattr(shift, "PROFILE_CHUNK_BYTES", 1)
        single = compute_profile(fam, grid)
        assert np.array_equal(single.grid, prof.grid) and np.array_equal(single.xi, prof.xi)
        with pytest.raises(PreconditionError, match="singular"):
            xi_at(fam, grid[k])
        with pytest.raises(PreconditionError, match="singular"):
            xi_operator(fam, SignBlock.PLUS, grid[k])


class TestProjectionReader:
    """Every stack of shift projections, those of the lam-integrals
    included, is read in ``_chunks`` slices."""

    @staticmethod
    def results():
        """The reconstruction residual of a seeded n=12 family, and the
        operator averaging reports of a seeded n=12 pair on [0, 1] and on
        [-1, -0.2]; every block has size 3."""
        from kreinshift.averaging import (
            TestFunction,
            operator_average_residual,
            operator_increment_residual,
        )

        rng = np.random.default_rng(12)
        h0 = random_hermitian(rng, 12)
        k = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        fam = HerglotzFamily.from_potential(h0, k @ k.conj().T)
        f = TestFunction.polynomial([0.5, 0.3, -0.2])
        return [
            herglotz_reconstruction_residual(fam, 1.0 + 2.0j),
            operator_average_residual(h0, k, f),
            operator_increment_residual(h0, k, -1.0, -0.2, f),
        ]

    def test_no_call_passes_more_points_than_a_chunk(self, monkeypatch):
        calls = []
        evaluate = HerglotzFamily.evaluate_block

        def recorded(fam, which, z):
            calls.append((fam, np.size(z)))
            return evaluate(fam, which, z)

        monkeypatch.setattr(HerglotzFamily, "evaluate_block", recorded)
        # three points' worth of the (points, 12, 3) temporaries
        monkeypatch.setattr(shift, "PROFILE_CHUNK_BYTES", 3 * 16 * 12 * 3)
        self.results()
        assert max(n for _, n in calls) == 3
        for fam, n in calls:
            assert n <= shift._chunks(fam, n)[0].stop

    def test_one_point_chunks_give_the_same_bits(self, monkeypatch):
        default = self.results()
        monkeypatch.setattr(shift, "PROFILE_CHUNK_BYTES", 1)
        single = self.results()
        assert single[0].hex() == default[0].hex()
        for a, b in zip(default[1:], single[1:]):
            assert a.residual.hex() == b.residual.hex()
            assert a.lhs.tobytes() == b.lhs.tobytes()
            assert a.rhs.tobytes() == b.rhs.tobytes()
