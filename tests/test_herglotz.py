import numpy as np
import pytest

from kreinshift.errors import ConvergenceError, PreconditionError
from kreinshift.generators import random_hermitian, random_indefinite, random_pair
from kreinshift import herglotz
from kreinshift.herglotz import (
    ConvergenceRecord,
    HerglotzFamily,
    SignBlock,
    boundary_log,
    shift_projection,
)
from kreinshift.matkit import frobenius, imaginary_part, trace_norm
from kreinshift.oplog import DEFAULT_REL_TOL, logm_antidissipative, logm_dissipative
from kreinshift.shift import safe_grid


def rank_one_family(v: float) -> HerglotzFamily:
    return HerglotzFamily.from_potential(np.zeros((1, 1)), v * np.ones((1, 1)))


def widest_gap_midpoint(fam: HerglotzFamily) -> float:
    eigs = np.sort(fam.all_spectra())
    gaps = np.diff(eigs)
    i = int(np.argmax(gaps))
    return float(0.5 * (eigs[i] + eigs[i + 1]))


class TestEvaluatePhi:
    def test_scalar_closed_form(self):
        fam = rank_one_family(1.0)
        for z in (0.7 + 1.3j, -2.0 + 0.4j, 5.0j):
            assert fam.evaluate_phi(z)[0, 0] == pytest.approx(1.0 - 1.0 / z)

    def test_inverse_identity_full(self):
        rng = np.random.default_rng(21)
        h0 = random_hermitian(rng, 5)
        v = random_indefinite(rng, 5, 4)
        fam = HerglotzFamily.from_potential(h0, v)
        z = 1.0 + 1.0j
        prod = fam.evaluate_phi(z) @ fam.evaluate_phi_inverse(z)
        assert frobenius(prod - np.eye(fam.rank)) <= 1e-10

    def test_decay_to_sign_matrix(self):
        rng = np.random.default_rng(22)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        ys = np.array([1e2, 1e3, 1e4])
        devs = np.array(
            [frobenius(fam.evaluate_phi(1j * y) - fam.fact.j_matrix()) for y in ys]
        )
        slope = np.polyfit(np.log(ys), np.log(devs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_eigenvalue_of_base_rejected(self):
        fam = rank_one_family(1.0)
        with pytest.raises(PreconditionError):
            fam.evaluate_phi(0.0)


class TestEvaluatePhiPlus:
    def test_coincides_with_phi_for_psd(self):
        rng = np.random.default_rng(23)
        c = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        v = c @ c.conj().T
        fam = HerglotzFamily.from_potential(np.zeros((4, 4)), v)
        assert fam.n_minus == 0
        z = 2.0j
        assert frobenius(fam.evaluate_phi(z) - fam.evaluate_phi_plus(z)) <= 1e-12

    def test_inverse_identity(self):
        rng = np.random.default_rng(24)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        z = 2.0j
        prod = fam.evaluate_phi_plus(z) @ fam.evaluate_phi_plus_inverse(z)
        assert frobenius(prod - np.eye(fam.n_plus)) <= 1e-10

    def test_scalar_value(self):
        fam = rank_one_family(1.0)
        assert fam.evaluate_phi_plus(1j)[0, 0] == pytest.approx(1.0 + 1.0j)


class TestEvaluatePhiMinusTilde:
    def test_empty_for_psd(self):
        rng = np.random.default_rng(25)
        c = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        fam = HerglotzFamily.from_potential(np.zeros((3, 3)), c @ c.conj().T)
        assert fam.evaluate_phi_minus_tilde(1j).shape == (0, 0)
        l, rec = boundary_log(fam, SignBlock.MINUS, 10.0)
        assert l.shape == (0, 0) and rec.converged

    def test_inverse_identity(self):
        rng = np.random.default_rng(26)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        z = -0.4 + 1.7j
        prod = fam.evaluate_phi_minus_tilde(z) @ fam.evaluate_phi_minus_tilde_inverse(z)
        assert frobenius(prod - np.eye(fam.n_minus)) <= 1e-10

    def test_scalar_negative_rank_one(self):
        # base 0, perturbation -1: the minus-block transfer matrix is 1 + 1/z
        fam = rank_one_family(-1.0)
        assert fam.n_plus == 0 and fam.n_minus == 1
        assert fam.evaluate_phi_minus_tilde(2.0j)[0, 0] == pytest.approx(1.0 - 0.5j)
        for z in (0.3 + 0.9j, -1.5 + 2.0j):
            assert fam.evaluate_phi_minus_tilde(z)[0, 0] == pytest.approx(1.0 + 1.0 / z)


class TestHerglotzProperty:
    def test_sign_of_imaginary_parts(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            h0, v = random_pair(rng, 3, 6)
            fam = HerglotzFamily.from_potential(h0, v)
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3.0))
            for m in (fam.evaluate_phi(z), fam.evaluate_phi_plus(z)):
                if m.size:
                    assert np.linalg.eigvalsh(imaginary_part(m)).min() >= -1e-12
            mt = fam.evaluate_phi_minus_tilde(z)
            if mt.size:
                assert np.linalg.eigvalsh(imaginary_part(mt)).max() <= 1e-12


class TestBoundaryLog:
    def test_scalar_values(self):
        fam = rank_one_family(1.0)
        l, rec = boundary_log(fam, SignBlock.PLUS, 0.5)
        assert rec.converged
        assert l[0, 0].imag / np.pi == pytest.approx(1.0)
        l, _ = boundary_log(fam, SignBlock.PLUS, 2.0)
        assert abs(l[0, 0].imag) <= 1e-12

    def test_routes_agree(self):
        rng = np.random.default_rng(28)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        lam = widest_gap_midpoint(fam)
        for which in (SignBlock.PLUS, SignBlock.MINUS):
            direct, rd = boundary_log(fam, which, lam, route="direct")
            via_eps, re_ = boundary_log(fam, which, lam, route="eps")
            assert rd.route == "direct" and re_.route == "eps"
            assert re_.cauchy <= herglotz.EPS_CONV_TOL
            assert frobenius(direct - via_eps) <= 1e-8

    def test_eps_limit_check_line(self):
        from kreinshift.checks import DEFAULT_SEED, check_eps_limit

        (line,) = check_eps_limit(DEFAULT_SEED)
        assert line.name == "eps limit vs direct boundary log"
        assert line.ok and line.bound == 1e-6 and 0.0 < line.value < 1e-8

    def test_exclusion_zone_rejected(self):
        fam = rank_one_family(1.0)
        with pytest.raises(PreconditionError, match="exclusion"):
            boundary_log(fam, SignBlock.PLUS, 1e-12)

    def test_eps_route_diverges_at_hidden_eigenvalue(self):
        # lambda at an eigenvalue of H (not of H0 or H+): the minus-block
        # matrix is singular there and has no logarithm
        fam = rank_one_family(-1.0)
        with pytest.raises((ConvergenceError, PreconditionError)):
            boundary_log(fam, SignBlock.MINUS, -1.0, route="eps")
        # 1e-13 from it the schedule starts below that distance and settles
        # on the boundary value log|1 + 1/lam| - i*pi
        lam = -1.0 + 1e-13
        val, rec = boundary_log(fam, SignBlock.MINUS, lam, route="eps")
        assert rec.converged
        assert abs(val[0, 0] - complex(np.log(abs(1.0 + 1.0 / lam)), -np.pi)) <= 1e-8

    def test_decay_of_plus_log(self):
        rng = np.random.default_rng(29)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        ys = (1e2, 1e3, 1e4)
        scaled = [
            y * trace_norm(logm_dissipative(fam.evaluate_phi_plus(1j * y))) for y in ys
        ]
        assert max(scaled) / min(scaled) - 1.0 < 0.2

    def test_no_linear_term(self):
        rng = np.random.default_rng(30)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        y = 1e6
        assert frobenius(logm_dissipative(fam.evaluate_phi_plus(1j * y))) / y < 1e-6


class TestShiftProjection:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(32)
        stack = np.stack([random_hermitian(rng, 4) for _ in range(6)])
        sp = shift_projection(stack)
        assert sp.projection.shape == (6, 4, 4) and not sp.singular.any()
        for m, p, rank in zip(stack, sp.projection, sp.rank):
            w, u = np.linalg.eigh(m)
            neg = u[:, w < 0]
            assert rank == neg.shape[1]
            assert frobenius(p - neg @ neg.conj().T) <= 1e-13
            assert frobenius(p @ p - p) <= 1e-13

    def test_flags_exactly_singular(self):
        rng = np.random.default_rng(33)
        a = random_hermitian(rng, 3)
        w, u = np.linalg.eigh(a)
        singular = (u * np.array([w[0], 0.0, w[2]])) @ u.conj().T
        sp = shift_projection(np.stack([a, np.diag([2.0, 0.0, -1.0]), singular, -np.eye(3)]))
        assert sp.singular.tolist() == [False, True, True, False]
        assert sp.rank[1] == 1 and sp.rank[3] == 3
        assert frobenius(sp.projection[3] - np.eye(3)) <= 1e-15

    def test_direct_log_through_projection(self):
        # log|M| + i*pi*P on the + block, its conjugate on the - block
        rng = np.random.default_rng(34)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        lam = widest_gap_midpoint(fam)
        for which, evaluate in (
            (SignBlock.PLUS, fam.evaluate_phi_plus),
            (SignBlock.MINUS, fam.evaluate_phi_minus_tilde),
        ):
            m = evaluate(lam)
            w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
            vals = np.log(np.abs(w)) + 1j * np.pi * (w < 0)
            if which is SignBlock.MINUS:
                vals = vals.conj()
            l, rec = boundary_log(fam, which, lam, route="direct")
            assert rec.route == "direct"
            assert frobenius(l - (u * vals) @ u.conj().T) <= 1e-13


class TestFamilyConstruction:
    def test_reassembly(self):
        rng = np.random.default_rng(31)
        h0, v = random_pair(rng, 4, 7)
        fam = HerglotzFamily.from_potential(h0, v)
        scale = frobenius(h0) + frobenius(v)
        assert frobenius(fam.h - (h0 + v)) <= 1e-12 * scale
        assert frobenius(fam.h_plus - (h0 + fam.v_plus)) <= 1e-12 * scale
        kp = fam.fact.k[:, : fam.n_plus]
        assert frobenius(fam.v_plus - kp @ kp.conj().T) <= 1e-12 * scale

    def test_positive_root_requires_psd(self):
        with pytest.raises(PreconditionError):
            HerglotzFamily.from_positive_root(np.zeros((2, 2)), np.diag([1.0, -1.0]))

    def test_non_hermitian_base_rejected(self):
        with pytest.raises(PreconditionError):
            HerglotzFamily.from_potential(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_huge_base_judged_without_overflow(self):
        # norms past about 1e154 overflow; inf <= inf once passed any matrix
        with pytest.raises(PreconditionError, match="must be Hermitian"):
            HerglotzFamily.from_potential(1e200 * np.array([[1.0, 1.0], [0.0, 2.0]]), np.eye(2))
        h0 = 1e200 * np.array([[1.0, 0.5], [0.5, 2.0]])
        fam = HerglotzFamily.from_potential(h0, np.eye(2))
        assert np.array_equal(fam.h0, h0)

    def test_positive_root_squares_to_v(self):
        rng = np.random.default_rng(35)
        c = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        v = c @ c.conj().T
        fam = HerglotzFamily.from_positive_root(random_hermitian(rng, 4), v)
        root = fam.fact.k
        assert np.array_equal(root, root.conj().T)
        assert frobenius(root @ root - v) <= 1e-12 * frobenius(v)
        assert fam.n_plus == 4 and fam.n_minus == 0


def sequential_eps(fam, which, lam):
    """The eps route one height at a time from lone logarithms, starting at
    EPS0 or, when nearer, at the distance to the nearest eigenvalue of H0,
    H+ or H: the value and step where the Richardson iterates meet the
    Cauchy tolerance, or None when the schedule runs out."""
    if which is SignBlock.PLUS:
        evaluate, take_log = fam.evaluate_phi_plus, logm_dissipative
    else:
        evaluate, take_log = fam.evaluate_phi_minus_tilde, logm_antidissipative
    spectra = np.concatenate([fam.eig0.eigenvalues, fam.eig_plus.eigenvalues, fam.eig_h.eigenvalues])
    factor = herglotz.EPS_FACTOR
    prev = prev_rich = None
    eps = min(herglotz.EPS0, float(np.min(np.abs(spectra - lam))))
    for step in range(1, herglotz.EPS_STEPS + 1):
        cur = take_log(evaluate(lam + 1j * eps))
        if prev is not None:
            rich = (cur - factor * prev) / (1.0 - factor)
            if prev_rich is not None and frobenius(rich - prev_rich) <= herglotz.EPS_CONV_TOL:
                return rich, step
            prev_rich = rich
        prev = cur
        eps *= factor
    return None, herglotz.EPS_STEPS


def clear_gap_points(fam, count=4):
    """Gap points of safe_grid at least 0.5% of the spectral diameter from
    every eigenvalue, evenly picked."""
    eigs = fam.all_spectra()
    grid = safe_grid(fam, 40)
    gaps = grid[(grid > eigs.min()) & (grid < eigs.max())]
    gaps = gaps[np.min(np.abs(gaps[:, None] - eigs), axis=1) >= 0.005 * fam.spectral_diameter()]
    return gaps[np.linspace(0, gaps.size - 1, count).round().astype(int)]


class TestStackedEpsRoute:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_sequential_scan(self, seed):
        rng = np.random.default_rng(seed + 60)
        fam = HerglotzFamily.from_potential(*random_pair(rng, 4, 6))
        for lam in clear_gap_points(fam):
            for which in SignBlock:
                ref, steps = sequential_eps(fam, which, float(lam))
                assert ref is not None
                val, rec = boundary_log(fam, which, float(lam), route="eps")
                assert (rec.route, rec.steps, rec.converged) == ("eps", steps, True)
                assert frobenius(val - ref) <= 1e-12

    def test_near_an_eigenvalue_still_raises(self, monkeypatch):
        # the schedule starts at the distance to the eigenvalue and
        # converges here; two heights give no Cauchy difference
        monkeypatch.setattr(herglotz, "EPS_STEPS", 2)
        rng = np.random.default_rng(40)
        fam = HerglotzFamily.from_potential(*random_pair(rng, 4, 6))
        lam = float(fam.eig0.eigenvalues[1] + 1e-5 * fam.spectral_diameter())
        assert sequential_eps(fam, SignBlock.PLUS, lam)[0] is None
        with pytest.raises(ConvergenceError, match="did not converge"):
            boundary_log(fam, SignBlock.PLUS, lam, route="eps")

    @pytest.mark.parametrize(
        "seed, n, r, lam, which",
        [
            (5, 6, 4, 0.4269608098285117, SignBlock.PLUS),
            (5, 6, 4, 0.42801654821348634, SignBlock.MINUS),
            (9, 4, 2, -1.3231738879131982, SignBlock.PLUS),
            (9, 4, 2, -1.320763390058193, SignBlock.MINUS),
            # 4.4e-5 diameters from an eigenvalue of H+, where phi_plus is
            # singular, and 0.046 from the nearest pole, of H0
            (12, 4, 2, -0.4136672840242022, SignBlock.PLUS),
        ],
    )
    def test_converges_near_an_eigenvalue(self, seed, n, r, lam, which):
        # safe_grid points that a schedule starting at EPS0 never settled
        rng = np.random.default_rng(seed)
        h0 = random_hermitian(rng, n)
        fam = HerglotzFamily.from_potential(h0, random_indefinite(rng, n, r))
        val, rec = boundary_log(fam, which, lam, route="eps")
        direct, _ = boundary_log(fam, which, lam, route="direct")
        assert rec.route == "eps" and rec.converged
        assert frobenius(val - direct) <= 1e-6

    def test_a_stack_that_raises_is_taken_one_height_at_a_time(self, monkeypatch):
        # a stacked logarithm that fails (as one might at a height past the
        # stopping step) must not turn a converged value into an error
        def lone_only(t, rel_tol=DEFAULT_REL_TOL):
            if np.ndim(t) == 3:
                raise ConvergenceError("stack refused")
            return logm_dissipative(t, rel_tol)

        monkeypatch.setattr(herglotz, "logm_dissipative", lone_only)
        rng = np.random.default_rng(61)
        fam = HerglotzFamily.from_potential(*random_pair(rng, 4, 6))
        lam = float(clear_gap_points(fam)[0])
        ref, steps = sequential_eps(fam, SignBlock.PLUS, lam)
        val, rec = boundary_log(fam, SignBlock.PLUS, lam, route="eps")
        assert rec.steps == steps and np.array_equal(val, ref)


@pytest.mark.parametrize("route", ["default", "eps", "auto", "bogus"])
def test_boundary_log_routes(route):
    # "direct" (the default) and "eps" are the only routes; the default no
    # longer falls back to the eps schedule where the boundary matrix is
    # singular
    rng = np.random.default_rng(62)
    fam = HerglotzFamily.from_potential(*random_pair(rng, 4, 6))
    lam = float(clear_gap_points(fam)[0])
    if route in ("auto", "bogus"):
        with pytest.raises(PreconditionError, match="unknown route"):
            boundary_log(fam, SignBlock.PLUS, lam, route=route)
    elif route == "eps":
        _, steps = sequential_eps(fam, SignBlock.PLUS, lam)
        _, rec = boundary_log(fam, SignBlock.PLUS, lam, route="eps")
        assert (rec.route, rec.steps) == ("eps", steps)
    else:
        _, rec = boundary_log(fam, SignBlock.PLUS, lam)
        assert rec == ConvergenceRecord("direct", 0, 0.0, True)
        # phi_plus(1) = 1 - 1/1 = 0 for H0 = 0, V = 1, outside the + block's
        # exclusion zone
        with pytest.raises(PreconditionError, match="singular"):
            boundary_log(rank_one_family(1.0), SignBlock.PLUS, 1.0)
