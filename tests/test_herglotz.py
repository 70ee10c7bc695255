import warnings

import numpy as np
import pytest

from kreinshift.errors import ConvergenceError, PreconditionError
from kreinshift.generators import random_hermitian, random_indefinite, random_pair
from kreinshift import herglotz, oplog
from kreinshift.herglotz import (
    ConvergenceRecord,
    HerglotzFamily,
    SignBlock,
    boundary_log,
    shift_projection,
)
from kreinshift.matkit import frobenius, imaginary_part, sign_factorization, trace_norm
from kreinshift.oplog import DEFAULT_REL_TOL, logm_antidissipative, logm_dissipative
from kreinshift.shift import safe_grid, xi_at, xi_operator


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
            assert fam.evaluate_block(None, z)[0, 0] == pytest.approx(1.0 - 1.0 / z)

    def test_inverse_identity_full(self):
        rng = np.random.default_rng(21)
        h0 = random_hermitian(rng, 5)
        v = random_indefinite(rng, 5, 4)
        fam = HerglotzFamily.from_potential(h0, v)
        z = 1.0 + 1.0j
        prod = fam.evaluate_block(None, z) @ fam.evaluate_inverse(None, z)
        assert frobenius(prod - np.eye(fam.rank)) <= 1e-10

    def test_decay_to_sign_matrix(self):
        rng = np.random.default_rng(22)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        ys = np.array([1e2, 1e3, 1e4])
        devs = np.array(
            [frobenius(fam.evaluate_block(None, 1j * y) - fam.fact.j_matrix()) for y in ys]
        )
        slope = np.polyfit(np.log(ys), np.log(devs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_eigenvalue_of_base_rejected(self):
        fam = rank_one_family(1.0)
        with pytest.raises(PreconditionError):
            fam.evaluate_block(None, 0.0)


class TestEvaluatePhiPlus:
    def test_coincides_with_phi_for_psd(self):
        rng = np.random.default_rng(23)
        c = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        v = c @ c.conj().T
        fam = HerglotzFamily.from_potential(np.zeros((4, 4)), v)
        assert fam.n_minus == 0
        z = 2.0j
        assert frobenius(fam.evaluate_block(None, z) - fam.evaluate_block(SignBlock.PLUS, z)) <= 1e-12

    def test_inverse_identity(self):
        rng = np.random.default_rng(24)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        z = 2.0j
        prod = fam.evaluate_block(SignBlock.PLUS, z) @ fam.evaluate_inverse(SignBlock.PLUS, z)
        assert frobenius(prod - np.eye(fam.n_plus)) <= 1e-10

    def test_scalar_value(self):
        fam = rank_one_family(1.0)
        assert fam.evaluate_block(SignBlock.PLUS, 1j)[0, 0] == pytest.approx(1.0 + 1.0j)


class TestEvaluatePhiMinusTilde:
    def test_empty_for_psd(self):
        rng = np.random.default_rng(25)
        c = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        fam = HerglotzFamily.from_potential(np.zeros((3, 3)), c @ c.conj().T)
        assert fam.evaluate_block(SignBlock.MINUS, 1j).shape == (0, 0)
        l, rec = boundary_log(fam, SignBlock.MINUS, 10.0)
        assert l.shape == (0, 0) and rec.converged

    def test_inverse_identity(self):
        rng = np.random.default_rng(26)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        z = -0.4 + 1.7j
        prod = fam.evaluate_block(SignBlock.MINUS, z) @ fam.evaluate_inverse(SignBlock.MINUS, z)
        assert frobenius(prod - np.eye(fam.n_minus)) <= 1e-10

    def test_scalar_negative_rank_one(self):
        # base 0, perturbation -1: the minus-block transfer matrix is 1 + 1/z
        fam = rank_one_family(-1.0)
        assert fam.n_plus == 0 and fam.n_minus == 1
        assert fam.evaluate_block(SignBlock.MINUS, 2.0j)[0, 0] == pytest.approx(1.0 - 0.5j)
        for z in (0.3 + 0.9j, -1.5 + 2.0j):
            assert fam.evaluate_block(SignBlock.MINUS, z)[0, 0] == pytest.approx(1.0 + 1.0 / z)


class TestHerglotzProperty:
    def test_sign_of_imaginary_parts(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            h0, v = random_pair(rng, 3, 6)
            fam = HerglotzFamily.from_potential(h0, v)
            z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 3.0))
            for m in (fam.evaluate_block(None, z), fam.evaluate_block(SignBlock.PLUS, z)):
                if m.size:
                    assert np.linalg.eigvalsh(imaginary_part(m)).min() >= -1e-12
            mt = fam.evaluate_block(SignBlock.MINUS, z)
            if mt.size:
                assert np.linalg.eigvalsh(imaginary_part(mt)).max() <= 1e-12


# (block, inverse) of the six transfer matrices and inverses: phi,
# phi_plus, phi_minus~, then the inverse of each
TRANSFERS = [(which, inverse) for inverse in (False, True) for which in (None, *SignBlock)]


def transfer(fam: HerglotzFamily, which, inverse: bool, z):
    """The transfer matrix of the block, or its inverse, at z."""
    return (fam.evaluate_inverse if inverse else fam.evaluate_block)(which, z)


def dense_transfer_matrices(fam: HerglotzFamily, z: complex) -> dict:
    """The six transfer matrices and inverses at a scalar z, by
    (block, inverse), each from one dense solve with its resolvent base."""
    k, npl, n = fam.fact.k, fam.n_plus, fam.dim
    j = np.diag(fam.fact.j_signs)
    plus, minus = slice(None, npl), slice(npl, None)

    def sandwich(base, cols):
        return k[:, cols].conj().T @ np.linalg.solve(base - z * np.eye(n), k[:, cols])

    return dict(zip(TRANSFERS, (
        j + sandwich(fam.h0, slice(None)),
        np.eye(npl) + sandwich(fam.h0, plus),
        np.eye(fam.n_minus) - sandwich(fam.h_plus, minus),
        j - j @ sandwich(fam.h, slice(None)) @ j,
        np.eye(npl) - sandwich(fam.h_plus, plus),
        np.eye(fam.n_minus) + sandwich(fam.h, minus),
    )))


def test_two_public_evaluators():
    public = [name for name in dir(HerglotzFamily) if name.startswith("evaluate")]
    assert public == ["evaluate_block", "evaluate_inverse"]


class TestTransferMatricesDense:
    @pytest.fixture(params=["mixed", "empty-plus", "empty-minus"])
    def family(self, request):
        rng = np.random.default_rng(37)
        h0 = random_hermitian(rng, 6)
        c = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        v = {
            "mixed": random_indefinite(rng, 6, 5),
            "empty-plus": -(c @ c.conj().T),
            "empty-minus": c @ c.conj().T,
        }[request.param]
        fam = HerglotzFamily.from_potential(h0, v)
        if request.param == "mixed":
            assert fam.n_plus >= 2 and fam.n_minus >= 2
        else:
            assert (fam.n_plus == 0) == (request.param == "empty-plus")
            assert fam.rank == 3
        return fam

    def test_scalar_z(self, family):
        for z in (0.3 + 0.8j, -1.7 - 0.2j, 2.5 + 1e-3j):
            for key, want in dense_transfer_matrices(family, z).items():
                got = transfer(family, *key, z)
                assert got.shape == want.shape
                assert frobenius(got - want) <= 1e-12 * max(1.0, frobenius(want)), key

    def test_stack_of_z(self, family):
        zs = np.array([0.3 + 0.8j, -1.7 - 0.2j, 2.5 + 1e-3j, 4.0j])
        for key in TRANSFERS:
            got = transfer(family, *key, zs)
            for z, m in zip(zs, got):
                want = dense_transfer_matrices(family, z)[key]
                assert frobenius(m - want) <= 1e-12 * max(1.0, frobenius(want)), key

    def test_blocks_read_their_transfer_matrices(self, family):
        # phi_plus is the + diagonal block of phi, and phi_minus~ is minus
        # the Schur complement of that block (Woodbury for (H+ - z)^(-1))
        z = -0.6 + 0.9j
        npl = family.n_plus
        phi = family.evaluate_block(None, z)
        pp, pm, mp, mm = phi[:npl, :npl], phi[:npl, npl:], phi[npl:, :npl], phi[npl:, npl:]
        plus = family.evaluate_block(SignBlock.PLUS, z)
        minus = family.evaluate_block(SignBlock.MINUS, z)
        assert frobenius(pp - plus) <= 1e-12 * max(1.0, frobenius(plus))
        schur = mm - mp @ np.linalg.solve(pp, pm)
        assert frobenius(minus + schur) <= 1e-10 * max(1.0, frobenius(minus))


def test_block_spectra_are_the_pair_of_each_block():
    rng = np.random.default_rng(39)
    fam = HerglotzFamily.from_potential(random_hermitian(rng, 5), random_indefinite(rng, 5, 4))
    for which, pair in (
        (SignBlock.PLUS, (fam.eig0, fam.eig_plus)),
        (SignBlock.MINUS, (fam.eig_plus, fam.eig_h)),
    ):
        spectra = fam.block_spectra(which)
        assert len(spectra) == 2
        for got, want in zip(spectra, pair):
            assert np.array_equal(got, want.eigenvalues)


def mixed_family() -> HerglotzFamily:
    """n = 5 under a rank-4 V with two positive and two negative directions."""
    rng = np.random.default_rng(5)
    fam = HerglotzFamily.from_potential(random_hermitian(rng, 5), random_indefinite(rng, 5, 4))
    assert (fam.n_plus, fam.n_minus) == (2, 2)
    return fam


def test_each_block_has_the_zones_of_its_poles():
    # the + block's transfer matrix has its poles on H0, the - block's on H+
    fam = mixed_family()
    width = fam.exclusion_width()
    spectra = {
        "h0": fam.eig0.eigenvalues, "plus": fam.eig_plus.eigenvalues, "h": fam.eig_h.eigenvalues,
    }
    for which, start in ((SignBlock.PLUS, "h0"), (SignBlock.MINUS, "plus")):
        assert fam.near_spectrum(spectra[start], which).all()
        others = np.concatenate([e for k, e in spectra.items() if k != start])
        far = np.min(np.abs(others[:, None] - spectra[start]), axis=1) > width
        assert far.sum() >= 5
        assert not fam.near_spectrum(others[far], which).any()
    assert fam.near_spectrum(np.concatenate(list(spectra.values()))).all()


def test_block_log_takes_each_block_with_its_own_logarithm():
    fam = mixed_family()
    zs = np.array([0.3 + 0.2j, -1.0 + 1e-3j])
    for which, take_log in (
        (SignBlock.PLUS, logm_dissipative),
        (SignBlock.MINUS, logm_antidissipative),
    ):
        m = fam.evaluate_block(which, zs)
        assert np.array_equal(fam.block_log(which, zs), take_log(m))
        assert np.array_equal(fam.block_log(which, zs, DEFAULT_REL_TOL), take_log(m))
        assert np.array_equal(fam.block_log(which, zs, 1e-13), take_log(m, 1e-13))


class TestMinusBlockAtAnEigenvalueOfH0:
    # an eigenvalue of H0 is a point of no pole of the - block's transfer
    # matrix: 0.188 from H+ and 0.698 from H
    fam = mixed_family()
    lam = float(fam.eig0.eigenvalues[2])

    def test_shift_operator_is_the_negative_eigenspace(self):
        w, u = np.linalg.eigh(self.fam.evaluate_block(SignBlock.MINUS, self.lam))
        want = (u[:, w < 0]) @ u[:, w < 0].conj().T
        assert frobenius(xi_operator(self.fam, SignBlock.MINUS, self.lam) - want) <= 1e-12

    def test_both_routes_of_the_boundary_log(self):
        direct, _ = boundary_log(self.fam, SignBlock.MINUS, self.lam)
        via_eps, rec = boundary_log(self.fam, SignBlock.MINUS, self.lam, route="eps")
        # the schedule starts at EPS0, not at the distance 0 to H0
        assert rec.route == "eps" and rec.converged and rec.cauchy > 0
        assert frobenius(via_eps - direct) <= 1e-6

    def test_the_plus_block_and_the_shift_function_still_refuse(self):
        for read in (
            lambda: xi_operator(self.fam, SignBlock.PLUS, self.lam),
            lambda: boundary_log(self.fam, SignBlock.PLUS, self.lam),
            lambda: xi_at(self.fam, self.lam),
        ):
            with pytest.raises(PreconditionError, match="exclusion zone"):
                read()


@pytest.mark.parametrize("which", [None, "plus"])
def test_which_must_be_a_sign_block(which):
    fam = HerglotzFamily.from_potential(*random_pair(np.random.default_rng(3), 5, 6))
    lam = float(safe_grid(fam, 20)[3])
    reads = [
        lambda: fam.block_spectra(which),
        lambda: fam.block_log(which, lam + 1j),
        lambda: boundary_log(fam, which, lam),
        lambda: boundary_log(fam, which, lam, route="eps"),
        lambda: xi_operator(fam, which, lam),
    ]
    if which is not None:
        # None asks near_spectrum for the zones of all three spectra, and
        # the evaluators for the full block
        reads.append(lambda: fam.near_spectrum(lam, which))
        reads.append(lambda: fam.evaluate_block(which, lam + 1j))
        reads.append(lambda: fam.evaluate_inverse(which, lam + 1j))
    for read in reads:
        with pytest.raises(PreconditionError, match="must be a SignBlock"):
            read()


@pytest.mark.parametrize(
    "z", [complex(np.nan, 1.0), complex(1.0, np.inf), np.inf, np.array([1j, np.nan])],
    ids=["nan+i", "1+inf*i", "inf", "stack"],
)
def test_non_finite_z_refused_by_every_evaluator(z):
    rng = np.random.default_rng(38)
    fam = HerglotzFamily.from_potential(random_hermitian(rng, 5), random_indefinite(rng, 5, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for key in TRANSFERS:
            with pytest.raises(PreconditionError, match="^z=.* is not finite"):
                transfer(fam, *key, z)


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
        scaled = [y * trace_norm(fam.block_log(SignBlock.PLUS, 1j * y)) for y in ys]
        assert max(scaled) / min(scaled) - 1.0 < 0.2

    def test_no_linear_term(self):
        rng = np.random.default_rng(30)
        h0, v = random_pair(rng, 4, 6)
        fam = HerglotzFamily.from_potential(h0, v)
        y = 1e6
        assert frobenius(fam.block_log(SignBlock.PLUS, 1j * y)) / y < 1e-6


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
        for which in SignBlock:
            m = fam.evaluate_block(which, lam)
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

    def test_one_stacked_decomposition(self, monkeypatch):
        rng = np.random.default_rng(36)
        h0, fact = random_hermitian(rng, 7), sign_factorization(random_indefinite(rng, 7, 4))
        calls = []
        real = herglotz.eig_hermitian
        monkeypatch.setattr(
            herglotz, "eig_hermitian", lambda a: calls.append(np.shape(a)) or real(a)
        )
        fam = HerglotzFamily(h0, fact)
        assert calls == [(3, 7, 7)]
        for m, e in ((fam.h0, fam.eig0), (fam.h_plus, fam.eig_plus), (fam.h, fam.eig_h)):
            w, u = np.linalg.eigh(m)
            assert np.array_equal(e.eigenvalues, w) and np.array_equal(e.vectors, u)

    def test_overflowing_sum_refused_without_warnings(self):
        # finite H0 and V whose sum is past the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="^H0 \\+ V overflows"):
                HerglotzFamily.from_potential(1e308 * np.eye(2), 1e308 * np.eye(2))

    def test_overflowing_spectral_diameter_refused_without_warnings(self):
        # finite eigenvalues -1e308 and 1e308, 2e308 apart
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionError, match="^the spectral diameter .* overflows"):
                HerglotzFamily.from_potential(np.diag([-1e308, 1e308]), np.diag([1.0, 0.0]))

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
    EPS0 or, when nearer, at the distance to the nearest eigenvalue of the
    block's pair, (H0, H+) for PLUS and (H+, H) for MINUS: the value and
    step where the Richardson iterates meet the Cauchy tolerance, or None
    when the schedule runs out."""
    if which is SignBlock.PLUS:
        take_log, pair = logm_dissipative, (fam.eig0, fam.eig_plus)
    else:
        take_log, pair = logm_antidissipative, (fam.eig_plus, fam.eig_h)
    spectra = np.concatenate([e.eigenvalues for e in pair])
    factor = herglotz.EPS_FACTOR
    prev = prev_rich = None
    eps = min(herglotz.EPS0, float(np.min(np.abs(spectra - lam))))
    for step in range(1, herglotz.EPS_STEPS + 1):
        cur = take_log(fam.evaluate_block(which, lam + 1j * eps))
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

    def test_refused_stack_converges_one_height_at_a_time(self):
        # 1e-8 diameters from an eigenvalue of H0: the stack of all 20
        # heights shares one mesh and panel budget and is refused (residual
        # estimate 2.0e-10 in item 15), though each height converges alone;
        # the one-height-at-a-time fallback gives the value in 17 steps
        rng = np.random.default_rng(20)
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n + 1))
        h0 = random_hermitian(rng, n)
        v = random_indefinite(rng, n, r)
        fam = HerglotzFamily.from_potential(h0, 10.0 ** rng.uniform(-6, 2) * v)
        lam = -0.5933851940286254
        val, rec = boundary_log(fam, SignBlock.PLUS, lam, route="eps")
        direct, _ = boundary_log(fam, SignBlock.PLUS, lam, route="direct")
        assert rec.route == "eps" and rec.converged
        assert frobenius(val - direct) <= 1e-6

    def test_a_stack_that_raises_is_taken_one_height_at_a_time(self, monkeypatch):
        # a stacked logarithm that fails (as one might at a height past the
        # stopping step) must not turn a converged value into an error
        def lone_only(t, rel_tol=DEFAULT_REL_TOL):
            if np.ndim(t) == 3:
                raise ConvergenceError("stack refused")
            return logm_dissipative(t, rel_tol)

        # block_log reads the logarithm from oplog at call time
        monkeypatch.setattr(oplog, "logm_dissipative", lone_only)
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
