import dataclasses
import math

import numpy as np
import pytest

from kreinshift.errors import PreconditionError
from kreinshift.generators import random_hermitian, random_unitary
from kreinshift.herglotz import HerglotzFamily
from kreinshift.matkit import (
    HERMITIAN_RTOL,
    SignedFactorization,
    _batches,
    _sorted_unique,
    apply_spectral_function,
    as_matrix,
    eig_hermitian,
    expm,
    frobenius,
    hermitian_part,
    imaginary_part,
    is_hermitian,
    sign_factorization,
    solve_shifted,
    trace,
    trace_norm,
)


class TestEigHermitian:
    def test_two_by_two_coupling(self):
        e = eig_hermitian([[1.0, 0.4], [0.4, 1.0]])
        assert np.allclose(e.eigenvalues, [0.6, 1.4])

    def test_identity(self):
        e = eig_hermitian(np.eye(3))
        assert np.allclose(e.eigenvalues, 1.0)
        assert np.allclose(np.abs(e.vectors.conj().T @ e.vectors), np.eye(3))

    def test_residual_random(self):
        rng = np.random.default_rng(42)
        a = random_hermitian(rng, 8)
        e = eig_hermitian(a)
        for w, v in zip(e.eigenvalues, e.vectors.T):
            assert np.linalg.norm(a @ v - w * v) <= 1e-12 * frobenius(a)
        assert frobenius(e.vectors.conj().T @ e.vectors - np.eye(8)) <= 1e-12 * 8
        assert (
            frobenius(a @ e.vectors - e.vectors * e.eigenvalues) <= 1e-12 * frobenius(a)
        )

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            as_matrix(np.zeros((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(PreconditionError):
            eig_hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(PreconditionError):
            as_matrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_stack_equals_per_matrix_calls(self):
        rng = np.random.default_rng(16)
        stack = np.stack([random_hermitian(rng, 6) for _ in range(5)])
        e = eig_hermitian(stack)
        assert e.eigenvalues.shape == (5, 6) and e.vectors.shape == (5, 6, 6) and e.dim == 6
        for i, a in enumerate(stack):
            one = eig_hermitian(a)
            assert np.array_equal(e.eigenvalues[i], one.eigenvalues)
            assert np.array_equal(e.vectors[i], one.vectors)
        stack[2, 0, 1] += 1.0
        with pytest.raises(PreconditionError, match="^matrix 2 of the stack is not Hermitian"):
            eig_hermitian(stack)


class TestSpectralFunction:
    def test_identity_function(self):
        a = np.diag([2.0, 5.0])
        assert np.allclose(apply_spectral_function(a, lambda x: x), a)

    def test_constant_one(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(rng, 4)
        assert np.allclose(apply_spectral_function(a, lambda x: 1.0), np.eye(4))

    def test_exp_matches_expm(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 4)
        lhs = apply_spectral_function(a, np.exp)
        rhs = expm(a)
        assert frobenius(lhs - rhs) <= 1e-10 * frobenius(rhs)

    def test_identity_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = random_hermitian(rng, 5)
            assert frobenius(apply_spectral_function(a, lambda x: x) - a) <= 1e-12 * frobenius(a)

    def test_non_finite_value_rejected(self):
        with pytest.raises(PreconditionError):
            apply_spectral_function(np.diag([1.0, 0.0]), lambda x: 1.0 / x)

    @pytest.mark.parametrize("f", [np.exp, lambda x: 1.0 / (x - 0.3j), lambda x: 2.0])
    def test_stack_equals_per_matrix_calls(self, f):
        rng = np.random.default_rng(11)
        stack = np.stack([random_hermitian(rng, 5) for _ in range(7)])
        out = apply_spectral_function(stack, f)
        assert out.shape == stack.shape
        for a, got in zip(stack, out):
            assert np.array_equal(got, apply_spectral_function(a, f))

    def test_stack_refuses_non_hermitian_item_by_index(self):
        rng = np.random.default_rng(12)
        stack = np.stack([random_hermitian(rng, 3) for _ in range(4)])
        stack[2, 0, 1] += 1.0
        with pytest.raises(PreconditionError, match="matrix 2 of the stack is not Hermitian"):
            apply_spectral_function(stack, np.exp)
        with pytest.raises(PreconditionError, match="^matrix is not Hermitian"):
            apply_spectral_function(stack[2], np.exp)

    def test_stack_non_finite_value_rejected(self):
        stack = np.stack([np.diag([1.0, 2.0]), np.diag([1.0, 0.0])])
        with pytest.raises(PreconditionError, match="not finite at eigenvalue"):
            apply_spectral_function(stack, lambda x: math.inf if x < 0.5 else x)
        with pytest.raises(PreconditionError, match="undefined at an eigenvalue"):
            apply_spectral_function(stack, lambda x: 1.0 / x)
        with pytest.raises(PreconditionError, match="^matrix 1 of the stack has non-finite entries$"):
            apply_spectral_function(np.stack([np.eye(2), np.diag([1.0, np.inf])]), np.exp)
        with pytest.raises(PreconditionError, match="square"):
            apply_spectral_function(np.zeros((2, 2, 3)), np.exp)

    def test_overflowing_eigendecomposition_is_not_blamed_on_f(self):
        # finite entries whose largest eigenvalue (1.9e308) is past the
        # double range; f is never evaluated
        calls = []
        big = 1e308 * np.array([[1.0, 0.9], [0.9, 1.0]])
        cases = [
            (big, "eigendecomposition has"),
            (np.stack([np.eye(2), big]), "eigendecomposition of matrix 1 of the stack has"),
        ]
        with np.errstate(all="ignore"):
            for a, where in cases:
                with pytest.raises(PreconditionError, match=f"{where} non-finite eigenvalues"):
                    apply_spectral_function(a, lambda x: calls.append(x) or x)
        assert calls == []

    def test_finite_decomposition_of_huge_entries(self):
        # eigenvalues 1.4e308 and 6e307: finite, so f is evaluated
        a = np.array([[1.0, 0.4], [0.4, 1.0]])
        out = apply_spectral_function(1e308 * a, lambda x: 1.0)
        assert np.array_equal(out, apply_spectral_function(a, lambda x: 1.0))
        assert np.allclose(out, np.eye(2), rtol=0.0, atol=1e-15)


class TestHermitianCheck:
    def test_verdict_is_the_unscaled_one_in_range(self):
        # asymmetries on both sides of the bound, at scales where the
        # unscaled norms are finite
        rng = np.random.default_rng(15)
        for k in range(200):
            n = 1 + k % 6
            h = random_hermitian(rng, n) * 10.0 ** rng.uniform(-100, 100)
            e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = h + e * frobenius(h) * 10.0 ** rng.uniform(-14, -10)
            for rtol in (HERMITIAN_RTOL, 1e-10):
                plain = frobenius(a - a.conj().T) <= rtol * frobenius(a)
                assert is_hermitian(a, rtol) == plain

    def test_huge_non_hermitian_refused(self):
        # past about 1e154 the unscaled norms overflow and inf <= inf passed;
        # the last has entries whose modulus is past the double range
        for scale in (1.0, 1e200, 1e308, 1.5e308 * (1 + 1j)):
            a = scale * np.array([[1.0, 1.0], [0.0, 0.5]])
            assert not is_hermitian(a)
            with pytest.raises(PreconditionError, match="^matrix is not Hermitian"):
                eig_hermitian(a)
            with pytest.raises(PreconditionError, match="matrix 1 of the stack is not Hermitian"):
                apply_spectral_function(np.stack([np.eye(2), a]), np.exp)
        assert is_hermitian(1e308 * np.array([[1.0, 0.4], [0.4, 1.0]]))
        assert is_hermitian(np.zeros((2, 2))) and is_hermitian(np.zeros((0, 0)))

    def test_message_prints_unscaled_norms(self):
        with pytest.raises(PreconditionError, match=r"asymmetry 1\.414e\+200 exceeds"):
            eig_hermitian(1e200 * np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestHermitianPart:
    def test_matrix_bits_unchanged(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.array_equal(hermitian_part(a), 0.5 * (a + a.conj().T))
        stack = rng.standard_normal((50, 30, 30)) + 1j * rng.standard_normal((50, 30, 30))
        assert np.array_equal(hermitian_part(stack), 0.5 * (stack + stack.conj().swapaxes(1, 2)))

    def test_huge_entries_do_not_overflow(self):
        a = 1e308 * np.array([[1.0, 0.4], [0.4, 1.0]])
        with np.errstate(over="raise"):
            assert np.array_equal(hermitian_part(a), a)

    def test_stack_is_per_matrix(self):
        rng = np.random.default_rng(14)
        stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        out = hermitian_part(stack)
        for a, got in zip(stack, out):
            assert np.array_equal(got, hermitian_part(a))


class TestImaginaryPart:
    def test_stack_bits_unchanged(self):
        rng = np.random.default_rng(16)
        stack = rng.standard_normal((50, 30, 30)) + 1j * rng.standard_normal((50, 30, 30))
        for scale in (1.0, 3.7, 1e300, 1e-300):
            a = scale * stack
            assert np.array_equal(imaginary_part(a), (a - a.conj().swapaxes(1, 2)) / 2j)

    def test_huge_entries_do_not_overflow(self):
        a = 1e308 * np.array([[0.0, 1j], [1j, 0.0]])
        with np.errstate(all="raise"):
            got = imaginary_part(a)
        assert np.array_equal(got, 1e308 * np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestSortedUnique:
    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=np.float64).view(np.uint64)

    def test_equals_np_unique_bit_for_bit(self):
        rng = np.random.default_rng(16)
        cases = [
            np.array([]),
            np.array([2.5]),
            np.array([0.0, -0.0]),
            np.array([-0.0, 0.0]),
            np.array([1.0, -0.0, 2.0, 0.0, 1.0, -0.0]),
            np.array([3.0, 0.0, -0.0, 0.0, -0.0, 3.0, -3.0]),
            rng.integers(-5, 6, 200).astype(float),
            np.repeat(rng.standard_normal(40), 3),
        ]
        for x in cases:
            assert np.array_equal(self.bits(_sorted_unique(x)), self.bits(np.unique(x)))
        assert np.array_equal(_sorted_unique([3.0, 1.0, 3.0]), [1.0, 3.0])


class TestSolveShifted:
    def test_scalar(self):
        x = solve_shifted(np.zeros((1, 1)), 1j, np.ones((1, 1)))
        assert np.allclose(x, 1j)

    def test_diagonal(self):
        x = solve_shifted(np.diag([1.0, 2.0]), 0.0, np.eye(2))
        assert np.allclose(x, np.diag([1.0, 0.5]))

    def test_residual(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(rng, 6)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        z = 3.0 + 2.0j
        x = solve_shifted(a, z, b)
        assert frobenius((a - z * np.eye(6)) @ x - b) <= 1e-10 * frobenius(b)

    def test_singular_shift_rejected(self):
        with pytest.raises(PreconditionError):
            solve_shifted(np.diag([1.0, 2.0]), 1.0, np.eye(2))


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(expm(np.diag([np.log(2.0), 0.0])), np.diag([2.0, 1.0]))

    def test_nilpotent(self):
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(n), np.eye(2) + n)


class TestBatches:
    def test_empty_stack_is_one_empty_slice(self):
        batches = _batches(0, 16, 1 << 10)
        assert batches == [slice(0, 64)]
        assert np.zeros((0, 3))[batches[0]].shape == (0, 3)

    def test_budget_sets_the_size(self):
        batches = _batches(10, 16, 48)
        assert [s.stop - s.start for s in batches] == [3] * 4
        assert np.array_equal(np.concatenate([np.arange(10)[s] for s in batches]), np.arange(10))

    def test_floor(self):
        # an item past the budget still gives slices of ``least`` items
        assert _batches(10, 100, 1, 4) == [slice(0, 4), slice(4, 8), slice(8, 12)]
        assert _batches(10, 100, 1) == [slice(i, i + 1) for i in range(10)]

    def test_items_of_size_zero_are_one_slice(self):
        assert _batches(10, 0, 1 << 10) == [slice(0, 10)]
        assert _batches(0, 0, 1 << 10) == [slice(0, 1)]


class TestSignedFactorization:
    def test_two_fields_the_rest_derived(self):
        assert [f.name for f in dataclasses.fields(SignedFactorization)] == ["k", "n_plus"]
        f = SignedFactorization(np.eye(4, 3, dtype=complex), 2)
        assert (f.rank, f.n_plus, f.n_minus, f.dim) == (3, 2, 1, 4)
        assert f.j_signs.tolist() == [1.0, 1.0, -1.0]
        assert np.array_equal(f.reconstruct(), np.diag([1.0, 1.0, -1.0, 0.0]))
        empty = SignedFactorization(np.zeros((2, 0), dtype=complex), 0)
        assert (empty.rank, empty.n_minus, empty.j_signs.shape) == (0, 0, (0,))

    @pytest.mark.parametrize("n_plus", [-1, 4])
    def test_n_plus_outside_the_columns_refused(self, n_plus):
        with pytest.raises(PreconditionError, match="n_plus"):
            SignedFactorization(np.eye(3, dtype=complex), n_plus)

    def test_phi_reads_the_plus_block_of_phi_plus(self):
        # J and the + block are one layout: the leading n_plus x n_plus
        # block of phi is phi_plus
        fam = HerglotzFamily(np.diag([0.0, 1.0]), SignedFactorization(np.eye(2, dtype=complex), 1))
        z = 0.3 + 0.2j
        assert np.array_equal(fam.evaluate_phi(z)[:1, :1], fam.evaluate_phi_plus(z))
        assert np.array_equal(fam.fact.j_matrix(), np.diag([1.0, -1.0]).astype(complex))


class TestSignFactorization:
    def test_diagonal(self):
        f = sign_factorization(np.diag([2.0, -3.0]))
        assert f.n_plus == 1 and f.n_minus == 1
        assert np.allclose(f.j_signs, [1.0, -1.0])
        assert np.allclose(np.abs(f.k), np.diag([np.sqrt(2.0), np.sqrt(3.0)]))

    def test_zero(self):
        f = sign_factorization(np.zeros((3, 3)))
        assert f.rank == 0
        assert f.k.shape == (3, 0)
        assert np.allclose(f.reconstruct(), 0.0)

    def test_rank_three_reconstruction(self):
        rng = np.random.default_rng(8)
        q = random_unitary(rng, 6)[:, :3]
        v = hermitian_part((q * np.array([1.3, -0.7, 0.5])) @ q.conj().T)
        f = sign_factorization(v)
        assert f.rank == 3
        assert frobenius(f.reconstruct() - v) <= 1e-11 * frobenius(v)

    def test_sign_counts(self):
        rng = np.random.default_rng(9)
        v = random_hermitian(rng, 5)
        f = sign_factorization(v, rank_tol=1e-12)
        w = np.linalg.eigvalsh(v)
        thresh = 1e-12 * np.max(np.abs(w))
        assert f.n_plus == np.count_nonzero(w > thresh)
        assert f.n_minus == np.count_nonzero(w < -thresh)
        assert frobenius(f.reconstruct() - v) <= 1e-11 * frobenius(v)

    def test_overflowing_eigenvalues_refused(self):
        # finite entries whose largest eigenvalue (1.9e308) is past the
        # double range: the threshold rank_tol * inf would drop every
        # eigenpair and factor V as zero
        v = 1e308 * np.array([[1.0, 0.9], [0.9, 1.0]])
        with pytest.raises(PreconditionError, match=r"non-finite eigenvalues \[inf\]"):
            sign_factorization(v)

    def test_rank_tol_validated(self):
        # a NaN tolerance would drop every eigenpair and factor V as zero
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(PreconditionError):
                sign_factorization(np.eye(2), rank_tol=tol)


class TestTraceIdentities:
    def test_trace_commutator(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
            b = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            t1, t2 = trace(a @ b), trace(b @ a)
            assert abs(t1 - t2) <= 1e-12 * max(abs(t1), 1.0)

    def test_det_sylvester(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
            b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            d1 = np.linalg.det(np.eye(3) + a @ b)
            d2 = np.linalg.det(np.eye(5) + b @ a)
            assert abs(d1 - d2) <= 1e-10 * max(abs(d1), 1.0)

    def test_trace_norm_hermitian(self):
        rng = np.random.default_rng(12)
        v = random_hermitian(rng, 5)
        assert trace_norm(v) == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(v))))
