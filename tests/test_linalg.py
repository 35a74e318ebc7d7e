import numpy as np
import pytest

from xymqc.linalg import (
    DensityMatrix,
    NotHermitianError,
    NotPSDError,
    matrix_sqrt_psd,
    partial_trace,
    partial_transpose,
    realignment,
    trace_norm,
    validate_density,
)


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def ghz_state():
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


class TestPartialTranspose:
    def test_bell_eigenvalues(self):
        pt = partial_transpose(bell_state(), (2, 2), 0)
        w = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_hermitian(rng, 2)
            a = a @ a.conj().T
            a /= np.trace(a)
            b = random_hermitian(rng, 4)
            b = b @ b.conj().T
            b /= np.trace(b)
            pt = partial_transpose(np.kron(a, b), (2, 4), 0)
            assert np.linalg.eigvalsh(pt)[0] > -1e-12

    def test_ghz_trace_norm_two(self):
        # eigenvalue enumeration oracle: the 8x8 partial transpose of GHZ
        # has eigenvalues {1/2 x3, -1/2, 0 x4}, hence trace norm 2
        pt = partial_transpose(ghz_state(), (2, 4), 0)
        w = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(w[:1], [-0.5], atol=1e-12)
        assert np.allclose(w[-3:], [0.5, 0.5, 0.5], atol=1e-12)
        assert abs(trace_norm(pt) - 2.0) < 1e-10

    def test_involution_and_trace(self):
        rng = np.random.default_rng(7)
        for dims in ((2, 4), (2, 2, 2), (4, 2)):
            n = int(np.prod(dims))
            m = random_hermitian(rng, n)
            for sub in range(len(dims)):
                pt = partial_transpose(m, dims, sub)
                assert abs(np.trace(pt) - np.trace(m)) < 1e-12
                assert np.array_equal(partial_transpose(pt, dims, sub), m)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            partial_transpose(np.eye(4), (2, 2), 2)

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(8)
        stack = np.array([random_hermitian(rng, 8) for _ in range(6)]).reshape(2, 3, 8, 8)
        for sub in range(3):
            out = partial_transpose(stack, (2, 2, 2), sub)
            assert out.shape == stack.shape
            for idx in np.ndindex(2, 3):
                assert np.array_equal(out[idx], partial_transpose(stack[idx], (2, 2, 2), sub))


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 2)
        a = a @ a.conj().T
        a /= np.trace(a)
        b = random_hermitian(rng, 4)
        b = b @ b.conj().T
        b /= np.trace(b)
        out, dims = partial_trace(np.kron(a, b), (2, 4), keep=[0])
        assert dims == (2,)
        assert np.max(np.abs(out - a)) < 1e-12

    def test_ghz_marginal(self):
        out, _ = partial_trace(ghz_state(), (2, 2, 2), keep=[0, 1])
        expect = np.zeros((4, 4))
        expect[0, 0] = expect[3, 3] = 0.5
        assert np.max(np.abs(out - expect)) < 1e-12

    def test_full_trace_is_one(self):
        rho = ghz_state()
        out, _ = partial_trace(rho, (2, 2, 2), keep=[1])
        assert abs(np.trace(out) - 1.0) < 1e-12

    def test_keep_order_swaps_subsystems(self):
        rng = np.random.default_rng(4)
        a = np.diag([0.2, 0.8]).astype(complex)
        b = np.diag([0.7, 0.3]).astype(complex)
        rho = np.kron(a, b)
        swapped, _ = partial_trace(rho, (2, 2), keep=[1, 0])
        assert np.max(np.abs(swapped - np.kron(b, a))) < 1e-12

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), keep=[])

    @pytest.mark.parametrize("keep, error, match", [
        ([0, 0], ValueError, "duplicate"), ([2], IndexError, "out of range"),
    ], ids=["duplicate", "out-of-range"])
    def test_bad_keep_rejected(self, keep, error, match):
        with pytest.raises(error, match=match):
            partial_trace(np.eye(4) / 4.0, (2, 2), keep=keep)


class TestRealignment:
    def test_pure_product(self):
        rho = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
        assert abs(trace_norm(realignment(rho, (2, 2))) - 1.0) < 1e-12

    def test_bell_norm_two(self):
        # independent check: build R entrywise from the definition, then SVD
        rho = bell_state()
        r_direct = np.empty((4, 4), dtype=complex)
        t = rho.reshape(2, 2, 2, 2)
        for i in range(2):
            for ip in range(2):
                for j in range(2):
                    for jp in range(2):
                        r_direct[2 * i + ip, 2 * j + jp] = t[i, j, ip, jp]
        assert np.max(np.abs(realignment(rho, (2, 2)) - r_direct)) < 1e-15
        assert abs(np.sum(np.linalg.svd(r_direct, compute_uv=False)) - 2.0) < 1e-12

    def test_maximally_mixed(self):
        rho = np.eye(4, dtype=complex) / 4.0
        assert abs(trace_norm(realignment(rho, (2, 2))) - 0.5) < 1e-12

    def test_index_bookkeeping_roundtrip(self):
        rng = np.random.default_rng(9)
        rho = random_hermitian(rng, 8)
        r = realignment(rho, (2, 4))
        t = rho.reshape(2, 4, 2, 4)
        for i in range(2):
            for ip in range(2):
                for j in range(4):
                    for jp in range(4):
                        assert r[2 * i + ip, 4 * j + jp] == t[i, j, ip, jp]

    def test_non_bipartite_rejected(self):
        with pytest.raises(ValueError):
            realignment(np.eye(8), (2, 2, 2))

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(10)
        stack = np.array([random_hermitian(rng, 8) for _ in range(3)])
        out = realignment(stack, (2, 4))
        assert out.shape == (3, 4, 16)
        for k in range(3):
            assert np.array_equal(out[k], realignment(stack[k], (2, 4)))


class TestTraceNorm:
    def test_identity(self):
        assert abs(trace_norm(np.eye(8)) - 8.0) < 1e-12

    def test_hermitian_diagonal(self):
        assert abs(trace_norm(np.diag([2.0, -3.0])) - 5.0) < 1e-12

    def test_density_matrices_have_unit_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            assert abs(trace_norm(rho) - 1.0) < 1e-9

    def test_stack_returns_array_of_norms(self):
        rng = np.random.default_rng(14)
        stack = rng.standard_normal((3, 4, 16)) + 1j * rng.standard_normal((3, 4, 16))
        norms = trace_norm(stack)
        assert isinstance(trace_norm(stack[0]), float)
        assert norms.shape == (3,)
        assert np.max(np.abs(norms - [trace_norm(m) for m in stack])) < 1e-12


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt_psd(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_construct_and_square(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            p = a @ a.conj().T
            root = matrix_sqrt_psd(p)
            assert np.max(np.abs(root @ root - p)) < 1e-8
            assert np.max(np.abs(root - root.conj().T)) < 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            matrix_sqrt_psd(np.diag([1.0, -1e-3]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            matrix_sqrt_psd(np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestDensityMatrix:
    def test_valid(self):
        dm = DensityMatrix(np.eye(8) / 8.0, (2, 2, 2))
        assert dm.matrix.shape == (8, 8)

    def test_rejects_non_hermitian(self):
        m = np.eye(4) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(NotHermitianError):
            DensityMatrix(m, (2, 2))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4), (2, 2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.full((2, 2), np.nan), (2,))

    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            DensityMatrix(np.diag([1.2, -0.2, 0.0, 0.0]), (2, 2))

    def test_rejects_shape_that_misses_the_dims(self):
        with pytest.raises(ValueError, match="does not match dims"):
            DensityMatrix(np.eye(4) / 4.0, (2, 2, 2))


class TestValidateDensity:
    @staticmethod
    def stack_with(bad, at=3, n=5):
        rng = np.random.default_rng(9)
        stack = []
        for _ in range(n):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            stack.append(rho / np.trace(rho).real)
        stack[at] = bad
        return np.array(stack, dtype=complex)

    def test_valid_stack_passes(self):
        validate_density(self.stack_with(bell_state()))

    def test_non_hermitian_in_stack(self):
        bad = np.eye(4) / 4.0
        bad[0, 1] = 0.1
        with pytest.raises(NotHermitianError, match="1.000e-01"):
            validate_density(self.stack_with(bad))

    def test_negative_in_stack(self):
        with pytest.raises(NotPSDError, match="-2.000e-01"):
            validate_density(self.stack_with(np.diag([1.2, -0.2, 0.0, 0.0])))

    def test_bad_trace_in_stack(self):
        with pytest.raises(ValueError, match=r"trace deviates from 1 by 3\.000e\+00"):
            validate_density(self.stack_with(np.eye(4)))

    def test_non_finite_in_stack(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_density(self.stack_with(np.full((4, 4), np.nan)))
